import contextlib
import os
import signal
import struct
import sys
import threading
import time
import tracemalloc
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from prosody_codec import dsp
from prosody_codec.config import FeatureConfig, SynthSpec
from prosody_codec.corpus import synth_utterances
from prosody_codec.dsp import (
    AudioBuffer,
    MelSpectrogram,
    estimate_f0,
    frame_count,
    frame_rms,
    invert_mel,
    istft,
    load_wav,
    mel_filterbank,
    mel_spectrogram,
    save_wav,
    stft,
)
from prosody_codec.errors import ContractError, DataError, NumericError

CFG = FeatureConfig()


def sine(freq, seconds=1.0, sr=22050, amp=0.5):
    n = int(seconds * sr)
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * np.arange(n) / sr), sr)


# ---------------------------------------------------------------------------
# wav files


def test_wav_silence_roundtrip(tmp_path):
    path = tmp_path / "silence.wav"
    save_wav(str(path), AudioBuffer(np.zeros(16000), 16000))
    audio = load_wav(str(path))
    assert audio.sample_rate == 16000
    assert len(audio.samples) == 16000
    np.testing.assert_array_equal(audio.samples, np.zeros(16000))


def test_wav_full_scale_normalization(tmp_path):
    path = tmp_path / "full.wav"
    payload = struct.pack("<h", 32767)
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    audio = load_wav(str(path))
    assert audio.samples[0] == pytest.approx(32767 / 32768)


def test_wav_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "stereo.wav"
    left = int(0.5 * 32768)
    right = -left
    payload = struct.pack("<hh", left, right) * 10
    fmt = struct.pack("<HHIIHH", 1, 2, 8000, 32000, 4, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    audio = load_wav(str(path))
    np.testing.assert_allclose(audio.samples, np.zeros(10), atol=1e-12)


def test_wav_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(DataError, match="byte 0"):
        load_wav(str(path))


def test_wav_unsupported_codec_reports_offset(tmp_path):
    path = tmp_path / "alaw.wav"
    fmt = struct.pack("<HHIIHH", 6, 1, 8000, 8000, 1, 8)  # A-law
    payload = b"\x00" * 8
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError, match="unsupported codec"):
        load_wav(str(path))


def test_wav_float32_roundtrip_exact(tmp_path):
    path = tmp_path / "f32.wav"
    x = np.linspace(-0.9, 0.9, 1000).astype(np.float32).astype(np.float64)
    save_wav(str(path), AudioBuffer(x, 22050), float32=True)
    audio = load_wav(str(path))
    np.testing.assert_array_equal(audio.samples, x)


# ---------------------------------------------------------------------------
# mel analysis


def test_mel_zero_signal_is_all_floor():
    mel = mel_spectrogram(AudioBuffer(np.zeros(4096), 22050), CFG)
    np.testing.assert_allclose(mel.values, np.log(CFG.log_floor))
    assert mel.n_frames == 1 + (4096 - CFG.n_fft) // CFG.hop_length


def test_mel_frame_count_formula():
    n = 3 * CFG.hop_length + CFG.n_fft
    mel = mel_spectrogram(AudioBuffer(np.zeros(n), 22050), CFG)
    assert mel.n_frames == 4


def test_mel_too_short_raises():
    with pytest.raises(ContractError):
        mel_spectrogram(AudioBuffer(np.zeros(CFG.n_fft - 1), 22050), CFG)


def test_mel_peak_band_matches_dft_oracle():
    audio = sine(440.0)
    mel = mel_spectrogram(audio, CFG)
    # oracle: DFT one frame directly, find the peak bin, map through the bank
    frame = audio.samples[: CFG.n_fft] * (0.5 - 0.5 * np.cos(2 * np.pi * np.arange(CFG.n_fft) / CFG.n_fft))
    spectrum = np.abs(np.fft.rfft(frame))
    peak_bin = int(np.argmax(spectrum))
    fb = mel_filterbank(CFG.n_mels, CFG.n_fft, audio.sample_rate)
    expected_band = int(np.argmax(fb[:, peak_bin]))
    for t in range(mel.n_frames):
        assert int(np.argmax(mel.values[t])) == expected_band


def test_mel_amplitude_doubling_adds_ln2():
    a = mel_spectrogram(sine(440.0, amp=0.2), CFG)
    b = mel_spectrogram(sine(440.0, amp=0.4), CFG)
    peak = int(np.argmax(a.values[a.n_frames // 2]))
    diff = b.values[:, peak] - a.values[:, peak]
    np.testing.assert_allclose(diff, np.log(2.0), atol=1e-3)


def test_mel_deterministic_bit_identical():
    audio = sine(313.0)
    m1 = mel_spectrogram(audio, CFG)
    m2 = mel_spectrogram(audio, CFG)
    assert np.array_equal(m1.values, m2.values)


# ---------------------------------------------------------------------------
# mel inversion


def test_invert_mel_preserves_tone_f0():
    mel = mel_spectrogram(sine(220.0), CFG)
    audio = invert_mel(mel, CFG.griffin_lim_iters)
    contour = estimate_f0(audio, 50.0, 600.0)
    voiced_f0 = contour.f0[contour.voiced]
    assert voiced_f0.size > 0
    assert abs(np.median(voiced_f0) - 220.0) / 220.0 < 0.03


def test_invert_all_floor_mel_is_near_silent():
    values = np.full((20, CFG.n_mels), np.log(CFG.log_floor))
    mel = MelSpectrogram(values, CFG.hop_length, CFG.n_fft, 22050)
    audio = invert_mel(mel, 10)
    assert np.sqrt(np.mean(audio.samples**2)) < 1e-3


def test_griffin_lim_error_non_increasing():
    mel = mel_spectrogram(sine(330.0, seconds=0.4), CFG)
    _, errors = invert_mel(mel, 30, return_errors=True)
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-9)


def test_invert_mel_output_length():
    mel = mel_spectrogram(sine(220.0, seconds=0.5), CFG)
    audio = invert_mel(mel, 2)
    assert len(audio.samples) == (mel.n_frames - 1) * CFG.hop_length + CFG.n_fft


def test_vocode_computes_no_errors(monkeypatch):
    mel = toy_utterance_mels(1)[0]
    calls = []
    real = dsp._spectral_convergence
    monkeypatch.setattr(dsp, "_spectral_convergence",
                        lambda *args: calls.append(1) or real(*args))
    audio = dsp.vocode(mel, CFG)
    assert calls == []
    with_errors, errors = invert_mel(mel, CFG.griffin_lim_iters, return_errors=True,
                                     floor=CFG.log_floor)
    assert len(calls) == len(errors) == CFG.griffin_lim_iters
    assert audio.samples.tobytes() == with_errors.samples.tobytes()


def test_invert_mel_rejects_zero_iterations():
    mel = mel_spectrogram(sine(220.0, seconds=0.2), CFG)
    with pytest.raises(ContractError):
        invert_mel(mel, 0)


@pytest.mark.parametrize("peak", [709.0, 800.0])
def test_a_mel_too_large_to_invert_is_a_numeric_error(cores, peak):
    # exp(709) is finite and overflows in the pseudo-inverse's product and
    # the FFTs; exp(800) overflows at once. Either way the audio is not
    # finite: a NumericError alone, with no numpy warning from any part
    cores(2)
    mel = toy_utterance_mels(1)[0]
    values = mel.values.copy()
    values[mel.n_frames // 2, 3] = peak
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning in any part would raise
        with pytest.raises(NumericError, match=f"^invert_mel: audio is not finite; "
                                               f"the mel peaks at {peak:g}$"):
            dsp.vocode(MelSpectrogram(values, mel.hop_length, mel.n_fft, mel.sample_rate), CFG)


# ---------------------------------------------------------------------------
# per-frame reference: the loop implementation the strided STFT, overlap-add
# and phase update replaced, kept as the oracle they must reproduce


def _ref_hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _ref_stft(x, n_fft, hop):
    T = 1 + (len(x) - n_fft) // hop
    idx = np.arange(n_fft)[None, :] + hop * np.arange(T)[:, None]
    return np.fft.rfft(x[idx] * _ref_hann(n_fft), axis=1)


def _ref_istft(spec, n_fft, hop):
    T = spec.shape[0]
    window = _ref_hann(n_fft)
    frames = np.fft.irfft(spec, n=n_fft, axis=1) * window
    out_len = (T - 1) * hop + n_fft
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    for t in range(T):
        out[t * hop : t * hop + n_fft] += frames[t]
        norm[t * hop : t * hop + n_fft] += window * window
    return out / np.maximum(norm, 1e-12)


def _ref_magnitude(mel, floor):
    fb = mel_filterbank(mel.n_mels, mel.n_fft, mel.sample_rate)
    mel_mag = np.maximum(np.exp(mel.values) - floor, 0.0)
    return np.maximum(mel_mag @ np.linalg.pinv(fb.T), 0.0)


def _ref_invert_mel(mel, iterations, floor=1e-5):
    magnitude = _ref_magnitude(mel, floor)
    phase = np.zeros_like(magnitude)
    errors = []
    x = _ref_istft(magnitude * np.exp(1j * phase), mel.n_fft, mel.hop_length)
    for _ in range(iterations):
        spec = _ref_stft(x, mel.n_fft, mel.hop_length)
        errors.append(
            float(np.linalg.norm(np.abs(spec) - magnitude) / max(np.linalg.norm(magnitude), 1e-12))
        )
        phase = np.angle(spec)
        x = _ref_istft(magnitude * np.exp(1j * phase), mel.n_fft, mel.hop_length)
    return np.clip(x, -1.0, 1.0), errors


def toy_utterances(n):
    """The acceptance suite's toy corpus (harmonic tones, pitch glides): its
    utterances and their audio."""
    spec = SynthSpec(n_speakers=2, n_utterances=n, phoneme_inventory=10,
                     f0_ranges=[[120.0, 260.0], [140.0, 300.0]], amp_range=[0.3, 1.0],
                     segments_min=8, segments_max=14, glide_semitones=1.0, seed=7)
    pairs = list(synth_utterances(spec, CFG))
    return [utt for utt, _ in pairs], [audio for _, audio in pairs]


def toy_utterance_mels(n):
    return [u.mel for u in toy_utterances(n)[0]]


@pytest.mark.parametrize("T", [1, 2, 70])
@pytest.mark.parametrize("hop", [256, 300, 1024, 1500])
def test_stft_istft_bit_identical_to_per_frame_reference(hop, T):
    # 300 and 1500 do not divide n_fft; 1024 and 1500 leave no overlap
    n_fft = 1024
    rng = np.random.default_rng(hop * 1000 + T)
    x = rng.normal(size=(T - 1) * hop + n_fft + hop // 2)
    spec = stft(x, n_fft, hop)
    assert np.array_equal(spec, _ref_stft(x, n_fft, hop))
    assert np.array_equal(istft(spec, n_fft, hop), _ref_istft(spec, n_fft, hop))


def test_invert_mel_matches_reference_on_toy_utterances():
    for mel in toy_utterance_mels(3):
        audio, errors = invert_mel(mel, CFG.griffin_lim_iters, return_errors=True,
                                   floor=CFG.log_floor)
        ref_x, ref_errors = _ref_invert_mel(mel, CFG.griffin_lim_iters, floor=CFG.log_floor)
        np.testing.assert_allclose(audio.samples, ref_x, rtol=0, atol=1e-9)
        np.testing.assert_allclose(errors, ref_errors, rtol=0, atol=1e-12)


def test_invert_mel_zero_bins_get_zero_phase_like_reference():
    # 16 frames below the floor: zero magnitude rows, and a stretch of exactly
    # silent samples whose spectrum is exactly zero, where |spec| divides
    mel = toy_utterance_mels(1)[0]
    values = mel.values.copy()
    values[20:36] = np.log(CFG.log_floor) - 1.0
    mel = MelSpectrogram(values, mel.hop_length, mel.n_fft, mel.sample_rate)
    magnitude = _ref_magnitude(mel, CFG.log_floor)
    first = _ref_stft(_ref_istft(magnitude.astype(complex), mel.n_fft, mel.hop_length),
                      mel.n_fft, mel.hop_length)
    assert np.any(magnitude == 0.0) and np.any(np.abs(first) == 0.0)
    audio, errors = invert_mel(mel, 20, return_errors=True, floor=CFG.log_floor)
    ref_x, ref_errors = _ref_invert_mel(mel, 20, floor=CFG.log_floor)
    assert np.all(np.isfinite(audio.samples))
    np.testing.assert_allclose(audio.samples, ref_x, rtol=0, atol=1e-9)
    np.testing.assert_allclose(errors, ref_errors, rtol=0, atol=1e-12)


# the row-split Griffin-Lim that the parallel region replaced: every iteration
# splits the frames' row step across the cores, then overlap-adds all blocks
# on the calling thread; kept as the oracle the region must match bit for bit


def _rows_overlap_add(blocks, hop, n):
    T = blocks.shape[0]
    r = blocks.shape[1] // hop
    blocks = blocks.reshape(T, r, hop)
    out = np.zeros((T - 1 + r, hop))
    for k in range(r - 1, -1, -1):
        out[k : k + T] += blocks[:, k]
    return out.reshape(-1)[: (T - 1) * hop + n]


def _rows_griffin_lim_step(frames, window, magnitude, spec, spec_mag, residual, blocks,
                           start, stop):
    dsp._analysis_rows(frames, window, spec, start, stop)
    rows, rows_mag = spec[start:stop], spec_mag[start:stop]
    np.abs(rows, out=rows_mag)
    np.subtract(rows_mag, magnitude[start:stop], out=residual[start:stop])
    silent = rows_mag == 0.0
    np.copyto(rows, 1.0, where=silent)
    np.copyto(rows_mag, 1.0, where=silent)
    rows *= np.divide(magnitude[start:stop], rows_mag, out=rows_mag)
    dsp._synthesis_rows(spec, window, blocks, start, stop)


def _rows_invert_mel(mel, iterations, floor=1e-5):
    n_fft, hop = mel.n_fft, mel.hop_length
    inv = dsp._filterbank_pinv(mel.n_mels, n_fft, mel.sample_rate)
    mel_mag = np.maximum(np.exp(mel.values) - floor, 0.0)
    magnitude = np.maximum(mel_mag @ inv, 0.0)
    magnitude_norm = max(np.linalg.norm(magnitude), 1e-12)
    T = magnitude.shape[0]
    window = dsp._hann(n_fft)
    squares = dsp._padded_rows(T, n_fft, hop)
    np.multiply(window, window, out=squares[:, :n_fft])
    norm = np.maximum(_rows_overlap_add(squares, hop, n_fft), 1e-12)
    spec = np.empty((T, n_fft // 2 + 1), dtype=complex)
    spec_mag, residual = np.empty(spec.shape), np.empty(spec.shape)
    blocks = dsp._padded_rows(T, n_fft, hop)
    dsp._in_region(lambda wait, a, b: dsp._synthesis_rows(magnitude, window, blocks, a, b), T)
    x = _rows_overlap_add(blocks, hop, n_fft) / norm
    frames = sliding_window_view(x, n_fft)[::hop]
    errors = []
    for _ in range(iterations):
        dsp._in_region(lambda wait, a, b: _rows_griffin_lim_step(frames, window, magnitude, spec,
                                                                 spec_mag, residual, blocks, a, b),
                       T)
        errors.append(float(np.linalg.norm(residual) / magnitude_norm))
        np.divide(_rows_overlap_add(blocks, hop, n_fft), norm, out=x)
    return np.clip(x, -1.0, 1.0), errors


def _inversion_bytes(samples, errors):
    return samples.tobytes() + np.asarray(errors).tobytes()


def test_invert_mel_bit_identical_to_row_split_on_toy_utterances():
    for mel in toy_utterance_mels(3):
        audio, errors = invert_mel(mel, CFG.griffin_lim_iters, return_errors=True,
                                   floor=CFG.log_floor)
        expected = _rows_invert_mel(mel, CFG.griffin_lim_iters, floor=CFG.log_floor)
        assert _inversion_bytes(audio.samples, errors) == _inversion_bytes(*expected)


def _ref_estimate_f0(audio, f_min, f_max, hop_length=256, win_length=1024, threshold=0.15):
    # the per-frame YIN loop that the blocked estimate_f0 replaced
    sr = audio.sample_rate
    x = audio.samples
    tau_min = max(2, int(np.floor(sr / f_max)))
    tau_max = int(np.ceil(sr / f_min))
    tau_max = min(tau_max, win_length - 1)
    if len(x) < win_length:
        return np.zeros(0), np.zeros(0, dtype=bool)
    T = 1 + (len(x) - win_length) // hop_length
    xpad = np.concatenate([x, np.zeros(tau_max)])
    f0 = np.zeros(T)
    voiced = np.zeros(T, dtype=bool)
    n_fft = 1
    while n_fft < win_length + tau_max:
        n_fft *= 2
    for t in range(T):
        s = t * hop_length
        seg = xpad[s : s + win_length + tau_max]
        x1 = seg[:win_length]
        energy0 = float(np.dot(x1, x1))
        if energy0 < 1e-10:
            continue
        spec_seg = np.fft.rfft(seg, n_fft)
        spec_win = np.fft.rfft(x1, n_fft)
        ac = np.fft.irfft(spec_seg * np.conj(spec_win), n_fft)[: tau_max + 1]
        csum = np.concatenate([[0.0], np.cumsum(seg * seg)])
        e_tau = csum[win_length : win_length + tau_max + 1] - csum[: tau_max + 1]
        d = energy0 + e_tau - 2.0 * ac
        d = np.maximum(d, 0.0)
        dn = np.ones(tau_max + 1)
        running = np.cumsum(d[1:])
        nonzero = running > 0
        taus = np.arange(1, tau_max + 1)
        dn[1:][nonzero] = d[1:][nonzero] * taus[nonzero] / running[nonzero]
        band = dn[tau_min : tau_max + 1]
        below = np.nonzero(band < threshold)[0]
        if below.size:
            tau = tau_min + below[0]
            while tau + 1 <= tau_max and dn[tau + 1] < dn[tau]:
                tau += 1
        else:
            continue
        tau_hat = float(tau)
        if 1 <= tau < tau_max:
            a, b, c = dn[tau - 1], dn[tau], dn[tau + 1]
            denom = a - 2 * b + c
            if abs(denom) > 1e-12:
                delta = 0.5 * (a - c) / denom
                if abs(delta) < 1:
                    tau_hat = tau + delta
        freq = sr / tau_hat
        f0[t] = float(np.clip(freq, f_min, f_max))
        voiced[t] = True
    return f0, voiced


def _voiced_with_silence():
    audio = sine(180.0, seconds=0.8)
    samples = audio.samples.copy()
    samples[6000:12000] = 0.0
    return AudioBuffer(samples, audio.sample_rate)


F0_CASES = {
    "white_noise": (lambda: AudioBuffer(0.3 * np.random.default_rng(5).normal(size=22050)
                                        .clip(-1, 1), 22050), {}),
    "zero": (lambda: AudioBuffer(np.zeros(8192), 22050), {}),
    "voiced_with_silence": (_voiced_with_silence, {}),
    "one_window": (lambda: sine(220.0, seconds=1024 / 22050), {}),
    # a 20-sample window gives tau_max = 19 < tau_min = floor(22050 / 600) = 36
    "window_below_tau_min": (lambda: sine(220.0, seconds=0.3), {"win_length": 20, "hop_length": 64}),
    "short_hop": (lambda: sine(150.0, seconds=0.5), {"hop_length": 97}),
}


@pytest.mark.parametrize("case", sorted(F0_CASES))
def test_estimate_f0_bit_identical_to_per_frame_reference(case):
    make, kwargs = F0_CASES[case]
    audio = make()
    contour = estimate_f0(audio, 50.0, 600.0, **kwargs)
    f0, voiced = _ref_estimate_f0(audio, 50.0, 600.0, **kwargs)
    assert contour.f0.tobytes() == f0.tobytes()
    assert np.array_equal(contour.voiced, voiced)


def test_estimate_f0_bit_identical_to_per_frame_reference_on_toy_utterances():
    # toy audio and its Griffin-Lim resynthesis, at the run's YIN settings
    utts, audios = toy_utterances(6)
    for utt, audio in zip(utts[:3], audios[:3]):
        audios.append(invert_mel(utt.mel, 10, floor=CFG.log_floor))
    for audio in audios:
        contour = dsp.pitch(audio, CFG)
        f0, voiced = _ref_estimate_f0(audio, CFG.f0_min, CFG.f0_max, hop_length=CFG.hop_length,
                                      win_length=CFG.n_fft, threshold=CFG.yin_threshold)
        assert voiced.any()
        assert contour.f0.tobytes() == f0.tobytes()
        assert np.array_equal(contour.voiced, voiced)


# ---------------------------------------------------------------------------
# frames split across the usable cores


@pytest.fixture
def cores(monkeypatch):
    """Sets the core count dsp splits frames across, with a pool of as many
    threads as that takes; ranges as short as one row."""
    monkeypatch.setattr(dsp, "_MIN_ROWS", 1)
    pools = {}

    def use(n):
        monkeypatch.setattr(dsp, "_usable_cores", lambda: n)
        monkeypatch.setattr(dsp, "_pool", pools.setdefault(n, ThreadPoolExecutor(max(n - 1, 1))))

    yield use
    for pool in pools.values():
        pool.shutdown()


@contextlib.contextmanager
def _switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads trade the interpreter as often as they can
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _dsp_outputs(mel, audio, x):
    samples, errors = invert_mel(mel, 4, return_errors=True, floor=CFG.log_floor)
    spec = stft(x, CFG.n_fft, CFG.hop_length)
    contour = estimate_f0(audio, 50.0, 600.0, hop_length=97)
    return [samples.samples.tobytes(), np.asarray(errors).tobytes(), spec.tobytes(),
            istft(spec, CFG.n_fft, CFG.hop_length).tobytes(), contour.f0.tobytes(),
            contour.voiced.tobytes()]


@pytest.mark.parametrize("T", [1, 2, 5, 40])
def test_same_bits_at_any_core_count(cores, T):
    mel = toy_utterance_mels(1)[0]
    mel = MelSpectrogram(mel.values[:T], mel.hop_length, mel.n_fft, mel.sample_rate)
    n = (T - 1) * CFG.hop_length + CFG.n_fft
    audio = sine(190.0, seconds=n / 22050)
    x = np.random.default_rng(T).normal(size=n)
    outputs = []
    with _switching_often():
        for n_cores in (1, 2, 3, 5):
            cores(n_cores)
            outputs.append(_dsp_outputs(mel, audio, x))
    assert all(out == outputs[0] for out in outputs[1:])


@pytest.mark.parametrize("hop", [256, 300, 1024, 1500])
def test_invert_mel_bit_identical_to_row_split_in_any_region(cores, hop):
    # 300 does not divide n_fft; 1024 and 1500 leave no overlap (r = 1); with
    # 5 parts and few frames, parts own fewer blocks than the r - 1 frames
    # they borrow from their left neighbour
    mel = toy_utterance_mels(1)[0]
    mels = {T: MelSpectrogram(mel.values[:T], hop, mel.n_fft, mel.sample_rate)
            for T in (1, 2, 3, 4, 5, 7, 40)}
    expected = {T: _inversion_bytes(*_rows_invert_mel(m, 6, floor=CFG.log_floor))
                for T, m in mels.items()}
    with _switching_often():
        for n_cores in (1, 2, 3, 5):
            cores(n_cores)
            for T, m in mels.items():
                audio, errors = invert_mel(m, 6, return_errors=True, floor=CFG.log_floor)
                assert _inversion_bytes(audio.samples, errors) == expected[T], (n_cores, T)


def test_region_parts_cover_the_rows_and_wait_together(cores):
    cores(3)
    for n_rows in (1, 2, 3, 10):
        n_parts = min(3, n_rows)
        seen, arrived, together = [], [], []

        def part(wait, start, stop):
            seen.append((start, stop))
            for i in range(4):
                arrived.append(i)
                wait()
                together.append(arrived.count(i) == n_parts)  # no part is a round behind

        with _switching_often():
            dsp._in_region(part, n_rows)
        seen.sort()
        assert seen[0][0] == 0 and seen[-1][1] == n_rows
        assert all(prev[1] == nxt[0] for prev, nxt in zip(seen, seen[1:]))
        assert len(seen) == n_parts
        assert len(together) == 4 * n_parts and all(together)


def test_region_parts_run_under_the_callers_numpy_error_state(cores):
    # numpy's error state is per thread; a pool thread's own would be the default
    cores(3)
    states, before = [], np.geterr()
    with np.errstate(over="ignore", invalid="raise"):
        dsp._in_region(lambda wait, a, b: states.append(np.geterr()), 3)
    assert len(states) == 3
    assert all(state["over"] == "ignore" and state["invalid"] == "raise" for state in states)
    assert np.geterr() == before  # and the caller's state is its own again


def test_split_ranges_cover_the_rows(monkeypatch):
    # parts that never wait, as the STFT's and YIN's; 3 cores and a pool of
    # 2 threads, so the pool does not cap the parts
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(dsp, "_pool", pool)
        for n_rows in (0, 1, dsp._MIN_ROWS, 2 * dsp._MIN_ROWS - 1, 2 * dsp._MIN_ROWS, 100):
            seen = []
            dsp._in_region(lambda wait, a, b: seen.append((a, b)), n_rows)
            seen.sort()
            assert seen[0][0] == 0 and seen[-1][1] == n_rows
            assert all(prev[1] == nxt[0] for prev, nxt in zip(seen, seen[1:]))
            assert len(seen) == max(1, min(3, n_rows // dsp._MIN_ROWS))
            assert len(seen) == 1 or min(b - a for a, b in seen) >= dsp._MIN_ROWS


def test_one_usable_core_starts_no_thread(monkeypatch):
    class NoPool:
        def submit(self, *args):
            raise AssertionError("work was handed to a thread")

    monkeypatch.setattr(dsp, "_usable_cores", lambda: 1)
    monkeypatch.setattr(dsp, "_pool", NoPool())
    invert_mel(toy_utterance_mels(1)[0], 2)
    estimate_f0(sine(220.0), 50.0, 600.0)
    istft(stft(sine(220.0).samples, CFG.n_fft, CFG.hop_length), CFG.n_fft, CFG.hop_length)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _in_child(check, seconds=30):
    """Runs ``check()`` in a forked child; its exit code: 0 if it returned
    true, 1 if false, 2 if it raised. A child still running after
    ``seconds``, as one that waits for good would be, fails the test."""
    pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 0 if check() else 1
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.02)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail("the forked child hung")


@needs_fork
def test_a_forked_child_splits_frames_with_a_pool_of_its_own(monkeypatch):
    # the child inherits the pool object but not its threads; work handed to
    # that pool would never run
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
    x = np.random.default_rng(0).normal(size=40000)
    spec = stft(x, 1024, 256)
    parent_pool = dsp._pool
    assert _in_child(lambda: dsp._pool is not parent_pool
                     and np.array_equal(stft(x, 1024, 256), spec)) == 0


def _inverts_like_row_split(mel, expected):
    audio, errors = invert_mel(mel, 10, return_errors=True, floor=CFG.log_floor)
    return _inversion_bytes(audio.samples, errors) == expected


@needs_fork
def test_region_parts_never_outnumber_the_pool_threads(monkeypatch):
    # 5 usable cores and a pool of 1 thread: 5 parts would wait for good on
    # the parts left in the pool's queue
    mel = toy_utterance_mels(1)[0]
    expected = _inversion_bytes(*_rows_invert_mel(mel, 10, floor=CFG.log_floor))
    monkeypatch.setattr(dsp, "_MIN_ROWS", 1)
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 5)

    def check():
        dsp._pool = ThreadPoolExecutor(1)
        return _inverts_like_row_split(mel, expected)

    assert _in_child(check) == 0


@needs_fork
@pytest.mark.parametrize("where", ["pool", "caller"])
def test_a_failing_part_ends_the_region(monkeypatch, where):
    mel = toy_utterance_mels(1)[0]
    expected = _inversion_bytes(*_rows_invert_mel(mel, 10, floor=CFG.log_floor))
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
    real = dsp._analysis_rows
    calls = []

    def failing(*args):  # the third iteration of the chosen part raises
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            calls.append(1)
            if len(calls) == 3:
                raise ValueError(f"the part on the {where} failed")
        return real(*args)

    def check():
        dsp._pool = ThreadPoolExecutor(1)
        dsp._analysis_rows = failing
        try:
            invert_mel(mel, 10, floor=CFG.log_floor)
        except ValueError as exc:  # the part's own error, not the broken barrier
            raised = str(exc) == f"the part on the {where} failed"
        else:
            return False
        dsp._analysis_rows = real
        # the same one-thread pool runs the next region's second part
        return raised and len(calls) == 3 and _inverts_like_row_split(mel, expected)

    assert _in_child(check) == 0


@needs_fork
def test_a_region_runs_as_one_part_while_another_holds_the_pool(monkeypatch):
    # the first region's parts hold both pool threads until the second has
    # returned; parts of the second left in the pool's queue would never run
    monkeypatch.setattr(dsp, "_MIN_ROWS", 1)
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 3)

    def check():
        dsp._pool = ThreadPoolExecutor(2)
        first, second, release = [], [], threading.Event()

        def held(wait, start, stop):
            first.append((start, stop))
            release.wait()
            wait()

        holder = threading.Thread(target=dsp._in_region, args=(held, 3))
        holder.start()
        while len(first) < 3:
            time.sleep(0.001)
        dsp._in_region(lambda wait, start, stop: second.append((start, stop)) or wait(), 3)
        release.set()
        holder.join()
        return sorted(first) == [(0, 1), (1, 2), (2, 3)] and second == [(0, 3)]

    assert _in_child(check) == 0


def test_an_error_in_a_worker_range_reaches_the_caller(monkeypatch):
    # a part that never waits breaks the barrier for nobody: the pool part's
    # own error reaches the caller, and the caller's part runs to its end
    monkeypatch.setattr(dsp, "_usable_cores", lambda: 2)
    done = []

    def part(wait, start, stop):
        if start > 0:
            raise ValueError(f"rows {start}..{stop}")
        done.append(start)

    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(dsp, "_pool", pool)
        with pytest.raises(ValueError, match=f"rows {dsp._MIN_ROWS}"):
            dsp._in_region(part, 2 * dsp._MIN_ROWS)
    assert done == [0]


def test_cached_filterbank_is_read_only():
    audio = sine(313.0, seconds=0.3)
    before = mel_spectrogram(audio, CFG)
    fb = mel_filterbank(CFG.n_mels, CFG.n_fft, audio.sample_rate)
    with pytest.raises(ValueError, match="read-only"):
        fb[0, 0] = 1.0
    after = mel_spectrogram(audio, CFG)
    assert np.array_equal(before.values, after.values)


@pytest.mark.parametrize(
    "call",
    [
        lambda: frame_count(4096, 1024, 0),
        lambda: stft(np.zeros(4096), 1024, 0),
        lambda: istft(np.zeros((4, 513), dtype=complex), 1024, 0),
        lambda: frame_rms(AudioBuffer(np.zeros(4096), 22050), 0, 1024),
        lambda: estimate_f0(AudioBuffer(np.zeros(4096), 22050), 50.0, 600.0, hop_length=0),
    ],
    ids=["frame_count", "stft", "istft", "frame_rms", "estimate_f0"],
)
def test_zero_hop_rejected(call):
    with pytest.raises(ContractError, match="hop must be >= 1"):
        call()


@pytest.mark.parametrize("sizes", [(0, 1024, 22050), (256, 0, 22050), (256, 1024, 0)],
                         ids=["hop_length", "n_fft", "sample_rate"])
def test_mel_rejects_nonpositive_sizes(sizes):
    # n_fft=0 used to reach invert_mel and fail there with a raw LinAlgError
    with pytest.raises(ContractError, match="must be >= 1"):
        invert_mel(MelSpectrogram(np.zeros((5, 80)), *sizes), 2)


def test_estimate_f0_rejects_zero_window():
    # used to raise a raw ValueError ("negative dimensions are not allowed")
    with pytest.raises(ContractError, match="win_length must be >= 1"):
        estimate_f0(sine(220.0, seconds=8192 / 22050), 50.0, 600.0, win_length=0)


# ---------------------------------------------------------------------------
# harmonic synthesis


def _ref_harmonic_sum(f0_track, weights, bounds, sr):
    # the synthesizer's loop that harmonic_sum replaced: every harmonic masked
    # at every sample, with weights gathered per sample; kept as the oracle
    # harmonic_sum must match bit for bit
    n_samples = len(f0_track)
    seg_of_sample = np.empty(n_samples, dtype=np.int64)
    for i in range(len(weights)):
        seg_of_sample[int(bounds[i]) : int(bounds[i + 1])] = i
    phase = 2.0 * np.pi * np.cumsum(f0_track) / sr
    wave = np.zeros(n_samples)
    seg_timbre = weights[seg_of_sample]  # (n_samples, H)
    for h in range(weights.shape[1]):
        harmonic_freq = (h + 1) * f0_track
        audible = harmonic_freq < sr / 2
        wave += np.where(audible, seg_timbre[:, h], 0.0) * np.sin((h + 1) * phase)
    return wave


@pytest.mark.parametrize("n_samples, f_hi", [(4099, 400.0), (10001, 1500.0)])
def test_harmonic_sum_bit_identical_to_the_per_sample_loop_at_any_core_count(cores, n_samples,
                                                                           f_hi):
    sr, n_seg, n_harmonics = 16000, 9, 12
    rng = np.random.default_rng(n_samples)
    cuts = np.sort(rng.choice(np.arange(1, n_samples), n_seg - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [n_samples]])
    glide = 2.0 ** (rng.uniform(-1.0, 1.0, n_samples) / 12.0)
    f0_track = np.repeat(rng.uniform(100.0, f_hi, n_seg), np.diff(bounds)) * glide
    weights = rng.uniform(0.0, 1.0, (n_seg, n_harmonics))
    # at 1500 Hz the upper harmonics cross Nyquist at some samples only, so
    # the mask is applied; at 400 Hz no harmonic reaches it
    harmonics = np.arange(1, n_harmonics + 1)[:, None] * f0_track
    assert np.any((harmonics >= sr / 2).any(axis=1) & (harmonics < sr / 2).any(axis=1)) == (f_hi > 1000)
    expected = _ref_harmonic_sum(f0_track, weights, bounds, sr).tobytes()
    for n in (1, 2, 3):
        cores(n)
        assert dsp.harmonic_sum(f0_track, weights, bounds, sr).tobytes() == expected


# ---------------------------------------------------------------------------
# pitch


def test_f0_pure_tone():
    contour = estimate_f0(sine(220.0), 50.0, 600.0)
    assert np.all(contour.voiced)
    np.testing.assert_allclose(contour.f0, 220.0, atol=2.0)


def test_f0_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(0)
    audio = AudioBuffer(0.01 * rng.normal(size=22050), 22050)
    contour = estimate_f0(audio, 50.0, 600.0)
    assert contour.voiced.mean() < 0.5


def test_f0_zero_signal_unvoiced():
    contour = estimate_f0(AudioBuffer(np.zeros(8192), 22050), 50.0, 600.0)
    assert not contour.voiced.any()
    np.testing.assert_array_equal(contour.f0, 0.0)


def test_f0_voicing_consistency_invariant():
    contour = estimate_f0(sine(170.0, seconds=0.6), 50.0, 600.0)
    assert np.array_equal(contour.f0 > 0, contour.voiced)
    voiced_values = contour.f0[contour.voiced]
    assert np.all((voiced_values >= 50.0) & (voiced_values <= 600.0))


def test_f0_memory_stays_bounded_on_long_audio():
    # one (T, n_fft) float64 array for all T frames of 60 s holds 84 MB, and
    # a version that is not blocked holds several at once; blocks of frames
    # keep the peak at a few MB over the padded copy of the input
    audio = sine(200.0, seconds=60.0)
    T = 1 + (len(audio.samples) - CFG.n_fft) // CFG.hop_length
    unblocked_array = T * 2048 * 8
    tracemalloc.start()
    try:
        contour = dsp.pitch(audio, CFG)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(contour.f0) == T and contour.voiced.all()
    assert peak < unblocked_array / 2


def test_f0_bad_range_rejected():
    with pytest.raises(ContractError):
        estimate_f0(sine(220.0, seconds=0.2), 600.0, 50.0)


# ---------------------------------------------------------------------------
# energy


def test_rms_constant_signal():
    audio = AudioBuffer(np.full(4096, 0.3), 22050)
    rms = frame_rms(audio, 256, 1024)
    np.testing.assert_allclose(rms, 0.3, rtol=1e-12)


def test_rms_sine_is_amp_over_sqrt2():
    rms = frame_rms(sine(440.0, amp=0.6), 256, 2048)
    np.testing.assert_allclose(rms, 0.6 / np.sqrt(2), rtol=5e-3)


def test_rms_zero_signal():
    rms = frame_rms(AudioBuffer(np.zeros(4096), 22050), 256, 1024)
    np.testing.assert_array_equal(rms, 0.0)


def test_rms_framing_matches_mel():
    audio = sine(220.0, seconds=0.7)
    mel = mel_spectrogram(audio, CFG)
    rms = frame_rms(audio, CFG.hop_length, CFG.n_fft)
    assert len(rms) == mel.n_frames
    # frame t covers samples t*hop .. t*hop+win; the tail shorter than a hop is dropped
    x = np.random.default_rng(5).normal(size=1000) * 0.1
    rms = frame_rms(AudioBuffer(x, 8000), 97, 300)
    expected = [np.sqrt(np.mean(x[t : t + 300] ** 2)) for t in range(0, 701, 97)]
    np.testing.assert_allclose(rms, expected, rtol=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.01, 1.0), st.integers(0, 2**16))
def test_rms_scales_linearly(scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=3000)
    base = frame_rms(AudioBuffer(np.clip(x, -1, 1) * 0.3, 8000), 200, 400)
    scaled = frame_rms(AudioBuffer(np.clip(x, -1, 1) * 0.3 * scale, 8000), 200, 400)
    assert np.all(base >= 0)
    np.testing.assert_allclose(scaled, base * scale, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# filterbank shape contract


def test_filterbank_covers_full_range():
    fb = mel_filterbank(CFG.n_mels, CFG.n_fft, 22050)
    assert fb.shape == (CFG.n_mels, CFG.n_fft // 2 + 1)
    assert np.all(fb >= 0)
    interior = fb.sum(axis=0)[3:-3]
    assert np.all(interior > 0)  # triangles tile the band without gaps
