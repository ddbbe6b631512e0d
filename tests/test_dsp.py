import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from prosody_codec.errors import ContractError, DataError

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


def test_invert_mel_rejects_zero_iterations():
    mel = mel_spectrogram(sine(220.0, seconds=0.2), CFG)
    with pytest.raises(ContractError):
        invert_mel(mel, 0)


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


def toy_utterance_mels(n):
    """Mels of the acceptance suite's toy corpus (harmonic tones, pitch glides)."""
    spec = SynthSpec(n_speakers=2, n_utterances=n, phoneme_inventory=10,
                     f0_ranges=[[120.0, 260.0], [140.0, 300.0]], amp_range=[0.3, 1.0],
                     segments_min=8, segments_max=14, glide_semitones=1.0, seed=7)
    utts, _, _ = synth_utterances(spec, CFG)
    return [u.mel for u in utts]


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
