"""Audio I/O and DSP: wav files, log-mel analysis and inversion, pitch, energy.

Mel frames are strictly causal windows: T = 1 + floor((len - n_fft) / hop),
no center padding, so frame/duration bookkeeping stays exact across the
codec and the synthetic corpus generator.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import FeatureConfig
from .errors import ContractError, DataError

_PCM16_SCALE = 32768.0


@dataclass
class AudioBuffer:
    samples: np.ndarray  # float64, [-1, 1]
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ContractError("AudioBuffer: sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ContractError("AudioBuffer: samples must be finite")


@dataclass
class MelSpectrogram:
    values: np.ndarray  # (T, M), natural-log amplitude
    hop_length: int
    n_fft: int
    sample_rate: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ContractError(f"MelSpectrogram: bad shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ContractError("MelSpectrogram: values must be finite")
        for name in ("hop_length", "n_fft", "sample_rate"):
            if getattr(self, name) < 1:
                raise ContractError(f"MelSpectrogram: {name} must be >= 1, got {getattr(self, name)}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_mels(self) -> int:
        return self.values.shape[1]


@dataclass
class PitchContour:
    f0: np.ndarray  # Hz per frame, 0 where unvoiced
    voiced: np.ndarray  # bool per frame

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=np.float64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        if self.f0.shape != self.voiced.shape:
            raise ContractError("PitchContour: f0 and voiced must share shape")


# ---------------------------------------------------------------------------
# WAV files (RIFF PCM16 / float32)


def load_wav(path: str) -> AudioBuffer:
    """Read a RIFF wav file; multi-channel input is averaged to mono."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF":
        raise DataError(f"{path}: bad RIFF magic at byte 0")
    if raw[8:12] != b"WAVE":
        raise DataError(f"{path}: bad WAVE tag at byte 8")
    offset = 12
    fmt = None
    data = None
    data_offset = None
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, offset + 4)
        body = raw[offset + 8 : offset + 8 + chunk_size]
        if len(body) < chunk_size:
            raise DataError(f"{path}: truncated chunk {chunk_id!r} at byte {offset}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise DataError(f"{path}: short fmt chunk at byte {offset}")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
            data_offset = offset + 8
        offset += 8 + chunk_size + (chunk_size & 1)
    if fmt is None:
        raise DataError(f"{path}: no fmt chunk found (file ends at byte {len(raw)})")
    if data is None:
        raise DataError(f"{path}: no data chunk found (file ends at byte {len(raw)})")
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise DataError(f"{path}: zero channels in fmt chunk")
    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2").astype(np.float64)
        samples /= _PCM16_SCALE
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4").astype(np.float64)
    else:
        raise DataError(
            f"{path}: unsupported codec (format {audio_format}, {bits}-bit) "
            f"at byte {data_offset}"
        )
    if channels > 1:
        usable = len(samples) - len(samples) % channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    return AudioBuffer(samples=samples, sample_rate=sample_rate)


def save_wav(path: str, audio: AudioBuffer, float32: bool = False) -> None:
    x = np.clip(audio.samples, -1.0, 1.0)
    if float32:
        payload = x.astype("<f4").tobytes()
        fmt_chunk = struct.pack(
            "<HHIIHH", 3, 1, audio.sample_rate, audio.sample_rate * 4, 4, 32
        )
    else:
        ints = np.clip(np.round(x * _PCM16_SCALE), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        fmt_chunk = struct.pack(
            "<HHIIHH", 1, 1, audio.sample_rate, audio.sample_rate * 2, 2, 16
        )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


# ---------------------------------------------------------------------------
# STFT / mel filterbank


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached tables are shared by every caller; a stray write must raise
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    # periodic Hann, COLA-compatible at 75% overlap
    return _read_only(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))


def _require_hop(hop: int, where: str) -> None:
    if hop < 1:
        raise ContractError(f"{where}: hop must be >= 1, got {hop}")


def frame_count(n_samples: int, n_fft: int, hop: int) -> int:
    _require_hop(hop, "frame_count")
    if n_samples < n_fft:
        raise ContractError(f"audio of {n_samples} samples is shorter than one {n_fft} window")
    return 1 + (n_samples - n_fft) // hop


def stft(x: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Complex spectrogram, shape (T, n_fft//2 + 1)."""
    frame_count(len(x), n_fft, hop)  # rejects a bad hop or too short a signal
    frames = sliding_window_view(x, n_fft)[::hop] * _hann(n_fft)
    return np.fft.rfft(frames, axis=1)


def _overlap_add(frames: np.ndarray, window: np.ndarray, hop: int) -> np.ndarray:
    """Sum of the windowed (T, n) frames placed ``hop`` samples apart; length
    (T-1)*hop + n.

    Each windowed frame is cut into r = ceil(n / hop) zero-padded blocks of
    ``hop`` samples, and block k of every frame is added to output blocks
    k..k+T-1 in one vectorized add. Going through k in descending order adds
    the frames covering any one sample in ascending frame order, starting
    from zero: the same float sums as a loop that adds frame after frame.
    """
    T, n = frames.shape
    r = -(-n // hop)
    blocks = np.zeros((T, r * hop))
    np.multiply(frames, window, out=blocks[:, :n])
    blocks = blocks.reshape(T, r, hop)
    out = np.zeros((T - 1 + r, hop))
    for k in range(r - 1, -1, -1):
        out[k : k + T] += blocks[:, k]
    return out.reshape(-1)[: (T - 1) * hop + n]


@functools.lru_cache(maxsize=16)
def _ola_norm(T: int, n_fft: int, hop: int) -> np.ndarray:
    # squared-window overlap-add, clamped away from zero in the gaps
    window = _hann(n_fft)
    squares = _overlap_add(np.broadcast_to(window, (T, n_fft)), window, hop)
    return _read_only(np.maximum(squares, 1e-12))


def istft(spec: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Overlap-add inverse of :func:`stft` with squared-window normalization."""
    _require_hop(hop, "istft")
    frames = np.fft.irfft(spec, n=n_fft, axis=1)
    return _overlap_add(frames, _hann(n_fft), hop) / _ola_norm(spec.shape[0], n_fft, hop)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=8)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular, area-normalized filters over [0, sample_rate/2]; (M, K).

    Cached per argument triple; the returned array is shared and read-only.
    """
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * sample_rate / n_fft
    mel_pts = np.linspace(_hz_to_mel(0.0), _hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (fft_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - fft_freqs) / max(hi - center, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
        fb[m] *= 2.0 / (hi - lo)  # area normalization
    return _read_only(fb)


@functools.lru_cache(maxsize=8)
def _filterbank_pinv(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Pseudo-inverse of the transposed filterbank, (M, K); cached and read-only."""
    return _read_only(np.linalg.pinv(mel_filterbank(n_mels, n_fft, sample_rate).T))


def mel_spectrogram(audio: AudioBuffer, cfg: FeatureConfig) -> MelSpectrogram:
    """Log-mel amplitude: ln(max(mel_magnitude, log_floor))."""
    if len(audio.samples) < cfg.n_fft:
        raise ContractError(
            f"audio of {len(audio.samples)} samples is shorter than one "
            f"{cfg.n_fft}-sample analysis window"
        )
    spec = stft(audio.samples, cfg.n_fft, cfg.hop_length)
    magnitude = np.abs(spec)
    fb = mel_filterbank(cfg.n_mels, cfg.n_fft, audio.sample_rate)
    mel_mag = magnitude @ fb.T
    values = np.log(np.maximum(mel_mag, cfg.log_floor))
    return MelSpectrogram(
        values=values,
        hop_length=cfg.hop_length,
        n_fft=cfg.n_fft,
        sample_rate=audio.sample_rate,
    )


def invert_mel(
    mel: MelSpectrogram, iterations: int, return_errors: bool = False, floor: float = 1e-5
):
    """Approximate waveform from a log-mel matrix.

    Mel magnitudes (minus the representation's floor, which stands for
    silence) go to a linear spectrogram via the clamped pseudo-inverse of
    the filterbank, then Griffin-Lim phase recovery (zero-phase init,
    deterministic). The filterbank, its pseudo-inverse, the window and the
    overlap-add normalization are cached per shape, so repeated calls only
    pay for the iterations.

    Each iteration keeps the target magnitude and takes the phase of the
    current estimate, ``spec * (magnitude / |spec|)``. A bin where
    ``|spec|`` is exactly zero gets phase 0, as ``angle(0)`` would give.
    ``return_errors`` adds the spectral-convergence error
    ``||spec| - magnitude| / |magnitude|`` of each iteration.
    """
    if iterations < 1:
        raise ContractError("invert_mel: iterations must be >= 1")
    n_fft, hop = mel.n_fft, mel.hop_length
    inv = _filterbank_pinv(mel.n_mels, n_fft, mel.sample_rate)
    mel_mag = np.maximum(np.exp(mel.values) - floor, 0.0)
    magnitude = np.maximum(mel_mag @ inv, 0.0)
    magnitude_norm = max(np.linalg.norm(magnitude), 1e-12)

    errors = []
    x = istft(magnitude, n_fft, hop)
    for _ in range(iterations):
        spec = stft(x, n_fft, hop)
        spec_mag = np.abs(spec)
        errors.append(float(np.linalg.norm(spec_mag - magnitude) / magnitude_norm))
        silent = spec_mag == 0.0  # phase 0 there: the bin becomes its target magnitude
        np.copyto(spec, 1.0, where=silent)
        np.copyto(spec_mag, 1.0, where=silent)
        spec *= np.divide(magnitude, spec_mag, out=spec_mag)
        x = istft(spec, n_fft, hop)
    audio = AudioBuffer(samples=np.clip(x, -1.0, 1.0), sample_rate=mel.sample_rate)
    if return_errors:
        return audio, errors
    return audio


def vocode(mel: MelSpectrogram, features: FeatureConfig) -> AudioBuffer:
    """A model mel as audio, inverted with the run's Griffin-Lim settings."""
    return invert_mel(mel, features.griffin_lim_iters, floor=features.log_floor)


# ---------------------------------------------------------------------------
# pitch and energy


def estimate_f0(
    audio: AudioBuffer,
    f_min: float,
    f_max: float,
    hop_length: int = 256,
    win_length: int = 1024,
    threshold: float = 0.15,
) -> PitchContour:
    """Per-frame F0 via the YIN difference function.

    Cumulative-mean-normalized difference, absolute threshold on its minimum
    for voicing, parabolic interpolation around the chosen lag. Degenerate
    frames come back unvoiced with f0 = 0.
    """
    _require_hop(hop_length, "estimate_f0")
    if win_length < 1:
        raise ContractError(f"estimate_f0: win_length must be >= 1, got {win_length}")
    sr = audio.sample_rate
    if not (0 < f_min < f_max < sr / 2):
        raise ContractError(f"estimate_f0: need 0 < f_min < f_max < {sr / 2}")
    x = audio.samples
    tau_min = max(2, int(np.floor(sr / f_max)))
    tau_max = int(np.ceil(sr / f_min))
    tau_max = min(tau_max, win_length - 1)
    if len(x) < win_length:
        return PitchContour(f0=np.zeros(0), voiced=np.zeros(0, dtype=bool))
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
        # d(tau) = e(0) + e(tau) - 2*crosscorr(tau), all via one FFT pair
        spec_seg = np.fft.rfft(seg, n_fft)
        spec_win = np.fft.rfft(x1, n_fft)
        ac = np.fft.irfft(spec_seg * np.conj(spec_win), n_fft)[: tau_max + 1]
        csum = np.concatenate([[0.0], np.cumsum(seg * seg)])
        e_tau = csum[win_length : win_length + tau_max + 1] - csum[: tau_max + 1]
        d = energy0 + e_tau - 2.0 * ac
        d = np.maximum(d, 0.0)
        # cumulative-mean normalization
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
            continue  # unvoiced: normalized minimum never crosses the threshold
        # parabolic interpolation around the minimum
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
    return PitchContour(f0=f0, voiced=voiced)


def pitch(audio: AudioBuffer, features: FeatureConfig) -> PitchContour:
    """F0 contour with the run's YIN settings, framed like its mels."""
    return estimate_f0(
        audio,
        features.f0_min,
        features.f0_max,
        hop_length=features.hop_length,
        win_length=features.n_fft,
        threshold=features.yin_threshold,
    )


def frame_rms(audio: AudioBuffer, hop: int, win: int) -> np.ndarray:
    """Root-mean-square energy per frame; framing matches mel_spectrogram."""
    if win < 1:
        raise ContractError("frame_rms: win must be >= 1")
    _require_hop(hop, "frame_rms")
    x = audio.samples
    if len(x) < win:
        return np.zeros(0)
    T = 1 + (len(x) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(T)[:, None]
    return np.sqrt(np.mean(x[idx] ** 2, axis=1))
