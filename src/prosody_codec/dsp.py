"""Audio I/O and DSP: wav files, harmonic synthesis, log-mel analysis and
inversion, pitch, energy.

Mel frames are strictly causal windows: T = 1 + floor((len - n_fft) / hop),
no center padding, so frame/duration bookkeeping stays exact across the
codec and the synthetic corpus generator.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
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
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read wav {path}: {exc.strerror}") from None
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
# rows split across the usable cores

_MIN_ROWS = 16  # no thread gets a range of fewer rows (frames, blocks, samples) than this


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_pool() -> ThreadPoolExecutor:
    # starts no thread until work is first submitted to it
    return ThreadPoolExecutor(max_workers=max(_usable_cores() - 1, 1), thread_name_prefix="dsp-rows")


_pool = _new_pool()
_region_lock = threading.Lock()  # held while a region's parts occupy the pool's threads


def _new_pool_in_child() -> None:
    # a forked child inherits the pool object but none of its threads, and
    # the lock as it was, held or not
    global _pool, _region_lock
    _pool = _new_pool()
    _region_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool_in_child)


def _no_wait() -> None:
    pass


def _in_region(part, n_rows: int) -> None:
    """Run ``part(wait, start, stop)`` on contiguous ranges that cover rows
    0..n_rows, all at the same time, as one parallel region. This is the
    only code that hands work to the module's thread pool, whose threads
    start at the first split.

    There is one range per usable core and none shorter than ``_MIN_ROWS``,
    but never more than the pool has threads plus one, since a part left in
    the pool's queue would hold the others at their first wait. The first
    range runs on the calling thread. With one part, and while another
    thread's region holds the pool, this is ``part(wait, 0, n_rows)`` with a
    ``wait`` that returns at once.

    Parts step in rounds: ``wait()`` returns once every part has called it
    as often, so each part calls it the same number of times; a part that
    only treats its own rows never calls it. A part writes only its own rows
    of the caller's arrays and reads another part's rows only after a wait,
    so the result does not depend on the split; the caller reads them all
    after the region. A part that raises breaks the barrier, so every other
    part raises ``BrokenBarrierError`` at its next wait; once all have
    returned, the part's own exception is raised here, the calling thread's
    first. Parts call only this module's private functions, because the
    tracer that wraps its public names is not thread-safe, and never
    ``_in_region``, whose work would queue behind the waiting parts.
    """
    n = min(_usable_cores(), n_rows // _MIN_ROWS)
    if n > 1:
        n = min(n, _pool._max_workers + 1)
    if n <= 1 or not _region_lock.acquire(blocking=False):
        part(_no_wait, 0, n_rows)
        return
    barrier = threading.Barrier(n)

    def run(start, stop):
        try:
            part(barrier.wait, start, stop)
        except BaseException:
            barrier.abort()
            raise

    bounds = [n_rows * i // n for i in range(n + 1)]
    futures, broken = [], None
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            futures.append(_pool.submit(run, a, b))
        run(0, bounds[1])
    except threading.BrokenBarrierError as exc:
        broken = exc  # a part in the pool raised; its exception goes first
    except BaseException:
        barrier.abort()  # frees the parts already submitted if a submit failed
        raise
    finally:
        for future in futures:
            future.exception()  # waits; the parts write into the caller's arrays
        _region_lock.release()
    for future in futures:
        if not isinstance(future.exception(), threading.BrokenBarrierError):
            future.result()
    if broken is not None:
        raise broken


# ---------------------------------------------------------------------------
# harmonic synthesis


def harmonic_sum(f0_track: np.ndarray, weights: np.ndarray, bounds: np.ndarray,
                 sample_rate: int) -> np.ndarray:
    """A harmonic tone: at each sample of segment i, the sum over harmonics
    h = 1..H of ``weights[i, h - 1] * sin(h * phase)``, where ``phase`` is
    2π times the running sum of ``f0_track`` over ``sample_rate``. A harmonic
    at or above Nyquist at a sample adds 0 there. Segment i owns samples
    ``bounds[i]`` to ``bounds[i + 1]``, and ``bounds[-1]`` is the sample count.

    The samples are split across the usable cores as one parallel region
    (see :func:`_in_region`). Each sample adds its harmonics in order,
    starting from 0.0, so the bits do not depend on the split.
    """
    phase = 2.0 * np.pi * np.cumsum(f0_track) / sample_rate
    wave = np.zeros(len(f0_track))
    _in_region(lambda wait, start, stop: _harmonic_rows(f0_track, phase, weights, bounds,
                                                        sample_rate / 2, wave, start, stop),
               len(wave))
    return wave


def _harmonic_rows(f0_track, phase, weights, bounds, nyquist, wave, start: int, stop: int) -> None:
    """``wave[start:stop] +=`` each harmonic of :func:`harmonic_sum` in turn."""
    counts = np.diff(np.clip(bounds, start, stop))  # samples of each segment in the range
    f0, out = f0_track[start:stop], wave[start:stop]
    top = f0.max()
    for h in range(weights.shape[1]):
        w = np.repeat(weights[:, h], counts)
        if (h + 1) * top >= nyquist:  # the harmonic is inaudible at some samples
            w = np.where((h + 1) * f0 < nyquist, w, 0.0)
        out += w * np.sin((h + 1) * phase[start:stop])


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
    T = frame_count(len(x), n_fft, hop)  # rejects a bad hop or too short a signal
    spec = np.empty((T, n_fft // 2 + 1), dtype=complex)
    frames = sliding_window_view(x, n_fft)[::hop]
    window = _hann(n_fft)
    _in_region(lambda wait, start, stop: _analysis_rows(frames, window, spec, start, stop), T)
    return spec


def istft(spec: np.ndarray, n_fft: int, hop: int) -> np.ndarray:
    """Overlap-add inverse of :func:`stft` with squared-window normalization."""
    _require_hop(hop, "istft")
    T = spec.shape[0]
    blocks = _padded_rows(T, n_fft, hop)
    window = _hann(n_fft)
    _in_region(lambda wait, start, stop: _synthesis_rows(spec, window, blocks, start, stop), T)
    return _signal(_overlap_add(blocks, hop), T, n_fft, hop) / _ola_norm(T, n_fft, hop)


def _analysis_rows(frames, window, spec, start: int, stop: int) -> None:
    """``spec[start:stop]``: the rFFT of those frames times the window."""
    np.fft.rfft(frames[start:stop] * window, axis=1, out=spec[start:stop])


def _synthesis_rows(spec, window, blocks, start: int, stop: int) -> None:
    """The windowed irFFT of ``spec[start:stop]`` into the first n_fft columns
    of those rows of ``blocks`` (see :func:`_padded_rows`)."""
    n_fft = window.shape[0]
    rows = blocks[start:stop, :n_fft]
    np.fft.irfft(spec[start:stop], n=n_fft, axis=1, out=rows)
    rows *= window


def _blocks_per_frame(n: int, hop: int) -> int:
    """r = ceil(n / hop): the hop-sized blocks a frame of n samples reaches."""
    return -(-n // hop)


def _padded_rows(T: int, n: int, hop: int) -> np.ndarray:
    """Zeros of shape (T, r*hop), r = ceil(n / hop): room for T frames of n
    samples, each cut into r blocks of ``hop`` by :func:`_overlap_add`."""
    return np.zeros((T, _blocks_per_frame(n, hop) * hop))


def _overlap_add(blocks: np.ndarray, hop: int, first: int = 0, start: int = 0,
                 stop: int | None = None) -> np.ndarray:
    """Blocks start..stop, shape (stop - start, hop), of the sum of windowed
    frames placed ``hop`` samples apart, from the rows of frames first,
    first + 1, ... in :func:`_padded_rows`. The rows must hold every frame
    that reaches those blocks. By default, all T - 1 + r blocks of the sum
    of T frames; :func:`_signal` cuts the signal from them.

    Block k of every frame is added to its output block in one vectorized
    add. Going through k in descending order adds the frames covering any
    one sample in ascending frame order, starting from zero: the same float
    sums as a loop that adds frame after frame, over any range of blocks.
    """
    n_rows, r = blocks.shape[0], blocks.shape[1] // hop
    stop = first + n_rows - 1 + r if stop is None else stop
    blocks = blocks.reshape(n_rows, r, hop)
    out = np.zeros((stop - start, hop))
    for k in range(r - 1, -1, -1):  # output block j gets block k of frame j - k
        a, b = max(start, first + k), min(stop, first + n_rows + k)
        if a < b:
            out[a - start : b - start] += blocks[a - k - first : b - k - first, k]
    return out


def _signal(blocks: np.ndarray, T: int, n: int, hop: int) -> np.ndarray:
    """The (T-1)*hop + n samples of T frames of n from their overlap-added blocks."""
    return blocks.reshape(-1)[: (T - 1) * hop + n]


@functools.lru_cache(maxsize=16)
def _ola_norm(T: int, n_fft: int, hop: int) -> np.ndarray:
    # squared-window overlap-add, clamped away from zero in the gaps
    window = _hann(n_fft)
    blocks = _padded_rows(T, n_fft, hop)
    np.multiply(window, window, out=blocks[:, :n_fft])
    return _read_only(np.maximum(_signal(_overlap_add(blocks, hop), T, n_fft, hop), 1e-12))


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
    ``||spec| - magnitude| / |magnitude|`` of each iteration; it is computed
    only then.

    The first synthesis and all iterations run as one parallel region (see
    :func:`_in_region`) over the T - 1 + r hop-sized blocks of the output,
    r = ceil(n_fft / hop): each part computes the frames that reach its
    blocks, overlap-adds and normalises only those blocks, then waits for
    the others; see :func:`_griffin_lim_part`. Every block sums the same
    frames in the same order as on one core, so the bits do not depend on
    the split.
    """
    if iterations < 1:
        raise ContractError("invert_mel: iterations must be >= 1")
    n_fft, hop = mel.n_fft, mel.hop_length
    inv = _filterbank_pinv(mel.n_mels, n_fft, mel.sample_rate)
    mel_mag = np.maximum(np.exp(mel.values) - floor, 0.0)
    magnitude = np.maximum(mel_mag @ inv, 0.0)
    magnitude_norm = max(np.linalg.norm(magnitude), 1e-12)

    T = magnitude.shape[0]
    norm = _ola_norm(T, n_fft, hop)
    # round i writes signal and residual i % 2 and reads the other signal
    signals = np.empty((2, norm.shape[0]))
    residuals = np.empty((2,) + magnitude.shape) if return_errors else None
    errors = []

    def part(wait, start, stop):
        for i in _griffin_lim_part(magnitude, _hann(n_fft), norm, hop, signals, residuals,
                                   iterations, start, stop):
            wait()
            if i and residuals is not None and start == 0:  # the calling thread
                errors.append(_spectral_convergence(residuals[i % 2], magnitude_norm))

    _in_region(part, T - 1 + _blocks_per_frame(n_fft, hop))
    audio = AudioBuffer(samples=np.clip(signals[iterations % 2], -1.0, 1.0),
                        sample_rate=mel.sample_rate)
    if return_errors:
        return audio, errors
    return audio


def _griffin_lim_part(magnitude, window, norm, hop, signals, residuals, iterations,
                      start: int, stop: int):
    """Griffin-Lim on output blocks start..stop of :func:`invert_mel`, one
    round per step of the generator, which yields the round's number.

    Round 0 synthesises from ``magnitude``; round i >= 1 is iteration i,
    which analyses ``signals[(i - 1) % 2]``. Each round writes the blocks'
    samples of ``signals[i % 2]`` and, unless ``residuals`` is None,
    ``|spec| - magnitude`` of the frames that start in those blocks into
    ``residuals[i % 2]``. The part computes every frame that reaches its
    blocks: those they start and the r - 1 before, which the part to its
    left computes too.
    """
    n_fft = window.shape[0]
    T = magnitude.shape[0]
    first, last = max(start - _blocks_per_frame(n_fft, hop) + 1, 0), min(stop, T)
    n_rows, own = last - first, slice(start - first, None)  # own: the frames it starts
    target = magnitude[first:last]
    frames = [sliding_window_view(x, n_fft)[::hop][first:last] for x in signals]
    spec = np.empty((n_rows, target.shape[1]), dtype=complex)
    spec_mag = np.empty(spec.shape)
    blocks = _padded_rows(n_rows, n_fft, hop)
    lo, hi = start * hop, min(stop * hop, norm.shape[0])
    _synthesis_rows(target, window, blocks, 0, n_rows)
    for i in range(iterations + 1):
        if i:
            _analysis_rows(frames[(i - 1) % 2], window, spec, 0, n_rows)
            np.abs(spec, out=spec_mag)
            if residuals is not None:
                np.subtract(spec_mag[own], target[own], out=residuals[i % 2, start:last])
            silent = spec_mag == 0.0  # phase 0 there: the bin becomes its target magnitude
            np.copyto(spec, 1.0, where=silent)
            np.copyto(spec_mag, 1.0, where=silent)
            spec *= np.divide(target, spec_mag, out=spec_mag)
            _synthesis_rows(spec, window, blocks, 0, n_rows)
        out = _overlap_add(blocks, hop, first, start, stop).reshape(-1)[: hi - lo]
        np.divide(out, norm[lo:hi], out=signals[i % 2, lo:hi])
        yield i


def _spectral_convergence(residual: np.ndarray, magnitude_norm: float) -> float:
    return float(np.linalg.norm(residual) / magnitude_norm)


def vocode(mel: MelSpectrogram, features: FeatureConfig) -> AudioBuffer:
    """A model mel as audio, inverted with the run's Griffin-Lim settings."""
    return invert_mel(mel, features.griffin_lim_iters, floor=features.log_floor)


# ---------------------------------------------------------------------------
# pitch and energy

_YIN_BLOCK = 64  # frames per block; unblocked, 60 s (≈5k frames) needs (T, 2048) arrays of ≈80 MB


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
    frames come back unvoiced with f0 = 0. Frames are computed in blocks of
    at most ``_YIN_BLOCK``, split across the usable cores.
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
    f0 = np.zeros(T)
    voiced = np.zeros(T, dtype=bool)
    if tau_max < tau_min:  # the window holds no lag of the f0 range: nothing is voiced
        return PitchContour(f0=f0, voiced=voiced)
    xpad = np.concatenate([x, np.zeros(tau_max)])
    segs = sliding_window_view(xpad, win_length + tau_max)[::hop_length]
    n_fft = 1
    while n_fft < win_length + tau_max:
        n_fft *= 2
    tau_hat = np.zeros(T)

    def rows(wait, start, stop):
        for a in range(start, stop, _YIN_BLOCK):
            b = min(a + _YIN_BLOCK, stop)
            tau_hat[a:b], voiced[a:b] = _yin_frames(
                segs[a:b], win_length, tau_min, tau_max, n_fft, threshold
            )

    _in_region(rows, T)
    f0[voiced] = np.clip(sr / tau_hat[voiced], f_min, f_max)
    return PitchContour(f0=f0, voiced=voiced)


def _yin_frames(segs, win_length, tau_min, tau_max, n_fft, threshold):
    """YIN on a block of frames: the lag estimate of each and whether it is
    voiced. Row i of ``segs`` holds frame i and the ``tau_max`` samples after
    it; ``tau_min <= tau_max``."""
    x1 = segs[:, :win_length]
    energy0 = np.vecdot(x1, x1)  # np.dot of each row; einsum sums in another order
    # d(tau) = e(0) + e(tau) - 2*crosscorr(tau), all via one FFT pair per frame
    spec_seg = np.fft.rfft(segs, n_fft, axis=1)
    spec_win = np.fft.rfft(x1, n_fft, axis=1)
    # not ``spec_seg * np.conj(spec_win)``: on a block that large numpy reuses
    # the temporary and swaps the factors, which rounds the product differently
    np.multiply(spec_seg, np.conj(spec_win), out=spec_seg)
    ac = np.fft.irfft(spec_seg, n_fft, axis=1)[:, : tau_max + 1]
    csum = np.zeros((segs.shape[0], segs.shape[1] + 1))
    np.cumsum(segs * segs, axis=1, out=csum[:, 1:])
    e_tau = csum[:, win_length : win_length + tau_max + 1] - csum[:, : tau_max + 1]
    d = energy0[:, None] + e_tau - 2.0 * ac
    d = np.maximum(d, 0.0)
    # cumulative-mean normalization
    dn = np.ones_like(d)
    running = np.cumsum(d[:, 1:], axis=1)
    np.divide(d[:, 1:] * np.arange(1, tau_max + 1), running, out=dn[:, 1:], where=running > 0)
    # voiced: energy, and a normalized value under the threshold in the band;
    # the lag is the first such one, then downhill to the local minimum
    below = dn[:, tau_min:] < threshold
    voiced = (energy0 >= 1e-10) & below.any(axis=1)
    first = tau_min + np.argmax(below, axis=1)
    lags = np.arange(tau_max + 1)
    stops = np.ones(d.shape, dtype=bool)
    stops[:, :-1] = ~(dn[:, 1:] < dn[:, :-1])
    tau = np.argmax(stops & (lags >= first[:, None]), axis=1)
    # parabolic interpolation around the minimum; tau >= tau_min >= 2
    frame = np.arange(len(tau))
    inner = tau < tau_max
    nxt = np.where(inner, tau + 1, tau)
    a, b, c = dn[frame, tau - 1], dn[frame, tau], dn[frame, nxt]
    denom = a - 2 * b + c
    curved = inner & (np.abs(denom) > 1e-12)
    delta = np.zeros(len(tau))
    np.divide(0.5 * (a - c), denom, out=delta, where=curved)
    shift = curved & (np.abs(delta) < 1)
    tau_hat = tau.astype(np.float64)
    tau_hat[shift] += delta[shift]
    return tau_hat, voiced


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
    frames = sliding_window_view(x, win)[::hop]
    return np.sqrt(np.mean(frames**2, axis=1))
