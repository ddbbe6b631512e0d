"""Dataset ingestion: JSON-lines manifests, phoneme vocabulary, duration
reconciliation, batching with masks, and a seeded synthetic corpus generator.

Manifest record (one JSON object per line):
    {"audio": "utt.wav", "speaker": "spk0", "phones": "a b c",
     "durations": [5, 5, 5], "text": "optional transcript"}

Durations are frame counts against the utterance's mel; a mismatch of up to
``tolerance`` frames is absorbed by the final phoneme.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .config import MEL_FIELDS, FeatureConfig, SynthSpec
from .containers import read_container, write_container
from .dsp import (
    AudioBuffer,
    MelSpectrogram,
    frame_count,
    harmonic_sum,
    load_wav,
    mel_spectrogram,
)
from .errors import ContractError, DataError

PAD_SYMBOL = "<pad>"
PAD_ID = 0


class PhonemeVocab:
    """Bijective symbol <-> ID map with PAD reserved at ID 0."""

    def __init__(self, symbols: list[str]):
        if not symbols or symbols[0] != PAD_SYMBOL:
            symbols = [PAD_SYMBOL] + [s for s in symbols if s != PAD_SYMBOL]
        if len(set(symbols)) != len(symbols):
            raise DataError("PhonemeVocab: duplicate symbols")
        self._symbols = list(symbols)
        self._ids = {s: i for i, s in enumerate(self._symbols)}

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhonemeVocab) and self._symbols == other._symbols

    def id_of(self, symbol: str) -> int:
        if symbol not in self._ids:
            raise DataError(f"unknown phoneme symbol {symbol!r}")
        return self._ids[symbol]

    def symbol_of(self, idx: int) -> str:
        return self._symbols[idx]

    def to_json(self) -> list[str]:
        return list(self._symbols)

    @classmethod
    def from_json(cls, data: list[str]) -> "PhonemeVocab":
        return cls(list(data))


@dataclass
class Utterance:
    id: str
    speaker_id: int
    phonemes: np.ndarray  # (N,) int phoneme IDs
    durations: np.ndarray  # (N,) int frame counts
    mel: MelSpectrogram
    transcript: str | None = None

    def __post_init__(self):
        self.phonemes = np.asarray(self.phonemes, dtype=np.int64)
        self.durations = np.asarray(self.durations, dtype=np.int64)
        if self.phonemes.shape != self.durations.shape or self.phonemes.ndim != 1:
            raise ContractError(f"{self.id}: phonemes/durations must be equal-length 1-D")
        if np.any(self.durations < 1):
            raise ContractError(f"{self.id}: durations must all be >= 1")
        if int(self.durations.sum()) != self.mel.n_frames:
            raise ContractError(
                f"{self.id}: durations sum {int(self.durations.sum())} != "
                f"mel frames {self.mel.n_frames}"
            )

    @property
    def n_phonemes(self) -> int:
        return len(self.phonemes)


@dataclass
class Corpus:
    utterances: list[Utterance]
    vocab: PhonemeVocab
    speakers: list[str]  # speaker names indexed by speaker_id

    def by_id(self, utt_id: str) -> Utterance:
        for u in self.utterances:
            if u.id == utt_id:
                return u
        raise DataError(f"no utterance with id {utt_id!r}")


@dataclass
class Batch:
    phonemes: np.ndarray  # (B, N_max) int, PAD_ID in padding
    durations: np.ndarray  # (B, N_max) int, 0 in padding
    mels: np.ndarray | None  # (B, T_max, M), 0 in padding; None when only decoding
    speaker_ids: np.ndarray  # (B,)
    phoneme_mask: np.ndarray  # (B, N_max) bool
    frame_mask: np.ndarray  # (B, T_max) bool
    ids: list[str] = field(default_factory=list)


def reconcile_durations(durations, n_frames: int, tolerance: int = 2) -> np.ndarray:
    """Absorb an aligner-style off-by-a-few mismatch into the last phoneme."""
    try:
        durations = np.asarray(durations, dtype=np.int64)
    except OverflowError:
        raise DataError("reconcile_durations: a duration is out of range") from None
    if durations.ndim != 1 or durations.size == 0:
        raise ContractError("reconcile_durations: need a non-empty 1-D duration list")
    if np.any(durations < 1):
        raise DataError("reconcile_durations: durations must all be >= 1")
    diff = n_frames - int(durations.sum())
    if abs(diff) > tolerance:
        raise DataError(
            f"duration sum {int(durations.sum())} vs {n_frames} frames: "
            f"mismatch {abs(diff)} exceeds tolerance {tolerance}"
        )
    if diff == 0:
        return durations.copy()
    out = durations.copy()
    out[-1] += diff
    if out[-1] < 1:
        raise DataError(
            f"duration reconciliation would drive last phoneme to {int(out[-1])} frames"
        )
    return out


# ---------------------------------------------------------------------------
# manifests and the feature cache


def _config_hash(cfg: FeatureConfig) -> str:
    keys = {name: getattr(cfg, name) for name in MEL_FIELDS}
    return hashlib.sha256(json.dumps(keys, sort_keys=True).encode()).hexdigest()[:16]


def cached_mel(
    audio_path: str, cfg: FeatureConfig, cache_dir: str | None, cache_write: bool = True
) -> MelSpectrogram:
    """Compute a log-mel, via the on-disk cache when a cache_dir is given.

    Only `prepare` populates the cache (cache_write=True); every other
    caller reads it without mutating it.
    """
    if cache_dir:
        try:
            with open(audio_path, "rb") as fh:
                audio_hash = hashlib.sha256(fh.read()).hexdigest()[:16]
        except OSError as exc:
            raise DataError(f"cannot read wav {audio_path}: {exc.strerror}") from None
        key = f"{audio_hash}-{_config_hash(cfg)}.mel"
        cache_path = os.path.join(cache_dir, key)
        if os.path.exists(cache_path):
            mel = read_mel(cache_path)
            found = (mel.hop_length, mel.n_fft, mel.sample_rate, mel.n_mels)
            wanted = (cfg.hop_length, cfg.n_fft, cfg.sample_rate, cfg.n_mels)
            if found != wanted:  # the key hashes these, so the file is corrupt
                raise DataError(f"{cache_path}: hop, n_fft, sample rate, bands {found} != {wanted}")
            return mel
    audio = load_wav(audio_path)
    if audio.sample_rate != cfg.sample_rate:
        raise DataError(
            f"{audio_path}: sample rate {audio.sample_rate} != configured "
            f"{cfg.sample_rate} (resampling is out of scope)"
        )
    mel = mel_spectrogram(audio, cfg)
    if cache_dir and cache_write:
        write_mel(cache_path, mel)
    return mel


_MEL_FRAMING = ("hop_length", "n_fft", "sample_rate")


def write_mel(path: str, mel: MelSpectrogram) -> None:
    """A ``.mel`` file: a container holding the values and their framing."""
    meta = {"kind": "mel", **{name: getattr(mel, name) for name in _MEL_FRAMING}}
    write_container(path, meta=meta, arrays={"values": mel.values})


def read_mel(path: str) -> MelSpectrogram:
    """The mel ``write_mel`` stored; anything else in the file is a DataError."""
    meta, arrays = read_container(path)
    if meta.get("kind") != "mel":
        raise DataError(f"{path}: not a mel file (kind {meta.get('kind')!r})")
    for name in _MEL_FRAMING:
        if isinstance(meta.get(name), bool) or not isinstance(meta.get(name), int):
            raise DataError(f"{path}: {name}: expected int, got {meta.get(name)!r}")
    if "values" not in arrays:
        raise DataError(f"{path}: no values array")
    try:
        return MelSpectrogram(arrays["values"], meta["hop_length"], meta["n_fft"], meta["sample_rate"])
    except ContractError as exc:
        raise DataError(f"{path}: {exc}") from None


def record_audio(rec: dict, base: str) -> tuple[str, str]:
    """A manifest record's utterance id (the audio file's stem unless the
    record names one) and its audio path, relative paths taken from ``base``."""
    audio = rec["audio"]
    utt_id = str(rec.get("id", os.path.splitext(os.path.basename(audio))[0]))
    return utt_id, audio if os.path.isabs(audio) else os.path.join(base, audio)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the fields every manifest record needs, with the check each value must pass
_RECORD_FIELDS = {
    "audio": lambda v: isinstance(v, str),
    "speaker": lambda v: isinstance(v, str) or _is_int(v),
    "phones": lambda v: isinstance(v, str),
    "durations": lambda v: isinstance(v, list) and all(_is_int(d) for d in v),
}


def read_manifest(path: str) -> list[tuple[int, dict]]:
    """Each record with its 0-based line in the file, the number every
    message about the record gives; blank lines hold no record."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"record {i}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise DataError(f"record {i}: expected an object")
        for fname, ok in _RECORD_FIELDS.items():
            if fname not in rec:
                raise DataError(f"record {i}: field {fname!r}: missing")
            if not ok(rec[fname]):
                raise DataError(f"record {i}: field {fname!r}: unexpected value {rec[fname]!r:.60}")
        records.append((i, rec))
    return records


def write_manifest(path: str, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def parse_manifest(
    path: str,
    cfg: FeatureConfig,
    cache_dir: str | None = None,
    vocab: PhonemeVocab | None = None,
    tolerance: int = 2,
    cache_write: bool = True,
) -> Corpus:
    """Resolve a manifest into a Corpus with features attached.

    Speaker IDs are assigned in first-appearance order; the vocabulary is
    built the same way unless one is supplied (e.g. from a checkpoint).
    Two records with the same utterance id are a DataError.
    """
    base = os.path.dirname(os.path.abspath(path))
    build_vocab = vocab is None
    symbols: list[str] = []
    speakers: list[str] = []
    speaker_ids: dict[str, int] = {}
    records_of: dict[str, int] = {}  # utterance id -> the record that names it
    utterances: list[Utterance] = []
    for i, rec in read_manifest(path):
        utt_id, audio_path = record_audio(rec, base)
        if utt_id in records_of:
            raise DataError(f"record {i}: utterance id {utt_id!r} repeats record {records_of[utt_id]}")
        records_of[utt_id] = i
        if not os.path.isfile(audio_path):
            raise DataError(f"record {i}: field 'audio': file not found: {audio_path}")
        phones = rec["phones"].split()
        if not phones:
            raise DataError(f"record {i}: field 'phones': empty")
        if PAD_SYMBOL in phones:
            raise DataError(f"record {i}: field 'phones': {PAD_SYMBOL!r} is reserved for padding")
        if build_vocab:
            for s in phones:
                if s not in symbols:
                    symbols.append(s)
        speaker = str(rec["speaker"])
        if speaker not in speaker_ids:
            speaker_ids[speaker] = len(speakers)
            speakers.append(speaker)
        try:
            mel = cached_mel(audio_path, cfg, cache_dir, cache_write=cache_write)
        except (DataError, ContractError) as exc:
            raise DataError(f"record {i}: field 'audio': {exc}") from exc
        durations = rec["durations"]
        if len(durations) != len(phones):
            raise DataError(
                f"record {i}: field 'durations': expected {len(phones)} integers"
            )
        try:
            durations = reconcile_durations(durations, mel.n_frames, tolerance)
        except DataError as exc:
            raise DataError(f"record {i}: field 'durations': {exc}") from exc
        rec_vocab = PhonemeVocab(symbols) if build_vocab else vocab
        try:
            ids = np.array([rec_vocab.id_of(s) for s in phones], dtype=np.int64)
        except DataError as exc:
            raise DataError(f"record {i}: field 'phones': {exc}") from exc
        utterances.append(
            Utterance(
                id=utt_id,
                speaker_id=speaker_ids[speaker],
                phonemes=ids,
                durations=durations,
                mel=mel,
                transcript=rec.get("text"),
            )
        )
    final_vocab = PhonemeVocab(symbols) if build_vocab else vocab
    return Corpus(utterances=utterances, vocab=final_vocab, speakers=speakers)


# ---------------------------------------------------------------------------
# batching


def make_batch(utterances: list[Utterance]) -> Batch:
    if not utterances:
        raise ContractError("make_batch: empty utterance list")
    n_max = max(u.n_phonemes for u in utterances)
    t_max = max(u.mel.n_frames for u in utterances)
    B = len(utterances)
    M = utterances[0].mel.n_mels
    phonemes = np.full((B, n_max), PAD_ID, dtype=np.int64)
    durations = np.zeros((B, n_max), dtype=np.int64)
    mels = np.zeros((B, t_max, M))
    speaker_ids = np.zeros(B, dtype=np.int64)
    phoneme_mask = np.zeros((B, n_max), dtype=bool)
    frame_mask = np.zeros((B, t_max), dtype=bool)
    for b, u in enumerate(utterances):
        n, t = u.n_phonemes, u.mel.n_frames
        phonemes[b, :n] = u.phonemes
        durations[b, :n] = u.durations
        mels[b, :t] = u.mel.values
        speaker_ids[b] = u.speaker_id
        phoneme_mask[b, :n] = True
        frame_mask[b, :t] = True
    return Batch(
        phonemes=phonemes,
        durations=durations,
        mels=mels,
        speaker_ids=speaker_ids,
        phoneme_mask=phoneme_mask,
        frame_mask=frame_mask,
        ids=[u.id for u in utterances],
    )


INFERENCE_BATCH = 32  # utterances per padded batch when evaluating or extracting codes


def inference_batches(utterances: list[Utterance]):
    """Consecutive padded batches of at most INFERENCE_BATCH utterances,
    each yielded with the utterances it holds."""
    for i in range(0, len(utterances), INFERENCE_BATCH):
        chunk = utterances[i : i + INFERENCE_BATCH]
        yield chunk, make_batch(chunk)


# ---------------------------------------------------------------------------
# synthetic corpus


def _phoneme_timbres(rng: np.random.Generator, inventory: int, n_harmonics: int) -> np.ndarray:
    """One harmonic-weight profile per phoneme; acts as its 'articulation'."""
    envelope = 1.0 / np.arange(1, n_harmonics + 1)
    jitter = np.exp(rng.normal(0.0, 0.6, size=(inventory, n_harmonics)))
    weights = envelope * jitter
    return weights / weights.max(axis=1, keepdims=True)


def synth_vocab(spec: SynthSpec) -> PhonemeVocab:
    """The synthetic corpus's vocabulary, ``ph0`` .. ``ph<inventory-1>``.
    Validates ``spec`` first, so a caller that takes it before synthesizing
    rejects a bad spec before any other work."""
    spec.validate()
    return PhonemeVocab([f"ph{p}" for p in range(spec.phoneme_inventory)])


def _synth_waves(
    spec: SynthSpec, cfg: FeatureConfig
) -> Iterator[tuple[str, int, np.ndarray, np.ndarray, str, AudioBuffer]]:
    """Each synthetic utterance as (id, speaker id, phoneme ids, durations,
    transcript, audio), made as it is taken. The one synthesis loop, shared
    by :func:`synth_utterances` and :func:`write_synth_corpus`."""
    vocab = synth_vocab(spec)
    rng = np.random.default_rng(spec.seed)
    timbres = _phoneme_timbres(rng, spec.phoneme_inventory, spec.n_harmonics)
    sr = cfg.sample_rate
    hop, n_fft = cfg.hop_length, cfg.n_fft
    for idx in range(spec.n_utterances):
        speaker = idx % spec.n_speakers
        f_lo, f_hi = spec.f0_ranges[speaker]
        n_seg = int(rng.integers(spec.segments_min, spec.segments_max + 1))
        phones = rng.integers(0, spec.phoneme_inventory, size=n_seg)
        durations = rng.integers(spec.duration_min, spec.duration_max + 1, size=n_seg)
        f0s = f_lo * (f_hi / f_lo) ** rng.random(n_seg)
        amps = rng.uniform(spec.amp_range[0], spec.amp_range[1], size=n_seg)
        glides = (
            rng.uniform(-spec.glide_semitones, spec.glide_semitones, size=n_seg)
            if spec.glide_semitones > 0
            else np.zeros(n_seg)
        )
        total_frames = int(durations.sum())
        n_samples = (total_frames - 1) * hop + n_fft
        # per-sample tracks; segment i owns samples [cum[i-1]*hop, cum[i]*hop)
        bounds = np.concatenate([[0], np.cumsum(durations) * hop])
        bounds[-1] = n_samples
        f0_track = np.empty(n_samples)
        amp_track = np.empty(n_samples)
        for i in range(n_seg):
            sl = slice(int(bounds[i]), int(bounds[i + 1]))
            n_in = int(bounds[i + 1]) - int(bounds[i])
            drift = 2.0 ** (np.linspace(-glides[i] / 2, glides[i] / 2, n_in) / 12.0)
            f0_track[sl] = f0s[i] * drift
            amp_track[sl] = amps[i]
        # soften amplitude steps to avoid clicks
        kernel = np.ones(129) / 129.0
        amp_track = np.convolve(np.pad(amp_track, 64, mode="edge"), kernel, mode="valid")
        wave = harmonic_sum(f0_track, timbres[phones], bounds, sr)
        wave = amp_track * wave / max(np.abs(wave).max(), 1e-9)
        phonemes = phones + 1  # ids after PAD, as synth_vocab lays them out
        transcript = " ".join(vocab.symbol_of(p) for p in phonemes)
        yield (f"synth{idx:04d}", speaker, phonemes, durations.astype(np.int64), transcript,
               AudioBuffer(samples=wave, sample_rate=sr))


def synth_utterances(
    spec: SynthSpec, cfg: FeatureConfig
) -> Iterator[tuple[Utterance, AudioBuffer]]:
    """Deterministic harmonic-tone corpus: phoneme = timbre, speaker = F0
    range, per-segment pitch and amplitude are the 'prosody' to encode.

    Yields each utterance, its mel analysed, with its audio as soon as it is
    made, so a caller holds one waveform at a time. Nothing runs, ``spec``
    is not validated either, until the first item is taken."""
    for utt_id, speaker, phonemes, durations, transcript, audio in _synth_waves(spec, cfg):
        # Utterance raises ContractError if the mel's frame count is not the
        # durations' sum
        yield Utterance(
            id=utt_id,
            speaker_id=speaker,
            phonemes=phonemes,
            durations=durations,
            mel=mel_spectrogram(audio, cfg),
            transcript=transcript,
        ), audio


def synth_corpus(spec: SynthSpec, cfg: FeatureConfig) -> Corpus:
    vocab = synth_vocab(spec)
    return Corpus(
        utterances=[utt for utt, _ in synth_utterances(spec, cfg)],
        vocab=vocab,
        speakers=[f"spk{s}" for s in range(spec.n_speakers)],
    )


def write_synth_corpus(spec: SynthSpec, cfg: FeatureConfig, out_dir: str) -> str:
    """Emit wav files plus a manifest; returns the manifest path. Each wav is
    written as it is synthesized; no mel is analysed."""
    synth_vocab(spec)  # a bad spec is rejected before the directory is made
    os.makedirs(out_dir, exist_ok=True)
    from .dsp import save_wav

    records = []
    for utt_id, speaker, _, durations, transcript, audio in _synth_waves(spec, cfg):
        n_frames = frame_count(len(audio.samples), cfg.n_fft, cfg.hop_length)
        if n_frames != int(durations.sum()):
            raise ContractError(
                f"{utt_id}: durations sum {int(durations.sum())} != mel frames {n_frames}"
            )
        wav_name = f"{utt_id}.wav"
        save_wav(os.path.join(out_dir, wav_name), audio, float32=True)
        records.append(
            {
                "id": utt_id,
                "audio": wav_name,
                "speaker": f"spk{speaker}",
                "phones": transcript,
                "durations": [int(d) for d in durations],
                "text": transcript,
            }
        )
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    write_manifest(manifest_path, records)
    return manifest_path
