"""Run configuration: dataclass sections, JSON (de)serialization, validation.

A run config is a single JSON file with one object per section. Unknown keys
are rejected with their full key path; omitted keys fall back to the defaults
below. ``dumps_config(loads_config(text))`` is the identity on effective
configs, which is what lets commands echo the config they actually ran with.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError


@dataclass
class FeatureConfig:
    sample_rate: int = 22050
    n_fft: int = 1024
    hop_length: int = 256
    n_mels: int = 80
    log_floor: float = 1e-5
    f0_min: float = 50.0
    f0_max: float = 600.0
    yin_threshold: float = 0.15
    griffin_lim_iters: int = 60

    def validate(self, prefix: str = "features") -> None:
        _require(self.sample_rate > 0, f"{prefix}.sample_rate", "must be positive")
        _require(self.n_fft > 0, f"{prefix}.n_fft", "must be positive")
        _require(self.hop_length > 0, f"{prefix}.hop_length", "must be positive")
        _require(self.n_mels > 1, f"{prefix}.n_mels", "must be > 1")
        _require(self.log_floor > 0, f"{prefix}.log_floor", "must be positive")
        _require(
            0 < self.f0_min < self.f0_max < self.sample_rate / 2,
            f"{prefix}.f0_min",
            "need 0 < f0_min < f0_max < sample_rate/2",
        )
        _require(self.yin_threshold > 0, f"{prefix}.yin_threshold", "must be > 0")
        _require(self.griffin_lim_iters >= 1, f"{prefix}.griffin_lim_iters", "must be >= 1")


# The FeatureConfig fields that decide what a log-mel holds: the feature
# cache is keyed by them, and a model only reads mels analysed as in training.
MEL_FIELDS = ("sample_rate", "n_fft", "hop_length", "n_mels", "log_floor")


@dataclass
class ModelConfig:
    model_dim: int = 64
    layers: int = 2  # conformer layers per module
    heads: int = 2
    conv_kernel: int = 5
    ffn_mult: int = 2
    levels: int = 2
    codebook_size: int = 64
    code_dim: int = 3
    n_speakers: int = 0  # 0 = infer from corpus
    vocab_size: int = 0  # 0 = infer from corpus

    def validate(self, prefix: str = "model") -> None:
        _require(self.model_dim > 0, f"{prefix}.model_dim", "must be positive")
        _require(self.layers >= 1, f"{prefix}.layers", "must be >= 1")
        _require(self.heads >= 1, f"{prefix}.heads", "must be >= 1")
        _require(
            self.model_dim % self.heads == 0,
            f"{prefix}.model_dim",
            "must be divisible by heads",
        )
        _require(self.conv_kernel >= 1, f"{prefix}.conv_kernel", "must be >= 1")
        _require(self.ffn_mult >= 1, f"{prefix}.ffn_mult", "must be >= 1")
        _require(self.code_dim >= 1, f"{prefix}.code_dim", "must be >= 1")
        _require(self.codebook_size >= 2, f"{prefix}.codebook_size", "must be >= 2")
        _require(self.n_speakers >= 0, f"{prefix}.n_speakers", "must be >= 0")
        _require(self.vocab_size >= 0, f"{prefix}.vocab_size", "must be >= 0")
        _require(self.levels >= 1, f"{prefix}.levels", "must be >= 1")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    warmup_steps: int = 1000
    batch_size: int = 8
    max_steps: int = 2000
    commitment_beta: float = 0.25
    ema_decay: float = 0.99
    ema_epsilon: float = 1e-5
    seed: int = 0
    eval_every: int = 500
    checkpoint_every: int = 1000
    grad_clip: float = 1.0  # global gradient-norm limit (0 = measure, do not clip)
    dead_code_threshold: float = 0.1  # fraction of the mean EMA count
    dead_code_every: int = 25
    eval_fraction: float = 0.0  # 0 = evaluate on the training set
    target_loss_ratio: float = 0.0  # stop early when loss < ratio * step-100 loss (0 = off)
    dtype: str = "float32"

    def validate(self, prefix: str = "train") -> None:
        _require(self.learning_rate > 0, f"{prefix}.learning_rate", "must be positive")
        _require(self.warmup_steps >= 0, f"{prefix}.warmup_steps", "must be >= 0")
        _require(self.batch_size >= 1, f"{prefix}.batch_size", "must be >= 1")
        _require(self.max_steps >= 1, f"{prefix}.max_steps", "must be >= 1")
        _require(self.commitment_beta >= 0, f"{prefix}.commitment_beta", "must be >= 0")
        _require(0 <= self.ema_decay < 1, f"{prefix}.ema_decay", "must be in [0, 1)")
        _require(self.ema_epsilon > 0, f"{prefix}.ema_epsilon", "must be positive")
        _require(self.seed >= 0, f"{prefix}.seed", "must be >= 0")
        _require(self.eval_every >= 1, f"{prefix}.eval_every", "must be >= 1")
        _require(self.checkpoint_every >= 1, f"{prefix}.checkpoint_every", "must be >= 1")
        _require(self.grad_clip >= 0, f"{prefix}.grad_clip", "must be >= 0")
        _require(self.dead_code_threshold >= 0, f"{prefix}.dead_code_threshold", "must be >= 0")
        _require(self.dead_code_every >= 0, f"{prefix}.dead_code_every", "must be >= 0 (0 = off)")
        _require(0 <= self.eval_fraction < 1, f"{prefix}.eval_fraction", "must be in [0, 1)")
        _require(self.target_loss_ratio >= 0, f"{prefix}.target_loss_ratio", "must be >= 0 (0 = off)")
        _require(self.dtype in ("float32", "float64"), f"{prefix}.dtype", "must be float32|float64")


@dataclass
class SynthSpec:
    n_speakers: int = 2
    n_utterances: int = 32
    phoneme_inventory: int = 12
    f0_ranges: list = field(default_factory=lambda: [[120.0, 240.0], [150.0, 300.0]])
    amp_range: list = field(default_factory=lambda: [0.5, 1.0])
    segments_min: int = 5
    segments_max: int = 10
    duration_min: int = 4
    duration_max: int = 10
    glide_semitones: float = 0.0  # within-segment pitch drift span
    n_harmonics: int = 10
    seed: int = 0

    def validate(self, prefix: str = "synth") -> None:
        _require(self.n_speakers >= 1, f"{prefix}.n_speakers", "must be >= 1")
        _require(self.n_utterances >= 1, f"{prefix}.n_utterances", "must be >= 1")
        _require(self.phoneme_inventory >= 1, f"{prefix}.phoneme_inventory", "must be >= 1")
        _require(
            len(self.f0_ranges) == self.n_speakers,
            f"{prefix}.f0_ranges",
            "need one [low, high] pair per speaker",
        )
        for i, pair in enumerate(self.f0_ranges):
            _require(
                _is_pair(pair) and 0 < pair[0] <= pair[1],
                f"{prefix}.f0_ranges[{i}]",
                "must be [low, high] with 0 < low <= high",
            )
        _require(
            _is_pair(self.amp_range) and 0 < self.amp_range[0] <= self.amp_range[1] <= 1,
            f"{prefix}.amp_range",
            "must be [low, high] within (0, 1]",
        )
        _require(1 <= self.segments_min <= self.segments_max, f"{prefix}.segments_min", "bad range")
        _require(1 <= self.duration_min <= self.duration_max, f"{prefix}.duration_min", "bad range")
        _require(self.glide_semitones >= 0, f"{prefix}.glide_semitones", "must be >= 0")
        _require(self.n_harmonics >= 1, f"{prefix}.n_harmonics", "must be >= 1")
        _require(self.seed >= 0, f"{prefix}.seed", "must be >= 0")


@dataclass
class AnalysisConfig:
    smoothing_alpha: float = 0.5
    corridor_halfwidth: float = 0.25
    n_path_points: int = 6
    min_code_count: int = 3  # probe paths only use codes seen at least this often
    embedding_method: str = "mds"  # mds | tsne
    tsne_perplexity: float = 5.0
    tsne_seed: int = 0
    extract_fraction: float = 0.1
    reference_utterance: str = ""  # "" = longest utterance of the extraction set

    def validate(self, prefix: str = "analysis") -> None:
        _require(self.smoothing_alpha >= 0, f"{prefix}.smoothing_alpha", "must be >= 0")
        _require(self.corridor_halfwidth > 0, f"{prefix}.corridor_halfwidth", "must be positive")
        _require(self.n_path_points >= 2, f"{prefix}.n_path_points", "must be >= 2")
        _require(self.min_code_count >= 0, f"{prefix}.min_code_count", "must be >= 0")
        _require(
            self.embedding_method in ("mds", "tsne"),
            f"{prefix}.embedding_method",
            "must be mds|tsne",
        )
        _require(self.tsne_perplexity > 0, f"{prefix}.tsne_perplexity", "must be positive")
        _require(self.tsne_seed >= 0, f"{prefix}.tsne_seed", "must be >= 0")
        _require(
            0 < self.extract_fraction <= 1,
            f"{prefix}.extract_fraction",
            "must be in (0, 1]",
        )


@dataclass
class PathsConfig:
    manifest: str = ""
    cache_dir: str = ""
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"

    def validate(self, prefix: str = "paths") -> None:
        _require(self.checkpoint_dir != "", f"{prefix}.checkpoint_dir", "must be set")
        _require(self.report_dir != "", f"{prefix}.report_dir", "must be set")


@dataclass
class RunConfig:
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)


_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}


def _require(cond: bool, key: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{key}: {msg}")


def _is_pair(value) -> bool:
    """Two numbers, neither a bool."""
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    )


def _finite(value) -> bool:
    """Whether every number in ``value``, a number or nested lists of them,
    is a finite float: not infinite, NaN or an integer beyond float range."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    try:
        return not isinstance(value, (int, float)) or math.isfinite(value)
    except OverflowError:
        return False


def parse_section(cls: type, data: Any, prefix: str):
    """Build a config section from its JSON object: every key is checked
    against the field's type, and the numbers of a float or list field must
    be finite floats (JSON parses ``Infinity``, ``NaN`` and integers of any
    size); then the section validates itself. Errors name the key as
    ``prefix.key``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix}: expected an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"{prefix}.{key}: unknown key")
        ftype = fields[key].type
        if ftype == "int" and isinstance(value, bool):
            raise ConfigError(f"{prefix}.{key}: expected int, got bool")
        if ftype == "int" and not isinstance(value, int):
            raise ConfigError(f"{prefix}.{key}: expected int, got {type(value).__name__}")
        if ftype == "float" and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{prefix}.{key}: expected number, got {type(value).__name__}")
        if ftype == "str" and not isinstance(value, str):
            raise ConfigError(f"{prefix}.{key}: expected string, got {type(value).__name__}")
        if ftype == "list" and not isinstance(value, list):
            raise ConfigError(f"{prefix}.{key}: expected list, got {type(value).__name__}")
        if ftype in ("float", "list") and not _finite(value):
            raise ConfigError(f"{prefix}.{key}: must be finite")
        kwargs[key] = float(value) if ftype == "float" else value
    section = cls(**kwargs)
    section.validate(prefix)
    return section


def section_json(section) -> dict:
    """A config section as its JSON object, keys in field order."""
    return {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}


def loads_config(text: str) -> RunConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    for key in data:
        if key not in _SECTION_TYPES:
            raise ConfigError(f"{key}: unknown section")
    return RunConfig(
        **{name: parse_section(cls, data.get(name, {}), name) for name, cls in _SECTION_TYPES.items()}
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)


def dumps_config(cfg: RunConfig) -> str:
    # Canonical order: section order then dataclass field order.
    out = {name: section_json(getattr(cfg, name)) for name in _SECTION_TYPES}
    return json.dumps(out, indent=2) + "\n"
