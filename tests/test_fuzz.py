"""Fuzz tests of the file readers: a mutated checkpoint, manifest, container,
mel or wav file either loads or raises a ProsodyCodecError subclass, never a
raw Python exception."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_codec.config import FeatureConfig, ModelConfig, TrainConfig
from prosody_codec.containers import read_container, write_container
from prosody_codec.corpus import PhonemeVocab, parse_manifest, read_mel, write_mel
from prosody_codec.dsp import AudioBuffer, MelSpectrogram, load_wav, save_wav
from prosody_codec.errors import DataError, ProsodyCodecError
from prosody_codec.model import CodecModel, load_model, save_model
from prosody_codec.training import load_checkpoint, new_train_state, save_checkpoint

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)

FEAT = FeatureConfig(sample_rate=8000, n_fft=256, hop_length=64, n_mels=20)
TINY = ModelConfig(model_dim=8, layers=1, heads=2, ffn_mult=1, conv_kernel=3,
                   codebook_size=4, code_dim=2, levels=2)

# Integers stay small, so a mutated size in a checkpoint config stays cheap
# to check (a layer count that disagrees with the parameters is rejected
# before the table of expected names is built; test_model covers 10000).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """Every key path into a JSON value, the value's own () included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


@st.composite
def mutations(draw, meta):
    """A copy of ``meta`` with one value replaced, one key deleted or one
    key added, anywhere in the tree."""
    meta = copy.deepcopy(meta)
    path = draw(st.sampled_from([p for p in _paths(meta) if p]))
    parent = meta
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif action == "add" and isinstance(parent[path[-1]], dict):
        parent[path[-1]][draw(st.text(max_size=4))] = draw(json_values)
    else:
        parent[path[-1]] = draw(json_values)
    return meta


def _model():
    vocab = PhonemeVocab(["a", "b", "c"])
    return CodecModel(TINY, FEAT, vocab, ["s0", "s1"], rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_model(_model(), str(root / "model.ckpt"))
    save_checkpoint(new_train_state(_model(), TrainConfig(batch_size=2)), str(root / "train.ckpt"))
    write_mel(str(root / "m.mel"), MelSpectrogram(np.zeros((4, 20)), 64, 256, 8000))
    for i, frames in enumerate((6, 7)):
        samples = 0.3 * np.sin(np.arange((frames - 1) * FEAT.hop_length + FEAT.n_fft) * (0.1 + i / 10))
        save_wav(str(root / f"u{i}.wav"), AudioBuffer(samples, FEAT.sample_rate), float32=True)
    records = [
        {"audio": "u0.wav", "speaker": "a", "phones": "x y", "durations": [3, 3], "text": "x y"},
        {"audio": "u1.wav", "speaker": 2, "phones": "y", "durations": [7], "id": "second"},
    ]
    return root, records


def _check(load, path):
    try:
        load(path)
    except ProsodyCodecError:
        pass


@pytest.mark.parametrize("name, load", [("model.ckpt", load_model), ("train.ckpt", load_checkpoint)])
@FUZZ
@given(data=st.data())
def test_checkpoint_with_mutated_meta(files, name, load, data):
    root, _ = files
    meta, arrays = read_container(str(root / name))
    path = str(root / f"mutated-{name}")
    write_container(path, data.draw(mutations(meta)), arrays)
    _check(load, path)


@FUZZ
@given(data=st.data())
def test_manifest_with_mutated_record(files, data):
    root, records = files
    lines = [json.dumps(r) for r in data.draw(mutations(records))]
    if data.draw(st.booleans()):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.text(max_size=8)))
    (root / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    _check(lambda path: parse_manifest(path, FEAT, cache_dir=str(root / "cache")), str(root / "manifest.jsonl"))


def _damaged(raw: bytes, data) -> bytes:
    if data.draw(st.booleans()):
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


@pytest.mark.parametrize("name, load", [
    ("model.ckpt", read_container), ("model.ckpt", load_model), ("train.ckpt", load_checkpoint),
])
@FUZZ
@given(data=st.data())
def test_truncated_or_bit_flipped_container(files, name, load, data):
    root, _ = files
    path = root / f"damaged-{name}"
    path.write_bytes(_damaged((root / name).read_bytes(), data))
    _check(load, str(path))


@pytest.mark.parametrize("float32", [False, True], ids=["pcm16", "float32"])
@FUZZ
@given(data=st.data())
def test_load_wav_on_truncated_or_bit_flipped_file(files, float32, data):
    root, _ = files
    clean = root / f"clean-{int(float32)}.wav"
    if not clean.exists():
        save_wav(str(clean), AudioBuffer(0.3 * np.sin(np.arange(300) * 0.1), 8000), float32=float32)
    path = root / "damaged.wav"
    path.write_bytes(_damaged(clean.read_bytes(), data))
    _check(load_wav, str(path))


@FUZZ
@given(data=st.data())
def test_read_mel_on_damaged_or_mutated_file(files, data):
    root, _ = files
    path = root / "damaged.mel"
    if data.draw(st.booleans()):
        path.write_bytes(_damaged((root / "m.mel").read_bytes(), data))
    else:
        meta, arrays = read_container(str(root / "m.mel"))
        if data.draw(st.booleans()):
            arrays = {"values": data.draw(st.sampled_from([
                np.zeros(3), np.zeros((0, 20)), np.full((2, 20), np.inf), np.zeros((2, 3, 4)),
                np.zeros((2, 20), dtype=np.int64),
            ]))}
        write_container(str(path), data.draw(mutations(meta)), arrays)
    try:
        read_mel(str(path))
    except DataError:
        pass
