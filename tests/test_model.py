import dataclasses

import numpy as np
import pytest

from prosody_codec import autodiff as ad
from prosody_codec import model as md
from prosody_codec.autodiff import Tensor
from prosody_codec.config import FeatureConfig, ModelConfig
from prosody_codec.corpus import Batch, PhonemeVocab, Utterance, make_batch
from prosody_codec.dsp import MelSpectrogram
from prosody_codec.errors import ContractError, DataError
from prosody_codec.model import (
    CodecModel,
    _downsample_t,
    _upsample_t,
    batch_resample_weights,
    load_model,
    save_model,
)
from prosody_codec.quantizer import CodeSequence, decode_vectors

FEAT = FeatureConfig()
TINY = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                   codebook_size=8, code_dim=3, levels=2, n_mels=20)


def tiny_feat():
    return FeatureConfig(n_mels=20)


def make_model(seed=0, cfg=None, dtype=None):
    vocab = PhonemeVocab([f"p{i}" for i in range(6)])
    model = CodecModel(
        cfg or TINY, tiny_feat(), vocab, ["s0", "s1"], rng=np.random.default_rng(seed)
    )
    if dtype is not None:
        model.astype(dtype)
    return model


def make_utt(uid="u0", speaker=0, n=4, per=5, seed=3, bands=20):
    rng = np.random.default_rng(seed)
    durations = np.full(n, per)
    return Utterance(
        id=uid,
        speaker_id=speaker,
        phonemes=rng.integers(1, 6, size=n),
        durations=durations,
        mel=MelSpectrogram(rng.normal(size=(n * per, bands)), 256, 1024, 22050),
    )


def conditioning_batch(ids, durations) -> Batch:
    """A batch without mels: phoneme IDs and durations (0 marks padding)."""
    durations = np.asarray(durations, dtype=np.int64)
    frames = durations.sum(axis=1)
    return Batch(
        phonemes=np.asarray(ids, dtype=np.int64),
        durations=durations,
        mels=None,
        speaker_ids=np.zeros(len(durations), dtype=np.int64),
        phoneme_mask=durations > 0,
        frame_mask=np.arange(frames.max())[None, :] < frames[:, None],
    )


def weights(durations, sigma_policy="ratio", sigma_value=1.0):
    """The model's resampling weights for one utterance in float64: the
    (1, T, N) Tensor and the phoneme mask it was built with."""
    batch = conditioning_batch([np.ones(len(durations))], [durations])
    cfg = ModelConfig(sigma_policy=sigma_policy, sigma_value=sigma_value)
    return batch_resample_weights({}, batch, cfg, np.float64), batch.phoneme_mask


def downsample(frames, w, mask):
    return _downsample_t(Tensor(np.asarray(frames, dtype=np.float64)[None]), w, mask).data[0]


def upsample(h, w):
    return _upsample_t(Tensor(np.asarray(h, dtype=np.float64)[None]), w).data[0]


# ---------------------------------------------------------------------------
# gaussian resampling weights


def test_weights_single_phoneme_all_ones():
    w, _ = weights([7])
    np.testing.assert_allclose(w.data[0], np.ones((7, 1)))


def test_weights_rows_sum_to_one():
    w, _ = weights([4, 8, 4])
    np.testing.assert_allclose(w.data[0].sum(axis=1), np.ones(16), atol=1e-12)


def test_weights_symmetric_under_reversal():
    w = weights([6, 6])[0].data[0]
    np.testing.assert_allclose(w, w[::-1, ::-1], atol=1e-12)


def test_weights_argmax_matches_owning_segment():
    durations = np.array([4, 8, 4])
    w = weights(durations)[0].data[0]
    # oracle: recompute each frame's weights from the formula directly
    centers = np.array([2.0, 8.0, 14.0])
    spreads = durations / 3.0
    segment_of_frame = np.repeat(np.arange(3), durations)
    for t in range(16):
        logits = -((t + 0.5 - centers) ** 2) / (2 * spreads**2)
        assert int(np.argmax(w[t])) == int(np.argmax(logits)) == segment_of_frame[t]


def test_weights_fixed_sigma_policy():
    w = weights([4, 4], sigma_policy="fixed", sigma_value=0.5)[0].data[0]
    logits = -((np.arange(8)[:, None] + 0.5 - np.array([2.0, 6.0])) ** 2) / (2 * 0.5**2)
    expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_weights_zero_at_padded_cells():
    batch = conditioning_batch([[1, 2, 3], [4, 5, 0]], [[3, 2, 4], [5, 2, 0]])
    w = batch_resample_weights({}, batch, TINY, np.float64).data
    assert np.all(w[1, 7:, :] == 0) and np.all(w[1, :, 2] == 0)
    np.testing.assert_allclose(w[1, :7].sum(axis=1), 1.0, atol=1e-12)
    # a padded phoneme's all-zero column downsamples to zero, not NaN
    down = _downsample_t(Tensor(np.ones((2, 9, 4))), Tensor(w), batch.phoneme_mask).data
    assert np.all(down[1, 2] == 0)
    np.testing.assert_allclose(down[batch.phoneme_mask], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# down/upsampling


def test_downsample_constant_is_constant():
    w, mask = weights([4, 8, 4])
    out = downsample(np.full((16, 5), 3.25), w, mask)
    np.testing.assert_allclose(out, 3.25, atol=1e-12)


def test_downsample_small_sigma_recovers_segments():
    w, mask = weights([10, 10, 10], sigma_policy="fixed", sigma_value=0.5)
    x = np.repeat(np.array([[1.0], [5.0], [-2.0]]), 10, axis=0)
    out = downsample(x, w, mask)
    np.testing.assert_allclose(out, [[1.0], [5.0], [-2.0]], atol=1e-3)


def test_downsample_one_hot_weights_are_segment_means():
    w = np.zeros((1, 5, 2))
    w[0, :3, 0] = 1.0
    w[0, 3:, 1] = 1.0
    x = np.arange(10, dtype=float).reshape(5, 2)
    out = downsample(x, Tensor(w), np.ones((1, 2), dtype=bool))
    np.testing.assert_allclose(out[0], x[:3].mean(axis=0))
    np.testing.assert_allclose(out[1], x[3:].mean(axis=0))


def test_upsample_single_phoneme_broadcasts():
    w, _ = weights([6])
    h = np.array([[1.5, -2.0, 0.25]])
    out = upsample(h, w)
    np.testing.assert_allclose(out, np.tile(h, (6, 1)), atol=1e-12)


def test_roundtrip_phoneme_constant_identity():
    # constant across phonemes: down-then-up returns it exactly (to fp noise)
    for durations in ([4, 8, 4], [10, 5, 7, 12], [5] * 8):
        w, mask = weights(durations)
        x = np.full((sum(durations), 6), -1.75)
        out = upsample(downsample(x, w, mask), w)
        assert np.abs(out - x).max() < 1e-2


def test_upsample_is_convex_combination():
    rng = np.random.default_rng(0)
    w, _ = weights([4, 8, 4])
    h = rng.normal(size=(3, 5))
    out = upsample(h, w)
    lo, hi = h.min(axis=0), h.max(axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_resample_shape_mismatch():
    w, mask = weights([4, 4])
    with pytest.raises(ContractError):
        downsample(np.zeros((9, 3)), w, mask)
    with pytest.raises(ContractError):
        upsample(np.zeros((3, 3)), w)


# ---------------------------------------------------------------------------
# phoneme encoder masking


def linguistic_features(model, pt, ids, mask):
    """The phoneme encoder's output, as encode_batch computes it."""
    durations = np.asarray(mask, dtype=np.int64)  # one frame per real phoneme
    return model.encode_batch(pt, conditioning_batch(ids, durations))[0].data


def test_phoneme_encode_deterministic():
    model = make_model()
    pt = model.param_tensors(train=False)
    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3), dtype=bool)
    a = linguistic_features(model, pt, ids, mask)
    b = linguistic_features(model, pt, ids, mask)
    assert np.array_equal(a, b)


def test_phoneme_encode_batch_equivariance():
    model = make_model()
    pt = model.param_tensors(train=False)
    ids = np.array([[1, 2, 3], [4, 5, 1]])
    mask = np.ones((2, 3), dtype=bool)
    out = linguistic_features(model, pt, ids, mask)
    flipped = linguistic_features(model, pt, ids[::-1], mask)
    np.testing.assert_array_equal(out, flipped[::-1])


def test_phoneme_encode_padding_blind():
    model = make_model()
    pt = model.param_tensors(train=False)
    mask = np.array([[True, True, False]])
    a = linguistic_features(model, pt, np.array([[1, 2, 3]]), mask)
    b = linguistic_features(model, pt, np.array([[1, 2, 5]]), mask)
    np.testing.assert_array_equal(a[:, :2], b[:, :2])


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_deterministic_and_speaker_blind():
    model = make_model()
    utt = make_utt(speaker=0)
    relabeled = Utterance(
        id=utt.id, speaker_id=1, phonemes=utt.phonemes, durations=utt.durations, mel=utt.mel
    )
    a = model.encode_utterance(utt)
    b = model.encode_utterance(utt)
    c = model.encode_utterance(relabeled)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indices, c.indices)


def test_decode_frame_count_is_duration_sum():
    model = make_model()
    utt = make_utt(n=5, per=4)
    codes = model.encode_utterance(utt)
    mel = model.decode_codes(codes, utt.phonemes, utt.durations, 1)
    assert mel.n_frames == 20
    assert mel.n_mels == TINY.n_mels


def test_decode_length_mismatch_rejected():
    model = make_model()
    utt = make_utt(n=4)
    codes = model.encode_utterance(utt)
    with pytest.raises(ContractError, match="lengths disagree"):
        model.decode_codes(codes, utt.phonemes[:3], utt.durations[:3], 0)


def test_reconstruct_equals_composition_exactly():
    model = make_model()
    utt = make_utt()
    recon = model.reconstruct(utt)
    composed = model.decode_codes(
        model.encode_utterance(utt), utt.phonemes, utt.durations, utt.speaker_id
    )
    assert np.array_equal(recon.values, composed.values)


def test_reconstruct_with_shuffled_codes_keeps_shape():
    model = make_model()
    utt = make_utt(n=6, per=3)
    codes = model.encode_utterance(utt)
    perm = np.random.default_rng(7).permutation(6)
    shuffled = CodeSequence(indices=codes.indices[perm])
    out = model.decode_codes(shuffled, utt.phonemes, utt.durations, utt.speaker_id)
    assert out.values.shape == utt.mel.values.shape


def test_batch_matches_one_at_a_time():
    # a padded batch of mixed-length utterances gives each utterance's own
    # codes exactly and its own mel to float32 tolerance
    model = make_model(seed=2)
    utts = [
        make_utt(f"u{i}", speaker=i % 2, n=n, per=per, seed=10 + i)
        for i, (n, per) in enumerate([(3, 4), (7, 2), (5, 5), (2, 9), (6, 3)])
    ]
    batch = make_batch(utts)
    codes = model.codes_batch(batch)
    recons = model.reconstruct_batch(batch)
    for utt, seq, recon in zip(utts, codes, recons):
        single = model.encode_utterance(utt)
        assert np.array_equal(seq.indices, single.indices)
        assert recon.values.shape == utt.mel.values.shape
        np.testing.assert_allclose(recon.values, model.reconstruct(utt).values, rtol=1e-5, atol=1e-5)
    continuous = make_model(seed=2, cfg=dataclasses.replace(TINY, quantization="none"))
    for utt, recon in zip(utts, continuous.reconstruct_batch(batch)):
        single = continuous.reconstruct(utt)
        np.testing.assert_allclose(recon.values, single.values, rtol=1e-5, atol=1e-5)


def test_each_conformer_stack_runs_once(monkeypatch):
    calls = []
    real = md.conformer_stack

    def counting(pt, stack, *args, **kwargs):
        calls.append(stack)
        return real(pt, stack, *args, **kwargs)

    monkeypatch.setattr(md, "conformer_stack", counting)
    model = make_model()
    utt = make_utt()
    model.reconstruct(utt)
    assert sorted(calls) == ["dec", "menc", "penc"]
    calls.clear()
    codes = model.encode_utterance(utt)
    assert sorted(calls) == ["menc", "penc"]
    calls.clear()
    model.decode_codes(codes, utt.phonemes, utt.durations, 0)
    assert sorted(calls) == ["dec", "penc"]


def test_decode_speaker_out_of_range_rejected():
    model = make_model()
    utt = make_utt()
    with pytest.raises(ContractError, match="out of range"):
        model.reconstruct(utt, override_speaker=2)


def test_level1_only_decode_differs():
    # the level-1 reconstructions `analyze usage` scores decode the level-1
    # entries alone, from the same codes as the full ones
    model = make_model()
    utts = [make_utt("a", seed=1), make_utt("b", speaker=1, n=6, per=3, seed=2)]
    codes, full, lvl1 = model.codes_and_reconstructions(make_batch(utts), level1=True)
    for utt, seq, f, l1 in zip(utts, codes, full, lvl1):
        z = decode_vectors(model.rvq, seq.indices, level1_only=True)
        single = model.decode_continuous(z, utt.phonemes, utt.durations, utt.speaker_id)
        np.testing.assert_allclose(l1.values, single.values, rtol=1e-5, atol=1e-5)
        assert f.values.shape == l1.values.shape
        assert not np.array_equal(f.values, l1.values)


def test_forward_output_finite_for_finite_inputs():
    model = make_model(seed=11)
    batch = make_batch([make_utt("a", n=3, per=4, seed=1), make_utt("b", n=5, per=6, seed=2, speaker=1)])
    pt = model.param_tensors(train=False)
    out = model.forward_batch(pt, batch)
    assert np.all(np.isfinite(out["pred"].data))


def test_learnable_sigma_policy_trains():
    cfg = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                      codebook_size=8, code_dim=3, levels=2, n_mels=20,
                      sigma_policy="learnable", sigma_value=2.0)
    model = make_model(cfg=cfg, dtype=np.float64)
    batch = make_batch([make_utt("a", n=3, per=4, seed=1)])
    pt = model.param_tensors(train=True)
    from prosody_codec.training import compute_loss

    total, _, _ = compute_loss(model, pt, batch)
    ad.backward(total)
    assert pt["resampler.log_sigma"].grad is not None
    assert np.all(np.isfinite(pt["resampler.log_sigma"].grad))


# ---------------------------------------------------------------------------
# end-to-end differentiability (tiny config, double precision)


def test_end_to_end_gradients_match_finite_differences():
    # quantizer bypassed: through a quantizer the loss is piecewise constant
    # in the assignments and the straight-through gradient is a surrogate,
    # so only the continuous path admits a finite-difference comparison
    model = make_model(dtype=np.float64)
    batch = make_batch([make_utt("a", n=3, per=4, seed=1)])
    from prosody_codec.training import compute_loss

    names = ["mel_lift.w", "penc.l0.attn.wq", "dec.l0.conv.dw", "speaker_embedding"]
    rng = np.random.default_rng(0)
    for name in names:
        pt = model.param_tensors(train=True)
        total, _, _ = compute_loss(model, pt, batch, bypass=True)
        ad.backward(total)
        grad = pt[name].grad
        assert grad is not None
        flat_idx = rng.integers(0, model.params[name].size, size=3)
        for idx in flat_idx:
            eps = 1e-5
            saved = model.params[name].copy()
            model.params[name] = saved.copy()
            model.params[name].reshape(-1)[idx] += eps
            hi, _, _ = compute_loss(model, model.param_tensors(train=False), batch, bypass=True)
            model.params[name] = saved.copy()
            model.params[name].reshape(-1)[idx] -= eps
            lo, _, _ = compute_loss(model, model.param_tensors(train=False), batch, bypass=True)
            model.params[name] = saved
            fd = (float(hi.data) - float(lo.data)) / (2 * eps)
            g = float(grad.reshape(-1)[idx])
            rel = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
            assert rel < 1e-3, f"{name}[{idx}]: ad {g} vs fd {fd}"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = make_model(seed=5)
    utt = make_utt()
    before = model.reconstruct(utt)
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    loaded = load_model(str(path))
    after = loaded.reconstruct(utt)
    assert np.array_equal(before.values, after.values)
    assert loaded.vocab == model.vocab
    assert loaded.speakers == model.speakers
    # byte-exact: saving the loaded model reproduces the same file
    path2 = tmp_path / "model2.ckpt"
    save_model(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_truncated_rejected(tmp_path):
    model = make_model()
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="truncated"):
        load_model(str(path))


def test_model_config_sizes_must_match(tmp_path):
    from prosody_codec.containers import read_container, write_container

    cfg = ModelConfig(**{**TINY.__dict__, "vocab_size": 7, "n_speakers": 2})
    model = make_model(cfg=cfg)  # 6 symbols + PAD, 2 speakers: consistent
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    assert load_model(str(path)).cfg.vocab_size == 7
    for key, wrong in (("vocab_size", 9), ("n_speakers", 3), ("n_mels", 30)):
        meta, arrays = read_container(str(path))
        meta["model_config"][key] = wrong
        write_container(str(path), meta, arrays)
        with pytest.raises(ContractError, match=f"model.{key} is {wrong}"):
            load_model(str(path))
        save_model(model, str(path))


def test_reconstruct_rejects_mel_width_mismatch():
    with pytest.raises(ContractError, match="30 bands, but model.n_mels is 20"):
        make_model().reconstruct(make_utt(bands=30))


def test_checkpoint_version_mismatch(tmp_path):
    from prosody_codec.containers import read_container, write_container

    model = make_model()
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    meta, arrays = read_container(str(path))
    meta["format_version"] = 99
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match="expected 1, found 99"):
        load_model(str(path))


def _corrupt(meta, arrays, case):
    if case == "missing codebook array":
        del arrays["rvq.l0.entries"]
    elif case == "missing model_config":
        del meta["model_config"]
    elif case == "unknown model_config key":
        meta["model_config"]["frobnicate"] = 1
    elif case == "misshapen parameter":
        arrays["param.mel_out.w"] = np.zeros((3, 3), dtype=np.float32)
    elif case == "missing parameter":
        del arrays["param.mel_out.b"]
    elif case == "unknown parameter":
        arrays["param.extra.w"] = np.zeros((2, 2), dtype=np.float32)


@pytest.mark.parametrize(
    "case, message",
    [
        ("missing codebook array", "arrays lacks rvq.l0.entries"),
        ("missing model_config", "meta lacks model_config"),
        ("unknown model_config key", "model_config: .*frobnicate"),
        ("misshapen parameter", r"mel_out.w has shape \(3, 3\), the config needs \(16, 20\)"),
        ("missing parameter", r"missing \['mel_out.b'\], unknown \[\]"),
        ("unknown parameter", r"missing \[\], unknown \['extra.w'\]"),
    ],
)
def test_malformed_checkpoint_is_data_error(tmp_path, case, message):
    from prosody_codec.containers import read_container, write_container

    path = tmp_path / "model.ckpt"
    save_model(make_model(), str(path))
    meta, arrays = read_container(str(path))
    _corrupt(meta, arrays, case)
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match=message):
        load_model(str(path))
