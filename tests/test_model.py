import dataclasses
import warnings

import numpy as np
import pytest

from prosody_codec import autodiff as ad
from prosody_codec import model as md
from prosody_codec.autodiff import Tensor
from prosody_codec.config import FeatureConfig, ModelConfig
from prosody_codec.corpus import Batch, PhonemeVocab, Utterance, make_batch
from prosody_codec.dsp import MelSpectrogram
from prosody_codec.errors import ContractError, DataError, NumericError
from prosody_codec.model import (
    CodecModel,
    _downsample,
    _upsample_t,
    batch_resample_weights,
    load_model,
    save_model,
)
from prosody_codec.quantizer import CodeSequence, decode_vectors
from prosody_codec.training import compute_loss

FEAT = FeatureConfig()
TINY = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                   codebook_size=8, code_dim=3, levels=2)


def tiny_feat():
    return FeatureConfig(n_mels=20)


def make_model(seed=0, cfg=None, dtype=None, quantized=True):
    vocab = PhonemeVocab([f"p{i}" for i in range(6)])
    model = CodecModel(
        cfg or TINY, tiny_feat(), vocab, ["s0", "s1"], rng=np.random.default_rng(seed),
        quantized=quantized,
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


def weights(durations):
    """The model's resampling weights for one utterance in float64: the
    (1, T, N) array and the phoneme mask it was built with."""
    batch = conditioning_batch([np.ones(len(durations))], [durations])
    return batch_resample_weights(batch, np.float64), batch.phoneme_mask


def downsample(frames, w, mask):
    return _downsample(np.asarray(frames, dtype=np.float64)[None], w, mask)[0]


def upsample(h, w):
    return _upsample_t(Tensor(np.asarray(h, dtype=np.float64)[None]), w).data[0]


# ---------------------------------------------------------------------------
# gaussian resampling weights


def test_weights_single_phoneme_all_ones():
    w, _ = weights([7])
    np.testing.assert_allclose(w[0], np.ones((7, 1)))


def test_weights_rows_sum_to_one():
    w, _ = weights([4, 8, 4])
    np.testing.assert_allclose(w[0].sum(axis=1), np.ones(16), atol=1e-12)


def test_weights_symmetric_under_reversal():
    w = weights([6, 6])[0][0]
    np.testing.assert_allclose(w, w[::-1, ::-1], atol=1e-12)


def test_weights_argmax_matches_owning_segment():
    durations = np.array([4, 8, 4])
    w = weights(durations)[0][0]
    # oracle: recompute each frame's weights from the formula directly
    centers = np.array([2.0, 8.0, 14.0])
    spreads = durations / 3.0
    segment_of_frame = np.repeat(np.arange(3), durations)
    for t in range(16):
        logits = -((t + 0.5 - centers) ** 2) / (2 * spreads**2)
        assert int(np.argmax(w[t])) == int(np.argmax(logits)) == segment_of_frame[t]


def test_weights_zero_at_padded_cells():
    batch = conditioning_batch([[1, 2, 3], [4, 5, 0]], [[3, 2, 4], [5, 2, 0]])
    w = batch_resample_weights(batch, np.float64)
    assert np.all(w[1, 7:, :] == 0) and np.all(w[1, :, 2] == 0)
    np.testing.assert_allclose(w[1, :7].sum(axis=1), 1.0, atol=1e-12)
    # a padded phoneme's all-zero column downsamples to zero, not NaN
    down = _downsample(np.ones((2, 9, 4)), w, batch.phoneme_mask)
    assert np.all(down[1, 2] == 0)
    np.testing.assert_allclose(down[batch.phoneme_mask], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# down/upsampling


def test_downsample_constant_is_constant():
    w, mask = weights([4, 8, 4])
    out = downsample(np.full((16, 5), 3.25), w, mask)
    np.testing.assert_allclose(out, 3.25, atol=1e-12)


def test_downsample_small_sigma_recovers_segments():
    # weights with sigma 0.5 for every phoneme, from the formula directly
    logits = -((np.arange(30)[:, None] + 0.5 - np.array([5.0, 15.0, 25.0])) ** 2) / (2 * 0.5**2)
    w = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    x = np.repeat(np.array([[1.0], [5.0], [-2.0]]), 10, axis=0)
    out = downsample(x, w[None], np.ones((1, 3), dtype=bool))
    np.testing.assert_allclose(out, [[1.0], [5.0], [-2.0]], atol=1e-3)


def test_downsample_one_hot_weights_are_segment_means():
    w = np.zeros((1, 5, 2))
    w[0, :3, 0] = 1.0
    w[0, 3:, 1] = 1.0
    x = np.arange(10, dtype=float).reshape(5, 2)
    out = downsample(x, w, np.ones((1, 2), dtype=bool))
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


def test_loss_and_gradients_are_padding_blind():
    # whatever sits in the padding of a mixed-length batch, phoneme ids or
    # mel frames, moves no valid prediction, the loss or any parameter
    # gradient, through all three stacks and the quantizer
    model = make_model(seed=3)
    utts = [make_utt(f"u{i}", speaker=i % 2, n=n, per=per, seed=20 + i)
            for i, (n, per) in enumerate([(3, 4), (6, 2), (5, 5), (2, 7)])]
    batch = make_batch(utts)
    noisy = dataclasses.replace(
        batch,
        phonemes=np.where(batch.phoneme_mask, batch.phonemes, 5),
        mels=np.where(batch.frame_mask[..., None], batch.mels,
                      np.random.default_rng(0).normal(size=batch.mels.shape)),
    )
    assert not np.array_equal(noisy.phonemes, batch.phonemes)
    runs = []
    for b in (batch, noisy):
        pt = model.param_tensors(train=True)
        total, _, out = compute_loss(model, pt, b)
        ad.backward(total)
        runs.append((out["pred"].data[b.frame_mask], total.data, {k: t.grad for k, t in pt.items()}))
    (pred, loss, grads), (noisy_pred, noisy_loss, noisy_grads) = runs
    assert np.array_equal(pred, noisy_pred)
    assert loss == noisy_loss
    for name, grad in grads.items():
        assert grad is not None, name
        assert np.array_equal(grad, noisy_grads[name]), name


# ---------------------------------------------------------------------------
# packed conformer stacks against the padded computation they replace


def _ref_exp(a):
    """exp as a graph node; only the padded oracle needs one."""
    out_data = np.exp(a.data)

    def bwd():
        ad.accumulate(a, out.grad * out_data)

    out = ad.node(out_data, (a,), bwd)
    return out


def _ref_transpose(a, axes):
    """An axis permutation as a graph node; only the padded oracle needs one."""
    inverse = tuple(np.argsort(axes))

    def bwd():
        ad.accumulate(a, out.grad.transpose(inverse))

    out = ad.node(a.data.transpose(axes), (a,), bwd)
    return out


def _ref_sigmoid(x):
    return ad.div(1.0, ad.add(1.0, _ref_exp(ad.mul(x, -1.0))))


def _ref_ffn(pt, prefix, x):
    h = ad.layer_norm(x, pt[prefix + ".norm.gain"], pt[prefix + ".norm.bias"])
    h = ad.linear(h, pt[prefix + ".w1"], pt[prefix + ".b1"])
    h = ad.mul(h, _ref_sigmoid(h))
    return ad.linear(h, pt[prefix + ".w2"], pt[prefix + ".b2"])


def _ref_attention(pt, prefix, x, mask, heads):
    """Self-attention over padded (B, L, D) rows from generic ops: a padded
    key's score is pushed to -1e9 before the softmax."""
    B, L, D = x.shape
    dh = D // heads

    def split(a):
        return _ref_transpose(ad.reshape(a, (B, L, heads, dh)), (0, 2, 1, 3))

    q, k, v = (split(ad.linear(x, pt[f"{prefix}.w{c}"], pt[f"{prefix}.b{c}"])) for c in "qkv")
    scores = ad.mul(ad.matmul(q, _ref_transpose(k, (0, 1, 3, 2))), np.asarray(dh**-0.5, dtype=x.data.dtype))
    scores = ad.add(scores, np.where(mask, 0.0, -1e9).astype(x.data.dtype)[:, None, None, :])
    scores = ad.sub(scores, Tensor(scores.data.max(axis=-1, keepdims=True)))  # a constant
    weights = _ref_exp(scores)
    weights = ad.div(weights, ad.tsum(weights, axis=-1, keepdims=True))
    out = ad.reshape(_ref_transpose(ad.matmul(weights, v), (0, 2, 1, 3)), (B, L, D))
    return ad.linear(out, pt[prefix + ".wo"], pt[prefix + ".bo"])


def _ref_conv_module(pt, prefix, x, mask_f):
    """The conv module over padded rows: padded positions are zeroed before
    the depthwise kernel, each of whose taps is a shift-matrix product."""
    h = ad.layer_norm(x, pt[prefix + ".norm.gain"], pt[prefix + ".norm.bias"])
    a = ad.linear(h, pt[prefix + ".in_a.w"], pt[prefix + ".in_a.b"])
    g = ad.linear(h, pt[prefix + ".in_g.w"], pt[prefix + ".in_g.b"])
    h = ad.mul(ad.mul(a, _ref_sigmoid(g)), mask_f)
    w = pt[prefix + ".dw"]
    k, L = w.shape[0], x.shape[1]
    left = (k - 1) // 2
    conv = Tensor(np.zeros(x.shape, dtype=x.data.dtype))
    for j in range(k):
        shift = Tensor(np.eye(L, L, j - left, dtype=x.data.dtype))
        tap = Tensor(np.eye(k, dtype=x.data.dtype)[j : j + 1])
        conv = ad.add(conv, ad.mul(ad.matmul(shift, h), ad.matmul(tap, w)))
    h = ad.mul(conv, _ref_sigmoid(conv))
    return ad.linear(h, pt[prefix + ".out.w"], pt[prefix + ".out.b"])


def padded_conformer_block(pt, prefix, x, mask, heads):
    """The conformer block on padded (B, L, D) rows, masking where the
    packed one gathers: the reference the packed stacks must reproduce."""
    mask_f = mask[..., None].astype(x.data.dtype)
    x = ad.add(x, ad.mul(_ref_ffn(pt, prefix + "ffn1", x), 0.5))
    x = ad.add(x, _ref_attention(pt, prefix + "attn", x, mask, heads))
    x = ad.add(x, _ref_conv_module(pt, prefix + "conv", x, mask_f))
    x = ad.add(x, ad.mul(_ref_ffn(pt, prefix + "ffn2", x), 0.5))
    x = ad.layer_norm(x, pt[prefix + "final.norm.gain"], pt[prefix + "final.norm.bias"])
    return ad.mul(x, mask_f)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_packed_stack_matches_padded_oracle(dtype):
    cfg = dataclasses.replace(TINY, layers=2, conv_kernel=5)
    model = make_model(seed=6, cfg=cfg, dtype=dtype)
    rng = np.random.default_rng(8)
    mask = np.arange(9)[None, :] < np.array([5, 9, 2, 7])[:, None]
    x = rng.normal(size=(4, 9, 16)).astype(dtype)  # the padded rows hold noise
    probe = rng.normal(size=x.shape).astype(dtype) * mask[..., None]
    results = []
    for run in ("packed", "padded"):
        pt = model.param_tensors(train=True)
        h = Tensor(x, requires_grad=True)
        if run == "packed":
            out = md.conformer_stack(pt, "dec", h, mask, cfg.layers, cfg.heads)
        else:
            out = h
            for i in range(cfg.layers):
                out = padded_conformer_block(pt, f"dec.l{i}.", out, mask, cfg.heads)
        ad.backward(ad.tsum(ad.mul(out, probe)))
        grads = {k: t.grad for k, t in pt.items() if k.startswith("dec.")}
        results.append((out.data, h.grad, grads))
    (out, x_grad, grads), (ref, ref_x_grad, ref_grads) = results
    assert np.array_equal(out[mask], ref[mask])
    assert np.all(out[~mask] == 0)

    def close(a, b):  # within 1e-5 of the largest reference entry
        return np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(b))

    assert close(x_grad[mask], ref_x_grad[mask])
    assert np.all(x_grad[~mask] == 0)
    assert grads.keys() == ref_grads.keys() and len(grads) == 2 * 31
    for name, grad in grads.items():
        if name.endswith("attn.bk"):
            continue  # shifts every score of a row alike: the true gradient is 0
        assert close(grad, ref_grads[name]), name


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
    mel = model.decode_codes(codes, utt, 1)
    assert mel.n_frames == 20
    assert mel.n_mels == tiny_feat().n_mels


def test_decode_length_mismatch_rejected():
    model = make_model()
    utt = make_utt(n=4)
    codes = model.encode_utterance(utt)
    with pytest.raises(ContractError, match="lengths disagree: 3 codes, 4 phonemes in 'u0'"):
        model.decode_codes(CodeSequence(indices=codes.indices[:3]), utt, 0)


def test_reconstruct_equals_composition_exactly():
    model = make_model()
    utt = make_utt()
    recon = model.reconstruct(utt)
    composed = model.decode_codes(model.encode_utterance(utt), utt, utt.speaker_id)
    assert np.array_equal(recon.values, composed.values)


def test_reconstruct_with_shuffled_codes_keeps_shape():
    model = make_model()
    utt = make_utt(n=6, per=3)
    codes = model.encode_utterance(utt)
    perm = np.random.default_rng(7).permutation(6)
    shuffled = CodeSequence(indices=codes.indices[perm])
    out = model.decode_codes(shuffled, utt, utt.speaker_id)
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
    _, recons, _ = model.reconstruct_batch(batch)
    for utt, seq, recon in zip(utts, codes, recons):
        single = model.encode_utterance(utt)
        assert np.array_equal(seq.indices, single.indices)
        assert recon.values.shape == utt.mel.values.shape
        np.testing.assert_allclose(recon.values, model.reconstruct(utt).values, rtol=1e-5, atol=1e-5)
    continuous = make_model(seed=2, quantized=False)
    for utt, recon in zip(utts, continuous.reconstruct_batch(batch)[1]):
        single = continuous.reconstruct(utt)
        np.testing.assert_allclose(recon.values, single.values, rtol=1e-5, atol=1e-5)
    # without padding, a batch gives each utterance's codes and mels bit
    # for bit, in either dtype and for the continuous twin as well
    equal = [make_utt(f"e{i}", speaker=i % 2, n=4, per=5, seed=30 + i) for i in range(4)]
    for dtype in (np.float32, np.float64):
        for twin in (make_model(seed=2, dtype=dtype), make_model(seed=2, dtype=dtype, quantized=False)):
            codes, recons, _ = twin.reconstruct_batch(make_batch(equal))
            for i, (utt, recon) in enumerate(zip(equal, recons, strict=True)):
                if codes is not None:
                    assert np.array_equal(codes[i].indices, twin.encode_utterance(utt).indices)
                assert np.array_equal(recon.values, twin.reconstruct(utt).values)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_gives_the_codes_and_mels_of_the_training_forward(monkeypatch, dtype):
    # codes_batch and reconstruct_batch quantize through rvq_quantize
    # alone: bitwise what rvq_forward gives inside the training forward on
    # the same padded batch, without calling it
    model = make_model(seed=4, dtype=dtype)
    utts = [make_utt(f"u{i}", speaker=i % 2, n=n, per=per, seed=20 + i)
            for i, (n, per) in enumerate([(3, 4), (6, 2), (5, 3)])]
    batch = make_batch(utts)
    out = model.forward_batch(model.param_tensors(train=False), batch)
    codes = [seq.indices for seq in model._sequences(out["codes"], batch)]
    mels = [mel.values for mel in model._mels(out["pred"], batch)]

    def no_graph(*args, **kwargs):
        raise AssertionError("inference built the commitment graph")

    monkeypatch.setattr(md, "rvq_forward", no_graph)
    both_codes, both_mels, level1 = model.reconstruct_batch(batch)
    assert level1 is None
    for got in ([s.indices for s in model.codes_batch(batch)], [s.indices for s in both_codes]):
        assert all(np.array_equal(a, b) for a, b in zip(got, codes, strict=True))
    assert all(np.array_equal(a.values, b) for a, b in zip(both_mels, mels, strict=True))


def test_inference_tensors_follow_the_parameters():
    # the inference Tensors are built once and reused while each entry of
    # model.params is the same array: an in-place Adam step shows through,
    # a swapped entry and astype get new Tensors. After each change the
    # reconstructions equal those of a model built from copies
    model = make_model(seed=6)
    batch = make_batch([make_utt("a", seed=1), make_utt("b", speaker=1, n=5, per=3, seed=2)])

    def check():
        pt = model.param_tensors(train=False)
        assert pt.keys() == model.params.keys()
        assert all(pt[k].data is v and not pt[k].requires_grad for k, v in model.params.items())
        copied = CodecModel(model.cfg, model.features, model.vocab, model.speakers,
                            params={k: v.copy() for k, v in model.params.items()}, rvq=model.rvq)
        for a, b in zip(model.reconstruct_batch(batch)[1], copied.reconstruct_batch(batch)[1], strict=True):
            assert np.array_equal(a.values, b.values)
        return pt

    first = check()
    assert all(t is first[k] for k, t in model.param_tensors(train=False).items())
    before = [m.values for m in model.reconstruct_batch(batch)[1]]
    state = ad.AdamState(model.params)
    state.grad[:] = np.linspace(-1.0, 1.0, state.grad.size)
    ad.adam_step(state, lr=0.05)
    assert all(t is first[k] for k, t in check().items())
    assert not np.array_equal(model.reconstruct_batch(batch)[1][0].values, before[0])
    model.params["mel_out.b"] = model.params["mel_out.b"] + 1.0
    swapped = check()
    assert swapped["mel_out.b"] is not first["mel_out.b"]
    assert all(swapped[k] is first[k] for k in first if k != "mel_out.b")
    model.astype(np.float64)
    assert all(t.data.dtype == np.float64 for t in check().values())


def test_a_conformer_block_is_nine_nodes():
    # the FFN, attention and conv modules are one node each: four module
    # nodes, their four residual adds and the final norm
    model = make_model()
    mask = np.array([[True] * 4, [True] * 2 + [False] * 2])
    x = Tensor(np.ones((6, TINY.model_dim), dtype=model.dtype), requires_grad=True)
    out = md.conformer_block(model.param_tensors(train=True), "dec.l0.", x, mask, TINY.heads)
    nodes, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t._backward is not None and id(t) not in nodes:  # leaves have no backward
            nodes.add(id(t))
            stack.extend(t._parents)
    assert len(nodes) == 9


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
    model.decode_codes(codes, utt, 0)
    assert sorted(calls) == ["dec", "penc"]


def test_decode_speaker_out_of_range_rejected():
    model = make_model()
    utt = make_utt()
    with pytest.raises(ContractError, match="out of range"):
        model.decode_codes(model.encode_utterance(utt), utt, 2)


def test_level1_only_decode_differs():
    # the level-1 reconstructions `analyze usage` scores decode the level-1
    # entries alone, from the same codes as the full ones
    model = make_model()
    utts = [make_utt("a", seed=1), make_utt("b", speaker=1, n=6, per=3, seed=2)]
    codes, full, lvl1 = model.reconstruct_batch(make_batch(utts), level1=True)
    for utt, seq, f, l1 in zip(utts, codes, full, lvl1, strict=True):
        batch = make_batch([utt])
        pt = model.param_tensors(train=False)
        ling, w, _ = model.encode_batch(pt, batch)
        z = Tensor(decode_vectors(model.rvq, seq.indices, level1_only=True)[None].astype(model.dtype))
        single = model.decode_batch(pt, batch, z, ling, w).data[0]
        np.testing.assert_allclose(l1.values, single, rtol=1e-5, atol=1e-5)
        assert f.values.shape == l1.values.shape
        assert not np.array_equal(f.values, l1.values)
    with pytest.raises(ContractError, match="no quantizer"):
        make_model(quantized=False).reconstruct_batch(make_batch(utts), level1=True)


def test_forward_output_finite_for_finite_inputs():
    model = make_model(seed=11)
    batch = make_batch([make_utt("a", n=3, per=4, seed=1), make_utt("b", n=5, per=6, seed=2, speaker=1)])
    pt = model.param_tensors(train=False)
    out = model.forward_batch(pt, batch)
    assert np.all(np.isfinite(out["pred"].data))


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


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    # a corrupt header that shrinks an array leaves bytes no array claims
    path = tmp_path / "model.ckpt"
    save_model(make_model(), str(path))
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(DataError, match="4 bytes after the last array"):
        load_model(str(path))


@pytest.mark.parametrize(
    "header, message",
    [
        ([], "corrupt container header"),
        ({"meta": [], "arrays": []}, "corrupt container header"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8"}]}, "corrupt container header"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f2", "shape": []}]}, "unsupported dtype '<f2'"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [-1]}]}, r"bad shape \[-1\]"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": ["2"]}]}, "bad shape"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [2**40, 2**40]}]}, "truncated array"),
        ({"meta": {}, "arrays": [{"name": "a", "dtype": "<f8", "shape": [0]}] * 2}, "array 'a' is named twice"),
    ],
)
def test_container_header_must_describe_the_arrays(tmp_path, header, message):
    import json
    import struct

    from prosody_codec.containers import read_container

    raw = json.dumps(header).encode()
    path = tmp_path / "c.bin"
    path.write_bytes(b"PRCT" + struct.pack("<I", 1) + struct.pack("<Q", len(raw)) + raw)
    with pytest.raises(DataError, match=message):
        read_container(str(path))


def test_model_config_sizes_must_match(tmp_path):
    from prosody_codec.containers import read_container, write_container

    cfg = ModelConfig(**{**TINY.__dict__, "vocab_size": 7, "n_speakers": 2})
    model = make_model(cfg=cfg)  # 6 symbols + PAD, 2 speakers: consistent
    path = tmp_path / "model.ckpt"
    save_model(model, str(path))
    assert load_model(str(path)).cfg.vocab_size == 7
    for key, wrong in (("vocab_size", 9), ("n_speakers", 3)):
        meta, arrays = read_container(str(path))
        meta["model_config"][key] = wrong
        write_container(str(path), meta, arrays)
        with pytest.raises(ContractError, match=f"model.{key} is {wrong}"):
            load_model(str(path))
        save_model(model, str(path))
    # feature_config alone states the band count
    meta, arrays = read_container(str(path))
    meta["model_config"]["n_mels"] = 20
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match="checkpoint model_config: model.n_mels: unknown key"):
        load_model(str(path))


def test_a_non_finite_model_output_is_a_numeric_error():
    # a diverged model, not its input: every mel-returning inference method
    # raises NumericError naming the batch's utterances
    model = make_model(seed=6)
    utts = [make_utt("a", seed=1), make_utt("b", speaker=1, n=5, per=3, seed=2)]
    batch = make_batch(utts)
    model.params["mel_out.b"][0] = np.inf
    with pytest.raises(NumericError, match=r"not finite for utterances \['a', 'b'\]"):
        model.reconstruct_batch(batch)
    with pytest.raises(NumericError, match=r"\['a', 'b'\]"):
        model.reconstruct_batch(batch, level1=True)
    with pytest.raises(NumericError, match=r"\['b'\]"):
        model.reconstruct(utts[1])
    code = model.encode_utterance(utts[0])
    # a decode (probe, transfer, shuffle) names the utterance it decodes onto
    with pytest.raises(NumericError, match=r"not finite for utterances \['a'\]$"):
        model.decode_codes(code, utts[0], 1)


def test_a_non_finite_encoder_output_is_a_numeric_error():
    # a latent that is not finite would quantize to some code unnoticed:
    # every method that quantizes raises NumericError naming the batch's
    # utterances, with no numpy warning on the way
    model = make_model(seed=6)
    utts = [make_utt("a", seed=1), make_utt("b", speaker=1, n=5, per=3, seed=2)]
    batch = make_batch(utts)
    model.params["enc_proj.b"][...] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        for method in (model.codes_batch, model.reconstruct_batch,
                       lambda b: model.reconstruct_batch(b, level1=True)):
            with pytest.raises(NumericError,
                               match=r"not finite for utterances \['a', 'b'\] \(encoder\)"):
                method(batch)
        with pytest.raises(NumericError, match=r"\['b'\] \(encoder\)"):
            model.encode_utterance(utts[1])
        with pytest.raises(NumericError, match=r"\['a'\] \(encoder\)"):
            model.reconstruct(utts[0])


def test_a_forward_that_overflows_warns_nothing():
    # what overflows on the way to the output is reported by the
    # NumericError alone, not by numpy warnings as well
    model = make_model(seed=6)
    utt = make_utt("a", seed=1)
    code = model.encode_utterance(utt)
    model.params["dec_proj.w"] *= np.float32(1e38)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        with pytest.raises(NumericError, match=r"\['a'\]"):
            model.reconstruct_batch(make_batch([utt]))
        with pytest.raises(NumericError):
            model.reconstruct_batch(make_batch([utt]), level1=True)
        with pytest.raises(NumericError):
            model.decode_codes(code, utt, 0)


def test_reconstruct_rejects_mel_width_mismatch():
    with pytest.raises(ContractError, match="30 bands, but features.n_mels is 20"):
        make_model().reconstruct(make_utt(bands=30))


def test_checkpoint_version_mismatch(tmp_path):
    from prosody_codec.containers import read_container, write_container
    from prosody_codec.config import TrainConfig
    from prosody_codec.training import load_checkpoint, new_train_state, save_checkpoint

    path = tmp_path / "state.ckpt"
    save_checkpoint(new_train_state(make_model(), TrainConfig()), str(path))
    meta, arrays = read_container(str(path))
    for version in (1, 99):  # 1 stated model.quantization and the retired keys
        meta["format_version"] = version
        write_container(str(path), meta, arrays)
        for load in (load_model, load_checkpoint):
            with pytest.raises(DataError, match=f"version mismatch: expected 2, found {version}$"):
                load(str(path))


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


def _drop(key):
    return lambda meta: meta.pop(key)


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(meta):
        for key in path[:-1]:
            meta = meta[key]
        meta[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("model_config", "model_dim", "x"), "model_config: model.model_dim: expected int, got str"),
        (_set("model_config", "model_dim", True), "model_config: model.model_dim: expected int, got bool"),
        (_set("feature_config", "log_floor", "1"), "feature_config: features.log_floor: expected number"),
        (_set("model_config", "layers", 0), "model_config: model.layers: must be >= 1"),
        (_set("feature_config", "hop_length", 64.5), "feature_config: features.hop_length: expected int"),
        (_set("feature_config", "yin_threshold", -0.5), "feature_config: features.yin_threshold"),
        (_set("model_config", 5), "meta: model_config: unexpected value 5"),
        (_set("speakers", 5), "meta: speakers: unexpected value 5"),
        (_set("speakers", ["s0", 1]), r"meta: speakers: unexpected value \['s0', 1\]"),
        (_set("vocab", 5), "meta: vocab: unexpected value 5"),
        (_set("dtype", "nope"), "dtype: expected float32 or float64, got 'nope'"),
        (_set("dtype", 5), "meta: dtype: unexpected value 5"),
        (_set("rvq", "levels", 5), "rvq meta: levels: unexpected value 5"),
        (_set("rvq", "levels", [5, 5]), r"rvq meta: levels: unexpected value \[5, 5\]"),
        (_set("rvq", "beta", None), "rvq meta: beta: unexpected value None"),
        (_set("rvq", "levels", 0, "initialized", 1), "rvq level 0 meta: initialized: unexpected value 1"),
        (_set("rvq", None), "rvq: null, but the arrays hold rvq.l0.ema_count, rvq.l0.ema_sum"),
        (_set("model_config", "levels", 3), "rvq: 2 levels, the config 3"),
        (_set("model_config", "codebook_size", 9), r"codebook 0 has shape \(8, 3\), the config needs \(9, 3\)"),
        (_drop("dtype"), "meta lacks dtype"),
    ],
)
def test_malformed_checkpoint_meta_is_data_error(tmp_path, edit, message):
    from prosody_codec.containers import read_container, write_container

    path = tmp_path / "model.ckpt"
    save_model(make_model(), str(path))
    meta, arrays = read_container(str(path))
    edit(meta)
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match=message):
        load_model(str(path))


@pytest.mark.parametrize("layers", [2, 10000])
def test_layer_count_mismatch_rejected_before_building_spec_table(tmp_path, monkeypatch, layers):
    from prosody_codec.containers import read_container, write_container

    path = tmp_path / "model.ckpt"
    save_model(make_model(), str(path))
    meta, arrays = read_container(str(path))
    meta["model_config"]["layers"] = layers
    write_container(str(path), meta, arrays)

    def no_table(*args):
        raise AssertionError("the parameter table was built")

    monkeypatch.setattr(md, "_param_specs", no_table)
    with pytest.raises(DataError) as info:
        load_model(str(path))
    assert str(info.value) == f"parameters hold 1 conformer layers per stack, the config needs {layers}"


def test_continuous_checkpoint_without_rvq_meta_loads(tmp_path):
    path = tmp_path / "model.ckpt"
    save_model(make_model(quantized=False), str(path))
    assert load_model(str(path)).rvq is None
