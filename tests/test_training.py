import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from prosody_codec import autodiff as ad
from prosody_codec import training
from prosody_codec.autodiff import Tensor
from prosody_codec.config import FeatureConfig, ModelConfig, SynthSpec, TrainConfig
from prosody_codec.corpus import PhonemeVocab, Utterance, make_batch, synth_corpus
from prosody_codec.dsp import MelSpectrogram
from prosody_codec.containers import read_container, write_container
from prosody_codec.errors import ContractError, DataError, NumericError
from prosody_codec.model import CodecModel, load_model
from prosody_codec.quantizer import ema_update, quantize_level, reinit_dead_codes
from prosody_codec.training import (
    compute_loss,
    evaluate,
    load_checkpoint,
    masked_l1_l2,
    new_train_state,
    save_checkpoint,
    train,
    train_step,
)

FEAT = FeatureConfig(n_mels=20)
TINY = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                   codebook_size=8, code_dim=3, levels=2)


def make_model(seed=0):
    vocab = PhonemeVocab([f"p{i}" for i in range(6)])
    return CodecModel(TINY, FEAT, vocab, ["s0", "s1"], rng=np.random.default_rng(seed))


def make_utt(uid="u0", speaker=0, n=3, per=4, seed=3):
    rng = np.random.default_rng(seed)
    return Utterance(
        id=uid,
        speaker_id=speaker,
        phonemes=rng.integers(1, 6, size=n),
        durations=np.full(n, per),
        mel=MelSpectrogram(rng.normal(size=(n * per, 20)), 256, 1024, 22050),
    )


def tiny_corpus():
    from prosody_codec.corpus import Corpus

    utts = [make_utt(f"u{i}", speaker=i % 2, seed=i) for i in range(4)]
    return Corpus(utterances=utts, vocab=PhonemeVocab([f"p{i}" for i in range(6)]), speakers=["s0", "s1"])


# ---------------------------------------------------------------------------
# loss arithmetic


def test_masked_loss_identical_is_zero():
    target = np.random.default_rng(0).normal(size=(2, 5, 4))
    mask = np.ones((2, 5), dtype=bool)
    l1, l2 = masked_l1_l2(Tensor(target.copy()), target, mask)
    assert float(l1.data) == 0.0
    assert float(l2.data) == 0.0


def test_masked_loss_uniform_offset():
    target = np.zeros((1, 4, 3))
    pred = Tensor(target + 1.0)
    l1, l2 = masked_l1_l2(pred, target, np.ones((1, 4), dtype=bool))
    assert float(l1.data) == pytest.approx(1.0)
    assert float(l2.data) == pytest.approx(1.0)


def test_masked_loss_ignores_padded_cells():
    rng = np.random.default_rng(1)
    target = rng.normal(size=(1, 6, 3))
    pred_values = rng.normal(size=(1, 6, 3))
    mask = np.array([[True, True, True, True, False, False]])
    l1a, l2a = masked_l1_l2(Tensor(pred_values), target, mask)
    doubled = pred_values.copy()
    doubled[0, 4:] *= 7.0  # padded region: must change nothing
    l1b, l2b = masked_l1_l2(Tensor(doubled), target, mask)
    assert float(l1a.data) == float(l1b.data)
    assert float(l2a.data) == float(l2b.data)


def test_compute_loss_parts_nonnegative_and_sum():
    model = make_model()
    batch = make_batch([make_utt()])
    total, parts, _ = compute_loss(model, model.param_tensors(train=True), batch)
    assert parts["l1"] >= 0 and parts["l2"] >= 0 and parts["commitment"] >= 0
    assert float(total.data) == pytest.approx(
        parts["l1"] + parts["l2"] + parts["commitment"], rel=1e-6
    )


# ---------------------------------------------------------------------------
# train_step


def test_train_step_lr_zero_updates_only_ema():
    model = make_model()
    tcfg = TrainConfig(learning_rate=0.0, warmup_steps=0, batch_size=2, max_steps=5,
                       dead_code_every=0)
    state = new_train_state(model, tcfg)
    batch = make_batch([make_utt("a", seed=1), make_utt("b", seed=2)])
    params_before = {k: v.copy() for k, v in model.params.items()}
    counts_before = model.rvq.levels[0].ema_count.copy()
    record = train_step(state, batch)
    assert record["step"] == 1
    for k in params_before:
        np.testing.assert_array_equal(model.params[k], params_before[k])
    assert not np.array_equal(model.rvq.levels[0].ema_count, counts_before)


def test_train_step_raises_on_numeric_error():
    # the step's loss is not finite: a NumericError naming the step and the
    # batch's utterances, raised before Adam moves a parameter
    model = make_model()
    model.params["mel_out.w"][0, 0] = np.nan
    state = new_train_state(model, TrainConfig(batch_size=1, max_steps=5))
    params_before = {k: v.copy() for k, v in model.params.items()}
    with pytest.raises(NumericError, match=r"^loss is not finite for utterances \['u0'\] at step 1$"):
        train_step(state, make_batch([make_utt()]))
    assert state.step == 1
    for k in params_before:
        np.testing.assert_array_equal(
            model.params[k][np.isfinite(params_before[k])],
            params_before[k][np.isfinite(params_before[k])],
        )


def test_train_step_raises_on_a_non_finite_gradient(monkeypatch):
    # a finite loss whose gradient is not: the NumericError names the
    # parameter, the batch's utterances and the step
    state = new_train_state(make_model(), TrainConfig(batch_size=1, max_steps=5))
    backward = ad.backward

    def nan_gradient(total):
        backward(total)
        state.opt.leaves["mel_out.b"].grad[0] = np.nan

    monkeypatch.setattr(ad, "backward", nan_gradient)
    with pytest.raises(NumericError, match=r"^gradient of 'mel_out.b' is not finite "
                                           r"for utterances \['u0'\] at step 1$"):
        train_step(state, make_batch([make_utt()]))


def test_training_deterministic_same_seed(tmp_path):
    logs = []
    for run in range(2):
        corpus = tiny_corpus()
        model = make_model(seed=4)
        tcfg = TrainConfig(batch_size=2, max_steps=10, warmup_steps=5, seed=11,
                           eval_every=1000, checkpoint_every=1000)
        state = new_train_state(model, tcfg)
        log = tmp_path / f"log{run}.jsonl"
        train(state, corpus, log_path=str(log))
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]


def test_usage_logged_per_level(tmp_path):
    corpus = tiny_corpus()
    state = new_train_state(make_model(), TrainConfig(batch_size=2, max_steps=3,
                                                      eval_every=1000, checkpoint_every=1000))
    log = tmp_path / "log.jsonl"
    train(state, corpus, log_path=str(log))
    records = [json.loads(line) for line in log.read_text().splitlines()]
    step_records = [r for r in records if "usage_l1" in r]
    assert step_records
    for r in step_records:
        assert 0 <= r["usage_l1"] <= 1 and 0 <= r["usage_l2"] <= 1
        assert 1 <= r["perplexity_l1"] <= TINY.codebook_size and 1 <= r["perplexity_l2"] <= TINY.codebook_size
        assert {"l1", "l2", "commit"} <= set(r)


def test_perplexity_is_exp_entropy_of_the_batch_code_histogram(monkeypatch):
    outputs = []
    compute = training.compute_loss

    def keep_output(*args, **kwargs):
        result = compute(*args, **kwargs)
        outputs.append(result[2])
        return result

    monkeypatch.setattr(training, "compute_loss", keep_output)
    batch = make_batch(tiny_corpus().utterances)
    record = train_step(new_train_state(make_model(), TrainConfig(batch_size=4, max_steps=1)), batch)
    (out,) = outputs
    for l in range(TINY.levels):
        codes = out["codes"].indices[..., l][batch.phoneme_mask].tolist()
        n = len(codes)
        entropy = -sum(c / n * math.log(c / n) for c in Counter(codes).values())
        assert record[f"perplexity_l{l + 1}"] == pytest.approx(math.exp(entropy), rel=1e-12)
        assert record[f"usage_l{l + 1}"] == len(set(codes)) / TINY.codebook_size


def test_timing_file_has_one_record_per_step_and_leaves_the_log_alone(tmp_path):
    timing = tmp_path / "timing.jsonl"
    logs = []
    for timing_path in (None, str(timing)):
        tcfg = TrainConfig(batch_size=2, max_steps=6, warmup_steps=3, seed=11,
                           eval_every=3, checkpoint_every=1000)
        log = tmp_path / f"log{len(logs)}.jsonl"
        train(new_train_state(make_model(seed=4), tcfg), tiny_corpus(), log_path=str(log),
              timing_path=timing_path)
        logs.append(log.read_bytes())
    assert logs[0] == logs[1]  # the log gets no timing, with or without the file
    assert b"wall_ms" not in logs[1]
    records = [json.loads(line) for line in timing.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(1, 7))
    keys = {"step", "wall_ms"} | ({"sys_ms", "minflt"} if training.resource else set())
    for r in records:
        assert set(r) == keys
        assert r["wall_ms"] > 0 and r.get("sys_ms", 0) >= 0 and r.get("minflt", 0) >= 0


def test_step_records_carry_grad_norm_and_lr(tmp_path):
    corpus = tiny_corpus()
    tcfg = TrainConfig(batch_size=2, max_steps=6, warmup_steps=4, learning_rate=2e-3,
                       eval_every=1000, checkpoint_every=1000)
    state = new_train_state(make_model(), tcfg)
    log = tmp_path / "log.jsonl"
    train(state, corpus, log_path=str(log))
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(1, 7))
    for r in records:
        assert np.isfinite(r["grad_norm"]) and r["grad_norm"] > 0
        assert np.isfinite(r["lr"])
        assert r["lr"] == pytest.approx(2e-3 * min(1.0, r["step"] / 4), rel=1e-12)


def test_train_step_moves_each_parameter_by_its_own_adam():
    # the model's flat buffer, the gradient and both moments share one
    # layout: each parameter moves as Adam on its own gradient moves it,
    # from a fresh graph on the same batch, clipped by the same global norm
    model = make_model()
    tcfg = TrainConfig(batch_size=2, max_steps=5, warmup_steps=0, grad_clip=0.5, dead_code_every=0)
    state = new_train_state(model, tcfg)
    batch = make_batch([make_utt("a", seed=1), make_utt("b", seed=2)])
    train_step(state, batch)  # seeds the code books and starts the moments
    before = {k: (model.params[k].astype(np.float64), state.opt.m[k].astype(np.float64),
                  state.opt.v[k].astype(np.float64)) for k in model.params}
    pt = model.param_tensors(train=True)
    total, _, _ = compute_loss(model, pt, batch)
    ad.backward(total)
    grads = {k: pt[k].grad.astype(np.float64) for k in pt}
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    record = train_step(state, batch)
    assert record["grad_norm"] == pytest.approx(norm, rel=1e-5) and norm > tcfg.grad_clip
    lr, b1, b2, t = tcfg.learning_rate, 0.9, 0.999, state.opt.t
    assert t == 2
    for k, (p, m, v) in before.items():
        g = grads[k] * (tcfg.grad_clip / norm)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        expected = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + 1e-8)
        np.testing.assert_allclose(state.opt.m[k], m, rtol=1e-4, atol=1e-9, err_msg=k)
        np.testing.assert_allclose(model.params[k], expected, rtol=1e-6, atol=1e-7, err_msg=k)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_reports_l1_and_psnr():
    model = make_model()
    report = evaluate(model, [make_utt()])
    assert report["n"] == 1
    assert report["l1"] > 0
    assert np.isfinite(report["psnr"])


def test_evaluate_empty_set_rejected():
    with pytest.raises(ContractError):
        evaluate(make_model(), [])


def test_evaluate_never_touches_ema_state():
    model = make_model()
    counts = [book.ema_count.copy() for book in model.rvq.levels]
    model.reconstruct_batch(make_batch([make_utt()]), level1=True)
    evaluate(model, [make_utt()])
    for book, before in zip(model.rvq.levels, counts):
        np.testing.assert_array_equal(book.ema_count, before)


# ---------------------------------------------------------------------------
# checkpoint / resume


def test_checkpoint_roundtrip_preserves_forward(tmp_path):
    corpus = tiny_corpus()
    state = new_train_state(make_model(seed=2), TrainConfig(batch_size=2, max_steps=4,
                                                            eval_every=1000, checkpoint_every=1000))
    train(state, corpus)
    utt = corpus.utterances[0]
    before = state.model.reconstruct(utt)
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, str(path))
    loaded = load_checkpoint(str(path))
    after = loaded.model.reconstruct(utt)
    assert np.array_equal(before.values, after.values)
    assert loaded.step == state.step
    assert loaded.opt.t == state.opt.t


def test_resume_continues_identically(tmp_path):
    def run(total_steps, resume_at=None):
        corpus = tiny_corpus()
        tcfg = TrainConfig(batch_size=2, max_steps=total_steps, warmup_steps=5, seed=7,
                           eval_every=1000, checkpoint_every=1000)
        state = new_train_state(make_model(seed=4), tcfg)
        log = tmp_path / "uninterrupted.jsonl"
        if resume_at is None:
            if log.exists():
                log.unlink()
            train(state, corpus, log_path=str(log))
            return state, log.read_text().splitlines()
        # interrupted variant: stop, checkpoint, reload, continue
        tcfg_first = TrainConfig(batch_size=2, max_steps=resume_at, warmup_steps=5, seed=7,
                                 eval_every=1000, checkpoint_every=1000)
        state = new_train_state(make_model(seed=4), tcfg_first)
        log1 = tmp_path / "part1.jsonl"
        if log1.exists():
            log1.unlink()
        train(state, corpus, log_path=str(log1))
        ckpt = tmp_path / "mid.ckpt"
        save_checkpoint(state, str(ckpt))
        resumed = load_checkpoint(str(ckpt))
        resumed.tcfg.max_steps = total_steps
        log2 = tmp_path / "part2.jsonl"
        if log2.exists():
            log2.unlink()
        train(resumed, corpus, log_path=str(log2))
        return resumed, log1.read_text().splitlines() + log2.read_text().splitlines()

    full_state, full_log = run(12)
    resumed_state, stitched_log = run(12, resume_at=6)
    assert full_log == stitched_log
    for k in full_state.model.params:
        np.testing.assert_array_equal(full_state.model.params[k], resumed_state.model.params[k])


def test_checkpoint_meta_is_written_through_section_json(tmp_path):
    state = new_train_state(make_model(), TrainConfig(batch_size=2, max_steps=1))
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, str(path))
    meta, _ = read_container(str(path))
    assert meta["train"]["config"] == dataclasses.asdict(state.tcfg)
    save_checkpoint(load_checkpoint(str(path)), str(tmp_path / "again.ckpt"))
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_carrying_best_eval_loads(tmp_path):
    # older checkpoints carry a best_eval that no code read, Infinity when no
    # in-loop evaluation ran; loading ignores it and re-saving drops it
    state = new_train_state(make_model(seed=2), TrainConfig(batch_size=2, max_steps=3,
                                                            eval_every=1000, checkpoint_every=1000))
    train(state, tiny_corpus())
    path = tmp_path / "state.ckpt"
    save_checkpoint(state, str(path))
    meta, arrays = read_container(str(path))
    assert "best_eval" not in meta["train"]
    meta["train"]["best_eval"] = float("inf")
    old = tmp_path / "old.ckpt"
    write_container(str(old), meta, arrays)
    save_checkpoint(load_checkpoint(str(old)), str(tmp_path / "again.ckpt"))
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


_DROP = object()


def _edit_train_checkpoint(meta, arrays, key, value):
    if key is None:
        meta["train"] = value
    elif key.startswith("opt."):
        del arrays[key]
    elif value is _DROP:
        del meta["train"][key]
    elif key.startswith("config."):
        meta["train"]["config"][key[len("config."):]] = value
    else:
        meta["train"][key] = value


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("config.frobnicate", 1, "train.config: train.frobnicate: unknown key"),
        ("config.learning_rate", -1.0, "train.config: train.learning_rate: must be positive"),
        ("config.batch_size", "2", "train.config: train.batch_size: expected int, got str"),
        ("config.seed", -1, "train.config: train.seed: must be >= 0"),
        ("config.dead_code_every", -5, "train.config: train.dead_code_every"),
        ("config.target_loss_ratio", float("inf"), "train.config: train.target_loss_ratio"),
        ("config", _DROP, "train meta lacks config"),
        ("adam_t", "x", "train meta: adam_t: unexpected value 'x'"),
        ("step", 1.5, "train meta: step: unexpected value 1.5"),
        ("loss_at_100", "x", "train meta: loss_at_100: unexpected value 'x'"),
        ("rng_state", {"a": 1}, "train meta: rng_state: ValueError"),
        ("rng_state", 5, "train meta: rng_state: unexpected value 5"),
        (None, [1], r"meta: train: unexpected value \[1\]"),
        ("step", -1, "train meta: step: must be >= 0, got -1"),
        ("adam_t", -3, "train meta: adam_t: must be >= 0, got -3"),
        ("opt.m.mel_out.b", _DROP, "checkpoint lacks Adam moments opt.m.mel_out.b$"),
    ],
)
def test_malformed_train_checkpoint_is_data_error(tmp_path, key, value, message):
    path = tmp_path / "state.ckpt"
    save_checkpoint(new_train_state(make_model(), TrainConfig(batch_size=2, max_steps=1)), str(path))
    meta, arrays = read_container(str(path))
    _edit_train_checkpoint(meta, arrays, key, value)
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match=message):
        load_checkpoint(str(path))


@pytest.mark.parametrize("key", ["opt.m.no_such.w", "opt.v.mel_out.b"])
def test_checkpoint_moment_that_fits_no_parameter_is_data_error(tmp_path, key):
    path = tmp_path / "state.ckpt"
    save_checkpoint(new_train_state(make_model(), TrainConfig(batch_size=2, max_steps=1)), str(path))
    meta, arrays = read_container(str(path))
    arrays[key] = np.zeros(7, dtype=np.float32)  # mel_out.b has 20 entries
    write_container(str(path), meta, arrays)
    with pytest.raises(DataError, match=f"checkpoint array {key} of shape"):
        load_checkpoint(str(path))


def test_model_checkpoint_is_not_a_train_checkpoint(tmp_path):
    # a missing train key used to load as a default TrainConfig at step 0
    from prosody_codec.model import save_model

    path = tmp_path / "model.ckpt"
    save_model(make_model(), str(path))
    with pytest.raises(DataError, match="meta lacks train"):
        load_checkpoint(str(path))


# ---------------------------------------------------------------------------
# overfit trend (fast sanity; the full run lives in the acceptance suite)


def test_loss_decreases_on_fixed_corpus():
    spec = SynthSpec(n_speakers=1, n_utterances=2, phoneme_inventory=4,
                     f0_ranges=[[150.0, 250.0]], segments_min=3, segments_max=4, seed=0)
    corpus = synth_corpus(spec, FeatureConfig())
    cfg = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                      codebook_size=8, code_dim=3, levels=2)
    model = CodecModel(cfg, FeatureConfig(), corpus.vocab, corpus.speakers,
                       rng=np.random.default_rng(0))
    tcfg = TrainConfig(batch_size=2, max_steps=60, warmup_steps=10, seed=0,
                       eval_every=1000, checkpoint_every=1000)
    state = new_train_state(model, tcfg)
    first = None
    losses = []
    for _ in range(60):
        picks = state.rng.integers(0, len(corpus.utterances), size=2)
        batch = make_batch([corpus.utterances[i] for i in picks])
        record = train_step(state, batch)
        if "total" in record:
            losses.append(record["total"])
            if first is None:
                first = record["total"]
    assert losses[-1] < first


# ---------------------------------------------------------------------------
# codebook learning from the forward pass's assignments


def _requantizing_codebook_updates(model, out, mask, state):
    """The earlier update, which quantized every level's float64 residual a
    second time; kept as the oracle for the one that reads the forward's codes."""
    rvq = model.rvq
    residual = out["encoder_output"].data.reshape(-1, rvq.dim).astype(np.float64)
    valid = mask.reshape(-1)
    reinit_now = state.tcfg.dead_code_every > 0 and state.step % state.tcfg.dead_code_every == 0
    reinit = 0
    for book in rvq.levels:
        idx, q, _ = quantize_level(book, residual)
        ema_update(book, idx[valid], residual[valid])
        if reinit_now:
            threshold = state.tcfg.dead_code_threshold * float(book.ema_count.mean())
            reinit += reinit_dead_codes(book, residual[valid], threshold, state.rng)
        residual = residual - q
    return reinit


def test_ema_update_gets_the_forward_assignments(monkeypatch):
    model = make_model(seed=1)
    state = new_train_state(model, TrainConfig(batch_size=3, max_steps=5, warmup_steps=0))
    batch = make_batch([make_utt("a", n=3, seed=1), make_utt("b", n=6, per=2, seed=2),
                        make_utt("c", n=4, per=3, seed=3)])
    train_step(state, batch)  # seeds the codebooks
    forwards, updates = [], []
    real_forward = model.forward_batch

    def forward_spy(*args, **kwargs):
        out = real_forward(*args, **kwargs)
        forwards.append(out)
        return out

    def ema_spy(book, assignments, vectors):
        updates.append((book, np.array(assignments), np.array(vectors)))
        return ema_update(book, assignments, vectors)

    monkeypatch.setattr(model, "forward_batch", forward_spy)
    monkeypatch.setattr(training, "ema_update", ema_spy)
    train_step(state, batch)
    assert len(forwards) == 1
    codes = forwards[0]["codes"].indices
    assert len(updates) == 2 and all(u[0] is book for u, book in zip(updates, model.rvq.levels))
    for l, (_, assignments, _) in enumerate(updates):
        np.testing.assert_array_equal(assignments, codes[..., l][batch.phoneme_mask])
    z = forwards[0]["encoder_output"].data[batch.phoneme_mask].astype(np.float64)
    np.testing.assert_array_equal(updates[0][2], z)


def test_codebook_updates_match_requantizing_oracle(monkeypatch, tmp_path):
    def run(update):
        monkeypatch.setattr(training, "_codebook_updates", update)
        tcfg = TrainConfig(batch_size=2, max_steps=30, warmup_steps=5, seed=5,
                           dead_code_every=4, dead_code_threshold=0.5,
                           eval_every=1000, checkpoint_every=1000)
        model = make_model(seed=6)
        for book in model.rvq.levels:
            book.decay = 0.8  # unused codes fall under the threshold within a few steps
        state = new_train_state(model, tcfg)
        log = tmp_path / "log.jsonl"
        if log.exists():
            log.unlink()
        train(state, tiny_corpus(), log_path=str(log))
        return state, log.read_bytes()

    new_state, new_log = run(training._codebook_updates)
    old_state, old_log = run(_requantizing_codebook_updates)
    assert new_log == old_log
    assert sum(json.loads(line)["reinit"] for line in new_log.splitlines()) > 0
    for name, value in new_state.model.params.items():
        np.testing.assert_array_equal(value, old_state.model.params[name])
    for new_book, old_book in zip(new_state.model.rvq.levels, old_state.model.rvq.levels):
        for part in ("entries", "ema_count", "ema_sum"):
            np.testing.assert_array_equal(getattr(new_book, part), getattr(old_book, part))


# ---------------------------------------------------------------------------
# keeping a step's freed memory mapped

# Runs in a fresh interpreter, whose allocator state no earlier test has
# touched: 20 rounds of 20 arrays of 1 MB, each round freed at once as a
# step's graph is, and the minor page faults of rounds 2-20.
_REFAULT_PROBE = """
import resource, sys
import numpy as np
from prosody_codec import training
if sys.argv[1] == "keep":
    assert training.keep_freed_memory_mapped()
faults = []
for _ in range(20):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(20)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[1:]))
"""
# one round touches 20 MB, about 5000 pages; kept mapped, later rounds touch
# almost none
_REFAULT_BOUND = 1000


def _refaults(mode: str) -> int:
    src = os.path.dirname(os.path.dirname(os.path.abspath(training.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _REFAULT_PROBE, mode], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return int(run.stdout.split()[-1])


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="glibc's malloc thresholds only")
def test_freed_memory_stays_mapped_across_rounds():
    assert _refaults("keep") < _REFAULT_BOUND
    assert _refaults("default") > _REFAULT_BOUND  # the control: glibc's defaults refault


def test_train_keeps_freed_memory_mapped(monkeypatch):
    calls = []
    monkeypatch.setattr(training, "keep_freed_memory_mapped", lambda: calls.append(True))
    tcfg = TrainConfig(batch_size=2, max_steps=1, eval_every=1000, checkpoint_every=1000)
    train(new_train_state(make_model(), tcfg), tiny_corpus())
    assert calls == [True]


# A few train steps at the toy's model size, where a GEMM's float results
# depend on how many threads BLAS splits it across
_BLAS_PROBE = r"""
import sys

import numpy as np

from prosody_codec import training
from prosody_codec.config import FeatureConfig, ModelConfig, SynthSpec, TrainConfig
from prosody_codec.corpus import synth_corpus
from prosody_codec.model import CodecModel

out = sys.argv[1]
features = FeatureConfig()
corpus = synth_corpus(SynthSpec(n_utterances=8, seed=1), features)
model = CodecModel(ModelConfig(), features, corpus.vocab, corpus.speakers, rng=np.random.default_rng(0))
tcfg = TrainConfig(batch_size=8, max_steps=4, warmup_steps=2, eval_every=1000, checkpoint_every=1000)
training.train(training.new_train_state(model, tcfg), corpus, checkpoint_dir=out,
               log_path=out + "/train_log.jsonl")
"""
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _probe_at(tmp_path, threads: str | None) -> tuple[str, str]:
    out = tmp_path / f"threads_{threads}"
    out.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(training.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(out)], env=env,
                   capture_output=True, text=True, timeout=300, check=True)
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in ("latest.ckpt", "train_log.jsonl"))


def test_train_gives_the_same_bits_at_any_blas_thread_count(tmp_path):
    if training.one_blas_thread() is None:
        pytest.skip("no OpenBLAS whose thread count the package can set")
    # parameters, codebooks and Adam moments are in the checkpoint
    one = _probe_at(tmp_path, "1")
    assert _probe_at(tmp_path, "2") == one
    assert _probe_at(tmp_path, None) == one


def test_one_blas_thread_is_a_silent_no_op_without_a_settable_openblas(monkeypatch, tmp_path):
    def unloadable(path):
        raise OSError(f"{path}: cannot open shared object file")

    monkeypatch.setattr(training.ctypes, "CDLL", unloadable)
    assert training.one_blas_thread() is None
    monkeypatch.setattr(training.ctypes, "CDLL", lambda path: object())  # no thread functions
    assert training.one_blas_thread() is None
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))  # no bundled libraries
    assert training.one_blas_thread() is None


def test_keeping_memory_mapped_is_a_silent_no_op_without_mallopt(monkeypatch):
    def mallopt(param, value):  # present, but sets nothing
        return 0

    libc = type("Libc", (), {"mallopt": staticmethod(mallopt)})()
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: libc)
    assert training.keep_freed_memory_mapped() is False
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: object())  # no mallopt
    assert training.keep_freed_memory_mapped() is False

    def no_glibc(name):  # macOS: the name is unknown
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(training.os, "confstr", no_glibc)
    assert training.keep_freed_memory_mapped() is False
    monkeypatch.delattr(training.os, "confstr")  # Windows has no confstr
    assert training.keep_freed_memory_mapped() is False
