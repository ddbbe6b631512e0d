import json

import numpy as np
import pytest

from prosody_codec import training
from prosody_codec.autodiff import Tensor
from prosody_codec.config import FeatureConfig, ModelConfig, SynthSpec, TrainConfig
from prosody_codec.corpus import PhonemeVocab, Utterance, make_batch, synth_corpus
from prosody_codec.dsp import MelSpectrogram
from prosody_codec.errors import ContractError
from prosody_codec.model import CodecModel
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
                   codebook_size=8, code_dim=3, levels=2, n_mels=20)


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


def test_train_step_skips_on_numeric_error():
    model = make_model()
    model.params["mel_out.w"][0, 0] = np.nan
    state = new_train_state(model, TrainConfig(batch_size=1, max_steps=5))
    params_before = {k: v.copy() for k, v in model.params.items()}
    record = train_step(state, make_batch([make_utt()]))
    assert record.get("skipped") is True
    assert state.step == 1
    for k in params_before:
        np.testing.assert_array_equal(
            model.params[k][np.isfinite(params_before[k])],
            params_before[k][np.isfinite(params_before[k])],
        )


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
        assert {"l1", "l2", "commit"} <= set(r)


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


def test_replaced_param_entry_is_picked_up_by_next_step():
    # the trainer keeps params as views into a flat buffer; an entry
    # replaced between steps must be what the next step updates
    model = make_model()
    state = new_train_state(model, TrainConfig(batch_size=2, max_steps=5, warmup_steps=0))
    batch = make_batch([make_utt("a", seed=1), make_utt("b", seed=2)])
    train_step(state, batch)
    replacement = model.params["mel_out.b"] + 5.0
    model.params["mel_out.b"] = replacement.copy()
    train_step(state, batch)
    moved = np.abs(model.params["mel_out.b"] - replacement).max()
    assert 0 < moved < 2 * state.tcfg.learning_rate
    assert model.params["mel_out.b"].base is model.params["mel_out.w"].base
    assert state.opt.m["mel_out.b"].base is state.opt.m["mel_out.w"].base


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
    model.codes_and_reconstructions(make_batch([make_utt()]), level1=True)
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
