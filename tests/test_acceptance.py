"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line. The toy pipeline of scripts/run_toy_experiment.py (synthetic
corpus -> training -> analyses -> resynthesis -> continuous twin -> ablation)
runs once per session through the CLI; criteria assert on its artifacts.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import importlib.util
import itertools
import json
import os
import time
from functools import lru_cache

import numpy as np
import pytest

from prosody_codec import analysis as an
from prosody_codec import autodiff as ad
from prosody_codec import cli
from prosody_codec import metrics as mx
from prosody_codec import model as md
from prosody_codec.autodiff import Tensor
from prosody_codec.config import FeatureConfig, ModelConfig
from prosody_codec.corpus import Batch, PhonemeVocab, Utterance, make_batch, parse_manifest
from prosody_codec.dsp import MelSpectrogram, PitchContour
from prosody_codec.model import (
    CodecModel,
    _downsample,
    _upsample_t,
    batch_resample_weights,
    load_model,
    save_model,
)
from prosody_codec.quantizer import (
    Codebook,
    decode_vectors,
    ema_update,
    kmeans_pp_init,
    new_rvq,
    quantize_level,
    rvq_forward,
    seed_codebooks,
)
from prosody_codec.training import compute_loss

K_TOY = 64  # desk-config codebook size, fixed by the toy ModelConfig defaults


# the toy experiment's config and stages
_spec = importlib.util.spec_from_file_location("run_toy_experiment", os.path.join(
    os.path.dirname(__file__), os.pardir, "scripts", "run_toy_experiment.py"))
toy_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(toy_run)


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {message}")


@pytest.fixture(scope="session")
def toy(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_run")
    cfg_path = str(root / "config.json")
    (root / "config.json").write_text(json.dumps(toy_run.default_config(str(root), 20000, 0)))
    seconds = toy_run.run_stages(cfg_path)
    reports = root / "reports"

    def load(name):
        return json.loads((reports / name).read_text())

    return {
        "root": root,
        "config": cfg_path,
        "reports": reports,
        "train_seconds": seconds["train"]["wall"],
        "summary": load("train_summary.json"),
        "usage": load("usage.json"),
        "entropy": load("entropy.json"),
        "speaker_relative": load("speaker_relative_f0.json"),
        "ablation": load("ablation_continuous.json"),
        "log": [json.loads(l) for l in (reports / "train_log.jsonl").read_text().splitlines()],
    }


def test_toy_runner_stops_at_the_first_failing_stage(tmp_path):
    cfg = toy_run.default_config(str(tmp_path), 20000, 0)
    cfg["synth"]["n_speakers"] = 0
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    with pytest.raises(toy_run.StageFailed, match="stage `synth-data` exited with code 1"):
        toy_run.run_stages(str(tmp_path / "config.json"))


def _toy_model_and_utterance(toy):
    """The trained toy model and the first utterance of its corpus."""
    model = load_model(str(toy["root"] / "ckpt" / "latest.ckpt"))
    corpus = parse_manifest(str(toy["root"] / "data" / "manifest.jsonl"), model.features,
                            cache_dir=str(toy["root"] / "cache"), cache_write=False)
    return model, corpus.utterances[0]


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    const = rng.normal(size=(4, 2))
    vec = rng.normal(size=4)
    ids = np.array([[0, 2], [1, 1]])
    x3 = rng.normal(size=(2, 5, 4))
    w_out = rng.normal(size=(4, 3))

    def square(y):
        return ad.mul(y, y)

    def cube(y):
        return ad.mul(ad.mul(y, y), y)

    # the model's module nodes (D=6, 2 heads) on the packed rows of sequences
    # of 6 and 4 positions: 10 rows; their data has its own generator, so the
    # op cases and the codec check below draw from ``rng`` without them
    row_mask = np.array([[True] * 6, [True] * 4 + [False] * 2])
    tiny = CodecModel(ModelConfig(model_dim=6, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                                  codebook_size=8, code_dim=3, levels=2),
                      FeatureConfig(n_mels=20), PhonemeVocab(["p0"]), ["s0"])
    module_rng = np.random.default_rng(2)
    block = {name: module_rng.normal(0.0, 0.7, size=p.shape)
             for name, p in sorted(tiny.params.items()) if name.startswith("dec.l0.")}
    rows = module_rng.normal(size=(10, 6))
    modules = {
        "ffn1": lambda pt, x: md.ffn_module(pt, "dec.l0.ffn1", x),
        "attn": lambda pt, x: md.attention_module(pt, "dec.l0.attn", x, row_mask, 2),
        "conv": lambda pt, x: md.conv_module(pt, "dec.l0.conv", x, row_mask),
    }

    def module_case(module, wrt):
        """The module's output, cubed and summed, as a function of its input
        rows (``wrt`` "input") or of one of its parameters."""
        def fn(probe):
            pt = {name: Tensor(value) for name, value in block.items()}
            x = probe if wrt == "input" else Tensor(rows)
            if wrt != "input":
                pt[wrt] = probe
            return ad.tsum(cube(modules[module](pt, x)))

        return fn, rows if wrt == "input" else block[wrt]

    cases = {
        "add": ((3, 4), lambda x: ad.tsum(ad.mul(ad.add(x, 1.5), ad.add(x, 1.5)))),
        "sub": ((3, 4), lambda x: ad.tsum(cube(ad.sub(x, 0.3)))),
        "mul": ((3, 4), lambda x: ad.tsum(ad.mul(x, x))),
        "div": ((3, 4), lambda x: ad.tsum(ad.div(1.0, ad.add(ad.mul(x, x), 1.0)))),
        "matmul": ((3, 4), lambda x: ad.tsum(square(ad.matmul(x, Tensor(const))))),
        "matmul_batched": ((2, 3, 4), lambda x: ad.tsum(square(ad.matmul(x, ad.reshape(x, (2, 4, 3)))))),
        "linear": ((3, 4), lambda x: ad.tsum(cube(ad.linear(x, Tensor(const), Tensor(np.ones(2)))))),
        "linear_3d_x": ((2, 5, 4), lambda x: ad.tsum(cube(ad.linear(x, Tensor(w_out), Tensor(np.ones(3)))))),
        "linear_3d_w": ((4, 3), lambda w: ad.tsum(cube(ad.linear(Tensor(x3), w, Tensor(np.ones(3)))))),
        "linear_3d_b": ((3,), lambda b: ad.tsum(cube(ad.linear(Tensor(x3), Tensor(w_out), b)))),
        "layer_norm": ((2, 4), lambda x: ad.tsum(square(ad.layer_norm(x, Tensor(vec), Tensor(vec * 0.1))))),
        "layer_norm_3d_gain": ((4,), lambda g: ad.tsum(cube(ad.layer_norm(Tensor(x3), g, Tensor(vec))))),
        "layer_norm_3d_bias": ((4,), lambda b: ad.tsum(cube(ad.layer_norm(Tensor(x3), Tensor(vec), b)))),
        "gather_rows": ((2, 6, 4), lambda x: ad.tsum(cube(ad.gather_rows(x, row_mask)))),
        "scatter_rows": ((10, 4), lambda x: ad.tsum(cube(ad.scatter_rows(x, row_mask)))),
        "embedding": ((4, 3), lambda t: ad.tsum(square(ad.embedding_lookup(t, ids)))),
        "sum": ((3, 4), lambda x: ad.tsum(square(ad.tsum(x, axis=1)))),
        "absolute": ((6,), lambda x: ad.tsum(ad.absolute(ad.add(x, 10.0)))),
        "reshape": ((2, 3, 4), lambda x: ad.tsum(square(ad.reshape(x, (2, 4, 3))))),
    }
    worst = {}

    def check(name, fn, start):
        worst[name] = err = ad.grad_check(fn, Tensor(start), eps=1e-6)
        assert err < 1e-4, f"{name}: {err}"

    for name, (shape, fn) in cases.items():
        check(name, fn, rng.normal(size=shape))
    # the input and every parameter of each module node, except the key
    # bias: it shifts all of a query's scores alike, so its true gradient is
    # zero, and the codec check below skips it for that reason too
    for module in modules:
        for wrt in ["input", *(n for n in block if n.startswith(f"dec.l0.{module}."))]:
            if wrt != "dec.l0.attn.bk":
                check(f"{module} {wrt}", *module_case(module, wrt))

    # full tiny codec (model_dim 16), double precision, quantizer bypassed:
    # through the quantizer the loss is piecewise constant in the assignments
    cfg = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                      codebook_size=8, code_dim=3, levels=2)
    vocab = PhonemeVocab([f"p{i}" for i in range(6)])
    model = CodecModel(cfg, FeatureConfig(n_mels=20), vocab, ["s0", "s1"],
                       rng=np.random.default_rng(1)).astype(np.float64)
    utt = Utterance(
        id="u", speaker_id=1,
        phonemes=np.array([1, 2, 3]), durations=np.array([4, 4, 4]),
        mel=MelSpectrogram(rng.normal(size=(12, 20)), 256, 1024, 22050),
    )
    batch = make_batch([utt])
    pt = model.param_tensors(train=True)
    total, _, _ = compute_loss(model, pt, batch, bypass=True)
    ad.backward(total)
    checked = 0
    codec_worst = 0.0
    for name in sorted(model.params):
        grad = pt[name].grad
        if grad is None:
            continue
        idx = int(rng.integers(0, model.params[name].size))
        eps = 1e-5
        saved = model.params[name].copy()
        bumped = saved.copy()
        bumped.reshape(-1)[idx] += eps
        model.params[name] = bumped
        hi, _, _ = compute_loss(model, model.param_tensors(train=False), batch, bypass=True)
        bumped = saved.copy()
        bumped.reshape(-1)[idx] -= eps
        model.params[name] = bumped
        lo, _, _ = compute_loss(model, model.param_tensors(train=False), batch, bypass=True)
        model.params[name] = saved
        fd = (float(hi.data) - float(lo.data)) / (2 * eps)
        g = float(grad.reshape(-1)[idx])
        checked += 1
        if max(abs(g), abs(fd)) < 1e-8:
            continue  # gradient is zero on both sides (e.g. attention key bias)
        rel = abs(g - fd) / max(abs(g), abs(fd))
        codec_worst = max(codec_worst, rel)
        assert rel < 1e-3, f"codec {name}[{idx}]: ad {g} vs fd {fd} (rel {rel})"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    assert checked > 50
    _report(1, f"{len(worst)} op and module cases worst {max(worst.values()):.2e}; "
               f"codec {checked} params worst {codec_worst:.2e}; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: quantizer oracle


def test_criterion_2_quantizer_vs_lloyd_and_bruteforce():
    rng = np.random.default_rng(11)
    centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6]], dtype=float)
    data = np.concatenate([c + 0.4 * rng.normal(size=(128, 2)) for c in centers])

    def objective(entries):
        d = ((data[:, None, :] - entries) ** 2).sum(axis=2)
        return float(d.min(axis=1).mean())

    # paired comparison: both start from the same k-means++ centers, the
    # oracle being Lloyd's own update loop run to convergence
    init = kmeans_pp_init(np.random.default_rng(0), data, 4)
    lloyd = init.copy()
    for _ in range(200):
        assign = ((data[:, None, :] - lloyd) ** 2).sum(axis=2).argmin(axis=1)
        updated = np.array(
            [data[assign == j].mean(axis=0) if np.any(assign == j) else lloyd[j] for j in range(4)]
        )
        if np.allclose(updated, lloyd):
            break
        lloyd = updated
    book = Codebook(
        entries=init.copy(),
        ema_count=np.ones(4),
        ema_sum=init.copy(),
        decay=0.9,
        epsilon=1e-5,
        initialized=True,
    )
    for _ in range(200):
        idx, _, _ = quantize_level(book, data)
        ema_update(book, idx, data)
    ours = objective(book.entries)
    target = objective(lloyd)
    assert ours <= 1.05 * target, f"EMA objective {ours} vs Lloyd {target}"

    # oracle 2: exhaustive scan on 10^4 random queries, exact agreement
    big = Codebook(
        entries=rng.normal(size=(64, 3)),
        ema_count=np.ones(64),
        ema_sum=np.zeros((64, 3)),
        initialized=True,
    )
    queries = rng.normal(size=(10_000, 3))
    got, _, _ = quantize_level(big, queries)
    expected = np.empty(10_000, dtype=np.int64)
    for j in range(64):  # loop over codes: independent formulation
        d_j = ((queries - big.entries[j]) ** 2).sum(axis=1)
        if j == 0:
            best = d_j.copy()
            expected[:] = 0
        else:
            better = d_j < best
            expected[better] = j
            best[better] = d_j[better]
    assert np.array_equal(got, expected)
    _report(2, f"EMA/Lloyd objective ratio {ours / target:.4f} <= 1.05; "
               f"10^4 nearest-neighbor queries exact")


# ---------------------------------------------------------------------------
# criterion 3: RVQ monotonicity + straight-through identity


def test_criterion_3_rvq_monotonic_and_bit_exact():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(512, 4))
    errors = []
    for levels in (1, 2, 3):
        rvq = new_rvq(levels=levels, k=16, d=4, rng=np.random.default_rng(0))
        seed_codebooks(rvq, x, np.random.default_rng(42))
        _, out, _ = rvq_forward(rvq, Tensor(x))
        errors.append(float(np.mean(np.sum((x - out.data) ** 2, axis=1))))
    assert errors[0] >= errors[1] >= errors[2], errors

    rvq = new_rvq(levels=2, k=16, d=4, rng=np.random.default_rng(3))
    seed_codebooks(rvq, x, np.random.default_rng(5))
    xt = Tensor(x, requires_grad=True)
    codes, out, _ = rvq_forward(rvq, xt)
    assert np.array_equal(out.data, decode_vectors(rvq, codes.indices))  # bit-exact value identity
    ad.backward(ad.tsum(out))
    assert np.array_equal(xt.grad, np.ones_like(x))
    _report(3, f"errors by level {['%.4f' % e for e in errors]}; "
               f"straight-through value and gradient identity bit-exact")


# ---------------------------------------------------------------------------
# criterion 4: resampler identities


def _resampler(durations):
    """The model's resampler for one utterance in float64: weights (T, N)
    and down/upsampling on unbatched arrays."""
    d = np.asarray(durations, dtype=np.int64)[None, :]
    batch = Batch(
        phonemes=np.ones_like(d), durations=d, mels=None, speaker_ids=np.zeros(1, dtype=np.int64),
        phoneme_mask=d > 0, frame_mask=np.ones((1, int(d.sum())), dtype=bool),
    )
    w = batch_resample_weights(batch, np.float64)

    def down(x):
        return _downsample(x[None], w, batch.phoneme_mask)[0]

    def up(h):
        return _upsample_t(Tensor(h[None]), w).data[0]

    return w[0], down, up


def test_criterion_4_resampler_identities():
    # one-phoneme case: exact
    _, down1, up1 = _resampler([9])
    h = np.array([[0.5, -1.0, 2.0]])
    np.testing.assert_array_equal(up1(h), np.tile(h, (9, 1)))
    np.testing.assert_allclose(down1(up1(h)), h, atol=1e-15)

    rng = np.random.default_rng(0)
    worst_convexity = 0.0
    worst_roundtrip = 0.0
    for durations in ([4, 8, 4], [10, 5, 7, 12], [5] * 8, [3, 15]):
        T = int(sum(durations))
        w, down, up = _resampler(durations)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        h = rng.normal(size=(len(durations), 5))
        frames = up(h)
        lo, hi = h.min(axis=0), h.max(axis=0)
        worst_convexity = max(
            worst_convexity,
            float(np.max(lo - frames.min(axis=0))),
            float(np.max(frames.max(axis=0) - hi)),
        )
        assert np.all(frames >= lo - 1e-12) and np.all(frames <= hi + 1e-12)
        # phoneme-constant signal: the round trip is the identity
        const = np.full((T, 5), 0.8)
        back = up(down(const))
        worst_roundtrip = max(worst_roundtrip, float(np.abs(back - const).max()))
        assert np.abs(back - const).max() < 1e-2
    _report(4, f"convexity slack {worst_convexity:.1e}; phoneme-constant "
               f"round trip {worst_roundtrip:.1e} < 1e-2; one-phoneme exact")


# ---------------------------------------------------------------------------
# criterion 5: toy training


def test_criterion_5_toy_training(toy):
    summary = toy["summary"]
    steps = [r for r in toy["log"] if "total" in r]
    loss_100 = summary["loss_at_100"]
    final = steps[-1]["total"]
    assert summary["steps"] <= 20000
    assert final < 0.10 * loss_100, f"final {final} vs 10% of step-100 {loss_100}"
    assert toy["usage"]["usage"]["level1"] >= 0.5
    assert toy["train_seconds"] <= 1800, f"training took {toy['train_seconds']:.0f}s"
    _report(5, f"{summary['steps']} steps in {toy['train_seconds']:.0f}s; "
               f"loss {final:.3f} = {final / loss_100:.1%} of step-100; "
               f"level-1 usage {toy['usage']['usage']['level1']:.2f}")


# ---------------------------------------------------------------------------
# criterion 6: disentanglement


def test_criterion_6_disentanglement(toy):
    # architectural half: encoder codes are bit-identical under relabeling
    model, utt = _toy_model_and_utterance(toy)
    relabeled = dataclasses.replace(utt, speaker_id=1 - utt.speaker_id)
    a = model.encode_utterance(utt)
    b = model.encode_utterance(relabeled)
    assert np.array_equal(a.indices, b.indices)

    # statistical half: near-uniform P(code|speaker) per level
    threshold = 0.9 * np.log(K_TOY)
    means = {}
    for level in (1, 2):
        values = [ent[f"level{level}"] for ent in toy["entropy"]["speaker_entropies"].values()]
        means[level] = float(np.mean(values))
        assert means[level] >= threshold, f"level {level}: mean entropy {means[level]} < {threshold}"
    _report(6, f"codes speaker-blind bit-exact; mean P(code|speaker) entropies "
               f"L1 {means[1]:.3f} / L2 {means[2]:.3f} >= {threshold:.3f}")


# ---------------------------------------------------------------------------
# criterion 7: PCA probe semantics


def test_criterion_7_pc1_probes_monotone_per_speaker(toy):
    report = toy["speaker_relative"]
    path = report["path"]
    assert len(path) >= 5, f"PC1 path has only {len(path)} codes"
    cfg = toy_run.default_config(str(toy["root"]), 20000, 0)
    rhos = {}
    for s, (speaker, f0s) in enumerate(sorted(report["f0_by_speaker"].items())):
        values = [(i, f) for i, f in enumerate(f0s) if f != "" and f is not None]
        assert len(values) >= 5, f"{speaker}: only {len(values)} voiced probes"
        order = np.array([i for i, _ in values], dtype=float)
        f0 = np.array([f for _, f in values], dtype=float)
        rho = an.spearman(order, f0)
        rhos[speaker] = rho
        assert abs(rho) >= 0.8, f"{speaker}: spearman {rho}"
        lo, hi = cfg["synth"]["f0_ranges"][s]
        assert np.all(f0 >= 0.5 * lo) and np.all(f0 <= 1.5 * hi), (
            f"{speaker}: probe F0s {f0} outside [{0.5 * lo}, {1.5 * hi}]"
        )
    signs = {np.sign(r) for r in rhos.values()}
    assert len(signs) == 1, f"speakers disagree on direction: {rhos}"
    _report(7, "; ".join(f"{s} spearman {r:+.3f}" for s, r in sorted(rhos.items()))
               + "; same direction; within own ranges")


# ---------------------------------------------------------------------------
# criterion 8: level ablation


def test_criterion_8_level1_only_psnr(toy):
    full = toy["usage"]["psnr_full"]
    level1 = toy["usage"]["psnr_level1_only"]
    assert np.isfinite(full) and np.isfinite(level1)
    assert level1 <= full, f"level-1-only {level1} > full {full}"
    _report(8, f"PSNR level-1-only {level1:.2f} <= full {full:.2f} dB; report emitted")


# ---------------------------------------------------------------------------
# criterion 9: continuous-vs-discrete ablation


def test_criterion_9_continuous_ablation(toy):
    table = toy["ablation"]
    assert set(table) == {"discrete", "continuous"}
    for name, row in table.items():
        for key in ("mcd", "vde", "gpe", "ffe"):
            assert np.isfinite(row[key]), f"{name}.{key}"
        for key in ("vde", "gpe", "ffe"):
            assert 0.0 <= row[key] <= 1.0
    assert (toy["reports"] / "ablation_continuous.csv").exists()
    assert (toy["root"] / "ckpt" / "continuous.ckpt").exists()
    _report(9, f"discrete MCD {table['discrete']['mcd']:.2f} vs continuous "
               f"{table['continuous']['mcd']:.2f}; all metrics finite")


# ---------------------------------------------------------------------------
# criterion 10: metric unit suite


@lru_cache(maxsize=None)
def _edit_oracle(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _edit_oracle(a[1:], b) + 1,
        _edit_oracle(a, b[1:]) + 1,
        _edit_oracle(a[1:], b[1:]) + (a[0] != b[0]),
    )


def test_criterion_10_metric_unit_suite():
    rng = np.random.default_rng(2)
    ref = MelSpectrogram(rng.normal(size=(10, 20)), 256, 1024, 22050)
    assert mx.psnr_mel(ref, ref) == 60.0
    assert mx.mcd(ref, ref) == 0.0
    c = PitchContour(np.full(10, 120.0), np.ones(10, dtype=bool))
    assert mx.f0_errors(c, c) == (0.0, 0.0, 0.0)
    assert mx.wer_cer("same text", "same text") == (0.0, 0.0)

    # VDE 0.2 construction: 2 voicing flips in 10 frames
    hyp_v = np.ones(10, dtype=bool)
    hyp_v[[2, 7]] = False
    hyp = PitchContour(np.where(hyp_v, 120.0, 0.0), hyp_v)
    vde, gpe, ffe = mx.f0_errors(c, hyp)
    assert vde == pytest.approx(0.2) and ffe == pytest.approx(0.2) and gpe == 0.0

    # GPE 0.1 construction: 1 frame 25% off among 10 voiced
    hyp2 = PitchContour(np.full(10, 120.0), np.ones(10, dtype=bool))
    hyp2.f0[4] = 150.0
    vde, gpe, ffe = mx.f0_errors(c, hyp2)
    assert vde == 0.0 and gpe == pytest.approx(0.1) and ffe == pytest.approx(0.1)

    # MCD unit-cepstral offset = (10/ln10) sqrt(2) = 6.142
    from prosody_codec.metrics import _dct_matrix, mel_cepstra

    cep = mel_cepstra(ref.values)
    cep[:, 1] += 1.0
    hyp_mel = MelSpectrogram(cep @ _dct_matrix(20), 256, 1024, 22050)
    assert mx.mcd(ref, hyp_mel) == pytest.approx(6.1418, abs=5e-4)

    # WER 1/3 and CER 1/3
    assert mx.wer_cer("a b c", "a x c")[0] == pytest.approx(1 / 3)
    assert mx.wer_cer("abc", "ab")[1] == pytest.approx(1 / 3)

    # DP oracle: exhaustive over short strings, 3-symbol alphabet
    words = [""]
    for n in (1, 2, 3, 4):
        words += ["".join(p) for p in itertools.product("abc", repeat=n)]
    for a in words:
        for b in words:
            assert mx.levenshtein(list(a), list(b)) == _edit_oracle(a, b)
    pairs = np.random.default_rng(0)
    alphabet = "abc"
    for _ in range(500):  # randomized cover of lengths 5..8
        a = "".join(alphabet[i] for i in pairs.integers(0, 3, size=pairs.integers(5, 9)))
        b = "".join(alphabet[i] for i in pairs.integers(0, 3, size=pairs.integers(0, 9)))
        assert mx.levenshtein(list(a), list(b)) == _edit_oracle(a, b)
    _report(10, f"unit values exact (MCD 6.1418, VDE 0.2, GPE 0.1, WER 1/3); "
                f"edit distance matches the DP oracle on {len(words) ** 2 + 500} pairs")


# ---------------------------------------------------------------------------
# criterion 11: entropy / KL machinery


def test_criterion_11_entropy_kl_mds():
    uniform = np.full(256, 1 / 256)
    h = an.entropy_nats(uniform)
    assert abs(h - 5.545) < 1e-3

    rng = np.random.default_rng(3)
    pmfs = []
    for _ in range(8):
        raw = rng.random(32) + 0.05
        pmfs.append(an.ConditionalPMF(condition=len(pmfs), probs=raw / raw.sum(), count=10))
    d = an.symmetric_kl_matrix(pmfs)
    np.testing.assert_allclose(d, d.T, atol=1e-12)
    assert np.all(np.diag(d) == 0.0) and np.all(d >= -1e-12)

    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    square = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    coords = an.embed_2d(square, method="mds")
    recovered = np.sqrt(((coords[:, None] - coords[None, :]) ** 2).sum(-1))
    err = np.abs(recovered - square).max()
    assert err < 1e-6
    _report(11, f"uniform-256 entropy {h:.4f} nats; KL matrix symmetric; "
                f"MDS square recovery err {err:.1e} < 1e-6")


# ---------------------------------------------------------------------------
# criterion 12: pipeline determinism


def test_criterion_12_determinism(toy, tmp_path):
    config = toy["config"]
    reports = toy["reports"]

    # analyze re-run: byte-identical reports
    before = (reports / "usage.json").read_bytes()
    assert cli.main(["analyze", "--config", config, "usage"]) == 0
    assert (reports / "usage.json").read_bytes() == before

    # synthesis re-run: byte-identical mels and wavs
    assert cli.main(["shuffle-codes", "--config", config, "--seed", "7"]) == 0
    out_dir = reports / "shuffled_seed7"
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert cli.main(["shuffle-codes", "--config", config, "--seed", "7"]) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second

    # checkpoint round trip preserves forward outputs bit-exactly
    model, utt = _toy_model_and_utterance(toy)
    out_a = model.reconstruct(utt)
    resaved = tmp_path / "resaved.ckpt"
    save_model(model, str(resaved))
    out_b = load_model(str(resaved)).reconstruct(utt)
    assert np.array_equal(out_a.values, out_b.values)

    # a fresh short training run is byte-reproducible end to end
    digests = []
    for run in range(2):
        run_root = tmp_path / f"mini{run}"
        os.makedirs(run_root / "data", exist_ok=True)
        cfg = toy_run.default_config(str(run_root), 40, 0)
        cfg["train"]["target_loss_ratio"] = 0.0
        cfg["synth"].update(n_utterances=6, segments_min=3, segments_max=5)
        mini = run_root / "config.json"
        mini.write_text(json.dumps(cfg))
        synth_data, _prepare, train = toy_run.stages(str(mini))[:3]
        assert cli.main(synth_data) == 0
        assert cli.main(train) == 0
        digests.append(((run_root / "ckpt" / "latest.ckpt").read_bytes(),
                        (run_root / "reports" / "train_log.jsonl").read_bytes()))
    assert digests[0] == digests[1]
    _report(12, "re-run reports, mels, checkpoints byte-identical; "
                "round trip preserves forward outputs bit-exactly")
