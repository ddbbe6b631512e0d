import itertools
from fractions import Fraction

import numpy as np
import pytest

from prosody_codec import analysis as an
from prosody_codec.analysis import (
    ConditionalPMF,
    conditional_pmfs,
    embed_2d,
    entropy_nats,
    level_dependency,
    pca_codes,
    select_path_codes,
    spearman,
    symmetric_kl_matrix,
)
from prosody_codec.config import AnalysisConfig, FeatureConfig
from prosody_codec.dsp import AudioBuffer
from prosody_codec.errors import ContractError, DataError, NumericError
from prosody_codec.quantizer import CodeSequence

RNG = np.random.default_rng(33)


# ---------------------------------------------------------------------------
# conditional pmfs


def test_pmf_uniform_counts():
    pairs = [("s", code) for code in range(8)] * 5
    (pmf,) = conditional_pmfs(pairs, 8, alpha=0.0)
    np.testing.assert_allclose(pmf.probs, 1 / 8)
    assert pmf.count == 40


def test_pmf_point_mass_without_smoothing():
    (pmf,) = conditional_pmfs([("s", 3)], 8, alpha=0.0)
    expected = np.zeros(8)
    expected[3] = 1.0
    np.testing.assert_array_equal(pmf.probs, expected)


def test_pmf_laplace_smoothing_arithmetic():
    pairs = [("s", 0)] * 3 + [("s", 1)]
    (pmf,) = conditional_pmfs(pairs, 2, alpha=0.5)
    np.testing.assert_allclose(pmf.probs, [0.7, 0.3])


def test_pmf_sums_to_one_invariant():
    pairs = [(c % 3, int(RNG.integers(0, 16))) for c in range(200)]
    for pmf in conditional_pmfs(pairs, 16, alpha=0.5):
        assert abs(pmf.probs.sum() - 1.0) < 1e-9
        assert np.all(pmf.probs >= 0)


def test_pmf_empty_stream():
    with pytest.raises(DataError):
        conditional_pmfs([], 8)


def test_pmf_conditions_sorted():
    pairs = [(2, 0), (0, 1), (1, 2)]
    pmfs = conditional_pmfs(pairs, 4, alpha=0.5)
    assert [p.condition for p in pmfs] == [0, 1, 2]


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_256_is_5545():
    pmf = ConditionalPMF(condition=0, probs=np.full(256, 1 / 256), count=256)
    assert abs(entropy_nats(pmf) - 5.545) < 1e-3
    assert entropy_nats(pmf) == pytest.approx(np.log(256.0), rel=1e-12)


def test_entropy_point_mass_zero():
    probs = np.zeros(16)
    probs[5] = 1.0
    assert entropy_nats(probs) == 0.0


def test_entropy_two_point():
    assert entropy_nats(np.array([0.5, 0.5])) == pytest.approx(np.log(2.0))


def test_entropy_bounds_invariant():
    for _ in range(20):
        raw = RNG.random(32)
        probs = raw / raw.sum()
        h = entropy_nats(probs)
        assert 0.0 <= h <= np.log(32) + 1e-12


# ---------------------------------------------------------------------------
# level dependency


def seq_of(c1, c2):
    idx = np.stack([np.asarray(c1), np.asarray(c2)], axis=-1)
    return CodeSequence(indices=idx)


def test_level_dependency_deterministic_is_zero():
    c1 = RNG.integers(0, 8, size=100)
    assert level_dependency([seq_of(c1, c1)], 8) == pytest.approx(0.0)


def test_level_dependency_independent_approaches_log_k():
    rng = np.random.default_rng(0)
    c1 = rng.integers(0, 4, size=20000)
    c2 = rng.integers(0, 4, size=20000)
    h = level_dependency([seq_of(c1, c2)], 4)
    assert abs(h - np.log(4)) < 0.01


# ---------------------------------------------------------------------------
# symmetric KL


def pmf(probs):
    probs = np.asarray(probs, dtype=float)
    return ConditionalPMF(condition=0, probs=probs, count=10)


def test_kl_identical_zero():
    d = symmetric_kl_matrix([pmf([0.25] * 4), pmf([0.25] * 4)])
    np.testing.assert_allclose(d, 0.0, atol=1e-12)


def test_kl_two_point_arithmetic():
    d = symmetric_kl_matrix([pmf([0.9, 0.1]), pmf([0.1, 0.9])])
    expected = 2 * 0.8 * np.log(9.0)
    assert d[0, 1] == pytest.approx(expected, rel=1e-12)
    assert d[0, 1] == pytest.approx(3.5156, abs=2e-4)


def test_kl_symmetric_nonnegative_zero_diagonal():
    pmfs = []
    for _ in range(6):
        raw = RNG.random(16) + 0.01
        pmfs.append(pmf(raw / raw.sum()))
    d = symmetric_kl_matrix(pmfs)
    np.testing.assert_allclose(d, d.T, atol=1e-12)
    assert np.all(np.diag(d) == 0)
    assert np.all(d >= -1e-12)


def test_kl_rejects_zero_probabilities():
    with pytest.raises(NumericError):
        symmetric_kl_matrix([pmf([1.0, 0.0]), pmf([0.5, 0.5])])


# ---------------------------------------------------------------------------
# 2-D embedding


def square_distances(side=1.0):
    pts = np.array([[0, 0], [side, 0], [side, side], [0, side]], dtype=float)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)), pts


def test_mds_recovers_square():
    d, _ = square_distances()
    coords = embed_2d(d, method="mds")
    got = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1))
    np.testing.assert_allclose(got, d, atol=1e-6)


def test_mds_zero_distances_collapse_to_origin():
    coords = embed_2d(np.zeros((5, 5)), method="mds")
    np.testing.assert_allclose(coords, 0.0, atol=1e-9)


def test_mds_duplicate_points_coincide():
    d, _ = square_distances()
    # add a copy of point 0
    big = np.zeros((5, 5))
    big[:4, :4] = d
    big[4, :4] = d[0]
    big[:4, 4] = d[:, 0]
    coords = embed_2d(big, method="mds")
    np.testing.assert_allclose(coords[4], coords[0], atol=1e-9)


def test_embed_rejects_asymmetric():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ContractError):
        embed_2d(bad)


def test_embed_rejects_nonzero_diagonal():
    bad = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractError):
        embed_2d(bad)


def test_tsne_runs_deterministic():
    d, _ = square_distances(2.0)
    a = embed_2d(d, method="tsne", seed=3, perplexity=2.0)
    b = embed_2d(d, method="tsne", seed=3, perplexity=2.0)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
    # neighbors stay neighbors: opposite corners end up farthest apart
    dist = np.sqrt(((a[:, None] - a[None, :]) ** 2).sum(-1))
    assert dist[0, 2] > dist[0, 1] and dist[1, 3] > dist[1, 2]


# ---------------------------------------------------------------------------
# PCA over codes


def test_pca_collinear_first_ratio_one():
    base = np.array([1.0, 2.0, -1.0])
    vectors = np.array([t * base for t in (-2.0, 0.5, 1.0, 3.0)])
    proj = pca_codes(vectors)
    assert proj.ratios[0] == pytest.approx(1.0)
    assert proj.ratios[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_isotropic_ratios_one_third():
    vectors = np.random.default_rng(0).normal(size=(10_000, 3))
    proj = pca_codes(vectors)
    np.testing.assert_allclose(proj.ratios, 1 / 3, atol=0.02)


def test_pca_components_orthonormal():
    vectors = RNG.normal(size=(50, 3)) * np.array([3.0, 1.0, 0.2])
    proj = pca_codes(vectors)
    np.testing.assert_allclose(proj.components @ proj.components.T, np.eye(3), atol=1e-9)
    assert np.all(np.diff(proj.ratios) <= 1e-12)  # descending


def test_pca_full_reconstruction_lossless():
    vectors = RNG.normal(size=(40, 3))
    proj = pca_codes(vectors)
    coords = proj.coords(vectors)
    back = coords @ proj.components + proj.mean
    np.testing.assert_allclose(back, vectors, atol=1e-9)


def test_pca_weighted_mean():
    vectors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
    proj = pca_codes(vectors, weights=np.array([1.0, 999.0, 1.0]))
    assert proj.mean[0] > 9.9


def test_pca_degenerate_rejected():
    with pytest.raises(ContractError):
        pca_codes(np.zeros((2, 3)))  # fewer than 3 distinct
    same = np.tile(np.array([[1.0, 2.0, 3.0]]), (5, 1))
    with pytest.raises(ContractError):
        pca_codes(same)


# ---------------------------------------------------------------------------
# path selection


def grid_projection():
    xs, ys = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-1, 1, 5))
    entries = np.stack([xs.ravel(), ys.ravel(), np.zeros(45)], axis=1)
    proj = pca_codes(entries + 1e-9 * RNG.normal(size=entries.shape))
    return proj, entries


def test_path_codes_on_grid_are_ordered_and_in_corridor():
    proj, entries = grid_projection()
    path = select_path_codes(proj, entries, axis=1, n_points=5, corridor_halfwidth=0.05)
    assert len(path) == 5
    coords = proj.coords(entries)
    on = coords[path, 0]
    assert np.all(np.diff(on) > 0)  # strictly ordered, distinct
    off = coords[path, 1]
    center = np.median(proj.coords(entries)[:, 1])
    assert np.all(np.abs(off - center) <= 0.05 + 1e-9)


def test_path_two_points_are_corridor_extremes():
    proj, entries = grid_projection()
    path = select_path_codes(proj, entries, axis=1, n_points=2, corridor_halfwidth=0.05)
    coords = proj.coords(entries)
    center = np.median(coords[:, 1])
    corridor = np.nonzero(np.abs(coords[:, 1] - center) <= 0.05)[0]
    on = coords[:, 0]
    assert on[path[0]] == pytest.approx(on[corridor].min())
    assert on[path[-1]] == pytest.approx(on[corridor].max())


def test_path_axis2_uses_other_axis():
    proj, entries = grid_projection()
    path = select_path_codes(proj, entries, axis=2, n_points=3, corridor_halfwidth=0.1)
    coords = proj.coords(entries)
    assert np.all(np.diff(coords[path, 1]) > 0)


def test_path_empty_corridor_suggests_widening():
    # 4 grid rows: the off-axis median lies midway between the middle two,
    # 1/3 from each, so a narrower corridor holds no entry
    xs, ys = np.meshgrid(np.linspace(-2, 2, 9), np.linspace(-1, 1, 4))
    entries = np.stack([xs.ravel(), ys.ravel(), np.zeros(36)], axis=1)
    proj = pca_codes(entries + 1e-9 * RNG.normal(size=entries.shape))
    with pytest.raises(DataError, match="widen"):
        select_path_codes(proj, entries, axis=1, n_points=2, corridor_halfwidth=0.3)


# ---------------------------------------------------------------------------
# probes and helpers


def test_measure_probe_on_harmonic_standin():
    sr = 22050
    n = sr
    t = np.arange(n) / sr
    wave = sum(np.sin(2 * np.pi * 150.0 * (h + 1) * t) / (h + 1) for h in range(6))
    audio = AudioBuffer(0.4 * wave / np.abs(wave).max(), sr)
    (f0,), (rms,) = an.span_means(audio, [audio.samples.size], FeatureConfig())
    assert f0 == pytest.approx(150.0, rel=0.03)
    assert rms > 0


def test_measure_probe_silence_flagged():
    audio = AudioBuffer(np.zeros(22050), 22050)
    (f0,), _ = an.span_means(audio, [audio.samples.size], FeatureConfig())
    assert f0 is None


def test_extraction_slice_trailing():
    utts = list(range(20))
    assert an.extraction_slice(utts, 0.1) == [18, 19]
    assert an.extraction_slice(utts, 1.0) == utts


def test_spearman_monotone():
    x = np.arange(10.0)
    assert spearman(x, np.exp(x)) == pytest.approx(1.0)
    assert spearman(x, -(x**3)) == pytest.approx(-1.0)
    noisy = x + 0.01 * RNG.normal(size=10)
    assert spearman(x, noisy) > 0.9


def test_spearman_exact_for_every_ordering_of_five():
    # with no ties, rho = 1 - 6 sum(d^2) / (n (n^2 - 1)); for five points
    # that is a multiple of 0.1, which spearman must return correctly
    # rounded, so that a threshold such as |rho| >= 0.8 holds exactly
    x = np.arange(5.0)
    for order in itertools.permutations(range(5)):
        d2 = sum((i - r) ** 2 for i, r in enumerate(order))
        assert spearman(x, np.array(order, dtype=np.float64)) == float(Fraction(120 - 6 * d2, 120))


def test_svg_scatter_writes_svg(tmp_path):
    path = tmp_path / "plot.svg"
    an.svg_scatter(str(path), RNG.normal(size=(12, 2)), labels=[str(i) for i in range(12)], title="t")
    text = path.read_text()
    assert text.startswith("<svg") and "circle" in text and "</svg>" in text


# ---------------------------------------------------------------------------
# probe synthesis against a (tiny, untrained) codec


def tiny_model():
    from prosody_codec.config import FeatureConfig, ModelConfig
    from prosody_codec.corpus import PhonemeVocab
    from prosody_codec.model import CodecModel

    cfg = ModelConfig(model_dim=16, layers=1, heads=2, ffn_mult=2, conv_kernel=3,
                      codebook_size=8, code_dim=3, levels=2)
    vocab = PhonemeVocab([f"p{i}" for i in range(5)])
    feat = FeatureConfig(n_mels=20, griffin_lim_iters=4)
    return CodecModel(cfg, feat, vocab, ["s0", "s1"], rng=np.random.default_rng(0))


def tiny_reference():
    from prosody_codec.corpus import Utterance
    from prosody_codec.dsp import MelSpectrogram

    rng = np.random.default_rng(9)
    return Utterance(
        id="ref", speaker_id=0,
        phonemes=np.array([1, 2, 3]), durations=np.array([5, 5, 5]),
        mel=MelSpectrogram(rng.normal(size=(15, 20)), 256, 1024, 22050),
    )


def test_probe_rows_deterministic():
    model = tiny_model()
    ref = tiny_reference()
    proj = pca_codes(model.rvq.levels[0].entries)
    a = an.probe_rows(model, ref, proj, [2, 6], 5, speaker_id=1, features=model.features)
    b = an.probe_rows(model, ref, proj, [2, 6], 5, speaker_id=1, features=model.features)
    assert a == b
    assert [set(row) for row in a] == [{"code", "f0", "rms", "pc1", "pc2", "speaker"}] * 2


def test_speaker_relative_report_structure():
    model = tiny_model()
    ref = tiny_reference()
    proj = pca_codes(model.rvq.levels[0].entries)
    for speaker in (0, 1):
        rows = an.probe_rows(model, ref, proj, [1, 4, 6], level2_code=0, speaker_id=speaker,
                             features=model.features)
        assert [r["code"] for r in rows] == [1, 4, 6]  # code order preserved
        for r in rows:
            c = proj.coords(model.rvq.levels[0].entries[r["code"]][None, :])[0]
            assert (r["pc1"], r["pc2"], r["speaker"]) == (float(c[0]), float(c[1]), speaker)
    sequences = [CodeSequence(indices=np.array([[c, 0] for c in range(8)]))]  # every code once
    acfg = AnalysisConfig(n_path_points=2, min_code_count=1, corridor_halfwidth=100.0)
    model.decode_codes = None  # the check comes before any probe is decoded
    with pytest.raises(ContractError, match="need >= 2 speakers"):
        an.analyze_speaker_relative(model, sequences, ref, ["s0"], acfg, model.features)
