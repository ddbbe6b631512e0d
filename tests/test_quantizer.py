import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_codec import autodiff as ad
from prosody_codec.autodiff import Tensor
from prosody_codec.errors import ContractError
from prosody_codec.quantizer import (
    RVQ,
    Codebook,
    CodeSequence,
    decode_vectors,
    ema_update,
    kmeans_pp_init,
    new_rvq,
    quantize_level,
    reinit_dead_codes,
    rvq_forward,
    rvq_quantize,
    seed_codebooks,
    squared_distances,
    usage_stats,
)


def book_from(entries, decay=0.99, epsilon=1e-5):
    entries = np.asarray(entries, dtype=float)
    return Codebook(
        entries=entries.copy(),
        ema_count=np.ones(len(entries)),
        ema_sum=entries.copy(),
        decay=decay,
        epsilon=epsilon,
        initialized=True,
    )


# ---------------------------------------------------------------------------
# nearest-neighbor quantization


def test_quantize_picks_nearest():
    book = book_from([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    idx, q, residual = quantize_level(book, np.array([[0.9, 1.0, 1.1]]))
    assert idx[0] == 1
    np.testing.assert_allclose(q[0], [1.0, 1.0, 1.0])
    np.testing.assert_allclose(residual[0], [-0.1, 0.0, 0.1], atol=1e-12)


def test_quantize_exact_code_zero_residual():
    book = book_from([[0.5, -0.5], [2.0, 2.0]])
    idx, _, residual = quantize_level(book, np.array([[2.0, 2.0]]))
    assert idx[0] == 1
    np.testing.assert_array_equal(residual[0], [0.0, 0.0])


def test_quantize_tie_breaks_to_lowest_index():
    book = book_from([[1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    idx, _, _ = quantize_level(book, np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert idx[0] == 0  # identical entries: lowest index wins
    assert idx[1] == 0  # exact midpoint between entry 0/1 and entry 2


def test_quantize_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    book = book_from(rng.normal(size=(16, 3)))
    x = rng.normal(size=(500, 3))
    idx, _, _ = quantize_level(book, x)
    for i in range(len(x)):
        dists = [float(((x[i] - e) ** 2).sum()) for e in book.entries]
        assert idx[i] == int(np.argmin(dists))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 129, 300])
def test_distances_by_plane_give_the_bits_of_the_summed_squares(d):
    # one plane at a time, in the order of numpy's pairwise sum: sequential
    # below 8 terms, 8 partial sums from 8, halves past 128. Float32 rows
    # against float64 entries, as rvq_forward quantizes a float32 model's
    # latents; entries 2 and 9 are equal and row (0, 0) is that entry
    # exactly, so the tie must go to the lower index
    rng = np.random.default_rng(d)
    entries = rng.normal(size=(12, d)).astype(np.float32).astype(np.float64)
    entries[9] = entries[2]
    x = rng.normal(size=(3, 5, d)).astype(np.float32)
    x[0, 0] = entries[9]
    diff = x[..., None, :] - entries
    summed = (diff * diff).sum(axis=-1)
    dist = squared_distances(x, entries)
    assert dist.dtype == summed.dtype == np.float64
    assert np.array_equal(dist, summed)
    idx, q, residual = quantize_level(book_from(entries), x)
    assert np.array_equal(idx, np.argmin(summed, axis=-1))
    assert idx[0, 0] == 2 and dist[0, 0, 2] == dist[0, 0, 9] == 0.0
    assert np.array_equal(q, entries[idx]) and np.array_equal(residual, x - entries[idx])


def test_each_level_quantizes_the_residual_in_the_callers_dtype():
    # a float32 latent leaves x - float32(q1) to level 2, not the float64
    # x - q1; level 2's two entries lie either side of the midpoint of the
    # two, so only the float32 residual picks the lower one
    x = np.array([[0.1]], dtype=np.float32)
    r32 = float((x - np.float32(1 / 3))[0, 0])
    r64 = float(x[0, 0]) - 1 / 3
    mid = (r32 + r64) / 2
    assert r32 < mid < r64
    rvq = RVQ(levels=[book_from([[1 / 3], [5.0]]), book_from([[mid - 0.5], [mid + 0.5]])])
    codes, total = rvq_quantize(rvq, x)
    assert codes.indices.tolist() == [[0, 0]]
    assert total.dtype == np.float64 and total[0, 0] == 1 / 3 + (mid - 0.5)
    forward_codes, out, _ = rvq_forward(rvq, Tensor(x))
    assert forward_codes.indices.tolist() == [[0, 0]] and out.data.dtype == np.float32


def test_quantize_dim_mismatch():
    book = book_from([[0.0, 0.0]])
    with pytest.raises(ContractError):
        quantize_level(book, np.zeros((3, 5)))


# ---------------------------------------------------------------------------
# RVQ forward


def test_rvq_exact_sum_gives_zero_residual_and_commitment():
    rvq = new_rvq(levels=2, k=4, d=2, beta=0.25, rng=np.random.default_rng(0))
    for book in rvq.levels:
        book.initialized = True
    x = (rvq.levels[0].entries[2] + rvq.levels[1].entries[1])[None, :]
    codes, out, commitment = rvq_forward(rvq, Tensor(x))
    np.testing.assert_array_equal(out.data, x)
    assert float(commitment.data) == pytest.approx(
        0.25 / 2 * float(((x - rvq.levels[0].entries[2]) ** 2).sum()), abs=1e-12
    )
    # final residual is zero, so x - output == 0
    np.testing.assert_allclose(out.data - decode_vectors(rvq, codes.indices), 0.0, atol=1e-12)


def test_rvq_one_level_equals_plain_vq():
    rng = np.random.default_rng(1)
    rvq = new_rvq(levels=1, k=8, d=3, rng=rng)
    x = rng.normal(size=(10, 3))
    codes, out, _ = rvq_forward(rvq, Tensor(x))
    idx, q, _ = quantize_level(rvq.levels[0], x)
    np.testing.assert_array_equal(codes.indices[..., 0], idx)
    np.testing.assert_array_equal(out.data, q)


def test_rvq_error_nonincreasing_in_levels():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(256, 4))
    errors = []
    for levels in (1, 2, 3):
        rvq = new_rvq(levels=levels, k=16, d=4, rng=np.random.default_rng(0))
        seed_codebooks(rvq, x, np.random.default_rng(42))
        _, out, _ = rvq_forward(rvq, Tensor(x))
        errors.append(float(np.mean(np.sum((x - out.data) ** 2, axis=1))))
    assert errors[0] >= errors[1] >= errors[2]


def test_rvq_straight_through_bit_exact_and_identity_grad():
    rng = np.random.default_rng(2)
    rvq = new_rvq(levels=2, k=8, d=3, rng=rng)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    codes, out, commitment = rvq_forward(rvq, x)
    assert np.array_equal(out.data, decode_vectors(rvq, codes.indices))  # value identity, bitwise
    ad.backward(ad.tsum(out))
    np.testing.assert_array_equal(x.grad, np.ones((6, 3)))


def test_rvq_residual_telescoping():
    rng = np.random.default_rng(3)
    rvq = new_rvq(levels=3, k=8, d=2, rng=rng)
    x = rng.normal(size=(5, 2))
    codes, out, _ = rvq_forward(rvq, Tensor(x))
    residual = x.copy()
    for level in range(3):
        residual = residual - rvq.levels[level].entries[codes.indices[..., level]]
    np.testing.assert_allclose(x - out.data, residual, atol=1e-12)


def test_rvq_commitment_gradient_flows_to_input():
    rng = np.random.default_rng(4)
    rvq = new_rvq(levels=2, k=8, d=3, rng=rng)
    x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    _, _, commitment = rvq_forward(rvq, x)
    ad.backward(commitment)
    assert x.grad is not None
    assert np.any(x.grad != 0)


def test_rvq_mask_excludes_padded_positions():
    rng = np.random.default_rng(8)
    rvq = new_rvq(levels=2, k=8, d=3, rng=rng)
    x = rng.normal(size=(2, 4, 3))
    mask = np.array([[True, True, True, True], [True, True, False, False]])
    _, _, commit_a = rvq_forward(rvq, Tensor(x), mask=mask)
    x2 = x.copy()
    x2[1, 2:] = 99.0  # padded positions must not matter
    _, _, commit_b = rvq_forward(rvq, Tensor(x2), mask=mask)
    assert float(commit_a.data) == pytest.approx(float(commit_b.data), rel=1e-12)


# ---------------------------------------------------------------------------
# EMA updates


def test_ema_lambda_zero_is_one_step_kmeans():
    entries = np.array([[0.0, 0.0], [10.0, 10.0]])
    book = Codebook(
        entries=entries.copy(),
        ema_count=np.ones(2),
        ema_sum=entries.copy(),
        decay=0.0,
        epsilon=0.0,
        initialized=True,
    )
    vectors = np.array([[1.0, 1.0], [3.0, 1.0], [9.0, 9.0], [11.0, 13.0]])
    assignments = np.array([0, 0, 1, 1])
    ema_update(book, assignments, vectors)
    np.testing.assert_allclose(book.entries[0], [2.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(book.entries[1], [10.0, 11.0], atol=1e-12)


def test_ema_unassigned_code_drifts_only_by_smoothing():
    entries = np.array([[0.0, 0.0], [5.0, 5.0]])
    book = book_from(entries, decay=0.9, epsilon=1e-5)
    before = book.entries[1].copy()
    ema_update(book, np.array([0, 0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    drift = np.abs(book.entries[1] - before).max()
    assert drift < 1e-3  # only Laplace smoothing moves it


def test_ema_converges_near_lloyd_objective():
    # fixed 4-cluster data; oracle = Lloyd's k-means run to convergence
    rng = np.random.default_rng(11)
    centers = np.array([[0, 0], [5, 0], [0, 5], [5, 5]], dtype=float)
    data = np.concatenate([c + 0.3 * rng.normal(size=(64, 2)) for c in centers])

    def objective(entries):
        d = ((data[:, None, :] - entries) ** 2).sum(axis=2)
        return float(d.min(axis=1).mean())

    # Lloyd oracle, from the same starting centers as the EMA codebook
    init = kmeans_pp_init(np.random.default_rng(0), data, 4)
    lloyd = init.copy()
    for _ in range(100):
        assign = ((data[:, None, :] - lloyd) ** 2).sum(axis=2).argmin(axis=1)
        new = np.array(
            [data[assign == j].mean(axis=0) if np.any(assign == j) else lloyd[j] for j in range(4)]
        )
        if np.allclose(new, lloyd):
            break
        lloyd = new
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
    assert objective(book.entries) <= 1.05 * objective(lloyd)


# ---------------------------------------------------------------------------
# dead codes


def test_reinit_no_dead_codes_is_noop():
    book = book_from([[0.0, 0.0], [1.0, 1.0]])
    before = book.entries.copy()
    n = reinit_dead_codes(book, np.array([[5.0, 5.0]]), 1e-2, np.random.default_rng(0))
    assert n == 0
    np.testing.assert_array_equal(book.entries, before)


def test_reinit_replaces_dead_code_with_batch_vector():
    book = book_from([[0.0, 0.0], [1.0, 1.0]])
    book.ema_count[1] = 0.0
    batch = np.array([[7.0, 8.0], [9.0, 10.0]])
    n = reinit_dead_codes(book, batch, 1e-2, np.random.default_rng(0))
    assert n == 1
    assert any(np.array_equal(book.entries[1], v) for v in batch)


def test_reinit_improves_usage_from_adversarial_init():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(512, 2))

    def run(with_reinit):
        far = 100.0 + rng.normal(size=(16, 2))  # all codes far from the data
        book = Codebook(
            entries=far.copy(),
            ema_count=np.ones(16),
            ema_sum=far.copy(),
            decay=0.9,
            epsilon=1e-5,
            initialized=True,
        )
        reinit_rng = np.random.default_rng(99)
        for step in range(100):
            batch = data[(step * 32) % 512 : (step * 32) % 512 + 32]
            idx, _, _ = quantize_level(book, batch)
            ema_update(book, idx, batch)
            if with_reinit and step % 10 == 0:
                reinit_dead_codes(book, batch, 1e-2, reinit_rng)
        idx, _, _ = quantize_level(book, data)
        return np.unique(idx).size / 16

    assert run(True) >= 2 * run(False)


def test_reinit_empty_batch_rejected():
    book = book_from([[0.0, 0.0]])
    with pytest.raises(ContractError):
        reinit_dead_codes(book, np.zeros((0, 2)), 1e-2, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# usage statistics


def test_usage_full_coverage():
    indices = np.arange(256).reshape(-1, 1)
    seq = CodeSequence(indices=indices)
    stats = usage_stats([seq], 256)
    assert stats.usage == [1.0]


def test_usage_single_code():
    seq = CodeSequence(indices=np.zeros((10, 1), dtype=int))
    stats = usage_stats([seq], 256)
    assert stats.usage == [1.0 / 256]


def test_usage_histogram_counts():
    seq = CodeSequence(indices=np.array([[0], [0], [3]]))
    stats = usage_stats([seq], 4)
    np.testing.assert_array_equal(stats.histograms[0], [2, 0, 0, 1])


# ---------------------------------------------------------------------------
# decode + seeding


def test_decode_vectors_sums_levels():
    rng = np.random.default_rng(17)
    rvq = new_rvq(levels=2, k=4, d=2, rng=rng)
    indices = np.array([[1, 3], [0, 0]])
    out = decode_vectors(rvq, indices)
    np.testing.assert_allclose(
        out[0], rvq.levels[0].entries[1] + rvq.levels[1].entries[3]
    )
    only1 = decode_vectors(rvq, indices, level1_only=True)
    np.testing.assert_allclose(only1[0], rvq.levels[0].entries[1])


def test_seed_codebooks_marks_initialized_and_covers_data():
    rng = np.random.default_rng(19)
    rvq = new_rvq(levels=2, k=8, d=2, rng=rng)
    data = rng.normal(size=(100, 2))
    seed_codebooks(rvq, data, np.random.default_rng(0))
    assert all(book.initialized for book in rvq.levels)
    idx, _, _ = quantize_level(rvq.levels[0], data)
    assert np.unique(idx).size >= 6  # k-means++ spreads the entries


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 3))
def test_rvq_forward_indices_in_range(seed, levels):
    rng = np.random.default_rng(seed)
    rvq = new_rvq(levels=levels, k=8, d=2, rng=rng)
    x = rng.normal(size=(5, 2))
    codes, out, commitment = rvq_forward(rvq, Tensor(x))
    assert codes.indices.shape == (5, levels)
    assert np.all(codes.indices >= 0) and np.all(codes.indices < 8)
    assert float(commitment.data) >= 0
