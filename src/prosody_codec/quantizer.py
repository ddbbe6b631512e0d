"""Residual vector quantization with EMA-learned codebooks.

Each level quantizes the residual left by the previous one; the decoded
vector is the sum of the selected entries. Gradients reach the encoder
through a straight-through estimator, and a commitment term pulls each
level's input residual toward its chosen code. Codebooks are trained by
exponential moving averages of assignment counts and sums (no gradients),
with Laplace-smoothed counts and optional dead-code reinitialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ContractError


@dataclass
class Codebook:
    entries: np.ndarray  # (K, d)
    ema_count: np.ndarray  # (K,)
    ema_sum: np.ndarray  # (K, d)
    decay: float = 0.99
    epsilon: float = 1e-5
    initialized: bool = False

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        self.ema_count = np.asarray(self.ema_count, dtype=np.float64)
        self.ema_sum = np.asarray(self.ema_sum, dtype=np.float64)
        if self.entries.ndim != 2:
            raise ContractError("Codebook: entries must be (K, d)")
        if self.ema_count.shape != (self.entries.shape[0],):
            raise ContractError("Codebook: ema_count must be (K,)")
        if self.ema_sum.shape != self.entries.shape:
            raise ContractError("Codebook: ema_sum must match entries shape")

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def new_codebook(
    k: int, d: int, decay: float = 0.99, epsilon: float = 1e-5, rng=None
) -> Codebook:
    rng = rng or np.random.default_rng(0)
    entries = rng.normal(0.0, 0.1, size=(k, d))
    return Codebook(
        entries=entries,
        ema_count=np.ones(k),
        ema_sum=entries.copy(),
        decay=decay,
        epsilon=epsilon,
        initialized=False,
    )


@dataclass
class RVQ:
    levels: list
    beta: float = 0.25

    def __post_init__(self):
        if not self.levels:
            raise ContractError("RVQ: need at least one level")
        dims = {book.dim for book in self.levels}
        if len(dims) != 1:
            raise ContractError("RVQ: all levels must share the code dimension")

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def dim(self) -> int:
        return self.levels[0].dim


def new_rvq(
    levels: int,
    k: int,
    d: int,
    beta: float = 0.25,
    decay: float = 0.99,
    epsilon: float = 1e-5,
    rng=None,
) -> RVQ:
    rng = rng or np.random.default_rng(0)
    return RVQ(levels=[new_codebook(k, d, decay, epsilon, rng) for _ in range(levels)], beta=beta)


@dataclass
class CodeSequence:
    indices: np.ndarray  # (..., L) per-position index tuples

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)

    @property
    def n_levels(self) -> int:
        return self.indices.shape[-1]

    def level(self, l: int) -> np.ndarray:
        return self.indices[..., l]


# ---------------------------------------------------------------------------
# quantization


_PAIRWISE_BLOCK = 128  # numpy's pairwise summation splits runs longer than this


def squared_distances(x: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(..., K) squared Euclidean distances of each row of ``x`` (..., d) to
    each row of ``entries`` (K, d), one coordinate plane at a time.

    The planes are added in the order numpy's pairwise sum gives to
    ``(diff * diff).sum(axis=-1)``, ``diff = x[..., None, :] - entries``,
    over its contiguous axis of d terms: one after the other below 8, eight
    interleaved partial sums up to 128, halves (rounded down to a multiple
    of 8) beyond. So the bits are those of that expression, without its
    (..., K, d) array.
    """

    def plane(j):
        t = np.subtract(x[..., j, None], entries[:, j])
        return np.multiply(t, t, out=t)

    def pairwise(lo, n):
        if n < 8:
            acc = plane(lo)
            for j in range(lo + 1, lo + n):
                acc += plane(j)
            return acc
        if n <= _PAIRWISE_BLOCK:
            r = [plane(lo + j) for j in range(8)]
            end = lo + n - n % 8
            for i in range(lo + 8, end, 8):
                for j in range(8):
                    r[j] += plane(i + j)
            for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
                r[a] += r[b]
            for j in range(end, lo + n):
                r[0] += plane(j)
            return r[0]
        half = n // 2
        half -= half % 8
        acc = pairwise(lo, half)
        acc += pairwise(lo + half, n - half)
        return acc

    return pairwise(0, x.shape[-1])


def quantize_level(book: Codebook, x: np.ndarray):
    """Nearest entry per row of ``x`` (squared Euclidean, ties -> lowest index).

    Returns (indices, quantized, residual); leading axes of x are preserved.
    """
    x = np.asarray(x)
    if x.shape[-1] != book.dim:
        raise ContractError(
            f"quantize_level: input dim {x.shape[-1]} != codebook dim {book.dim}"
        )
    dist = squared_distances(x, book.entries)
    indices = np.argmin(dist, axis=-1)
    quantized = book.entries[indices]
    return indices, quantized, x - quantized


def rvq_quantize(rvq: RVQ, x: np.ndarray) -> tuple[CodeSequence, np.ndarray]:
    """Cascade quantization of ``x`` (..., d), with no graph: each level
    quantizes the residual the previous one left, kept in x's dtype.
    Returns the codes (..., L) and the float64 sum of the selected entries.
    Inference calls this; ``rvq_forward`` adds the training graph."""
    x = np.asarray(x)
    if x.shape[-1] != rvq.dim:
        raise ContractError(f"rvq_quantize: input dim {x.shape[-1]} != {rvq.dim}")
    residual = x
    quantized_sum = np.zeros(x.shape, dtype=np.float64)
    indices_per_level = []
    for book in rvq.levels:
        idx, q, _ = quantize_level(book, residual)
        indices_per_level.append(idx)
        quantized_sum += q
        residual = residual - q.astype(x.dtype)
    return CodeSequence(indices=np.stack(indices_per_level, axis=-1)), quantized_sum


def rvq_forward(rvq: RVQ, x, mask: np.ndarray | None = None):
    """``rvq_quantize`` with straight-through output and the commitment term.

    ``x``: Tensor or array shaped (..., d). Returns
    (CodeSequence, output Tensor, commitment Tensor). The output's forward
    value is bit-exactly the sum of selected code vectors; its gradient
    w.r.t. x is the identity. Commitment is
    beta * mean over levels/positions of ||r_{l-1} - sg(q_l)||^2, restricted
    to ``mask`` (positions) when given.
    """
    x = ad.as_tensor(x)
    codes, quantized_sum = rvq_quantize(rvq, x.data)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.data.shape[:-1]:
            raise ContractError("rvq_forward: mask must cover the position axes")
        weight = mask.astype(x.data.dtype)[..., None]
        denom = max(float(mask.sum()), 1.0)
    else:
        weight = None
        denom = float(np.prod(x.data.shape[:-1])) if x.data.ndim > 1 else 1.0

    residual = x
    commit_terms = []
    for l, book in enumerate(rvq.levels):
        # the entries rvq_quantize chose; the graph's residuals repeat its
        # arithmetic in the caller's dtype, codebook math stays float64
        q = book.entries[codes.indices[..., l]]
        delta = ad.sub(residual, q.astype(x.data.dtype))
        sq = ad.tsum(ad.mul(delta, delta), axis=-1, keepdims=True)
        if weight is not None:
            sq = ad.mul(sq, weight)
        commit_terms.append(ad.div(ad.tsum(sq), denom))
        residual = delta
    commitment = commit_terms[0]
    for term in commit_terms[1:]:
        commitment = ad.add(commitment, term)
    commitment = ad.mul(commitment, rvq.beta / rvq.n_levels)
    output = ad.straight_through(x, quantized_sum)
    return codes, output, commitment


def decode_vectors(rvq: RVQ, indices: np.ndarray, level1_only: bool = False) -> np.ndarray:
    """Sum of selected entries over levels; (..., L) indices -> (..., d)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape[-1] != rvq.n_levels:
        raise ContractError(
            f"decode_vectors: got {indices.shape[-1]} levels, rvq has {rvq.n_levels}"
        )
    out = rvq.levels[0].entries[indices[..., 0]]
    if not level1_only:
        for l in range(1, rvq.n_levels):
            out = out + rvq.levels[l].entries[indices[..., l]]
    return out


# ---------------------------------------------------------------------------
# codebook learning


def ema_update(book: Codebook, assignments: np.ndarray, vectors: np.ndarray) -> Codebook:
    """EMA tracking of per-code counts and vector sums, then entry refresh
    with Laplace-smoothed counts. Mutates and returns ``book``."""
    assignments = np.asarray(assignments, dtype=np.int64).ravel()
    vectors = np.asarray(vectors, dtype=np.float64).reshape(-1, book.dim)
    if assignments.shape[0] != vectors.shape[0]:
        raise ContractError("ema_update: assignments and vectors disagree in length")
    k = book.size
    counts = np.bincount(assignments, minlength=k).astype(np.float64)
    sums = np.zeros((k, book.dim))
    np.add.at(sums, assignments, vectors)
    lam = book.decay
    book.ema_count = lam * book.ema_count + (1.0 - lam) * counts
    book.ema_sum = lam * book.ema_sum + (1.0 - lam) * sums
    total = float(book.ema_count.sum())
    if total > 0:
        smoothed = (book.ema_count + book.epsilon) / (total + k * book.epsilon) * total
        live = smoothed > 0
        book.entries[live] = book.ema_sum[live] / smoothed[live, None]
    return book


def reinit_dead_codes(
    book: Codebook, batch_vectors: np.ndarray, threshold: float, rng: np.random.Generator
) -> int:
    """Move codes whose EMA count fell below ``threshold`` onto random batch
    vectors. Returns how many codes were reinitialized."""
    batch_vectors = np.asarray(batch_vectors, dtype=np.float64).reshape(-1, book.dim)
    if batch_vectors.shape[0] == 0:
        raise ContractError("reinit_dead_codes: empty batch")
    dead = np.nonzero(book.ema_count < threshold)[0]
    if dead.size == 0:
        return 0
    picks = rng.integers(0, batch_vectors.shape[0], size=dead.size)
    book.entries[dead] = batch_vectors[picks]
    book.ema_sum[dead] = batch_vectors[picks]
    book.ema_count[dead] = 1.0
    return int(dead.size)


def kmeans_pp_init(rng: np.random.Generator, x: np.ndarray, k: int) -> np.ndarray:
    """k-means++ seeding: spread initial entries over the data."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
    n = x.shape[0]
    if n == 0:
        raise ContractError("kmeans_pp_init: empty data")
    if n < k:
        # fewer points than codes: cycle through with a little jitter
        reps = x[np.arange(k) % n]
        return reps + rng.normal(0.0, 1e-4, size=reps.shape)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(0, n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = x[rng.integers(0, n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def seed_codebooks(rvq: RVQ, x: np.ndarray, rng: np.random.Generator) -> None:
    """First-batch initialization: k-means++ per level on that level's input."""
    residual = np.asarray(x, dtype=np.float64).reshape(-1, rvq.dim)
    for book in rvq.levels:
        if not book.initialized:
            book.entries = kmeans_pp_init(rng, residual, book.size)
            book.ema_sum = book.entries.copy()
            book.ema_count = np.ones(book.size)
            book.initialized = True
        _, q, _ = quantize_level(book, residual)
        residual = residual - q


# ---------------------------------------------------------------------------
# statistics


@dataclass
class UsageStats:
    usage: list  # fraction of distinct codes observed, per level
    histograms: list = field(default_factory=list)  # (K,) counts per level


def usage_stats(sequences: list[CodeSequence], k: int) -> UsageStats:
    if not sequences:
        return UsageStats(usage=[], histograms=[])
    n_levels = sequences[0].n_levels
    usage = []
    histograms = []
    for l in range(n_levels):
        hist = np.zeros(k, dtype=np.int64)
        for seq in sequences:
            hist += np.bincount(seq.level(l).ravel(), minlength=k)
        histograms.append(hist)
        usage.append(float((hist > 0).sum()) / k)
    return UsageStats(usage=usage, histograms=histograms)
