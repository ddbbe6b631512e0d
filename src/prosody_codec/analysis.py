"""Latent-space analysis: code usage, conditional PMFs and entropies,
symmetric-KL maps with 2-D embedding, PCA over code vectors, and probe
synthesis with F0/RMS measurement.

Everything here reads a frozen model; nothing mutates codebooks.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import FeatureConfig
from .corpus import Utterance, inference_batches
from .dsp import AudioBuffer, estimate_f0, frame_rms, invert_mel
from .errors import ContractError, DataError
from .quantizer import CodeSequence

LN = np.log


@dataclass
class ConditionalPMF:
    condition: object  # speaker ID | phoneme ID | level-1 code index
    probs: np.ndarray  # (K,)
    count: int  # observations behind the estimate

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if abs(self.probs.sum() - 1.0) > 1e-9 or np.any(self.probs < 0):
            raise ContractError(f"ConditionalPMF[{self.condition}]: not a distribution")


@dataclass
class PCAProjection:
    mean: np.ndarray  # (d,)
    components: np.ndarray  # (c, d) orthonormal rows, descending variance
    ratios: np.ndarray  # explained variance ratios

    def coords(self, vectors: np.ndarray) -> np.ndarray:
        return (np.asarray(vectors) - self.mean) @ self.components.T


@dataclass
class ProbeMeasurement:
    code: int
    f0: float | None  # None when the probe came back fully unvoiced
    rms: float
    pc1: float
    pc2: float
    speaker_id: int


# ---------------------------------------------------------------------------
# conditional statistics


def conditional_pmfs(pairs, k: int, alpha: float = 0.5) -> list[ConditionalPMF]:
    """Per-condition smoothed histograms: (count_j + alpha) / (N + alpha K).

    ``pairs`` is a stream of (condition, code index). Conditions come back
    sorted for reproducible reports.
    """
    if k < 2:
        raise ContractError("conditional_pmfs: k must be >= 2")
    counts: dict = {}
    for cond, code in pairs:
        code = int(code)
        if not 0 <= code < k:
            raise ContractError(f"conditional_pmfs: code {code} out of range [0, {k})")
        if cond not in counts:
            counts[cond] = np.zeros(k)
        counts[cond][code] += 1
    if not counts:
        raise DataError("conditional_pmfs: empty observation stream")
    out = []
    for cond in sorted(counts):
        c = counts[cond]
        n = c.sum()
        out.append(
            ConditionalPMF(condition=cond, probs=(c + alpha) / (n + alpha * k), count=int(n))
        )
    return out


def entropy_nats(p) -> float:
    """Shannon entropy in nats with the 0 ln 0 = 0 convention."""
    probs = p.probs if isinstance(p, ConditionalPMF) else np.asarray(p, dtype=np.float64)
    nz = probs[probs > 0]
    return float(-(nz * LN(nz)).sum())


def level_dependency(sequences: list[CodeSequence], k: int, alpha: float = 0.0) -> float:
    """Mean entropy of P(code_2 | code_1) over observed level-1 conditions."""
    pairs = []
    for seq in sequences:
        if seq.n_levels < 2:
            raise ContractError("level_dependency: sequences need at least 2 levels")
        c1 = seq.level(0).ravel()
        c2 = seq.level(1).ravel()
        pairs.extend(zip(c1.tolist(), c2.tolist()))
    pmfs = conditional_pmfs(pairs, k, alpha=alpha)
    return float(np.mean([entropy_nats(p) for p in pmfs]))


def symmetric_kl_matrix(pmfs: list[ConditionalPMF]) -> np.ndarray:
    """D[i,j] = KL(p_i || p_j) + KL(p_j || p_i); needs strictly positive pmfs."""
    from .errors import NumericError

    probs = np.stack([p.probs for p in pmfs])
    if np.any(probs <= 0):
        raise NumericError(
            "symmetric_kl_matrix: zero probability without smoothing; "
            "use conditional_pmfs with alpha > 0"
        )
    logs = LN(probs)
    n = probs.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        ratio = logs[i] - logs  # (n, K)
        d[i] = (probs[i] * ratio).sum(axis=1) + (probs * -ratio).sum(axis=1)
    np.fill_diagonal(d, 0.0)
    return d


# ---------------------------------------------------------------------------
# 2-D embedding of a distance matrix


def embed_2d(dist: np.ndarray, method: str = "mds", seed: int = 0, perplexity: float = 5.0) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ContractError(f"embed_2d: need a square matrix, got {dist.shape}")
    if not np.allclose(dist, dist.T, atol=1e-9):
        raise ContractError("embed_2d: distance matrix must be symmetric")
    if not np.allclose(np.diag(dist), 0.0, atol=1e-9):
        raise ContractError("embed_2d: distance matrix must have a zero diagonal")
    if method == "mds":
        return _classical_mds(dist)
    if method == "tsne":
        return _tsne_precomputed(dist, seed=seed, perplexity=perplexity)
    raise ContractError(f"embed_2d: unknown method {method!r}")


def _classical_mds(dist: np.ndarray) -> np.ndarray:
    n = dist.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (dist**2) @ j
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:2]
    lams = np.maximum(evals[order], 0.0)
    return evecs[:, order] * np.sqrt(lams)


def _tsne_precomputed(
    dist: np.ndarray, seed: int, perplexity: float, iters: int = 500, lr: float = 50.0
) -> np.ndarray:
    n = dist.shape[0]
    target = np.log(min(perplexity, max(n - 1, 1)))
    p = np.zeros((n, n))
    d2 = dist**2
    for i in range(n):
        lo, hi = 1e-12, 1e12
        beta = 1.0
        row = np.delete(d2[i], i)
        for _ in range(64):
            w = np.exp(-row * beta)
            s = w.sum()
            if s <= 0:
                beta /= 2
                continue
            probs = w / s
            h = -(probs[probs > 0] * np.log(probs[probs > 0])).sum()
            if abs(h - target) < 1e-6:
                break
            if h > target:
                lo = beta
                beta = beta * 2 if hi >= 1e12 else (beta + hi) / 2
            else:
                hi = beta
                beta = (beta + lo) / 2
        w = np.exp(-d2[i] * beta)
        w[i] = 0.0
        p[i] = w / max(w.sum(), 1e-300)
    p = (p + p.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1e-4, size=(n, 2))
    update = np.zeros_like(y)
    for it in range(iters):
        exaggeration = 4.0 if it < 100 else 1.0
        diff = y[:, None, :] - y[None, :, :]
        num = 1.0 / (1.0 + (diff**2).sum(axis=2))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / max(num.sum(), 1e-300), 1e-12)
        pq = (exaggeration * p - q) * num
        grad = 4.0 * (pq[:, :, None] * diff).sum(axis=1)
        momentum = 0.5 if it < 250 else 0.8
        update = momentum * update - lr * grad
        y = y + update
        y = y - y.mean(axis=0)
    return y


# ---------------------------------------------------------------------------
# PCA over code vectors


def pca_codes(vectors: np.ndarray, weights: np.ndarray | None = None) -> PCAProjection:
    """Weighted PCA of (usage-weighted) code vectors.

    ``vectors``: (n, d); ``weights``: occurrence counts (uniform if omitted).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ContractError("pca_codes: vectors must be (n, d)")
    distinct = np.unique(vectors, axis=0).shape[0]
    if distinct < 3:
        raise ContractError(f"pca_codes: need >= 3 distinct vectors, got {distinct}")
    if weights is None:
        weights = np.ones(vectors.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (vectors.shape[0],) or np.any(weights < 0) or weights.sum() <= 0:
        raise ContractError("pca_codes: bad weights")
    w = weights / weights.sum()
    mean = w @ vectors
    centered = vectors - mean
    cov = (centered * w[:, None]).T @ centered
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    total = evals.sum()
    if total <= 0:
        raise DataError("pca_codes: degenerate data, zero total variance")
    components = evecs[:, order].T
    # deterministic orientation: largest-|entry| coordinate positive
    for i in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    return PCAProjection(mean=mean, components=components, ratios=evals / total)


def select_path_codes(
    proj: PCAProjection,
    entries: np.ndarray,
    axis: int,
    n_points: int,
    corridor_halfwidth: float,
    center: float | None = None,
) -> list[int]:
    """Codes lying in a corridor around one principal axis, picked nearest to
    evenly spaced positions along it; returned ordered by the on-axis value."""
    if axis not in (1, 2):
        raise ContractError("select_path_codes: axis must be 1 or 2")
    if n_points < 2:
        raise ContractError("select_path_codes: n_points must be >= 2")
    coords = proj.coords(np.asarray(entries))
    if coords.shape[1] < 2:
        raise ContractError("select_path_codes: projection has fewer than 2 components")
    on = coords[:, axis - 1]
    off = coords[:, 2 - axis]
    if center is None:
        center = float(np.median(off))
    candidates = np.nonzero(np.abs(off - center) <= corridor_halfwidth)[0]
    if candidates.size == 0:
        raise DataError(
            f"select_path_codes: empty corridor (halfwidth {corridor_halfwidth}); widen it"
        )
    targets = np.linspace(on[candidates].min(), on[candidates].max(), n_points)
    chosen: list[int] = []
    for t in targets:
        remaining = [c for c in candidates if c not in chosen]
        if not remaining:
            break
        best = min(remaining, key=lambda c: (abs(on[c] - t), c))
        chosen.append(int(best))
    chosen.sort(key=lambda c: on[c])
    return chosen


# ---------------------------------------------------------------------------
# probes


def synth_probe(model, reference: Utterance, code_pair, speaker_id: int) -> AudioBuffer:
    """Decode the reference with every position's codes replaced by one pair,
    then invert the mel to audio."""
    pair = np.asarray(code_pair, dtype=np.int64).ravel()
    if model.rvq is None:
        raise ContractError("synth_probe: model has no quantizer")
    if pair.size != model.rvq.n_levels:
        raise ContractError(
            f"synth_probe: pair has {pair.size} levels, model has {model.rvq.n_levels}"
        )
    codes = CodeSequence(indices=np.tile(pair, (reference.n_phonemes, 1)))
    mel = model.decode_codes(codes, reference.phonemes, reference.durations, speaker_id)
    return invert_mel(mel, model.features.griffin_lim_iters, floor=model.features.log_floor)


def measure_probe(
    audio: AudioBuffer, code: int, features: FeatureConfig, speaker_id: int = 0
) -> ProbeMeasurement:
    """Mean F0 over voiced frames and mean frame RMS; the PCA coordinates
    are left at zero for the caller to fill in."""
    contour = estimate_f0(
        audio,
        features.f0_min,
        features.f0_max,
        hop_length=features.hop_length,
        win_length=features.n_fft,
        threshold=features.yin_threshold,
    )
    rms = frame_rms(audio, features.hop_length, features.n_fft)
    f0 = float(contour.f0[contour.voiced].mean()) if np.any(contour.voiced) else None
    return ProbeMeasurement(
        code=int(code),
        f0=f0,
        rms=float(rms.mean()) if rms.size else 0.0,
        pc1=0.0,
        pc2=0.0,
        speaker_id=speaker_id,
    )


def probe_path(
    model,
    reference: Utterance,
    proj: PCAProjection,
    path_codes: list[int],
    level2_code: int,
    speaker_id: int,
) -> list[ProbeMeasurement]:
    """Synthesize and measure one probe per path code for one speaker."""
    out = []
    entries = model.rvq.levels[0].entries
    for code in path_codes:
        pair = [code] + [level2_code] * (model.rvq.n_levels - 1)
        audio = synth_probe(model, reference, pair, speaker_id)
        m = measure_probe(audio, code, model.features, speaker_id)
        c = proj.coords(entries[code][None, :])[0]
        m.pc1, m.pc2 = float(c[0]), float(c[1])
        out.append(m)
    return out


def speaker_relative_report(
    model,
    path_codes: list[int],
    reference: Utterance,
    speaker_ids: list[int],
    level2_code: int,
    proj: PCAProjection,
) -> dict[int, list[ProbeMeasurement]]:
    """Probe the same path once per speaker; code order is preserved."""
    if len(speaker_ids) < 2:
        raise ContractError("speaker_relative_report: need >= 2 speakers")
    return {
        int(s): probe_path(model, reference, proj, path_codes, level2_code, int(s))
        for s in speaker_ids
    }


# ---------------------------------------------------------------------------
# code extraction helpers


def collect_codes(model, utterances: list[Utterance]) -> list[CodeSequence]:
    """Each utterance's code sequence, encoded in padded batches."""
    return [seq for _, batch in inference_batches(utterances) for seq in model.codes_batch(batch)]


def extraction_slice(utterances: list[Utterance], fraction: float) -> list[Utterance]:
    """Deterministic trailing slice used for all latent statistics."""
    if not 0 < fraction <= 1:
        raise ContractError("extraction_slice: fraction must be in (0, 1]")
    n = max(1, int(round(len(utterances) * fraction)))
    return list(utterances[-n:])


def most_frequent_level2(sequences: list[CodeSequence], k: int) -> int:
    """Default second-level code for probes: the globally most used index."""
    hist = np.zeros(k, dtype=np.int64)
    for seq in sequences:
        if seq.n_levels < 2:
            return 0
        hist += np.bincount(seq.level(1).ravel(), minlength=k)
    return int(np.argmax(hist))


def spearman(x, y) -> float:
    """Rank correlation with average ranks on ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ContractError("spearman: need two equal-length 1-D series of >= 2 points")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        sv = v[order]
        i = 0
        while i < v.size:
            j = i
            while j + 1 < v.size and sv[j + 1] == sv[i]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        raise DataError("spearman: constant series")
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


# ---------------------------------------------------------------------------
# report emission


def write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def svg_scatter(path: str, points: np.ndarray, labels: list[str] | None = None, title: str = "") -> None:
    """Minimal standalone SVG scatter plot (no plotting dependency)."""
    points = np.asarray(points, dtype=np.float64)
    size, margin = 640.0, 60.0
    if points.size == 0:
        lo = np.zeros(2)
        hi = np.ones(2)
    else:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)

    def sx(v):
        return margin + (v - lo[0]) / span[0] * (size - 2 * margin)

    def sy(v):
        return size - margin - (v - lo[1]) / span[1] * (size - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{size / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>'
        )
    for i, (x, y) in enumerate(points):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="steelblue" fill-opacity="0.8"/>'
        )
        if labels is not None:
            parts.append(
                f'<text x="{sx(x) + 6:.2f}" y="{sy(y) - 6:.2f}" font-size="10">{labels[i]}</text>'
            )
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
