"""Latent-space analysis: code usage, conditional PMFs and entropies,
symmetric-KL maps with 2-D embedding, PCA over code vectors, and probe
synthesis with F0/RMS measurement; and what each `analyze` and `metrics`
command computes from a model and its utterances, as its JSON payload and CSV
rows.

Everything here reads a frozen model; nothing mutates codebooks.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from . import metrics as mx
from .config import AnalysisConfig, FeatureConfig
from .corpus import Corpus, PhonemeVocab, Utterance, inference_batches
from .dsp import AudioBuffer, MelSpectrogram, PitchContour, frame_rms, load_wav, pitch, vocode
from .errors import ConfigError, ContractError, DataError
from .quantizer import CodeSequence, usage_stats

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


def speaker_pairs(utterances: list[Utterance], sequences: list[CodeSequence], level: int):
    """(speaker ID, code) for every position of one level."""
    for utt, seq in zip(utterances, sequences):
        for code in seq.level(level):
            yield utt.speaker_id, int(code)


def phoneme_pairs(utterances: list[Utterance], sequences: list[CodeSequence], level: int):
    """(phoneme ID, code) for every non-PAD position of one level."""
    for utt, seq in zip(utterances, sequences):
        for ph, code in zip(utt.phonemes, seq.level(level)):
            if ph != 0:  # PAD excluded from analysis histograms
                yield int(ph), int(code)


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
) -> list[int]:
    """Codes lying in a corridor around one principal axis, centred on the
    codes' median off-axis value, picked nearest to evenly spaced positions
    along it; returned ordered by the on-axis value."""
    if axis not in (1, 2):
        raise ContractError("select_path_codes: axis must be 1 or 2")
    if n_points < 2:
        raise ContractError("select_path_codes: n_points must be >= 2")
    coords = proj.coords(np.asarray(entries))
    if coords.shape[1] < 2:
        raise ContractError("select_path_codes: projection has fewer than 2 components")
    on = coords[:, axis - 1]
    off = coords[:, 2 - axis]
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


def span_means(audio: AudioBuffer, durations, features: FeatureConfig) -> tuple[list, list]:
    """Per span of ``durations`` frames: the mean F0 over its voiced frames
    (None if it has none) and its mean frame RMS (None if it is empty or
    runs past the last frame)."""
    contour = pitch(audio, features)
    rms = frame_rms(audio, features.hop_length, features.n_fft)
    f0_means, rms_means = [], []
    start = 0
    for d in durations:
        end = min(start + int(d), len(contour.f0))
        seg_voiced = contour.voiced[start:end]
        f0_means.append(
            float(contour.f0[start:end][seg_voiced].mean()) if seg_voiced.any() else None
        )
        rms_means.append(float(rms[start:end].mean()) if end > start and len(rms) >= end else None)
        start += int(d)
    return f0_means, rms_means


def probe_rows(model, reference: Utterance, proj: PCAProjection, path_codes: list[int],
               level2_code: int, speaker_id: int, features: FeatureConfig) -> list[dict]:
    """One probe per path code, in path order: the reference decoded for
    ``speaker_id`` with every position's codes replaced by (code,
    level2_code, ...), then vocoded with ``features``. Its row holds the
    probe's mean F0 over voiced frames ("" if none), its mean frame RMS (0.0
    if none) and the code's PC coordinates."""
    model._require_rvq("probe_rows")
    entries = model.rvq.levels[0].entries
    rows = []
    for code in path_codes:
        pair = np.array([code] + [level2_code] * (model.rvq.n_levels - 1), dtype=np.int64)
        codes = CodeSequence(indices=np.tile(pair, (reference.n_phonemes, 1)))
        audio = vocode(model.decode_codes(codes, reference, speaker_id), features)
        # a span of as many frames as samples covers every frame
        (f0,), (rms,) = span_means(audio, [audio.samples.size], features)
        pc = proj.coords(entries[code][None, :])[0]
        rows.append({"code": int(code), "f0": "" if f0 is None else f0,
                     "rms": 0.0 if rms is None else rms, "pc1": float(pc[0]),
                     "pc2": float(pc[1]), "speaker": speaker_id})
    return rows


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


def spearman(x, y) -> float:
    """Pearson correlation of the ranks, average ranks on ties."""
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

    return mx.pearson(ranks(x), ranks(y))


# ---------------------------------------------------------------------------
# the analyze commands: each returns its JSON payload and its CSV rows


def analyze_usage(model, utterances: list[Utterance]) -> tuple[dict, list[dict]]:
    """Share of codes used per level, reconstruction PSNR from all levels and
    from level 1 alone, and the mean entropy of P(code_2 | code_1)."""
    model._require_rvq("analyze usage")
    two_levels = model.rvq.n_levels > 1
    # one encode per batch serves the codes and both reconstructions
    sequences, full, level1 = [], [], []
    for chunk, batch in inference_batches(utterances):
        codes, recons, recons_l1 = model.reconstruct_batch(batch, level1=two_levels)
        sequences += codes
        full += mx.reconstruction_scores(chunk, recons)
        if two_levels:
            level1 += mx.reconstruction_scores(chunk, recons_l1)
    k = model.cfg.codebook_size
    stats = usage_stats(sequences, k)
    payload = {
        "usage": {f"level{l + 1}": u for l, u in enumerate(stats.usage)},
        "psnr_full": mx.score_report(full)["psnr"],
        # with one level, the level-1 reconstruction is the full one
        "psnr_level1_only": mx.score_report(level1 or full)["psnr"],
        "mean_entropy_code2_given_code1": level_dependency(sequences, k) if two_levels else 0.0,
        "uniform_entropy": float(np.log(k)),
    }
    rows = [
        {"level": l + 1, "usage": u, "distinct": int((h > 0).sum()), "k": k}
        for l, (u, h) in enumerate(zip(stats.usage, stats.histograms))
    ]
    return payload, rows


def analyze_entropy(model, utterances: list[Utterance], sequences: list[CodeSequence],
                    speakers: list[str], vocab: PhonemeVocab, acfg: AnalysisConfig):
    """Entropy in nats of P(code | speaker) and P(code | phoneme) per level;
    one row per speaker."""
    k, alpha = model.cfg.codebook_size, acfg.smoothing_alpha
    by_speaker, by_phoneme = {}, {}
    for level in range(model.rvq.n_levels):
        name = f"level{level + 1}"
        for p in conditional_pmfs(speaker_pairs(utterances, sequences, level), k, alpha):
            by_speaker.setdefault(speakers[p.condition], {})[name] = entropy_nats(p)
        pmfs = conditional_pmfs(phoneme_pairs(utterances, sequences, level), k, alpha)
        by_phoneme[name] = {vocab.symbol_of(p.condition): entropy_nats(p) for p in pmfs}
    payload = {"speaker_entropies": by_speaker, "phoneme_entropies": by_phoneme,
               "uniform_entropy": float(np.log(k))}
    return payload, [{"speaker": s, **levels} for s, levels in by_speaker.items()]


def analyze_klmap(model, utterances: list[Utterance], sequences: list[CodeSequence],
                  vocab: PhonemeVocab, acfg: AnalysisConfig):
    """Symmetric KL distances between the phonemes' smoothed level-1 code
    histograms; one row per phoneme with its 2-D embedding."""
    if acfg.smoothing_alpha <= 0:
        raise ConfigError("analysis.smoothing_alpha: must be > 0 for the KL map")
    pmfs = conditional_pmfs(
        phoneme_pairs(utterances, sequences, 0), model.cfg.codebook_size, acfg.smoothing_alpha
    )
    dist = symmetric_kl_matrix(pmfs)
    coords = embed_2d(
        dist, method=acfg.embedding_method, seed=acfg.tsne_seed, perplexity=acfg.tsne_perplexity
    )
    labels = [vocab.symbol_of(p.condition) for p in pmfs]
    payload = {"phonemes": labels, "distances": [[float(v) for v in row] for row in dist],
               "method": acfg.embedding_method}
    return payload, [{"phoneme": lbl, "x": float(c[0]), "y": float(c[1])}
                     for lbl, c in zip(labels, coords)]


def code_space(model, sequences: list[CodeSequence]) -> tuple[np.ndarray, PCAProjection, int]:
    """What the PCA analyses share: the level-1 code histogram, the
    usage-weighted PCA of the used level-1 codes and the most used level-2
    code (0 with one level)."""
    histograms = usage_stats(sequences, model.cfg.codebook_size).histograms
    hist = histograms[0]
    used = hist > 0
    proj = pca_codes(model.rvq.levels[0].entries[used], hist[used].astype(np.float64))
    return hist, proj, int(np.argmax(histograms[1])) if len(histograms) > 1 else 0


def probe_path_codes(model, hist: np.ndarray, proj: PCAProjection, axis: int,
                     acfg: AnalysisConfig) -> list[int]:
    """Path codes for probing, restricted to codes the decoder has actually
    been trained on (count >= analysis.min_code_count, relaxed if that leaves
    too few candidates)."""
    floor = acfg.min_code_count
    while floor > 0 and int((hist >= floor).sum()) < acfg.n_path_points:
        floor -= 1
    candidates = np.nonzero(hist >= floor)[0] if floor > 0 else np.arange(len(hist))
    picked = select_path_codes(proj, model.rvq.levels[0].entries[candidates], axis,
                               acfg.n_path_points, acfg.corridor_halfwidth)
    return [int(candidates[p]) for p in picked]


def probe_reference(corpus: Corpus, utterances: list[Utterance], acfg: AnalysisConfig) -> Utterance:
    """The utterance probes decode on: ``analysis.reference_utterance``, or
    else the longest of ``utterances``, which gives the probes the most
    frames to measure."""
    if acfg.reference_utterance:
        return corpus.by_id(acfg.reference_utterance)
    return max(utterances, key=lambda u: u.mel.n_frames)


def analyze_pca(model, sequences: list[CodeSequence], acfg: AnalysisConfig):
    """Explained variance ratios and both axes' probe paths (empty where the
    corridor is); one row per used level-1 code with its PC coordinates."""
    hist, proj, _ = code_space(model, sequences)
    coords = proj.coords(model.rvq.levels[0].entries)
    paths = {}
    for axis in (1, 2):
        try:
            paths[f"axis{axis}"] = probe_path_codes(model, hist, proj, axis, acfg)
        except DataError:
            paths[f"axis{axis}"] = []
    payload = {"explained_ratios": [float(r) for r in proj.ratios],
               "top2_ratio_sum": float(proj.ratios[:2].sum()), "paths": paths}
    return payload, [{"code": int(c), "pc1": float(coords[c, 0]), "pc2": float(coords[c, 1]),
                      "count": int(hist[c])} for c in np.nonzero(hist)[0]]


def analyze_probes(model, sequences: list[CodeSequence], reference: Utterance,
                   acfg: AnalysisConfig, features: FeatureConfig):
    """Each axis's probe path codes, and its probes' measurements as rows;
    the rows are keyed by axis like the paths."""
    hist, proj, level2 = code_space(model, sequences)
    payload, rows = {}, {}
    for axis in (1, 2):
        path = probe_path_codes(model, hist, proj, axis, acfg)
        payload[f"axis{axis}"] = path
        rows[f"axis{axis}"] = probe_rows(model, reference, proj, path, level2,
                                         reference.speaker_id, features)
    return payload, rows


def analyze_speaker_relative(model, sequences: list[CodeSequence], reference: Utterance,
                             speakers: list[str], acfg: AnalysisConfig, features: FeatureConfig):
    """The PC1 probe path's F0 for every speaker ("" where unvoiced); one
    row per path code."""
    hist, proj, level2 = code_space(model, sequences)
    path = probe_path_codes(model, hist, proj, 1, acfg)
    if len(speakers) < 2:
        raise ContractError("analyze_speaker_relative: need >= 2 speakers")
    f0s = {name: [r["f0"] for r in probe_rows(model, reference, proj, path, level2, s, features)]
           for s, name in enumerate(speakers)}
    rows = [{"code": code, **{s: f0[i] for s, f0 in f0s.items()}} for i, code in enumerate(path)]
    return {"path": path, "f0_by_speaker": f0s}, rows


# ---------------------------------------------------------------------------
# decoding and the metrics commands


def shuffled_decode(model, utt: Utterance, rng: np.random.Generator) -> MelSpectrogram:
    """The utterance decoded from its own codes in a random order of positions."""
    codes = model.encode_utterance(utt)
    perm = rng.permutation(codes.indices.shape[0])
    shuffled = CodeSequence(indices=codes.indices[perm])
    return model.decode_codes(shuffled, utt, utt.speaker_id)


def transfer(model, source: Utterance, target: Utterance) -> MelSpectrogram:
    """Prosody transfer: the source's codes decoded on the target's phonemes
    and durations with the source speaker."""
    if source.n_phonemes != target.n_phonemes:
        raise ContractError(
            f"transfer: phoneme counts differ: source {source.id!r} has "
            f"{source.n_phonemes}, target {target.id!r} has {target.n_phonemes}"
        )
    codes = model.encode_utterance(source)
    return model.decode_codes(codes, target, source.speaker_id)


def transfer_scores(model, source: Utterance, target: Utterance, features: FeatureConfig) -> dict:
    """Pearson correlation between the source wav's and the transfer's
    per-phoneme mean F0 and energy (the two signals have different frame
    counts); None with fewer than 2 phonemes that have both values."""
    out_audio = vocode(transfer(model, source, target), features)
    src_means = span_means(load_wav(source.audio_path), source.durations, features)
    out_means = span_means(out_audio, target.durations, features)
    scores = {}
    for name, src, out in zip(("pearson_f0", "pearson_energy"), src_means, out_means):
        keep = [i for i in range(len(src)) if src[i] is not None and out[i] is not None]
        pairs = ([src[i] for i in keep], [out[i] for i in keep])
        scores[name] = mx.pearson(*pairs) if len(keep) >= 2 else None
    return scores


def reference_pitch(utterances: list[Utterance], features: FeatureConfig) -> list[PitchContour]:
    """The pitch contour of each utterance's reference wav."""
    return [pitch(load_wav(utt.audio_path), features) for utt in utterances]


def reconstruction_metrics(model, utterances: list[Utterance], ref_pitch: list[PitchContour],
                           features: FeatureConfig) -> dict:
    """Mean mel PSNR and MCD of the model's reconstructions, and mean VDE,
    GPE and FFE of their vocoded pitch against ``ref_pitch``."""
    scores = []
    for utt, ref_c in zip(utterances, ref_pitch):
        recon = model.reconstruct(utt)
        hyp_c = pitch(vocode(recon, features), features)
        n = min(len(ref_c.f0), len(hyp_c.f0))
        f0_errors = mx.f0_errors(
            PitchContour(ref_c.f0[:n], ref_c.voiced[:n]),
            PitchContour(hyp_c.f0[:n], hyp_c.voiced[:n]),
        )
        scores.append((mx.psnr_mel(utt.mel, recon), mx.mcd(utt.mel, recon), *f0_errors))
    means = (float(np.mean(column)) for column in zip(*scores))
    return {**dict(zip(("psnr", "mcd", "vde", "gpe", "ffe"), means)), "n": len(utterances)}


def intelligibility(refs: list[str], hyps: list[str]) -> dict:
    """Mean word and character error rates over reference/hypothesis line pairs."""
    wer, cer = zip(*(mx.wer_cer(r, h) for r, h in zip(refs, hyps)))
    return {"wer": float(np.mean(wer)), "cer": float(np.mean(cer)), "n": len(wer)}


# ---------------------------------------------------------------------------
# report emission


def write_csv(path: str, rows: list[dict]) -> None:
    """One or more rows, columns in the first row's key order."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
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
