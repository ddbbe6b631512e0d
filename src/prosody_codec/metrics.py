"""Objective evaluation metrics: PSNR, MCD, pitch errors, correlations, WER/CER,
and the per-utterance reconstruction scores evaluation averages.

No DTW anywhere: compared sequences share ground-truth durations and are
frame-aligned by construction.
"""

from __future__ import annotations

import string

import numpy as np

from .dsp import MelSpectrogram, PitchContour
from .errors import ContractError, DataError

PSNR_CAP_DB = 60.0
MCD_COEFFS = 13  # cepstral coefficients 1..13, energy coefficient excluded
GROSS_PITCH_REL = 0.2


def _values(mel) -> np.ndarray:
    return mel.values if isinstance(mel, MelSpectrogram) else np.asarray(mel)


def psnr_mel(ref, hyp) -> float:
    """10 log10(R^2 / MSE) with R the dynamic range of the reference;
    60 dB cap when the error is numerically zero."""
    r, h = _values(ref), _values(hyp)
    if r.shape != h.shape:
        raise ContractError(f"psnr_mel: shape mismatch {r.shape} vs {h.shape}")
    mse = float(np.mean((r - h) ** 2))
    if mse < 1e-12:
        return PSNR_CAP_DB
    rng = float(r.max() - r.min())
    return float(10.0 * np.log10(max(rng, 1e-12) ** 2 / mse))


def reconstruction_scores(utterances: list, recons: list) -> list[tuple[float, float]]:
    """(L1, PSNR) of each reconstruction against its utterance's mel."""
    return [
        (float(np.mean(np.abs(r.values - u.mel.values))), psnr_mel(u.mel, r))
        for u, r in zip(utterances, recons)
    ]


def score_report(scores: list[tuple[float, float]]) -> dict:
    """Mean L1 and PSNR over per-utterance scores."""
    l1s, psnrs = zip(*scores)
    return {"l1": float(np.mean(l1s)), "psnr": float(np.mean(psnrs)), "n": len(scores)}


def _dct_matrix(n: int) -> np.ndarray:
    # orthonormal DCT-II
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * k * (2 * j + 1) / (2 * n)) * np.sqrt(2.0 / n)
    mat[0] /= np.sqrt(2.0)
    return mat


def mel_cepstra(mel) -> np.ndarray:
    """Per-frame orthonormal DCT-II of the log-mel values."""
    v = _values(mel)
    return v @ _dct_matrix(v.shape[1]).T


def mcd(ref, hyp) -> float:
    """Mel-cepstral distortion in dB over coefficients 1..13."""
    r, h = _values(ref), _values(hyp)
    if r.shape != h.shape:
        raise ContractError(f"mcd: shape mismatch {r.shape} vs {h.shape}")
    c_ref = mel_cepstra(r)[:, 1 : MCD_COEFFS + 1]
    c_hyp = mel_cepstra(h)[:, 1 : MCD_COEFFS + 1]
    dist = np.sqrt(np.sum((c_ref - c_hyp) ** 2, axis=1))
    return float(10.0 / np.log(10.0) * np.sqrt(2.0) * dist.mean())


def f0_errors(ref: PitchContour, hyp: PitchContour) -> tuple[float, float, float]:
    """(VDE, GPE, FFE). GPE counts >20% deviations among frames voiced in
    both, over those frames; FFE folds both error kinds over all frames."""
    if ref.f0.shape != hyp.f0.shape:
        raise ContractError(
            f"f0_errors: length mismatch {ref.f0.shape} vs {hyp.f0.shape}"
        )
    T = ref.f0.shape[0]
    if T == 0:
        raise ContractError("f0_errors: empty contours")
    voicing_mismatch = ref.voiced != hyp.voiced
    both = ref.voiced & hyp.voiced
    vde = float(voicing_mismatch.sum()) / T
    gross = both & (np.abs(hyp.f0 - ref.f0) > GROSS_PITCH_REL * ref.f0)
    gpe = float(gross.sum()) / max(int(both.sum()), 1)
    ffe = float(voicing_mismatch.sum() + gross.sum()) / T
    return vde, gpe, ffe


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ContractError(f"pearson: need equal-length 1-D series, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ContractError("pearson: need at least 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt((xc * xc).sum() * (yc * yc).sum()))
    if denom == 0.0:
        raise DataError("pearson: zero variance, correlation undefined")
    return float((xc * yc).sum() / denom)


# ---------------------------------------------------------------------------
# text metrics


def _normalize_text(text: str) -> list[str]:
    table = str.maketrans("", "", string.punctuation)
    return text.lower().translate(table).split()


def levenshtein(a, b) -> int:
    """Uniform-cost edit distance between two sequences."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def wer_cer(ref: str, hyp: str) -> tuple[float, float]:
    """Word and character error rates after case folding and punctuation
    stripping; denominators are the reference lengths."""
    ref_words = _normalize_text(ref)
    hyp_words = _normalize_text(hyp)
    if not ref_words:
        raise DataError("wer_cer: empty reference after normalization")
    ref_chars = list(" ".join(ref_words))
    hyp_chars = list(" ".join(hyp_words))
    wer = levenshtein(ref_words, hyp_words) / len(ref_words)
    cer = levenshtein(ref_chars, hyp_chars) / len(ref_chars)
    return float(wer), float(cer)
