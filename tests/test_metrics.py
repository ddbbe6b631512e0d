import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosody_codec.dsp import MelSpectrogram, PitchContour
from prosody_codec.errors import ContractError, DataError
from prosody_codec.metrics import (
    f0_errors,
    levenshtein,
    mcd,
    mel_cepstra,
    pearson,
    psnr_mel,
    wer_cer,
)

RNG = np.random.default_rng(21)


def mel_of(values):
    return MelSpectrogram(np.asarray(values, dtype=float), 256, 1024, 22050)


# ---------------------------------------------------------------------------
# PSNR


def test_psnr_identical_hits_cap():
    m = mel_of(RNG.normal(size=(10, 8)))
    assert psnr_mel(m, m) == 60.0


def test_psnr_uniform_range_offset_is_zero():
    ref = RNG.normal(size=(6, 5))
    r = ref.max() - ref.min()
    assert psnr_mel(mel_of(ref), mel_of(ref + r)) == pytest.approx(0.0, abs=1e-9)


def test_psnr_matches_direct_formula():
    ref = RNG.normal(size=(7, 9))
    hyp = ref + 0.1 * RNG.normal(size=(7, 9))
    expected = 10 * np.log10((ref.max() - ref.min()) ** 2 / np.mean((ref - hyp) ** 2))
    assert psnr_mel(mel_of(ref), mel_of(hyp)) == pytest.approx(expected, rel=1e-12)


def test_psnr_shape_mismatch():
    with pytest.raises(ContractError):
        psnr_mel(mel_of(np.zeros((3, 4))), mel_of(np.zeros((4, 4))))


# ---------------------------------------------------------------------------
# MCD


def test_mcd_identical_is_zero():
    m = mel_of(RNG.normal(size=(12, 20)))
    assert mcd(m, m) == 0.0


def test_mcd_unit_cepstral_offset():
    # hyp cepstra = ref cepstra + e_1  ->  (10/ln10) * sqrt(2)
    ref = RNG.normal(size=(9, 20))
    cep = mel_cepstra(ref)
    bumped = cep.copy()
    bumped[:, 1] += 1.0
    # orthonormal DCT: invert by transpose
    from prosody_codec.metrics import _dct_matrix

    dct = _dct_matrix(20)
    hyp = bumped @ dct  # inverse of cep = values @ dct.T
    value = mcd(mel_of(ref), mel_of(hyp))
    assert value == pytest.approx(10.0 / np.log(10.0) * np.sqrt(2.0), rel=1e-9)
    assert value == pytest.approx(6.1418, abs=5e-4)


def test_mcd_symmetric_in_error():
    ref = RNG.normal(size=(8, 20))
    noise = 0.05 * RNG.normal(size=(8, 20))
    assert mcd(mel_of(ref), mel_of(ref + noise)) == pytest.approx(
        mcd(mel_of(ref + noise), mel_of(ref)), rel=1e-12
    )


def test_psnr_symmetric_in_small_error():
    ref = RNG.normal(size=(8, 20))
    noise = 1e-4 * RNG.normal(size=(8, 20))
    a = psnr_mel(mel_of(ref), mel_of(ref + noise))
    b = psnr_mel(mel_of(ref + noise), mel_of(ref))
    assert a == pytest.approx(b, rel=1e-3)


def test_mcd_excludes_energy_coefficient():
    ref = RNG.normal(size=(6, 20))
    # shifting every band by a constant only moves cepstral coefficient 0
    hyp = ref + 3.0
    assert mcd(mel_of(ref), mel_of(hyp)) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# pitch errors


def contour(f0, voiced):
    return PitchContour(np.asarray(f0, dtype=float), np.asarray(voiced, dtype=bool))


def test_f0_errors_identical_zero():
    c = contour([100, 120, 0, 130], [True, True, False, True])
    assert f0_errors(c, c) == (0.0, 0.0, 0.0)


def test_f0_errors_voicing_flips():
    ref = contour([100.0] * 10, [True] * 10)
    hyp_f0 = [100.0] * 10
    hyp_v = [True] * 10
    hyp_v[2] = hyp_v[7] = False
    hyp_f0[2] = hyp_f0[7] = 0.0
    vde, gpe, ffe = f0_errors(ref, contour(hyp_f0, hyp_v))
    assert vde == pytest.approx(0.2)
    assert gpe == 0.0
    assert ffe == pytest.approx(0.2)


def test_f0_errors_gross_pitch():
    ref = contour([100.0] * 10, [True] * 10)
    hyp = [100.0] * 10
    hyp[4] = 125.0  # 25% off
    vde, gpe, ffe = f0_errors(ref, contour(hyp, [True] * 10))
    assert vde == 0.0
    assert gpe == pytest.approx(0.1)
    assert ffe == pytest.approx(0.1)


def test_f0_errors_composition_exact():
    rng = np.random.default_rng(5)
    T = 40
    ref_v = rng.random(T) > 0.3
    hyp_v = rng.random(T) > 0.3
    ref_f = np.where(ref_v, rng.uniform(80, 300, T), 0.0)
    hyp_f = np.where(hyp_v, rng.uniform(80, 300, T), 0.0)
    vde, gpe, ffe = f0_errors(contour(ref_f, ref_v), contour(hyp_f, hyp_v))
    both = ref_v & hyp_v
    gross = int((both & (np.abs(hyp_f - ref_f) > 0.2 * ref_f)).sum())
    mismatch = int((ref_v != hyp_v).sum())
    assert ffe == pytest.approx((mismatch + gross) / T)
    assert vde == pytest.approx(mismatch / T)
    assert 0 <= vde <= 1 and 0 <= gpe <= 1 and 0 <= ffe <= 1


def test_f0_errors_length_mismatch():
    with pytest.raises(ContractError):
        f0_errors(contour([1.0], [True]), contour([1.0, 2.0], [True, True]))


# ---------------------------------------------------------------------------
# correlation


def test_pearson_perfect():
    x = RNG.normal(size=20)
    assert pearson(x, x) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)


def test_pearson_affine():
    x = RNG.normal(size=15)
    assert pearson(x, 3 * x + 2) == pytest.approx(1.0)


def test_pearson_zero_variance():
    with pytest.raises(DataError):
        pearson(np.ones(5), RNG.normal(size=5))


# ---------------------------------------------------------------------------
# WER / CER


def test_wer_cer_identical():
    assert wer_cer("a b c", "a b c") == (0.0, 0.0)


def test_wer_one_substitution():
    wer, _ = wer_cer("a b c", "a x c")
    assert wer == pytest.approx(1 / 3)


def test_cer_one_deletion():
    _, cer = wer_cer("abc", "ab")
    assert cer == pytest.approx(1 / 3)


def test_wer_case_and_punctuation_folded():
    assert wer_cer("Hello, World!", "hello world") == (0.0, 0.0)


def test_wer_empty_reference():
    with pytest.raises(DataError):
        wer_cer("...", "anything")


@lru_cache(maxsize=None)
def _edit_oracle(a: str, b: str) -> int:
    # independent recursive formulation with memoization
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _edit_oracle(a[1:], b) + 1,
        _edit_oracle(a, b[1:]) + 1,
        _edit_oracle(a[1:], b[1:]) + (a[0] != b[0]),
    )


def test_levenshtein_matches_oracle_exhaustive_short():
    alphabet = "abc"
    words = [""]
    for n in (1, 2, 3, 4):
        words += ["".join(p) for p in itertools.product(alphabet, repeat=n)]
    for a in words:
        for b in words:
            assert levenshtein(list(a), list(b)) == _edit_oracle(a, b)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_levenshtein_matches_oracle_random(a, b):
    assert levenshtein(list(a), list(b)) == _edit_oracle(a, b)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abc ", max_size=12), st.text(alphabet="abc ", max_size=12))
def test_wer_cer_bounds(ref, hyp):
    if not ref.replace(" ", ""):
        return
    wer, cer = wer_cer(ref, hyp)
    assert wer >= 0 and cer >= 0
