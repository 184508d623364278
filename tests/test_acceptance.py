"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints its pass/fail line.  Two criteria are implemented
faithfully and fail on genuine defects in their stated bounds (see
README.md): criterion 06 (no ladder constant achieves the exact error
target with composed degree strictly below the gap) and criterion 12b
(the bounded-part index bound is off by one; the corrected +1 bound is
verified alongside with zero violations).
"""

import numpy as np
import pytest

import spectra_reference as ref
from slicedeg import acceptance, spectra


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_exact_degree_sweep_p_power_gaps():
    _check(acceptance.criterion_01_ppower_gap_sweep())


def test_criterion_02_exact_degree_sweep_composite_gaps():
    _check(acceptance.criterion_02_extension_exactness())


def test_criterion_03_closure_cardinality_bound():
    _check(acceptance.criterion_03_nie_wang())


def test_criterion_04_ideal_sample_frequency():
    _check(acceptance.criterion_04_claim_a1())


def test_criterion_05_integer_window_interpolation():
    _check(acceptance.criterion_05_interpolation())


def test_criterion_06_sampled_junta_tightness():
    _check(acceptance.criterion_06_tightness())


def test_criterion_07_coin_construction():
    _check(acceptance.criterion_07_coin())


def test_criterion_08_commuting_words():
    _check(acceptance.criterion_08_commuting_words())


def test_criterion_09_binomial_ratio_bounds():
    _check(acceptance.criterion_09_binomial_bounds())


def test_criterion_10_robust_frontier():
    _check(acceptance.criterion_10_robust_frontier())


def test_criterion_11_covering_family():
    _check(acceptance.criterion_11_galvin())


def test_criterion_12a_decomposition_core():
    _check(acceptance.criterion_12a_decomposition_core())


def test_criterion_12b_bounded_part_bound():
    _check(acceptance.criterion_12b_bounded_part_bound())


def test_criterion_12c_classifier_and_periodic():
    _check(acceptance.criterion_12c_classifier_and_periodic())


# The details strings of the three brute-force scans, as first recorded.
# Each scan checks every word, spectrum or candidate it names, so a faster
# scan must reproduce these strings byte for byte.

def test_commuting_words_details_are_pinned():
    report = acceptance._run("stringlemma", maxlen=18)
    assert [c.details for c in report.checks] == [
        "1662 commuting splits checked, 0 violations"]


def test_decomposition_details_are_pinned():
    assert acceptance.criterion_12a_decomposition_core().details == (
        "65520 spectra, n in [3,14]; violations=0")
    assert acceptance.criterion_12b_bounded_part_bound().details == (
        "65520 spectra; B(h) <= ceil(n/3) violations=32744, first at n=3 "
        "spectrum=0100 B_h=2 > 1; B(h) <= ceil(n/3)+1 violations=0")


def test_frontier_candidate_details_are_pinned():
    report = acceptance._run("robust-frontier", seed=13, n_min=6, n_max=14,
                             cand_n=64, cand_t=8, candidates=10**4)
    assert report.checks[-1].details == (
        "10000 candidates, 0 satisfied the hypotheses, 0 violations")


def _decomposition_loop(n_max):
    """Criteria 12a/12b's scan one spectrum at a time through the string
    reference's decomposition: the reference for
    ``acceptance._decomposition_scan``."""
    total = core_bad = bad = bad_plus_one = 0
    first = None
    for n in range(3, n_max + 1):
        ceil_third = -(-n // 3)
        for code in range(1 << (n + 1)):
            bits = tuple((code >> i) & 1 for i in range(n + 1))
            _, per_g, B_h, fallback = ref.standard_decomposition(bits)
            total += 1
            if not fallback and per_g > n // 3:
                core_bad += 1
            if B_h > ceil_third:
                bad += 1
                if first is None:
                    first = (n, "".join(map(str, bits)), B_h, ceil_third)
            if B_h > ceil_third + 1:
                bad_plus_one += 1
    return total, core_bad, bad, bad_plus_one, first


@pytest.mark.parametrize("n", range(3, 11))
def test_decompose_matches_standard_decomposition(n):
    # the array form of spectra._decompose against the string reference
    g, per_g, B_h, fallback = spectra._decompose(
        np.arange(1 << (n + 1), dtype=np.int64), n)
    for code in range(1 << (n + 1)):
        ref_g, ref_per_g, ref_B_h, ref_fallback = ref.standard_decomposition(
            tuple((code >> i) & 1 for i in range(n + 1)))
        assert fallback == ref_fallback
        assert (int(g[code]), int(per_g[code]), int(B_h[code])) == (
            sum(b << i for i, b in enumerate(ref_g)), ref_per_g,
            ref_B_h), code


def test_decomposition_scan_matches_the_loop():
    assert acceptance._decomposition_scan(12) == _decomposition_loop(12)


def test_core_violations_are_counted(monkeypatch):
    # a decomposition whose per(g) exceeds floor(n/3) everywhere makes each
    # spectrum outside the fallback (the 32 of n = 4) a core violation
    decompose = acceptance._decompose

    def too_long(x, n):
        g, per_g, B_h, fallback = decompose(x, n)
        return g, per_g + n, B_h, fallback

    monkeypatch.setattr(acceptance, "_decompose", too_long)
    acceptance._decomposition_scan.cache_clear()
    try:
        result = acceptance.criterion_12a_decomposition_core()
    finally:
        acceptance._decomposition_scan.cache_clear()
    assert not result.passed
    assert result.details == "65520 spectra, n in [3,14]; violations=65488"
