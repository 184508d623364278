"""Acceptance gate: one test per release criterion, at stated tolerances.

Each test prints its pass/fail line.  Two criteria are implemented
faithfully and fail on genuine defects in their stated bounds (see
README.md): criterion 06 (no ladder constant achieves the exact error
target with composed degree strictly below the gap) and criterion 12b
(the bounded-part index bound is off by one; the corrected +1 bound is
verified alongside with zero violations).
"""

from slicedeg import acceptance


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
