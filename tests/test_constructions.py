"""Explicit constructions and their exact evaluators."""

import dataclasses
import json
import math
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from slicedeg import constructions
from slicedeg.config import CapExceeded, Caps
from slicedeg.constructions import (CoinInstance, GalvinFamily, WeightWindow,
                                    binom_ratio_check, coin_build,
                                    coin_error_exact, coin_verify_errors,
                                    galvin_coverage, galvin_poly,
                                    galvin_tight_family, hyper_ratio_check,
                                    interpolate_window_int,
                                    interpolate_window_mod,
                                    junta_exact_slice_error, lucas_poly,
                                    sampling_poly)
from slicedeg.cube import (MultilinearPoly, binomial_row,
                           multilinearize_product, slice_array, slice_stats)
from slicedeg.experiments import ExperimentSpec, run
from slicedeg.linalg import PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def junta_value(junta, mask):
    """The junta's inner table at the weight of ``mask`` on its indices."""
    index_mask = sum(1 << i for i in junta.indices)
    return junta.inner_table[(mask & index_mask).bit_count()]


def junta_poly(junta):
    """The junta on all n variables: inner coefficient c_j on every product
    of j sampled variables."""
    terms = {sum(1 << i for i in sub): c
             for j, c in enumerate(junta.inner_ecoeffs) if c
             for sub in combinations(junta.indices, j)}
    return MultilinearPoly.from_terms(junta.n, PrimeField(junta.p), terms)


class TestLucasPoly:
    def test_gap2_f2(self):
        poly = lucas_poly(4, 1, 2, 2)
        assert poly.sym_coeffs == (0, 0, 1)  # e_2
        for m in range(16):
            w = m.bit_count()
            expect = comb(w, 2) % 2
            assert poly.evaluate(m) == expect
        assert all(poly.evaluate(m) == 0 for m in slice_array(4, 1).tolist())
        assert all(poly.evaluate(m) == 1 for m in slice_array(4, 3).tolist())

    def test_gap3_f3(self):
        poly = lucas_poly(6, 1, 3, 3)
        assert poly.weight_value(1) == 0
        assert poly.weight_value(4) == (comb(4, 3)) % 3 == 1

    def test_unit_p_part(self):
        poly = lucas_poly(8, 2, 5, 2)
        assert poly.degree == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_exhaustive_small(self, p):
        for n in range(2, 11):
            for i in range(n):
                for q in range(1, n - i + 1):
                    poly = lucas_poly(n, i, q, p)
                    vals = poly.weight_values()
                    assert vals[i] == 0
                    assert vals[i + q] != 0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            lucas_poly(4, 3, 2, 2)


class TestInterpolation:
    def test_zero_targets(self):
        win = WeightWindow(6, 2, 4, (0, 0, 0))
        assert interpolate_window_int(win).ecoeffs == ()

    def test_step_window(self):
        win = WeightWindow(4, 0, 1, (0, 1))
        assert interpolate_window_int(win).ecoeffs == (0, 1)  # e_1

    def test_bump_window(self):
        win = WeightWindow(6, 0, 2, (0, 1, 0))
        poly = interpolate_window_int(win)
        assert poly.ecoeffs == (0, 1, -2)  # w(2 - w) over the e-basis
        assert poly.degree == 2
        assert poly.weight_values()[:3] == [0, 1, 0]

    def test_random_windows(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.randrange(3, 15)
            L = rng.randrange(1, min(8, n + 1) + 1)
            lo = rng.randrange(0, n - L + 2)
            vals = tuple(rng.randrange(2) for _ in range(L))
            win = WeightWindow(n, lo, lo + L - 1, vals)
            poly = interpolate_window_int(win)
            assert all(isinstance(c, int) for c in poly.ecoeffs)
            assert poly.degree <= L - 1
            assert poly.weight_values()[lo:lo + L] == list(vals)

    def test_mod_p_reduction_keeps_window_values(self):
        win = WeightWindow(10, 3, 7, (1, 0, 1, 1, 0))
        for field in (F2, F3, F5):
            poly = interpolate_window_int(win).reduce_mod(field)
            for w in range(3, 8):
                assert poly.weight_value(w) == win.values[w - 3] % field.p

    def test_pointwise_on_cube(self):
        win = WeightWindow(8, 2, 5, (1, 0, 0, 1))
        poly = interpolate_window_int(win).reduce_mod(F3)
        for w in range(2, 6):
            for m in slice_array(8, w).tolist()[:5]:
                assert poly.evaluate(m) == win.values[w - 2]

    def test_majority_window_exact(self):
        # the full window [0, ell] interpolates the ell-variable majority
        for ell in (1, 3, 5):
            values = tuple(1 if 2 * w > ell else 0 for w in range(ell + 1))
            win = WeightWindow(ell, 0, ell, values)
            maj = interpolate_window_int(win).reduce_mod(F3)
            for m in range(1 << ell):
                want = 1 if 2 * m.bit_count() > ell else 0
                assert maj.evaluate(m) == want

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
    def test_mod_p_interpolant_at_scale(self, p):
        # windows at lo = 0, touching n, and of the coin (n = 590, 922) and
        # junta (m = 1024) sizes; the integer interpolant is the reference
        field = PrimeField(p)
        rng = random.Random(p)
        shapes = [(4096, 0, 200), (4096, 3896, 200), (4096, 1900, 200),
                  (590, 0, 148), (590, 221, 148), (922, 345, 186),
                  (922, 736, 186), (1024, 0, 1), (1024, 1023, 2),
                  (1024, 450, 120)]
        shapes += [(n, rng.randrange(n - L + 2), L) for n, L in
                   ((rng.randrange(200, 4097), rng.randrange(1, 201))
                    for _ in range(6))]
        for n, lo, L in shapes:
            values = tuple(rng.randrange(2) for _ in range(L))
            win = WeightWindow(n, lo, lo + L - 1, values)
            want = interpolate_window_int(win).reduce_mod(field)
            got = interpolate_window_mod(win, field)
            assert got == want
            assert all(type(c) is int for c in got.sym_coeffs)
            table = got.weight_values()
            assert table[lo:lo + L] == values

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightWindow(4, 3, 2, ())
        with pytest.raises(ValueError):
            WeightWindow(4, 0, 1, (0, 2))


class TestSampledJunta:
    def test_junta_property(self):
        # the composed value depends only on the restricted weight
        junta = sampling_poly(16, 8, 4, 0.3, 1, seed=3)
        rng = random.Random(5)
        poly = junta_poly(junta)
        for _ in range(200):
            m = rng.randrange(1 << 16)
            assert poly.evaluate(m) == junta_value(junta, m)

    def test_m_equals_n_point_mass(self):
        junta = sampling_poly(13, 6, 3, 0.5, 1, seed=2)
        if junta.m == 13:
            for w in range(14):
                err = junta_exact_slice_error(junta, w, "zero")
                assert err in (Fraction(0), Fraction(1))

    def test_m_exceeds_n_rejected(self):
        with pytest.raises(CapExceeded):
            sampling_poly(40, 20, 4, 0.25, 2, seed=7)

    def test_exact_error_matches_enumeration(self):
        junta = sampling_poly(12, 6, 3, 0.4, 1, seed=9)
        for w, target in ((6, "zero"), (9, "nonzero")):
            exact = junta_exact_slice_error(junta, w, target)
            miss = 0
            total = 0
            for m in slice_array(12, w).tolist():
                total += 1
                v = junta_value(junta, m)
                bad = (v != 0) if target == "zero" else (v == 0)
                miss += bad
            assert exact == Fraction(miss, total)

    def test_degree_bound(self):
        junta = sampling_poly(64, 32, 16, 0.2, 1, seed=7)
        union = junta.window
        assert junta.degree <= union[1] - union[0]

    def test_inner_polynomial_equals_integer_interpolant(self):
        junta = sampling_poly(1024, 512, 64, math.exp(-4), 2, seed=0)
        lo, hi = junta.window
        win = WeightWindow(junta.m, lo, hi, tuple(
            1 if w in junta.one_weights else 0 for w in range(lo, hi + 1)))
        want = interpolate_window_int(win).reduce_mod(F2)
        assert junta.inner_ecoeffs == want.sym_coeffs
        assert junta.inner_table == want.weight_values()

    def test_deviation_recorded(self):
        junta = sampling_poly(16, 8, 4, 0.3, 1, seed=3)
        assert any("without replacement" in d for d in junta.deviations)

    def test_ladder_picks_smallest_passing_constant(self):
        spec = ExperimentSpec("construct-sample", {
            "n": 64, "k": 32, "q": 16, "ln_inv_eps": math.log(1 / 0.2)}, 1)
        rep = run(spec)
        passing = [row for row in rep.tables["ladder"] if row.get("errors_pass")]
        assert passing[0]["C"] == 2
        assert passing[0]["err_k"] <= 0.2 and passing[0]["err_K"] <= 0.2
        chosen = next(c for c in rep.checks if c.name == "errors-pass")
        assert chosen.details.startswith("C=2,")


def _relabel(P, perm):
    """P(x_{perm(1)}, ..., x_{perm(n)}): monomial bit i moves to bit perm[i]."""
    terms = {}
    for mask, c in P.terms_map().items():
        image = 0
        for i, j in enumerate(perm):
            if (mask >> i) & 1:
                image |= 1 << j
        terms[image] = c
    return MultilinearPoly.from_terms(P.n, P.field, terms)


class TestErrorReduce:
    """Slice statistics under relabelings and products of relabelings: the
    identities behind permutation error reduction, E[psi_m(Q o pi)] = psi_m
    and E[psi_m((Q o pi1)(Q o pi2))] = psi_m^2."""

    def test_symmetric_fixed_point(self):
        # symmetric polynomials are constant per slice: psi is 0/1 and is
        # preserved by products of relabelings
        q = MultilinearPoly.from_sym(5, F2, [0, 0, 1])  # e_2
        qt = MultilinearPoly.from_terms(5, F2, q.terms_map())
        rng = random.Random(1)
        perms = [rng.sample(range(5), 5) for _ in range(2)]
        out = multilinearize_product(_relabel(qt, perms[0]),
                                     _relabel(qt, perms[1]))
        for m in range(6):
            psi_q = slice_stats(qt, m).psi
            psi_o = slice_stats(out, m).psi
            assert psi_q in (0, 1) and psi_o == psi_q ** 2

    def test_exact_expectation_over_all_permutation_pairs(self):
        # brute force over S_4 x S_4: E[psi_m(product)] = psi_m(Q)^2
        rng = random.Random(7)
        q = MultilinearPoly.from_terms(
            4, F2, {rng.randrange(16): 1 for _ in range(4)})
        for m in range(5):
            psi = slice_stats(q, m).psi
            acc = Fraction(0)
            count = 0
            for p1 in permutations(range(4)):
                q1 = _relabel(q, list(p1))
                for p2 in permutations(range(4)):
                    q2 = _relabel(q, list(p2))
                    prod = multilinearize_product(q1, q2)
                    acc += slice_stats(prod, m).psi
                    count += 1
            assert acc / count == psi * psi

    def test_single_relabel_expectation(self):
        rng = random.Random(3)
        q = MultilinearPoly.from_terms(
            4, F3, {rng.randrange(16): rng.randrange(1, 3) for _ in range(3)})
        for m in range(5):
            psi = slice_stats(q, m).psi
            acc = Fraction(0)
            for perm in permutations(range(4)):
                acc += slice_stats(_relabel(q, list(perm)), m).psi
            assert acc / 24 == psi


class TestCoin:
    def test_sizing_rule(self):
        inst = CoinInstance.from_sizing(2, Fraction(1, 8), Fraction(1, 100), 2)
        assert inst.n == 590

    def test_windows_strictly_inside(self):
        inst = CoinInstance(p=2, delta=Fraction(1, 4), eps=Fraction(1, 10),
                            C=2, n=40)
        lo, mid, hi = inst.edges
        for w in inst.zero_weights():
            assert lo < w < mid
        for w in inst.one_weights():
            assert mid < w < hi

    def test_build_and_exact_errors(self):
        inst = CoinInstance.from_sizing(2, Fraction(1, 8), Fraction(1, 100), 2)
        poly = coin_build(inst)
        err_u, err_b = coin_verify_errors(inst, poly)
        assert err_u <= inst.eps and err_b <= inst.eps
        assert poly.degree <= len(inst.zero_weights()) + \
            len(inst.one_weights()) + 1

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("delta", [Fraction(1, 8), Fraction(1, 10)])
    def test_build_equals_integer_interpolant(self, p, delta):
        # the benchmark's construct-coin instances, n = 590 and 922
        inst = CoinInstance.from_sizing(p, delta, Fraction(1, 100), 2)
        zero_w, one_w = inst.zero_weights(), inst.one_weights()
        lo, hi = zero_w[0], one_w[-1]
        win = WeightWindow(inst.n, lo, hi, tuple(
            1 if w in one_w else 0 for w in range(lo, hi + 1)))
        assert coin_build(inst) == \
            interpolate_window_int(win).reduce_mod(PrimeField(p))

    def test_degenerate_delta_half_tiny_n(self):
        inst = CoinInstance(p=2, delta=Fraction(1, 2), eps=Fraction(1, 4),
                            C=1, n=8)
        poly = coin_build(inst)
        err_u, err_b = coin_verify_errors(inst, poly)
        assert 0 <= err_u <= 1 and 0 <= err_b <= 1

    def test_error_exact_examples(self):
        assert coin_error_exact([1] * 5, Fraction(1, 3)) == 1
        parity = [w % 2 for w in range(6)]
        assert coin_error_exact(parity, Fraction(1, 2)) == Fraction(1, 2)
        ethr2 = [0, 0, 1, 0, 0]
        assert coin_error_exact(ethr2, Fraction(1, 2)) == Fraction(6, 16)

    def test_error_exact_is_binomial_mass(self):
        rng = random.Random(6)
        n = 7
        table = [rng.randrange(3) for _ in range(n + 1)]
        alpha = Fraction(2, 7)
        got = coin_error_exact(table, alpha)
        want = sum(comb(n, w) * alpha**w * (1 - alpha) ** (n - w)
                   for w in range(n + 1) if table[w] == 1)
        assert got == want

    def test_json_roundtrip(self):
        # the report's instance table carries the whole instance
        inst = CoinInstance.from_sizing(2, Fraction(1, 8), Fraction(1, 100), 2)
        d = json.loads(json.dumps(inst.to_json_dict()))
        back = CoinInstance(p=d["p"], delta=Fraction(d["delta"]),
                            eps=Fraction(d["eps"]), C=d["C"], n=d["n"])
        assert back == inst

    def test_error_decreases_along_n_grid(self):
        prev = None
        for n in (200, 300, 400, 500, 600):
            inst = CoinInstance(p=2, delta=Fraction(1, 8),
                                eps=Fraction(1, 100), C=2, n=n)
            errs = coin_verify_errors(inst, coin_build(inst))
            if prev is not None:
                assert errs[0] < prev[0] and errs[1] < prev[1]
            prev = errs


def _ref_binom(top, j):
    """C(top, j) by one ``comb``, for any integer top and j >= 0."""
    return comb(top, j) if top >= 0 else (-1) ** j * comb(j - top - 1, j)


def _ref_interpolate(window):
    """Per-term Vandermonde expansion of the Newton differences."""
    vals = list(window.values)
    deltas = []
    while vals:
        deltas.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    L = len(deltas)
    ecoeffs = [sum(deltas[j] * _ref_binom(-window.lo, j - i)
                   for j in range(i, L)) for i in range(L)]
    while ecoeffs and ecoeffs[-1] == 0:
        ecoeffs.pop()
    return tuple(ecoeffs)


def _ref_coin_error(table, alpha, pred):
    n = len(table) - 1
    return sum((comb(n, w) * alpha**w * (1 - alpha) ** (n - w)
                for w, v in enumerate(table) if pred(v)), Fraction(0))


def _ref_junta_error(n, m, table, w, target):
    num = sum(comb(m, j) * comb(n - m, w - j)
              for j in range(max(0, w - (n - m)), min(m, w) + 1)
              if ((table[j] != 0) if target == "zero" else (table[j] == 0)))
    return Fraction(num, comb(n, w))


def _is_one(v):
    return v == 1


class TestExactSumsAgainstComb:
    """The exact sums equal per-term ``math.comb`` references."""

    def test_binomial_row(self):
        rng = random.Random(11)
        for top in list(range(-12, 13)) + [rng.randrange(-300, 301)
                                           for _ in range(40)]:
            for lo, hi in ((0, 0), (0, 20), (0, abs(top) + 3),
                           (abs(top), abs(top) + 2), (5, 4),
                           (rng.randrange(0, 300), rng.randrange(0, 300))):
                assert binomial_row(top, lo, hi) == [
                    _ref_binom(top, j) for j in range(lo, hi + 1)]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_interpolation(self, p):
        rng = random.Random(p)
        field = PrimeField(p)
        for trial in range(40):
            n = rng.randrange(1, 301)
            L = rng.randrange(1, min(n + 1, 40) + 1)
            lo = 0 if trial % 4 == 0 else rng.randrange(0, n - L + 2)
            win = WeightWindow(n, lo, lo + L - 1,
                               tuple(rng.randrange(2) for _ in range(L)))
            want = _ref_interpolate(win)
            got = interpolate_window_int(win)
            assert got.ecoeffs == want
            want_mod = MultilinearPoly.from_sym(n, field, list(want)).sym_coeffs
            assert got.reduce_mod(field).sym_coeffs == want_mod
            assert interpolate_window_mod(win, field).sym_coeffs == want_mod

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coin_error(self, p):
        rng = random.Random(100 + p)
        for n in (0, 1, 2, 7, 50, rng.randrange(100, 301), 300):
            table = [rng.randrange(p) for _ in range(n + 1)]
            alphas = (Fraction(0), Fraction(1, 2), Fraction(1),
                      Fraction(rng.randrange(1, 10), 10), Fraction(1, 3))
            for alpha in alphas:
                got = coin_error_exact(table, alpha)
                assert type(got) is Fraction
                assert got == _ref_coin_error(table, alpha, _is_one)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coin_error_on_built_tables(self, p):
        inst = CoinInstance(p=p, delta=Fraction(1, 8), eps=Fraction(1, 100),
                            C=2, n=200 + 20 * p)
        poly = coin_build(inst)
        table = poly.weight_values()
        for alpha in (Fraction(1, 2), Fraction(3, 8)):
            assert coin_error_exact(table, alpha) == \
                _ref_coin_error(table, alpha, _is_one)
        assert coin_verify_errors(inst, poly) == (
            _ref_coin_error(table, Fraction(1, 2), lambda v: v != 1),
            _ref_coin_error(table, Fraction(3, 8), _is_one))

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_junta_error(self, p):
        rng = random.Random(200 + p)
        junta = sampling_poly(300, 150, 75, 0.3, 1, seed=p)
        for m in (junta.m, 1, 149, 299, 300):  # m = n included
            table = tuple(rng.randrange(p) for _ in range(m + 1))
            if m == junta.m:
                table = junta.inner_table
            j = dataclasses.replace(junta, m=m, inner_table=table)
            weights = {0, 1, m, 300 - m, 299, 300, rng.randrange(301)}
            for w in weights:
                for target in ("zero", "nonzero"):
                    assert junta_exact_slice_error(j, w, target) == \
                        _ref_junta_error(300, m, table, w, target)


def _row_junta_error(n, m, table, w, target):
    """Reference: the hypergeometric sum over two ``binomial_row`` rows and
    one product of large integers per term."""
    lo, hi = max(0, w - (n - m)), min(m, w)
    inside = binomial_row(m, lo, hi)
    outside = binomial_row(n - m, w - hi, w - lo)
    num = sum(a * b for v, a, b in zip(table[lo:hi + 1], inside,
                                       reversed(outside))
              if ((v != 0) if target == "zero" else (v == 0)))
    return Fraction(num, comb(n, w))


def _row_coin_error(table, alpha):
    """Reference: C(n, w) r^w (s - r)^(n - w) per weight from a
    ``binomial_row`` and two tables of powers."""
    n = len(table) - 1
    r, s = alpha.numerator, alpha.denominator
    num = sum(c * r**w * (s - r) ** (n - w)
              for w, (v, c) in enumerate(zip(table, binomial_row(n, 0, n)))
              if v == 1)
    return Fraction(num, s**n)


class TestExactSumsAgainstRows:
    """The term-ratio sums equal the sums over binomial rows."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("delta", [Fraction(1, 8), Fraction(1, 10)])
    def test_benchmark_coins(self, p, delta):
        inst = CoinInstance.from_sizing(p, delta, Fraction(1, 100), 2)
        table = coin_build(inst).weight_values()
        for alpha in (Fraction(1, 2), Fraction(1, 2) - delta):
            assert coin_error_exact(table, alpha) == \
                _row_coin_error(table, alpha)

    @pytest.mark.parametrize("n", [1024, 2048, 4096])
    def test_benchmark_juntas(self, n):
        k, q = n // 2, n // 16
        for seed in range(8):
            j = sampling_poly(n, k, q, math.exp(-4.0), 2, seed)
            for w, target in ((k, "zero"), (k + q, "nonzero")):
                assert junta_exact_slice_error(j, w, target) == \
                    _row_junta_error(n, j.m, j.inner_table, w, target)

    def test_random_small_juntas(self):
        rng = random.Random(27)
        base = sampling_poly(16, 8, 4, 0.3, 1, seed=3)
        for _ in range(300):
            n = rng.randrange(1, 40)
            m = rng.randrange(0, n + 1)
            table = tuple(rng.randrange(3) for _ in range(m + 1))
            j = dataclasses.replace(base, n=n, m=m, inner_table=table)
            # w = 0, w = n, w past n - m (first term at j = w - (n - m) > 0)
            for w in {0, n, min(n, n - m + 1), rng.randrange(n + 1)}:
                for target in ("zero", "nonzero"):
                    assert junta_exact_slice_error(j, w, target) == \
                        _row_junta_error(n, m, table, w, target)

    def test_random_small_coins(self):
        rng = random.Random(28)
        for _ in range(300):
            n = rng.randrange(0, 40)
            table = [rng.randrange(3) for _ in range(n + 1)]
            s = rng.randrange(1, 30)
            alphas = (Fraction(0), Fraction(1),
                      Fraction(rng.randrange(s + 1), s))
            for alpha in alphas:
                assert coin_error_exact(table, alpha) == \
                    _row_coin_error(table, alpha)

    def test_galvin_coverage_equals_two_combs(self):
        rng = random.Random(29)
        for n in range(2, 130, 2):
            half = n // 2
            items = tuple(((1 << half) - 1, rng.randrange(-3, half + 4))
                          for _ in range(rng.randrange(6)))
            hit = {b for _, b in items if 0 <= b <= half}
            want = Fraction(sum(comb(half, x) * comb(half, half - x)
                                for x in hit), comb(n, half))
            assert galvin_coverage(GalvinFamily(n, items)) == want

    def test_junta_weight_outside_the_cube(self):
        j = sampling_poly(16, 8, 4, 0.3, 1, seed=3)
        for w in (-1, 17):
            with pytest.raises(ValueError, match="outside"):
                junta_exact_slice_error(j, w, "zero")

    def test_coin_alpha_outside_the_unit_interval(self):
        for alpha in (Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError, match="outside"):
                coin_error_exact([0, 1, 1, 0], alpha)


class TestGalvin:
    def test_tight_family_shape(self):
        fam = galvin_tight_family(64, 0.05, 2)
        assert fam.size == 2 * fam.t + 1
        u = (1 << 32) - 1
        assert all(uu == u for uu, _ in fam.items)
        assert fam.degenerate  # t = 28 >= n/4 = 16 at this scale

    def test_single_hyperplane_coverage(self):
        fam = GalvinFamily(8, ((0b00001111, 2),))
        assert galvin_coverage(fam) == Fraction(36, 70)

    def test_empty_family(self):
        assert galvin_coverage(GalvinFamily(8, ())) == 0

    def test_full_range_covers(self):
        fam = GalvinFamily(8, tuple((0b00001111, b) for b in range(5)))
        assert galvin_coverage(fam) == 1

    def test_coverage_matches_direct_enumeration(self):
        pts = slice_array(8, 4).tolist()
        for u in (0b00001111, 0b10101010):
            fam = GalvinFamily(8, ((u, 1), (u, 2), (u, 7)))
            hits = sum(any((v & u).bit_count() == b for _, b in fam.items)
                       for v in pts)
            assert galvin_coverage(fam) == Fraction(hits, len(pts))

    def test_mixed_normals_raise(self):
        fam = GalvinFamily(8, ((0b00001111, 2), (0b10101010, 1)))
        with pytest.raises(ValueError, match="differ"):
            galvin_coverage(fam)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            GalvinFamily(8, ((0b00000111, 2),))

    def test_poly_single_factor(self):
        fam = GalvinFamily(8, ((0b00001111, 0),))
        poly = galvin_poly(fam, F3)
        assert poly.terms_map() == {1: 1, 2: 1, 4: 1, 8: 1}

    def test_poly_vanishing_iff_some_factor(self):
        rng = random.Random(5)
        n = 8
        items = []
        for b in (1, 2, 3):
            positions = rng.sample(range(n), n // 2)
            u = 0
            for i in positions:
                u |= 1 << i
            items.append((u, b))
        fam = GalvinFamily(n, tuple(items))
        poly = galvin_poly(fam, F5)
        for v in range(1 << n):
            vanish = any(((v & u).bit_count() - b) % 5 == 0
                         for u, b in fam.items)
            assert (poly.evaluate(v) == 0) == vanish

    @staticmethod
    def random_family(n, size, seed):
        rng = random.Random(seed)
        items = []
        for _ in range(size):
            u = 0
            for i in rng.sample(range(n), n // 2):
                u |= 1 << i
            items.append((u, rng.randrange(n // 2 + 1)))
        return GalvinFamily(n, tuple(items))

    def test_poly_beyond_25_factors(self):
        # the product size is bounded by Caps, not by a factor count
        fam = self.random_family(12, 26, seed=3)
        field = PrimeField(7)
        poly = galvin_poly(fam, field)
        vals = poly.evaluate_many(list(range(1 << 12)))
        for v in range(1 << 12):
            vanish = any(((v & u).bit_count() - b) % 7 == 0
                         for u, b in fam.items)
            assert (vals[v] == 0) == vanish

    def test_poly_term_cap(self):
        fam = self.random_family(12, 20, seed=3)
        with pytest.raises(CapExceeded):
            galvin_poly(fam, PrimeField(7), caps=Caps(max_terms=100))

    def test_poly_degree_generic(self):
        fam = GalvinFamily(8, tuple((0b00001111, b) for b in (1, 2, 3, 5)))
        assert galvin_poly(fam, F5).degree == 4

    def test_json_roundtrip(self):
        # the report's family table carries the whole family
        fam = galvin_tight_family(16, 0.2, 2)
        d = json.loads(json.dumps(fam.to_json_dict()))
        back = GalvinFamily(n=d["n"], t=d["t"], items=tuple(
            (int(it["u_mask"], 16), it["b"]) for it in d["items"]))
        assert back.n == fam.n and back.items == fam.items and back.t == fam.t


class TestBoundCheckers:
    def test_binom_ratio_example(self):
        rep = binom_ratio_check(40, 2, 6)
        assert rep.holds and not rep.printed_holds
        assert rep.ratio == Fraction(comb(40, 14), comb(40, 18))

    def test_binom_ratio_equal_args(self):
        rep = binom_ratio_check(12, 3, 3)
        assert rep.ratio == 1 and rep.holds and rep.printed_holds

    def test_binom_ratio_small_grid(self):
        for n in range(1, 25):
            for s in range(n // 4 + 1):
                for r in range(s + 1):
                    assert binom_ratio_check(n, r, s).holds

    def test_binom_range_validation(self):
        with pytest.raises(ValueError):
            binom_ratio_check(12, 2, 1)
        with pytest.raises(ValueError):
            binom_ratio_check(12, 0, 4)

    def test_hyper_ratio_steps(self):
        for n in range(2, 25, 2):
            for m in range(0, n // 2 + 1):
                k = m // 2
                if k < 1:
                    continue
                rep = hyper_ratio_check(n, m, k)
                assert rep.steps_exact_ok and rep.steps_exp_ok
                assert rep.assembled_ok

    def test_hyper_ratio_closed_form_step(self):
        for n in range(2, 41, 2):
            for m in range(n // 2 + 1):
                for j in range(m // 2):
                    step = Fraction(constructions._paired(n, m, j + 1),
                                    constructions._paired(n, m, j))
                    assert constructions._paired_step(n, m, j) == step

    def test_hyper_ratio_validation(self):
        with pytest.raises(ValueError):
            hyper_ratio_check(9, 4, 2)
        with pytest.raises(ValueError):
            hyper_ratio_check(8, 4, 3)
