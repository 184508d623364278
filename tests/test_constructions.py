"""Explicit constructions and their exact evaluators."""

import dataclasses
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
                                    junta_exact_slice_error, lucas_poly,
                                    sampling_poly)
from slicedeg.cube import (MultilinearPoly, binomial_row, elementary_symmetric,
                           multilinearize_product, popcount, slice_masks,
                           slice_stats)
from slicedeg.experiments import ExperimentSpec, run
from slicedeg.linalg import PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def junta_value(junta, mask):
    """The junta's inner table at the weight of ``mask`` on its indices."""
    index_mask = sum(1 << i for i in junta.indices)
    return junta.inner_table[popcount(mask & index_mask)]


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
            w = popcount(m)
            expect = comb(w, 2) % 2
            assert poly.evaluate(m) == expect
        assert all(poly.evaluate(m) == 0 for m in slice_masks(4, 1))
        assert all(poly.evaluate(m) == 1 for m in slice_masks(4, 3))

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
            for m in list(slice_masks(8, w))[:5]:
                assert poly.evaluate(m) == win.values[w - 2]

    def test_majority_window_exact(self):
        # the full window [0, ell] interpolates the ell-variable majority
        for ell in (1, 3, 5):
            values = tuple(1 if 2 * w > ell else 0 for w in range(ell + 1))
            win = WeightWindow(ell, 0, ell, values)
            maj = interpolate_window_int(win).reduce_mod(F3)
            for m in range(1 << ell):
                want = 1 if 2 * popcount(m) > ell else 0
                assert maj.evaluate(m) == want

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
            for m in slice_masks(12, w):
                total += 1
                v = junta_value(junta, m)
                bad = (v != 0) if target == "zero" else (v == 0)
                miss += bad
            assert exact == Fraction(miss, total)

    def test_degree_bound(self):
        junta = sampling_poly(64, 32, 16, 0.2, 1, seed=7)
        union = junta.window
        assert junta.degree <= union[1] - union[0]

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
        q = elementary_symmetric(5, 2, F2)
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

    def test_degenerate_delta_half_tiny_n(self):
        inst = CoinInstance(p=2, delta=Fraction(1, 2), eps=Fraction(1, 4),
                            C=1, n=8)
        poly = coin_build(inst)
        err_u, err_b = coin_verify_errors(inst, poly)
        assert 0 <= err_u <= 1 and 0 <= err_b <= 1

    def test_error_exact_examples(self):
        assert coin_error_exact([1] * 5, Fraction(1, 3), "one") == 1
        parity = [w % 2 for w in range(6)]
        assert coin_error_exact(parity, Fraction(1, 2), "one") == Fraction(1, 2)
        ethr2 = [0, 0, 1, 0, 0]
        assert coin_error_exact(ethr2, Fraction(1, 2), "one") == Fraction(6, 16)

    def test_error_exact_is_binomial_mass(self):
        rng = random.Random(6)
        n = 7
        table = [rng.randrange(3) for _ in range(n + 1)]
        alpha = Fraction(2, 7)
        got = coin_error_exact(table, alpha, "nonzero")
        want = sum(comb(n, w) * alpha**w * (1 - alpha) ** (n - w)
                   for w in range(n + 1) if table[w] != 0)
        assert got == want

    def test_json_roundtrip(self):
        inst = CoinInstance.from_sizing(2, Fraction(1, 8), Fraction(1, 100), 2)
        back = CoinInstance.from_json_dict(inst.to_json_dict())
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


_COIN_PREDS = {"one": lambda v: v == 1, "nonzero": lambda v: v != 0,
               "zero": lambda v: v == 0, "not-one": lambda v: v != 1}


class TestExactSumsAgainstComb:
    """The binomial-row sums equal per-term ``math.comb`` references."""

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
            assert got.reduce_mod(field).sym_coeffs == \
                MultilinearPoly.from_sym(n, field, list(want)).sym_coeffs

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coin_error(self, p):
        rng = random.Random(100 + p)
        for n in (0, 1, 2, 7, 50, rng.randrange(100, 301), 300):
            table = [rng.randrange(p) for _ in range(n + 1)]
            alphas = (Fraction(0), Fraction(1, 2), Fraction(1),
                      Fraction(rng.randrange(1, 10), 10), Fraction(1, 3))
            for alpha in alphas:
                for side, pred in _COIN_PREDS.items():
                    got = coin_error_exact(table, alpha, side)
                    assert type(got) is Fraction
                    assert got == _ref_coin_error(table, alpha, pred)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_coin_error_on_built_tables(self, p):
        inst = CoinInstance(p=p, delta=Fraction(1, 8), eps=Fraction(1, 100),
                            C=2, n=200 + 20 * p)
        table = coin_build(inst).weight_values()
        for alpha, side in ((Fraction(1, 2), "not-one"),
                            (Fraction(3, 8), "one")):
            assert coin_error_exact(table, alpha, side) == \
                _ref_coin_error(table, alpha, _COIN_PREDS[side])

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

    def test_mixed_u_enumeration_matches_direct(self):
        fam = GalvinFamily(8, ((0b00001111, 2), (0b10101010, 1)))
        cov = galvin_coverage(fam)
        hits = 0
        pts = list(slice_masks(8, 4))
        for v in pts:
            if any(popcount(v & u) == b for u, b in fam.items):
                hits += 1
        assert cov == Fraction(hits, len(pts))

    def test_mixed_u_coverage_past_slice_cap(self):
        fam = GalvinFamily(8, ((0b00001111, 2), (0b10101010, 1)))
        with pytest.raises(CapExceeded):
            galvin_coverage(fam, Caps(max_slice_points=comb(8, 4) - 1))
        assert isinstance(galvin_coverage(fam, Caps(max_slice_points=comb(8, 4))),
                          Fraction)

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
            vanish = any((popcount(v & u) - b) % 5 == 0 for u, b in fam.items)
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
            vanish = any((popcount(v & u) - b) % 7 == 0 for u, b in fam.items)
            assert (vals[v] == 0) == vanish

    def test_poly_term_cap(self):
        fam = self.random_family(12, 20, seed=3)
        with pytest.raises(CapExceeded):
            galvin_poly(fam, PrimeField(7), caps=Caps(max_terms=100))

    def test_poly_degree_generic(self):
        fam = GalvinFamily(8, tuple((0b00001111, b) for b in (1, 2, 3, 5)))
        assert galvin_poly(fam, F5).degree == 4

    def test_balanced_filter(self):
        fam = GalvinFamily(8, ((0b00001111, 2), (0b00001111, 4)), t=1)
        assert fam.balanced_items() == [(0b00001111, 2)]
        poly = galvin_poly(fam, F3, balance_filter=True)
        assert poly.degree == 1

    def test_json_roundtrip(self):
        fam = galvin_tight_family(16, 0.2, 2)
        back = GalvinFamily.from_json_dict(fam.to_json_dict())
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
                rep = hyper_ratio_check(n, m, k, 0)
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
            hyper_ratio_check(9, 4, 2, 0)
        with pytest.raises(ValueError):
            hyper_ratio_check(8, 4, 3, 0)
