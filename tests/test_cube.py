"""Weight slices, multilinear polynomials, and slice statistics."""

import json
import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from slicedeg.config import CapExceeded, Caps
from slicedeg.cube import (MultilinearPoly, ecoeffs_from_weight_values,
                           elementary_symmetric, monomials_upto,
                           multilinearize_product, poly_to_json_dict,
                           popcount, slice_masks,
                           slice_stats, symmetric_value_table,
                           weight_values_from_ecoeffs)
from slicedeg.linalg import PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def random_poly(n, field, rng, max_terms=8):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[rng.randrange(1 << n)] = rng.randrange(1, field.p)
    return MultilinearPoly.from_terms(n, field, terms)


def mobius_reconstruct(n, field, values):
    """Independent uniqueness oracle: coefficients by Moebius inversion."""
    terms = {}
    for s in range(1 << n):
        acc = 0
        t = s
        while True:
            sign = (-1) ** (popcount(s) - popcount(t))
            acc += sign * values[t]
            if t == 0:
                break
            t = (t - 1) & s
        c = acc % field.p
        if c:
            terms[s] = c
    return MultilinearPoly.from_terms(n, field, terms)


class TestSliceEnumeration:
    def test_weight_zero(self):
        assert list(slice_masks(3, 0)) == [0]

    def test_order_is_numeric(self):
        assert list(slice_masks(3, 2)) == [0b011, 0b101, 0b110]

    def test_large_slice_count_and_first(self):
        pts = list(slice_masks(14, 7))
        assert len(pts) == comb(14, 7) == 3432
        assert pts[0] == 0b1111111
        assert pts == sorted(pts)

    def test_cap(self):
        # a polynomial with no certificate is evaluated point by point
        tiny = Caps(max_slice_points=10)
        poly = MultilinearPoly.from_terms(14, F2, {0b11: 1})
        with pytest.raises(CapExceeded):
            slice_stats(poly, 7, tiny)


class TestMonomialOrder:
    def test_graded_numeric_order(self):
        monos = monomials_upto(4, 2)
        assert monos == [0, 1, 2, 4, 8, 3, 5, 6, 9, 10, 12]


class TestEval:
    def test_zero_poly(self):
        z = MultilinearPoly.zero(4, F3)
        assert z.terms_map() == {} and z.degree == 0
        assert all(z.evaluate(m) == 0 for m in range(16))

    def test_product_monomial(self):
        p = MultilinearPoly.from_terms(3, F2, {0b011: 1})
        assert p.evaluate(0b011) == 1
        assert p.evaluate(0b001) == 0
        assert p.evaluate(0b111) == 1

    def test_e2_at_weight_three(self):
        e2 = elementary_symmetric(4, 2, F2)
        assert e2.evaluate(0b0111) == comb(3, 2) % 2 == 1

    @given(st.integers(2, 6), st.sampled_from([2, 3, 5]), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_evaluate_many_matches_single(self, n, p, seed):
        rng = random.Random(seed)
        poly = random_poly(n, PrimeField(p), rng)
        masks = list(range(1 << n))
        vec = poly.evaluate_many(masks)
        assert [poly.evaluate(m) for m in masks] == list(vec)


class TestUniqueness:
    @given(st.integers(1, 6), st.sampled_from([2, 3, 5]), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_mobius_reconstruction(self, n, p, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        poly = random_poly(n, field, rng)
        values = [poly.evaluate(m) for m in range(1 << n)]
        assert mobius_reconstruct(n, field, values) == poly


class TestProduct:
    def test_times_one(self):
        rng = random.Random(0)
        p = random_poly(4, F3, rng)
        one = MultilinearPoly.constant(4, F3, 1)
        assert multilinearize_product(p, one) == p

    def test_idempotent_variable(self):
        x1 = MultilinearPoly.from_terms(2, F5, {0b01: 1})
        assert multilinearize_product(x1, x1) == x1

    def test_sum_squared_f2(self):
        p = MultilinearPoly.from_terms(2, F2, {0b01: 1, 0b10: 1})
        assert multilinearize_product(p, p) == p

    @given(st.integers(1, 6), st.sampled_from([2, 3]), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_pointwise_agreement(self, n, p, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        a, b = random_poly(n, field, rng), random_poly(n, field, rng)
        prod = multilinearize_product(a, b)
        assert (prod.degree <= min(n, a.degree + b.degree)
                or not prod.terms_map())
        for m in range(1 << n):
            assert prod.evaluate(m) == (a.evaluate(m) * b.evaluate(m)) % p

    def test_arity_mismatch(self):
        a = MultilinearPoly.zero(3, F2)
        b = MultilinearPoly.zero(4, F2)
        with pytest.raises(ValueError):
            multilinearize_product(a, b)

    def test_symmetric_route_matches_terms_route(self):
        e1 = elementary_symmetric(6, 1, F3)
        e2 = elementary_symmetric(6, 2, F3)
        prod = multilinearize_product(e1, e2)
        by_terms = multilinearize_product(
            MultilinearPoly.from_terms(6, F3, e1.terms_map()),
            MultilinearPoly.from_terms(6, F3, e2.terms_map()))
        assert prod.terms_map() == by_terms.terms_map()


class TestSliceStats:
    def test_zero_poly(self):
        z = MultilinearPoly.zero(5, F2)
        assert all(slice_stats(z, m).psi == 0 for m in range(6))

    def test_e1_even_slice(self):
        e1 = elementary_symmetric(4, 1, F2)
        assert slice_stats(e1, 2).psi == 0

    def test_e2_weight3(self):
        e2 = elementary_symmetric(4, 2, F2)
        st_ = slice_stats(e2, 3)
        assert st_.psi == 1 and st_.nonzero_count == 4

    @given(st.integers(1, 10), st.sampled_from([2, 3]), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_sum_over_slices_matches_full_cube(self, n, p, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        poly = random_poly(n, field, rng)
        total = sum(slice_stats(poly, m).nonzero_count for m in range(n + 1))
        direct = sum(1 for m in range(1 << n) if poly.evaluate(m))
        assert total == direct


class TestSymmetricTable:
    def lucas_digits_binom(self, w, j, p):
        out = 1
        while w or j:
            out = out * comb(w % p, j % p)
            w //= p
            j //= p
        return out % p

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ej_table_matches_lucas_digits(self, p):
        field = PrimeField(p)
        for n in range(1, 21):
            for j in sorted({0, 1, min(2, n), min(5, n)}):
                table = elementary_symmetric(n, j, field).weight_values()
                for w in range(n + 1):
                    assert table[w] == self.lucas_digits_binom(w, j, p)

    def test_not_symmetric(self):
        x1 = MultilinearPoly.from_terms(2, F2, {0b01: 1})
        assert symmetric_value_table(x1) is None

    def test_constant(self):
        c = MultilinearPoly.constant(3, F5, 4)
        assert symmetric_value_table(c) == (4, 4, 4, 4)

    def test_certificate_free_check_needs_enumerable_cube(self):
        big = MultilinearPoly.from_terms(64, F2, {0b1: 1})
        with pytest.raises(CapExceeded):
            symmetric_value_table(big)

    def test_detected_symmetry_without_certificate(self):
        e2 = elementary_symmetric(5, 2, F3)
        raw = MultilinearPoly.from_terms(5, F3, e2.terms_map())
        assert not raw.is_symmetric_certified
        assert symmetric_value_table(raw) == e2.weight_values()

    def test_ecoeff_table_roundtrip(self):
        rng = random.Random(9)
        for p in (2, 3, 5):
            n = 9
            coeffs = [rng.randrange(p) for _ in range(n + 1)]
            vals = weight_values_from_ecoeffs(n, coeffs, p)
            back = ecoeffs_from_weight_values(vals, p)
            assert back == [c % p for c in coeffs]


def comb_table(n, coeffs):
    """Reference: sum_j coeffs[j] C(w, j) at every weight, term by term."""
    return [sum(c * comb(w, j) for j, c in enumerate(coeffs))
            for w in range(n + 1)]


def comb_ecoeffs(values, p):
    """Reference: forward substitution through the unitriangular [C(w, j)]."""
    coeffs = []
    for w, v in enumerate(values):
        acc = sum(c * comb(w, j) for j, c in enumerate(coeffs))
        coeffs.append((v - acc) % p)
    return coeffs


class TestForwardDifferenceTransforms:
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 300),
           st.integers(0, 10**6))
    @example(7, 300, 1)
    @settings(max_examples=40, deadline=None)
    def test_both_directions_match_binomial_sums(self, p, n, seed):
        rng = random.Random(seed)
        values = [rng.randrange(-p, 2 * p) for _ in range(n + 1)]
        coeffs = ecoeffs_from_weight_values(values, p)
        assert coeffs == comb_ecoeffs(values, p)
        assert weight_values_from_ecoeffs(n, coeffs, p) == [v % p for v in values]
        deg = rng.randrange(n + 3)
        raw = [rng.randrange(-p, 2 * p) for _ in range(deg)]
        assert weight_values_from_ecoeffs(n, raw, p) == [
            v % p for v in comb_table(n, raw)]

    @given(st.integers(0, 300), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_integer_mode_is_exact(self, n, seed):
        rng = random.Random(seed)
        raw = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(n + 3))]
        assert weight_values_from_ecoeffs(n, raw) == comb_table(n, raw)


class TestElementarySymmetric:
    def test_e0_is_one(self):
        assert elementary_symmetric(4, 0, F3).terms_map() == {0: 1}

    def test_e1_values(self):
        e1 = elementary_symmetric(6, 1, F5)
        assert e1.weight_values() == tuple(w % 5 for w in range(7))

    def test_e2_table_n4_f2(self):
        assert elementary_symmetric(4, 2, F2).weight_values() == (0, 0, 1, 1, 0)

    @given(st.integers(1, 10), st.sampled_from([2, 3, 5]), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_from_sym_is_lazy_and_matches_eager_terms(self, n, p, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(n + 2))]
        # the term map an eager construction builds: c_j on every |m| = j
        eager = {m: c % p for j, c in enumerate(coeffs) if c % p
                 for m in slice_masks(n, j)}
        poly = MultilinearPoly.from_sym(n, field, coeffs)
        assert poly._terms is None
        by_terms = MultilinearPoly.from_terms(n, field, eager)
        masks = list(range(1 << n))
        assert [poly.evaluate(m) for m in masks] == [by_terms.evaluate(m)
                                                     for m in masks]
        assert list(poly.evaluate_many(masks)) == list(
            by_terms.evaluate_many(masks))
        assert poly._terms is None
        if eager:
            with pytest.raises(CapExceeded):
                poly.terms_map(Caps(max_terms=len(eager) - 1))
        assert poly._terms is None
        assert poly.terms_map(Caps(max_terms=len(eager))) == eager
        assert poly._terms is not None
        assert poly.sorted_terms() == by_terms.sorted_terms()

    def test_lazy_above_cap(self):
        e = elementary_symmetric(64, 8, F2)
        assert e.is_symmetric_certified
        assert e._terms is None
        assert e.weight_value(8) == 1
        assert e.evaluate((1 << 10) - 1) == comb(10, 8) % 2
        with pytest.raises(CapExceeded):
            e.terms_map(Caps(max_terms=1000))


class TestJson:
    def test_roundtrip_canonical(self):
        poly = MultilinearPoly.from_terms(5, F5, {0b10100: 3, 0b00001: 2,
                                                  0b00110: 4})
        d = poly_to_json_dict(poly)
        masks = [t["mask"] for t in d["terms"]]
        assert masks == ["0x1", "0x6", "0x14"]  # graded, then numeric
        assert [t["c"] for t in d["terms"]] == [2, 4, 3]
        assert json.loads(json.dumps(d)) == d

    def test_zero_poly_empty_terms(self):
        d = poly_to_json_dict(MultilinearPoly.zero(3, F2))
        assert d["terms"] == []

