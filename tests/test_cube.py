"""Weight slices, multilinear polynomials, and slice statistics."""

import json
import random
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slicedeg.config import CapExceeded, Caps
from slicedeg.cube import (MultilinearPoly, _digit_axes,
                           ecoeffs_from_weight_values, monomials_upto,
                           multilinearize_product, p_adic_part, point_array,
                           poly_to_json_dict, slice_array, slice_stats,
                           weight_values_from_ecoeffs)
from slicedeg.linalg import PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


@pytest.mark.parametrize("p", [1, 0, -1])
def test_p_adic_part_needs_p_at_least_2(p):
    # every q is divisible by 1 and -1, and by no power of 0
    assert p_adic_part(12, 2) == 4 and p_adic_part(18, 3) == 9
    with pytest.raises(ValueError, match="p-adic part"):
        p_adic_part(12, p)


def elementary_symmetric(n, j, field):
    """e_j on n variables, from its certificate: C(w, j) mod p at weight w."""
    return MultilinearPoly.from_sym(n, field, [0] * j + [1])


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
            sign = (-1) ** (s.bit_count() - t.bit_count())
            acc += sign * values[t]
            if t == 0:
                break
            t = (t - 1) & s
        c = acc % field.p
        if c:
            terms[s] = c
    return MultilinearPoly.from_terms(n, field, terms)


def gosper_slice(n, k):
    """Reference enumeration of slice k in numeric order (Gosper's hack):
    the next mask with k bits set after m."""
    if k == 0:
        yield 0
        return
    m, top = (1 << k) - 1, 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


class TestSliceEnumeration:
    def test_slice_array_matches_gosper(self):
        for n in range(21):
            for k in range(n + 1):
                got = slice_array(n, k)
                assert got.dtype == np.uint64
                assert got.tolist() == list(gosper_slice(n, k)), (n, k)
        for k in (0, 1, 2, 62, 63, 64):
            assert slice_array(64, k).tolist() == list(gosper_slice(64, k))

    def test_slice_array_is_cached_and_read_only(self):
        slice_array.cache_clear()
        a = slice_array(9, 4)
        assert slice_array(9, 4) is a
        # the smaller slices it is built from are not kept
        assert slice_array.cache_info().currsize == 1
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0

    @pytest.mark.parametrize("n, k", [(5, -1), (5, 6), (0, 1), (64, 65)])
    def test_weight_outside_the_cube_raises(self, n, k):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            slice_array(n, k)

    def test_more_than_64_variables_is_a_cap(self):
        for k in (0, 1):
            with pytest.raises(CapExceeded, match="variables n"):
                slice_array(65, k)

    def test_term_map_above_64_variables(self):
        # its masks do not fit uint64, but a term map holds Python ints
        poly = MultilinearPoly.from_sym(70, F3, [1, 0, 2])
        terms = poly.terms_map()
        assert terms == {0: 1, **dict.fromkeys(gosper_slice(70, 2), 2)}
        assert poly_to_json_dict(poly)["terms"][:2] == [
            {"mask": "0x0", "c": 1}, {"mask": "0x3", "c": 2}]

    def test_weight_zero(self):
        assert slice_array(3, 0).tolist() == [0]

    def test_order_is_numeric(self):
        assert slice_array(3, 2).tolist() == [0b011, 0b101, 0b110]

    def test_large_slice_count_and_first(self):
        pts = slice_array(14, 7).tolist()
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

    @pytest.mark.parametrize("n", [3, 63, 64])
    def test_mask_out_of_range_rejected(self, n):
        sym = elementary_symmetric(n, 1, F2)
        by_terms = MultilinearPoly.from_terms(n, F2,
                                              {1 << i: 1 for i in range(n)})
        for poly in (sym, by_terms):
            for bad in (1 << n, -1):
                with pytest.raises(ValueError, match="outside"):
                    poly.evaluate(bad)
                with pytest.raises(ValueError, match="outside"):
                    poly.evaluate_many([0, bad])
            top = (1 << n) - 1
            assert poly.evaluate(top) == n % 2
            assert poly.evaluate_many([0, top]).tolist() == [0, n % 2]
        assert sym._terms is None

    def test_an_array_of_another_dtype_is_checked_before_the_cast(self):
        # cast blindly, -1 would be the all-ones point and 1.7 the point 1
        n = 64
        sym = elementary_symmetric(n, 1, F2)
        by_terms = MultilinearPoly.from_terms(n, F2,
                                              {1 << i: 1 for i in range(n)})
        for poly in (sym, by_terms):
            with pytest.raises(ValueError, match="outside"):
                poly.evaluate_many(np.array([-1, 3]))
            with pytest.raises(ValueError, match="not integers"):
                poly.evaluate_many(np.array([1.7, 3.0]))
            for dtype in (np.int64, np.int8, np.uint8):
                assert poly.evaluate_many(np.array([0, 7], dtype=dtype)
                                          ).tolist() == [0, 1]
        with pytest.raises(ValueError, match="not integers"):
            point_array(np.array([1.7, 3.0]), n)
        pts = np.array([5, 3], dtype=np.uint64)
        assert point_array(pts, n) is pts

    def test_a_list_is_checked_as_its_array_would_be(self):
        # cast blindly, 1.7 would be the point 1 and the numpy int64 -1 the
        # all-ones point 2^64 - 1
        n = 64
        with pytest.raises(ValueError, match="not integers"):
            point_array([1.7, 3.0], n)
        with pytest.raises(ValueError, match="outside"):
            point_array(list(np.array([-1, 3])), n)
        for bad in ([-1, 1 << 63], [np.int64(-1), 1 << 63], [1 << 64]):
            with pytest.raises(ValueError, match="outside"):
                point_array(bad, n)
        top = (1 << 64) - 1
        for masks, want in (([], []), ([0, 1 << 63, top], [0, 1 << 63, top]),
                            ([np.uint64(5), 3], [5, 3]),
                            (list(np.array([7, 2], dtype=np.int8)), [7, 2]),
                            ((m for m in (4, 9)), [4, 9])):
            got = point_array(masks, n)
            assert got.dtype == np.uint64 and got.tolist() == want


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

    @pytest.mark.parametrize("w", [-1, 6, 7])
    def test_weight_outside_the_cube_raises(self, w):
        sym = MultilinearPoly.from_sym(5, F3, [1, 2, 1])
        by_terms = MultilinearPoly.from_terms(5, F3, sym.terms_map())
        for poly in (sym, by_terms):
            with pytest.raises(ValueError, match="<= n"):
                slice_stats(poly, w)
        with pytest.raises(ValueError, match="<= n"):
            sym.weight_value(w)

    def test_non_symmetric_at_64_variables(self):
        # points at and above 2^63 are enumerated and evaluated like the rest
        poly = MultilinearPoly.from_terms(
            64, F3, {1 << 63 | 1: 1, 1 << 62: 2, 0b110: 1, 1 << 63: 1})
        assert not poly.is_symmetric_certified
        for m in (1, 2, 3):
            got = slice_stats(poly, m)
            want = sum(1 for x in slice_array(64, m).tolist() if poly.evaluate(x))
            assert (got.nonzero_count, got.slice_size) == (want, comb(64, m))
            assert 0 < want < comb(64, m)

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

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_weight_value_matches_the_table_and_comb(self, p):
        # one weight by the binomial recurrence: the table's entry at every
        # weight, and the sum of comb terms where the degree passes w
        field = PrimeField(p)
        rng = random.Random(p)
        for n in (1, 7, 20):
            poly = MultilinearPoly.from_sym(
                n, field, [rng.randrange(p) for _ in range(n + 1)])
            assert tuple(poly.weight_value(w)
                         for w in range(n + 1)) == poly.weight_values()
        coeffs = [rng.randrange(p) for _ in range(600)]
        poly = MultilinearPoly.from_sym(3000, field, coeffs)
        for w in (0, 5, 599, 1500, 3000):
            assert poly.weight_value(w) == sum(
                c * comb(w, j) for j, c in enumerate(coeffs)) % p

    def test_not_symmetric(self):
        # a polynomial built from terms carries no weight table
        x1 = MultilinearPoly.from_terms(2, F2, {0b01: 1})
        assert not x1.is_symmetric_certified
        assert x1.weight_values() is None

    def test_constant(self):
        c = MultilinearPoly.constant(3, F5, 4)
        assert c.weight_values() == (4, 4, 4, 4)

    def test_detected_symmetry_without_certificate(self):
        # a certified polynomial's term map evaluates to its certificate
        # table on every slice
        e2 = elementary_symmetric(5, 2, F3)
        raw = MultilinearPoly.from_terms(5, F3, e2.terms_map())
        assert not raw.is_symmetric_certified
        assert tuple(set(raw.evaluate_many(slice_array(5, w).tolist()).tolist())
                     for w in range(6)) == tuple({v} for v in e2.weight_values())

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

    def test_largest_prime_at_n_4096_matches_integer_path(self):
        # int64 work arrays at p = 2^31 - 1: each pass of either transform
        # must reduce before its sums could overflow
        p, n = 2**31 - 1, 4096
        rng = random.Random(4096)
        raw = [rng.randrange(-2**70, 2**70) for _ in range(200)]
        ints = weight_values_from_ecoeffs(n, raw)
        assert weight_values_from_ecoeffs(n, raw, p) == [v % p for v in ints]
        assert ecoeffs_from_weight_values(ints, p) == (
            [c % p for c in raw] + [0] * (n + 1 - len(raw)))
        values = [rng.randrange(p) for _ in range(n + 1)]
        coeffs = ecoeffs_from_weight_values(values, p)
        assert weight_values_from_ecoeffs(n, coeffs, p) == values

    @given(st.integers(0, 300), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_integer_mode_is_exact(self, n, seed):
        rng = random.Random(seed)
        raw = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(n + 3))]
        assert weight_values_from_ecoeffs(n, raw) == comb_table(n, raw)


def passes_values(n, coeffs, p):
    """Reference: one running-sum pass per coefficient over the whole table,
    g_j(w) = c_j + sum_{u<w} g_{j+1}(u), O(n * degree) (the transform before
    it ran along base-p digit axes)."""
    vals = np.zeros(n + 1, dtype=np.int64)
    for c in reversed(coeffs):
        vals[1:] = np.cumsum(vals[:n])
        vals[0] = 0
        vals += c % p
        vals %= p
    return vals.tolist()


def passes_ecoeffs(values, p):
    """Reference: one forward-difference pass per order,
    c_j = (Delta^j f)(0)."""
    diffs = np.array([v % p for v in values], dtype=np.int64)
    coeffs = []
    for _ in range(len(values)):
        coeffs.append(int(diffs[0]))
        diffs = np.diff(diffs) % p
    return coeffs


@st.composite
def digit_cases(draw):
    """(p, n, coefficient list, value list): n at and beside a power of p,
    or anywhere in [0, 300]; one prime above every such n."""
    p = draw(st.sampled_from([2, 3, 5, 7, 10007]))
    if p < 10 and draw(st.booleans()):
        L = draw(st.integers(1, {2: 9, 3: 6, 5: 4, 7: 3}[p]))
        n = p**L + draw(st.sampled_from([-1, 0, 1]))
    else:
        n = draw(st.integers(0, 300))
    entry = st.integers(-p, 2 * p)
    kind = draw(st.sampled_from(["empty", "short", "zero", "full"]))
    coeffs = {"empty": st.just([]),
              "short": st.lists(entry, min_size=1, max_size=3),
              "zero": st.lists(st.just(0), max_size=n + 2),
              "full": st.lists(entry, min_size=n + 1, max_size=n + 3)}[kind]
    values = st.lists(entry, min_size=n + 1, max_size=n + 1)
    return p, n, draw(coeffs), draw(values)


class TestDigitAxisTransforms:
    """The transforms along base-p digit axes equal one pass per order."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_axes_at_and_beside_a_power(self, p):
        assert _digit_axes(p**3 - 1, p) == (p, p, p)
        assert _digit_axes(p**3, p) == (2, p, p, p)
        assert _digit_axes(p**3 + 1, p) == (2, p, p, p)
        assert _digit_axes(0, p) == (1,)
        assert _digit_axes(p - 1, p) == (p,)
        assert _digit_axes(300, 10007) == (301,)

    @given(digit_cases())
    @example((2, 512, [1], [1] * 513))
    @example((3, 26, [0] * 27 + [1], [0] * 27))
    @example((10007, 300, [], [10006] * 301))
    @settings(max_examples=120, deadline=None)
    def test_equal_to_one_pass_per_order(self, case):
        p, n, coeffs, values = case
        table = weight_values_from_ecoeffs(n, coeffs, p)
        assert table == passes_values(n, coeffs, p)
        from_values = ecoeffs_from_weight_values(values, p)
        assert from_values == passes_ecoeffs(values, p)
        # the round trip, both ways
        low = [c % p for c in coeffs[:n + 1]]
        assert ecoeffs_from_weight_values(table, p) == (
            low + [0] * (n + 1 - len(low)))
        assert weight_values_from_ecoeffs(n, from_values, p) == [
            v % p for v in values]

    def test_empty_table(self):
        assert ecoeffs_from_weight_values([], 3) == []
        assert weight_values_from_ecoeffs(0, [], 3) == [0]
        assert weight_values_from_ecoeffs(0, [4, 1], 3) == [1]


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
                 for m in slice_array(n, j).tolist()}
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

