"""Vanishing ideals, degree closures, and ideal sampling."""

import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slicedeg import closure as closure_mod, distinguish
from slicedeg.closure import (Candidates, EvaluationMatrix, IdealSampler,
                              ball_fact_check, closure,
                              evaluation_bool_matrix, hamming_ball,
                              ideal_basis, nie_wang_check)
from slicedeg.config import MAX_COLS, CapExceeded, Caps
from slicedeg.cube import (MultilinearPoly, monomials_upto, n_monomials,
                           slice_array)
from slicedeg.linalg import PrimeField, RankOracle

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def closure_by_all_rows(field, n, points, degree, cand_masks):
    """Independent route: reduce every candidate row against E's rows."""
    monos = monomials_upto(n, degree)
    oracle = RankOracle.from_rows(field, evaluation_bool_matrix(monos, points))
    flags = oracle.members(evaluation_bool_matrix(monos, cand_masks))
    return [m for m, ok in zip(cand_masks, flags) if ok]


def slice_union_cases(n, rng):
    """(E, is a union of full slices): one slice, two slices with a
    duplicated point, and the near misses of a slice minus or plus a point."""
    k, j = rng.sample(range(1, n), 2)
    sk = slice_array(n, k).tolist()
    union = sk + slice_array(n, rng.choice([0, j, n])).tolist()
    return [(sk, True), (union + [union[-1]], True),
            (sk[:-1], False), (sk + [(1 << j) - 1], False)]


def closure_by_basis(field, n, points, degree):
    """Independent route: a point is in the closure iff every ideal basis
    polynomial vanishes there."""
    basis = ideal_basis(field, n, points, degree)
    out = []
    for m in range(1 << n):
        if all(b.evaluate(m) == 0 for b in basis):
            out.append(m)
    return out


class TestEvaluationBoolMatrix:
    @pytest.mark.parametrize("n,k,d", [(6, 3, 2), (7, 0, 3), (5, 5, 1)])
    def test_generator_of_masks_equals_list(self, n, k, d):
        monos = list(monomials_upto(n, d))
        got = evaluation_bool_matrix(monos, slice_array(n, k).tolist())
        assert np.array_equal(got, evaluation_bool_matrix(
            monos, slice_array(n, k).tolist()))
        assert got.shape == (comb(n, k), len(monos))

    def test_empty_iterable(self):
        assert evaluation_bool_matrix([0, 1], iter(())).shape == (0, 2)


class TestIdealBasis:
    def test_empty_set_degree0(self):
        basis = ideal_basis(F2, 3, [], 0)
        assert len(basis) == 1
        assert basis[0].terms_map() == {0: 1}  # the constants

    def test_single_point_degree0(self):
        assert ideal_basis(F3, 3, [0b101], 0) == []

    def test_slice42_degree1(self):
        # e_1 - 2 vanishes on the weight-2 slice over every field, so the
        # 6x5 evaluation matrix always has rank 4 and the ideal is 1-dim
        pts = slice_array(4, 2).tolist()
        b2 = ideal_basis(F2, 4, pts, 1)
        assert len(b2) == 1
        assert b2[0].terms_map() == {1: 1, 2: 1, 4: 1, 8: 1}  # e_1 mod 2
        for field in (F3, F5):
            b = ideal_basis(field, 4, pts, 1)
            assert len(b) == 1
            assert b[0].terms_map()[0] == field.p - 2  # constant term -2

    @given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(0, 3),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_basis_vanishes_on_points(self, p, n, degree, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        pts = rng.sample(range(1 << n), rng.randrange(1, (1 << n) + 1))
        for b in ideal_basis(field, n, pts, min(degree, n)):
            assert all(b.evaluate(m) == 0 for m in pts)

    def test_cap(self):
        assert n_monomials(40, 10) > MAX_COLS
        with pytest.raises(CapExceeded, match="monomial count"):
            ideal_basis(F2, 40, [0], 10)

    @pytest.mark.parametrize("field", [F2, F3])
    def test_more_than_64_variables_is_a_cap(self, field):
        # point and monomial masks are uint64, which cannot hold n = 70
        with pytest.raises(CapExceeded):
            EvaluationMatrix(field, 70, 1, [1 << 65]).oracle()

    @pytest.mark.parametrize("point", [0b1000, -1, 1 << 70,
                                       pytest.param(None, id="monomial")])
    def test_points_outside_the_cube_raise(self, point):
        # monomials are converted as points are: a monomial of n = 70 raises
        # ValueError, not OverflowError
        with pytest.raises(ValueError, match="outside"):
            if point is None:
                evaluation_bool_matrix([0, 1 << 69], [0])
            else:
                EvaluationMatrix(F3, 3, 1, [0b111, point])

    def test_a_uint64_array_is_taken_as_it_is(self):
        pts = np.arange(8, dtype=np.uint64)
        ev = EvaluationMatrix(F3, 3, 1, pts)
        assert ev.points is pts
        assert np.array_equal(ev.bool_matrix(), EvaluationMatrix(
            F3, 3, 1, iter(range(8))).bool_matrix())
        # the rows that create the four pivots, as Python ints
        owners = distinguish._rank_critical(ev, 4)
        assert owners == [0, 1, 2, 4] and all(type(m) is int for m in owners)

    @pytest.mark.parametrize("field", [F2, F3])
    def test_a_signed_array_is_checked_before_the_cast(self, field):
        with pytest.raises(ValueError, match="outside"):
            EvaluationMatrix(field, 64, 1, np.array([-1, 3]))
        with pytest.raises(ValueError, match="not integers"):
            EvaluationMatrix(field, 64, 1, np.array([1.0, 3.0]))
        ev = EvaluationMatrix(field, 64, 1, np.array([0, 3]))
        assert ev.points.dtype == np.uint64 and ev.points.tolist() == [0, 3]

    def test_vanishing_check_survives_python_O(self):
        # a basis that fails the sampled check must raise with asserts off
        code = (
            "import sys\n"
            "if __debug__: sys.exit(3)\n"
            "from slicedeg.closure import ideal_basis\n"
            "from slicedeg.cube import MultilinearPoly\n"
            "from slicedeg.linalg import PrimeField\n"
            "MultilinearPoly.evaluate = lambda self, point: 1\n"
            "ideal_basis(PrimeField(2), 4, [0, 1, 2], 1)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        assert "AssertionError: an ideal basis element" in res.stderr


class TestClosure:
    def test_empty_set_is_empty(self):
        res = closure(F2, 3, [], 0, Candidates.full_cube(3))
        assert res.closure_count == 0

    def test_single_point_degree0_full_cube(self):
        res = closure(F3, 3, [0b010], 0, Candidates.full_cube(3))
        assert res.closure_count == 8

    def test_ball_radius1_closure_is_everything(self):
        res = closure(F2, 4, hamming_ball(4, 1), 1, Candidates.full_cube(4))
        assert res.closure_count == 16

    def test_candidate_slices(self):
        pts = slice_array(5, 2).tolist()
        res = closure(F2, 5, pts, 1, Candidates.slices(5, [2, 4]))
        assert set(res.per_slice_counts) <= {2, 4}
        assert res.per_slice_counts[2] == comb(5, 2)  # E inside its closure

    def test_json_shape(self):
        res = closure(F2, 4, [0b0011], 1, Candidates.full_cube(4))
        d = res.to_json_dict()
        assert {"n", "p", "D", "E_size", "rank", "N_D", "candidates",
                "closure_count", "per_slice_counts"} <= set(d)

    @given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(0, 2),
           st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_duality_with_basis_route(self, p, n, degree, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        pts = rng.sample(range(1 << n), rng.randrange(0, 1 << n))
        res = closure(field, n, pts, degree, Candidates.full_cube(n))
        assert res.member_masks == closure_by_basis(field, n, pts, degree)

    @given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_set_and_degree(self, p, n, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        small = rng.sample(range(1 << n), rng.randrange(0, 1 << (n - 1)))
        big = small + [m for m in range(1 << n)
                       if m not in small and rng.random() < 0.2]
        d = rng.randrange(0, n)
        cand = Candidates.full_cube(n)
        cl_small = set(closure(field, n, small, d, cand).member_masks)
        cl_big = set(closure(field, n, big, d, cand).member_masks)
        assert cl_small <= cl_big
        cl_higher = set(closure(field, n, small, d + 1, cand).member_masks)
        assert cl_higher <= cl_small

    @given(st.sampled_from([2, 3]), st.integers(2, 6), st.integers(0, 2),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, p, n, degree, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        pts = rng.sample(range(1 << n), rng.randrange(0, (1 << n) // 2))
        cand = Candidates.full_cube(n)
        once = closure(field, n, pts, degree, cand).member_masks
        twice = closure(field, n, once, degree, cand).member_masks
        assert once == twice

    @given(st.integers(3, 8), st.sampled_from([2, 3]), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_slice_unions_close_to_slice_unions(self, n, p, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        weights = [w for w in range(n + 1) if rng.random() < 0.4]
        pts = [m for w in weights for m in slice_array(n, w).tolist()]
        d = rng.randrange(0, 3)
        members = closure(field, n, pts, d,
                          Candidates.full_cube(n)).member_masks
        by_weight = {}
        for m in members:
            by_weight.setdefault(m.bit_count(), set()).add(m)
        for w, got in by_weight.items():
            assert len(got) == comb(n, w)  # whole slice or nothing


class TestSliceUnionRepresentatives:
    @pytest.mark.parametrize("p,n", [(2, 4), (2, 8), (3, 5), (3, 8),
                                     (5, 6), (5, 7)])
    def test_matches_every_candidate_row(self, p, n):
        field = PrimeField(p)
        rng = random.Random(100 * p + n)
        for degree in range(4):
            for points, _ in slice_union_cases(n, rng):
                for cand in (Candidates.full_cube(n), Candidates.slices(
                        n, rng.sample(range(n + 1), 2))):
                    res = closure(field, n, points, degree, cand)
                    want = closure_by_all_rows(field, n, points, degree,
                                               cand.masks())
                    assert res.member_masks == want
                    assert res.closure_count == len(want)
                    assert res.e_size == len(points)

    @pytest.mark.parametrize("p", [2, 3])
    def test_reduced_row_count(self, p, monkeypatch):
        shapes = []
        batch_member = closure_mod.batch_member

        def recording(oracle, rows):
            shapes.append(rows.shape)
            return batch_member(oracle, rows)

        monkeypatch.setattr(closure_mod, "batch_member", recording)
        n, rng = 8, random.Random(p)
        cases = slice_union_cases(n, rng) + [(rng.sample(range(1 << n), 40),
                                              False)]
        for points, is_union in cases:
            shapes.clear()
            closure(PrimeField(p), n, points, 2, Candidates.full_cube(n))
            rows = [r for r, _ in shapes]
            assert rows == ([n + 1] if is_union else [1 << n])


class TestNieWang:
    def test_ball_equality(self):
        for field in (F2, F3):
            lhs, rhs, holds = nie_wang_check(field, 5, hamming_ball(5, 2), 2)
            assert holds and lhs == rhs == 1

    def test_empty(self):
        lhs, rhs, holds = nie_wang_check(F2, 4, [], 2)
        assert holds and lhs == 0 and rhs == 0

    @given(st.sampled_from([2, 3]), st.integers(3, 9), st.integers(0, 3),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_sets_hold(self, p, n, degree, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        degree = min(degree, n)
        bound = min(n_monomials(n, degree), 1 << n)
        pts = rng.sample(range(1 << n), rng.randrange(0, bound + 1))
        lhs, rhs, holds = nie_wang_check(field, n, pts, degree)
        assert holds

    @given(st.sampled_from([2, 3]), st.integers(3, 8), st.integers(0, 2),
           st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_small_sets_leave_room(self, p, n, degree, seed):
        # |E| < N_D forces the closure to miss part of the cube
        field = PrimeField(p)
        rng = random.Random(seed)
        degree = min(degree, n)
        nd = n_monomials(n, degree)
        size = rng.randrange(0, min(nd, 1 << n))
        pts = rng.sample(range(1 << n), size)
        res = closure(field, n, pts, degree, Candidates.full_cube(n))
        assert res.closure_count < (1 << n)


class TestBallFact:
    @pytest.mark.parametrize("n,d", [(4, 1), (6, 2), (4, 4), (5, 5)])
    def test_examples(self, n, d):
        assert ball_fact_check(F2, n, d)
        assert ball_fact_check(F3, n, d)

    def test_small_grid(self):
        for n in range(2, 7):
            for d in range(n + 1):
                assert ball_fact_check(F2, n, d)


class TestIdealSampler:
    def test_zero_dim_samples_zero(self):
        # full cube at degree n: only the zero polynomial vanishes everywhere
        sampler = IdealSampler(F2, 3, list(range(8)), 3, seed=1)
        assert sampler.dim == 0
        assert all(sampler.sample() == MultilinearPoly.zero(3, F2)
                   for _ in range(5))

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_fraction_exact(self, p):
        field = PrimeField(p)
        sampler = IdealSampler(field, 3, [0b111], 1, seed=0)
        vals = sampler.exhaustive_values_at(0)
        assert len(vals) == p**sampler.dim
        frac = Fraction(sum(1 for v in vals if v), len(vals))
        assert frac == Fraction(p - 1, p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_exhaustive_order_matches_digit_decoding(self, p):
        # element idx has base-p digits t_i (t_0 least significant) as its
        # coefficients on the basis
        sampler = IdealSampler(PrimeField(p), 4, slice_array(4, 2).tolist(), 2,
                               seed=0)
        assert sampler.dim >= 2
        row = evaluation_bool_matrix(sampler.monomials, [0b1011])[0]
        basis_vals = [int(v) % p for v in sampler.basis_matrix @ row]
        want = []
        for idx in range(p ** sampler.dim):
            digits = [(idx // p ** i) % p for i in range(sampler.dim)]
            want.append(sum(t * b for t, b in zip(digits, basis_vals)) % p)
        assert sampler.exhaustive_values_at(0b1011) == want

    def test_exhaustive_respects_slice_point_cap(self):
        pts = slice_array(4, 2).tolist()
        dim = IdealSampler(F3, 4, pts, 2, seed=0).dim
        tight = IdealSampler(F3, 4, pts, 2, seed=0,
                             caps=Caps(max_slice_points=3 ** dim))
        assert len(tight.exhaustive_values_at(0)) == 3 ** dim
        over = IdealSampler(F3, 4, pts, 2, seed=0,
                            caps=Caps(max_slice_points=3 ** dim - 1))
        with pytest.raises(CapExceeded):
            over.exhaustive_values_at(0)

    def test_empirical_frequency(self):
        pts = slice_array(4, 2).tolist()
        sampler = IdealSampler(F2, 4, pts, 2, seed=42)
        vals = sampler.sample_values_at(0b1111, 5000)
        freq = sum(1 for v in vals if v) / len(vals)
        assert abs(freq - 0.5) <= 0.02

    def test_samples_vanish_on_points(self):
        pts = slice_array(5, 2).tolist()
        sampler = IdealSampler(F3, 5, pts, 2, seed=9)
        for poly in (sampler.sample() for _ in range(10)):
            assert all(poly.evaluate(m) == 0 for m in pts)
            assert poly.degree <= 2

    def test_sample_values_match_slow_path(self):
        pts = [0b0011, 0b1100, 0b0110]
        fast = IdealSampler(F3, 4, pts, 2, seed=5)
        slow = IdealSampler(F3, 4, pts, 2, seed=5)
        vals_fast = fast.sample_values_at(0b1111, 20)
        vals_slow = [s.evaluate(0b1111) for s in (slow.sample()
                                                  for _ in range(20))]
        assert vals_fast == vals_slow

    def test_largest_prime_combinations_are_exact(self):
        # dim = 8 products of up to (p - 1)^2 ~ 2^62 wrap an int64 sum
        field, pts = PrimeField(2**31 - 1), [0b0011, 0b1100, 0b0110]
        sampler = IdealSampler(field, 4, pts, 2, seed=0)
        assert sampler.dim == 8
        for _ in range(50):
            poly = sampler.sample()
            assert all(poly.evaluate(m) == 0 for m in pts)
        # the fast path against the same draws summed in Python ints
        fast = IdealSampler(field, 4, pts, 2, seed=1)
        row = evaluation_bool_matrix(fast.monomials, [0b1111])[0]
        basis_vals = [sum(int(b) for b, r in zip(vec, row) if r)
                      for vec in fast.basis_matrix]
        draws = random.Random(1)
        want = [sum(draws.randrange(field.p) * v for v in basis_vals) % field.p
                for _ in range(200)]
        assert fast.sample_values_at(0b1111, 200) == want
