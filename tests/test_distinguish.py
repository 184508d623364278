"""Exact and robust minimum slice-distinguishing degree."""

import functools
import hashlib
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
import pytest

from slicedeg import distinguish
from slicedeg.closure import (EvaluationMatrix, evaluation_bool_matrix,
                              poly_from_coeffs)
from slicedeg.config import CapExceeded, Caps
from slicedeg.cube import (MultilinearPoly, monomials_upto, slice_array)
from slicedeg.distinguish import (SliceDistinguishInstance, midslice_consistency,
                                  exact_min_degree, exhaustive_robust,
                                  gap_degree_sweep, p_adic_part, robust_search)
from slicedeg.constructions import lucas_poly
from slicedeg.linalg import PrimeField, RankOracle

F2 = PrimeField(2)


def brute_min_degree(n, p, k, K, dmax):
    """Independent oracle: enumerate EVERY polynomial of degree <= d.

    Only feasible when p^(N_d) is tiny; returns the least d <= dmax with a
    polynomial vanishing on all of slice k and nonzero somewhere on slice K.
    """
    field = PrimeField(p)
    k_masks = slice_array(n, k).tolist()
    K_masks = slice_array(n, K).tolist()
    for d in range(dmax + 1):
        monos = monomials_upto(n, d)
        assert p ** len(monos) <= 200_000, "oracle instance too large"
        for coeffs in itertools.product(range(p), repeat=len(monos)):
            if not any(coeffs):
                continue
            poly = MultilinearPoly.from_terms(
                n, field, {m: c for m, c in zip(monos, coeffs) if c})
            if all(poly.evaluate(a) == 0 for a in k_masks) and \
                    any(poly.evaluate(b) != 0 for b in K_masks):
                return d
    return None


def brute_robust_min_degree_gf2(n, k, K, removals):
    """Independent numpy-only oracle for the robust minimum over GF(2)."""
    k_masks = slice_array(n, k).tolist()
    K_masks = slice_array(n, K).tolist()
    for d in range(n + 1):
        monos = np.array(monomials_upto(n, d), dtype=np.uint64)
        rows_k = ((monos[None, :] & ~np.array(k_masks, dtype=np.uint64)[:, None])
                  == 0).astype(np.uint8)
        rows_K = ((monos[None, :] & ~np.array(K_masks, dtype=np.uint64)[:, None])
                  == 0).astype(np.uint8)
        for removed in itertools.chain.from_iterable(
                itertools.combinations(range(len(k_masks)), r)
                for r in range(removals + 1)):
            keep = np.ones(len(k_masks), dtype=bool)
            for i in removed:
                keep[i] = False
            base = rows_k[keep]
            rank_base = _gf2_rank(base.copy())
            for row in rows_K:
                if _gf2_rank(np.vstack([base, row[None, :]])) > rank_base:
                    return d
    return None


def greedy_reference(p, n, k, d, removals):
    """Independent greedy rule with no ``RankOracle``: absorb the slice-k
    rows as Python-int lists in point order, count per pivot the rows
    reduced against it, and return the points that created the
    ``removals`` pivots with the fewest (ties to the lower column)."""
    monos = monomials_upto(n, d)
    pivots, owner, deps = {}, {}, {}
    for m in slice_array(n, k).tolist():
        row = [int(mono & ~m == 0) for mono in monos]
        for c in sorted(pivots):
            if row[c]:
                deps[c] += 1
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, pivots[c])]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for c, prow in pivots.items():
            if prow[lead]:
                f = prow[lead]
                pivots[c] = [(x - f * y) % p for x, y in zip(prow, row)]
        pivots[lead], owner[lead], deps[lead] = row, m, 0
    order = sorted(pivots, key=lambda c: (deps[c], c))
    return sorted(owner[c] for c in order[:removals])


def _gf2_rank(a):
    a = a % 2
    rank = 0
    rows, cols = a.shape
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, c]:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def _exhaustive_by_rebuild(n, p, k, K, max_removals):
    """Reference for ``exhaustive_robust``: one oracle rebuilt from the
    remaining slice-k rows for every error set, in the same order."""
    field = PrimeField(p)
    size_k = comb(n, k)
    k_masks = slice_array(n, k).tolist()
    K_masks = slice_array(n, K).tolist()
    per_degree = {}
    for d in range(n + 1):
        ev, full = distinguish._slice_oracle(field, n, k, d)
        k_rows = ev.bool_matrix()
        K_rows = evaluation_bool_matrix(ev.monomials, K_masks)
        best = None
        for r in range(max_removals + 1):
            for removed in itertools.combinations(range(size_k), r):
                oracle = full
                if removed:
                    oracle = RankOracle(field, ev.n_d)
                    oracle.extend(np.delete(k_rows, removed, axis=0))
                outside = oracle.members(K_rows).count(False)
                if outside:
                    best = (removed, outside)
                    break
            if best:
                break
        if best is None:
            per_degree[d] = 0
            continue
        removed, outside = best
        per_degree[d] = outside
        return distinguish.DistinguishReport(
            degree=d, mode="exhaustive", n=n, p=p, k=k, K=K,
            outside_count=outside, per_degree_outside=per_degree,
            slice_sizes=(size_k, comb(n, K)),
            error_set=[k_masks[i] for i in removed],
        )
    raise AssertionError("no distinguisher up to degree n")


class TestInstance:
    def test_rejects_equal_slices(self):
        with pytest.raises(ValueError):
            SliceDistinguishInstance(n=8, p=2, k=3, K=3)

    def test_rejects_boundary_k(self):
        with pytest.raises(ValueError):
            SliceDistinguishInstance(n=8, p=2, k=0, K=2)


class TestVariableLimit:
    @pytest.mark.parametrize("n", [65, 70])
    def test_every_solver_raises_cap_exceeded(self, n):
        # a point of n > 64 variables does not fit a uint64 mask
        inst = SliceDistinguishInstance(n=n, p=2, k=1, K=2)
        for solve in (lambda: exact_min_degree(n, 2, 1, 2),
                      lambda: gap_degree_sweep(2, [n]),
                      lambda: exhaustive_robust(n, 2, 1, 2, 0),
                      lambda: robust_search(inst, Fraction(0)),
                      lambda: robust_search(inst, Fraction(1, n)),
                      lambda: robust_search(inst, Fraction(1, n), "greedy")):
            with pytest.raises(CapExceeded, match="variables n"):
                solve()


class TestExactMinDegree:
    def test_p_power_gap(self):
        rep = exact_min_degree(8, 2, 3, 5)
        assert rep.degree == 2
        assert rep.mode == "exact"
        assert rep.outside_count == comb(8, 5)
        assert rep.psi_k == 0 and rep.psi_K > 0

    def test_gap_with_unit_p_part(self):
        rep = exact_min_degree(8, 2, 2, 5)
        assert rep.degree == 1
        # witness is the sum of all variables (weight 2 -> 0, weight 5 -> 1)
        assert rep.witness.terms_map() == {1 << i: 1 for i in range(8)}

    def test_rejects_equal(self):
        with pytest.raises(ValueError):
            exact_min_degree(6, 2, 3, 3)

    @pytest.mark.parametrize("n,p,k,K", [
        (4, 2, 1, 3), (4, 2, 2, 3), (4, 2, 1, 2), (5, 2, 2, 4), (4, 3, 1, 2),
    ])
    def test_matches_all_polynomial_enumeration(self, n, p, k, K):
        rep = exact_min_degree(n, p, k, K)
        assert rep.degree == brute_min_degree(n, p, k, K, dmax=rep.degree)

    def test_negation_symmetry(self):
        # the witness path climbs each slice's own ladder
        for (n, p, k, K) in ((7, 2, 2, 4), (8, 2, 3, 5), (9, 3, 2, 5)):
            a = exact_min_degree(n, p, k, K).degree
            b = exact_min_degree(n, p, n - k, n - K).degree
            assert a == b

    def test_outside_count_matches_full_closure(self):
        # every slice-K row is reduced, not one representative per weight
        def outside(n, p, k, K, d):
            monos = monomials_upto(n, d)
            oracle = RankOracle.from_rows(PrimeField(p), evaluation_bool_matrix(
                monos, slice_array(n, k).tolist()))
            return oracle.members(evaluation_bool_matrix(
                monos, slice_array(n, K).tolist())).count(False)

        for (n, p, k, K) in ((6, 2, 2, 4), (7, 3, 2, 5), (8, 2, 4, 6)):
            rep = exact_min_degree(n, p, k, K, want_witness=False)
            assert rep.outside_count == outside(n, p, k, K, rep.degree)
            if rep.degree > 0:
                assert outside(n, p, k, K, rep.degree - 1) == 0

    def test_witness_vanishes_pointwise(self):
        rep = exact_min_degree(7, 2, 2, 4)
        for m in slice_array(7, 2).tolist():
            assert rep.witness.evaluate(m) == 0

    def test_matches_independent_rank_route_midsize(self):
        # separate numpy elimination code, no shared oracle machinery
        from slicedeg.cube import monomials_upto
        for (n, k, K) in ((12, 5, 7), (12, 4, 8), (11, 3, 6)):
            rep = exact_min_degree(n, 2, k, K, want_witness=False)
            k_masks = slice_array(n, k)
            b = (1 << K) - 1
            for d in range(rep.degree + 1):
                monos = np.array(monomials_upto(n, d), dtype=np.uint64)
                rows = ((monos[None, :] & ~k_masks[:, None]) == 0).astype(np.uint8)
                row_b = ((monos & ~np.uint64(b)) == 0).astype(np.uint8)
                base = _gf2_rank(rows.copy())
                grown = _gf2_rank(np.vstack([rows, row_b[None, :]]))
                escaped = grown > base
                assert escaped == (d == rep.degree)

    def test_report_json(self):
        d = exact_min_degree(6, 2, 2, 4).to_json_dict()
        assert {"degree", "mode", "outside_count", "slice_sizes",
                "psi_k", "psi_K", "seed"} <= set(d)


class TestSweep:
    def test_p2_small_range_no_violations(self):
        got = {}
        for gaps in ("ppower", "composite"):
            rows, violations = gap_degree_sweep(2, range(6, 11), gaps=gaps)
            assert not violations
            got.update({(r.n, r.k, r.K): r.degree for r in rows})
        assert got[(10, 2, 8)] == 2  # gap 6 = 2 * 3

    def test_p3_spot_value(self):
        rows, violations = gap_degree_sweep(3, [9], gaps="ppower")
        assert not violations
        got = {(r.n, r.k, r.K): r.degree for r in rows}
        assert got[(9, 3, 6)] == 3

    def test_gap_classes_partition(self):
        pp, _ = gap_degree_sweep(2, [8], gaps="ppower")
        co, _ = gap_degree_sweep(2, [8], gaps="composite")
        # together they cover every gap whose p-adic part fits below k, once
        grid = {(k, k + g) for k in range(1, 8) for g in range(1, 9 - k)
                if p_adic_part(g, 2) <= k}
        assert sorted((r.k, r.K) for r in pp + co) == sorted(grid)
        assert all(r.gap == p_adic_part(r.gap, 2) for r in pp)
        assert all(r.gap != p_adic_part(r.gap, 2) for r in co)

    def test_each_rung_is_built_once(self, monkeypatch):
        # every target K ascends the ladder from d = 0, slices k and n - k
        # share slice min(k, n - k)'s, and the sweep requests the ladder's
        # top rung first: each rung's matrix is made once, from_rows runs
        # once per (p, n, min(k, n - k)) ladder, at its top, and a rung
        # requested below a built top calls neither from_rows nor extend
        built, requests, calls = [], [], []

        class Recording(EvaluationMatrix):
            def __init__(self, field, n, degree, points):
                super().__init__(field, n, degree, points)
                built.append((field.p, n, int(self.points[0]).bit_count(),
                              degree))

        def request(f, n, k, d):
            start = len(calls)
            out = provider(f, n, k, d)
            requests.append(((f.p, n, k), d, calls[start:]))
            return out

        provider = distinguish._slice_oracle
        from_rows, extend = RankOracle.from_rows.__func__, RankOracle.extend
        monkeypatch.setattr(distinguish, "EvaluationMatrix", Recording)
        monkeypatch.setattr(distinguish, "_slice_oracle", request)
        monkeypatch.setattr(RankOracle, "from_rows", classmethod(
            lambda cls, f, rows: calls.append("from_rows")
            or from_rows(cls, f, rows)))
        monkeypatch.setattr(RankOracle, "extend", lambda self, block: (
            calls.append("extend") or extend(self, block)))
        for p in (2, 3):
            for gaps in ("ppower", "composite"):
                built.clear()
                requests.clear()
                distinguish._ladder.clear()
                gap_degree_sweep(p, range(2, 11), gaps=gaps)
                assert len(built) == len(set(built)) > 20
                assert set(built) == {(*key, d) for key, d, _ in requests}
                assert all(2 * k <= n for _, n, k, _ in built)
                tops = {}
                for key, d, _ in requests:
                    tops[key] = max(tops.get(key, d), d)
                eliminating = [(key, d, made.count("from_rows"))
                               for key, d, made in requests if made]
                assert eliminating == [(key, d, 1) for key, d in tops.items()]


class TestComplementMirror:
    """The degree-only answers for k > n/2, read on slice n - k's ladder,
    against the witness path, which climbs slice k's own ladder."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_every_pair_to_n10(self, p):
        # K = 0 and K = n mirror to the full and the empty point
        for n in range(2, 11):
            for k in range(1, n):
                for K in range(n + 1):
                    if K != k:
                        direct = exact_min_degree(n, p, k, K).degree
                        assert exact_min_degree(
                            n, p, k, K, want_witness=False).degree == direct

    @pytest.mark.parametrize("p", [2, 3])
    def test_sweep_rows_equal_the_witness_path(self, p):
        for gaps in ("ppower", "composite"):
            rows, _ = gap_degree_sweep(p, range(2, 12), gaps=gaps)
            assert [(r.n, r.k, r.K) for r in rows] == sorted(
                (r.n, r.k, r.K) for r in rows)
            assert any(2 * r.k > r.n for r in rows)
            top = {}
            for r in rows:
                top[r.n, r.k] = max(top.get((r.n, r.k), 0), r.expected)
            for r in rows:
                direct = exact_min_degree(r.n, p, r.k, r.K).degree
                assert r.degree == min(direct, top[r.n, r.k] + 1)

    @pytest.mark.parametrize("p, n, pairs", [
        (2, 15, ((9, 13), (10, 2), (11, 3), (12, 4), (13, 5), (14, 0))),
        (3, 14, ((8, 14), (9, 12), (11, 2), (12, 3), (13, 0))),
    ])
    def test_beyond_the_sweep_grid(self, p, n, pairs):
        degrees = []
        for k, K in pairs:
            direct = exact_min_degree(n, p, k, K).degree
            assert exact_min_degree(n, p, k, K,
                                    want_witness=False).degree == direct
            degrees.append(direct)
        assert max(degrees) >= 4


class TestPredictedRung:
    """An exact question reads the one rung that Hegedus's lemma predicts,
    and climbs bottom-up outside its range; the prediction sets only the
    cost."""

    @pytest.mark.parametrize("p, n, k, K", [(2, 6, 1, 5), (3, 7, 1, 7)])
    def test_out_of_range_requests_nothing_above_the_degree(
            self, p, n, k, K, monkeypatch):
        assert distinguish._hegedus_degree(n, p, k, K) is None
        requested = []
        provider = distinguish._slice_oracle
        monkeypatch.setattr(distinguish, "_slice_oracle", lambda f, n, k, d: (
            requested.append(d) or provider(f, n, k, d)))
        for want_witness in (True, False):
            requested.clear()
            distinguish._ladder.clear()
            degree = exact_min_degree(n, p, k, K,
                                      want_witness=want_witness).degree
            assert degree == 2 < p_adic_part(K - k, p)
            assert requested == list(range(degree + 1))
            [(_, _, rungs)] = distinguish._ladder.values()
            assert set(rungs) == set(range(degree + 1))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_reports_equal_a_bottom_up_climb(self, p, monkeypatch):
        # every (n <= 10, k, K), in the lemma's range and out of it: the
        # degree and the witness equal a bottom-up climb of direct builds,
        # read by the first nonzero entry of the full residue; the witness
        # path climbs every rung up to the degree, in range after requesting
        # rung q' first
        field = PrimeField(p)
        requested = []
        provider = distinguish._slice_oracle
        monkeypatch.setattr(distinguish, "_slice_oracle", lambda f, n, k, d: (
            requested.append(d) or provider(f, n, k, d)))
        in_range = 0
        for n in range(2, 11):
            for k in range(1, n):
                rungs = {}
                for K in range(n + 1):
                    if K == k:
                        continue
                    for d in range(n + 1):
                        if d not in rungs:
                            ev = EvaluationMatrix(field, n, d, slice_array(n, k))
                            rungs[d] = ev, ev.oracle()
                        ev, oracle = rungs[d]
                        res = oracle.residue(ev.point_row_bool((1 << K) - 1))
                        if any(res):
                            break
                    f = next(i for i, v in enumerate(res) if v)
                    want = poly_from_coeffs(n, field, ev.monomials,
                                            oracle.nullspace_vector(f))
                    requested.clear()
                    rep = exact_min_degree(n, p, k, K)
                    assert rep.degree == d
                    assert rep.witness.sorted_terms() == want.sorted_terms()
                    q = distinguish._hegedus_degree(n, p, k, K)
                    in_range += q is not None
                    assert requested == [q] * bool(q) + list(range(d + 1))
                    assert exact_min_degree(n, p, k, K,
                                            want_witness=False).degree == d
        assert in_range > 100

    def test_representative_row_equals_its_evaluation(self):
        for n in range(1, 11):
            for d in range(n + 1):
                ev = EvaluationMatrix(F2, n, d, [])
                for K in range(n + 1):
                    row = distinguish._representative_row(ev, K)
                    assert row.dtype == np.uint8
                    assert np.array_equal(row,
                                          ev.point_row_bool((1 << K) - 1))

    @pytest.mark.parametrize("p, n, k, K", [(2, 8, 4, 8), (3, 9, 3, 6)])
    def test_the_lemma_boundary_requests_the_predicted_rung(
            self, p, n, k, K, monkeypatch):
        # k = q' is the least k in the lemma's range; a bottom-up climb
        # there reaches the same degree, so only the requests tell it apart:
        # the degree alone reads rung q' - 1 alone, a witness requests rung
        # q' before it climbs
        q = p_adic_part(K - k, p)
        assert q == k and distinguish._hegedus_degree(n, p, k, K) == q
        requested = []
        provider = distinguish._slice_oracle
        monkeypatch.setattr(distinguish, "_slice_oracle", lambda f, n, k, d: (
            requested.append(d) or provider(f, n, k, d)))
        for want_witness, rungs in ((True, [q, *range(q + 1)]),
                                    (False, [q - 1])):
            requested.clear()
            distinguish._ladder.clear()
            assert exact_min_degree(n, p, k, K,
                                    want_witness=want_witness).degree == q
            assert requested == rungs

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_degree_only_builds_no_rung_at_the_degree(self, p, monkeypatch):
        # in range, on both sides of k, the degree-only answer requests the
        # rung below q' first and none at or above it, and no elimination
        # is as wide as rung q'
        cases = [(n, k, K) for n in range(2, 11) for k in range(1, n)
                 for K in range(n + 1)
                 if K != k and distinguish._hegedus_degree(n, p, k, K)]
        assert {K > k for _, k, K in cases} == {True, False}
        requested, widths = [], []
        provider = distinguish._slice_oracle
        from_rows, extend = RankOracle.from_rows.__func__, RankOracle.extend
        monkeypatch.setattr(distinguish, "_slice_oracle", lambda f, n, k, d: (
            requested.append(d) or provider(f, n, k, d)))
        monkeypatch.setattr(RankOracle, "from_rows", classmethod(
            lambda cls, f, rows: widths.append(np.shape(rows)[1])
            or from_rows(cls, f, rows)))
        monkeypatch.setattr(RankOracle, "extend", lambda self, block: (
            widths.append(self.cols) or extend(self, block)))
        for n, k, K in cases:
            requested.clear()
            widths.clear()
            distinguish._ladder.clear()
            q = p_adic_part(abs(K - k), p)
            assert exact_min_degree(n, p, k, K,
                                    want_witness=False).degree == q
            assert requested[0] == max(requested) == q - 1
            assert widths and max(widths) < len(monomials_upto(n, q))

    def test_out_of_range_stays_below_the_column_cap(self):
        # q' = 8 is out of range at k = 2, and rung q' - 1 = 7 would need
        # N_7 = 26,333 columns; the bottom-up climb stops at 3
        assert distinguish._hegedus_degree(16, 2, 2, 10) is None
        with pytest.raises(CapExceeded):
            monomials_upto(16, 7)
        assert exact_min_degree(16, 2, 2, 10, want_witness=False).degree == 3

    def test_separator_certifies_the_p_adic_part(self):
        # C(|x| - k, q') separates every pair with p in {2, 3, 5} and
        # n <= 10, K on both sides of k, and C(|x| - k, q' / p) none
        certified = refused = 0
        for p in (2, 3, 5):
            field = PrimeField(p)
            for n in range(2, 11):
                for k in range(1, n):
                    for K in range(n + 1):
                        if K == k:
                            continue
                        q = p_adic_part(abs(K - k), p)
                        certified += distinguish._separates(field, n, k, K, q)
                        if q > 1:
                            refused += not distinguish._separates(
                                field, n, k, K, q // p)
        assert (certified, refused) == (990, 248)

    def test_failed_separator_raises(self, monkeypatch):
        monkeypatch.setattr(distinguish, "_separates", lambda *a: False)
        with pytest.raises(AssertionError, match="does not separate"):
            exact_min_degree(9, 3, 3, 6, want_witness=False)
        code = (
            "import sys\n"
            "if __debug__: sys.exit(3)\n"
            "from slicedeg import distinguish\n"
            "distinguish._separates = lambda *a: False\n"
            "distinguish.exact_min_degree(9, 3, 3, 6, want_witness=False)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        assert "AssertionError: C(|x| - k, 3) does not separate" in res.stderr


class TestExhaustiveRobust:
    def test_zero_removals_equals_exact(self):
        ex = exhaustive_robust(8, 2, 4, 6, 0)
        assert ex.degree == exact_min_degree(8, 2, 4, 6).degree == 2

    def test_frozen_oracle_values(self):
        # brute-force oracle values for the reference instance, fixed here
        assert exhaustive_robust(8, 2, 4, 6, 1).degree == 2
        assert exhaustive_robust(8, 2, 4, 6, 2).degree == 2

    def test_matches_independent_numpy_oracle(self):
        for (n, k, K, r) in ((6, 3, 4, 1), (6, 2, 4, 1), (7, 3, 5, 1)):
            got = exhaustive_robust(n, 2, k, K, r).degree
            assert got == brute_robust_min_degree_gf2(n, k, K, r)

    def test_monotone_in_removals(self):
        degs = [exhaustive_robust(7, 2, 3, 5, r).degree for r in (0, 1, 2)]
        assert degs == sorted(degs, reverse=True)

    @pytest.mark.parametrize("p, n_max", [(2, 7), (3, 6), (5, 6)])
    def test_matches_rebuild_per_error_set(self, p, n_max):
        # includes the instances whose answer removes rows: a removal that
        # lowers the rank lets some slice-K rows escape
        with_errors = 0
        for n in range(3, n_max + 1):
            for k in range(1, n):
                for K in range(n + 1):
                    if K == k:
                        continue
                    for removals in (0, 1, 2):
                        got = exhaustive_robust(n, p, k, K, removals)
                        want = _exhaustive_by_rebuild(n, p, k, K, removals)
                        assert got.to_json_dict() == want.to_json_dict()
                        with_errors += bool(got.error_set)
        assert with_errors > 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_error_set_may_remove_the_whole_slice(self, p):
        # over odd p, rebuilding from no rows raised ValueError
        rep = exhaustive_robust(2, p, 1, 0, 2)
        assert (rep.degree, rep.error_set, rep.outside_count) == (0, [1, 2], 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_dependent_sets_in_combinations_order(self, p):
        field, rng = PrimeField(p), np.random.default_rng(p)
        for rows, width in ((9, 3), (7, 5), (5, 0)):
            block = rng.integers(0, p, (rows, width))
            block[1], block[4] = 0, block[2]
            want = [e for r in (1, 2, 3)
                    for e in itertools.combinations(range(rows), r)
                    if RankOracle.from_rows(field, block[list(e)]).rank < r]
            assert list(distinguish._dependent_sets(field, block, 3)) == want

    @pytest.mark.parametrize("n, p, k, K", [(10, 2, 5, 7), (10, 3, 5, 8)])
    def test_beyond_the_rebuild_path(self, n, p, k, K):
        # 1 + 252 + 31,626 error sets per degree below the answer
        inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
        degrees = []
        for removals in (0, 1, 2):
            degree = exhaustive_robust(n, p, k, K, removals).degree
            budget = Fraction(removals, comb(n, k))
            for strategy in ("uniform", "greedy"):
                assert robust_search(inst, budget, strategy=strategy,
                                     seed=1).degree >= degree
            degrees.append(degree)
        assert degrees == sorted(degrees, reverse=True)

    def test_corrupt_left_kernel_raises_under_python_O(self):
        code = (
            "import sys\n"
            "if __debug__: sys.exit(3)\n"
            "from slicedeg import distinguish\n"
            "from slicedeg.linalg import RankOracle\n"
            "vector = RankOracle.nullspace_vector\n"
            "def corrupt(self, free_col):\n"
            "    v = vector(self, free_col)\n"
            "    v[0] = (v[0] + 1) % self.field.p\n"
            "    return v\n"
            "RankOracle.nullspace_vector = corrupt\n"
            "distinguish.exhaustive_robust(6, 3, 2, 4, 1)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        assert ("AssertionError: slice (6, 2) at degree 0: left kernel fails"
                in res.stderr)

    def test_work_respects_slice_point_cap(self):
        # (8, 4) with one removal: (1 + 70) error sets of 70 rows each
        work = (1 + 70) * 70
        assert exhaustive_robust(8, 2, 4, 6, 1,
                                 Caps(max_slice_points=work)).degree == 2
        with pytest.raises(CapExceeded, match="exhaustive robust work"):
            exhaustive_robust(8, 2, 4, 6, 1, Caps(max_slice_points=work - 1))


class TestRobustSearch:
    def test_budget_zero_reproduces_exact(self):
        inst = SliceDistinguishInstance(n=10, p=2, k=5, K=7)
        rep = robust_search(inst, Fraction(0), seed=3)
        assert rep.mode == "exact"
        assert rep.degree == exact_min_degree(10, 2, 5, 7).degree == 2

    @pytest.mark.parametrize("p", [2, 3])
    def test_budget_zero_is_the_exact_report(self, p):
        for n, k, K in ((8, 3, 5), (9, 4, 1), (10, 5, 8)):
            inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
            want = exact_min_degree(n, p, k, K, want_witness=False)
            want.error_set, want.seed = [], random.Random(7).randrange(2**63)
            for strategy in ("uniform", "greedy"):
                got = robust_search(inst, Fraction(0), strategy=strategy,
                                    seed=7)
                assert got.to_json_dict() == want.to_json_dict()

    def test_monotone_in_budget(self):
        inst = SliceDistinguishInstance(n=8, p=2, k=4, K=6)
        degs = []
        for removals in (0, 1, 2, 4):
            budget = Fraction(removals, comb(8, 4))
            degs.append(robust_search(inst, budget, seed=5).degree)
        assert degs == sorted(degs, reverse=True)

    def test_never_below_exhaustive(self):
        inst = SliceDistinguishInstance(n=8, p=2, k=4, K=6)
        for removals in (0, 1, 2):
            budget = Fraction(removals, comb(8, 4))
            oracle = exhaustive_robust(8, 2, 4, 6, removals).degree
            for strategy in ("uniform", "greedy"):
                got = robust_search(inst, budget, strategy=strategy,
                                    seed=1).degree
                assert got >= oracle

    def test_expected_psi_interval(self):
        inst = SliceDistinguishInstance(n=8, p=2, k=4, K=6)
        rep = robust_search(inst, Fraction(0), seed=0)
        assert rep.psi_K_expected == Fraction(1, 2) * rep.psi_K_max

    def test_sampled_mean_matches_expectation(self):
        # mean nonzero count over ideal samples ~ (1 - 1/p) * outside count
        from slicedeg.closure import IdealSampler
        from slicedeg.cube import slice_stats
        n, k, K, d = 8, 4, 6, 2
        pts = slice_array(n, k).tolist()
        sampler = IdealSampler(F2, n, pts, d, seed=11)
        rep = exact_min_degree(n, 2, k, K, want_witness=False)
        c_out = rep.outside_count
        counts = []
        for _ in range(200):
            counts.append(slice_stats(sampler.sample(), K).nonzero_count)
        mean = sum(counts) / len(counts)
        expect = 0.5 * c_out
        sd = (sum((c - mean) ** 2 for c in counts) / (len(counts) - 1)) ** 0.5
        stderr = sd / (len(counts) ** 0.5)
        assert abs(mean - expect) <= 5 * max(stderr, 1e-9)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_greedy_matches_a_plain_absorb(self, p):
        # every (n, k, K) with n <= 9 and 1-3 removals, one rule for every p
        reference = functools.lru_cache(maxsize=None)(greedy_reference)
        for n in range(2, 10):
            for k in range(1, n):
                for K in range(n + 1):
                    for removals in range(1, min(4, comb(n, k))):
                        if K == k:
                            continue
                        inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
                        rep = robust_search(inst, Fraction(removals, comb(n, k)),
                                            strategy="greedy")
                        assert rep.error_set == reference(p, n, k, rep.degree,
                                                          removals)
                        assert all(type(m) is int for m in rep.error_set)

    @pytest.mark.parametrize("p", [2, 3])
    def test_robust_search_never_absorbs(self, p, monkeypatch):
        # criterion 10(b)'s instances: the same reports with no row absorbed
        def reports():
            distinguish._ladder.clear()
            out = []
            for n, k, K in ((8, 4, 6), (8, 3, 5), (7, 3, 5)):
                inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
                for removals in (0, 1, 2):
                    budget = Fraction(removals, comb(n, k))
                    out += [exhaustive_robust(n, p, k, K, removals),
                            robust_search(inst, budget, strategy="uniform"),
                            robust_search(inst, budget, strategy="greedy")]
            return out

        want = reports()

        def absorb(self, row):
            raise AssertionError("RankOracle.absorb called")

        monkeypatch.setattr(RankOracle, "absorb", absorb)
        assert reports() == want


def splitmix64(x):
    """Reference splitmix64 of one index, in Python ints mod 2^64."""
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestRowOrder:
    @pytest.mark.parametrize("size", [0, 1, 2, 56, 3432])
    def test_a_permutation_sorted_by_splitmix64(self, size):
        order = distinguish._row_order(size)
        assert sorted(order.tolist()) == list(range(size))
        assert order.tolist() == sorted(range(size), key=splitmix64)
        assert not order.flags.writeable

    @pytest.mark.parametrize("size, digest", [
        (2, "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0"),
        (56, "2b7c1bf9a5f2525075c0fbbd22d64ae43ec4af6008d6198de64b8559c766ac14"),
        (12870, "9ad04f455719098924b6b3f25304a3ba62875427934ec55820f1a5c79c2771ec"),
    ])
    def test_pinned(self, size, digest):
        order = distinguish._row_order(size).astype("<u8")
        assert hashlib.sha256(order.tobytes()).hexdigest() == digest


class TestSliceOracleProvider:
    def test_exact_after_budget_zero_builds_nothing(self, monkeypatch):
        # both degree-only answers read one ladder, up to the rung below
        # the degree; a witness needs the rung at the degree, built once
        inst = SliceDistinguishInstance(n=9, p=3, k=3, K=6)
        robust_search(inst, Fraction(0))
        builds = []
        from_rows = RankOracle.from_rows
        monkeypatch.setattr(RankOracle, "from_rows", staticmethod(
            lambda *a, **kw: builds.append(a[1].shape) or from_rows(*a, **kw)))
        assert exact_min_degree(9, 3, 3, 6, want_witness=False).degree == 3
        assert builds == []
        rep = exact_min_degree(9, 3, 3, 6)
        assert rep.degree == 3 and rep.witness is not None
        assert [cols for _, cols in builds] == [len(monomials_upto(9, 3))]

    def test_another_slice_clears_the_ladder(self):
        ladder = distinguish._ladder
        first = distinguish._slice_oracle(F2, 7, 3, 2)
        assert distinguish._slice_oracle(F2, 7, 3, 2) is first
        distinguish._slice_oracle(F2, 7, 3, 1)
        assert {key: set(rungs) for key, (_, _, rungs) in ladder.items()} == {
            (F2, 7, 3): {1, 2}}
        distinguish._slice_oracle(F2, 7, 4, 2)
        assert {key: set(rungs) for key, (_, _, rungs) in ladder.items()} == {
            (F2, 7, 4): {2}}
        points, shuffled, _ = ladder[F2, 7, 4]
        assert points.tolist() == slice_array(7, 4).tolist()
        assert shuffled.tolist() == points[distinguish._row_order(35)].tolist()
        again = distinguish._slice_oracle(F2, 7, 3, 2)
        assert again is not first and list(ladder) == [(F2, 7, 3)]

    def test_the_ladder_enumerates_each_slice_once(self, monkeypatch):
        calls = []
        slice_array_ = distinguish.slice_array
        monkeypatch.setattr(distinguish, "slice_array", lambda n, k: (
            calls.append((n, k)) or slice_array_(n, k)))
        degrees = []
        for gaps in ("ppower", "composite"):
            calls.clear()
            distinguish._ladder.clear()
            rows, _ = gap_degree_sweep(2, [12], gaps=gaps)
            # slices k and n - k both climb slice min(k, n - k)'s ladder
            assert calls == [(12, k) for k in range(1, 7)]
            assert any(r.k > 6 for r in rows)
            # each answer of the last slice reads the one rung below its
            # degree, and those rungs all read its one array; the separator
            # answers the degrees themselves
            points, _, rungs = distinguish._ladder[F2, 12, 6]
            assert set(rungs) == {r.degree - 1 for r in rows if r.k == 6}
            assert all(np.shares_memory(ev.points, points)
                       for ev, _ in rungs.values())
            degrees += [r.degree for r in rows]
        assert max(degrees) >= 4

    @pytest.mark.parametrize("p", [2, 3])
    def test_shared_oracles_stay_as_built(self, p):
        n, k, K = 8, 3, 5
        inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
        robust_search(inst, Fraction(0))
        exact_min_degree(n, p, k, K)
        robust_search(inst, Fraction(3, comb(n, k)), strategy="greedy")
        points, shuffled, rungs = distinguish._ladder[PrimeField(p), n, k]
        assert len(rungs) >= 2
        assert points.tolist() == slice_array(n, k).tolist()
        assert sorted(shuffled.tolist()) == points.tolist()
        for d, (ev, oracle) in rungs.items():
            assert ev.degree == d and ev.points is points
            _assert_same_span(oracle, ev.oracle(), random.Random(d))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_certificate_equals_full_build(self, p):
        # every k and d at n <= 9; above, the degrees up to one past
        # min(k, n - k), to n = 12 over F_2 and n = 10 over F_3 and F_5
        field = PrimeField(p)
        rng = random.Random(p)
        for n in range(1, 13 if p == 2 else 11):
            for k in range(n + 1):
                top = n if n <= 9 else min(k, n - k) + 1
                for d in range(top + 1):
                    ev, cert = distinguish._slice_oracle(field, n, k, d)
                    _assert_same_span(cert, ev.oracle(), rng, free_cols=32)

    @pytest.mark.parametrize("p", [2, 3])
    def test_projections_equal_direct_builds(self, p):
        # the top rung first, then every rung below it as its prefix
        field = PrimeField(p)
        rng = random.Random(p)
        for n in range(2, 13):
            for k in range(1, n // 2 + 1):
                distinguish._ladder.clear()
                top = min(k + 1, n)
                distinguish._slice_oracle(field, n, k, top)
                for d in range(top):
                    ev, rung = distinguish._slice_oracle(field, n, k, d)
                    assert ev.degree == d and rung.cols == ev.n_d
                    _assert_same_span(rung, ev.oracle(), rng, free_cols=16)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shared_rungs_are_frozen(self, p):
        # the top and its projections share their rows: extend raises into
        # either, and both keep their pivots and rows
        field, n, k = PrimeField(p), 8, 3
        distinguish._ladder.clear()
        _, top = distinguish._slice_oracle(field, n, k, 3)
        _, low = distinguish._slice_oracle(field, n, k, 2)
        for rung in (top, low):
            before = _stored_rows(rung)
            free = next(f for f in range(rung.cols)
                        if f not in rung.pivot_columns())
            outside = [int(j == free) for j in range(rung.cols)]
            for block in ([outside], [before[min(before)]]):
                with pytest.raises(ValueError, match="frozen"):
                    rung.extend(block)
            assert _stored_rows(rung) == before
        if p > 2:
            assert not top._impl.block.flags.writeable
            assert not low._impl.block.flags.writeable
            assert np.shares_memory(low._impl.block, top._impl.block)

    @pytest.mark.parametrize("p, n, k, d", [(2, 14, 7, 6), (3, 14, 7, 4)])
    def test_certificate_equals_full_build_at_scale(self, p, n, k, d):
        field = PrimeField(p)
        ev, cert = distinguish._slice_oracle(field, n, k, d)
        _assert_same_span(cert, ev.oracle(), random.Random(n), free_cols=64)

    def test_fallback_past_a_stalled_head(self, monkeypatch):
        # in slice order the last pivot comes late, so the head stalls
        field, n, k, d = PrimeField(3), 10, 4, 3
        bound = comb(n, min(d, k, n - k))
        masks = slice_array(n, k).tolist()
        head = RankOracle.from_rows(field, evaluation_bool_matrix(
            monomials_upto(n, d), masks[:bound + distinguish._HEAD_MARGIN]))
        assert head.rank < bound
        monkeypatch.setattr(distinguish, "_row_order", np.arange)
        distinguish._ladder.clear()
        ev, cert = distinguish._slice_oracle(field, n, k, d)
        assert cert.rank == bound
        _assert_same_span(cert, ev.oracle(), random.Random(0))

    def test_rank_above_the_bound_raises(self, monkeypatch):
        # the bound C(8, 2) = 28 is the only comb _slice_oracle takes
        monkeypatch.setattr(distinguish, "comb", lambda a, b: comb(a, b) - 1)
        distinguish._ladder.clear()
        with pytest.raises(AssertionError, match="exceeds C"):
            distinguish._slice_oracle(F2, 8, 3, 2)

    def test_rank_above_the_bound_raises_under_python_O(self):
        code = (
            "import sys\n"
            "if __debug__: sys.exit(3)\n"
            "from slicedeg import distinguish\n"
            "from slicedeg.linalg import PrimeField\n"
            "distinguish.comb = lambda a, b: 1\n"
            "distinguish._slice_oracle(PrimeField(3), 8, 3, 2)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        # with the bound patched to 1 the head is the first 1 + 32 rows of
        # the splitmix64 order, whose rank over F_3 at degree 2 is 27
        assert "AssertionError: rank 27 of slice (8, 3)" in res.stderr

    def test_empty_error_set_takes_the_provider_oracle(self, monkeypatch):
        n, p, k, K = 8, 2, 4, 6
        size_k = comb(n, k)
        absorbed = []  # (oracle width, rows) of every extend
        extend = RankOracle.extend
        monkeypatch.setattr(RankOracle, "extend", lambda self, block:
                            absorbed.append((self.cols, len(block)))
                            or extend(self, block))
        exhaustive_robust(n, p, k, K, 2)  # fills the degree ladder
        absorbed.clear()
        got = exhaustive_robust(n, p, k, K, 2)
        provider = list(absorbed)

        def absorb_every_row(field, n, k, d):
            ev = EvaluationMatrix(field, n, d, slice_array(n, k).tolist())
            oracle = RankOracle(field, ev.n_d)
            oracle.extend(ev.bool_matrix())
            return ev, oracle

        monkeypatch.setattr(distinguish, "_slice_oracle", absorb_every_row)
        absorbed.clear()
        want = exhaustive_robust(n, p, k, K, 2)
        assert got.to_json_dict() == want.to_json_dict()
        # per degree, the ladder's oracle is the one absorption of slice-k
        # rows: the error sets absorb none, and the rest is unchanged
        widths = [len(monomials_upto(n, d)) for d in range(got.degree + 1)]
        assert not [cols for cols, _ in provider if cols in widths]
        assert sorted(absorbed) == sorted(
            provider + [(cols, size_k) for cols in widths])


def _stored_rows(oracle):
    """Each pivot column's stored row, as a list of entries."""
    return {c: [oracle._impl.entry(c, j) for j in range(oracle.cols)]
            for c in oracle.pivot_columns()}


def _assert_same_span(got, want, rng, free_cols=None):
    """Equal RREF: rank, pivots, stored rows, membership, residues,
    nullspace vectors."""
    p = want.field.p
    assert got.rank == want.rank
    assert got.pivot_columns() == want.pivot_columns()
    for c in want.pivot_columns():
        assert np.array_equal(got._impl.pivots[c], want._impl.pivots[c])
    for _ in range(3):
        row = [rng.randrange(p) for _ in range(want.cols)]
        res = want.residue(row)
        inside = [(x - r) % p for x, r in zip(row, res)]  # row - residue
        assert got.residue(row) == res
        assert got.members([row, inside]) == [not any(res), True]
    free = sorted(set(range(want.cols)) - set(want.pivot_columns()))
    if free_cols is not None and len(free) > free_cols:
        free = rng.sample(free, free_cols)
    for f in free:
        assert got.nullspace_vector(f) == want.nullspace_vector(f)


class TestMidsliceConsistency:
    def test_lucas_witness_in_valid_window(self):
        # n and t chosen so the parameter window is nonempty
        n, t = 40000, 2048
        poly = lucas_poly(n, n // 2 - t, t, 2)
        rep = midslice_consistency(n, t, 2, poly)
        assert rep.psi_low == 0 and rep.psi_mid == 1
        assert rep.ell_in_range and rep.eps_window_nonempty and rep.psi_mid_ok
        assert rep.hypotheses_hold
        assert rep.degree == t and rep.degree_ok and rep.consistent

    def test_zero_polynomial_vacuous(self):
        rep = midslice_consistency(64, 8, 2, MultilinearPoly.zero(64, F2))
        assert rep.psi_mid == 0 and not rep.psi_mid_ok
        assert not rep.hypotheses_hold and rep.consistent

    def test_desk_scale_window_is_empty(self):
        # at n = 64, t = 8 the ell range [100, ln(1/eps)/2] is unreachable
        poly = lucas_poly(64, 24, 8, 2)
        rep = midslice_consistency(64, 8, 2, poly)
        assert not rep.ell_in_range
        assert not rep.hypotheses_hold and rep.consistent

    def test_requires_p_power(self):
        with pytest.raises(ValueError):
            midslice_consistency(64, 6, 2, MultilinearPoly.zero(64, F2))

    def test_requires_the_witness_field(self):
        # an F_3 witness has other slice fractions than over F_2
        poly = MultilinearPoly.from_sym(64, PrimeField(3), [2, 1])
        with pytest.raises(ValueError, match="F_3, not F_2"):
            midslice_consistency(64, 8, 2, poly)

    def test_matches_inline_threshold_expressions(self):
        rng = random.Random(4)
        cases = [(40000, 2048, lucas_poly(40000, 20000 - 2048, 2048, 2)),
                 (64, 8, lucas_poly(64, 24, 8, 2)),
                 (1024, 512, MultilinearPoly.constant(1024, F2, 1))]
        cases += [(n, t, MultilinearPoly.from_sym(
                      n, F2, [rng.randrange(2) for _ in range(2 * t + 1)]))
                  for n, t in ((64, 8), (64, 16), (12800, 128))
                  for _ in range(8)]
        for n, t, poly in cases:
            rep = midslice_consistency(n, t, 2, poly)
            # every threshold evaluated in place, per call
            with mp.workdps(40):
                ell_f = mp.mpf(t * t) / mp.mpf(n)
                eps_lo = max(mp.mpf(rep.psi_low.numerator)
                             / mp.mpf(rep.psi_low.denominator),
                             mp.mpf(2) ** (-mp.mpf(n) / 100))
                eps_hi = min(mp.e ** (-200), mp.e ** (-2 * ell_f))
                psi_mid = (mp.mpf(rep.psi_mid.numerator)
                           / mp.mpf(rep.psi_mid.denominator))
                assert rep.ell_in_range == bool(ell_f >= 100)
                assert rep.eps_window_nonempty == bool(eps_lo <= eps_hi)
                assert rep.psi_mid_ok == bool(psi_mid >= mp.e ** (-ell_f / 2))

    def test_memo_equals_the_thresholds_per_call(self):
        # symmetric witnesses (psi 0 or 1) and non-symmetric ones with
        # 0 < psi < 1, each twice, the second time read from the memo
        rng = random.Random(7)
        cases = [(40000, 2048, lucas_poly(40000, 20000 - 2048, 2048, 2)),
                 (64, 8, lucas_poly(64, 24, 8, 2)),
                 (12, 2, MultilinearPoly.from_terms(12, F2, {0b1: 1}))]
        cases += [(12, t, MultilinearPoly.from_terms(12, F2, {
                      rng.randrange(1 << 12) & rng.randrange(1 << 12): 1
                      for _ in range(6)})) for t in (2, 4) for _ in range(4)]
        fractional = 0
        for n, t, poly in cases:
            rep = midslice_consistency(n, t, 2, poly)
            assert midslice_consistency(n, t, 2, poly) == rep
            fractional += 0 < rep.psi_low < 1 and 0 < rep.psi_mid < 1
            with mp.workdps(40):
                ell_f = mp.mpf(t * t) / mp.mpf(n)
                eps_lo = max(mp.mpf(rep.psi_low.numerator)
                             / mp.mpf(rep.psi_low.denominator),
                             mp.mpf(2) ** (-mp.mpf(n) / 100))
                eps_hi = min(mp.e ** (-200), mp.e ** (-2 * ell_f))
                psi_mid = (mp.mpf(rep.psi_mid.numerator)
                           / mp.mpf(rep.psi_mid.denominator))
                assert rep.eps_window_nonempty == bool(eps_lo <= eps_hi)
                assert rep.psi_mid_ok == bool(psi_mid >= mp.e ** (-ell_f / 2))
        assert fractional >= 4

    def test_junta_fails_hypotheses(self):
        # the sampled construction has far too much low-slice mass for the
        # required error scale e^-200, so the hypotheses never hold for it
        import math
        from slicedeg.constructions import (junta_exact_slice_error,
                                            sampling_poly)
        n, k, q = 4096, 2048 - 256, 256
        junta = sampling_poly(n, k, q, math.exp(-4), 2, seed=1)
        psi_low = junta_exact_slice_error(junta, k, "zero")
        with mp.workdps(40):
            needed = mp.e ** (-200)
            assert mp.mpf(psi_low.numerator) / psi_low.denominator > needed
