"""Degree-D vanishing ideals, closures of point sets, and ideal sampling.

The degree-D ideal of a point set E is the nullspace of its monomial
evaluation matrix; a point lies in the degree-D closure of E exactly when
its evaluation row lies in the row space of that matrix.  Membership is
answered by one frozen RankOracle per (E, D), instead of evaluating a
possibly huge ideal basis: one row reduction per candidate, or, when E is a
union of full weight slices, one per candidate weight.

A point set is a 1-D uint64 array of n-bit masks, taken as it is; any other
iterable of ints is converted once.  Monomials and weight slices are
cached, read-only uint64 arrays (``cube.monomial_array``,
``cube.slice_array``), and a candidate set is a uint64 array made of them
(``Candidates.masks``: the cached slices, or the full cube as an
``arange``).  Weights are read off the arrays by ``np.bitwise_count``;
distinct masks and weights are found by sorting and ``np.bincount``, since
``np.unique`` without an index or count output, and so ``np.isin``, loads
``numpy.ma`` (numpy 2.4).
Masks leave the arrays as Python ints (``tolist``), so no numpy scalar
reaches a report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS, MAX_ROWS, Caps, check_cap
from .cube import (CHUNK_CELLS, Mask, MultilinearPoly, monomial_array,
                   n_monomials, point_array, weight_slices)
from .linalg import PrimeField, RankOracle, pack_bool_rows  # noqa: F401 (re-export)


def evaluation_bool_matrix(monomials: Sequence[Mask],
                           point_masks: Iterable[Mask]) -> np.ndarray:
    """0/1 matrix: entry (i, j) = 1 iff monomial j is supported inside point i."""
    monos, pts = point_array(monomials), point_array(point_masks)
    out = np.empty((len(pts), len(monos)), dtype=np.uint8)
    if len(pts) == 0 or len(monos) == 0:
        return out
    chunk = max(1, CHUNK_CELLS // len(monos))
    for lo in range(0, len(pts), chunk):
        sub = pts[lo:lo + chunk]
        out[lo:lo + chunk] = ((monos[None, :] & ~sub[:, None]) == 0)
    return out


class EvaluationMatrix:
    """Evaluation rows of all monomials of degree <= D at a point set E.

    Column order is the canonical monomial order, ``monomials`` (a shared
    read-only uint64 array); row i belongs to the i-th point of E,
    ``points[i]``.
    """

    def __init__(self, field: PrimeField, n: int, degree: int,
                 points: Iterable):
        self.field = field
        self.n = n
        self.degree = degree
        self.points = point_array(points, n)
        check_cap(len(self.points), MAX_ROWS, "evaluation matrix rows")
        self.monomials = monomial_array(n, degree)

    @property
    def n_d(self) -> int:
        return len(self.monomials)

    def bool_matrix(self) -> np.ndarray:
        return evaluation_bool_matrix(self.monomials, self.points)

    def point_row_bool(self, mask: Mask) -> np.ndarray:
        return evaluation_bool_matrix(self.monomials, [mask])[0]

    def oracle(self) -> RankOracle:
        """Frozen rank oracle on this matrix's rows."""
        return RankOracle.from_rows(self.field, self.bool_matrix())

    # the oracle takes the 0/1 evaluation row as it is
    row_for_oracle = point_row_bool


def batch_member(oracle: RankOracle, bool_rows: np.ndarray) -> list[bool]:
    """Row-space membership for many candidate rows at once."""
    return oracle.members(bool_rows)


def poly_from_coeffs(n: int, field: PrimeField, monomials: np.ndarray,
                     coeffs) -> MultilinearPoly:
    """The polynomial with coefficient ``coeffs[j]`` on ``monomials[j]``, an
    array of masks that become Python ints."""
    return MultilinearPoly.from_terms(
        n, field, {m: int(c) for m, c in zip(monomials.tolist(), coeffs) if c})


def ideal_basis(field: PrimeField, n: int, points: Iterable,
                degree: int) -> list[MultilinearPoly]:
    """Basis of the degree-D vanishing ideal of E (size N_D - rank)."""
    ev = EvaluationMatrix(field, n, degree, points)
    oracle = ev.oracle()
    basis = [poly_from_coeffs(n, field, ev.monomials, v)
             for v in oracle.nullspace()]
    if basis and len(ev.points):
        # sampled vanishing check; full verification is quadratic
        rng = random.Random(0xBA5E5)
        pts = ev.points.tolist()
        pairs = [(rng.choice(pts), rng.choice(basis))
                 for _ in range(min(1000, len(pts) * len(basis)))]
        if not all(poly.evaluate(pt) == 0 for pt, poly in pairs):
            raise AssertionError("an ideal basis element does not vanish on E")
    return basis


@dataclass(frozen=True)
class Candidates:
    """Explicit candidate set: the full cube or a union of weight slices."""

    n: int
    kind: str  # "full" | "slices"
    weights: tuple = ()

    @classmethod
    def full_cube(cls, n: int) -> "Candidates":
        return cls(n, "full")

    @classmethod
    def slices(cls, n: int, weights: Sequence[int]) -> "Candidates":
        return cls(n, "slices", tuple(sorted(set(weights))))

    def masks(self, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
        """The candidates as a uint64 array: the full cube in numeric order,
        or the cached slices by weight."""
        if self.kind == "full":
            check_cap(1 << self.n, caps.max_slice_points, "full-cube candidates")
            return np.arange(1 << self.n, dtype=np.uint64)
        check_cap(sum(comb(self.n, w) for w in self.weights),
                  caps.max_slice_points, "candidate slice points")
        return weight_slices(self.n, self.weights)

    def describe(self) -> dict:
        if self.kind == "full":
            return {"kind": "full", "n": self.n}
        return {"kind": "slices", "n": self.n, "weights": list(self.weights)}


@dataclass
class ClosureResult:
    """Rank data of E's evaluation matrix plus closure membership."""

    n: int
    p: int
    degree: int
    e_size: int
    rank: int
    n_d: int
    candidates: Candidates
    member_masks: list
    closure_count: int

    @property
    def per_slice_counts(self) -> dict[int, int]:
        weights, counts = np.unique(np.bitwise_count(
            point_array(self.member_masks, self.n)), return_counts=True)
        return dict(zip(weights.tolist(), counts.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "D": self.degree,
            "E_size": self.e_size,
            "rank": self.rank,
            "N_D": self.n_d,
            "candidates": self.candidates.describe(),
            "closure_count": self.closure_count,
            "per_slice_counts": {str(w): c
                                 for w, c in sorted(self.per_slice_counts.items())},
        }


def _is_slice_union(n: int, masks: Iterable) -> bool:
    """True iff the distinct masks, all in [0, 2^n), are exactly a union of
    full weight slices of the n-cube."""
    pts = np.sort(point_array(masks, n))
    first = np.ones(len(pts), dtype=bool)
    first[1:] = pts[1:] != pts[:-1]
    counts = np.bincount(np.bitwise_count(pts[first]), minlength=n + 1)
    return all(c in (0, comb(n, w)) for w, c in enumerate(counts.tolist()))


def closure(field: PrimeField, n: int, points: Iterable, degree: int,
            candidates: Candidates, caps: Caps = DEFAULT_CAPS) -> ClosureResult:
    """cl_D(E) restricted to an explicit candidate set.

    A candidate is in the closure iff its evaluation row reduces to zero
    against the frozen row space of E's evaluation matrix.  When E is a
    union of full weight slices, its closure is permutation-invariant, so
    only the representative (1 << w) - 1 of each candidate weight w is
    reduced; otherwise every candidate row is.
    """
    ev = EvaluationMatrix(field, n, degree, points)
    oracle = ev.oracle()
    cand_masks = candidates.masks(caps)
    members = []
    if len(cand_masks):
        if _is_slice_union(n, ev.points):
            cand_weights = np.bitwise_count(cand_masks)
            weights = np.flatnonzero(np.bincount(cand_weights))
            inside = np.zeros(n + 1, dtype=bool)
            inside[weights] = batch_member(oracle, evaluation_bool_matrix(
                ev.monomials, [(1 << w) - 1 for w in weights.tolist()]))
            members = cand_masks[inside[cand_weights]].tolist()
        else:
            rows = evaluation_bool_matrix(ev.monomials, cand_masks)
            flags = batch_member(oracle, rows)
            members = cand_masks[np.array(flags, dtype=bool)].tolist()
    return ClosureResult(
        n=n, p=field.p, degree=degree, e_size=len(ev.points),
        rank=oracle.rank, n_d=ev.n_d, candidates=candidates,
        member_masks=members, closure_count=len(members),
    )


def nie_wang_check(field: PrimeField, n: int, points: Iterable, degree: int,
                   caps: Caps = DEFAULT_CAPS):
    """Exact check of |cl_D(E)| / 2^n <= |E| / N_D.

    Returns (lhs, rhs, holds) as exact rationals plus a boolean.
    """
    res = closure(field, n, points, degree, Candidates.full_cube(n), caps)
    lhs = Fraction(res.closure_count, 1 << n)
    rhs = Fraction(res.e_size, n_monomials(n, degree))
    return lhs, rhs, lhs <= rhs


def hamming_ball(n: int, radius: int) -> np.ndarray:
    """All points within Hamming distance ``radius`` of the origin."""
    return weight_slices(n, range(radius + 1))


def ball_fact_check(field: PrimeField, n: int, d: int) -> bool:
    """True iff no nonzero degree-<=d multilinear polynomial vanishes on a
    radius-d Hamming ball (equivalently, the ball's degree-d ideal is {0})."""
    basis = ideal_basis(field, n, hamming_ball(n, d), d)
    return len(basis) == 0


class IdealSampler:
    """Uniform sampler over the degree-D vanishing ideal of E.

    Emits uniform F_p-combinations of a fixed nullspace basis; the zero
    polynomial appears with probability exactly p^-dim.
    """

    def __init__(self, field: PrimeField, n: int, points: Iterable, degree: int,
                 seed: int, caps: Caps = DEFAULT_CAPS):
        self.field = field
        self.n = n
        self.degree = degree
        ev = EvaluationMatrix(field, n, degree, points)
        self.monomials = ev.monomials
        basis = ev.oracle().nullspace()
        self.basis_matrix = (
            np.array(basis, dtype=np.int64)
            if basis else np.zeros((0, ev.n_d), dtype=np.int64)
        )
        self.rng = random.Random(seed)
        self.caps = caps

    @property
    def dim(self) -> int:
        return self.basis_matrix.shape[0]

    def _combination(self, vectors) -> list[int]:
        """One uniform F_p-combination of the ``dim`` rows of ``vectors``,
        summed in Python ints: dim products of up to (p - 1)^2 wrap int64
        once p nears 2^31."""
        p = self.field.p
        coeffs = [self.rng.randrange(p) for _ in range(self.dim)]
        return [sum(c * v for c, v in zip(coeffs, col)) % p
                for col in zip(*vectors)]

    def sample(self) -> MultilinearPoly:
        return poly_from_coeffs(self.n, self.field, self.monomials,
                                self._combination(self.basis_matrix.tolist()))

    def sample_values_at(self, mask: Mask, count: int) -> list[int]:
        """Values of ``count`` independent samples at one point (fast path)."""
        row = evaluation_bool_matrix(self.monomials, [mask])[0].astype(np.int64)
        if self.dim == 0:
            return [0] * count
        basis_vals = np.mod(self.basis_matrix @ row[:, None], self.field.p).tolist()
        return [self._combination(basis_vals)[0] for _ in range(count)]

    def exhaustive_values_at(self, mask: Mask) -> list[int]:
        """Values at one point of every ideal element (all p^dim of them),
        the first basis coefficient varying fastest."""
        p = self.field.p
        check_cap(p ** self.dim, self.caps.max_slice_points,
                  "exhaustive ideal enumeration")
        row = evaluation_bool_matrix(self.monomials, [mask])[0].astype(np.int64)
        vals = [0]
        for bv in np.mod(self.basis_matrix @ row, p).tolist():
            vals = [(v + t * bv) % p for t in range(p) for v in vals]
        return vals
