"""Degree-D vanishing ideals, closures of point sets, and ideal sampling.

The degree-D ideal of a point set E is the nullspace of its monomial
evaluation matrix; a point lies in the degree-D closure of E exactly when
its evaluation row lies in the row space of that matrix.  Membership is
answered by one frozen RankOracle per (E, D), instead of evaluating a
possibly huge ideal basis: one row reduction per candidate, or, when E is a
union of full weight slices, one per candidate weight.

A point set is a 1-D uint64 array of n-bit masks, taken as it is; any other
iterable of ints is converted once.  Masks leave the array as Python ints
(``tolist``), so no numpy scalar reaches a report.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps, check_cap
from .cube import (CHUNK_CELLS, Mask, MultilinearPoly, monomials_upto,
                   n_monomials, popcount, slice_masks)
from .linalg import PrimeField, RankOracle, pack_bool_rows  # noqa: F401 (re-export)


def _mask_array(masks: Iterable[Mask]) -> np.ndarray:
    """The masks as a 1-D uint64 array; a uint64 array is taken as it is."""
    if isinstance(masks, np.ndarray) and masks.dtype == np.uint64:
        return masks
    try:
        return np.fromiter(masks, dtype=np.uint64)
    except OverflowError as e:
        raise ValueError(f"a mask is outside [0, 2^64): {e}") from None


def evaluation_bool_matrix(monomials: Sequence[Mask],
                           point_masks: Iterable[Mask]) -> np.ndarray:
    """0/1 matrix: entry (i, j) = 1 iff monomial j is supported inside point i."""
    monos = np.array(monomials, dtype=np.uint64)
    pts = _mask_array(point_masks)
    out = np.empty((len(pts), len(monomials)), dtype=np.uint8)
    if len(pts) == 0 or len(monomials) == 0:
        return out
    chunk = max(1, CHUNK_CELLS // max(1, len(monomials)))
    for lo in range(0, len(pts), chunk):
        sub = pts[lo:lo + chunk]
        out[lo:lo + chunk] = ((monos[None, :] & ~sub[:, None]) == 0)
    return out


class EvaluationMatrix:
    """Evaluation rows of all monomials of degree <= D at a point set E.

    Column order is the canonical monomial order; row i belongs to the i-th
    point of E, ``points[i]``.
    """

    def __init__(self, field: PrimeField, n: int, degree: int,
                 points: Iterable, caps: Caps = DEFAULT_CAPS):
        self.field = field
        self.n = n
        self.degree = degree
        check_cap(n, 64, "evaluation matrix variables n")
        self.points = _mask_array(points)
        if len(self.points) and int(self.points.max()) >> n:
            raise ValueError(f"a point is outside [0, 2^{n})")
        check_cap(len(self.points), caps.max_rows, "evaluation matrix rows")
        self.monomials = monomials_upto(n, degree, caps)
        self.caps = caps

    @property
    def n_d(self) -> int:
        return len(self.monomials)

    def bool_matrix(self) -> np.ndarray:
        return evaluation_bool_matrix(self.monomials, self.points)

    def point_row_bool(self, mask: Mask) -> np.ndarray:
        return evaluation_bool_matrix(self.monomials, [mask])[0]

    def oracle(self, labels: bool = False) -> RankOracle:
        """Frozen rank oracle on this matrix's rows."""
        row_labels = self.points.tolist() if labels else None
        return RankOracle.from_rows(self.field, self.bool_matrix(), row_labels)

    # the oracle takes the 0/1 evaluation row as it is
    row_for_oracle = point_row_bool


def batch_member(oracle: RankOracle, bool_rows: np.ndarray) -> list[bool]:
    """Row-space membership for many candidate rows at once."""
    return oracle.members(bool_rows)


def _polys_from_coeff_vectors(vectors, monomials, n, field) -> list[MultilinearPoly]:
    out = []
    for v in vectors:
        terms = {monomials[j]: int(c) for j, c in enumerate(v) if c}
        out.append(MultilinearPoly.from_terms(n, field, terms))
    return out


def ideal_basis(field: PrimeField, n: int, points: Iterable, degree: int,
                caps: Caps = DEFAULT_CAPS) -> list[MultilinearPoly]:
    """Basis of the degree-D vanishing ideal of E (size N_D - rank)."""
    ev = EvaluationMatrix(field, n, degree, points, caps)
    oracle = ev.oracle()
    basis = _polys_from_coeff_vectors(
        oracle.nullspace(), ev.monomials, n, field)
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

    def masks(self, caps: Caps = DEFAULT_CAPS) -> list[Mask]:
        if self.kind == "full":
            check_cap(1 << self.n, caps.max_slice_points, "full-cube candidates")
            return list(range(1 << self.n))
        total = sum(comb(self.n, w) for w in self.weights)
        check_cap(total, caps.max_slice_points, "candidate slice points")
        out: list[Mask] = []
        for w in self.weights:
            out.extend(slice_masks(self.n, w))
        return out

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
        counts: dict[int, int] = {}
        for m in self.member_masks:
            w = popcount(m)
            counts[w] = counts.get(w, 0) + 1
        return counts

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


def _is_slice_union(n: int, masks: Sequence[Mask]) -> bool:
    """True iff the distinct masks, all in [0, 2^n), are exactly a union of
    full weight slices of the n-cube."""
    counts = Counter(popcount(m) for m in set(masks))
    return all(c == comb(n, w) for w, c in counts.items())


def closure(field: PrimeField, n: int, points: Iterable, degree: int,
            candidates: Candidates, caps: Caps = DEFAULT_CAPS) -> ClosureResult:
    """cl_D(E) restricted to an explicit candidate set.

    A candidate is in the closure iff its evaluation row reduces to zero
    against the frozen row space of E's evaluation matrix.  When E is a
    union of full weight slices, its closure is permutation-invariant, so
    only the representative (1 << w) - 1 of each candidate weight w is
    reduced; otherwise every candidate row is.
    """
    ev = EvaluationMatrix(field, n, degree, points, caps)
    oracle = ev.oracle()
    cand_masks = candidates.masks(caps)
    members = []
    if cand_masks:
        if _is_slice_union(n, ev.points.tolist()):
            weights = sorted({popcount(m) for m in cand_masks})
            flags = batch_member(oracle, evaluation_bool_matrix(
                ev.monomials, [(1 << w) - 1 for w in weights]))
            inside = {w for w, ok in zip(weights, flags) if ok}
            members = [m for m in cand_masks if popcount(m) in inside]
        else:
            rows = evaluation_bool_matrix(ev.monomials, cand_masks)
            flags = batch_member(oracle, rows)
            members = [m for m, ok in zip(cand_masks, flags) if ok]
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


def hamming_ball(n: int, radius: int, center: Mask = 0) -> list[Mask]:
    """All points within Hamming distance ``radius`` of ``center``."""
    out: list[Mask] = []
    for d in range(radius + 1):
        for m in slice_masks(n, d):
            out.append(m ^ center)
    return out


def ball_fact_check(field: PrimeField, n: int, d: int,
                    caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff no nonzero degree-<=d multilinear polynomial vanishes on a
    radius-d Hamming ball (equivalently, the ball's degree-d ideal is {0})."""
    basis = ideal_basis(field, n, hamming_ball(n, d), d, caps)
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
        ev = EvaluationMatrix(field, n, degree, points, caps)
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

    def _coeffs(self) -> np.ndarray:
        return np.array(
            [self.rng.randrange(self.field.p) for _ in range(self.dim)],
            dtype=np.int64,
        )

    def sample_coeff_vector(self) -> np.ndarray:
        """Coefficient vector over the monomial columns of one uniform sample."""
        if self.dim == 0:
            return np.zeros(len(self.monomials), dtype=np.int64)
        return np.mod(self._coeffs() @ self.basis_matrix, self.field.p)

    def sample(self) -> MultilinearPoly:
        vec = self.sample_coeff_vector()
        terms = {self.monomials[j]: int(c) for j, c in enumerate(vec) if c}
        return MultilinearPoly.from_terms(self.n, self.field, terms)

    def sample_values_at(self, mask: Mask, count: int) -> list[int]:
        """Values of ``count`` independent samples at one point (fast path)."""
        row = evaluation_bool_matrix(self.monomials, [mask])[0].astype(np.int64)
        if self.dim == 0:
            return [0] * count
        basis_vals = np.mod(self.basis_matrix @ row, self.field.p)
        out = []
        for _ in range(count):
            out.append(int(np.mod(self._coeffs() @ basis_vals, self.field.p)))
        return out

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
