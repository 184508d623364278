"""Exact and robust minimum degree for distinguishing two weight slices.

The exact solver finds the least d such that some degree-<=d multilinear
polynomial vanishes on all of slice k yet is nonzero somewhere on slice K,
by testing whether a slice-K evaluation row escapes the row space of slice
k's evaluation matrix.  Because both slices are orbits of the symmetric
group and the row space of a full slice is permutation-invariant, escape at
one representative point settles the whole slice; small-case tests verify
this against full closure computations.  One ascent of slice k's degree
ladder (``_ascent``) makes this test for all four solvers, by one read per
rung.  Complementing every coordinate also preserves degree and maps slice
k onto slice n - k, so a search that needs only the degree climbs the
smaller-weight ladder (``_escape_degree``).  The p-adic part q' of the gap
bounds the degree from above by one explicit polynomial (``_separates``).
Where Hegedus's lemma applies it is the exact degree (``_hegedus_degree``):
one read of rung q' - 1 gives the degree alone, and a witness ascent
eliminates rung q' first, so every rung it reads is a prefix.

Robust variants relax the vanishing constraint on an explicit error set,
either heuristically (upper bound) or exactly over all small error sets,
from one left kernel G of slice k's rows R per degree: a slice-K row c0 R
stays in the span of R minus rows E0 iff c0|E0 lies in G|E0.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .config import DEFAULT_CAPS, DPS, Caps, check_cap, frac_str, mpf_fraction
from .closure import (Candidates, EvaluationMatrix, closure,
                      evaluation_bool_matrix, poly_from_coeffs)
from .cube import (MultilinearPoly, binomial_row, p_adic_part, slice_array,
                   slice_stats)
from .linalg import PrimeField, RankOracle, _rref_array


@dataclass(frozen=True)
class SliceDistinguishInstance:
    """Validated parameter bundle (n, p, k, K)."""

    n: int
    p: int
    k: int
    K: int

    def __post_init__(self):
        PrimeField(self.p)  # validates primality
        if not (0 <= self.k <= self.n and 0 <= self.K <= self.n):
            raise ValueError("slices must lie in [0, n]")
        if self.k == self.K:
            raise ValueError("k and K must differ")
        if not (0 < self.k < self.n):
            raise ValueError("k must be strictly inside (0, n)")


@dataclass
class DistinguishReport:
    """Result of an exact, heuristic, or exhaustive degree search."""

    degree: int
    mode: str                      # "exact" | "heuristic-upper-bound" | "exhaustive"
    n: int
    p: int
    k: int
    K: int
    outside_count: int             # slice-K points outside the closure at `degree`
    per_degree_outside: dict
    slice_sizes: tuple
    psi_k: Optional[Fraction] = None
    psi_K: Optional[Fraction] = None
    psi_K_expected: Optional[Fraction] = None   # (1-1/p) * outside fraction
    psi_K_max: Optional[Fraction] = None        # outside fraction (trivial upper)
    witness: Optional[MultilinearPoly] = None
    error_set: Optional[list] = None
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        d = {
            "degree": self.degree,
            "mode": self.mode,
            "n": self.n, "p": self.p, "k": self.k, "K": self.K,
            "outside_count": self.outside_count,
            "per_degree_outside": {str(k): v
                                   for k, v in sorted(self.per_degree_outside.items())},
            "slice_sizes": list(self.slice_sizes),
            "seed": self.seed,
        }
        for name in ("psi_k", "psi_K", "psi_K_expected", "psi_K_max"):
            v = getattr(self, name)
            if v is not None:
                d[name] = frac_str(v)
        if self.error_set is not None:
            d["error_set"] = [hex(m) for m in self.error_set]
        d["has_witness"] = self.witness is not None
        return d


# the current slice's degree ladder: {(field, n, k): (points in slice order,
# the same points in _row_order, {d: (ev, oracle)})}
_ladder: dict[tuple, tuple] = {}
_HEAD_MARGIN, _CHUNK = 32, 64  # rows built beyond the bound; rows per later step
_RESTARTS = 3  # seeded error-set draws of uniform robust search


@lru_cache(maxsize=64)
def _row_order(size: int) -> np.ndarray:
    """The fixed pseudo-random order in which a slice's rows are absorbed:
    the indices 0..size - 1, as a read-only array, sorted by their
    splitmix64 hash (Steele, Lea and Flood, OOPSLA 2014), a bijection of
    uint64, so no two keys tie.

    Any order gives the same oracle: ``_slice_oracle`` stops only at the
    Wilson rank bound or after the last row, and in both cases the oracle
    spans the whole slice, whose RREF is unique.  The order sets only the
    cost, by how soon the rows reach the bound.
    """
    z = np.arange(size, dtype=np.uint64) + 0x9E3779B97F4A7C15  # wraps mod 2^64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    order = np.argsort(z ^ (z >> 31))
    order.flags.writeable = False
    return order


def _slice_oracle(field: PrimeField, n: int, k: int,
                  d: int) -> tuple[EvaluationMatrix, RankOracle]:
    """Evaluation matrix of the full slice k at degree d and a frozen oracle
    on its row space, the only builder of full-slice oracles.

    Over Q the matrix has rank C(n, min(d, k, n - k)) (Wilson, Europ. J.
    Combin. 11, 1990; Filmus, Electron. J. Combin. 23, 2016) and a rank mod
    p never exceeds it, so rows in ``_row_order`` are absorbed only until the
    oracle reaches it: then, or once every row is in, the oracle spans the
    whole slice.  Only the reads its span determines are valid (the RREF,
    ``member``, ``first_escape``, ``nullspace_vector``); a rank above the bound
    raises AssertionError.  As an RREF is unique, those reads are the same
    for every row order; the order sets only how many rows are reduced.

    ``monomial_array`` is graded, so the degree-<=d columns are the first
    N_d of every higher rung.  A rung below one already built is that rung's
    ``prefix``, with no elimination: a stored row whose pivot lies past
    column N_d is zero before it, so the rows with a pivot below N_d, cut to
    N_d columns, are the RREF of the slice's degree-d rows, and an RREF is
    unique, so every read equals a direct build's.  A rung above every built
    one is eliminated on its own, so the sweeps request their ladder's top
    first (``gap_degree_sweep``).  The ladder of the last slice requested is
    kept until another slice is requested; it reads the slice once, as the
    cached ``slice_array``, and every rung's ``points`` is that one array.
    Rungs share their rows, so they are frozen: ``extend`` into one raises
    ValueError.
    """
    if (field, n, k) not in _ladder:
        _ladder.clear()
        pts = slice_array(n, k)
        _ladder[field, n, k] = (pts, pts[_row_order(len(pts))], {})
    points, rows, rungs = _ladder[field, n, k]
    if d not in rungs:
        ev = EvaluationMatrix(field, n, d, points)
        bound = comb(n, min(d, k, n - k))
        above = [e for e in rungs if e > d]
        if above:
            oracle = rungs[min(above)][1].prefix(ev.n_d)
        else:
            head = copy.copy(ev)  # the same columns, evaluated at the first rows
            lo = bound + _HEAD_MARGIN
            head.points = rows[:lo]
            oracle = head.oracle()
            while oracle.rank < bound and lo < len(rows):
                oracle.extend(evaluation_bool_matrix(ev.monomials,
                                                     rows[lo:lo + _CHUNK]))
                lo += _CHUNK
        if oracle.rank > bound:
            raise AssertionError(f"rank {oracle.rank} of slice ({n}, {k}) at "
                                 f"degree {d} exceeds C(n, min(d, k, n - k)) = {bound}")
        rungs[d] = (ev, oracle.freeze())
    return rungs[d]


def _representative_row(ev: EvaluationMatrix, K: int) -> np.ndarray:
    """``ev``'s 0/1 row at slice K's representative (1 << K) - 1, with no
    evaluation: a monomial lies inside the first K variables iff its mask
    is below 2^K."""
    return (ev.monomials <= np.uint64((1 << K) - 1)).view(np.uint8)


def _separates(field: PrimeField, n: int, k: int, K: int, q: int) -> bool:
    """Whether C(|x| - k, q) = sum_{j <= q} C(-k, q - j) e_j(x), of degree
    <= q, is 0 on slice k and nonzero on slice K (slices n - k and n - K
    when K < k, which x -> 1 - x maps to k and K, keeping the degree).

    On slice K it is C(K - k, q).  For q = q' = ``p_adic_part(K - k, p)``,
    Lucas's theorem reads that mod p as the base-p digit of K - k at q',
    (K - k) / q' mod p, which is nonzero: the least escape degree is at most
    q'.  At q = q' / p the digit is 0.
    """
    if K < k:
        k, K = n - k, n - K
    sep = MultilinearPoly.from_sym(n, field, binomial_row(-k, 0, q)[::-1])
    return (sep.degree <= q and sep.weight_value(k) == 0
            and sep.weight_value(K) != 0)


def _hegedus_degree(n: int, p: int, k: int, K: int) -> Optional[int]:
    """The exact degree separating slice k from slice K when k lies in the
    range of Hegedus's lemma, q' <= k if K > k (q' <= n - k if K < k), for
    q' = ``p_adic_part(|K - k|, p)``; None outside that range.

    The lemma: over characteristic p, a polynomial of degree < q = p^l that
    vanishes on a slice j in [q, n - q] vanishes on slice j + q.  Applied
    with q' on each step of length q' from k to K (from n - k to n - K after
    x -> 1 - x when K < k), it gives degree >= q'; ``_separates`` gives
    <= q'.  Outside the range the degree can fall below q' (n = 6, k = 1,
    K = 5 has degree 2 over F_2, not 4).
    """
    q = p_adic_part(abs(K - k), p)
    return q if q <= (k if K > k else n - k) else None


def _ascent(field: PrimeField, n: int, k: int, K: int, rungs: range):
    """Rungs (d, ev, oracle, f) of slice k's ladder for d in ``rungs``, up
    to the first that slice K's representative escapes: f is the first
    nonzero column of its row's residue, None while the row is a member.

    The only test of slice K against the ladder: the row space of a full
    slice is permutation-invariant, so escape at one point of slice K is
    escape at all of them.  Rung e < d is rung d's prefix (``_slice_oracle``)
    and the monomial order is graded, so the residue at d cut to N_e columns
    is the residue at e: the least escape degree up to d is the degree of
    monomial f.  The canonical nullspace vector of free column f at d is
    that degree's padded with zeros (a stored row with its pivot past f is
    zero at f), and its value at the representative is residue entry f, so
    it is a witness.  Some d <= n always escapes, else AssertionError.
    """
    for d in rungs:
        ev, oracle = _slice_oracle(field, n, k, d)
        f = oracle.first_escape(_representative_row(ev, K))
        yield d, ev, oracle, f
        if f is not None:
            return
    if d == n:
        raise AssertionError("no distinguisher up to degree n; this cannot happen")


def _escape_degree(field: PrimeField, n: int, k: int, K: int) -> int:
    """The least d at which slice K escapes slice k's span.

    x -> 1 - x on every coordinate maps the degree-<=d multilinear
    polynomials onto themselves, over every field, and weight w to n - w, so
    (n, k, K) and (n, n - k, n - K) have the same answer: for k > n - k this
    climbs slice n - k's ladder towards n - K.  Callers that read slice k's
    rungs (a witness, an error set) use ``_ascent`` on slice k itself.

    Slice K escapes at q' = ``p_adic_part(|K - k|, p)`` (``_separates``; a
    failed check raises AssertionError), so only rungs below q' are read.
    In the lemma's range, whose guard reads the same on both sides of the
    mirror, that is rung q' - 1 alone; outside it the climb is bottom-up, as
    the degree can be far below q' and rung q' - 1 wider than ``MAX_COLS``.
    """
    if k > n - k:
        k, K = n - k, n - K
    q = p_adic_part(abs(K - k), field.p)
    if not _separates(field, n, k, K, q):
        raise AssertionError(f"C(|x| - k, {q}) does not separate slice {k} "
                             f"from slice {K} of n = {n} over F_{field.p}")
    start = q - 1 if _hegedus_degree(n, field.p, k, K) else 0
    *_, (_, ev, _, f) = _ascent(field, n, k, K, range(start, q))
    return q if f is None else int(ev.monomials[f]).bit_count()


def _exact_report(field: PrimeField, n: int, k: int, K: int, caps: Caps,
                  want_witness: bool) -> DistinguishReport:
    """The report of the least escape degree, for ``exact_min_degree`` and
    zero-budget ``robust_search``.  A witness is read off slice k's own
    ladder by a bottom-up ``_ascent``, whose rungs in the lemma's range are
    prefixes of rung ``_hegedus_degree``, eliminated first.  (Rung q' alone
    gives the same witness; perfbench's ``degree_steps`` counts the climb.)
    The degree alone comes from ``_escape_degree``."""
    if want_witness:
        q = _hegedus_degree(n, field.p, k, K)
        if q is not None:
            _slice_oracle(field, n, k, q)
        *_, (d, ev, oracle, f) = _ascent(field, n, k, K, range(n + 1))
    else:
        d = _escape_degree(field, n, k, K)
    p, size_K = field.p, comb(n, K)
    report = DistinguishReport(
        degree=d, mode="exact", n=n, p=p, k=k, K=K, outside_count=size_K,
        per_degree_outside={**dict.fromkeys(range(d), 0), d: size_K},
        slice_sizes=(comb(n, k), size_K),
        psi_K_expected=Fraction(p - 1, p), psi_K_max=Fraction(1),
    )
    if want_witness:
        report.witness = w = poly_from_coeffs(n, field, ev.monomials,
                                              oracle.nullspace_vector(f))
        report.psi_k = slice_stats(w, k, caps).psi
        report.psi_K = slice_stats(w, K, caps).psi
    return report


def exact_min_degree(n: int, p: int, k: int, K: int,
                     caps: Caps = DEFAULT_CAPS,
                     want_witness: bool = True) -> DistinguishReport:
    """Least d such that some degree-<=d polynomial vanishes on all of slice k
    and is nonzero at some point of slice K (``_ascent``)."""
    SliceDistinguishInstance(n=n, p=p, k=k, K=K)
    check_cap(comb(n, k), caps.max_slice_points, f"slice size C({n},{k})")
    check_cap(comb(n, K), caps.max_slice_points, f"slice size C({n},{K})")
    return _exact_report(PrimeField(p), n, k, K, caps, want_witness)


@dataclass
class SweepRow:
    n: int
    k: int
    K: int
    gap: int
    expected: int          # largest p-power dividing the gap
    degree: int
    ok: bool


def gap_degree_sweep(p: int, n_values: Sequence[int], gaps: str = "ppower"):
    """Exact minimum degree across a grid, compared against the p-adic part
    of the gap.

    gaps: "ppower" sweeps gaps that are powers of p, "composite" the rest.
    A p-power gap g requires g <= k <= n - g (below k = g the equality
    genuinely fails, e.g. n=6, k=1, K=5 over F_2 has degree 2, not 4); a
    composite gap g only requires its p-adic part q' <= k and k + g <= n.
    Rows share the rank oracle across all gaps, and slices k and n - k
    are taken one after the other on slice min(k, n - k)'s ladder
    (``_escape_degree``).  Every target is in the lemma's range, so an
    answer reads the rung below its expected degree, which the separator
    certifies.  The ladder's top, the highest of those rungs over k and
    n - k, is requested first, so it is the ladder's one elimination and
    every other rung its prefix (``_slice_oracle``).  Rows are sorted by
    (n, k, K).

    Returns (rows, violations).
    """
    if gaps not in ("ppower", "composite"):
        raise ValueError(f"unknown gap class {gaps!r}")
    field = PrimeField(p)
    rows: list[SweepRow] = []
    for n in n_values:
        targets: dict[int, dict[int, int]] = {}  # k -> {K: expected}
        for k in range(1, n):
            targets[k] = {}
            for g in range(1, n - k + 1):
                qp = p_adic_part(g, p)
                is_pp = qp == g
                lo = g if is_pp else max(1, qp)
                if lo <= k <= n - g and is_pp == (gaps == "ppower"):
                    targets[k][k + g] = qp
        for k in sorted(range(1, n), key=lambda k: (min(k, n - k), k)):
            if not targets[k]:
                continue
            _slice_oracle(field, n, min(k, n - k), max(
                max(targets[j].values(), default=0) for j in (k, n - k)) - 1)
            for K, expected in sorted(targets[k].items()):
                degree = _escape_degree(field, n, k, K)
                rows.append(SweepRow(n=n, k=k, K=K, gap=K - k,
                                     expected=expected, degree=degree,
                                     ok=(degree == expected)))
    rows.sort(key=lambda r: (r.n, r.k, r.K))
    violations = [row for row in rows if not row.ok]
    return rows, violations


def _dependent_sets(field: PrimeField, block: np.ndarray, max_size: int):
    """Index sets of 1 to ``max_size`` linearly dependent rows of a block, by
    size in ``combinations`` order.  P + (j,) is dependent iff P is or row j
    is in the span of the rows P: one ``extend`` and ``members`` per P."""
    rows, cols = block.shape
    for size in range(1, max_size + 1):
        for prefix in combinations(range(rows), size - 1):
            head = RankOracle(field, cols)
            head.extend(block[list(prefix)])
            start = prefix[-1] + 1 if prefix else 0
            inside = (head.members(block[start:]) if head.rank == len(prefix)
                      else [True] * (rows - start))
            for j in (np.flatnonzero(inside) + start).tolist():
                yield prefix + (j,)


def exhaustive_robust(n: int, p: int, k: int, K: int, max_removals: int,
                      caps: Caps = DEFAULT_CAPS) -> DistinguishReport:
    """Exact robust minimum degree over ALL error sets of size <= max_removals.

    The least d at which, for some error set E0, a slice-K point escapes the
    closure of slice k minus E0.  The empty set escapes first at the exact
    degree d0 (``_ascent``); below d0 the other sets are tried by size in
    ``combinations`` order, and the first with an escape is reported.

    Let X and R be the slice-K and slice-k evaluation matrices, X in span(R).
    One oracle on the rows of [R^T | X^T] gives, cut to the first |R|
    entries, a basis G of {c : cR = 0} (free columns of R^T) and for each row
    x of X a solution c0(x) of c0 R = x (minus the vector of x's column).  So
    x stays in span(R minus E0) iff c0(x)|E0 is in the span of G's columns
    E0, and rank(R minus E0) = rank R - |E0| + rank G^T[E0]: only an E0 with
    dependent rows G^T[E0] is tested, per row x, with width |E0|.  A failed
    check of G R = 0 or C0 R = X (mod p) raises AssertionError.
    """
    SliceDistinguishInstance(n=n, p=p, k=k, K=K)
    field = PrimeField(p)
    size_k = comb(n, k)
    total_sets = sum(comb(size_k, j) for j in range(max_removals + 1))
    check_cap(total_sets * size_k, caps.max_slice_points,
              "exhaustive robust work")
    K_masks = slice_array(n, K)
    per_degree: dict[int, int] = {}
    for d, ev, _, f in _ascent(field, n, k, K, range(n + 1)):
        outside, removed = (0 if f is None else len(K_masks)), ()
        if f is None and max_removals:
            X = evaluation_bool_matrix(ev.monomials, K_masks)
            R = ev.bool_matrix()
            both = RankOracle.from_rows(field, np.hstack([R.T, X.T]))
            sol = np.array(both.nullspace(), dtype=np.int64)[:, :size_k]
            kernel, c0 = sol[:-len(X)], -sol[-len(X):] % p
            check = np.vstack([kernel, c0]) @ R.astype(np.int64) % p
            if check[:len(kernel)].any() or (check[len(kernel):] != X).any():
                raise AssertionError(f"slice ({n}, {k}) at degree {d}: left "
                                     "kernel fails G R = 0 or C0 R = X mod p")
            for removed in _dependent_sets(field, kernel.T, max_removals):
                span = RankOracle(field, len(removed))
                span.extend(kernel[:, list(removed)])
                outside = span.members(c0[:, list(removed)]).count(False)
                if outside:
                    break
        per_degree[d] = outside
        if outside:
            return DistinguishReport(
                degree=d, mode="exhaustive", n=n, p=p, k=k, K=K,
                outside_count=outside, per_degree_outside=per_degree,
                slice_sizes=(size_k, len(K_masks)),
                error_set=ev.points[list(removed)].tolist(),
            )


def _rank_critical(ev: EvaluationMatrix, removals: int) -> list[int]:
    """Greedy's error set: the sorted indices, as Python ints, of the
    ``removals`` rows of ``ev`` that create the pivots with the fewest
    dependents when the rows are absorbed in order.

    A row creates the pivot at the first nonzero entry of its residue: the
    rank profile, one ``_rref_array`` on every field.  Every stored row is
    zero in the other pivot columns, so a later row is reduced against pivot
    c exactly when its own entry at c is nonzero; that count is the pivot's
    dependents.  Ties go to the lower column.
    """
    block = ev.bool_matrix()
    _, cols, sources = _rref_array(block, ev.field.p)
    owner = dict(zip(cols, sources))  # pivot column -> row creating it
    deps = {c: int(np.count_nonzero(block[i + 1:, c])) for c, i in owner.items()}
    lowest = sorted(owner, key=lambda c: (deps[c], c))[:removals]
    return sorted(owner[c] for c in lowest)


def robust_search(inst: SliceDistinguishInstance, eps0_budget: Fraction,
                  strategy: str = "uniform", seed: int = 0,
                  caps: Caps = DEFAULT_CAPS) -> DistinguishReport:
    """Heuristic upper bound on the robust minimum degree.

    Climbs slice k's degree ladder (``_ascent``) and reads slice k from each
    rung's points: at degree d it picks the rows E0 of an error set within
    the budget and stops at the least d at which some candidate of slice K
    lies outside the closure of the rung's points minus E0
    (``closure.closure``).  At the rung where slice K escapes the span of
    all of slice k, it escapes the smaller span too, so all C(n, K) points
    are outside with no closure computed.  A zero budget is the exact report
    (``_exact_report``) with E0 empty.  Uniform search draws E0 as row
    indices, the best of ``_RESTARTS`` seeded draws; greedy search, the same
    rule for every p, takes the rows that create the pivots with the fewest
    later rows nonzero in their column (``_rank_critical``).  The error set
    is reported as E0's masks, sorted.  The degree is an upper bound on the
    true robust minimum.
    """
    if strategy not in ("uniform", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not (0 <= eps0_budget < 1):
        raise ValueError("eps0_budget must lie in [0, 1)")
    n, p, k, K = inst.n, inst.p, inst.k, inst.K
    field = PrimeField(p)
    size_k, size_K = comb(n, k), comb(n, K)
    check_cap(size_k + size_K, caps.max_slice_points, "slice sizes")
    removals = int(eps0_budget * size_k)
    master = random.Random(seed)
    restart_seeds = [master.randrange(2**63) for _ in range(_RESTARTS)]
    if removals == 0:
        report = _exact_report(field, n, k, K, caps, want_witness=False)
        report.error_set, report.seed = [], restart_seeds[0]
        return report
    if strategy == "greedy":
        restart_seeds = restart_seeds[:1]

    best: Optional[DistinguishReport] = None
    for rs in restart_seeds:
        rng = random.Random(rs)
        per_degree: dict[int, int] = {}
        for d, ev, _, f in _ascent(field, n, k, K, range(n + 1)):
            if strategy == "uniform":
                rows = rng.sample(range(size_k), removals)
            else:
                rows = _rank_critical(ev, removals)
            error_set = sorted(ev.points[rows].tolist())
            outside = size_K
            if f is None:
                kept = closure(field, n, np.delete(ev.points, rows), d,
                               Candidates.slices(n, [K]), caps)
                outside = size_K - kept.closure_count
            per_degree[d] = outside
            if outside:
                break
        report = DistinguishReport(
            degree=d, mode="heuristic-upper-bound", n=n, p=p, k=k, K=K,
            outside_count=outside, per_degree_outside=per_degree,
            slice_sizes=(size_k, size_K),
            psi_K_expected=Fraction(p - 1, p) * Fraction(outside, size_K),
            psi_K_max=Fraction(outside, size_K),
            error_set=error_set, seed=rs,
        )
        if best is None or (report.degree, error_set) < (best.degree,
                                                          best.error_set):
            best = report
    return best


@dataclass
class MidsliceConsistencyReport:
    """Falsification-harness outcome for the special-case degree bound."""

    n: int
    t: int
    p: int
    ell: Fraction
    psi_low: Fraction       # nonzero fraction at slice floor(n/2) - t
    psi_mid: Fraction       # nonzero fraction at slice floor(n/2)
    ell_in_range: bool
    eps_window_nonempty: bool
    psi_mid_ok: bool
    hypotheses_hold: bool
    degree: int
    degree_threshold: Fraction   # t / 25
    degree_ok: bool
    consistent: bool


@lru_cache(maxsize=64)
def _midslice_bounds(n: int, t: int) -> tuple:
    """(ell >= 100, 2^(-n/100), min(e^(-200), e^(-2 ell)), e^(-ell/2)) for
    ell = t^2/n at the working precision: the witness-free thresholds."""
    with mp.workdps(DPS):
        ell_f = mpf_fraction(Fraction(t * t, n))
        return (bool(ell_f >= 100), mp.mpf(2) ** (-mp.mpf(n) / 100),
                min(mp.e ** (-200), mp.e ** (-2 * ell_f)), mp.e ** (-ell_f / 2))


@lru_cache(maxsize=256)
def _midslice_window(n: int, t: int, psi_low: Fraction,
                     psi_mid: Fraction) -> tuple[bool, bool, bool]:
    """(ell in range, eps window nonempty, psi_mid >= e^(-ell/2)) at the
    working precision, once per distinct (n, t, psi_low, psi_mid): a
    symmetric candidate's nonzero fractions are 0 or 1, so most candidates
    share their key."""
    ell_in_range, eps_floor, eps_hi, psi_mid_floor = _midslice_bounds(n, t)
    with mp.workdps(DPS):
        eps_lo = max(mpf_fraction(psi_low), eps_floor)
        return (ell_in_range, bool(eps_lo <= eps_hi),
                bool(mpf_fraction(psi_mid) >= psi_mid_floor))


def midslice_consistency(n: int, t: int, p: int, witness: MultilinearPoly,
                    caps: Caps = DEFAULT_CAPS) -> MidsliceConsistencyReport:
    """Check a candidate against the special-case hypotheses and degree bound.

    The hypotheses require, for some eps in [2^(-n/100), e^(-200)] with
    ell = t^2/n in [100, ln(1/eps)/2]: nonzero fraction <= eps at slice
    floor(n/2) - t and >= e^(-ell/2) at slice floor(n/2).  A candidate is a
    counterexample only if the hypotheses hold and its degree is below t/25.
    This is a falsification harness, never a proof.
    """
    if p_adic_part(t, p) != t:
        raise ValueError(f"t={t} must be a power of p={p}")
    if witness.n != n:
        raise ValueError("witness arity mismatch")
    if witness.field.p != p:
        raise ValueError(f"witness is over F_{witness.field.p}, not F_{p}")
    m = n // 2
    if m - t < 0:
        raise ValueError("t too large for n")
    ell = Fraction(t * t, n)
    psi_low = slice_stats(witness, m - t, caps).psi
    psi_mid = slice_stats(witness, m, caps).psi
    ell_in_range, eps_window_nonempty, psi_mid_ok = _midslice_window(
        n, t, psi_low, psi_mid)
    hypotheses = ell_in_range and eps_window_nonempty and psi_mid_ok
    threshold = Fraction(t, 25)
    degree = witness.degree
    degree_ok = Fraction(degree) >= threshold
    return MidsliceConsistencyReport(
        n=n, t=t, p=p, ell=ell, psi_low=psi_low, psi_mid=psi_mid,
        ell_in_range=ell_in_range, eps_window_nonempty=eps_window_nonempty,
        psi_mid_ok=psi_mid_ok, hypotheses_hold=hypotheses,
        degree=degree, degree_threshold=threshold, degree_ok=degree_ok,
        consistent=(not hypotheses) or degree_ok,
    )
