"""Exact and robust minimum degree for distinguishing two weight slices.

The exact solver finds the least d such that some degree-<=d multilinear
polynomial vanishes on all of slice k yet is nonzero somewhere on slice K,
by testing whether a slice-K evaluation row escapes the row space of slice
k's evaluation matrix.  Because both slices are orbits of the symmetric
group and the row space of a full slice is permutation-invariant, escape at
one representative point settles the whole slice; small-case tests verify
this against full closure computations.

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

from .config import DEFAULT_CAPS, DPS, Caps, check_cap, mpf_fraction
from .closure import EvaluationMatrix, IdealSampler, evaluation_bool_matrix
from .cube import Mask, MultilinearPoly, slice_masks, slice_stats
from .linalg import PrimeField, RankOracle


def p_adic_part(q: int, p: int) -> int:
    """Largest power of p dividing q."""
    if q <= 0:
        raise ValueError("q must be positive")
    out = 1
    while q % p == 0:
        q //= p
        out *= p
    return out


@dataclass(frozen=True)
class SliceDistinguishInstance:
    """Parameter bundle (n, p, k, K) with the derived gap quantities."""

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
            raise ValueError("k must be strictly inside (0, n) so alpha > 0")

    @property
    def q(self) -> int:
        return abs(self.K - self.k)

    @property
    def alpha(self) -> Fraction:
        return min(Fraction(self.k, self.n), 1 - Fraction(self.k, self.n))

    @property
    def delta(self) -> Fraction:
        return Fraction(self.q, self.n)

    @property
    def q_prime(self) -> int:
        return p_adic_part(self.q, self.p)

    @property
    def s(self) -> int:
        return self.q // self.q_prime

    @property
    def t(self) -> Optional[int]:
        """The gap when it is a p-power, else None."""
        return self.q if self.q == self.q_prime else None

    @property
    def ell(self) -> Optional[Fraction]:
        return Fraction(self.q * self.q, self.n) if self.t is not None else None


@dataclass(frozen=True)
class RobustThresholds:
    """Numeric thresholds of the robust slice-distinguishing degree bounds.

    All values are high-precision floats (mpmath, >= 30 significant digits);
    machine doubles underflow on instances like exp(-3200).
    """

    eps0_main: mp.mpf
    eps1_main: mp.mpf
    eps0_ext: mp.mpf
    eps1_ext: mp.mpf
    main_side_ok: bool       # 100 q < k < n - 100 q
    ext_side_ok: bool        # 200 q < k < n - 200 q


def thresholds(inst: SliceDistinguishInstance) -> RobustThresholds:
    """Evaluate every threshold expression of the instance exactly.

    eps0_main = min(e^(-100 d^2 n / a), 1/1000), eps1_main = e^(-d^2 n /(100 a)),
    and the extension variants with the extra factor s and constants 1000/2000.
    """
    with mp.workdps(DPS):
        base = mpf_fraction(inst.delta ** 2 * inst.n / inst.alpha)
        base_s = base / inst.s
        eps0_main = min(mp.e ** (-100 * base), mp.mpf(1) / 1000)
        eps1_main = mp.e ** (-base / 100)
        eps0_ext = min(mp.e ** (-1000 * base_s), mp.mpf(1) / 2000)
        eps1_ext = mp.e ** (-base_s / 1000)
    q, k, n = inst.q, inst.k, inst.n
    return RobustThresholds(
        eps0_main=eps0_main, eps1_main=eps1_main,
        eps0_ext=eps0_ext, eps1_ext=eps1_ext,
        main_side_ok=(100 * q < k < n - 100 * q),
        ext_side_ok=(200 * q < k < n - 200 * q),
    )


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
                d[name] = f"{v.numerator}/{v.denominator}"
        if self.error_set is not None:
            d["error_set"] = [hex(m) for m in self.error_set]
        d["has_witness"] = self.witness is not None
        return d


# the current slice's degree ladder: {(field, n, k, caps): (points in slice
# order, the same points in _row_order, {d: (ev, oracle)})}
_ladder: dict[tuple, tuple] = {}
_HEAD_MARGIN, _CHUNK = 32, 64  # rows built beyond the bound; rows per later step


def _row_order(size: int) -> np.ndarray:
    """The fixed pseudo-random order in which a slice's rows are absorbed."""
    return np.random.default_rng(0).permutation(size)


def _slice_oracle(field: PrimeField, n: int, k: int, d: int,
                  caps: Caps) -> tuple[EvaluationMatrix, RankOracle]:
    """Evaluation matrix of the full slice k at degree d and a frozen oracle
    on its row space, the only builder of full-slice oracles.

    Over Q the matrix has rank C(n, min(d, k, n - k)) (Wilson, Europ. J.
    Combin. 11, 1990; Filmus, Electron. J. Combin. 23, 2016) and a rank mod
    p never exceeds it, so rows in ``_row_order`` are absorbed only until the
    oracle reaches it.  Only the reads its span determines are valid (the
    RREF, ``member``, ``residue``, ``nullspace_vector``); a rank above the
    bound raises AssertionError.  The ladder of the last slice requested is
    kept until another slice is requested; it enumerates the slice once, and
    every rung's ``points`` is that one array.  Results are shared, so
    callers never ``absorb`` or ``extend`` into them.
    """
    if (field, n, k, caps) not in _ladder:
        _ladder.clear()
        pts = np.fromiter(slice_masks(n, k), dtype=np.uint64)
        _ladder[field, n, k, caps] = (pts, pts[_row_order(len(pts))], {})
    points, rows, rungs = _ladder[field, n, k, caps]
    if d not in rungs:
        ev = EvaluationMatrix(field, n, d, points, caps)
        bound = comb(n, min(d, k, n - k))
        head = copy.copy(ev)  # the same columns, evaluated at the first rows
        lo = bound + _HEAD_MARGIN
        head.points = rows[:lo]
        oracle = head.oracle()
        while oracle.rank < bound and lo < len(rows):
            block = evaluation_bool_matrix(ev.monomials, rows[lo:lo + _CHUNK])
            oracle.extend(block[~np.array(oracle.members(block))])
            lo += _CHUNK
        if oracle.rank > bound:
            raise AssertionError(f"rank {oracle.rank} of slice ({n}, {k}) at "
                                 f"degree {d} exceeds C(n, min(d, k, n - k)) = {bound}")
        rungs[d] = (ev, oracle)
    return rungs[d]


def _witness_from_oracle(ev: EvaluationMatrix, oracle: RankOracle,
                         outside_mask: Mask) -> MultilinearPoly:
    """An ideal element nonzero at a point outside the closure.

    Entry f of the residue of the point's row equals the value at the point
    of the canonical nullspace polynomial for free column f, so any nonzero
    residue entry indexes a witness directly.
    """
    row = ev.row_for_oracle(outside_mask)
    res = oracle.residue(row)
    free = next(f for f, v in enumerate(res) if v)
    vec = oracle.nullspace_vector(free)
    terms = {ev.monomials[j]: c for j, c in enumerate(vec) if c}
    return MultilinearPoly.from_terms(ev.n, ev.field, terms)


def exact_min_degree(n: int, p: int, k: int, K: int,
                     caps: Caps = DEFAULT_CAPS,
                     want_witness: bool = True) -> DistinguishReport:
    """Least d such that some degree-<=d polynomial vanishes on all of slice k
    and is nonzero at some point of slice K.

    Ascends d from 0; at each degree tests whether the representative
    slice-K row escapes the slice-k row space (escape is slice-wide by
    permutation symmetry).
    """
    inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
    field = PrimeField(p)
    check_cap(comb(n, k), caps.max_slice_points, f"slice size C({n},{k})")
    check_cap(comb(n, K), caps.max_slice_points, f"slice size C({n},{K})")
    rep = (1 << K) - 1
    size_K = comb(n, K)
    per_degree: dict[int, int] = {}
    for d in range(n + 1):
        ev, oracle = _slice_oracle(field, n, k, d, caps)
        row = ev.row_for_oracle(rep)
        if oracle.member(row):
            per_degree[d] = 0
            continue
        per_degree[d] = size_K
        report = DistinguishReport(
            degree=d, mode="exact", n=n, p=p, k=k, K=K,
            outside_count=size_K, per_degree_outside=per_degree,
            slice_sizes=(comb(n, k), size_K),
            psi_K_expected=Fraction(p - 1, p),
            psi_K_max=Fraction(1),
        )
        if want_witness:
            w = _witness_from_oracle(ev, oracle, rep)
            report.witness = w
            report.psi_k = slice_stats(w, k, caps).psi
            report.psi_K = slice_stats(w, K, caps).psi
        return report
    raise AssertionError("no distinguisher up to degree n; this cannot happen")


@dataclass
class SweepRow:
    n: int
    k: int
    K: int
    gap: int
    expected: int          # largest p-power dividing the gap
    degree: int
    ok: bool


def gap_degree_sweep(p: int, n_values: Sequence[int], gaps: str = "ppower",
                  caps: Caps = DEFAULT_CAPS):
    """Exact minimum degree across a grid, compared against the p-adic part
    of the gap.

    gaps: "ppower" sweeps gaps that are powers of p, "composite" the rest,
    "all" both.  A p-power gap g requires g <= k <= n - g (below k = g the
    equality genuinely fails, e.g. n=6, k=1, K=5 over F_2 has degree 2, not
    4); a composite gap g only requires its p-adic part q' <= k and
    k + g <= n.  Rows share the slice-k rank oracle across all gaps, so each
    (n, k, degree) is eliminated once.

    Returns (rows, violations).
    """
    if gaps not in ("ppower", "composite", "all"):
        raise ValueError(f"unknown gap class {gaps!r}")
    field = PrimeField(p)
    rows: list[SweepRow] = []
    violations: list[SweepRow] = []
    for n in n_values:
        for k in range(1, n):
            targets = {}
            for g in range(1, n - k + 1):
                qp = p_adic_part(g, p)
                is_pp = qp == g
                lo = g if is_pp else max(1, qp)
                if not (lo <= k <= n - g):
                    continue
                if gaps == "ppower" and not is_pp:
                    continue
                if gaps == "composite" and is_pp:
                    continue
                targets[k + g] = qp
            if not targets:
                continue
            max_expected = max(targets.values())
            unresolved = dict(targets)
            found: dict[int, int] = {}
            for d in range(0, max_expected + 1):
                if not unresolved:
                    break
                ev, oracle = _slice_oracle(field, n, k, d, caps)
                for K in list(unresolved):
                    row = ev.row_for_oracle((1 << K) - 1)
                    if not oracle.member(row):
                        found[K] = d
                        del unresolved[K]
            for K, expected in sorted(targets.items()):
                degree = found.get(K, max_expected + 1)  # ">expected" sentinel
                row = SweepRow(n=n, k=k, K=K, gap=K - k, expected=expected,
                               degree=degree, ok=(degree == expected))
                rows.append(row)
                if not row.ok:
                    violations.append(row)
    return rows, violations


def _dependent_sets(field: PrimeField, block: np.ndarray, max_size: int):
    """Index sets of 1 to ``max_size`` linearly dependent rows of a block, by
    size in ``combinations`` order.  P + (j,) is dependent iff P is or row j
    is in the span of the rows P: one ``members`` call per prefix P."""
    rows = RankOracle(field, block.shape[1]).rows(block)
    for size in range(1, max_size + 1):
        for prefix in combinations(range(len(rows)), size - 1):
            head = RankOracle(field, block.shape[1])
            start = prefix[-1] + 1 if prefix else 0
            inside = (head.members(rows[start:])
                      if all(head.absorb(rows[i]) for i in prefix)
                      else [True] * (len(rows) - start))
            for j in (np.flatnonzero(inside) + start).tolist():
                yield prefix + (j,)


def exhaustive_robust(n: int, p: int, k: int, K: int, max_removals: int,
                      caps: Caps = DEFAULT_CAPS) -> DistinguishReport:
    """Exact robust minimum degree over ALL error sets of size <= max_removals.

    The least d at which, for some error set E0, a slice-K point escapes the
    closure of slice k minus E0.  Sets are tried by size in ``combinations``
    order; the first with an escape is reported.

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
    K_masks = list(slice_masks(n, K))
    per_degree: dict[int, int] = {}
    for d in range(n + 1):
        ev, full = _slice_oracle(field, n, k, d, caps)
        X = evaluation_bool_matrix(ev.monomials, K_masks)
        outside, removed = full.members(X).count(False), ()
        if not outside and max_removals:
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
        if not outside:
            per_degree[d] = 0
            continue
        per_degree[d] = outside
        return DistinguishReport(
            degree=d, mode="exhaustive", n=n, p=p, k=k, K=K,
            outside_count=outside, per_degree_outside=per_degree,
            slice_sizes=(size_k, comb(n, K)),
            error_set=ev.points[list(removed)].tolist(),
        )
    raise AssertionError("no distinguisher up to degree n; this cannot happen")


def robust_search(inst: SliceDistinguishInstance, eps0_budget: Fraction,
                  strategy: str = "uniform", restarts: int = 4, seed: int = 0,
                  target_psi_K: Optional[Fraction] = None,
                  confirm_samples: int = 24,
                  caps: Caps = DEFAULT_CAPS) -> DistinguishReport:
    """Heuristic upper bound on the robust minimum degree.

    Picks an error set E0 on slice k within the budget (uniform random or
    greedy removal of rank-critical points), then finds the least d at which
    the ideal of slice k minus E0 escapes on slice K strongly enough:
    with no target, one escaping point suffices; with a target psi, the
    expected nonzero fraction (1 - 1/p) * outside-fraction must reach it.
    The reported degree is an upper bound on the true robust minimum.
    """
    if strategy not in ("uniform", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not (0 <= eps0_budget < 1):
        raise ValueError("eps0_budget must lie in [0, 1)")
    n, p, k, K = inst.n, inst.p, inst.k, inst.K
    if target_psi_K is not None and target_psi_K > Fraction(p - 1, p):
        # at degree n every point of slice K escapes, which gives (p - 1)/p
        raise ValueError("target_psi_K above (p - 1)/p is unreachable")
    field = PrimeField(p)
    size_k, size_K = comb(n, k), comb(n, K)
    check_cap(size_k + size_K, caps.max_slice_points, "slice sizes")
    removals = int(eps0_budget * size_k)
    k_masks = list(slice_masks(n, k))
    K_masks = list(slice_masks(n, K))
    master = random.Random(seed)
    restart_seeds = [master.randrange(2**63) for _ in range(restarts)]
    if removals == 0 or strategy == "greedy":
        restart_seeds = restart_seeds[:1]

    best: Optional[DistinguishReport] = None
    for rs in restart_seeds:
        rng = random.Random(rs)
        per_degree: dict[int, int] = {}
        for d in range(n + 1):
            if removals == 0:
                # full slice: escape at one representative settles the orbit
                error_set: list[Mask] = []
                keep = k_masks
                ev, oracle = _slice_oracle(field, n, k, d, caps)
                row = ev.row_for_oracle(K_masks[0])
                outside = 0 if oracle.member(row) else size_K
            else:
                if strategy == "uniform":
                    error_set = sorted(rng.sample(k_masks, removals))
                else:  # pivot_dependents and pivot_owner need every row
                    full_oracle = EvaluationMatrix(
                        field, n, d, k_masks, caps).oracle(labels=True)
                    deps = full_oracle.pivot_dependents
                    owners = full_oracle.pivot_owner
                    order = sorted(owners, key=lambda c: (deps.get(c, 0), c))
                    error_set = sorted(owners[c] for c in order[:removals])
                error = set(error_set)
                keep = [m for m in k_masks if m not in error]
                sub_ev = EvaluationMatrix(field, n, d, keep, caps)
                rows = evaluation_bool_matrix(sub_ev.monomials, K_masks)
                outside = sub_ev.oracle().members(rows).count(False)
            per_degree[d] = outside
            expected = Fraction(p - 1, p) * Fraction(outside, size_K)
            hit = outside >= 1 if target_psi_K is None else expected >= target_psi_K
            if not hit:
                continue
            report = DistinguishReport(
                degree=d, mode="exact" if removals == 0 else "heuristic-upper-bound",
                n=n, p=p, k=k, K=K, outside_count=outside,
                per_degree_outside=per_degree, slice_sizes=(size_k, size_K),
                psi_K_expected=expected, psi_K_max=Fraction(outside, size_K),
                error_set=error_set, seed=rs,
            )
            # confirm with sampled ideal elements (exact psi of the best draw)
            if confirm_samples > 0 and comb(n, K) <= caps.max_slice_points:
                sampler = IdealSampler(field, n, keep, d, seed=rs, caps=caps)
                best_poly, best_nz = None, -1
                for _ in range(confirm_samples):
                    poly = sampler.sample()
                    nz = slice_stats(poly, K, caps).nonzero_count
                    if nz > best_nz:
                        best_poly, best_nz = poly, nz
                if best_poly is not None:
                    report.witness = best_poly
                    report.psi_k = slice_stats(best_poly, k, caps).psi
                    report.psi_K = slice_stats(best_poly, K, caps).psi
            break
        else:
            continue
        if (best is None or report.degree < best.degree
                or (report.degree == best.degree
                    and (report.error_set or []) < (best.error_set or []))):
            best = report
    if best is None:
        raise AssertionError("no distinguisher up to degree n; this cannot happen")
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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "t": self.t, "p": self.p,
            "ell": f"{self.ell.numerator}/{self.ell.denominator}",
            "psi_low": f"{self.psi_low.numerator}/{self.psi_low.denominator}",
            "psi_mid": f"{self.psi_mid.numerator}/{self.psi_mid.denominator}",
            "ell_in_range": self.ell_in_range,
            "eps_window_nonempty": self.eps_window_nonempty,
            "psi_mid_ok": self.psi_mid_ok,
            "hypotheses_hold": self.hypotheses_hold,
            "degree": self.degree,
            "degree_ok": self.degree_ok,
            "consistent": self.consistent,
        }


@lru_cache(maxsize=64)
def _midslice_bounds(n: int, t: int) -> tuple:
    """(ell >= 100, 2^(-n/100), min(e^(-200), e^(-2 ell)), e^(-ell/2)) for
    ell = t^2/n at the working precision: the witness-free thresholds."""
    with mp.workdps(DPS):
        ell_f = mpf_fraction(Fraction(t * t, n))
        return (bool(ell_f >= 100), mp.mpf(2) ** (-mp.mpf(n) / 100),
                min(mp.e ** (-200), mp.e ** (-2 * ell_f)), mp.e ** (-ell_f / 2))


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
    m = n // 2
    if m - t < 0:
        raise ValueError("t too large for n")
    ell = Fraction(t * t, n)
    psi_low = slice_stats(witness, m - t, caps).psi
    psi_mid = slice_stats(witness, m, caps).psi
    ell_in_range, eps_floor, eps_hi, psi_mid_floor = _midslice_bounds(n, t)
    with mp.workdps(DPS):
        eps_lo = max(mpf_fraction(psi_low), eps_floor)
        eps_window_nonempty = bool(eps_lo <= eps_hi)
        psi_mid_ok = bool(mpf_fraction(psi_mid) >= psi_mid_floor)
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
