"""Explicit polynomial constructions paired with exact evaluators.

Everything here is exact where it matters: probability computations on
acceptance paths use big rationals (never floats), weight-window
interpolation is done over the integers via Newton forward differences, and
symmetric constructions carry weight -> value certificates so error sums
stay exact at variable counts far beyond term materialization.  The
binomials of those sums come as rows (``cube.binomial_row``: one ``comb``,
then an exact recurrence), not one large ``comb`` per term.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import mul
from typing import Optional, Sequence

import mpmath as mp
import numpy as np

from .config import (DEFAULT_CAPS, DPS, Caps, CapExceeded, check_cap,
                     mpf_fraction)
from .cube import (MultilinearPoly, binomial_row, multilinearize_product,
                   popcount, slice_masks, weight_values_from_ecoeffs)
from .distinguish import p_adic_part
from .linalg import PrimeField

# constants tried, in order, wherever an instance needs "a large enough C";
# the first value passing the instance's exact check is chosen and reported
C_LADDER = (2, 5, 10, 20, 40)


# ---------------------------------------------------------------------------
# single-gap construction from binomial digit periodicity
# ---------------------------------------------------------------------------

def lucas_poly(n: int, i: int, q: int, p: int) -> MultilinearPoly:
    """Degree p^l polynomial vanishing on slice i and nonzero on all of
    slice i+q, where p^l is the largest power of p dividing q.

    The polynomial is e_{p^l} - a, with a the (l+1)-th base-p digit of i;
    its value at weight w is C(w, p^l) - a mod p.
    """
    if i < 0 or q < 1 or i + q > n:
        raise ValueError(f"need 0 <= i and i+q <= n, got i={i}, q={q}, n={n}")
    field = PrimeField(p)
    pl = p_adic_part(q, p)
    digit = (i // pl) % p
    coeffs = [0] * (pl + 1)
    coeffs[0] = (-digit) % p
    coeffs[pl] = 1
    return MultilinearPoly.from_sym(n, field, coeffs)


# ---------------------------------------------------------------------------
# weight-window interpolation over the integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightWindow:
    """Target values on a contiguous weight interval [lo, hi] of [0, n]."""

    n: int
    lo: int
    hi: int
    values: tuple

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= self.n):
            raise ValueError(f"window [{self.lo},{self.hi}] not inside [0,{self.n}]")
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError("value count must match window length")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("window targets must be 0/1")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class IntegerSymPoly:
    """A symmetric multilinear polynomial with integer coefficients,
    stored over the elementary symmetric basis."""

    n: int
    ecoeffs: tuple

    @property
    def degree(self) -> int:
        return max((j for j, c in enumerate(self.ecoeffs) if c), default=0)

    def weight_values(self) -> list[int]:
        """Integer value at each weight 0..n."""
        return weight_values_from_ecoeffs(self.n, self.ecoeffs)

    def reduce_mod(self, field: PrimeField) -> MultilinearPoly:
        """The coefficients reduced mod p (with symmetric certificate)."""
        return MultilinearPoly.from_sym(self.n, field, list(self.ecoeffs))


def interpolate_window_int(window: WeightWindow) -> IntegerSymPoly:
    """Integer-coefficient symmetric polynomial of degree <= |I|-1 matching
    the window targets at every point whose weight lies in I.

    Built from Newton forward differences in the falling basis C(w - lo, j),
    expanded over the elementary symmetric basis by Vandermonde convolution,
    C(w - lo, j) = sum_i C(-lo, j - i) C(w, i); all coefficients stay
    integers.
    """
    diffs, deltas = list(window.values), []
    while diffs:
        deltas.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    shift = binomial_row(-window.lo, 0, window.length - 1)  # C(-lo, m)
    ecoeffs = [sum(d * b for d, b in zip(deltas[idx:], shift))
               for idx in range(window.length)]
    while ecoeffs and ecoeffs[-1] == 0:
        ecoeffs.pop()
    return IntegerSymPoly(n=window.n, ecoeffs=tuple(ecoeffs))


def _strict_interval_weights(lo: Fraction, hi: Fraction, limit: int):
    """Integer weights strictly between lo and hi, clipped to [0, limit]."""
    start = math.floor(lo) + 1
    end = math.ceil(hi) - 1
    return range(max(0, start), min(limit, end) + 1)


# ---------------------------------------------------------------------------
# the sampling junta
# ---------------------------------------------------------------------------

@dataclass
class SampledJunta:
    """A junta polynomial: an inner symmetric window polynomial on m sampled
    coordinates of the full n-variable cube.

    The composed value at a point depends only on the weight of the point
    restricted to the sampled coordinates (indices are distinct), which makes
    slice error probabilities exact hypergeometric sums.
    """

    n: int
    k: int
    q: int
    eps: float
    C: int
    m: int
    indices: tuple
    inner_table: tuple           # value of the inner polynomial at weights 0..m
    inner_ecoeffs: tuple         # inner polynomial mod p over the e-basis
    degree: int
    p: int
    window: tuple                # union interpolation interval (lo, hi)
    zero_weights: tuple          # inner weights constrained to 0
    one_weights: tuple           # inner weights constrained to 1
    deviations: tuple = ("indices sampled without replacement (distinct), "
                         "not i.i.d. uniform",)


def sampling_poly(n: int, k: int, q: int, eps: float, C: int, seed: int,
                  caps: Caps = DEFAULT_CAPS) -> SampledJunta:
    """Low-degree junta that vanishes on most of slice k and is nonzero on
    most of slice k+q, built by sampling m = ceil(C (a/d^2) ln(1/eps))
    coordinates and interpolating an inner window polynomial with zero
    target on weights in ((a-d/2)m, (a+d/2)m) and one target on
    ((a+d/2)m, (a+3d/2)m), a = k/n, d = q/n.
    """
    if not (0 < k < n) or q < 1:
        raise ValueError("need 0 < k < n and q >= 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0,1)")
    alpha = Fraction(k, n)
    delta = Fraction(q, n)
    m = math.ceil(C * float(alpha / delta**2) * math.log(1 / eps))
    if m > n:
        raise CapExceeded(
            f"sample count m={m} exceeds n={n}; distinct sampling impossible")
    m = max(m, 1)
    zero_w = tuple(_strict_interval_weights((alpha - delta / 2) * m,
                                            (alpha + delta / 2) * m, m))
    one_w = tuple(_strict_interval_weights((alpha + delta / 2) * m,
                                           (alpha + 3 * delta / 2) * m, m))
    constrained = sorted(set(zero_w) | set(one_w))
    if constrained:
        lo, hi = constrained[0], constrained[-1]
        targets = []
        ones = set(one_w)
        for w in range(lo, hi + 1):
            targets.append(1 if w in ones else 0)  # gap weights extend the 0 side
        window = WeightWindow(n=m, lo=lo, hi=hi, values=tuple(targets))
        inner_int = interpolate_window_int(window)
    else:
        lo = hi = 0
        inner_int = IntegerSymPoly(n=m, ecoeffs=())
    inner = inner_int.reduce_mod(PrimeField(2))  # on the m sampled variables
    rng = random.Random(seed)
    indices = tuple(sorted(rng.sample(range(n), m)))
    return SampledJunta(
        n=n, k=k, q=q, eps=eps, C=C, m=m, indices=indices,
        inner_table=inner.weight_values(), inner_ecoeffs=inner.sym_coeffs,
        degree=inner.degree, p=2,
        window=(lo, hi), zero_weights=zero_w, one_weights=one_w,
    )


def junta_exact_slice_error(j: SampledJunta, weight: int, target: str) -> Fraction:
    """Exact probability over uniform weight-``weight`` points that the
    junta misses its target ("zero": value != 0; "nonzero": value == 0).

    The restricted weight on the m distinct sampled coordinates is
    hypergeometric, so the miss probability is an exact rational sum.
    """
    if target not in ("zero", "nonzero"):
        raise ValueError("target must be 'zero' or 'nonzero'")
    n, m, w = j.n, j.m, weight
    lo, hi = max(0, w - (n - m)), min(m, w)
    inside = binomial_row(m, lo, hi)                # C(m, jj)
    outside = binomial_row(n - m, w - hi, w - lo)   # C(n-m, w-jj), reversed
    num = 0
    for val, a, b in zip(j.inner_table[lo:hi + 1], inside, reversed(outside)):
        if (val != 0) if target == "zero" else (val == 0):
            num += a * b
    return Fraction(num, comb(n, w))


# ---------------------------------------------------------------------------
# coin-problem construction and exact error evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoinInstance:
    """Bias-distinguishing instance: accept mostly-on window around n/2,
    reject window around (1/2 - delta) n."""

    p: int
    delta: Fraction
    eps: Fraction
    C: int
    n: int

    def __post_init__(self):
        if not (0 < self.delta <= Fraction(1, 2)):
            raise ValueError("delta must lie in (0, 1/2]")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0, 1)")

    @classmethod
    def from_sizing(cls, p: int, delta: Fraction, eps: Fraction,
                    C: int) -> "CoinInstance":
        """n from the sizing rule n = ceil(C log(1/eps) / delta^2)."""
        with mp.workdps(DPS):
            raw = C * mp.log(mpf_fraction(1 / eps)) / mpf_fraction(delta) ** 2
            n = int(mp.ceil(raw))
        return cls(p=p, delta=delta, eps=eps, C=C, n=n)

    @property
    def edges(self) -> tuple:
        """(low, mid, high) window edges as exact rationals."""
        half = Fraction(1, 2)
        return ((half - 3 * self.delta / 2) * self.n,
                (half - self.delta / 2) * self.n,
                (half + self.delta / 2) * self.n)

    def zero_weights(self) -> tuple:
        lo, mid, _ = self.edges
        return tuple(_strict_interval_weights(lo, mid, self.n))

    def one_weights(self) -> tuple:
        _, mid, hi = self.edges
        return tuple(_strict_interval_weights(mid, hi, self.n))

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "delta": f"{self.delta.numerator}/{self.delta.denominator}",
            "eps": f"{self.eps.numerator}/{self.eps.denominator}",
            "C": self.C,
            "n": self.n,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CoinInstance":
        delta = Fraction(d["delta"])
        eps = Fraction(d["eps"])
        C = int(d.get("C", 2))
        if "n" in d:
            return cls(p=int(d["p"]), delta=delta, eps=eps, C=C, n=int(d["n"]))
        return cls.from_sizing(int(d["p"]), delta, eps, C)


def coin_build(inst: CoinInstance) -> MultilinearPoly:
    """Window interpolant: 0 strictly inside the biased window, 1 strictly
    inside the unbiased window, reduced mod p, with a weight certificate."""
    zero_w, one_w = inst.zero_weights(), inst.one_weights()
    constrained = sorted(set(zero_w) | set(one_w))
    if not constrained:
        raise ValueError("both target windows are empty at this n")
    lo, hi = constrained[0], constrained[-1]
    ones = set(one_w)
    values = tuple(1 if w in ones else 0 for w in range(lo, hi + 1))
    window = WeightWindow(n=inst.n, lo=lo, hi=hi, values=values)
    return interpolate_window_int(window).reduce_mod(PrimeField(inst.p))


def coin_error_exact(table: Sequence[int], alpha: Fraction,
                     accept_side: str = "one") -> Fraction:
    """Exact Pr over the alpha-biased product measure that the table value
    counts as acceptance: sum of C(n,w) a^w (1-a)^(n-w) over those weights,
    summed as one integer numerator over s^n for a = r/s.

    accept_side selects the acceptance predicate on values: "one" (== 1),
    "nonzero" (!= 0), "zero" (== 0), or "not-one" (!= 1).
    """
    preds = {
        "one": lambda v: v == 1,
        "nonzero": lambda v: v != 0,
        "zero": lambda v: v == 0,
        "not-one": lambda v: v != 1,
    }
    if accept_side not in preds:
        raise ValueError(f"unknown accept side {accept_side!r}")
    pred = preds[accept_side]
    n = len(table) - 1
    a = Fraction(alpha)
    r, s = a.numerator, a.denominator
    rest = list(accumulate([s - r] * n, mul, initial=1))  # (s-r)^0..(s-r)^n
    num, rw = 0, 1
    for w, (v, c) in enumerate(zip(table, binomial_row(n, 0, n))):
        if pred(v):
            num += c * rw * rest[n - w]
        rw *= r
    return Fraction(num, s**n)


def coin_verify_errors(inst: CoinInstance, poly: MultilinearPoly):
    """(error under the unbiased measure, error under the biased measure).

    The Boolean output accepts exactly on value 1, so the unbiased error is
    Pr[value != 1] at bias 1/2 and the biased error is Pr[value == 1] at
    bias 1/2 - delta.  Both are exact rationals.
    """
    table = poly.weight_values()
    half = Fraction(1, 2)
    err_unbiased = coin_error_exact(table, half, "not-one")
    err_biased = coin_error_exact(table, half - inst.delta, "one")
    return err_unbiased, err_biased


# ---------------------------------------------------------------------------
# covering hyperplane families on the middle slice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalvinFamily:
    """Hyperplanes <u_i, x> = b_i with half-weight normal vectors."""

    n: int
    items: tuple                   # ((u_mask, b), ...)
    t: Optional[int] = None        # balance threshold, when known
    degenerate: bool = False       # b-range exits the feasible [0, n/2]
    shifted: bool = False          # n/4 not integral; centered at floor(n/4)

    def __post_init__(self):
        if self.n % 2:
            raise ValueError("n must be even")
        for u, b in self.items:
            if popcount(u) != self.n // 2:
                raise ValueError(f"vector 0x{u:x} does not have weight n/2")

    @property
    def size(self) -> int:
        return len(self.items)

    def balanced_items(self, t: Optional[int] = None) -> list:
        """Items with |b - n/4| <= t."""
        thr = self.t if t is None else t
        if thr is None:
            raise ValueError("no balance threshold available")
        center = Fraction(self.n, 4)
        return [(u, b) for u, b in self.items if abs(b - center) <= thr]

    def to_json_dict(self) -> dict:
        d = {"n": self.n,
             "items": [{"u_mask": hex(u), "b": b} for u, b in self.items]}
        if self.t is not None:
            d["t"] = self.t
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "GalvinFamily":
        items = tuple((int(it["u_mask"], 16), int(it["b"])) for it in d["items"])
        return cls(n=int(d["n"]), items=items, t=d.get("t"))


def galvin_tight_family(n: int, eps, C: int) -> GalvinFamily:
    """The literal 2t+1 family: all vectors 1^{n/2} 0^{n/2}, intercepts
    floor(n/4) - t .. floor(n/4) + t, t = ceil(C sqrt(n ln(1/eps))).

    Intercepts outside the feasible inner-product range [0, n/2] are kept
    (they cover nothing); the family is flagged degenerate when that
    happens rather than rejected.
    """
    if n % 2:
        raise ValueError("n must be even")
    eps = float(eps)
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0,1)")
    t = math.ceil(C * math.sqrt(n * math.log(1 / eps)))
    base = n // 4
    shifted = n % 4 != 0
    u = (1 << (n // 2)) - 1
    items = tuple((u, b) for b in range(base - t, base + t + 1))
    return GalvinFamily(n=n, items=items, t=t,
                        degenerate=(t >= n // 4), shifted=shifted)


def galvin_coverage(F: GalvinFamily,
                    caps: Caps = DEFAULT_CAPS) -> Fraction:
    """Exact fraction of the middle slice covered by some hyperplane.

    A hypergeometric sum when all normal vectors coincide; otherwise the
    middle slice is enumerated, under ``caps.max_slice_points``.
    """
    n = F.n
    half = n // 2
    if F.size == 0:
        return Fraction(0)
    first_u = F.items[0][0]
    if all(u == first_u for u, _ in F.items):
        hit_values = {b for _, b in F.items if 0 <= b <= half}
        num = sum(comb(half, x) * comb(half, half - x) for x in hit_values)
        return Fraction(num, comb(n, half))
    size = comb(n, half)
    check_cap(size, caps.max_slice_points, f"middle slice C({n},{half})")
    vs = np.fromiter(slice_masks(n, half), dtype=np.uint64, count=size)
    hit = np.zeros(size, dtype=bool)
    for u, b in F.items:
        if 0 <= b <= half:
            hit |= np.bitwise_count(vs & np.uint64(u)) == b
    return Fraction(int(hit.sum()), size)


def galvin_poly(F: GalvinFamily, field: PrimeField,
                balance_filter: bool = False,
                caps: Caps = DEFAULT_CAPS) -> MultilinearPoly:
    """Multilinearized product of (<u_i, x> - b_i) over the (optionally
    balance-filtered) family, coefficients mod p; degree <= retained count.
    Each partial product is bounded by ``caps.max_terms``."""
    items = F.balanced_items() if balance_filter else list(F.items)
    out = MultilinearPoly.constant(F.n, field, 1)
    for u, b in items:
        terms = {0: (-b) % field.p}
        mm = u
        while mm:
            i = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            terms[1 << i] = 1
        factor = MultilinearPoly.from_terms(F.n, field, terms)
        out = multilinearize_product(out, factor, caps)
    return out


# ---------------------------------------------------------------------------
# numeric bound checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinomRatioReport:
    """Bounds on C(n, floor(n/2)-s) / C(n, floor(n/2)-r) for r <= s <= n/4."""

    n: int
    r: int
    s: int
    ratio: Fraction
    lower: mp.mpf            # e^(-8 s (s-r) / n), the working convention
    upper: mp.mpf            # e^(-2 r (s-r) / n)
    holds: bool
    printed_holds: bool      # the (r-s)-sign variant, reported only


def binom_ratio_check(n: int, r: int, s: int) -> BinomRatioReport:
    """Exact binomial ratio against both sign conventions of the bound.

    The working convention puts (s-r) in the exponents (both bounds then lie
    in (0, 1]); the variant with (r-s) is evaluated and flagged, never
    asserted.
    """
    if not (0 <= r <= s <= Fraction(n, 4)):
        raise ValueError(f"need 0 <= r <= s <= n/4, got r={r}, s={s}, n={n}")
    ratio = Fraction(comb(n, n // 2 - s), comb(n, n // 2 - r))
    with mp.workdps(DPS):
        lower = mp.e ** (mp.mpf(-8 * s * (s - r)) / n)
        upper = mp.e ** (mp.mpf(-2 * r * (s - r)) / n)
        printed_lower = mp.e ** (mp.mpf(-8 * s * (r - s)) / n)
        printed_upper = mp.e ** (mp.mpf(-2 * r * (r - s)) / n)
        rat = mpf_fraction(ratio)
        holds = bool(lower <= rat <= upper)
        printed_holds = bool(printed_lower <= rat <= printed_upper)
    return BinomRatioReport(n=n, r=r, s=s, ratio=ratio, lower=lower,
                            upper=upper, holds=holds,
                            printed_holds=printed_holds)


@dataclass(frozen=True)
class HyperRatioReport:
    """Telescoping check of the paired-binomial decay bound."""

    n: int
    m: int
    k: int
    ell: int
    ratio: Fraction
    steps_exact_ok: bool     # each step ratio <= 1 - 2j/m, exact rationals
    steps_exp_ok: bool       # each step ratio <= exp(-2j/m), high precision
    assembled_bound: mp.mpf  # exp(-(k(k-1) - ell(ell-1))/m)
    assembled_ok: bool


def _paired(n: int, m: int, j: int) -> int:
    return comb(n // 2, m // 2 - j) * comb(n // 2, (m + 1) // 2 + j)


def _paired_step(n: int, m: int, j: int) -> Fraction:
    """paired(j + 1) / paired(j) in closed form."""
    h, a, b = n // 2, m // 2, (m + 1) // 2
    return Fraction((a - j) * (h - b - j), (h - a + j + 1) * (b + j + 1))


def hyper_ratio_check(n: int, m: int, k: int, ell: int = 0) -> HyperRatioReport:
    """Verify each telescoping step and the assembled product bound.

    Step j: paired(j+1)/paired(j) <= 1 - 2j/m <= exp(-2j/m), where
    paired(j) = C(n/2, floor(m/2)-j) C(n/2, ceil(m/2)+j).  The assembled
    bound multiplies the step bounds (constant 2 in the exponent).
    """
    if n % 2 or not (0 <= m <= n // 2):
        raise ValueError("need even n and 0 <= m <= n/2")
    if not (0 <= ell <= k <= m // 2):
        raise ValueError("need 0 <= ell <= k <= floor(m/2)")
    steps_exact = True
    steps_exp = True
    with mp.workdps(DPS):
        for j in range(ell, k):
            step = _paired_step(n, m, j)
            if step > 1 - Fraction(2 * j, m):
                steps_exact = False
            if mpf_fraction(step) > mp.e ** (mp.mpf(-2 * j) / m):
                steps_exp = False
        ratio = Fraction(_paired(n, m, k), _paired(n, m, ell))
        assembled = mp.e ** (-mp.mpf(k * (k - 1) - ell * (ell - 1)) / m)
        assembled_ok = bool(mpf_fraction(ratio) <= assembled)
    return HyperRatioReport(n=n, m=m, k=k, ell=ell, ratio=ratio,
                            steps_exact_ok=steps_exact, steps_exp_ok=steps_exp,
                            assembled_bound=assembled, assembled_ok=assembled_ok)
