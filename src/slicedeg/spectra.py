"""Symmetric Boolean functions as weight-indexed spectra.

A symmetric function on n variables is the string Spec f of length n+1 with
Spec f(w) = value on weight-w inputs.  This module computes periods (border
method, with brute force kept as a test oracle), boundedness indices, the
minimal-period middle-window decomposition, named families, the periodic
exact polynomial (the forward differences of its weight table), and the
probabilistic-degree case classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .cube import MultilinearPoly, ecoeffs_from_weight_values, p_adic_part
from .linalg import PrimeField


@dataclass(frozen=True)
class Spectrum:
    """The length-(n+1) value string of a symmetric Boolean function."""

    n: int
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != self.n + 1:
            raise ValueError(f"spectrum length {len(self.bits)} != n+1 = {self.n + 1}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("spectrum values must be 0/1")

    @classmethod
    def from_string(cls, s: str) -> "Spectrum":
        return cls(len(s) - 1, tuple(int(c) for c in s))

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __xor__(self, other: "Spectrum") -> "Spectrum":
        if self.n != other.n:
            raise ValueError("arity mismatch")
        return Spectrum(self.n, tuple(a ^ b for a, b in zip(self.bits, other.bits)))


def _border_table(s: Sequence) -> list[int]:
    """KMP failure function: border[i] = longest proper border of s[:i+1]."""
    border = [0] * len(s)
    k = 0
    for i in range(1, len(s)):
        while k and s[i] != s[k]:
            k = border[k - 1]
        if s[i] == s[k]:
            k += 1
        border[i] = k
    return border


def string_period(s: Sequence) -> int:
    """Smallest b >= 1 with s[i] == s[i+b] for all valid i (may equal len(s))."""
    if len(s) == 0:
        raise ValueError("empty string has no period")
    return len(s) - _border_table(s)[-1]


def period(spec: Spectrum) -> int:
    """Smallest b with Spec f(i) = Spec f(i+b) on [0, n-b].

    A constant spectrum has period 1; b = n+1 means only the trivial
    full-length period exists.
    """
    return string_period(spec.bits)


def primitive_root(w: str) -> tuple[str, int]:
    """Shortest z with w = z^k, k maximal (k = 1 iff w is primitive)."""
    if not w:
        raise ValueError("word must be non-empty")
    b = string_period(w)
    if len(w) % b == 0 and len(w) // b >= 2:
        return w[:b], len(w) // b
    return w, 1


def window_distinct_check(spec: Spectrum) -> bool:
    """Verify that length-b windows at offsets differing mod b are distinct.

    Requires per(spec) = b > 1; offsets range over [0, n-b+1].
    """
    b = period(spec)
    if b <= 1:
        raise ValueError("spectrum has period 1; windows are all identical")
    s = spec.bits
    last = spec.n - b + 1
    windows = [tuple(s[i:i + b]) for i in range(last + 1)]
    for i in range(last + 1):
        for j in range(i + 1, last + 1):
            if (i - j) % b != 0 and windows[i] == windows[j]:
                return False
    return True


def bounded_index(spec: Spectrum) -> int:
    """Smallest k such that the spectrum is constant on [k, n-k].

    A single-point interval is constant; an empty interval (k > n-k) is
    vacuously constant, so the index always exists.
    """
    s, n = spec.bits, spec.n
    for k in range(n + 2):
        seg = s[k:n - k + 1]
        if len(seg) <= 1 or all(v == seg[0] for v in seg):
            return k
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class StandardDecomposition:
    """Periodic part g (minimal-period extension of the middle window) and
    bounded part h = f xor g."""

    g: Spectrum
    h: Spectrum
    per_g: int
    B_h: int
    window: tuple            # (lo, hi) inclusive; lo > hi means empty
    fallback: bool           # True when the window was empty (tiny n)


def decomposition_window(n: int) -> tuple[int, int]:
    """The agreement window [ceil(n/3)+1, floor(2n/3)] (may be empty)."""
    return (-(-n // 3) + 1, (2 * n) // 3)


def standard_decomposition(spec: Spectrum) -> StandardDecomposition:
    """Minimal-period extension of the middle window plus bounded correction.

    Finds the least b for which the window is internally b-periodic, extends
    it b-periodically to [0, n], and sets h = f xor g.  For tiny n with an
    empty window, g falls back to the all-zero constant and the result is
    flagged.
    """
    n = spec.n
    if n < 3:
        raise ValueError("standard decomposition needs n >= 3")
    lo, hi = decomposition_window(n)
    if lo > hi:
        g = Spectrum(n, (0,) * (n + 1))
        h = spec ^ g
        return StandardDecomposition(g=g, h=h, per_g=1, B_h=bounded_index(h),
                                     window=(lo, hi), fallback=True)
    w = spec.bits[lo:hi + 1]
    b = string_period(w)
    g_bits = tuple(w[(i - lo) % b] for i in range(n + 1))
    g = Spectrum(n, g_bits)
    per_g = period(g)
    if per_g != b:
        raise AssertionError("periodic extension must realize the window period")
    h = spec ^ g
    return StandardDecomposition(g=g, h=h, per_g=per_g, B_h=bounded_index(h),
                                 window=(lo, hi), fallback=False)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def maj_spectrum(n: int) -> Spectrum:
    """Majority: accepts inputs with more 1s than 0s."""
    return Spectrum(n, tuple(1 if 2 * w > n else 0 for w in range(n + 1)))


def thr_spectrum(n: int, t: int) -> Spectrum:
    """Threshold: accepts weights >= t."""
    if not (0 <= t <= n):
        raise ValueError(f"threshold {t} out of [0, {n}]")
    return Spectrum(n, tuple(1 if w >= t else 0 for w in range(n + 1)))


def ethr_spectrum(n: int, t: int) -> Spectrum:
    """Exact threshold: accepts weight exactly t."""
    if not (0 <= t <= n):
        raise ValueError(f"threshold {t} out of [0, {n}]")
    return Spectrum(n, tuple(1 if w == t else 0 for w in range(n + 1)))


def mod_spectrum(n: int, b: int, i: int = 0) -> Spectrum:
    """MOD: accepts weights congruent to i mod b."""
    if not (2 <= b <= n):
        raise ValueError(f"modulus {b} out of [2, {n}]")
    if not (0 <= i < b):
        raise ValueError(f"residue {i} out of [0, {b - 1}]")
    return Spectrum(n, tuple(1 if w % b == i else 0 for w in range(n + 1)))


def make_family(name: str, n: int) -> Spectrum:
    """Build a named family from its text form: maj, thr:t, ethr:t, mod:b[:i].

    An unknown name, or a missing, extra or non-integer field, raises
    ``ValueError``.
    """
    kind, *fields = name.lower().split(":")
    build, counts = {"maj": (maj_spectrum, (0,)), "thr": (thr_spectrum, (1,)),
                     "ethr": (ethr_spectrum, (1,)),
                     "mod": (mod_spectrum, (1, 2))}.get(kind, (None, ()))
    if build is None:
        raise ValueError(f"unknown family {name!r}")
    if len(fields) not in counts:
        raise ValueError(f"family {name!r} has {len(fields)} fields after "
                         f"{kind!r}, not {' or '.join(map(str, counts))}")
    return build(n, *map(int, fields))


# ---------------------------------------------------------------------------
# probabilistic-degree case classifier
# ---------------------------------------------------------------------------

CASE_APERIODIC = "aperiodic-or-bad-period"
CASE_P_POWER = "pure-p-power-period"
CASE_MIXED = "mixed"


@dataclass(frozen=True)
class PdegCase:
    """Branch label and bound-shape value (constant 1, natural log).

    The value is the dominant term of the matching degree-bound expression
    evaluated as a plain number; it is a bound SHAPE, never a certified
    degree, since the hidden constants depend on the characteristic.
    """

    label: str
    value: float
    n: int
    p: int
    eps: float
    per_g: int
    B_h: int


def classify_pdeg(spec: Spectrum, p: int, eps: float) -> PdegCase:
    """Select the probabilistic-degree bound branch for a spectrum.

    Branch selection is a pure function of (per(g) = 1 / p-power / other,
    B(h) = 0 or not): period not a p-power -> sqrt(n log(1/eps)); p-power
    period with B(h) = 0 -> min(sqrt(n log(1/eps)), per(g)); otherwise the
    mixed expression.
    """
    n = spec.n
    if not (2.0 ** (-n) <= eps <= 1 / 3):
        raise ValueError(f"eps {eps} outside [2^-n, 1/3]")
    dec = standard_decomposition(spec)
    per_g, B_h = dec.per_g, dec.B_h
    L = math.log(1 / eps)
    root = math.sqrt(n * L)
    if per_g > 1 and p_adic_part(per_g, p) != per_g:
        label, value = CASE_APERIODIC, root
    elif B_h == 0:
        label, value = CASE_P_POWER, min(root, float(per_g))
    else:
        label, value = CASE_MIXED, min(root, per_g + math.sqrt(B_h * L) + L)
    return PdegCase(label=label, value=value, n=n, p=p, eps=eps,
                    per_g=per_g, B_h=B_h)


# ---------------------------------------------------------------------------
# exact polynomial for p-power-periodic weight functions
# ---------------------------------------------------------------------------

def periodic_exact_poly(n: int, q: int, values: Sequence[int],
                        field: PrimeField) -> MultilinearPoly:
    """A degree-< q polynomial whose value at weight w is values[w mod q].

    Requires q = p^l.  The polynomial is the e-basis expansion of the
    periodic table, whose coefficients are its forward differences at 0.
    Lucas periodicity bounds the degree: over F_p, (E - 1)^q = E^q - 1 for
    the shift E, so the q-th and later differences of a q-periodic table
    vanish.
    """
    p = field.p
    if p_adic_part(q, p) != q:
        raise ValueError(f"q={q} must be a power of p={p}")
    if q > n:
        raise ValueError(f"need q <= n, got q={q}, n={n}")
    if len(values) != q:
        raise ValueError(f"value table must have length q={q}")
    poly = MultilinearPoly.from_sym(n, field, ecoeffs_from_weight_values(
        [values[w % q] for w in range(n + 1)], p))
    if poly.degree >= q:
        raise AssertionError("a q-periodic weight table must have degree below q")
    return poly
