"""Symmetric Boolean functions as weight-indexed spectra.

A symmetric function on n variables is the string Spec f of length n+1 with
Spec f(w) = value on weight-w inputs.  This module computes periods,
boundedness indices and the minimal-period middle-window decomposition, all
by shift and XOR on spectrum numbers, and holds the named families, the
periodic exact polynomial (the forward differences of its weight table) and
the probabilistic-degree case classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cube import MultilinearPoly, ecoeffs_from_weight_values, p_adic_part
from .linalg import PrimeField

_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")  # bit values -> "0" and "1"


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
        return bytes(self.bits).translate(_ASCII_BITS).decode()


def _number(spec: Spectrum) -> int:
    """The spectrum number of ``spec``: bit i is Spec f(i)."""
    return int(spec.to_string()[::-1], 2)


def _spectrum(n: int, x: int) -> Spectrum:
    """The spectrum whose number is ``x``."""
    return Spectrum(n, tuple((x >> i) & 1 for i in range(n + 1)))


# The shift-XOR functions below take spectrum numbers in either of two forms:
# one Python int, for any n, or an int64 array of them, for the exhaustive
# scans (n <= 62).  Each step adds a bool, or a bool array, to the answer, so
# one expression serves both forms.

def _least_period(x, length: int):
    """The least period of each ``length``-bit string x (bit j is position
    j): the least c >= 1 with bits j and j + c equal for all j, that is
    ((x ^ (x >> c)) & (2^(length - c) - 1)) == 0; c = length always holds."""
    least, miss = 1, True
    for c in range(1, length):
        miss &= ((x ^ (x >> c)) & ((1 << (length - c)) - 1)) != 0
        least += miss
    return least


def _bounded_index(h, n: int):
    """B(h) of each (n+1)-bit h: the least k at which bits k..n-k of h are
    all 0 or all 1; from k = floor(n/2) + 1 on, that segment is empty.  The
    segment shrinks as k grows, so B(h) is the number of k at which it is
    mixed."""
    least = 0
    for k in range(n // 2 + 1):
        seg = ((1 << (n - 2 * k + 1)) - 1) << k
        part = h & seg
        least += (part != 0) & (part != seg)
    return least


def decomposition_window(n: int) -> tuple[int, int]:
    """The agreement window [ceil(n/3)+1, floor(2n/3)] (may be empty)."""
    return (-(-n // 3) + 1, (2 * n) // 3)


def _decompose(x, n: int) -> tuple:
    """The standard decomposition of spectrum number(s) x of arity n >= 3.

    Returns (g, per(g), B(h), fallback), with g as a spectrum number and
    fallback whether the agreement window of n is empty (then g = 0).  g
    extends the window's least period b bit by bit, and per(g) is computed
    again from g: a per(g) other than b raises ``AssertionError``.  h is
    f xor g.
    """
    lo, hi = decomposition_window(n)
    fallback = lo > hi
    g = x & 0
    if not fallback:
        width = hi - lo + 1
        window = (x >> lo) & ((1 << width) - 1)
        b = _least_period(window, width)
        for i in range(n + 1):
            g |= ((window >> ((i - lo) % b)) & 1) << i
    per_g = _least_period(g, n + 1)
    if not fallback and np.any(per_g != b):
        raise AssertionError("periodic extension must realize the window period")
    return g, per_g, _bounded_index(x ^ g, n), fallback


def period(spec: Spectrum) -> int:
    """Smallest b with Spec f(i) = Spec f(i+b) on [0, n-b].

    A constant spectrum has period 1; b = n+1 means only the trivial
    full-length period exists.
    """
    return _least_period(_number(spec), spec.n + 1)


def primitive_root(w: str) -> tuple[str, int]:
    """Shortest z with w = z^k, k maximal (k = 1 iff w is primitive), for a
    0/1 word w, read as the number int(w, 2): a word and its reverse have
    the same periods."""
    if not w:
        raise ValueError("word must be non-empty")
    b = _least_period(int(w, 2), len(w))
    if len(w) % b == 0 and len(w) // b >= 2:
        return w[:b], len(w) // b
    return w, 1


def window_distinct_check(spec: Spectrum) -> bool:
    """Verify that length-b windows at offsets differing mod b are distinct.

    Requires per(spec) = b > 1; offsets range over [0, n-b+1].  One pass maps
    each window to the offset residue where it was first seen.
    """
    b = period(spec)
    if b <= 1:
        raise ValueError("spectrum has period 1; windows are all identical")
    x, mask = _number(spec), (1 << b) - 1
    first = {}
    for i in range(spec.n - b + 2):
        if first.setdefault((x >> i) & mask, i % b) != i % b:
            return False
    return True


def bounded_index(spec: Spectrum) -> int:
    """Smallest k such that the spectrum is constant on [k, n-k].

    A single-point interval is constant; an empty interval (k > n-k) is
    vacuously constant, so the index always exists.
    """
    return _bounded_index(_number(spec), spec.n)


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
    x = _number(spec)
    g, per_g, B_h, fallback = _decompose(x, n)
    return StandardDecomposition(g=_spectrum(n, g), h=_spectrum(n, x ^ g),
                                 per_g=per_g, B_h=B_h,
                                 window=decomposition_window(n),
                                 fallback=fallback)


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
    return _classify(standard_decomposition(spec), p, eps)


def _classify(dec: StandardDecomposition, p: int, eps: float) -> PdegCase:
    """``classify_pdeg`` of the spectrum whose decomposition is ``dec``."""
    n = dec.g.n
    if not (2.0 ** (-n) <= eps <= 1 / 3):
        raise ValueError(f"eps {eps} outside [2^-n, 1/3]")
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
