"""Size limits, shared error types and the working precision.

Every operation that could materialize a combinatorial explosion checks a
limit and raises ``CapExceeded`` instead of thrashing.  The two limits a run
may set (the CLI's ``--max-slice-points`` and ``--max-terms``) are the
fields of ``Caps``, passed to the functions that read them.  The others are
constants, each checked once where it is read: ``MAX_VARIABLES`` in
``cube.point_array`` and ``cube.slice_array``, ``MAX_COLS`` in
``cube.monomial_array`` and ``MAX_ROWS`` in ``closure.EvaluationMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

DPS = 40  # mpmath digits for threshold arithmetic (>= 30 significant)
MAX_VARIABLES = 64  # points and monomials are n-bit masks in uint64 arrays
MAX_COLS = 2 * 10**4  # largest monomial count N_D in linear algebra
MAX_ROWS = 10**6  # largest point count in an evaluation matrix


def mpf_fraction(fr: Fraction) -> mp.mpf:
    """An exact rational as an mpmath float at the working precision."""
    with mp.workdps(DPS):
        return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


def frac_str(fr: Fraction) -> str:
    """An exact rational as the text "numerator/denominator" of reports."""
    return f"{fr.numerator}/{fr.denominator}"


class CapExceeded(RuntimeError):
    """An operation would exceed a configured size cap."""


@dataclass(frozen=True)
class Caps:
    max_slice_points: int = 10**7   # largest slice / point set we will enumerate
    max_terms: int = 10**7          # largest polynomial term map we will materialize


DEFAULT_CAPS = Caps()


def check_cap(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise CapExceeded(f"{what} = {value} exceeds cap {limit}")
