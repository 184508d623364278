"""Size caps, shared error types and the working precision.

Every operation that could materialize a combinatorial explosion checks an
explicit cap and fails loudly instead of thrashing.  Caps are carried in a
small dataclass so callers (and the CLI) can override them per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

DPS = 40  # mpmath digits for threshold arithmetic (>= 30 significant)


def mpf_fraction(fr: Fraction) -> mp.mpf:
    """An exact rational as an mpmath float at the working precision."""
    with mp.workdps(DPS):
        return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


class CapExceeded(RuntimeError):
    """An operation would exceed a configured size cap."""


@dataclass(frozen=True)
class Caps:
    max_slice_points: int = 10**7   # largest slice / point set we will enumerate
    max_terms: int = 10**7          # largest polynomial term map we will materialize
    max_cols: int = 2 * 10**4       # largest monomial count N_D in linear algebra
    max_rows: int = 10**6           # largest point count in an evaluation matrix

    def with_overrides(self, **kw) -> "Caps":
        return replace(self, **kw)


DEFAULT_CAPS = Caps()


def check_cap(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise CapExceeded(f"{what} = {value} exceeds cap {limit}")
