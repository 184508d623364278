"""Weight slices of {0,1}^n and multilinear polynomials over F_p.

A point of {0,1}^n and a monomial are both n-bit masks (bit i = coordinate /
variable x_{i+1}): a Python int one at a time, a 1-D uint64 array as a set
(``closure.EvaluationMatrix.points``).  A polynomial is a canonical map
monomial-mask -> nonzero coefficient.  Because multilinear representations
of functions on {0,1}^n are unique, two equal functions built multilinearly
always have identical term maps.

Symmetric polynomials admit a compact second representation: a coefficient
vector over the elementary symmetric basis (P = sum_j c_j e_j), which doubles
as a weight -> value certificate table: c_j is the j-th forward difference of
the table at weight 0, and the table is rebuilt from the c_j by repeated
summation (``ecoeffs_from_weight_values``, ``weight_values_from_ecoeffs``).
Constructors that produce symmetric polynomials store only this
certificate; evaluation, slice statistics,
degree and equality read it directly, and the term map is materialized on
demand by ``terms_map`` (under ``Caps.max_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import DEFAULT_CAPS, Caps, CapExceeded, check_cap
from .linalg import PrimeField

Mask = int  # monomial / point bitmask
CHUNK_CELLS = 1 << 18  # points x monomials per evaluation chunk: 2 MB uint64


def popcount(x: int) -> int:
    return x.bit_count()


def slice_masks(n: int, k: int) -> Iterator[Mask]:
    """All weight-k masks of n bits in increasing numeric order (Gosper's hack)."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


def monomials_upto(n: int, d: int, caps: Caps = DEFAULT_CAPS) -> list[Mask]:
    """All monomial masks of degree <= d in canonical order.

    Canonical order is graded by degree, ties broken by numeric mask value;
    this fixes the column order of every evaluation matrix.
    """
    total = sum(comb(n, j) for j in range(min(d, n) + 1))
    check_cap(total, caps.max_cols, f"monomial count N_{d}")
    out: list[Mask] = []
    for j in range(min(d, n) + 1):
        out.extend(slice_masks(n, j))
    return out


def n_monomials(n: int, d: int) -> int:
    """N_D = sum_{j<=D} C(n,j)."""
    return sum(comb(n, j) for j in range(min(d, n) + 1))


# ---------------------------------------------------------------------------
# elementary-symmetric basis helpers
# ---------------------------------------------------------------------------

def weight_values_from_ecoeffs(n: int, coeffs: Sequence[int],
                               p: Optional[int] = None) -> list[int]:
    """Value at each weight 0..n of sum_j coeffs[j] * e_j (mod p if given).

    The inverse of ``ecoeffs_from_weight_values``: starting from the top
    coefficient, each pass sums the previous table, g_j(w) = c_j +
    sum_{u<w} g_{j+1}(u), so that g_0 is the table.  O(n * degree) additions.
    """
    vals = [0] * (n + 1)
    for c in reversed(coeffs):
        vals = list(accumulate(vals[:n], initial=c))
        if p:
            vals = [v % p for v in vals]
    return vals


def ecoeffs_from_weight_values(values: Sequence[int], p: int) -> list[int]:
    """Coefficients over the e_j basis matching a weight->value table mod p.

    Newton's forward-difference formula f(w) = sum_j (Delta^j f)(0) C(w, j)
    gives c_j = (Delta^j f)(0); every symmetric function has a unique such
    expansion.
    """
    diffs = [v % p for v in values]
    coeffs = []
    while diffs:
        coeffs.append(diffs[0])
        diffs = [(b - a) % p for a, b in zip(diffs, diffs[1:])]
    return coeffs


def binomial_row(top: int, lo: int, hi: int) -> list[int]:
    """[C(top, j) for j in lo..hi], 0 <= lo, by one ``comb`` and the exact
    recurrence C(top, j+1) = C(top, j) (top - j) / (j + 1).  A negative
    ``top`` gives the generalized binomial C(-a, j) = (-1)^j C(a+j-1, j).
    """
    c = comb(top, lo) if top >= 0 else (-1) ** lo * comb(lo - top - 1, lo)
    row = []
    for j in range(lo, hi + 1):
        row.append(c)
        c = c * (top - j) // (j + 1)
    return row


@dataclass(frozen=True)
class SliceStats:
    """Nonvanishing count and fraction of a polynomial on one weight slice."""

    m: int
    nonzero_count: int
    slice_size: int

    @property
    def psi(self) -> Fraction:
        if self.slice_size == 0:
            return Fraction(0)
        return Fraction(self.nonzero_count, self.slice_size)


class MultilinearPoly:
    """Sparse multilinear polynomial over F_p on n Boolean variables.

    ``terms`` maps monomial masks to nonzero residues.  A certified-symmetric
    polynomial carries ``sym``, its coefficients over the elementary
    symmetric basis; its term map is built on the first ``terms_map`` call.
    """

    __slots__ = ("n", "field", "_terms", "_sym")

    def __init__(self, n: int, field: PrimeField,
                 terms: Optional[dict] = None,
                 sym: Optional[tuple] = None):
        if n < 1:
            raise ValueError("n must be positive")
        if terms is None and sym is None:
            raise ValueError("need a term map or symmetric coefficients")
        self.n = n
        self.field = field
        self._terms = terms
        self._sym = sym

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_terms(cls, n: int, field: PrimeField, terms) -> "MultilinearPoly":
        p = field.p
        clean: dict[Mask, int] = {}
        for m, c in dict(terms).items():
            if m < 0 or m >> n:
                raise ValueError(f"monomial mask 0x{m:x} out of range for n={n}")
            c %= p
            if c:
                clean[m] = c
        return cls(n, field, terms=clean)

    @classmethod
    def zero(cls, n: int, field: PrimeField) -> "MultilinearPoly":
        return cls(n, field, terms={}, sym=())

    @classmethod
    def constant(cls, n: int, field: PrimeField, c: int) -> "MultilinearPoly":
        c %= field.p
        if c == 0:
            return cls.zero(n, field)
        return cls(n, field, terms={0: c}, sym=(c,))

    @classmethod
    def from_sym(cls, n: int, field: PrimeField,
                 ecoeffs: Sequence[int]) -> "MultilinearPoly":
        """Symmetric polynomial sum_j ecoeffs[j] * e_j.

        Only the symmetric certificate is stored; ``terms_map`` materializes
        the term map on demand.
        """
        p = field.p
        coeffs = [c % p for c in ecoeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) > n + 1:
            raise ValueError("ecoeffs longer than n+1")
        return cls(n, field, sym=tuple(coeffs))

    # -- basic structure --------------------------------------------------
    @property
    def degree(self) -> int:
        """Max term degree; 0 for the zero polynomial by convention."""
        if self._sym is not None:
            return len(self._sym) - 1 if self._sym else 0
        if not self._terms:
            return 0
        return max(popcount(m) for m in self._terms)

    @property
    def sym_coeffs(self) -> Optional[tuple]:
        return self._sym

    @property
    def is_symmetric_certified(self) -> bool:
        return self._sym is not None

    def terms_map(self, caps: Caps = DEFAULT_CAPS) -> dict:
        """The canonical term map, materializing a lazy symmetric form."""
        if self._terms is None:
            total = sum(comb(self.n, j) for j, c in enumerate(self._sym) if c)
            check_cap(total, caps.max_terms, "materialized term count")
            terms = {}
            for j, c in enumerate(self._sym):
                if c:
                    for m in slice_masks(self.n, j):
                        terms[m] = c
            self._terms = terms
        return self._terms

    def sorted_terms(self, caps: Caps = DEFAULT_CAPS) -> list[tuple[Mask, int]]:
        """Terms in canonical order: graded by degree, then numeric mask."""
        return sorted(self.terms_map(caps).items(),
                      key=lambda mc: (popcount(mc[0]), mc[0]))

    # -- evaluation -------------------------------------------------------
    def weight_value(self, w: int) -> int:
        """Value on any point of weight w (symmetric polynomials only).

        One binomial sum, cheaper than the whole table for a single weight.
        """
        if self._sym is None:
            raise ValueError("no symmetric certificate attached")
        return sum(c * comb(w, j) for j, c in enumerate(self._sym) if c) % self.field.p

    def weight_values(self) -> Optional[tuple]:
        """Weight -> value table when certified symmetric, else None."""
        if self._sym is None:
            return None
        return tuple(weight_values_from_ecoeffs(self.n, self._sym, self.field.p))

    def evaluate(self, mask: Mask) -> int:
        """Value at the point with bitmask ``mask``."""
        if self._terms is None:
            return self.weight_value(popcount(mask))
        acc = 0
        for m, c in self._terms.items():
            if m & ~mask == 0:
                acc += c
        return acc % self.field.p

    def evaluate_many(self, masks: Sequence[int]) -> np.ndarray:
        """Vectorized evaluation at many point masks (n <= 63)."""
        if self._terms is None and self._sym is not None:
            table = np.array(self.weight_values(), dtype=np.int64)
            weights = np.array([popcount(m) for m in masks], dtype=np.int64)
            return table[weights]
        terms = self.terms_map()
        if not terms:
            return np.zeros(len(masks), dtype=np.int64)
        monos = np.array(list(terms.keys()), dtype=np.uint64)
        coeffs = np.array(list(terms.values()), dtype=np.int64)
        pts = np.array(masks, dtype=np.uint64)
        out = np.empty(len(masks), dtype=np.int64)
        chunk = max(1, CHUNK_CELLS // max(1, len(terms)))
        for lo in range(0, len(masks), chunk):
            sub = pts[lo:lo + chunk, None]
            hit = (monos[None, :] & ~sub) == 0
            out[lo:lo + chunk] = hit @ coeffs
        return np.mod(out, self.field.p)

    # -- equality ---------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        if self.n != other.n or self.field.p != other.field.p:
            return False
        if self._sym is not None and other._sym is not None:
            return self._sym == other._sym
        return self.terms_map() == other.terms_map()

    def __repr__(self):
        kind = "sym" if self._sym is not None else "terms"
        size = len(self._sym or ()) if self._terms is None else len(self._terms)
        return f"MultilinearPoly(n={self.n}, p={self.field.p}, {kind}:{size})"


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def multilinearize_product(P: MultilinearPoly, Q: MultilinearPoly,
                           caps: Caps = DEFAULT_CAPS) -> MultilinearPoly:
    """The unique multilinear polynomial equal to P*Q pointwise on {0,1}^n.

    Replacing x_i^r by x_i is realized by accumulating products on the union
    of the factor masks.
    """
    if P.n != Q.n or P.field.p != Q.field.p:
        raise ValueError("mismatched arity or field")
    p = P.field.p
    if P.is_symmetric_certified and Q.is_symmetric_certified:
        vals = [(a * b) % p for a, b in zip(P.weight_values(), Q.weight_values())]
        return MultilinearPoly.from_sym(
            P.n, P.field, ecoeffs_from_weight_values(vals, p))
    tp, tq = P.terms_map(caps), Q.terms_map(caps)
    if len(tp) * len(tq) > 10 * caps.max_terms:
        raise CapExceeded(
            f"product of {len(tp)} x {len(tq)} terms exceeds work cap")
    acc: dict[Mask, int] = {}
    for m1, c1 in tp.items():
        for m2, c2 in tq.items():
            m = m1 | m2
            v = (acc.get(m, 0) + c1 * c2) % p
            if v:
                acc[m] = v
            elif m in acc:
                del acc[m]
    check_cap(len(acc), caps.max_terms, "product term count")
    return MultilinearPoly(P.n, P.field, terms=acc)


def slice_stats(P: MultilinearPoly, m: int, caps: Caps = DEFAULT_CAPS) -> SliceStats:
    """Exact |NZ_m(P)| and psi_m(P) on the weight-m slice."""
    size = comb(P.n, m)
    if P.is_symmetric_certified:
        nz = size if P.weight_value(m) != 0 else 0
        return SliceStats(m=m, nonzero_count=nz, slice_size=size)
    if P.n > 63:
        raise CapExceeded("slice enumeration needs n <= 63 or a certificate")
    check_cap(size, caps.max_slice_points, f"slice size C({P.n},{m})")
    masks = list(slice_masks(P.n, m))
    vals = P.evaluate_many(masks)
    return SliceStats(m=m, nonzero_count=int(np.count_nonzero(vals)),
                      slice_size=size)


def symmetric_value_table(P: MultilinearPoly,
                          caps: Caps = DEFAULT_CAPS) -> Optional[tuple]:
    """Weight -> value table if P is constant on every slice, else None.

    O(n) for certificate-carrying polynomials; otherwise verified by full
    slice enumeration under the cap.
    """
    if P.is_symmetric_certified:
        return P.weight_values()
    if P.n > 63:
        raise CapExceeded("certificate-free symmetry check needs n <= 63")
    check_cap(1 << P.n, caps.max_slice_points, "full-cube enumeration")
    table = []
    for w in range(P.n + 1):
        masks = list(slice_masks(P.n, w))
        vals = P.evaluate_many(masks)
        first = int(vals[0])
        if np.any(vals != first):
            return None
        table.append(first)
    return tuple(table)


def elementary_symmetric(n: int, j: int, field: PrimeField) -> MultilinearPoly:
    """e_j on n variables; evaluates to C(w, j) mod p at weight-w points."""
    if not (0 <= j <= n):
        raise ValueError(f"need 0 <= j <= n, got j={j}")
    coeffs = [0] * j + [1]
    return MultilinearPoly.from_sym(n, field, coeffs)


# ---------------------------------------------------------------------------
# JSON polynomial format
# ---------------------------------------------------------------------------

def poly_to_json_dict(P: MultilinearPoly, caps: Caps = DEFAULT_CAPS) -> dict:
    """{"p", "n", "terms": [{"mask": hex, "c": coeff}, ...]} in canonical order."""
    return {
        "p": P.field.p,
        "n": P.n,
        "terms": [{"mask": hex(m), "c": c} for m, c in P.sorted_terms(caps)],
    }

