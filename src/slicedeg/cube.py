"""Weight slices of {0,1}^n and multilinear polynomials over F_p.

A point of {0,1}^n and a monomial are both n-bit masks (bit i = coordinate /
variable x_{i+1}): a Python int one at a time, a 1-D uint64 array as a set
(``closure.EvaluationMatrix.points``).  A weight slice is one cached,
read-only uint64 array (``slice_array``), the only enumeration of a slice
that fits uint64, and the degree-<=d monomials are the concatenation of slices 0..d
(``monomial_array``).  A polynomial is a canonical map
monomial-mask -> nonzero coefficient.  Because multilinear representations
of functions on {0,1}^n are unique, two equal functions built multilinearly
always have identical term maps.

Symmetric polynomials admit a compact second representation: a coefficient
vector over the elementary symmetric basis (P = sum_j c_j e_j), which doubles
as a weight -> value certificate table: c_j is the j-th forward difference of
the table at weight 0, and the table is rebuilt from the c_j by repeated
summation (``ecoeffs_from_weight_values``, ``weight_values_from_ecoeffs``).
Mod p, Lucas's theorem C(w, j) = prod_i C(w_i, j_i) over base-p digits
makes the matrix [C(w, j)] a tensor product of one small binomial matrix per
digit, so both run in int64 numpy one digit axis at a time: the same sums or
differences along each axis, reduced after each pass, about L * p passes for
L digits instead of one per order (one axis, one pass per order, for
p > n).  That is exact, since a pass adds at most min(p, n + 1) residues
and p (p - 1) < 2^63 for every p < 2^31.  Without p,
``weight_values_from_ecoeffs`` sums Python ints.
Constructors that produce symmetric polynomials store only this
certificate; evaluation, slice statistics,
degree and equality read it directly, and the term map is materialized on
demand by ``terms_map`` (under ``Caps.max_terms``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, prod
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .config import (DEFAULT_CAPS, MAX_COLS, MAX_VARIABLES, Caps, CapExceeded,
                     check_cap)
from .linalg import PrimeField

Mask = int  # monomial / point bitmask
CHUNK_CELLS = 1 << 18  # points x monomials per evaluation chunk: 2 MB uint64


def popcount(x: int) -> int:
    return x.bit_count()


def p_adic_part(q: int, p: int) -> int:
    """Largest power of p dividing q; p < 2 has none and raises ValueError."""
    if q <= 0 or p < 2:
        raise ValueError(f"a p-adic part needs q >= 1 and p >= 2, got {q}, {p}")
    out = 1
    while q % p == 0:
        q //= p
        out *= p
    return out


def point_array(masks: Iterable[Mask], n: int = MAX_VARIABLES) -> np.ndarray:
    """The masks as a 1-D uint64 array (a uint64 array is taken as it is);
    a mask outside [0, 2^n) or one that is not an integer raises
    ``ValueError``.  This and ``slice_array`` check the ``MAX_VARIABLES``
    limit: every evaluation converts its points here and every slice is
    enumerated there, so an n above it raises ``CapExceeded`` before any
    mask reaches uint64.

    Any other iterable is converted by one ``np.array`` call, which keeps
    integer dtypes and signs, so the checks on the array see every element.
    Integers with no common integer dtype (some at 2^63 or above next to
    smaller or signed ones, or none at all) are converted again as ints.
    """
    check_cap(n, MAX_VARIABLES, "variables n")
    if not isinstance(masks, np.ndarray):
        seq = masks if isinstance(masks, list) else list(masks)
        masks = np.array(seq)
        if masks.dtype.kind not in "iu" and all(
                isinstance(m, (int, np.integer)) for m in seq):
            try:
                masks = np.array([int(m) for m in seq], dtype=np.uint64)
            except OverflowError:
                raise ValueError(f"a mask is outside [0, 2^{n})") from None
    if masks.dtype.kind not in "iu":
        raise ValueError(f"masks of dtype {masks.dtype} are not integers")
    if masks.dtype.kind == "i" and masks.size and masks.min() < 0:
        raise ValueError(f"a mask is outside [0, 2^{n})")
    pts = masks.astype(np.uint64, copy=False)
    if len(pts) and int(pts.max()) >> n:
        raise ValueError(f"a mask is outside [0, 2^{n})")
    return pts


@lru_cache(maxsize=256)
def slice_array(n: int, k: int) -> np.ndarray:
    """All weight-k masks of n bits as a read-only uint64 array, in
    increasing numeric order (built by ``_enumerate_slice``; only the
    slices asked for are cached)."""
    check_cap(n, MAX_VARIABLES, "variables n")
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = _enumerate_slice(n, k)
    out.flags.writeable = False
    return out


def _enumerate_slice(n: int, k: int) -> np.ndarray:
    """slice(n, k) in increasing order, through slice(n - k + j, j) for
    j = 0 .. k.

    The weight-j masks below 2^m, by their top bit h = j - 1 .. m - 1, are
    the weight-(j - 1) masks below 2^h with bit h set; those are the first
    C(h, j - 1) of slice(m - 1, j - 1), because its order is increasing.
    So each j is one gather and one OR, the blocks of larger h hold larger
    masks, and the order holds by induction.  Above k = n / 2 the slice is
    the complement of slice(n, n - k), reversed.
    """
    if 2 * k > n:
        return np.uint64((1 << n) - 1) ^ _enumerate_slice(n, n - k)[::-1]
    out = np.zeros(1, dtype=np.uint64)
    for j in range(1, k + 1):
        tops = range(j - 1, n - k + j)
        counts = np.array([comb(h, j - 1) for h in tops])
        starts = np.cumsum(counts) - counts
        prefix = np.arange(counts.sum()) - np.repeat(starts, counts)
        bits = np.uint64(1) << np.arange(tops.start, tops.stop, dtype=np.uint64)
        out = out[prefix] | np.repeat(bits, counts)
    return out


def weight_slices(n: int, weights: Iterable[int]) -> np.ndarray:
    """The slices of ``weights``, in that order, as one uint64 array."""
    return np.concatenate([np.empty(0, dtype=np.uint64),
                           *(slice_array(n, w) for w in weights)])


@lru_cache(maxsize=32)
def monomial_array(n: int, d: int) -> np.ndarray:
    """All monomial masks of degree <= d in canonical order, as one
    read-only uint64 array shared by every evaluation matrix of (n, d).

    Canonical order is graded by degree, ties broken by numeric mask value;
    this fixes the column order of every evaluation matrix.
    """
    check_cap(n_monomials(n, d), MAX_COLS, f"monomial count N_{d}")
    monos = weight_slices(n, range(min(d, n) + 1))
    monos.flags.writeable = False
    return monos


def monomials_upto(n: int, d: int) -> list[Mask]:
    """``monomial_array(n, d)`` as a list of Python ints."""
    return monomial_array(n, d).tolist()


def n_monomials(n: int, d: int) -> int:
    """N_D = sum_{j<=D} C(n,j)."""
    return sum(comb(n, j) for j in range(min(d, n) + 1))


# ---------------------------------------------------------------------------
# elementary-symmetric basis helpers
# ---------------------------------------------------------------------------

def _digit_axes(n: int, p: int) -> tuple:
    """The base-p digits of the weights 0..n as array axes, most significant
    first: (n // p^(L-1) + 1, p, ..., p) for the L digits of n."""
    low, axes = 1, []
    while low * p <= n:
        low *= p
        axes.append(p)
    return (n // low + 1, *axes)


def _digit_views(table: np.ndarray, axes: tuple) -> Iterator[np.ndarray]:
    """The flat ``table`` as an (outer, digit, inner) view per digit axis."""
    outer = 1
    for length in axes:
        yield table.reshape(outer, length, -1)
        outer *= length


def weight_values_from_ecoeffs(n: int, coeffs: Sequence[int],
                               p: Optional[int] = None) -> list[int]:
    """Value at each weight 0..n of sum_j coeffs[j] * e_j (mod p if given).

    The inverse of ``ecoeffs_from_weight_values``: g_j(w) = c_j +
    sum_{u<w} g_{j+1}(u), starting from the top coefficient, makes g_0 the
    table.  Over the integers each g_j is one running sum of Python ints.
    Mod p the binomial matrix runs along each base-p digit axis of 0..n
    (see the module docstring), in place, as L - 1 slice adds on an axis of
    length L: G_j adds to every entry from j on its predecessor, all at
    once, and the Pascal matrix P_L = [C(w, j)] is G_(L-1) ... G_2 G_1,
    since G_(L-1) ... G_2 = diag(1, P_(L-1)) by induction and
    diag(1, P_(L-1)) (I + shift) = P_L by Pascal's rule.  A slice add is one
    numpy call, where ``np.cumsum`` along a short axis costs one call per
    position beside it.  Each pass is reduced mod p.  Weights past n pad the
    top axis with zero coefficients; that is exact, because the value at w
    reads only the c_j with j digit-wise <= w, so j <= w.
    """
    if not p:
        vals = [0] * (n + 1)
        for c in reversed(coeffs):
            vals = list(accumulate(vals[:n], initial=c))
        return vals
    axes = _digit_axes(n, p)
    table = np.zeros(prod(axes), dtype=np.int64)
    low = [c % p for c in coeffs[:n + 1]]
    table[:len(low)] = low
    for view in _digit_views(table, axes):
        for j in range(1, view.shape[1]):
            seg = view[:, j:]
            seg += view[:, j - 1:-1]
            seg %= p
    return table[:n + 1].tolist()


def ecoeffs_from_weight_values(values: Sequence[int], p: int) -> list[int]:
    """Coefficients over the e_j basis matching a weight->value table mod p.

    Newton's forward-difference formula f(w) = sum_j (Delta^j f)(0) C(w, j)
    gives c_j = (Delta^j f)(0); every symmetric function has a unique such
    expansion.  The differences run along each base-p digit axis of the
    weights (see the module docstring), in place: the pass for order j
    replaces each entry from j on by its difference with the one before,
    leaving Delta^j at position j.  The table is padded past its last
    weight n with zeros; that is exact, because c_j reads only the weights
    digit-wise <= j, so those <= j <= n.
    """
    n = len(values) - 1
    if n < 0:
        return []
    axes = _digit_axes(n, p)
    table = np.zeros(prod(axes), dtype=np.int64)
    table[:n + 1] = np.fromiter((v % p for v in values), dtype=np.int64,
                                count=n + 1)
    for view in _digit_views(table, axes):
        for j in range(1, view.shape[1]):
            seg = view[:, j:]
            seg -= view[:, j - 1:-1]
            seg %= p
    return table[:n + 1].tolist()


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
        """The canonical term map, materializing a lazy symmetric form.

        Its monomials are ``slice_array``'s; above ``MAX_VARIABLES`` they do
        not fit uint64, so there they are built as Python ints from
        ``combinations``.
        """
        if self._terms is None:
            total = sum(comb(self.n, j) for j, c in enumerate(self._sym) if c)
            check_cap(total, caps.max_terms, "materialized term count")
            terms = {}
            for j, c in enumerate(self._sym):
                if not c:
                    continue
                masks = (slice_array(self.n, j).tolist()
                         if self.n <= MAX_VARIABLES else
                         (sum(1 << i for i in vs)
                          for vs in combinations(range(self.n), j)))
                terms.update(dict.fromkeys(masks, c))
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
        C(w, j) steps by ``binomial_row``'s exact recurrence, one small
        multiply and divide per term, where a ``comb`` per term costs a
        product of up to j factors; inline, without the row's list, it is
        also cheaper than ``comb`` at the few-term separators of the
        sweeps.  A weight outside [0, n] raises ``ValueError``.
        """
        if self._sym is None:
            raise ValueError("no symmetric certificate attached")
        if not (0 <= w <= self.n):
            raise ValueError(f"need 0 <= w <= n, got w={w}, n={self.n}")
        acc, binom = 0, 1
        for j, c in enumerate(self._sym):
            if c:
                acc += c * binom
            binom = binom * (w - j) // (j + 1)
        return acc % self.field.p

    def weight_values(self) -> Optional[tuple]:
        """Weight -> value table when certified symmetric, else None."""
        if self._sym is None:
            return None
        return tuple(weight_values_from_ecoeffs(self.n, self._sym, self.field.p))

    def evaluate(self, mask: Mask) -> int:
        """Value at the point with bitmask ``mask``."""
        if mask < 0 or mask >> self.n:
            raise ValueError(f"a mask is outside [0, 2^{self.n})")
        if self._terms is None:
            return self.weight_value(popcount(mask))
        acc = 0
        for m, c in self._terms.items():
            if m & ~mask == 0:
                acc += c
        return acc % self.field.p

    def evaluate_many(self, masks: Iterable[Mask]) -> np.ndarray:
        """Vectorized evaluation at many point masks."""
        pts = point_array(masks, self.n)
        if self._terms is None:
            table = np.array(self.weight_values(), dtype=np.int64)
            return table[np.bitwise_count(pts)]
        terms = self.terms_map()
        if not terms:
            return np.zeros(len(pts), dtype=np.int64)
        monos = np.array(list(terms.keys()), dtype=np.uint64)
        coeffs = np.array(list(terms.values()), dtype=np.int64)
        out = np.empty(len(pts), dtype=np.int64)
        chunk = max(1, CHUNK_CELLS // max(1, len(terms)))
        for lo in range(0, len(pts), chunk):
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


_slice_size = lru_cache(maxsize=256)(comb)  # C(n, m): 25 ms at n = 40000


def slice_stats(P: MultilinearPoly, m: int, caps: Caps = DEFAULT_CAPS) -> SliceStats:
    """Exact |NZ_m(P)| and psi_m(P) on the weight-m slice; a weight
    outside [0, n] raises ``ValueError``."""
    if not (0 <= m <= P.n):
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={P.n}")
    size = _slice_size(P.n, m)
    if P.is_symmetric_certified:
        nz = size if P.weight_value(m) != 0 else 0
        return SliceStats(m=m, nonzero_count=nz, slice_size=size)
    check_cap(size, caps.max_slice_points, f"slice size C({P.n},{m})")
    vals = P.evaluate_many(slice_array(P.n, m))
    return SliceStats(m=m, nonzero_count=int(np.count_nonzero(vals)),
                      slice_size=size)


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

