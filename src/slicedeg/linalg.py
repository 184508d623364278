"""Exact dense linear algebra over a prime field F_p.

``RankOracle`` is the one interface: rank, pivots, canonical nullspace and
row-space membership of a growing set of rows.  Two storage backends sit
behind it: bit-packed integer rows for p = 2 (XOR elimination, 64+ columns
per machine word via Python ints) and numpy int64 rows for odd p.  All
output is deterministic: pivots are chosen scanning columns left to right,
rows top to bottom.

GF(2) rows are absorbed one at a time by ``extend``, labelled builds and
builds under ``GF2_BATCH_ROWS`` rows; larger builds run ``_rref_words``, the
method of Four Russians (M4RI; Albrecht, Bard and Hart, ACM TOMS 2010) on a
packed uint64 block.  A row space has one RREF, so both keep the same pivot
rows; ``pivot_owner`` and ``pivot_dependents`` follow the absorb order.

Odd-p oracles are built by one batch RREF, ``_rref_array``.  It eliminates
with delayed modular reduction (after FFLAS-FFPACK, Dumas, Giorgi and
Pernet, ACM TOMS 2008) in the narrowest signed type, int16, int32 or else
int64, in which ``cols`` updates of size (p - 1)^2 fit; the type follows
from p and the width alone.  No entry takes more than the growth bound
(max - p) // (p - 1)^2 of updates between two reductions, so every
intermediate value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check (intended range p < 2^31)."""
    if p < 2:
        return False
    for small in (2, 3):
        if p % small == 0:
            return p == small
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            return False
        d += 6
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p with canonical residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31):
            raise ValueError(f"modulus {self.p} out of supported range [2, 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


def _growth_bound(dtype, p: int) -> int:
    """How many updates of size at most (p - 1)^2 an entry reduced into
    [0, p) can take in ``dtype`` before it must be reduced again."""
    return (int(np.iinfo(dtype).max) - p) // (p - 1) ** 2


def _work_dtype(p: int, cols: int):
    """The narrowest work type in which ``cols`` updates fit, else int64.

    An elimination makes at most one update per pivot, and there are at most
    ``cols`` pivots, so int16 and int32 never need a periodic reduction.
    """
    for dtype in (np.int16, np.int32):
        if _growth_bound(dtype, p) >= cols:
            return dtype
    return np.int64  # holds (p - 1)^2 + p, one update, for every p < 2^31


def _rref_array(a: np.ndarray, p: int, track_dependents: bool = False):
    """In-place RREF of ``a`` mod p.

    Returns (rank, pivot_cols, pivot_src_rows, dependents).  ``pivot_src_rows``
    gives the original row index that supplied each pivot; ``dependents`` maps
    pivot column -> number of other rows reduced against it (only filled when
    ``track_dependents``).

    The elimination runs on a copy in ``_work_dtype(p, cols)`` with delayed
    reduction.  Invariants, with bound = ``_growth_bound(dtype, p)``:

    - an entry is reduced into [0, p) and then only decreases, by at most
      (p - 1)^2 per update, and the block takes at most ``bound`` updates
      between two reductions, so no entry leaves [-(max - p), p);
    - the pivot column is reduced before it is searched and used, and the
      pivot row before it is scaled, so every product is at most (p - 1)^2;
    - columns left of the pivot are final: the pivot row is zero there, so an
      update touches columns >= the pivot only.

    The block is reduced when the next update would exceed the bound, which
    happens in int64 only (at a few hundred columns, for p above about 2^27;
    every step or two at p near 2^31), and once at the end into ``a``.
    """
    rows, cols = a.shape
    dtype = _work_dtype(p, cols)
    bound = _growth_bound(dtype, p)
    w = np.mod(a, p).astype(dtype)
    pivot_cols: list[int] = []
    pivot_src_row: list[int] = []
    dependents: dict[int, int] = {}
    orig = list(range(rows))
    pending = 0  # updates since the block was last reduced
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        colvals = w[:, c] % p
        w[:, c] = colvals
        nz = np.flatnonzero(colvals[r:])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            w[[r, piv]] = w[[piv, r]]
            colvals[[r, piv]] = colvals[[piv, r]]
            orig[r], orig[piv] = orig[piv], orig[r]
        prow = w[r, c:]
        prow %= p
        inv = pow(int(prow[0]), p - 2, p)
        if inv != 1:
            prow *= inv
            prow %= p
        colvals[r] = 0
        touched = np.flatnonzero(colvals)
        if touched.size:
            if pending == bound:
                w[:, c:] %= p
                pending = 0
            w[touched, c:] -= np.outer(colvals[touched], prow)
            pending += 1
        if track_dependents:
            dependents[c] = int(touched.size)
        pivot_cols.append(c)
        pivot_src_row.append(orig[r])
        r += 1
    a[...] = np.mod(w, p)
    return r, pivot_cols, pivot_src_row, dependents


# Rows from which an unlabelled GF(2) build runs ``_rref_words``; below it,
# per-strip overhead makes absorbing faster (crossover in BENCH_11.json).
GF2_BATCH_ROWS = 100


def _pack_words(rows: np.ndarray) -> np.ndarray:
    """Pack 0/1 rows into a rows x words little-endian uint64 array, bit j of
    a row = column j (bit j % 64 of word j // 64)."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    out = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def pack_bool_rows(rows: np.ndarray) -> list[int]:
    """Pack 0/1 rows into Python ints, bit j = column j."""
    return [int.from_bytes(r.tobytes(), "little") for r in _pack_words(rows)]


def _rref_words(w: np.ndarray) -> dict[int, int]:
    """Gauss-Jordan RREF of packed GF(2) rows, in place, by the method of Four
    Russians; returns pivot column -> reduced pivot row as a Python int.

    Strip s is byte s of every row, columns 8s..8s+7.  Rows without a pivot
    are zero left of the strip, so a table of all 2^kp sums of the strip's
    kp pivot rows needs only the words from the strip's own word onward.
    Every row XORs the one table row that agrees with it on the strip's
    pivot columns (``lut`` of its byte), which clears them.
    """
    rows, words = w.shape
    strips = w.view(np.uint8)
    free = np.ones(rows, dtype=bool)  # rows that hold no pivot yet
    pivot_row: dict[int, int] = {}
    for s in range(8 * words):
        byte = strips[:, s]
        cand = np.flatnonzero(free & (byte != 0))
        if cand.size == 0:
            continue
        basis: dict[int, int] = {}  # lowest set bit -> reduced strip byte
        chosen = []  # one row per basis byte
        vals, first = np.unique(byte[cand], return_index=True)
        for v, row in zip(vals.tolist(), cand[first].tolist()):
            while v and v & -v in basis:
                v ^= basis[v & -v]
            if v:
                basis[v & -v] = v
                chosen.append(row)
                if len(basis) == 8:
                    break
        w0, kp = s // 8, len(chosen)
        table = np.zeros((1 << kp, words - w0), dtype=w.dtype)
        for i, r in enumerate(chosen):
            table[1 << i:2 << i] = table[:1 << i] ^ w[r, w0:]
        bits = sum(basis)
        lut = np.empty(256, dtype=np.intp)
        lut[table.view(np.uint8)[:, s % 8] & bits] = np.arange(1 << kp)
        w[:, w0:] ^= table[lut[byte & bits]]  # the chosen rows become zero
        for bit, r in zip(basis, chosen):
            w[r, w0:] = table[lut[bit]]
            free[r] = False
            pivot_row[8 * s + bit.bit_length() - 1] = r
    return {c: int.from_bytes(w[r].tobytes(), "little")
            for c, r in pivot_row.items()}


def _checked_block(a: np.ndarray, cols: int) -> np.ndarray:
    if a.ndim != 2 or a.shape[1] != cols:
        raise ValueError(f"rows of shape {a.shape[1:]} != ({cols},)")
    return a


class _BitRankOracle:
    """GF(2) backend: a row is a Python int, bit i = column i."""

    __slots__ = ("cols", "pivots", "pivot_mask", "dependents")

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: dict[int, int] = {}
        self.pivot_mask = 0
        self.dependents: dict[int, int] = {}

    def rows(self, block) -> list[int]:
        if isinstance(block, list) and all(type(r) is int for r in block):
            return block
        return pack_bool_rows(_checked_block(np.asarray(block) % 2, self.cols))

    def _reduce(self, row: int, count: bool = False) -> int:
        pivots = self.pivots
        deps = self.dependents
        while True:
            t = row & self.pivot_mask
            if not t:
                return row
            c = (t & -t).bit_length() - 1
            row ^= pivots[c]
            if count:
                deps[c] = deps.get(c, 0) + 1

    def absorb(self, row: int) -> Optional[int]:
        res = self._reduce(row, count=True)
        if res == 0:
            return None
        c = (res & -res).bit_length() - 1
        bit = 1 << c
        for pc, prow in self.pivots.items():
            if prow & bit:
                self.pivots[pc] = prow ^ res
        self.pivots[c] = res
        self.pivot_mask |= bit
        self.dependents.setdefault(c, 0)
        return c

    def members(self, rows: list[int]) -> list[bool]:
        return [self._reduce(r) == 0 for r in rows]

    def residue(self, row: int) -> list[int]:
        res = self._reduce(row)
        return [(res >> i) & 1 for i in range(self.cols)]

    def entry(self, pivot_col: int, col: int) -> int:
        return (self.pivots[pivot_col] >> col) & 1


class _ArrRankOracle:
    """Odd-p backend: numpy int64 rows, normalized lead 1, kept reduced."""

    __slots__ = ("cols", "p", "pivots", "dependents")

    def __init__(self, cols: int, p: int):
        self.cols = cols
        self.p = p
        self.pivots: dict[int, np.ndarray] = {}
        self.dependents: dict[int, int] = {}

    def rows(self, block) -> np.ndarray:
        a = np.mod(np.asarray(block, dtype=np.int64), self.p)
        if a.shape == (0,):  # an empty list is no rows, as on GF(2)
            a = a.reshape(0, self.cols)
        return _checked_block(a, self.cols)

    def _reduce(self, work: np.ndarray, count: bool = False) -> np.ndarray:
        """Reduce every row of the block ``work`` in place to its residue.

        Each stored row is zero in the other pivot columns, so a row's
        coefficient on a pivot is its entry there before any update, and
        pivots no row touches are skipped.
        """
        p = self.p
        cols = sorted(self.pivots)
        for i in np.flatnonzero(work[:, cols].any(axis=0)):
            c = cols[i]
            vals = work[:, c]
            nz = np.flatnonzero(vals)
            work[nz] = (work[nz] - np.outer(vals[nz], self.pivots[c])) % p
            if count:
                self.dependents[c] = self.dependents.get(c, 0) + int(nz.size)
        return work

    def absorb(self, row: np.ndarray) -> Optional[int]:
        res = self._reduce(row[None, :], count=True)[0]
        nz = np.nonzero(res)[0]
        if nz.size == 0:
            return None
        c = int(nz[0])
        inv = pow(int(res[c]), self.p - 2, self.p)
        if inv != 1:
            res = (res * inv) % self.p
        for pc, prow in self.pivots.items():
            v = int(prow[c])
            if v:
                self.pivots[pc] = (prow - v * res) % self.p
        self.pivots[c] = res
        self.dependents.setdefault(c, 0)
        return c

    def members(self, rows: np.ndarray) -> list[bool]:
        return (~self._reduce(rows).any(axis=1)).tolist()

    def residue(self, row: np.ndarray) -> list[int]:
        return self._reduce(row[None, :])[0].tolist()

    def entry(self, pivot_col: int, col: int) -> int:
        return int(self.pivots[pivot_col][col])


class RankOracle:
    """Incremental row-space oracle over F_p.

    Stored rows are maintained in reduced echelon form: each has a leading 1
    in a distinct pivot column and zeros in the other pivot columns.
    ``absorb`` grows the span (returns True iff rank grew); ``member`` is a
    read-only span test.  Final rank equals batch-RREF rank regardless of
    absorption order.

    Rows may be given as 0/1 or integer numpy rows, int lists, or rows
    already converted by ``rows``; only this module knows the stored format.
    """

    def __init__(self, field: PrimeField, cols: int):
        self.field = field
        self.cols = cols
        if field.p == 2:
            self._impl = _BitRankOracle(cols)
        else:
            self._impl = _ArrRankOracle(cols, field.p)
        self._pivot_owner: dict[int, object] = {}

    def rows(self, block):
        """The rows of a 2-D block in the stored format.

        ``absorb``, ``member``, ``members`` and ``residue`` take the result
        (or its elements) as they are, so a block used against many oracles
        of the same field and width is converted once.  Converting again
        returns GF(2) rows unchanged and copies odd-p rows.
        """
        return self._impl.rows(block)

    def absorb(self, row, label=None) -> bool:
        rank = self.rank
        self.extend([row], None if label is None else [label])
        return self.rank > rank

    def extend(self, block, row_labels: Optional[Sequence] = None) -> None:
        """Absorb the rows of a block in order, labelling each new pivot
        with its row's label when labels are given."""
        impl = self._impl
        for idx, r in enumerate(impl.rows(block)):
            new_pivot = impl.absorb(r)
            if new_pivot is not None and row_labels is not None:
                self._pivot_owner[new_pivot] = row_labels[idx]

    def member(self, row) -> bool:
        return self.members([row])[0]

    def members(self, block) -> list[bool]:
        """Row-space membership of every row of a 2-D block."""
        return self._impl.members(self.rows(block))

    @property
    def rank(self) -> int:
        return len(self._impl.pivots)

    @property
    def pivot_dependents(self) -> dict[int, int]:
        """pivot column -> number of rows reduced against it so far, counted
        on the absorb path only; greedy ``robust_search``'s labelled build
        is its one reader."""
        return dict(self._impl.dependents)

    @property
    def pivot_owner(self) -> dict[int, object]:
        """pivot column -> label of the absorbed row that created it."""
        return dict(self._pivot_owner)

    def pivot_columns(self) -> list[int]:
        return sorted(self._impl.pivots)

    def residue(self, row) -> list[int]:
        """The fully reduced remainder of ``row`` against the stored pivots.

        Zero iff the row is a member.  Entry f of the residue equals the
        inner product of ``row`` with the canonical nullspace vector of free
        column f, which makes witness extraction a lookup.
        """
        return self._impl.residue(self.rows([row])[0])

    def nullspace_vector(self, free_col: int) -> list[int]:
        """Canonical nullspace vector for one free (non-pivot) column."""
        if free_col in self._impl.pivots:
            raise ValueError(f"column {free_col} is a pivot column")
        v = [0] * self.cols
        v[free_col] = 1
        for pc in self._impl.pivots:
            v[pc] = (-self._impl.entry(pc, free_col)) % self.field.p
        return v

    def nullspace(self) -> list[tuple[int, ...]]:
        """Canonical nullspace basis (one vector per free column)."""
        pivot_set = set(self._impl.pivots)
        return [
            tuple(self.nullspace_vector(f))
            for f in range(self.cols)
            if f not in pivot_set
        ]

    # -- fast batch constructors ----------------------------------------
    @classmethod
    def from_rows(cls, field: PrimeField, rows: np.ndarray,
                  row_labels: Optional[Sequence] = None):
        """Build an oracle on a 2-D block: ``from_packed_rows`` for GF(2),
        one batch RREF for odd p."""
        if field.p == 2:
            return cls.from_packed_rows(field, rows.shape[1], rows, row_labels)
        return cls.from_array(field, rows, row_labels)

    @classmethod
    def from_packed_rows(cls, field: PrimeField, cols: int, rows: Sequence,
                         row_labels: Optional[Sequence] = None):
        """Build a GF(2) oracle on the packed rows of a 0/1 block.

        Unlabelled blocks of ``GF2_BATCH_ROWS`` rows or more are eliminated
        by ``_rref_words``; other blocks are absorbed row by row, in order.
        """
        if field.p != 2:
            raise ValueError("packed rows are a GF(2) representation")
        o = cls(field, cols)
        if row_labels is None and len(rows) >= GF2_BATCH_ROWS:
            w = _pack_words(_checked_block(np.asarray(rows) % 2, cols))
            o._impl.pivots = _rref_words(w)
            o._impl.pivot_mask = sum(1 << c for c in o._impl.pivots)
        else:
            o.extend(rows, row_labels)
        return o

    @classmethod
    def from_array(cls, field: PrimeField, a: np.ndarray,
                   row_labels: Optional[Sequence] = None):
        """Build an odd-p oracle from a dense int array with one batch RREF."""
        if field.p == 2:
            raise ValueError("GF(2) oracles are built from packed rows")
        o = cls(field, a.shape[1])
        work = a.astype(np.promote_types(a.dtype, np.min_scalar_type(field.p)))
        work %= field.p  # a 0/1 block stays uint8; only the pivots are int64
        rank, pivot_cols, pivot_src, dependents = _rref_array(
            work, field.p, track_dependents=True)
        impl = o._impl
        for i, c in enumerate(pivot_cols):
            impl.pivots[c] = work[i].astype(np.int64)
        impl.dependents = dependents
        if row_labels is not None:
            o._pivot_owner = {
                c: row_labels[src] for c, src in zip(pivot_cols, pivot_src)
            }
        return o
