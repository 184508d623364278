"""Exact dense linear algebra over a prime field F_p.

``RankOracle`` is the one interface: rank, pivots, canonical nullspace and
row-space membership of a growing set of rows.  Two storage backends sit
behind it: bit-packed integer rows for p = 2 (XOR elimination, 64+ columns
per machine word via Python ints) and one numpy int64 block for odd p.  All
output is deterministic: pivots are chosen scanning columns left to right,
rows top to bottom.

The GF(2) ``extend`` picks its kernel: a block of ``GF2_BATCH_ROWS`` rows or
more into an empty oracle runs ``_rref_words``, the method of Four Russians
(M4RI; Albrecht, Bard and Hart, ACM TOMS 2010) on a packed uint64 block, and
any other block is absorbed row by row.  A row space has one RREF, so both
keep the same pivot rows.

Odd p has one elimination, ``_rref_array``: a build is one batch RREF and
an ``extend`` one RREF of the new rows' residues.  It keeps row order and
reports the row that created each pivot, the rank profile (Dumas, Pernet and
Sultan, "Computing the rank profile matrix", ISSAC 2015).  It eliminates with
delayed modular reduction (after FFLAS-FFPACK, Dumas, Giorgi and Pernet,
ACM TOMS 2008) in the narrowest signed type, int16, int32 or else int64, in
which ``cols`` updates of size (p - 1)^2 fit; the type follows from p and
the width alone.  No entry takes more than the growth bound
(max - p) // (p - 1)^2 of updates between two reductions, so every
intermediate value is exact.  Residues, for membership and for ``extend``,
take one int64 product with the stored RREF per group of
``_growth_bound(np.int64, p)`` pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt
from types import MappingProxyType

import numpy as np


def is_prime(p: int) -> bool:
    """Trial-division primality check (intended range p < 2^31)."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p with canonical residues in [0, p)."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2**31):
            raise ValueError(f"modulus {self.p} out of supported range [2, 2^31)")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")


@cache
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


def _rref_array(a: np.ndarray, p: int):
    """RREF of ``a`` mod p, without writing ``a``; returns (rows, pivot_cols,
    sources): the RREF as int64 rows in [0, p), one per pivot in pivot order,
    and for pivot i its column and the row of ``a`` that created it.  Rows
    are never swapped: a column's pivot is its topmost row that holds none
    yet (``free``), so ``sources`` is the row rank profile.

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
    every step or two at p near 2^31), and the pivot rows once at the end.
    """
    rows, cols = a.shape
    dtype = _work_dtype(p, cols)
    bound = _growth_bound(dtype, p)
    a = a.astype(np.promote_types(a.dtype, np.min_scalar_type(p)), copy=False)
    w = np.mod(a, p).astype(dtype)
    free = np.ones(rows, dtype=bool)  # rows that hold no pivot yet
    pivot_cols, sources = [], []
    pending = 0  # updates since the block was last reduced
    for c in w.any(axis=0).nonzero()[0].tolist():  # zero columns stay zero
        if len(sources) == rows:
            break
        colvals = w[:, c] % p
        w[:, c] = colvals
        nz = (free & (colvals != 0)).nonzero()[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        prow = w[piv, c:] % p
        inv = pow(int(prow[0]), p - 2, p)
        if inv != 1:
            prow = prow * inv % p
        w[piv, c:] = prow
        colvals[piv] = 0
        touched = colvals.nonzero()[0]
        if touched.size:
            if pending == bound:
                w[:, c:] %= p
                pending = 0
            w[touched, c:] -= np.outer(colvals[touched], prow)
            pending += 1
        free[piv] = False
        pivot_cols.append(c)
        sources.append(piv)
    w = w[sources] % p  # frees the full block before the int64 copy
    return w.astype(np.int64), pivot_cols, sources


# Rows from which an empty GF(2) oracle's ``extend`` runs ``_rref_words``;
# below it, absorbing is faster (crossover in BENCH_11.json).
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


def _checked_block(block, cols: int) -> np.ndarray:
    """A 2-D block of rows of width ``cols``; an empty list is no rows."""
    a = np.asarray(block)
    if a.shape == (0,):
        a = a.astype(np.uint8).reshape(0, cols)
    if a.ndim != 2 or a.shape[1] != cols:
        raise ValueError(f"rows of shape {a.shape[1:]} != ({cols},)")
    return a


class _BitRankOracle:
    """GF(2) backend: a row is a Python int, bit i = column i."""

    __slots__ = ("cols", "pivots", "pivot_mask")

    def __init__(self, cols: int):
        self.cols = cols
        self.pivots: dict[int, int] = {}
        self.pivot_mask = 0

    def _rows(self, block) -> list[int]:
        return pack_bool_rows(_checked_block(block, self.cols) & 1)

    def _reduce(self, row: int) -> int:
        pivots = self.pivots
        while True:
            t = row & self.pivot_mask
            if not t:
                return row
            c = (t & -t).bit_length() - 1
            row ^= pivots[c]

    def extend(self, block) -> None:
        """Absorb a block's rows: one ``_rref_words`` if the oracle is empty
        and the block has ``GF2_BATCH_ROWS`` rows or more, else row by row."""
        if isinstance(self.pivots, MappingProxyType):
            raise ValueError("a frozen oracle takes no rows")
        a = _checked_block(block, self.cols) & 1
        if not self.pivots and len(a) >= GF2_BATCH_ROWS:
            self.pivots = _rref_words(_pack_words(a))
            self.pivot_mask = sum(1 << c for c in self.pivots)
            return
        for row in pack_bool_rows(a):
            res = self._reduce(row)
            if res == 0:
                continue
            c = (res & -res).bit_length() - 1
            bit = 1 << c
            for pc, prow in self.pivots.items():
                if prow & bit:
                    self.pivots[pc] = prow ^ res
            self.pivots[c] = res
            self.pivot_mask |= bit

    def members(self, block) -> list[bool]:
        return [self._reduce(r) == 0 for r in self._rows(block)]

    def residue(self, row) -> list[int]:
        res = self._reduce(self._rows([row])[0])
        return [(res >> i) & 1 for i in range(self.cols)]

    def entry(self, pivot_col: int, col: int) -> int:
        return (self.pivots[pivot_col] >> col) & 1

    def prefix(self, cols: int) -> "_BitRankOracle":
        o, cut = _BitRankOracle(cols), (1 << cols) - 1
        o.pivots = {c: row & cut for c, row in self.pivots.items() if c < cols}
        o.pivot_mask = self.pivot_mask & cut
        return o

    def freeze(self) -> None:
        self.pivots = MappingProxyType(self.pivots)


def _subtract_product(w, coef, rows, p: int) -> np.ndarray:
    """``w`` minus ``coef @ rows`` mod p, in place, for int64 blocks in [0, p):
    one product per group of ``_growth_bound(np.int64, p)`` rows, reduced
    after each so no entry leaves int64, on the rows with a coefficient."""
    hit = coef.any(axis=1).nonzero()[0]
    if hit.size:
        sub, coef = w[hit], coef[hit]
        step = _growth_bound(np.int64, p)
        for g in range(0, len(rows), step):
            sub -= coef[:, g:g + step] @ rows[g:g + step]
            sub %= p
        w[hit] = sub
    return w


class _ArrRankOracle:
    """Odd-p backend: the RREF as one int64 block, one row per pivot column
    in ascending column order; ``pivots`` maps each pivot column to its row."""

    __slots__ = ("cols", "p", "block", "pivots")

    def __init__(self, cols: int, p: int):
        self.cols = cols
        self.p = p
        self.block = np.zeros((0, cols), dtype=np.int64)
        self.pivots: dict[int, np.ndarray] = {}

    def _reduce(self, block) -> np.ndarray:
        """The residues of a block's rows, a new int64 block in [0, p).  A
        row's coefficient on a pivot is its entry there, as each stored row is
        1 in its own pivot column and 0 in the others."""
        w = _checked_block(block, self.cols).astype(np.int64)
        w %= self.p
        return _subtract_product(w, w[:, list(self.pivots)], self.block,
                                 self.p)

    def extend(self, block) -> None:
        """One ``_rref_array`` of the block's residues; its pivot columns are
        cleared from the stored rows, and the rows merge by pivot column."""
        if not self.block.flags.writeable:
            raise ValueError("a frozen oracle takes no rows")
        p = self.p
        old = list(self.pivots)
        a = self._reduce(block) if old else _checked_block(block, self.cols)
        new, cols, _ = _rref_array(a, p)
        if cols:
            if old:  # an empty oracle takes the new rows without a copy
                _subtract_product(self.block, self.block[:, cols], new, p)
                new = np.insert(self.block, np.searchsorted(old, cols), new, 0)
            self.block = new
            self.pivots = dict(zip(sorted(old + cols), new))

    def members(self, block) -> list[bool]:
        return (~self._reduce(block).any(axis=1)).tolist()

    def residue(self, row) -> list[int]:
        return self._reduce([row])[0].tolist()

    def entry(self, pivot_col: int, col: int) -> int:
        return int(self.pivots[pivot_col][col])

    def prefix(self, cols: int) -> "_ArrRankOracle":
        """A view of the stored rows with a pivot below ``cols``, which are
        the first ones, cut to ``cols`` columns."""
        o = _ArrRankOracle(cols, self.p)
        kept = [c for c in self.pivots if c < cols]
        o.block = self.block[:len(kept), :cols]
        o.pivots = dict(zip(kept, o.block))
        return o

    def freeze(self) -> None:
        self.block.flags.writeable = False
        self.pivots = dict(zip(self.pivots, self.block))  # read-only rows too


class RankOracle:
    """Incremental row-space oracle over F_p.

    Stored rows are maintained in reduced echelon form: each has a leading 1
    in a distinct pivot column and zeros in the other pivot columns.
    ``extend`` grows the span; ``member`` is a read-only span test.  A row
    space has one RREF, so the stored rows do not depend on the order or
    grouping in which rows were absorbed.  ``prefix`` projects the span onto
    its first columns with no elimination, and ``freeze`` makes ``extend``
    raise.  Nothing in the library calls ``absorb`` (one row; True iff rank
    grew): perfbench's tracer hooks it.

    A block is a 2-D array or nested list of 0/1 or integer rows, a row a
    1-D one; only this module knows the stored format.
    """

    def __init__(self, field: PrimeField, cols: int):
        self.field = field
        self.cols = cols
        if field.p == 2:
            self._impl = _BitRankOracle(cols)
        else:
            self._impl = _ArrRankOracle(cols, field.p)

    def absorb(self, row) -> bool:
        rank = self.rank
        self.extend([row])
        return self.rank > rank

    def extend(self, block) -> None:
        """Absorb the rows of a block."""
        self._impl.extend(block)

    def member(self, row) -> bool:
        return self.members([row])[0]

    def members(self, block) -> list[bool]:
        """Row-space membership of every row of a 2-D block."""
        return self._impl.members(block)

    @property
    def rank(self) -> int:
        return len(self._impl.pivots)

    def pivot_columns(self) -> list[int]:
        return sorted(self._impl.pivots)

    def residue(self, row) -> list[int]:
        """The fully reduced remainder of ``row`` against the stored pivots.

        Zero iff the row is a member.  Entry f of the residue equals the
        inner product of ``row`` with the canonical nullspace vector of free
        column f, which makes witness extraction a lookup.
        """
        return self._impl.residue(row)

    def nullspace_vector(self, free_col: int) -> list[int]:
        """Canonical nullspace vector for one free (non-pivot) column."""
        if free_col in self._impl.pivots:
            raise ValueError(f"column {free_col} is a pivot column")
        v = [0] * self.cols
        v[free_col] = 1
        for pc in self._impl.pivots:
            v[pc] = (-self._impl.entry(pc, free_col)) % self.field.p
        return v

    def prefix(self, cols: int) -> "RankOracle":
        """The oracle of this span projected onto its first ``cols`` columns.

        A stored row whose pivot lies at or past ``cols`` is zero on the
        columns before it, so the stored rows with a pivot below ``cols``,
        cut to them, are the RREF of the projection.  Over odd p its rows are
        a view of this oracle's block, so freeze both or extend neither.
        """
        if not 0 <= cols <= self.cols:
            raise ValueError(f"prefix of {cols} columns out of [0, {self.cols}]")
        o = RankOracle(self.field, cols)
        o._impl = self._impl.prefix(cols)
        return o

    def freeze(self) -> "RankOracle":
        """Make every later ``extend`` raise ValueError, for an oracle whose
        rows are shared; over odd p its block becomes read-only.  Returns
        the oracle."""
        self._impl.freeze()
        return self

    def nullspace(self) -> list[tuple[int, ...]]:
        """Canonical nullspace basis (one vector per free column)."""
        return [tuple(self.nullspace_vector(f)) for f in range(self.cols)
                if f not in self._impl.pivots]

    # -- fast batch constructors ----------------------------------------
    @classmethod
    def from_rows(cls, field: PrimeField, rows: np.ndarray):
        """An oracle on a 2-D block, by ``from_packed_rows`` or ``from_array``."""
        if field.p == 2:
            return cls.from_packed_rows(field, rows.shape[1], rows)
        return cls.from_array(field, rows)

    @classmethod
    def from_packed_rows(cls, field: PrimeField, cols: int, rows: np.ndarray):
        """Build a GF(2) oracle on a 0/1 block: one ``extend``."""
        if field.p != 2:
            raise ValueError("packed rows are a GF(2) representation")
        o = cls(field, cols)
        o.extend(rows)
        return o

    @classmethod
    def from_array(cls, field: PrimeField, a: np.ndarray):
        """Build an odd-p oracle on a dense int block: one ``extend``."""
        if field.p == 2:
            raise ValueError("GF(2) oracles are built from packed rows")
        o = cls(field, a.shape[1])
        o.extend(a)
        return o
