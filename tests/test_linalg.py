"""Exact F_p linear algebra: the batch RREF kernel and the rank oracle."""

import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slicedeg import distinguish, linalg
from slicedeg.closure import evaluation_bool_matrix
from slicedeg.cube import monomials_upto, slice_array
from slicedeg.linalg import (GF2_BATCH_ROWS, PrimeField, RankOracle,
                             _growth_bound, _pack_words, _rref_array,
                             _rref_words, _work_dtype, is_prime)

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def brute_rank(field, rows):
    """Independent oracle: span size by enumerating all combinations."""
    p = field.p
    span = {tuple([0] * len(rows[0]) if rows else [])}
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p
                  for j in range(len(rows[0])))
        span.add(v)
    size = len(span)
    rank = 0
    while p**rank < size:
        rank += 1
    return rank


def reference_rref(rows, p):
    """Plain Python-int RREF with the kernel's pivot rule: the reduced rows
    and (rank, pivot_cols)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        if r >= len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        touched = [i for i in range(len(a)) if i != r and a[i][c]]
        for i in touched:
            f = a[i][c]
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, (r, pivots)


def rref_rows(rows, p):
    """``_rref_array`` on a list of rows: (its RREF rows then zero rows, as
    ``reference_rref`` lays them out, rank, pivot_cols)."""
    a = np.array(rows, dtype=np.int64)
    reduced, pivots, _ = _rref_array(a, p)
    a[:] = 0
    a[:len(reduced)] = reduced
    return a.tolist(), len(pivots), pivots


def absorb_owners(rows, p):
    """Plain Python-int rank profile: absorb the rows in order and return,
    by pivot column, the index of the row whose residue creates each pivot."""
    pivots, owner = {}, {}
    for i, row in enumerate(rows):
        row = [x % p for x in row]
        for c in sorted(pivots):
            f = row[c]
            row = [(x - f * y) % p for x, y in zip(row, pivots[c])]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for c, prow in pivots.items():
            f = prow[lead]
            pivots[c] = [(x - f * y) % p for x, y in zip(prow, row)]
        pivots[lead], owner[lead] = row, i
    return [owner[c] for c in sorted(owner)]


def canonical_nullspace(reduced, pivots, cols, p):
    """One basis vector per free column of an RREF: 1 in the free column
    and the negated RREF entries in the pivot columns."""
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [0] * cols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][free]) % p
        basis.append(tuple(v))
    return basis


def nullspace(rows, p):
    reduced, _, pivots = rref_rows(rows, p)
    return canonical_nullspace(reduced, pivots, len(rows[0]), p)


class TestPrimeField:
    def test_primality_check(self):
        for p in (2, 3, 5, 7, 11, 101, 65537):
            assert is_prime(p)
            PrimeField(p)
        for bad in (0, 1, 4, 6, 9, 91, 2**31):
            with pytest.raises(ValueError):
                PrimeField(bad)


class TestRref:
    def test_identity_f5(self):
        eye = np.eye(3, dtype=int).tolist()
        r, rank, pivots = rref_rows(eye, 5)
        assert rank == 3
        assert pivots == [0, 1, 2]
        assert r == eye

    def test_zero_f2(self):
        _, rank, _ = rref_rows([[0, 0], [0, 0]], 2)
        assert rank == 0

    def test_dependent_rows_f2(self):
        rows = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        _, rank, _ = rref_rows(rows, 2)
        assert rank == 2 == brute_rank(F2, rows)

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(1, 5),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_rref_idempotent(self, p, rows, cols, seed):
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        r1, rank1, piv1 = rref_rows(data, p)
        r2, rank2, piv2 = rref_rows(r1, p)
        assert r1 == r2 and rank1 == rank2 and piv1 == piv2
        want_rows, want = reference_rref(data, p)
        assert r1 == want_rows and (rank1, piv1) == want[:2]

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 8), st.integers(1, 64),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, p, rows, cols, seed):
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        _, rank, _ = rref_rows(data, p)
        basis = nullspace(data, p)
        assert rank <= min(rows, cols)
        assert len(basis) + rank == cols

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.integers(1, 6),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_brute_force(self, p, rows, cols, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        _, rank, _ = rref_rows(data, p)
        assert rank == brute_rank(field, data)


class TestNullspace:
    def test_identity_empty(self):
        assert nullspace(np.eye(4, dtype=int).tolist(), 3) == []

    def test_single_row_f3(self):
        assert nullspace([[1, 1]], 3) == [(2, 1)]

    def test_zero_row(self):
        assert len(nullspace([[0, 0, 0]], 2)) == 3

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.integers(1, 8),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_basis_vectors_in_kernel(self, p, rows, cols, seed):
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        m = np.array(data, dtype=np.int64)
        for v in nullspace(data, p):
            prod = m @ np.array(v, dtype=np.int64)
            assert not np.any(prod % p)


class TestRankOracle:
    @pytest.mark.parametrize("field", [F2, F3, F5])
    def test_absorb_member_basic(self, field):
        o = RankOracle(field, 2)
        assert o.absorb([1, 0])
        assert o.absorb([0, 1])
        assert not o.absorb([1, 1])
        assert o.member([1, 1])
        assert o.rank == 2

    def test_zero_row_never_grows(self):
        o = RankOracle(F3, 3)
        assert not o.absorb([0, 0, 0])
        assert o.rank == 0
        assert not o.member([1, 0, 0])

    @pytest.mark.parametrize("field", [F2, F3, F5])
    def test_empty_list_is_no_rows(self, field):
        o = RankOracle(field, 4)
        o.extend([])
        assert o.rank == 0 and o.members([]) == []
        o.absorb([1, 0, 0, 0])
        o.extend([])
        assert o.rank == 1 and o.members([]) == []
        with pytest.raises(ValueError):
            o.extend(np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            o.members([[1, 0, 0]])

    @pytest.mark.parametrize("field", [F2, F3])
    @pytest.mark.parametrize("cols", [0, 3])
    def test_empty_blocks_of_every_width(self, field, cols):
        # np.asarray makes empty rows float64: three rows of width 0, and
        # no rows of width 3, are still blocks
        empty_rows = [[]] * 3 if cols == 0 else np.zeros((0, cols))
        for block in ([], empty_rows):
            o = RankOracle(field, cols)
            assert o.members(block) == [True] * len(block)
            o.extend(block)
            assert o.rank == 0 and o.members(block) == [True] * len(block)
            if cols:
                o.extend([[0, 1, 0]])
                o.extend(block)
                assert o.rank == 1 and o.members(block) == []

    def test_dimension_mismatch(self):
        o = RankOracle(F2, 3)
        with pytest.raises(ValueError):
            o.absorb([1, 0])
        with pytest.raises(ValueError):
            o.member([1, 0, 0, 1])

    def test_member_after_absorb_xor(self):
        o = RankOracle(F2, 3)
        o.absorb([1, 1, 0])
        o.absorb([0, 1, 1])
        assert o.member([1, 0, 1])  # sum of the two absorbed rows

    def test_slice_rows_rank_matches_brute_force(self):
        # evaluation rows (1, a) for a of weight 2 in {0,1}^4: the relation
        # e_1 - 2 vanishes on the slice, so the rank is 4 over every field
        rows = []
        for mask in (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100):
            rows.append([1] + [(mask >> i) & 1 for i in range(4)])
        for field in (F2, F3, F5):
            o = RankOracle(field, 5)
            for rrow in rows:
                o.absorb(rrow)
            assert o.rank == 4 == brute_rank(field, rows)

    @given(st.sampled_from([2, 3, 5]), st.integers(2, 6), st.integers(2, 7),
           st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_order_invariant_rank(self, p, rows, cols, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        _, (batch_rank, _) = reference_rref(data, p)
        for _ in range(3):
            shuffled = data[:]
            rng.shuffle(shuffled)
            o = RankOracle(field, cols)
            for rrow in shuffled:
                o.absorb(rrow)
            assert o.rank == batch_rank

    @given(st.sampled_from([2, 3]), st.integers(2, 5), st.integers(2, 7),
           st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_oracle_nullspace_matches_batch(self, p, rows, cols, seed):
        field = PrimeField(p)
        rng = random.Random(seed)
        data = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        o = RankOracle.from_rows(field, np.array(data))
        want_rows, (_, pivots) = reference_rref(data, p)
        assert sorted(o.nullspace()) == sorted(
            canonical_nullspace(want_rows, pivots, cols, p))
        for v in o.nullspace():
            assert not np.any((np.array(data) @ np.array(v)) % p)

    def test_from_array_matches_incremental(self):
        rng = random.Random(1)
        for p in (2, 5):
            field = PrimeField(p)
            data = np.array([[rng.randrange(p) for _ in range(9)]
                             for _ in range(7)])
            batch = RankOracle.from_rows(field, data)
            inc = RankOracle(field, 9)
            for row in data:
                inc.absorb(list(row))
            assert batch.rank == inc.rank
            assert batch.pivot_columns() == inc.pivot_columns()
            assert batch.nullspace() == inc.nullspace()

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_membership_forms_match_brute_force(self, p, rows, cols, seed):
        # block and per-row membership agree with the enumerated span for
        # 0/1 numpy rows and int lists
        field = PrimeField(p)
        rng = random.Random(seed)
        data = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        probes = data + [[rng.randrange(2) for _ in range(cols)]
                         for _ in range(6)]
        rank = brute_rank(field, data)
        expect = [brute_rank(field, data + [v]) == rank for v in probes]
        inc = RankOracle(field, cols)
        for row in data:
            inc.absorb(row)
        for o in (RankOracle.from_rows(field, np.array(data)), inc):
            block = np.array(probes, dtype=np.uint8)
            for form in (block, probes):
                assert o.members(form) == expect
                assert [o.member(r) for r in form] == expect
                assert [not any(o.residue(r)) for r in form] == expect

    @given(st.sampled_from([2, 3, 5, 2**31 - 1]), st.integers(0, 6),
           st.integers(1, 9), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_first_escape_is_the_first_nonzero_residue_entry(
            self, p, rows, cols, seed):
        # on any stored rows and on their prefixes, for 0/1 probes
        field = PrimeField(p)
        rng = random.Random(seed)
        data = np.array([[rng.randrange(p) for _ in range(cols)]
                         for _ in range(rows)], dtype=np.int64).reshape(-1, cols)
        probes = np.array([[rng.randrange(2) for _ in range(cols)]
                           for _ in range(6)], dtype=np.uint8)
        full = RankOracle(field, cols)
        full.extend(data % 2 if p == 2 else data)
        for o in (full, full.prefix(rng.randrange(cols + 1))):
            for row in probes[:, :o.cols]:
                res = o.residue(row)
                want = next((f for f, v in enumerate(res) if v), None)
                assert o.first_escape(row) == want

    def test_first_escape_reads_only_0_1_rows_over_odd_p(self):
        o = RankOracle.from_array(F3, np.array([[1, 2, 0]]))
        assert o.first_escape([1, 0, 1]) == 1
        for row in ([2, 0, 0], [1, -1, 0]):
            with pytest.raises(ValueError, match="0/1 row"):
                o.first_escape(row)

    def test_from_array_any_input_dtype(self):
        # a block is reduced in its own dtype widened to hold p, so narrow
        # and signed inputs build the same oracle as int64 ones, also when p
        # does not fit the input's dtype
        rng = random.Random(4)
        data = np.array([[rng.randrange(-128, 128) for _ in range(8)]
                         for _ in range(6)])
        for p in (3, 257, 2**31 - 1):
            field = PrimeField(p)
            want = RankOracle.from_array(field, data)
            for block in (data.astype(np.int8), data.astype(np.uint8),
                          data.astype(np.uint8) > 1):
                got = RankOracle.from_array(field, block)
                ref = RankOracle.from_array(field, block.astype(np.int64))
                assert got.pivot_columns() == ref.pivot_columns()
                assert got.nullspace() == ref.nullspace()
                assert all(r.dtype == np.int64
                           for r in got._impl.pivots.values())
            assert want.nullspace() == RankOracle.from_array(
                field, data.astype(np.int8)).nullspace()

    @pytest.mark.parametrize("rows", [2, GF2_BATCH_ROWS])
    def test_a_row_is_not_a_block_on_either_field(self, rows):
        # a list of ints is one row, not packed GF(2) rows, on every field
        # and at every size; a 0/1 block is packed at every size
        for field in (F2, F3):
            with pytest.raises(ValueError):
                RankOracle(field, 3).members([1, 0, 1])
        with pytest.raises(ValueError):
            RankOracle.from_packed_rows(F2, 3, [5] * rows)
        block = np.tile(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8),
                        (rows // 2, 1))
        got = RankOracle.from_packed_rows(F2, 3, block)
        assert got.pivot_columns() == [0, 1] and got.nullspace() == [(1, 1, 1)]

    def test_batch_builders_check_the_field(self):
        data = np.array([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(ValueError):
            RankOracle.from_array(F2, data)
        with pytest.raises(ValueError):
            RankOracle.from_packed_rows(F3, 3, data)
        for field in (F2, F3):
            assert RankOracle.from_rows(field, data).rank == 2

    def test_residue_indexes_witnesses(self):
        # residue entry f equals the inner product with the free-column-f
        # nullspace vector
        rng = random.Random(3)
        field = F3
        data = [[rng.randrange(3) for _ in range(6)] for _ in range(3)]
        o = RankOracle.from_array(field, np.array(data))
        probe = [rng.randrange(3) for _ in range(6)]
        res = o.residue(probe)
        pivots = set(o.pivot_columns())
        for f in range(6):
            if f in pivots:
                continue
            v = o.nullspace_vector(f)
            inner = sum(a * b for a, b in zip(probe, v)) % 3
            assert inner == res[f]


class TestRrefKernel:
    """The narrow work type and delayed reduction at every type boundary."""

    WIDTH = 40
    # p -> work type at WIDTH: 29 is the largest int16 prime and 7321 the
    # largest int32 prime; the next prime after each moves up one type
    PRIMES = {3: np.int16, 29: np.int16, 31: np.int32, 1009: np.int32,
              7321: np.int32, 7331: np.int64, 1073741789: np.int64,
              2**31 - 1: np.int64}

    @staticmethod
    def block(p, rows, inner, seed):
        """rows x WIDTH with rank <= inner, a zero column, a dependent
        column and a repeated row."""
        rng = random.Random(seed)
        width = TestRrefKernel.WIDTH
        b = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
        c = [[rng.randrange(p) for _ in range(width)] for _ in range(inner)]
        for row in c:
            row[0] = 0
            row[5] = (2 * row[3] + row[1]) % p
        a = [[sum(x * y for x, y in zip(brow, col)) % p for col in zip(*c)]
             for brow in b]
        a[-1] = a[1][:]
        return a

    @pytest.mark.parametrize("p", sorted(PRIMES))
    @pytest.mark.parametrize("rows,inner", [(64, 30), (24, 24)])
    def test_matches_python_int_reference(self, p, rows, inner):
        assert _work_dtype(p, self.WIDTH) is self.PRIMES[p]
        data = self.block(p, rows, inner, seed=p + rows)
        reduced, pivots, _ = _rref_array(np.array(data, dtype=np.int64), p)
        want_rows, want = reference_rref(data, p)
        assert (len(pivots), pivots) == want
        assert reduced.dtype == np.int64
        assert reduced.tolist() == want_rows[:want[0]]
        # the pivot rows are scaled after earlier updates left them unreduced
        assert want[0] >= 3 and any(row[c] not in (0, 1)
                                    for row, c in zip(data, want[1]))
        if p > 2**29:
            # the block outgrows the bound and is reduced between steps
            assert _growth_bound(np.int64, p) < want[0]

    def test_narrow_types_never_reduce_the_block(self):
        for p, dtype in self.PRIMES.items():
            if dtype is not np.int64:
                assert _growth_bound(dtype, p) >= self.WIDTH


@st.composite
def profile_blocks(draw):
    """(p, rows): at most 9 x 9 over F_p, the rows drawn from a span of
    dimension at most ``inner``, with zero rows and repeated rows among
    them."""
    p = draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
    cols, inner = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
    data = []
    for kind in draw(st.lists(st.sampled_from("spz"), min_size=1,
                              max_size=9)):
        if kind == "z":
            data.append([0] * cols)
        elif kind == "p" and data:
            data.append(list(rng.choice(data)))
        else:
            coef = [rng.randrange(p) for _ in basis]
            data.append([sum(x * b[j] for x, b in zip(coef, basis)) % p
                         for j in range(cols)])
    return p, data


class TestRankProfile:
    """``_rref_array`` keeps row order and reports which row created each
    pivot, without writing its input."""

    @given(profile_blocks())
    @settings(max_examples=150, deadline=None)
    def test_sources_are_the_absorb_owners(self, case):
        p, data = case
        a = np.array(data, dtype=np.int64)
        before = a.tobytes()
        rows, pivots, sources = _rref_array(a, p)
        assert a.tobytes() == before
        assert sources == absorb_owners(data, p)
        want_rows, (rank, want_pivots) = reference_rref(data, p)
        assert pivots == want_pivots
        assert rows.dtype == np.int64 and rows.tolist() == want_rows[:rank]
        # a 0/1 uint8 block, with p beyond uint8, as its int64 copy
        bits = (a % 2).astype(np.uint8)
        before = bits.tobytes()
        for q in (257, 2**31 - 1):
            got = _rref_array(bits, q)
            want = _rref_array(bits.astype(np.int64), q)
            assert got[0].tolist() == want[0].tolist() and got[1:] == want[1:]
            assert got[0].dtype == np.int64
        assert bits.tobytes() == before


@st.composite
def chunked_blocks(draw):
    """(p, rows, cuts): a random block over F_p of rank at most ``inner`` and
    split points cutting it into chunks, one one-row chunk among them."""
    p = draw(st.sampled_from([3, 5, 7, 2**31 - 1]))
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    inner = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
    c = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
    data = [[sum(x * y for x, y in zip(brow, col)) % p for col in zip(*c)]
            for brow in b]
    one = draw(st.integers(0, rows - 1))
    cuts = draw(st.sets(st.integers(1, rows - 1))) if rows > 1 else set()
    return p, data, sorted((cuts | {one, one + 1}) - {0, rows})


# rank 6 at p = 2^31 - 1, where a group of the product holds 2 pivots
WIDE_P = 2**31 - 1
WIDE_BLOCK = [[random.Random(10 * i + j).randrange(WIDE_P) for j in range(9)]
              for i in range(6)]


class TestChunkedExtend:
    """Odd-p extends chunk by chunk against one ``from_array`` and the
    Python-int reference: the same RREF, membership, residues and
    nullspace."""

    @given(chunked_blocks())
    @example((WIDE_P, WIDE_BLOCK, [1, 2, 4]))
    @settings(max_examples=80, deadline=None)
    def test_chunks_match_one_build_and_reference(self, case):
        p, data, cuts = case
        field, cols = PrimeField(p), len(data[0])
        chunked = RankOracle(field, cols)
        for lo, hi in zip([0] + cuts, cuts + [len(data)]):
            chunked.extend(np.array(data[lo:hi], dtype=np.int64))
        whole = RankOracle.from_array(field, np.array(data, dtype=np.int64))
        want_rows, (rank, pivots) = reference_rref(data, p)
        rng = random.Random(rank)
        probes = [[rng.randrange(p) for _ in range(cols)] for _ in range(3)]
        probes += [[sum(rng.randrange(p) * x for x in col) % p
                    for col in zip(*data)] for _ in range(3)]  # members
        residues = []
        for v in probes:
            res = v[:]
            for row, c in zip(want_rows, pivots):
                res = [(x - v[c] * y) % p for x, y in zip(res, row)]
            residues.append(res)
        for o in (chunked, whole):
            assert o.pivot_columns() == pivots
            assert [o._impl.pivots[c].tolist() for c in pivots] == (
                want_rows[:rank])
            assert o.members(np.array(probes)) == [not any(r)
                                                   for r in residues]
            assert [o.residue(v) for v in probes] == residues
            assert o.nullspace() == canonical_nullspace(want_rows, pivots,
                                                        cols, p)

    def test_the_wide_block_takes_several_groups(self):
        _, (rank, _) = reference_rref(WIDE_BLOCK, WIDE_P)
        assert rank > 2 * _growth_bound(np.int64, WIDE_P) == 4


@st.composite
def prefix_blocks(draw):
    """(p, block): a random block over F_p of rank at most ``inner``, so its
    column prefixes drop rank at different widths."""
    p = draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
    rows, cols = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    inner = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    b = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
    c = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
    data = [[sum(x * y for x, y in zip(brow, col)) % p for col in zip(*c)]
            for brow in b]
    return p, np.array(data, dtype=np.int64).reshape(rows, cols)


class TestPrefix:
    """``prefix(c)`` against an oracle built on the block's first c columns:
    the same RREF, membership, residues and nullspace."""

    @given(prefix_blocks())
    @example((3, np.zeros((0, 4), dtype=np.int64)))
    @example((WIDE_P, np.array(WIDE_BLOCK, dtype=np.int64)))
    @settings(max_examples=80, deadline=None)
    def test_equals_a_build_on_the_first_columns(self, case):
        p, block = case
        field = PrimeField(p)
        whole = RankOracle.from_rows(field, block)
        rng = random.Random(block.size)
        for c in range(block.shape[1] + 1):
            got = whole.prefix(c)
            want = RankOracle.from_rows(field, block[:, :c])
            pivots = want.pivot_columns()
            assert got.cols == c and got.pivot_columns() == pivots
            assert [[got._impl.entry(pc, j) for j in range(c)]
                    for pc in pivots] == [[want._impl.entry(pc, j)
                                           for j in range(c)] for pc in pivots]
            probes = np.array([[rng.randrange(p) for _ in range(c)]
                               for _ in range(3)], dtype=np.int64)
            probes = np.vstack([probes.reshape(3, c), block[:2, :c]])
            assert got.members(probes) == want.members(probes)
            assert [got.residue(v) for v in probes] == [want.residue(v)
                                                      for v in probes]
            assert got.nullspace() == want.nullspace()

    @pytest.mark.parametrize("field", [F2, F3])
    def test_width_out_of_range(self, field):
        o = RankOracle.from_rows(field, np.eye(3, dtype=np.int64))
        for cols in (-1, 4):
            with pytest.raises(ValueError, match="out of"):
                o.prefix(cols)


def wilson_rank(p, n, k, t):
    """Rank over F_p of the t-subset / k-subset inclusion matrix for
    t <= min(k, n - k) (Wilson, Europ. J. Combin. 11, 1990)."""
    return sum(comb(n, i) - (comb(n, i - 1) if i else 0)
               for i in range(t + 1) if comb(k - i, t - i) % p)


# keeps each odd-p elimination under a second; k = t always fits
WILSON_CELLS = 4_000_000


@st.composite
def wilson_instances(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 16))
    t = draw(st.integers(0, min(n // 2, 4)))
    k = draw(st.sampled_from(
        [k for k in range(t, n - t + 1)
         if comb(n, k) * comb(n, t) <= WILSON_CELLS]))
    return p, n, k, t


class TestWilsonRank:
    """Both elimination backends against Wilson's inclusion-matrix rank at
    sizes brute force cannot reach."""

    @given(wilson_instances())
    @example((2, 16, 8, 4))  # 12,870 x 1,820: rank C(16, 4) - 1
    @example((3, 16, 8, 3))  # 12,870 x 560: rank 441 of 560
    @example((5, 13, 5, 4))
    @settings(max_examples=40, deadline=None)
    def test_degree_t_slice_rank(self, instance):
        p, n, k, t = instance
        # rows: the k-slice; columns: the degree-exactly-t monomials
        block = evaluation_bool_matrix(slice_array(n, t).tolist(),
                                       slice_array(n, k).tolist())
        oracle = RankOracle.from_rows(PrimeField(p), block)
        assert oracle.rank == wilson_rank(p, n, k, t)


def absorb_pivots(block):
    """Row-by-row reference: the pivot rows ``RankOracle.extend`` keeps when
    the rows go in one at a time, which never runs ``_rref_words``."""
    o = RankOracle(F2, block.shape[1])
    for i in range(len(block)):
        o.extend(block[i:i + 1])
    return o._impl.pivots


def slice_block(n, k, d):
    return evaluation_bool_matrix(monomials_upto(n, d), slice_array(n, k).tolist())


@st.composite
def gf2_blocks(draw):
    """0/1 blocks of rank at most ``inner``, at widths around multiples of
    8 and 64, some with an all-zero strip or a repeated column."""
    cols = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 63, 64, 65, 127, 128,
                                           129]), st.integers(1, 200)))
    rows, inner = draw(st.integers(0, 80)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, 2, (rows, inner))
         @ rng.integers(0, 2, (inner, cols))) % 2
    s, c = draw(st.integers(0, (cols - 1) // 8)), draw(st.integers(0, cols - 1))
    if draw(st.booleans()):
        a[:, 8 * s:8 * s + 8] = 0
    if draw(st.booleans()):
        a[:, c] = a[:, 8 * s]  # a strip of rank below its nonzero columns
    return a.astype(np.uint8)


class TestFourRussians:
    """The batch GF(2) RREF against the row-by-row absorb path."""

    @given(gf2_blocks())
    @example(np.zeros((0, 9), dtype=np.uint8))
    @example(np.ones((5, 1), dtype=np.uint8))
    @settings(max_examples=150, deadline=None)
    def test_matches_absorb(self, block):
        assert _rref_words(_pack_words(block)) == absorb_pivots(block)

    def test_every_sweep_rung_to_n12(self, monkeypatch):
        rungs = set()
        provider = distinguish._slice_oracle
        monkeypatch.setattr(distinguish, "_slice_oracle",
                            lambda field, n, k, d: rungs.add((n, k, d))
                            or provider(field, n, k, d))
        for gaps in ("ppower", "composite"):
            distinguish.gap_degree_sweep(2, range(6, 13), gaps=gaps)
        # the sweep builds each ladder's top, one below its largest degree,
        # and reads the rung below each degree; check every rung up to the
        # one at the largest degree, which the separator certifies
        tops = {}
        for n, k, d in rungs:
            tops[n, k] = max(tops.get((n, k), d), d)
        rungs = {(n, k, e) for (n, k), d in tops.items() for e in range(d + 2)}
        assert len(rungs) > 100
        # the sweep climbs slice min(k, n - k); check slice n - k's blocks too
        rungs |= {(n, n - k, d) for n, k, d in rungs}
        for n, k, d in sorted(rungs):
            block = slice_block(n, k, d)
            assert _rref_words(_pack_words(block)) == absorb_pivots(block)

    @pytest.mark.parametrize("n, k, d", [(14, 7, 6), (15, 7, 4)])
    def test_full_slice_beyond_brute_force(self, n, k, d):
        # 3,432 x 6,476 of rank C(14, 6) and 6,435 x 1,941 of rank C(15, 4)
        block = slice_block(n, k, d)
        want = absorb_pivots(block)
        assert len(want) == comb(n, d)
        assert RankOracle.from_rows(F2, block)._impl.pivots == want

    def test_extend_picks_the_kernel(self, monkeypatch):
        # a block of GF2_BATCH_ROWS rows or more into an empty oracle is one
        # _rref_words, any other extend absorbs row by row, and every path
        # and from_rows keep the row-by-row pivots
        calls = []
        monkeypatch.setattr(linalg, "_rref_words",
                            lambda w: calls.append(len(w)) or _rref_words(w))
        block = slice_block(9, 4, 2)  # 126 rows
        assert len(block) >= GF2_BATCH_ROWS
        for rows in (block, block[:GF2_BATCH_ROWS - 1], block[:GF2_BATCH_ROWS]):
            calls.clear()
            o = RankOracle(F2, block.shape[1])
            o.extend(rows)
            batch = len(rows) >= GF2_BATCH_ROWS
            assert calls == ([len(rows)] if batch else [])
            for got in (o, RankOracle.from_rows(F2, rows)):
                pivots = got._impl.pivots
                assert pivots == absorb_pivots(rows)
                assert got._impl.pivot_mask == sum(1 << c for c in pivots)
        calls.clear()
        o.extend(block)  # into a non-empty oracle
        assert calls == [] and o._impl.pivots == absorb_pivots(block)
        assert o._impl.pivot_mask == sum(1 << c for c in o._impl.pivots)

    @pytest.mark.parametrize("rows", [3, GF2_BATCH_ROWS])
    def test_wrong_width_is_rejected_on_both_paths(self, rows):
        block = np.ones((rows, 5), dtype=np.uint8)
        with pytest.raises(ValueError):
            RankOracle.from_packed_rows(F2, 6, block)
        with pytest.raises(ValueError):
            RankOracle.from_packed_rows(F2, 5, block.ravel())
