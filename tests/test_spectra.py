"""Spectra: periods, boundedness, decomposition, families, classifier."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import spectra_reference as ref
from slicedeg import spectra
from slicedeg.cube import MultilinearPoly
from slicedeg.linalg import PrimeField
from slicedeg.spectra import (CASE_APERIODIC, CASE_MIXED, CASE_P_POWER,
                              Spectrum, bounded_index, classify_pdeg,
                              decomposition_window, ethr_spectrum,
                              maj_spectrum, make_family, mod_spectrum, period,
                              periodic_exact_poly, primitive_root,
                              standard_decomposition, thr_spectrum,
                              window_distinct_check)

F2, F3 = PrimeField(2), PrimeField(3)


def brute_period(bits):
    L = len(bits)
    for b in range(1, L + 1):
        if all(bits[i] == bits[i + b] for i in range(L - b)):
            return b
    raise AssertionError


class TestPeriod:
    def test_constant(self):
        assert period(Spectrum.from_string("000000")) == 1
        assert period(Spectrum.from_string("1111")) == 1

    def test_alternating(self):
        assert period(Spectrum.from_string("010101")) == 2

    def test_mod3(self):
        assert period(mod_spectrum(9, 3)) == 3

    def test_trivial_full_length(self):
        assert period(Spectrum.from_string("0001")) == 4

    @given(st.integers(1, 15), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, n, seed):
        rng = random.Random(seed)
        bits = tuple(rng.randrange(2) for _ in range(n + 1))
        assert period(Spectrum(n, bits)) == brute_period(bits)

    def test_exhaustive_small(self):
        for L in range(1, 12):
            for code in range(1 << L):
                bits = tuple((code >> i) & 1 for i in range(L))
                assert period(Spectrum(L - 1, bits)) == brute_period(bits)


class TestPrimitiveRoot:
    def test_square(self):
        assert primitive_root("0101") == ("01", 2)

    def test_primitive(self):
        assert primitive_root("011") == ("011", 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            primitive_root("")

    def test_reconstruction_and_primitivity(self):
        for L in range(1, 13):
            for code in range(1 << L):
                w = format(code, f"0{L}b")
                z, k = primitive_root(w)
                assert z * k == w
                assert primitive_root(z)[1] == 1

    def test_commuting_words_small(self):
        # uv = vu forces a proper power (checked up to length 12 here; the
        # acceptance suite goes to 18)
        for L in range(2, 13):
            for code in range(1 << L):
                w = format(code, f"0{L}b")
                for cut in range(1, L):
                    if w == w[cut:] + w[:cut]:
                        assert primitive_root(w)[1] >= 2, w


class TestWindowDistinct:
    def test_mod3_n12(self):
        assert window_distinct_check(mod_spectrum(12, 3)) is True

    def test_period_two_exhaustive(self):
        for n in range(4, 13):
            for phase in (0, 1):
                bits = tuple((w + phase) % 2 for w in range(n + 1))
                spec = Spectrum(n, bits)
                assert period(spec) == 2
                assert window_distinct_check(spec)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            window_distinct_check(Spectrum.from_string("0000"))

    def test_all_periodic_spectra(self):
        for n in range(4, 13):
            for code in range(1 << (n + 1)):
                bits = tuple((code >> i) & 1 for i in range(n + 1))
                spec = Spectrum(n, bits)
                if period(spec) > 1:
                    assert window_distinct_check(spec)

    def test_wrong_period_fails_on_the_last_window(self, monkeypatch):
        # 010101 read with twice its least period 2: of the windows 0101,
        # 1010, 0101 at offsets 0..n-b+1, only the last repeats the first
        spec = Spectrum(5, (0, 1, 0, 1, 0, 1))
        assert window_distinct_check(spec)
        monkeypatch.setattr(spectra, "period", lambda s: 4)
        assert not window_distinct_check(spec)

    def test_wrong_period_fails_past_offset_b(self, monkeypatch):
        # 00010001 read with a period of 3: the windows at offsets 0..3 are
        # distinct and the one at offset 4 repeats offset 0.  A multiple of
        # the least period 4 cannot do this: windows one least period apart
        # are equal, so the first repeat starts at offset 4 <= b
        spec = Spectrum(7, (0, 0, 0, 1, 0, 0, 0, 1))
        assert window_distinct_check(spec)
        monkeypatch.setattr(spectra, "period", lambda s: 3)
        assert not window_distinct_check(spec)


class TestBoundedIndex:
    def test_constant(self):
        assert bounded_index(Spectrum.from_string("00000")) == 0

    def test_exact_threshold_middle(self):
        # the single-point interval [4, 4] is constant, so the literal
        # minimum is 4 for the weight-4 indicator on n = 8
        assert bounded_index(ethr_spectrum(8, 4)) == 4

    def test_and_function(self):
        assert bounded_index(thr_spectrum(6, 6)) == 1

    def test_parity(self):
        assert bounded_index(mod_spectrum(8, 2, 1)) == 4
        assert bounded_index(mod_spectrum(7, 2, 1)) == 4

    def test_monotone_definition(self):
        rng = random.Random(4)
        for _ in range(100):
            n = rng.randrange(1, 14)
            bits = tuple(rng.randrange(2) for _ in range(n + 1))
            B = bounded_index(Spectrum(n, bits))
            seg = bits[B:n - B + 1]
            assert len(seg) <= 1 or all(v == seg[0] for v in seg)
            if B:
                prev = bits[B - 1:n - B + 2]
                assert not all(v == prev[0] for v in prev)


class TestFamilies:
    def test_maj(self):
        assert maj_spectrum(5).to_string() == "000111"

    def test_ethr(self):
        assert ethr_spectrum(4, 2).to_string() == "00100"

    def test_mod(self):
        assert mod_spectrum(6, 3, 1).to_string() == "0100100"

    def test_parse(self):
        assert make_family("maj", 5) == maj_spectrum(5)
        assert make_family("thr:3", 6) == thr_spectrum(6, 3)
        assert make_family("ethr:4", 8) == ethr_spectrum(8, 4)
        assert make_family("mod:3:1", 6) == mod_spectrum(6, 3, 1)
        assert make_family("mod:2", 6) == mod_spectrum(6, 2, 0)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            thr_spectrum(4, 5)
        with pytest.raises(ValueError):
            mod_spectrum(4, 5)
        with pytest.raises(ValueError):
            mod_spectrum(6, 3, 3)
        with pytest.raises(ValueError):
            make_family("nope", 4)

    @pytest.mark.parametrize("name", ["thr", "ethr", "mod", "maj:4",
                                      "thr:2:1", "mod:3:1:7"])
    def test_missing_or_extra_fields_raise(self, name):
        with pytest.raises(ValueError, match="fields"):
            make_family(name, 8)


class TestStandardDecomposition:
    def test_constant(self):
        d = standard_decomposition(Spectrum(6, (1,) * 7))
        assert d.per_g == 1 and d.B_h == 0
        assert all(b == 0 for b in d.h.bits)

    def test_mod2_reproduced(self):
        f = mod_spectrum(12, 2, 0)
        d = standard_decomposition(f)
        assert d.g == f and d.per_g == 2 and d.B_h == 0

    def test_tiny_n_rejected(self):
        with pytest.raises(ValueError):
            standard_decomposition(Spectrum(2, (0, 1, 0)))

    def test_n4_empty_window_fallback(self):
        d = standard_decomposition(Spectrum(4, (0, 1, 0, 1, 0)))
        assert d.fallback and d.per_g == 1
        assert d.g.bits == (0,) * 5

    def brute_min_period_extension(self, spec):
        """Among all spectra agreeing with f on the window, the minimal
        period (independent oracle by full enumeration)."""
        n = spec.n
        lo, hi = decomposition_window(n)
        best = None
        for code in range(1 << (n + 1)):
            bits = tuple((code >> i) & 1 for i in range(n + 1))
            if bits[lo:hi + 1] != spec.bits[lo:hi + 1]:
                continue
            b = period(Spectrum(n, bits))
            if best is None or b < best:
                best = b
        return best

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 10])
    def test_per_g_minimal_vs_brute_force(self, n):
        rng = random.Random(n)
        for _ in range(25):
            bits = tuple(rng.randrange(2) for _ in range(n + 1))
            spec = Spectrum(n, bits)
            d = standard_decomposition(spec)
            assert d.per_g == self.brute_min_period_extension(spec)

    def test_exhaustive_invariants_small(self):
        for n in range(3, 11):
            lo, hi = decomposition_window(n)
            for code in range(1 << (n + 1)):
                bits = tuple((code >> i) & 1 for i in range(n + 1))
                spec = Spectrum(n, bits)
                d = standard_decomposition(spec)
                assert all(g ^ h == f for g, h, f in
                           zip(d.g.bits, d.h.bits, spec.bits))
                if not d.fallback:
                    assert d.g.bits[lo:hi + 1] == bits[lo:hi + 1]
                    assert d.per_g <= n // 3
                # the corrected bound; the stated ceil(n/3) fails (see the
                # acceptance suite for the faithful check and counterexamples)
                assert d.B_h <= -(-n // 3) + 1

    def test_known_bounded_part_counterexample(self):
        # weight-3 indicator at n = 7: g is forced constant-zero, so
        # h = f and B(h) = 4 > ceil(7/3) = 3
        d = standard_decomposition(ethr_spectrum(7, 3))
        assert d.per_g == 1 and d.B_h == 4


def _assert_equals_reference(bits):
    """Every shift-XOR answer on one spectrum equals the string reference."""
    n = len(bits) - 1
    spec = Spectrum(n, bits)
    per = period(spec)
    assert type(per) is int and per == ref.string_period(bits)
    assert bounded_index(spec) == ref.bounded_index(bits)
    word = spec.to_string()
    assert primitive_root(word) == ref.primitive_root(word)
    if per > 1:
        assert window_distinct_check(spec) == ref.window_distinct_check(bits)
    if n >= 3:
        d = standard_decomposition(spec)
        g, per_g, B_h, fallback = ref.standard_decomposition(bits)
        assert (d.g.bits, d.per_g, d.B_h, d.fallback) == (g, per_g, B_h,
                                                          fallback)
        assert d.h.bits == tuple(a ^ b for a, b in zip(bits, g))
        assert type(d.per_g) is int and type(d.B_h) is int


@st.composite
def near_periodic_spectra(draw):
    """Spectra with n up to 160, well past 64 bits: a random pattern of a
    drawn length repeated, with up to two values flipped."""
    n = draw(st.integers(0, 160))
    b = draw(st.integers(1, n + 1))
    pattern = draw(st.lists(st.integers(0, 1), min_size=b, max_size=b))
    bits = [pattern[i % b] for i in range(n + 1)]
    for i in draw(st.lists(st.integers(0, n), max_size=2)):
        bits[i] ^= 1
    return tuple(bits)


class TestAgainstStringReference:
    @given(near_periodic_spectra())
    @settings(max_examples=300, deadline=None)
    def test_single_spectra_up_to_n160(self, bits):
        _assert_equals_reference(bits)

    @given(st.integers(0, 160).flatmap(
        lambda n: st.lists(st.integers(0, 1), min_size=n + 1,
                           max_size=n + 1)))
    @settings(max_examples=100, deadline=None)
    def test_random_spectra_up_to_n160(self, bits):
        _assert_equals_reference(tuple(bits))

    @pytest.mark.parametrize("n", range(13))
    def test_every_spectrum_to_n12(self, n):
        for code in range(1 << (n + 1)):
            _assert_equals_reference(
                tuple((code >> i) & 1 for i in range(n + 1)))


class TestClassifier:
    def test_branch_assignments(self):
        assert classify_pdeg(mod_spectrum(12, 3), 2, 0.01).label == CASE_APERIODIC
        assert classify_pdeg(mod_spectrum(12, 2), 2, 0.01).label == CASE_P_POWER
        assert classify_pdeg(ethr_spectrum(8, 4), 2, 0.01).label == CASE_MIXED

    def test_decision_table(self):
        # (period class, bounded part) -> branch, on crafted spectra
        cases = [
            (mod_spectrum(12, 3), 2, CASE_APERIODIC),      # non-p-power, B=0
            (mod_spectrum(12, 2), 2, CASE_P_POWER),        # p-power, B=0
            (ethr_spectrum(8, 4), 2, CASE_MIXED),          # p-power, B>=1
            (ethr_spectrum(12, 6), 2, CASE_APERIODIC),     # non-p-power, B>=1
        ]
        for spec, p, want in cases:
            got = classify_pdeg(spec, p, 0.01)
            assert got.label == want, (spec.to_string(), got)

    def test_p_power_branch_value(self):
        case = classify_pdeg(mod_spectrum(12, 2), 2, 0.01)
        assert case.value == 2.0  # min(sqrt(n log(1/eps)), per) = per

    def test_eps_range(self):
        with pytest.raises(ValueError):
            classify_pdeg(mod_spectrum(12, 2), 2, 0.5)
        with pytest.raises(ValueError):
            classify_pdeg(mod_spectrum(12, 2), 2, 2.0 ** -13)


@st.composite
def periodic_tables(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = p ** draw(st.integers(0, 6).filter(lambda l: p ** l <= 80))
    n = draw(st.integers(max(q, 1), 80))
    values = draw(st.lists(st.integers(-p, 2 * p), min_size=q, max_size=q))
    return p, q, n, values


class TestPeriodicExactPoly:
    @given(periodic_tables())
    @settings(max_examples=80, deadline=None)
    def test_periodic_values_below_q(self, instance):
        p, q, n, values = instance
        poly = periodic_exact_poly(n, q, values, PrimeField(p))
        assert poly.degree < q
        assert all(poly.weight_value(w) == values[w % q] % p
                   for w in range(n + 1))

    def test_constant_table(self):
        poly = periodic_exact_poly(8, 2, [1, 1], F2)
        assert poly.sym_coeffs == (1,)

    def test_parity(self):
        poly = periodic_exact_poly(6, 2, [0, 1], F2)
        assert poly.sym_coeffs == (0, 1)  # e_1

    def test_mod4_indicator(self):
        poly = periodic_exact_poly(12, 4, [1, 0, 0, 0], F2)
        assert poly.degree <= 3
        assert all(poly.weight_value(w) == (1 if w % 4 == 0 else 0)
                   for w in range(13))

    @pytest.mark.parametrize("p,q", [(2, 2), (2, 4), (2, 8), (3, 3), (3, 9)])
    def test_exhaustive_tables(self, p, q):
        field = PrimeField(p)
        rng = random.Random(q * p)
        for n in range(q, 15):
            for _ in range(4):
                table = [rng.randrange(p) for _ in range(q)]
                poly = periodic_exact_poly(n, q, table, field)
                assert (poly.degree < q
                        or poly == MultilinearPoly.zero(n, field))
                assert all(poly.weight_value(w) == table[w % q]
                           for w in range(n + 1))

    def test_non_p_power_rejected(self):
        with pytest.raises(ValueError):
            periodic_exact_poly(10, 6, [0] * 6, F2)

    def test_q_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            periodic_exact_poly(3, 4, [0] * 4, F2)

    def test_large_n_certificate(self):
        poly = periodic_exact_poly(64, 8, [1, 0, 0, 0, 0, 0, 0, 0], F2)
        assert poly.degree < 8
        assert poly.weight_value(32) == 1 and poly.weight_value(33) == 0
