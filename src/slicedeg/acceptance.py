"""The acceptance gate: every release criterion as a runnable check.

Each criterion function returns a CriterionResult with its stated tolerance
baked in; tests/test_acceptance.py asserts them one by one and the script
scripts/run_acceptance.py prints one pass/fail line per criterion.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constructions import WeightWindow, interpolate_window_int
from .experiments import ExperimentSpec, run
from .linalg import PrimeField
from .spectra import (classify_pdeg, decomposition_window, ethr_spectrum,
                      mod_spectrum, periodic_exact_poly)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.details} ({self.elapsed_s:.1f}s)"


def _run(name: str, seed: int = 0, **params) -> "RunReport":
    return run(ExperimentSpec(name=name, params=params, seed=seed))


def _from_report(label: str, report, extra: str = "") -> CriterionResult:
    details = "; ".join(
        f"{c.name}={'ok' if c.passed else 'FAIL(' + c.details + ')'}"
        for c in report.checks)
    if extra:
        details = f"{extra}; {details}"
    return CriterionResult(name=label, passed=report.all_passed,
                           details=details, elapsed_s=report.elapsed_s)


def criterion_01_ppower_gap_sweep() -> CriterionResult:
    t0 = time.time()
    reports = [_run("hegedus-sweep", p=p, n_min=6, n_max=14) for p in (2, 3)]
    passed = all(r.all_passed for r in reports)
    rows = sum(len(r.tables["sweep"]) for r in reports)
    elapsed = time.time() - t0
    return CriterionResult(
        "01 exact-degree sweep, p-power gaps",
        passed and elapsed < 600,
        f"{rows} instances over p in (2,3), n in [6,14]; "
        f"violations={sum(0 if r.all_passed else 1 for r in reports)}",
        elapsed)


def criterion_02_extension_exactness() -> CriterionResult:
    t0 = time.time()
    reports = [_run("extension-sweep", p=p, n_min=6, n_max=14) for p in (2, 3)]
    rows = sum(len(r.tables["sweep"]) for r in reports)
    return CriterionResult(
        "02 exact-degree sweep, composite gaps",
        all(r.all_passed for r in reports),
        f"{rows} composite-gap instances; degree equals the p-adic part",
        time.time() - t0)


def criterion_03_nie_wang() -> CriterionResult:
    report = _run("niewang", seed=7, trials=200, n_max=12, d_max=4)
    return _from_report("03 closure cardinality bound", report)


def criterion_04_claim_a1() -> CriterionResult:
    report = _run("claimA1", seed=11, samples=5000, tol=0.02)
    return _from_report("04 ideal-sample nonzero frequency", report)


def criterion_05_interpolation(windows: int = 100) -> CriterionResult:
    t0 = time.time()
    rng = random.Random(5)
    bad = 0
    for _ in range(windows):
        n = rng.randrange(3, 15)
        L = rng.randrange(1, min(8, n + 1) + 1)
        lo = rng.randrange(0, n - L + 2)
        vals = tuple(rng.randrange(2) for _ in range(L))
        win = WeightWindow(n, lo, lo + L - 1, vals)
        poly = interpolate_window_int(win)
        ok = (all(isinstance(c, int) for c in poly.ecoeffs)
              and poly.degree <= L - 1
              and tuple(poly.weight_values()[lo:lo + L]) == vals)
        if not ok:
            bad += 1
    return CriterionResult(
        "05 integer window interpolation",
        bad == 0,
        f"{windows} random windows, |I| <= 8, n <= 14; violations={bad}",
        time.time() - t0)


def criterion_06_tightness() -> CriterionResult:
    report = _run("construct-sample", seed=20240809,
                  n=4096, k=2048, q=256, ln_inv_eps=4.0, C=0)
    res = _from_report("06 sampled-junta tightness instance", report,
                       extra=f"exact evaluation {report.elapsed_s:.1f}s")
    res.passed = res.passed and report.elapsed_s < 60
    return res


def criterion_07_coin() -> CriterionResult:
    report = _run("coin-verify", p=2, delta="1/8", eps="1/100")
    return _from_report("07 coin-problem construction", report)


def criterion_08_commuting_words() -> CriterionResult:
    report = _run("stringlemma", maxlen=18)
    res = _from_report("08 commuting-words power property", report)
    res.passed = res.passed and report.elapsed_s < 60
    return res


def criterion_09_binomial_bounds() -> CriterionResult:
    t0 = time.time()
    step = _run("claimC", n_max=40)
    ratio = _run("lemma33", n_max=60)
    printed = ratio.tables["printed_convention"][0]
    return CriterionResult(
        "09 binomial ratio inequalities",
        step.all_passed and ratio.all_passed,
        f"steps={'ok' if step.all_passed else 'FAIL'}; "
        f"working convention ok on {printed['grid_points']} points; "
        f"printed-convention failures reported (not asserted): "
        f"{printed['printed_failures']}",
        time.time() - t0)


def criterion_10_robust_frontier() -> CriterionResult:
    report = _run("robust-frontier", seed=13, n_min=6, n_max=14,
                  cand_n=64, cand_t=8, candidates=10**4)
    return _from_report("10 robust frontier properties", report)


def criterion_11_galvin() -> CriterionResult:
    report = _run("galvin-verify", seed=3, n=64, eps=0.05)
    return _from_report("11 covering family tightness", report)


def _least_period(x: np.ndarray, length: int) -> np.ndarray:
    """The least period of each ``length``-bit string x[i] (bit j is position
    j): the least c >= 1 with bits j and j + c equal for all j, that is
    ((x ^ (x >> c)) & (2^(length - c) - 1)) == 0; c = length always holds."""
    least = np.full_like(x, length)
    for c in range(length - 1, 0, -1):
        least[((x ^ (x >> c)) & ((1 << (length - c)) - 1)) == 0] = c
    return least


def _decompose(n: int) -> tuple:
    """``standard_decomposition`` of all 2^(n+1) spectra of one n at once.

    Spectrum number x has Spec f(i) = bit i of x.  Returns (g, per(g), B(h),
    fallback): three int64 arrays indexed by x, with g as a spectrum number,
    and whether the agreement window of n is empty (then g = 0).  g extends
    the window's least period b bit by bit, and per(g) is computed again
    from g: a per(g) other than b raises ``AssertionError``.  B(h) of
    h = f xor g is the least k at which the bits k..n-k of h are all 0 or
    all 1; from k = floor(n/2) + 1 on, that segment is empty.
    """
    x = np.arange(1 << (n + 1), dtype=np.int64)
    lo, hi = decomposition_window(n)
    fallback = lo > hi
    g = np.zeros_like(x)
    if not fallback:
        width = hi - lo + 1
        window = (x >> lo) & ((1 << width) - 1)
        b = _least_period(window, width)
        for i in range(n + 1):
            g |= ((window >> ((i - lo) % b)) & 1) << i
    per_g = _least_period(g, n + 1)
    if not fallback and not np.array_equal(per_g, b):
        raise AssertionError("periodic extension must realize the window period")
    h = x ^ g
    B_h = np.full_like(x, n // 2 + 1)
    for k in range(n // 2, -1, -1):
        seg = ((1 << (n - 2 * k + 1)) - 1) << k
        part = h & seg
        B_h[(part == 0) | (part == seg)] = k
    return g, per_g, B_h, fallback


@lru_cache(maxsize=1)
def _decomposition_scan(n_max: int = 14) -> tuple:
    """The standard decomposition of each spectrum with n in [3, n_max], the
    scan criteria 12a and 12b share (65,520 spectra at n_max = 14); one
    ``_decompose`` per n.

    Returns (spectra, core violations, B(h) > ceil(n/3) count, B(h) >
    ceil(n/3)+1 count, first B(h) > ceil(n/3) case or None).  A core
    violation is, outside the fallback, per(g) > floor(n/3), with per(g)
    computed from g itself.  f = g xor h holds by construction, because
    h is f xor g.
    """
    total = core_bad = bad = bad_plus_one = 0
    first = None
    for n in range(3, n_max + 1):
        g, per_g, B_h, fallback = _decompose(n)
        ceil_third = -(-n // 3)
        total += len(g)
        if not fallback:
            core_bad += int(np.count_nonzero(per_g > n // 3))
        over = B_h > ceil_third
        bad += int(np.count_nonzero(over))
        bad_plus_one += int(np.count_nonzero(B_h > ceil_third + 1))
        if first is None and over.any():
            x = int(np.argmax(over))
            first = (n, "".join(str((x >> i) & 1) for i in range(n + 1)),
                     int(B_h[x]), ceil_third)
    return total, core_bad, bad, bad_plus_one, first


def criterion_12a_decomposition_core() -> CriterionResult:
    t0 = time.time()
    total, bad, _, _, _ = _decomposition_scan()
    return CriterionResult(
        "12a decomposition: f = g xor h and per(g) <= floor(n/3)",
        bad == 0, f"{total} spectra, n in [3,14]; violations={bad}",
        time.time() - t0)


def criterion_12b_bounded_part_bound() -> CriterionResult:
    """B(h) <= ceil(n/3), asserted exhaustively as stated.

    This bound is off by one as stated: h vanishes on the agreement window
    [ceil(n/3)+1, floor(2n/3)] but its value at ceil(n/3) is unconstrained,
    so only B(h) <= ceil(n/3)+1 is forced.  The check is implemented
    faithfully and is expected to fail; the +1 bound is verified alongside
    and reported.
    """
    t0 = time.time()
    total, _, bad, bad_plus_one, first = _decomposition_scan()
    details = (f"{total} spectra; B(h) <= ceil(n/3) violations={bad}"
               + (f", first at n={first[0]} spectrum={first[1]} "
                  f"B_h={first[2]} > {first[3]}" if first else "")
               + f"; B(h) <= ceil(n/3)+1 violations={bad_plus_one}")
    return CriterionResult("12b decomposition: B(h) <= ceil(n/3)",
                           bad == 0, details, time.time() - t0)


def criterion_12c_classifier_and_periodic() -> CriterionResult:
    t0 = time.time()
    ok = True
    details = []
    # branch assignments
    c1 = classify_pdeg(mod_spectrum(12, 3), 2, 0.01)
    c2 = classify_pdeg(mod_spectrum(12, 2), 2, 0.01)
    c3 = classify_pdeg(ethr_spectrum(8, 4), 2, 0.01)
    branch_ok = (c1.label == "aperiodic-or-bad-period"
                 and c2.label == "pure-p-power-period"
                 and c3.label == "mixed")
    ok &= branch_ok
    details.append(f"branches=({c1.label},{c2.label},{c3.label})"
                   f"{'' if branch_ok else ' MISMATCH'}")
    # periodic exact polynomials match their tables on all weights
    bad = 0
    cases = 0
    for p, qs in ((2, (2, 4, 8)), (3, (3, 9))):
        field = PrimeField(p)
        for q in qs:
            for n in range(q, 15):
                for trial in range(3):
                    rng = random.Random(1000 * p + 100 * q + 10 * n + trial)
                    table = [rng.randrange(p) for _ in range(q)]
                    poly = periodic_exact_poly(n, q, table, field)
                    cases += 1
                    if poly.degree >= q or any(
                            poly.weight_value(w) != table[w % q]
                            for w in range(n + 1)):
                        bad += 1
    ok &= bad == 0
    details.append(f"periodic polynomials: {cases} cases, {bad} mismatches")
    return CriterionResult("12c classifier branches and periodic exactness",
                           ok, "; ".join(details), time.time() - t0)


ALL_CRITERIA = [
    criterion_01_ppower_gap_sweep,
    criterion_02_extension_exactness,
    criterion_03_nie_wang,
    criterion_04_claim_a1,
    criterion_05_interpolation,
    criterion_06_tightness,
    criterion_07_coin,
    criterion_08_commuting_words,
    criterion_09_binomial_bounds,
    criterion_10_robust_frontier,
    criterion_11_galvin,
    criterion_12a_decomposition_core,
    criterion_12b_bounded_part_bound,
    criterion_12c_classifier_and_periodic,
]
