"""Named, seeded, reproducible experiments with JSON/CSV reports.

The acceptance gate (``acceptance``) runs most of its criteria as registered
experiments; criteria 05 and 12a-12c run their own scans there.  The CLI
exposes the same registry.  Reports are deterministic given (experiment,
params, seed) up to the wall-time field.
All tolerances live in TOLERANCES below, never inside library modules.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb
from typing import Callable

import mpmath as mp
import numpy as np

from . import __version__
from .config import (DEFAULT_CAPS, DPS, Caps, CapExceeded, check_cap,
                     frac_str, mpf_fraction, parse_fraction)
from .closure import (Candidates, IdealSampler, ball_fact_check, closure,
                      hamming_ball, nie_wang_check)
from .cube import (MultilinearPoly, binomial_row, n_monomials,
                   poly_to_json_dict, slice_array, weight_slices)
from .distinguish import (SliceDistinguishInstance, midslice_consistency,
                          exact_min_degree, exhaustive_robust,
                          gap_degree_sweep, p_adic_part, robust_search)
from .linalg import PrimeField
from .spectra import (Spectrum, _classify, bounded_index, make_family, period,
                      periodic_exact_poly, primitive_root,
                      standard_decomposition, window_distinct_check)
from .constructions import (C_LADDER, CoinInstance, GalvinFamily,
                            WeightWindow, binom_ratio_check, coin_build,
                            coin_verify_errors, galvin_coverage, galvin_poly,
                            galvin_tight_family, hyper_ratio_check,
                            interpolate_window_int, junta_exact_slice_error,
                            lucas_poly, sampling_poly)

# all numeric tolerances used by checks, in one place
TOLERANCES = {
    "claimA1_samples": 5000,
    "claimA1_freq_tol": 0.02,
    "niewang_trials": 200,
    "stringlemma_maxlen": 18,
    "lemma33_max_n": 60,
    "claimC_max_n": 40,
    "frontier_candidates": 10**4,
}


@dataclass
class Check:
    name: str
    passed: bool
    details: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "details": self.details}


@dataclass
class ExperimentSpec:
    name: str
    params: dict
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": self.params, "seed": self.seed}


@dataclass
class RunReport:
    spec: ExperimentSpec
    checks: list
    tables: dict
    deviations: list
    elapsed_s: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self, include_time: bool = True) -> dict:
        d = {
            "spec": self.spec.to_json_dict(),
            "version": __version__,
            "all_passed": self.all_passed,
            "checks": [c.to_json_dict() for c in self.checks],
            "tables": self.tables,
            "deviations": self.deviations,
        }
        if include_time:
            d["elapsed_s"] = round(self.elapsed_s, 3)
        return d

    def to_json(self, include_time: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_time), sort_keys=True,
                          indent=2, default=str)


@dataclass
class ExperimentDef:
    name: str
    fn: Callable
    params: dict          # name -> (type, default, help)
    help: str


EXPERIMENTS: dict[str, ExperimentDef] = {}


def experiment(name: str, params: dict, help: str):
    def wrap(fn):
        EXPERIMENTS[name] = ExperimentDef(name=name, fn=fn, params=params,
                                          help=help)
        return fn
    return wrap


def list_experiments() -> list[dict]:
    """Registry listing with parameter schemas (JSON-serializable)."""
    out = []
    for d in sorted(EXPERIMENTS.values(), key=lambda e: e.name):
        out.append({
            "name": d.name,
            "help": d.help,
            "params": {
                k: {"type": t.__name__, "default": default, "help": h}
                for k, (t, default, h) in d.params.items()
            },
        })
    return out


def run(spec: ExperimentSpec, caps: Caps = DEFAULT_CAPS) -> RunReport:
    """Execute a named experiment deterministically for the given seed."""
    if spec.name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {spec.name!r}; "
                       f"known: {sorted(EXPERIMENTS)}")
    d = EXPERIMENTS[spec.name]
    params = {}
    for key, (typ, default, _help) in d.params.items():
        raw = spec.params.get(key, default)
        params[key] = typ(raw) if raw is not None else None
    unknown = set(spec.params) - set(d.params)
    if unknown:
        raise KeyError(f"unknown parameters {sorted(unknown)} for {spec.name}")
    t0 = time.time()
    checks, tables, deviations = d.fn(params, spec.seed, caps)
    return RunReport(spec=ExperimentSpec(spec.name, params, spec.seed),
                     checks=checks, tables=tables, deviations=deviations,
                     elapsed_s=time.time() - t0)


def _ladder(ladder, attempt, stop_at_pass: bool, miss_detail: str = ""):
    """Try the constants of ``ladder`` in order; ``attempt(C)`` returns
    (table row, passes, result).

    Returns (table, chosen, checks): ``chosen`` is (C, result) for the
    smallest passing constant or None, and ``checks`` holds the
    ``ladder-has-passing-C`` failure when no constant passes.  With
    ``stop_at_pass`` the table ends at the first passing constant;
    otherwise it lists every constant.
    """
    table, chosen = [], None
    for C in ladder:
        row, passes, result = attempt(C)
        table.append(row)
        if passes and chosen is None:
            chosen = (C, result)
            if stop_at_pass:
                break
    checks = []
    if chosen is None:
        checks.append(Check("ladder-has-passing-C", False, miss_detail))
    return table, chosen, checks


# ---------------------------------------------------------------------------
# degree experiments
# ---------------------------------------------------------------------------

@experiment("mindeg",
            {"n": (int, 8, "variables"), "p": (int, 2, "characteristic"),
             "k": (int, 3, "vanishing slice"), "K": (int, 5, "target slice")},
            "exact minimum degree distinguishing slice k from slice K")
def _mindeg(params, seed, caps):
    n, p, k, K = params["n"], params["p"], params["k"], params["K"]
    rep = exact_min_degree(n, p, k, K, caps)
    expected = p_adic_part(abs(K - k), p)
    checks = [Check("degree-equals-p-adic-part", rep.degree == expected,
                    f"degree={rep.degree}, p-adic part of gap={expected}")]
    if rep.witness is not None:
        checks.append(Check("witness-vanishes-on-slice-k", rep.psi_k == 0,
                            f"psi_k={frac_str(rep.psi_k)}"))
        checks.append(Check("witness-nonzero-on-slice-K", rep.psi_K > 0,
                            f"psi_K={frac_str(rep.psi_K)}"))
    tables = {"report": [rep.to_json_dict()]}
    if rep.witness is not None and len(rep.witness.terms_map()) <= 4096:
        tables["witness"] = [poly_to_json_dict(rep.witness)]
    return checks, tables, []


_SWEEP_PARAMS = {"p": (int, 2, "characteristic"),
                 "n_min": (int, 6, "smallest n"),
                 "n_max": (int, 14, "largest n")}


def _gap_sweep(params, seed, caps, gaps):
    rows, violations = gap_degree_sweep(
        params["p"], range(params["n_min"], params["n_max"] + 1), gaps=gaps)
    table = [vars(r) for r in rows]
    checks = [Check("zero-violations", not violations,
                    f"{len(rows)} instances, {len(violations)} violations")]
    return checks, {"sweep": table}, []


experiment("hegedus-sweep", _SWEEP_PARAMS,
           "exact degree = p-power gap across the full grid")(
    partial(_gap_sweep, gaps="ppower"))
experiment("extension-sweep", _SWEEP_PARAMS,
           "exact degree = p-adic part for composite gaps")(
    partial(_gap_sweep, gaps="composite"))


@experiment("closure",
            {"n": (int, 6, "variables"), "p": (int, 2, "characteristic"),
             "D": (int, 2, "degree bound"),
             "e_slices": (str, "2", "comma-separated slice weights forming E"),
             "cand": (str, "full", "'full' or comma-separated slice weights")},
            "degree-D closure of a union of slices")
def _closure(params, seed, caps):
    n, p, D = params["n"], params["p"], params["D"]
    field = PrimeField(p)
    weights = [int(w) for w in params["e_slices"].split(",") if w != ""]
    points = weight_slices(n, weights)
    if params["cand"] == "full":
        cand = Candidates.full_cube(n)
    else:
        cand = Candidates.slices(n, [int(w) for w in params["cand"].split(",")])
    res = closure(field, n, points, D, cand, caps)
    e_in_cand = (points if cand.kind == "full" else
                 weight_slices(n, [w for w in weights if w in cand.weights]))
    checks = [Check("E-inside-its-closure",
                    set(res.member_masks).issuperset(e_in_cand.tolist()),
                    f"|E|={len(points)}, closure={res.closure_count}")]
    return checks, {"closure": [res.to_json_dict()]}, []


@experiment("niewang",
            {"trials": (int, TOLERANCES["niewang_trials"], "random E trials"),
             "n_max": (int, 12, "largest n"), "d_max": (int, 4, "largest D")},
            "closure cardinality bound on random sets plus ball equality")
def _niewang(params, seed, caps):
    rng = random.Random(seed)
    trials, n_max, d_max = params["trials"], params["n_max"], params["d_max"]
    table = []
    ok = True
    for trial in range(trials):
        p = 2 if trial % 3 else 3
        hi = n_max if p == 2 else min(n_max, 8)
        n = rng.randrange(4, hi + 1)
        D = rng.randrange(0, min(d_max, n) + 1)
        nd = n_monomials(n, D)
        size = rng.randrange(0, min(nd, 1 << n) + 1)
        check_cap(1 << n, caps.max_slice_points, "full-cube candidates")
        points = rng.sample(range(1 << n), size)
        lhs, rhs, holds = nie_wang_check(PrimeField(p), n, points, D, caps)
        ok &= holds
        table.append({"trial": trial, "p": p, "n": n, "D": D, "E": size,
                      "lhs": frac_str(lhs), "rhs": frac_str(rhs), "holds": holds})
    checks = [Check("random-trials-hold", ok, f"{trials} trials")]
    for p in (2, 3):
        for (n, D) in ((6, 1), (8, 2)):
            lhs, rhs, holds = nie_wang_check(
                PrimeField(p), n, hamming_ball(n, D), D, caps)
            eq = lhs == rhs == 1
            checks.append(Check(f"ball-equality-p{p}-n{n}-D{D}", holds and eq,
                                f"lhs={frac_str(lhs)}, rhs={frac_str(rhs)}"))
    return checks, {"trials": table}, []


@experiment("claimA1",
            {"samples": (int, TOLERANCES["claimA1_samples"], "sample count"),
             "tol": (float, TOLERANCES["claimA1_freq_tol"], "frequency tolerance")},
            "uniform ideal samples are nonzero at an escaped point with "
            "frequency 1 - 1/p")
def _claimA1(params, seed, caps):
    if params["samples"] < 1:
        raise ValueError("samples must be positive")
    checks = []
    table = []
    # exhaustive tiny cases: every ideal element, exact fraction
    for p in (2, 3):
        field = PrimeField(p)
        for (n, pts, D, b) in (
            (3, [0b111], 1, 0),
            (4, slice_array(4, 2), 2, 0b1111),
        ):
            sampler = IdealSampler(field, n, pts, D, seed=seed, caps=caps)
            vals = sampler.exhaustive_values_at(b)
            frac = Fraction(sum(1 for v in vals if v), len(vals))
            expect = Fraction(p - 1, p)
            checks.append(Check(
                f"exhaustive-p{p}-n{n}", frac == expect,
                f"fraction={frac_str(frac)}, expected={frac_str(expect)}, dim={sampler.dim}"))
            table.append({"p": p, "n": n, "D": D, "dim": sampler.dim,
                          "fraction": frac_str(frac)})
    # sampled case at n = 10
    for p in (2, 3):
        field = PrimeField(p)
        n, k, K, D = 10, 5, 7, 2
        pts = slice_array(n, k)
        b = (1 << K) - 1
        sampler = IdealSampler(field, n, pts, D, seed=seed + p, caps=caps)
        vals = sampler.sample_values_at(b, params["samples"])
        freq = sum(1 for v in vals if v) / len(vals)
        expect = 1 - 1 / p
        ok = abs(freq - expect) <= params["tol"]
        checks.append(Check(
            f"sampled-p{p}-n{n}", ok,
            f"freq={freq:.4f}, expected={expect:.4f}, tol={params['tol']}"))
        table.append({"p": p, "n": n, "D": D, "samples": params["samples"],
                      "freq": freq})
    return checks, {"cases": table}, []


@experiment("ball-fact",
            {"n_max": (int, 8, "largest n"), "p": (int, 2, "characteristic")},
            "no nonzero degree-d polynomial vanishes on a radius-d ball")
def _ballfact(params, seed, caps):
    field = PrimeField(params["p"])
    table = []
    ok = True
    for n in range(2, params["n_max"] + 1):
        for d in range(0, n + 1):
            if n_monomials(n, d) > 2000:
                continue
            res = ball_fact_check(field, n, d)
            ok &= res
            table.append({"n": n, "d": d, "holds": res})
    checks = [Check("all-balls", ok, f"{len(table)} cases")]
    return checks, {"cases": table}, []


# ---------------------------------------------------------------------------
# string and numeric bound checkers
# ---------------------------------------------------------------------------

@experiment("stringlemma",
            {"maxlen": (int, TOLERANCES["stringlemma_maxlen"], "max |uv|")},
            "commuting concatenations force a proper power")
def _stringlemma(params, seed, caps):
    # u v = v u for the split at cut = |u| exactly when the word w = uv is
    # its own rotation w[cut:] + w[:cut]; read with its first letter as the
    # top bit, that rotation of the L-bit word x is x rotated left by cut.
    # So one array of all 2^L words per length finds every commuting split,
    # and primitive_root checks each of them
    maxlen = params["maxlen"]
    violations = 0
    commuting = 0
    for L in range(2, maxlen + 1):
        check_cap(1 << L, caps.max_slice_points, f"words of length {L}")
        words = np.arange(1 << L, dtype=np.int64)
        top = (1 << L) - 1
        for cut in range(1, L):
            rotated = ((words << cut) | (words >> (L - cut))) & top
            for x in np.flatnonzero(words == rotated).tolist():
                commuting += 1
                _, k = primitive_root(format(x, f"0{L}b"))
                if k < 2:
                    violations += 1
    checks = [Check("zero-violations", violations == 0,
                    f"{commuting} commuting splits checked, "
                    f"{violations} violations")]
    return checks, {}, []


@experiment("lemma33",
            {"n_max": (int, TOLERANCES["lemma33_max_n"], "largest n")},
            "central binomial ratio bounds over the full grid")
def _lemma33(params, seed, caps):
    holds_all = True
    printed_failures = 0
    count = 0
    for n in range(1, params["n_max"] + 1):
        smax = n // 4
        for s in range(smax + 1):
            for r in range(s + 1):
                rep = binom_ratio_check(n, r, s)
                count += 1
                holds_all &= rep.holds
                if not rep.printed_holds:
                    printed_failures += 1
    checks = [Check("working-convention-holds", holds_all,
                    f"{count} grid points")]
    return checks, {"printed_convention": [
        {"grid_points": count, "printed_failures": printed_failures}]}, []


@experiment("claimC",
            {"n_max": (int, TOLERANCES["claimC_max_n"], "largest even n")},
            "telescoping step inequality of the paired-binomial decay")
def _claimC(params, seed, caps):
    ok = True
    count = 0
    for n in range(2, params["n_max"] + 1, 2):
        for m in range(0, n // 2 + 1):
            k = m // 2
            if k < 1:
                continue
            rep = hyper_ratio_check(n, m, k)
            count += 1
            ok &= rep.steps_exact_ok and rep.steps_exp_ok and rep.assembled_ok
    checks = [Check("all-steps-hold", ok, f"{count} (n, m) pairs")]
    return checks, {}, []


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

@experiment("construct-lucas",
            {"n": (int, 8, "variables"), "i": (int, 2, "vanishing slice"),
             "q": (int, 4, "gap"), "p": (int, 2, "characteristic")},
            "single-gap slice distinguisher from binomial digits")
def _lucas(params, seed, caps):
    n, i, q, p = params["n"], params["i"], params["q"], params["p"]
    poly = lucas_poly(n, i, q, p)
    vals = poly.weight_values()
    checks = [
        Check("vanishes-on-slice-i", vals[i] == 0, f"value={vals[i]}"),
        Check("nonzero-on-slice-i+q", vals[i + q] != 0, f"value={vals[i + q]}"),
        Check("degree-is-p-adic-part", poly.degree == p_adic_part(q, p),
              f"degree={poly.degree}"),
    ]
    return checks, {"poly": [poly_to_json_dict(poly, caps)]}, []


@experiment("construct-window",
            {"n": (int, 10, "variables"), "lo": (int, 2, "window start"),
             "values": (str, "0,1,0", "comma-separated 0/1 targets"),
             "p": (int, 0, "reduce mod p (0 = integers)")},
            "integer-coefficient interpolation on a weight window")
def _window(params, seed, caps):
    vals = tuple(int(v) for v in params["values"].split(","))
    win = WeightWindow(params["n"], params["lo"],
                       params["lo"] + len(vals) - 1, vals)
    ipoly = interpolate_window_int(win)
    agree = tuple(ipoly.weight_values()[win.lo:win.hi + 1]) == vals
    checks = [
        Check("degree-bound", ipoly.degree <= win.length - 1,
              f"degree={ipoly.degree}, |I|-1={win.length - 1}"),
        Check("window-agreement", agree, ""),
    ]
    tables = {"ecoeffs": [{"j": j, "c": c} for j, c in enumerate(ipoly.ecoeffs)]}
    if params["p"]:
        rpoly = ipoly.reduce_mod(PrimeField(params["p"]))
        tables["mod_p"] = [poly_to_json_dict(rpoly, caps)]
    return checks, tables, []


@experiment("construct-sample",
            {"n": (int, 4096, "variables"), "k": (int, 2048, "vanishing slice"),
             "q": (int, 256, "gap"),
             "ln_inv_eps": (float, 4.0, "ln(1/eps)"),
             "C": (int, 0, "constant (0 = ladder search)")},
            "sampled low-degree junta with exact hypergeometric slice errors")
def _sample(params, seed, caps):
    n, k, q = params["n"], params["k"], params["q"]
    eps = math.exp(-params["ln_inv_eps"])

    def attempt(C):
        try:
            junta = sampling_poly(n, k, q, eps, C, seed)
        except CapExceeded as e:
            return {"C": C, "status": f"infeasible: {e}"}, False, None
        err_k = junta_exact_slice_error(junta, k, "zero")
        err_K = junta_exact_slice_error(junta, k + q, "nonzero")
        with mp.workdps(DPS):
            passes = bool(mpf_fraction(err_k) <= mp.mpf(eps)
                          and mpf_fraction(err_K) <= mp.mpf(eps))
        row = {"C": C, "m": junta.m, "degree": junta.degree,
               "err_k": float(err_k), "err_K": float(err_K),
               "errors_pass": passes}
        return row, passes, (junta, err_k, err_K)

    ladder = (params["C"],) if params["C"] else C_LADDER
    table, chosen, checks = _ladder(
        ladder, attempt, stop_at_pass=False,
        miss_detail="no ladder constant meets the error target")
    deviations = []
    if chosen is not None:
        C, (junta, err_k, err_K) = chosen
        deviations = list(junta.deviations)
        checks.append(Check("errors-pass", True,
                            f"C={C}, err_k={float(err_k):.3g}, "
                            f"err_K={float(err_K):.3g}"))
        checks.append(Check("degree-below-gap", junta.degree < q,
                            f"degree={junta.degree}, q={q}"))
    return checks, {"ladder": table}, deviations


@experiment("construct-coin",
            {"p": (int, 2, "characteristic"), "delta": (str, "1/8", "bias"),
             "eps": (str, "1/100", "error"), "C": (int, 2, "sizing constant")},
            "window polynomial distinguishing coin biases, exact errors")
def _coin(params, seed, caps):
    inst = CoinInstance.from_sizing(
        params["p"], parse_fraction(params["delta"]),
        parse_fraction(params["eps"]), params["C"])
    poly = coin_build(inst)
    err_u, err_b = coin_verify_errors(inst, poly)
    window_len = len(inst.zero_weights()) + len(inst.one_weights()) + 1
    checks = [
        Check("unbiased-error", err_u <= inst.eps,
              f"{float(err_u):.3g} <= {float(inst.eps):.3g}"),
        Check("biased-error", err_b <= inst.eps,
              f"{float(err_b):.3g} <= {float(inst.eps):.3g}"),
        Check("degree-within-window", poly.degree <= window_len,
              f"degree={poly.degree}, window={window_len}"),
    ]
    tables = {"instance": [inst.to_json_dict()],
              "result": [{"n": inst.n, "degree": poly.degree,
                          "err_unbiased": frac_str(err_u), "err_biased": frac_str(err_b)}]}
    return checks, tables, []


@experiment("coin-verify",
            {"p": (int, 2, "characteristic"), "delta": (str, "1/8", "bias"),
             "eps": (str, "1/100", "error")},
            "coin construction meets its error target at the sizing rule")
def _coin_verify(params, seed, caps):
    delta, eps = parse_fraction(params["delta"]), parse_fraction(params["eps"])

    def attempt(C):
        inst = CoinInstance.from_sizing(params["p"], delta, eps, C)
        poly = coin_build(inst)
        err_u, err_b = coin_verify_errors(inst, poly)
        passes = err_u <= eps and err_b <= eps
        window_len = len(inst.zero_weights()) + len(inst.one_weights()) + 1
        row = {"C": C, "n": inst.n, "degree": poly.degree,
               "window": window_len,
               "err_unbiased": frac_str(err_u), "err_biased": frac_str(err_b),
               "passes": passes}
        return row, passes, (inst, poly, err_u, err_b, window_len)

    table, chosen, checks = _ladder(C_LADDER, attempt, stop_at_pass=True)
    if chosen is not None:
        C, (inst, poly, err_u, err_b, window_len) = chosen
        two_delta_n = 2 * float(delta) * inst.n
        checks.extend([
            Check("errors-at-most-eps", True,
                  f"C={C}, n={inst.n}, err_u={float(err_u):.3g}, "
                  f"err_b={float(err_b):.3g}"),
            Check("degree-within-window", poly.degree <= window_len,
                  f"degree={poly.degree} <= window {window_len}"),
            Check("window-linear-in-delta-n", window_len <= two_delta_n + 2,
                  f"window={window_len}, 2*delta*n={two_delta_n:.1f}"),
        ])
    return checks, {"ladder": table}, []


@experiment("construct-galvin",
            {"n": (int, 64, "variables (even)"), "eps": (float, 0.05, "error"),
             "C": (int, 2, "threshold constant")},
            "covering hyperplane family on the middle slice")
def _galvin(params, seed, caps):
    fam = galvin_tight_family(params["n"], params["eps"], params["C"])
    cov = galvin_coverage(fam)
    checks = [
        Check("size-is-2t+1", fam.size == 2 * fam.t + 1,
              f"size={fam.size}, t={fam.t}"),
        Check("coverage", cov >= 1 - Fraction(params["eps"]).limit_denominator(10**6),
              f"coverage={frac_str(cov)}"),
    ]
    dev = ["intercept range exits [0, n/2]; kept and flagged degenerate"] \
        if fam.degenerate else []
    return checks, {"family": [fam.to_json_dict()]}, dev


@experiment("galvin-verify",
            {"n": (int, 64, "variables (even)"), "eps": (float, 0.05, "error")},
            "family coverage via exact hypergeometric mass, plus the product "
            "polynomial degree")
def _galvin_verify(params, seed, caps):
    n, eps = params["n"], params["eps"]

    def attempt(C):
        fam = galvin_tight_family(n, eps, C)
        cov = galvin_coverage(fam)
        passes = cov >= 1 - Fraction(eps).limit_denominator(10**6)
        row = {"C": C, "t": fam.t, "size": fam.size,
               "degenerate": fam.degenerate, "coverage": frac_str(cov),
               "passes": passes}
        return row, passes, (fam, cov)

    table, chosen, checks = _ladder(C_LADDER, attempt, stop_at_pass=True)
    if chosen is not None:
        C, (fam, cov) = chosen
        checks.append(Check("coverage-at-least-1-eps", True,
                            f"C={C}, coverage={frac_str(cov)}"))
        checks.append(Check("size-is-2t+1", fam.size == 2 * fam.t + 1,
                            f"size={fam.size}, t={fam.t}"))
    # product polynomial degree on a generic 5-factor family
    nn = 12
    rng = random.Random(seed)
    items = []
    for b in (1, 2, 3, 4, 5):
        positions = rng.sample(range(nn), nn // 2)
        u = 0
        for i in positions:
            u |= 1 << i
        items.append((u, b))
    fam5 = GalvinFamily(nn, tuple(items))
    poly5 = galvin_poly(fam5, PrimeField(7), caps=caps)
    checks.append(Check("five-factor-degree", poly5.degree == 5,
                        f"degree={poly5.degree}"))
    return checks, {"ladder": table}, []


# ---------------------------------------------------------------------------
# symmetric-function analysis
# ---------------------------------------------------------------------------

@experiment("symfun-analyze",
            {"family": (str, "mod:3:0", "family name or 0/1 spectrum string"),
             "n": (int, 12, "variables"), "p": (int, 2, "characteristic"),
             "eps": (float, 0.01, "error for the classifier")},
            "period, boundedness, decomposition, and degree-bound branch")
def _symfun(params, seed, caps):
    fam = params["family"]
    if set(fam) <= {"0", "1"}:
        spec = Spectrum.from_string(fam)
    else:
        spec = make_family(fam, params["n"])
    n = spec.n
    dec = standard_decomposition(spec)
    case = _classify(dec, params["p"], params["eps"])
    per = period(spec)
    row = {
        "spectrum": spec.to_string(),
        "period": per,
        "bounded_index": bounded_index(spec),
        "per_g": dec.per_g,
        "B_h": dec.B_h,
        "g": dec.g.to_string(),
        "h": dec.h.to_string(),
        "fallback": dec.fallback,
        "branch": case.label,
        "branch_value": case.value,
    }
    checks = [
        Check("f-equals-g-xor-h",
              all(a ^ b == c for a, b, c in
                  zip(dec.g.bits, dec.h.bits, spec.bits)), ""),
        Check("per-g-bound", dec.per_g <= n // 3 or dec.fallback,
              f"per_g={dec.per_g}, floor(n/3)={n // 3}"),
    ]
    if per > 1:
        checks.append(Check("window-distinct", window_distinct_check(spec), ""))
    return checks, {"analysis": [row]}, []


# ---------------------------------------------------------------------------
# robust frontier
# ---------------------------------------------------------------------------

@experiment("robust-frontier",
            {"n_min": (int, 6, "sweep start"), "n_max": (int, 14, "sweep end"),
             "cand_n": (int, 64, "candidate arity"),
             "cand_t": (int, 8, "candidate gap (p-power)"),
             "candidates": (int, TOLERANCES["frontier_candidates"],
                            "heuristic candidate count")},
            "budget-0 equality, exhaustive-oracle monotonicity, and the "
            "special-case falsification harness")
def _frontier(params, seed, caps):
    checks = []
    # (a) budget-0 search reproduces the exact solver across the sweep range;
    # all p-power gaps q <= min(k, n - k) of one slice k in a row, and slices
    # k and n - k one after the other: both climb slice min(k, n - k)'s
    # ladder, and only the last slice's ladder is kept.  Both degree-only
    # answers read rung q - 1 alone (the separator certifies q), so the
    # largest q comes first: the ladder's top is its one elimination
    mismatches = []
    count = 0
    for p in (2, 3):
        for n in range(params["n_min"], params["n_max"] + 1):
            for k in sorted(range(1, n), key=lambda k: (min(k, n - k), k)):
                q = 1
                while q * p <= min(k, n - k):
                    q *= p
                while q:
                    inst = SliceDistinguishInstance(n=n, p=p, k=k, K=k + q)
                    rs = robust_search(inst, Fraction(0), seed=seed, caps=caps)
                    ex = exact_min_degree(n, p, k, k + q, caps,
                                          want_witness=False)
                    count += 1
                    if rs.degree != ex.degree:
                        mismatches.append((p, n, k, k + q, rs.degree, ex.degree))
                    q //= p
    checks.append(Check("budget0-equals-exact", not mismatches,
                        f"{count} instances, {len(mismatches)} mismatches"))
    # (b) exhaustive oracle monotone, heuristic never below it
    frontier_rows = []
    mono_ok = True
    above_ok = True
    for (n, p, k, K) in ((8, 2, 4, 6), (8, 2, 3, 5), (7, 2, 3, 5)):
        inst = SliceDistinguishInstance(n=n, p=p, k=k, K=K)
        size_k = comb(n, k)
        prev = None
        for removals in (0, 1, 2):
            ex = exhaustive_robust(n, p, k, K, removals, caps)
            budget = Fraction(removals, size_k)
            hs = robust_search(inst, budget, strategy="uniform", seed=seed,
                               caps=caps)
            gr = robust_search(inst, budget, strategy="greedy", seed=seed,
                               caps=caps)
            frontier_rows.append({
                "n": n, "p": p, "k": k, "K": K, "removals": removals,
                "exhaustive": ex.degree, "uniform": hs.degree,
                "greedy": gr.degree,
            })
            if prev is not None and ex.degree > prev:
                mono_ok = False
            if hs.degree < ex.degree or gr.degree < ex.degree:
                above_ok = False
            prev = ex.degree
    checks.append(Check("exhaustive-monotone", mono_ok, ""))
    checks.append(Check("heuristic-never-below-oracle", above_ok, ""))
    # (c) no low-degree candidate satisfies the special-case hypotheses; the
    # scan checks every candidate, and compares each distinct (psi_low,
    # psi_mid, degree) against the thresholds once (see _candidate_scan)
    hypothesis_hits, violations = _candidate_scan(
        params["cand_n"], params["cand_t"], params["candidates"], seed, caps)
    checks.append(Check(
        "no-low-degree-counterexample", violations == 0,
        f"{params['candidates']} candidates, {hypothesis_hits} satisfied the "
        f"hypotheses, {violations} violations"))
    return checks, {"frontier": frontier_rows}, []


def _candidate_scan(n: int, t: int, count: int, seed: int,
                    caps: Caps) -> tuple[int, int]:
    """(hypothesis hits, violations) of part (c)'s ``count`` candidates
    against ``midslice_consistency(n, t, 2, ., caps)``.

    Candidate 0 is the Lucas polynomial that vanishes on slice n//2 - t,
    candidate 1 the t-periodic indicator of weight n//2 mod t, and every
    other one sum_j c_j e_j, with its degree d and then its bits c_0..c_d
    drawn by ``random.Random(seed).randrange``.  A candidate is one Python
    int, bit j = c_j, and its degree, at most 2t, is its top set bit.

    By Lucas's theorem a candidate's value at weight w is the parity of its
    bits j with C(w, j) odd, the bits of ``mask & odd_w``, and its nonzero
    fraction on a slice is 0 or 1: two popcounts read psi_low and psi_mid
    (w = m - t and m).  Every ``MidsliceConsistencyReport`` field is a
    function of (n, t, p, psi_low, psi_mid, degree): ell and the thresholds
    of n and t, the window tests of those and the two fractions, the degree
    test of t and the degree.  So ``midslice_consistency`` runs once per
    distinct (degree, psi_low, psi_mid), on the first candidate with that
    key, and its report counts once for each candidate with the key.  That
    is exact: every candidate's report is the one it would get on its own.
    """
    p, m = 2, n // 2
    field = PrimeField(p)
    odd_low, odd_mid = (sum((c & 1) << j for j, c in enumerate(
        binomial_row(w, 0, 2 * t))) for w in (m - t, m))
    randrange = random.Random(seed).randrange
    masks = []
    for idx in range(count):
        if idx < 2:
            poly = (lucas_poly(n, m - t, t, p) if idx == 0 else
                    periodic_exact_poly(
                        n, t, [int(r == m % t) for r in range(t)], field))
            masks.append(sum(c << j for j, c in enumerate(poly.sym_coeffs)))
        else:
            mask = 0
            for j in range(randrange(0, 2 * t + 1) + 1):
                mask |= randrange(2) << j
            masks.append(mask)
    hits = violations = 0
    reports = {}
    for mask, repeats in Counter(masks).items():
        key = (max(mask.bit_length() - 1, 0), (mask & odd_low).bit_count() & 1,
               (mask & odd_mid).bit_count() & 1)
        if key not in reports:
            bits = [mask >> j & 1 for j in range(mask.bit_length())]
            reports[key] = midslice_consistency(
                n, t, p, MultilinearPoly.from_sym(n, field, bits), caps)
        hits += repeats * reports[key].hypotheses_hold
        violations += repeats * (not reports[key].consistent)
    return hits, violations
