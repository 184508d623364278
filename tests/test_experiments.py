"""Experiment registry, report determinism, and the CLI surface."""

import json
import math
import random
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest

import spectra_reference as ref
from slicedeg import cli, distinguish, experiments, spectra
from slicedeg.closure import Candidates, EvaluationMatrix
from slicedeg.config import DEFAULT_CAPS, CapExceeded
from slicedeg.constructions import C_LADDER, lucas_poly
from slicedeg.cube import MultilinearPoly
from slicedeg.experiments import (EXPERIMENTS, ExperimentSpec,
                                  list_experiments, run)
from slicedeg.linalg import PrimeField, RankOracle
from slicedeg.spectra import periodic_exact_poly

REQUIRED_EXPERIMENTS = {
    "mindeg", "closure", "niewang", "hegedus-sweep", "extension-sweep",
    "claimA1", "ball-fact", "stringlemma", "lemma33", "claimC",
    "construct-lucas", "construct-window", "construct-sample",
    "construct-coin", "construct-galvin", "symfun-analyze", "robust-frontier",
    "coin-verify", "galvin-verify",
}


class TestRegistry:
    def test_all_names_registered(self):
        assert REQUIRED_EXPERIMENTS <= set(EXPERIMENTS)

    def test_listing_roundtrips_through_json(self):
        listing = list_experiments()
        assert json.loads(json.dumps(listing)) == listing
        names = {e["name"] for e in listing}
        assert "hegedus-sweep" in names and "claimA1" in names

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run(ExperimentSpec(name="nope", params={}))

    def test_unknown_param(self):
        with pytest.raises(KeyError):
            run(ExperimentSpec(name="mindeg", params={"bogus": 1}))


class TestDeterminism:
    @pytest.mark.parametrize("name,params", [
        ("mindeg", {"n": 8, "p": 2, "k": 3, "K": 5}),
        ("claimA1", {"samples": 500, "tol": 0.05}),
        ("niewang", {"trials": 20, "n_max": 8, "d_max": 3}),
        ("symfun-analyze", {"family": "mod:3:0", "n": 12}),
    ])
    def test_same_seed_same_report(self, name, params):
        a = run(ExperimentSpec(name=name, params=params, seed=17))
        b = run(ExperimentSpec(name=name, params=params, seed=17))
        assert a.to_json(include_time=False) == b.to_json(include_time=False)

    def test_seed_recorded(self):
        rep = run(ExperimentSpec(name="claimA1",
                                 params={"samples": 200, "tol": 0.2}, seed=5))
        assert rep.spec.seed == 5
        assert json.loads(rep.to_json())["spec"]["seed"] == 5


class TestChecksShape:
    def test_mindeg_passes(self):
        rep = run(ExperimentSpec(name="mindeg",
                                 params={"n": 8, "p": 2, "k": 3, "K": 5}))
        assert rep.all_passed
        assert rep.tables["report"][0]["degree"] == 2

    def test_symfun_checks_can_fail(self, monkeypatch):
        # a decomposition with g xor h != f and per(g) > floor(n/3), and a
        # window check that reads twice the period, so that two windows one
        # period apart are equal at different offsets mod its b
        f = spectra.mod_spectrum(12, 3)
        wrong = spectra.StandardDecomposition(
            g=f, h=f, per_g=5, B_h=0, window=spectra.decomposition_window(12),
            fallback=False)
        monkeypatch.setattr(experiments, "standard_decomposition",
                            lambda spec: wrong)
        period = spectra.period
        monkeypatch.setattr(spectra, "period", lambda spec: 2 * period(spec))
        rep = run(ExperimentSpec("symfun-analyze",
                                 {"family": "mod:3:0", "n": 12}))
        assert [(c.name, c.passed, c.details) for c in rep.checks] == [
            ("f-equals-g-xor-h", False, ""),
            ("per-g-bound", False, "per_g=5, floor(n/3)=4"),
            ("window-distinct", False, "")]

    def test_frontier_monotone_check_can_fail(self, monkeypatch):
        # an oracle whose degree rises by exactly 1 per removal
        monkeypatch.setattr(
            experiments, "exhaustive_robust",
            lambda n, p, k, K, removals, caps: SimpleNamespace(
                degree=removals + 1))
        rep = run(ExperimentSpec("robust-frontier", {
            "n_min": 6, "n_max": 6, "candidates": 2}))
        checks = {c.name: (c.passed, c.details) for c in rep.checks}
        assert checks["exhaustive-monotone"] == (False, "")
        assert [row["exhaustive"] for row in rep.tables["frontier"]] == [
            1, 2, 3] * 3

    def test_frontier_heuristic_check_can_fail(self, monkeypatch):
        # greedy search reports degree 0, below the oracle; uniform search
        # stays at or above it
        search = experiments.robust_search

        def greedy_below(inst, budget, strategy="uniform", **kw):
            rep = search(inst, budget, strategy=strategy, **kw)
            return replace(rep, degree=0) if strategy == "greedy" else rep

        monkeypatch.setattr(experiments, "robust_search", greedy_below)
        rep = run(ExperimentSpec("robust-frontier", {
            "n_min": 6, "n_max": 6, "candidates": 2}))
        checks = {c.name: (c.passed, c.details) for c in rep.checks}
        assert checks["exhaustive-monotone"] == (True, "")
        assert checks["heuristic-never-below-oracle"] == (False, "")
        rows = rep.tables["frontier"]
        assert all(row["uniform"] >= row["exhaustive"] for row in rows)
        assert any(row["greedy"] < row["exhaustive"] for row in rows)

    def test_niewang_past_the_full_cube_cap_raises(self):
        # the cap is checked before rng.sample draws from the full cube,
        # which raised OverflowError from n = 63 on; 2^n is too long to print
        with pytest.raises(CapExceeded, match="full-cube candidates = a "):
            run(ExperimentSpec("niewang", {"n_max": 10**6}))

    def test_symfun_spectrum_string_input(self):
        rep = run(ExperimentSpec(name="symfun-analyze",
                                 params={"family": "0101010101010"}))
        assert rep.all_passed
        assert rep.tables["analysis"][0]["period"] == 2

    def test_ladder_stop_rules(self):
        # construct-sample tabulates every constant, coin-verify stops at the
        # first passing one; both report a ladder with no passing constant
        sample_params = {"n": 64, "k": 32, "q": 16, "ln_inv_eps": math.log(5)}
        rep = run(ExperimentSpec("construct-sample", sample_params, 1))
        table = rep.tables["ladder"]
        assert [row["C"] for row in table] == list(C_LADDER)
        assert table[0]["errors_pass"]
        assert [row["C"] for row in table if "status" in row] == [5, 10, 20, 40]
        rep = run(ExperimentSpec("coin-verify",
                                 {"p": 3, "delta": "1/4", "eps": "1/10"}))
        table = rep.tables["ladder"]
        assert [row["passes"] for row in table] == [True]
        assert [c.name for c in rep.checks][0] == "errors-at-most-eps"
        rep = run(ExperimentSpec("construct-sample",
                                 dict(sample_params, C=40), 1))
        assert [row["C"] for row in rep.tables["ladder"]] == [40]
        assert [c.to_json_dict() for c in rep.checks] == [{
            "name": "ladder-has-passing-C", "passed": False,
            "details": "no ladder constant meets the error target"}]

    @pytest.mark.parametrize("name, params", [
        ("symfun-analyze", {"family": "thr"}),
        ("symfun-analyze", {"family": "maj:4"}),
        ("construct-coin", {"eps": "0"}),
        ("construct-coin", {"delta": "0"}),
        ("coin-verify", {"eps": "0"}),
        ("coin-verify", {"delta": "0"}),
        ("claimA1", {"samples": 0}),
        # per(g) = 3 reaches the p-adic part, which once looped forever at
        # p = 1 and divided by zero at p = 0
        ("symfun-analyze", {"family": "mod:3:0", "n": 12, "p": 0}),
        ("symfun-analyze", {"family": "mod:3:0", "n": 12, "p": 1}),
        # "1/0" once raised ZeroDivisionError
        ("construct-coin", {"delta": "1/0"}),
        ("construct-coin", {"eps": "1/0"}),
        ("coin-verify", {"delta": "1/0"}),
        ("coin-verify", {"eps": "1/0"}),
        ("coin-verify", {"delta": "one/8"}),
    ])
    def test_malformed_inputs_raise_value_error(self, name, params):
        with pytest.raises(ValueError):
            run(ExperimentSpec(name, params))

    def test_closure_builds_candidate_set_once(self, monkeypatch):
        # closure enumerates the candidate set once; the experiment's
        # E-inside-closure check decides candidacy from the weights
        calls = []
        masks = Candidates.masks

        def counted(self, *args, **kwargs):
            calls.append(1)
            return masks(self, *args, **kwargs)

        monkeypatch.setattr(Candidates, "masks", counted)
        for cand in ("full", "2,3,4"):
            calls.clear()
            rep = run(ExperimentSpec("closure", {
                "n": 8, "p": 3, "D": 2, "e_slices": "2,4", "cand": cand}))
            assert rep.all_passed
            assert len(calls) == 1

    def test_frontier_builds_each_rung_once(self, monkeypatch):
        # part (a) takes all gaps of one slice in a row and slices k and
        # n - k one after the other on slice min(k, n - k)'s ladder, so every
        # (p, n, k, d) rung of the run is built once and none has k > n/2;
        # parts (b) and (c) reach only slices of n = 7 and 8, above this
        # sweep range.  Each gap q is certified by a separator and read at
        # the one rung below it, so part (a) builds exactly those rungs
        built = []

        class Recording(EvaluationMatrix):
            def __init__(self, field, n, degree, points):
                super().__init__(field, n, degree, points)
                built.append((field.p, n, int(self.points[0]).bit_count(),
                              degree))

        monkeypatch.setattr(distinguish, "EvaluationMatrix", Recording)
        distinguish._ladder.clear()
        rep = run(ExperimentSpec("robust-frontier", {
            "n_min": 2, "n_max": 6, "candidates": 2}))
        assert rep.all_passed
        assert len(built) == len(set(built))
        assert all(2 * k <= n for _, n, k, _ in built)

        def gaps(p, m):
            q = 1
            while q <= m:
                yield q
                q *= p

        assert {b for b in built if b[1] <= 6} == {
            (p, n, m, q - 1) for p in (2, 3) for n in range(2, 7)
            for m in range(1, n // 2 + 1) for q in gaps(p, m)}

    def test_frontier_eliminates_each_ladder_once(self, monkeypatch):
        # part (a) takes each slice's largest gap first, and the exact
        # ascents request the rung at that gap first, so from_rows runs once
        # per (p, n, min(k, n - k)) ladder, at the ladder's first request,
        # which is its top; parts (b) and (c) reach only n = 7 and 8
        requests, calls = [], []  # ((p, n, k), d, from_rows calls made)
        provider = distinguish._slice_oracle
        from_rows = RankOracle.from_rows.__func__

        def request(f, n, k, d):
            start = len(calls)
            out = provider(f, n, k, d)
            requests.append(((f.p, n, k), d, len(calls) - start))
            return out

        monkeypatch.setattr(distinguish, "_slice_oracle", request)
        monkeypatch.setattr(RankOracle, "from_rows", classmethod(
            lambda cls, f, rows: calls.append(1) or from_rows(cls, f, rows)))
        distinguish._ladder.clear()
        rep = run(ExperimentSpec("robust-frontier", {
            "n_min": 2, "n_max": 6, "candidates": 2}))
        assert rep.all_passed
        swept = [r for r in requests if r[0][1] <= 6]
        first = {}
        for key, d, _ in swept:
            first.setdefault(key, d)
        assert set(first) == {(p, n, m) for p in (2, 3) for n in range(2, 7)
                              for m in range(1, n // 2 + 1)}
        assert [(key, d, made) for key, d, made in swept if made] == [
            (key, d, 1) for key, d in first.items()]
        assert all(d <= first[key] for key, d, _ in swept)

    def test_frontier_candidates_compare_once_per_key(self, monkeypatch):
        # part (c)'s candidates are symmetric, so a report is a function of
        # (psi_low, psi_mid, degree): midslice_consistency runs once per
        # distinct key, and the counts equal a per-candidate loop's.  At
        # (40000, 2048), ell = t^2/n = 104.9 puts the eps window inside
        # [2^(-n/100), e^(-200)], so some candidates satisfy the hypotheses
        keys = []
        check = experiments.midslice_consistency

        def recorded(n, t, p, witness, caps):
            rep = check(n, t, p, witness, caps)
            keys.append((rep.psi_low, rep.psi_mid, rep.degree))
            return rep

        monkeypatch.setattr(experiments, "midslice_consistency", recorded)
        cases = [(64, 8, 6000, seed) for seed in range(13, 21)]
        for n, t, count, seed in cases + [(40000, 2048, 10, 13)]:
            keys.clear()
            hits, violations = experiments._candidate_scan(
                n, t, count, seed, DEFAULT_CAPS)
            ref_hits, ref_violations, ref_keys = _candidate_loop(
                n, t, count, seed)
            assert len(keys) == len(set(keys)) and set(keys) == ref_keys
            assert (hits, violations) == (ref_hits, ref_violations)
        assert hits > 0

    @pytest.mark.parametrize("n, t, seed", [(40, 8, 13), (100, 8, 14),
                                            (40, 16, 15)])
    def test_frontier_candidate_keys_read_bits_past_t(self, monkeypatch, n,
                                                      t, seed):
        # C(w, j) is odd for a j with t < j < 2t here (j = 12, 10, 20 is a
        # binary submask of w = 12, 42, 20), so a parity that read only bits
        # 0..t would merge candidates whose keys differ
        keys = []
        check = experiments.midslice_consistency

        def recorded(n, t, p, witness, caps):
            rep = check(n, t, p, witness, caps)
            keys.append((rep.psi_low, rep.psi_mid, rep.degree))
            return rep

        monkeypatch.setattr(experiments, "midslice_consistency", recorded)
        counts = experiments._candidate_scan(n, t, 2000, seed, DEFAULT_CAPS)
        ref_hits, ref_violations, ref_keys = _candidate_loop(n, t, 2000, seed)
        assert len(keys) == len(set(keys)) and set(keys) == ref_keys
        assert counts == (ref_hits, ref_violations)

    def test_frontier_candidates_count_every_candidate(self, monkeypatch):
        # a report whose hypotheses hold and that is inconsistent counts once
        # per candidate: the 6,000 candidates hold fewer distinct masks
        monkeypatch.setattr(
            experiments, "midslice_consistency",
            lambda n, t, p, witness, caps: SimpleNamespace(
                hypotheses_hold=True, consistent=False))
        assert experiments._candidate_scan(
            64, 8, 6000, 13, DEFAULT_CAPS) == (6000, 6000)


def _candidate_loop(n, t, count, seed):
    """Part (c) of robust-frontier one candidate at a time, as it ran before
    the scan: (hypothesis hits, violations, keys (psi_low, psi_mid,
    degree) seen), the reference for ``experiments._candidate_scan``."""
    field = PrimeField(2)
    rng = random.Random(seed)
    hits = violations = 0
    keys = set()
    for idx in range(count):
        if idx == 0:
            cand = lucas_poly(n, n // 2 - t, t, 2)
        elif idx == 1:
            cand = periodic_exact_poly(
                n, t, [1 if r == (n // 2) % t else 0 for r in range(t)],
                field)
        else:
            deg = rng.randrange(0, 2 * t + 1)
            coeffs = [rng.randrange(2) for _ in range(deg + 1)]
            cand = MultilinearPoly.from_sym(n, field, coeffs)
        rep = distinguish.midslice_consistency(n, t, 2, cand)
        hits += rep.hypotheses_hold
        violations += not rep.consistent
        keys.add((rep.psi_low, rep.psi_mid, rep.degree))
    return hits, violations, keys


def _stringlemma_loop(maxlen):
    """The commuting-words check one string and one cut at a time, with the
    string reference's KMP root: (commuting splits, violations)."""
    commuting = violations = 0
    for L in range(2, maxlen + 1):
        for x in range(1 << L):
            w = format(x, f"0{L}b")
            for cut in range(1, L):
                if w == w[cut:] + w[:cut]:
                    commuting += 1
                    _, k = ref.primitive_root(w)
                    if k < 2:
                        violations += 1
    return commuting, violations


class TestStringLemma:
    @pytest.mark.parametrize("maxlen", [1, 2, 5, 12])
    def test_scan_matches_the_string_loop(self, maxlen):
        rep = run(ExperimentSpec("stringlemma", {"maxlen": maxlen}))
        assert rep.checks[0].details == (
            "%d commuting splits checked, %d violations"
            % _stringlemma_loop(maxlen))

    def test_every_commuting_split_is_checked(self, monkeypatch):
        # a root that never reports a proper power makes each commuting
        # split a violation, so primitive_root ran on every one of them
        monkeypatch.setattr(experiments, "primitive_root", lambda w: (w, 1))
        rep = run(ExperimentSpec("stringlemma", {"maxlen": 12}))
        commuting, _ = _stringlemma_loop(12)
        assert commuting > 0 and not rep.all_passed
        assert rep.checks[0].details == (
            f"{commuting} commuting splits checked, {commuting} violations")

    def test_too_many_words_raise(self):
        caps = replace(DEFAULT_CAPS, max_slice_points=1 << 10)
        assert run(ExperimentSpec("stringlemma", {"maxlen": 10}),
                   caps).all_passed
        with pytest.raises(CapExceeded, match="words of length 11"):
            run(ExperimentSpec("stringlemma", {"maxlen": 11}), caps)


def test_no_report_imports_numpy_random_or_numpy_ma():
    # numpy loads numpy.random (and secrets, hmac, base64) on first use, and
    # numpy.ma inside np.unique without an index or count output, and so
    # inside np.isin (numpy 2.4), in every fresh interpreter that calls them
    code = (
        "import sys\n"
        "from slicedeg.experiments import ExperimentSpec, run\n"
        "run(ExperimentSpec('hegedus-sweep', {'p': 2, 'n_min': 6, 'n_max': 8}))\n"
        "run(ExperimentSpec('mindeg', {'n': 8, 'p': 2, 'k': 3, 'K': 5}))\n"
        "for cand in ('full', '2,4'):\n"
        "    run(ExperimentSpec('closure', {'n': 8, 'p': 3, 'D': 2,\n"
        "                                   'e_slices': '3,4', 'cand': cand}))\n"
        "run(ExperimentSpec('robust-frontier', {'n_min': 2, 'n_max': 3,\n"
        "                                       'candidates': 300}))\n"
        "run(ExperimentSpec('stringlemma', {'maxlen': 8}))\n"
        "print('numpy.random' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False False"


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slicedeg.cli", *args],
        capture_output=True, text=True, timeout=300)


class TestCli:
    def test_list_experiments(self):
        res = _cli("list-experiments")
        assert res.returncode == 0
        names = {e["name"] for e in json.loads(res.stdout)}
        assert REQUIRED_EXPERIMENTS <= names

    def test_run_and_exit_zero(self):
        res = _cli("mindeg", "--n", "8", "--p", "2", "--k", "3", "--K", "5")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["all_passed"] is True

    def test_failing_check_exits_nonzero(self):
        res = _cli("claimA1", "--samples", "300", "--tol", "0.0")
        assert res.returncode == 1

    @pytest.mark.parametrize("args", [
        ("symfun-analyze", "--family", "thr"),  # ValueError
        ("mindeg", "--n", "12", "--max-slice-points", "10"),  # CapExceeded
    ])
    def test_malformed_input_is_a_usage_error(self, args):
        # exit 2 as for a malformed flag, not 1, which means a check failed
        res = _cli(*args)
        assert res.returncode == 2 and "Traceback" not in res.stderr
        errors = [line for line in res.stderr.splitlines() if "error:" in line]
        assert errors == res.stderr.splitlines()[-1:]

    def test_csv_format(self):
        res = _cli("mindeg", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "check,passed,details"

    def test_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        res = _cli("stringlemma", "--maxlen", "8", "--out", str(path))
        assert res.returncode == 0
        assert json.loads(path.read_text())["all_passed"] is True

    def test_cap_overrides_reach_caps(self, monkeypatch):
        seen = []

        def fake_run(spec, caps):
            seen.append(caps)
            return run(spec, caps=caps)

        monkeypatch.setattr(cli, "run", fake_run)
        assert cli.main(["stringlemma", "--maxlen", "6",
                         "--max-slice-points", "1234",
                         "--max-terms", "5678"]) == 0
        assert seen == [replace(DEFAULT_CAPS, max_slice_points=1234,
                                max_terms=5678)]

    def test_seed_changes_sampled_run(self):
        a = _cli("claimA1", "--samples", "300", "--seed", "1")
        b = _cli("claimA1", "--samples", "300", "--seed", "2")
        assert json.loads(a.stdout)["spec"]["seed"] == 1
        assert json.loads(b.stdout)["spec"]["seed"] == 2
