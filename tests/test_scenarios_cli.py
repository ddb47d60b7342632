"""Scenario schema validation, presets, and the command-line surface."""

import ast
import csv
import dataclasses
import importlib
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import aoi_outage
from aoi_outage import burstiness, cli
from aoi_outage.burstiness import burst_stats_many
from aoi_outage.optimizer import PenaltyKind, min_error_policy, naive_policy, optimize
from aoi_outage.reference import PUBLISHED_OUTAGE_RATES
from aoi_outage.scenarios import ConfigError, PRESETS, config_hash, load_scenario

DATA = Path(__file__).resolve().parent / "data"

# the package re-exports the function simulate under the module's name
simulate_module = importlib.import_module("aoi_outage.simulate")

#: The seeded columns of burst-convergence, the ones its golden file records.
CONVERGENCE_MEASURED_COLUMNS = (
    "policy_id", "sim_seed", "checkpoint", "measured_p_out", "measured_mean_burst", "measured_mean_ioi",
)

# A fresh interpreter in which every scipy import fails: it imports the
# package this suite tests, runs one CLI command, and reports the exit code
# and every scipy module that was loaded anyway.
NO_SCIPY_EVALUATE = """
import json, sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
import aoi_outage
from aoi_outage import cli
code = cli.main(["evaluate", "--config", "scenario_b", "--policy", "min-error", "--out", sys.argv[2]])
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"code": code, "scipy_modules": loaded}))
"""


# A fresh interpreter in which numpy's LAPACK solvers raise: it runs the two
# grid commands through cli.main and reports their exit codes and whether
# numpy.ma was imported.
NO_LAPACK_GRIDS = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
def refuse(*args, **kwargs):
    raise AssertionError("called a LAPACK solver")
np.linalg.solve = np.linalg.lstsq = np.linalg.inv = refuse
from aoi_outage import cli
codes = [
    cli.main(["burst-convergence", "--config", "scenario_b", "--n-policies", "3", "--out", sys.argv[2]]),
    cli.main(["reproduce-table2", "--reps", "1", "--periods", "10", "--out", sys.argv[3]]),
]
print(json.dumps({"codes": codes, "numpy_ma": "numpy.ma" in sys.modules}))
"""

#: Names through which numpy reaches BLAS or LAPACK.
BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def read_strict_json(path):
    """Parse a report, refusing the NaN/Infinity tokens strict JSON lacks."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


# list entries that are not numbers of the right kind: (mutation, message pattern)
BAD_LIST_ENTRIES = [
    pytest.param(lambda d: d.update(alpha=[None, 0.4]), r"alpha\[0\] must be a number",
                 id="alpha-null"),
    pytest.param(lambda d: d.update(alpha=["0.6", 0.4]), r"alpha\[0\] must be a number",
                 id="alpha-string"),
    pytest.param(lambda d: d["state"].update(initial=[1, None, 0, 0]),
                 r"state\.initial\[1\] must be a number", id="initial-null"),
    pytest.param(lambda d: d["state"].update(initial=[1.7, 1, 0, 0]),
                 r"state\.initial\[0\] must be an integer", id="initial-fraction"),
]

# non-finite numbers, which json.loads accepts as NaN and Infinity
NON_FINITE_VALUES = [
    pytest.param(lambda d: d["simulation"].update(reps=float("inf")),
                 r"simulation\.reps must be a finite number, got inf\n", id="reps-inf"),
    pytest.param(lambda d: d["blocklength"].update(N=float("inf")),
                 r"blocklength\.N must be a finite number, got inf\n", id="N-inf"),
    pytest.param(lambda d: d["state"].update(a_max=float("nan")),
                 r"state\.a_max must be a finite number, got nan\n", id="a_max-nan"),
    pytest.param(lambda d: d["simulation"].update(periods=float("nan")),
                 r"simulation\.periods must be a finite number, got nan\n", id="periods-nan"),
    pytest.param(lambda d: d.update(alpha=[float("nan"), 0.4]),
                 r"alpha\[0\] must be a finite number, got nan\n", id="alpha-nan"),
    pytest.param(lambda d: d["snr_db"].update(good=float("-inf")),
                 r"snr_db\.good must be a finite number, got -inf\n", id="snr-good-minus-inf"),
]

# finite numbers too large for a float64 or an int64, or out of range on the linear SNR scale;
# each fails before any allocation
OVERFLOWING_VALUES = [
    pytest.param(lambda d: d["snr_db"].update(good=3100),
                 r"snr_db\.good is out of range: 3100 dB overflows a 64-bit float on the linear scale\n",
                 id="snr-good-linear-overflow"),
    pytest.param(lambda d: d.update(alpha=[0.6, 10**400]),
                 r"alpha\[1\] is out of range of a 64-bit float\n", id="alpha-401-digits"),
    pytest.param(lambda d: d["snr_db"].update(bad=-10**400),
                 r"snr_db\.bad is out of range of a 64-bit float\n", id="snr-bad-401-digits"),
    pytest.param(lambda d: d["blocklength"].update(N=2**63),
                 r"blocklength\.N is out of range of a 64-bit int\n", id="N-2**63"),
    pytest.param(lambda d: d["blocklength"].update(N=1e300),
                 r"blocklength\.N is out of range of a 64-bit int\n", id="N-1e300"),
    pytest.param(lambda d: d["snr_db"].update(bad=-4000),
                 r"snr_db\.bad is out of range: -4000 dB underflows a 64-bit float on the linear scale\n",
                 id="snr-bad-linear-underflow"),
    pytest.param(lambda d: d["snr_db"].update(bad=-3300),
                 r"snr_db\.bad is out of range: -3300 dB underflows a 64-bit float on the linear scale\n",
                 id="snr-bad-linear-underflow-3300"),
    pytest.param(lambda d: d["snr_db"].update(good=-3400, bad=-4000),
                 r"snr_db\.good is out of range: -3400 dB underflows a 64-bit float on the linear scale\n",
                 id="snr-both-linear-underflow"),
    pytest.param(lambda d: d["snr_db"].update(bad=-200),
                 r"snr_db\.bad is out of range: -200 dB is so low that 1 \+ SNR rounds to 1 "
                 r"and the channel dispersion vanishes\n", id="snr-bad-dispersion-vanishes"),
]

# initial states outside the preset's state space (a_max = 5)
OUT_OF_RANGE_INITIAL = [
    pytest.param(lambda d: d["state"].update(initial=[6, 1, 0, 0]), r"ages must lie in \[1, 5\]",
                 id="initial-age-above-a_max"),
    pytest.param(lambda d: d["state"].update(initial=[0, 1, 0, 0]), r"ages must lie in \[1, 5\]",
                 id="initial-age-zero"),
    pytest.param(lambda d: d["state"].update(initial=[1, 1, 2, 0]), r"channel bits must be 0 or 1",
                 id="initial-bit-two"),
]


class TestScenarios:
    def test_presets_load(self):
        for name, alphas in (
            ("scenario_a", (0.9, 0.7)),
            ("scenario_b", (0.6, 0.4)),
            ("scenario_c", (0.9, 0.2)),
        ):
            sc = load_scenario(name)
            assert sc.name == name
            assert (sc.system.profile.alpha_1, sc.system.profile.alpha_2) == alphas
            assert sc.system.link.blocklength_total == 1000
            assert sc.system.link.payload_bits == 16
            assert sc.system.a_max == 5
            assert sc.system.a_out == 3
            assert sc.system.initial == (1, 1, 0, 0)
            assert sc.system.initial_position == 0
            assert sc.optimizer.seeds == 10
            assert sc.simulation.reps == 100
            assert sc.simulation.periods == 2500

    def test_file_round_trip(self, tmp_path):
        path = write_config(tmp_path, PRESETS["scenario_b"])
        sc = load_scenario(path)
        assert sc.system == load_scenario("scenario_b").system
        assert sc.config_hash == load_scenario("scenario_b").config_hash

    def test_hash_is_canonical(self):
        doc = json.loads(json.dumps(PRESETS["scenario_a"]))
        shuffled = dict(reversed(list(doc.items())))
        assert config_hash(doc) == config_hash(shuffled)
        changed = json.loads(json.dumps(doc))
        changed["alpha"] = [0.9, 0.71]
        assert config_hash(changed) != config_hash(doc)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.update(alphaa=[0.5, 0.5]), "alphaa"),
            (lambda d: d["snr_db"].update(medium=-13.0), "medium"),
            (lambda d: d["blocklength"].pop("d"), "d"),
            (lambda d: d["state"].update(a_out=9), "a_out"),
            (lambda d: d["optimizer"].update(seeds=0), "seeds"),
            (lambda d: d["blocklength"].update(N=10.5), "N"),
            (lambda d: d.update(schema_version=2), "schema_version"),
            (lambda d: d.update(schema_version=True), r"unsupported schema_version True \(expected 1\)"),
            (lambda d: d["state"].update(initial=[1, 1]), "initial"),
            (lambda d: d["simulation"].update(master_seed=-1), "master_seed"),
            (lambda d: d["simulation"].update(reps=0), "simulation.reps must be >= 1, got 0"),
            (lambda d: d["simulation"].update(periods=0), "simulation.periods must be >= 1, got 0"),
            (lambda d: d["optimizer"].update(max_iter=0), "optimizer.max_iter must be >= 1, got 0"),
            (lambda d: d["optimizer"].update(seeds=0), "optimizer.seeds must be >= 1, got 0"),
        ]
        + BAD_LIST_ENTRIES
        + OUT_OF_RANGE_INITIAL,
    )
    def test_rejects_malformed(self, mutate, fragment):
        doc = json.loads(json.dumps(PRESETS["scenario_a"]))
        mutate(doc)
        with pytest.raises(ConfigError, match=fragment):
            load_scenario(doc)

    @pytest.mark.parametrize("value", [0.0, -1e-5, float("nan")], ids=["zero", "negative", "nan"])
    def test_unread_epsilon_cvg_loads_with_a_warning(self, value):
        doc = json.loads(json.dumps(PRESETS["scenario_a"]))
        doc["optimizer"]["epsilon_cvg"] = value
        with pytest.warns(UserWarning, match=r"optimizer\.epsilon_cvg is not read") as caught:
            sc = load_scenario(doc)
        assert len(caught) == 1
        want = load_scenario(PRESETS["scenario_a"])
        assert sc.config_hash == config_hash(doc) != want.config_hash
        assert dataclasses.replace(sc, config_hash=want.config_hash) == want

    def test_missing_source(self):
        with pytest.raises(ConfigError, match="preset"):
            load_scenario("scenario_z")

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(str(path))


class TestCliEvaluate:
    def test_naive_scenario_b(self, tmp_path, capsys):
        out = tmp_path / "eval.json"
        assert run_cli(["evaluate", "--config", "scenario_b", "--policy", "naive",
                        "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # regression pin for the analytic stationary outage rate
        assert doc["analytic_p_out"] == pytest.approx(0.004207229583839432, rel=1e-9)
        assert doc["metadata"]["scenario"] == "scenario_b"
        assert doc["metadata"]["duration_convention"] == "outage-periods"
        assert doc["burst"]["defined"] is True
        assert doc["burst"]["p_out"] == doc["analytic_p_out"]

    def test_policy_file_round_trip(self, tmp_path):
        policy = {"policy_lambda": [500] * 100, "index_base": 1}
        pol_path = tmp_path / "pol.json"
        pol_path.write_text(json.dumps(policy))
        out = tmp_path / "eval.json"
        code = run_cli(["evaluate", "--config", "scenario_b", "--policy", "file",
                        "--policy-file", str(pol_path), "--out", str(out)])
        assert code == 0
        naive_out = tmp_path / "naive.json"
        run_cli(["evaluate", "--config", "scenario_b", "--policy", "naive",
                 "--out", str(naive_out)])
        assert json.loads(out.read_text())["analytic_p_out"] == json.loads(
            naive_out.read_text()
        )["analytic_p_out"]

    def test_starved_device_is_undefined(self, tmp_path):
        # allocation 0 everywhere: device 1 never transmits, so every age pair
        # with its age below the cap is transient and the chain ends in outage
        pol_path = tmp_path / "starve.json"
        pol_path.write_text(json.dumps({"policy_lambda": [0] * 100}))
        out = tmp_path / "eval.json"
        assert run_cli(["evaluate", "--config", "scenario_b", "--policy", "file",
                        "--policy-file", str(pol_path), "--out", str(out)]) == 0
        doc = read_strict_json(out)
        assert doc["burst"]["defined"] is False
        assert doc["analytic_p_out"] == pytest.approx(1.0, abs=1e-12)
        for key in ("mean_outage_duration", "mean_ioi", "duration_pmf", "truncation_residual"):
            assert doc["burst"][key] is None

    @pytest.mark.parametrize("document,message", [
        ({"policy_lambda": [1500] * 100}, "policy entries must lie in [0, 1000]"),
        ({"policy_lambda": [float("inf")] * 100}, "policy entries must lie in [0, 1000]"),
        ({"policy_lambda": [1e300] * 100}, "policy entries must lie in [0, 1000]"),
        ({"policy_lambda": [10**30] * 100}, "policy entries must lie in [0, 1000]"),
        ({"policy_lambda": [-10**30] + [0] * 99}, "policy entries must lie in [0, 1000]"),
        ({"best": {}}, "policy file must carry a 'policy_lambda' array"),
        ({"best": 5}, "policy file must carry a 'policy_lambda' array"),
        ({"policy_lambda": ["a"] * 100}, "policy entries must be integers"),
        ({"policy_lambda": [None] * 100}, "policy entries must be integers"),
    ], ids=["out-of-range", "infinity", "1e300", "1e30-int", "minus-1e30-int", "best-without-policy",
            "best-not-an-object", "strings", "nulls"])
    def test_bad_policy_file_exits_one(self, tmp_path, capsys, document, message):
        # warnings are errors here: no entry may reach numpy's cast warning
        pol_path = tmp_path / "bad.json"
        pol_path.write_text(json.dumps(document))
        out = tmp_path / "eval.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["evaluate", "--config", "scenario_b", "--policy", "file",
                            "--policy-file", str(pol_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_malformed_config_names_key(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PRESETS["scenario_a"]))
        doc["alphaa"] = [0.5, 0.5]
        del doc["alpha"]
        path = write_config(tmp_path, doc)
        code = run_cli(["evaluate", "--config", path, "--policy", "naive",
                        "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "alphaa" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate,fragment",
                             BAD_LIST_ENTRIES + OUT_OF_RANGE_INITIAL + NON_FINITE_VALUES + OVERFLOWING_VALUES)
    def test_bad_list_entry_exits_one(self, tmp_path, capsys, mutate, fragment):
        doc = json.loads(json.dumps(PRESETS["scenario_a"]))
        mutate(doc)
        code = run_cli(["evaluate", "--config", write_config(tmp_path, doc), "--policy", "naive",
                        "--out", str(tmp_path / "x.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert re.match(f"error: {fragment}", err)
        assert "Traceback" not in err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "naive"],
        ["optimize", "--penalty", "binary"],
        ["simulate", "--policy", "naive", "--reps", "1", "--periods", "10"],
        ["burst-convergence", "--n-policies", "1"],
    ], ids=lambda argv: argv[0])
    def test_negative_master_seed_exits_one(self, tmp_path, capsys, argv):
        doc = json.loads(json.dumps(PRESETS["scenario_b"]))
        doc["simulation"]["master_seed"] = -1
        out = tmp_path / "out"
        code = run_cli(argv + ["--config", write_config(tmp_path, doc), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: simulation.master_seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (["optimize", "--config", "scenario_a", "--penalty", "binary", "--out", "{missing}"], "missing"),
        (["evaluate", "--config", "scenario_b", "--policy", "naive", "--out", "{missing}"], "missing"),
        (["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", "1", "--periods", "10",
          "--out", "{missing}"], "missing"),
        (["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", "1", "--periods", "10",
          "--out", "{good}", "--csv", "{missing}"], "missing"),
        (["reproduce-table2", "--reps", "1", "--periods", "5", "--out", "{missing}"], "missing"),
        (["burst-convergence", "--config", "scenario_b", "--n-policies", "1", "--out", "{missing}"], "missing"),
        (["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", "1", "--periods", "10",
          "--out", "{good}", "--csv", "{dir}"], "dir"),
        (["reproduce-table2", "--reps", "1", "--periods", "5", "--out", "{dir}"], "dir"),
        (["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", "1", "--periods", "10",
          "--out", "{good}", "--csv", "{good_alias}"], "same"),
    ], ids=["optimize", "evaluate", "simulate", "simulate-csv", "reproduce-table2", "burst-convergence",
            "simulate-csv-is-directory", "reproduce-table2-is-directory", "simulate-out-and-csv-one-path"])
    def test_missing_output_directory_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch, argv, error):
        def no_work(*args, **kwargs):
            raise AssertionError("worked before checking the output paths")

        for module in (cli, burstiness, simulate_module):
            monkeypatch.setattr(module, "burst_stats_many", no_work)
        for module in (cli, simulate_module):
            monkeypatch.setattr(module, "run_repetitions_many", no_work)
        monkeypatch.setattr(cli, "load_scenario", no_work)
        missing = tmp_path / "missing" / "out"
        adir = tmp_path / "adir"
        adir.mkdir()
        good = tmp_path / "out.json"
        paths = {"missing": missing, "dir": adir, "good": good, "good_alias": adir / ".." / "out.json"}
        code = run_cli([arg.format(**paths) for arg in argv])
        assert code == 1
        assert capsys.readouterr().err == {
            "missing": f"error: directory of output path {missing} does not exist\n",
            "dir": f"error: output path {adir} is a directory\n",
            "same": f"error: --out and --csv are the same path {paths['good_alias']}\n",
        }[error]
        assert list(tmp_path.iterdir()) == [adir]
        assert list(adir.iterdir()) == []

    def test_missing_policy_file_flag(self, tmp_path, capsys):
        code = run_cli(["evaluate", "--config", "scenario_b", "--policy", "file",
                        "--out", str(tmp_path / "x.json")])
        assert code == 1

    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_policy_file_without_policy_file_choice(self, tmp_path, capsys, monkeypatch, command):
        # a --policy-file that --policy would not read is refused before any work
        def no_work(*args):
            raise AssertionError(f"{command} did work before checking its flags")

        monkeypatch.setattr(cli, "load_scenario", no_work)
        out = tmp_path / "x.json"
        code = run_cli([command, "--config", "scenario_b", "--policy", "naive",
                        "--policy-file", str(tmp_path / "missing.json"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: --policy-file is read only with --policy file, got --policy naive\n"
        assert not out.exists()


class TestCliOptimize:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        small = json.loads(json.dumps(PRESETS["scenario_b"]))
        small["blocklength"]["N"] = 60
        small["state"]["a_max"] = 2
        small["state"]["a_out"] = 1
        path = write_config(tmp_path, small)
        for out in (a, b):
            code = run_cli(["optimize", "--config", path, "--penalty", "exp-peak-aoi",
                            "--out", str(out)])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        doc = read_strict_json(a)
        assert list(doc) == ["metadata", "penalty", "best"]
        assert doc["penalty"] == "exp-peak-aoi"
        report = optimize(load_scenario(path).system, PenaltyKind.EXP_MEAN_PEAK_AOI, 0)
        assert doc["best"]["analytic_p_out"] == report.best_p_out
        assert doc["best"]["policy_lambda"] == report.final_policy.tolist()
        assert doc["best"]["index_base"] == 1
        assert len(doc["best"]["policy_lambda"]) == 16

    def test_removed_flags_are_usage_errors(self, tmp_path):
        for flag in ("--seeds", "--max-iter"):
            code = run_cli(["optimize", "--config", "scenario_b", "--penalty", "binary",
                            flag, "1", "--out", str(tmp_path / "x.json")])
            assert code == 1

    def test_unknown_penalty(self, tmp_path, capsys):
        code = run_cli(["optimize", "--config", "scenario_b", "--penalty", "bogus",
                        "--out", str(tmp_path / "x.json")])
        assert code == 1


class TestCliSimulate:
    def test_json_and_csv(self, tmp_path):
        out = tmp_path / "sim.json"
        table = tmp_path / "sim.csv"
        code = run_cli(["simulate", "--config", "scenario_b", "--policy", "naive",
                        "--reps", "3", "--periods", "400",
                        "--out", str(out), "--csv", str(table)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reps"] == 3 and doc["periods"] == 400
        assert len(doc["per_rep_outage_rate"]) == 3
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0].keys()) == [
            "rep", "seed", "outage_rate", "n_bursts", "mean_burst", "n_iois", "mean_ioi",
        ]

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            assert run_cli(["simulate", "--config", "scenario_b", "--policy", "min-error",
                            "--reps", "2", "--periods", "300", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_normalized_errors_compare_with_the_analytic_block(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--config", "scenario_b", "--policy", "naive",
                        "--reps", "5", "--periods", "2000", "--out", str(out)]) == 0
        doc = read_strict_json(out)
        analytic = doc["analytic"]
        for name, measured, predicted in (
            ("p_out", doc["outage_rate_mean"], analytic["p_out"]),
            ("mean_burst", doc["mean_burst"], analytic["mean_outage_duration"]),
            ("mean_ioi", doc["mean_ioi"], analytic["mean_ioi"]),
        ):
            assert doc["normalized_errors"][name] == abs(measured - predicted) / predicted

    def test_normalized_errors_are_null_for_an_undefined_chain(self, tmp_path):
        # the starved chain has p_out 1 but no burst start, so nothing compares
        pol_path = tmp_path / "starve.json"
        pol_path.write_text(json.dumps({"policy_lambda": [0] * 100}))
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--config", "scenario_b", "--policy", "file",
                        "--policy-file", str(pol_path), "--reps", "2", "--periods", "200",
                        "--out", str(out)]) == 0
        doc = read_strict_json(out)
        assert doc["analytic"]["defined"] is False and doc["outage_rate_mean"] > 0.0
        assert doc["normalized_errors"] == {"p_out": None, "mean_burst": None, "mean_ioi": None}

    def test_undefined_statistics_are_null(self, tmp_path):
        # 2 x 200 periods of min-error on scenario_b see no complete burst
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--config", "scenario_b", "--policy", "min-error",
                        "--reps", "2", "--periods", "200", "--out", str(out)]) == 0
        doc = read_strict_json(out)
        assert doc["n_bursts"] == 0
        assert doc["mean_burst"] is None
        assert doc["normalized_errors"]["mean_burst"] is None

    def test_undefined_statistics_are_empty_csv_cells(self, tmp_path):
        # the CSV leaves the same undefined statistics empty, with no nan token
        table = tmp_path / "sim.csv"
        assert run_cli(["simulate", "--config", "scenario_b", "--policy", "min-error",
                        "--reps", "2", "--periods", "200", "--out", str(tmp_path / "sim.json"),
                        "--csv", str(table)]) == 0
        assert "nan" not in table.read_text().lower()
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n_bursts"], r["mean_burst"], r["n_iois"], r["mean_ioi"]) for r in rows] == [
            ("0", "", "0", "")
        ] * 2


class TestCliGrids:
    def test_reproduce_table2_smoke(self, tmp_path):
        out = tmp_path / "table2.csv"
        code = run_cli(["reproduce-table2", "--seeds", "1", "--reps", "2",
                        "--periods", "300", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 18
        for row in rows:
            key = (row["scenario"], row["policy"])
            assert float(row["published_p_out"]) == PUBLISHED_OUTAGE_RATES[key]
            assert float(row["analytic_p_out"]) >= 0.0

    def test_reproduce_table2_matches_golden_csv(self, tmp_path):
        # recorded from `reproduce-table2 --reps 3 --periods 300` when each
        # policy's repetitions were still simulated in a batch of their own;
        # analytic_p_out re-recorded alone when the stationary solve became GTH
        out = tmp_path / "table2.csv"
        assert run_cli(["reproduce-table2", "--reps", "3", "--periods", "300", "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "table2_reps3_periods300.csv").read_bytes()

    def test_reproduce_table2_analytic_column_is_each_policys_solve(self, tmp_path):
        # each penalty row reads its optimized policy's outage rate and each
        # benchmark row its policy's, whatever the simulation size
        out = tmp_path / "table2.csv"
        assert run_cli(["reproduce-table2", "--reps", "1", "--periods", "10", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            table = {(r["scenario"], r["policy"]): r["analytic_p_out"] for r in csv.DictReader(fh)}
        for preset in ("scenario_a", "scenario_b", "scenario_c"):
            cfg = load_scenario(preset).system
            for kind in PenaltyKind:
                assert table[preset, kind.value] == repr(optimize(cfg, kind, 0).best_p_out)
            benchmarks = {"naive": naive_policy(cfg), "min-error": min_error_policy(cfg)}
            for name, stats in zip(benchmarks, burst_stats_many(cfg, list(benchmarks.values()))):
                assert table[preset, name] == repr(stats.p_out)

    def test_reproduce_table2_measures_no_bursts(self, tmp_path, monkeypatch):
        # the table prints outage rates only, so no run is split into bursts
        argv = ["reproduce-table2", "--reps", "2", "--periods", "50", "--out"]
        plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
        assert run_cli(argv + [str(plain)]) == 0

        def no_bursts(seq):
            raise AssertionError("reproduce-table2 measured bursts")

        monkeypatch.setattr(simulate_module, "measure_bursts", no_bursts)
        assert run_cli(argv + [str(patched)]) == 0
        assert patched.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["reproduce-table2", "--reps", "2", "--periods", "50"],
        ["burst-convergence", "--config", "scenario_b", "--n-policies", "5"],
    ], ids=["reproduce-table2", "burst-convergence"])
    def test_grid_walks_no_pmf(self, tmp_path, monkeypatch, argv):
        # the grids print no burst-length pmf, so no record walks one
        plain, patched = tmp_path / "plain.csv", tmp_path / "patched.csv"
        assert run_cli(argv + ["--out", str(plain)]) == 0

        def no_walk(*args):
            raise AssertionError(f"{argv[0]} walked a burst-length pmf")

        monkeypatch.setattr(burstiness, "_duration_pmf", no_walk)
        assert run_cli(argv + ["--out", str(patched)]) == 0
        assert patched.read_bytes() == plain.read_bytes()

    def test_burst_convergence_matches_golden_measurements(self, tmp_path):
        # recorded from `burst-convergence --config scenario_b --n-policies 5`
        # before each run's burst statistics were derived when read, and cut
        # to the seeded columns
        out = tmp_path / "cvg.csv"
        assert run_cli(["burst-convergence", "--config", "scenario_b", "--n-policies", "5",
                        "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        keep = [rows[0].index(column) for column in CONVERGENCE_MEASURED_COLUMNS]
        measured = "".join(",".join(row[i] for i in keep) + "\n" for row in rows)
        assert measured.encode() == (DATA / "burst_convergence_scenario_b_n5_measured.csv").read_bytes()

    def test_simulate_matches_golden_output(self, tmp_path):
        # recorded from `simulate --config scenario_c --policy naive --reps 4
        # --periods 2000` before the lockstep step packed both failure flags
        # into one compare; every repetition has a complete burst and interval
        # so the golden pins the simulated means. The analytic block and the
        # normalized errors are left out: the golden pins the seeded outputs.
        stem = "simulate_scenario_c_naive_reps4_periods2000"
        report, table = tmp_path / "sim.json", tmp_path / "sim.csv"
        assert run_cli(["simulate", "--config", "scenario_c", "--policy", "naive", "--reps", "4",
                        "--periods", "2000", "--out", str(report), "--csv", str(table)]) == 0
        assert table.read_bytes() == (DATA / f"{stem}.csv").read_bytes()
        with open(table, newline="") as fh:
            assert all(int(r["n_bursts"]) > 0 and int(r["n_iois"]) > 0 for r in csv.DictReader(fh))
        golden = json.loads((DATA / f"{stem}.json").read_text())
        document = json.loads(report.read_text())
        assert repr({key: document[key] for key in golden}) == repr(golden)

    @pytest.mark.parametrize("command, flag, value", [
        *(pytest.param("reproduce-table2", flag, "0", id=flag) for flag in ("--seeds", "--reps", "--periods")),
        *(pytest.param("reproduce-table2", flag, "100000000000000000000", id=f"{flag}-1e20")
          for flag in ("--seeds", "--reps", "--periods")),
        *(pytest.param("simulate", flag, value, id=f"simulate{flag}-{value if value == '0' else '1e20'}")
          for flag in ("--reps", "--periods") for value in ("0", "100000000000000000000")),
    ])
    def test_reproduce_table2_rejects_zero_counts_before_any_preset(self, tmp_path, capsys, monkeypatch,
                                                                   command, flag, value):
        def no_work(*args):
            raise AssertionError(f"{command} did work before checking its flags")

        for name in ("load_scenario", "burst_stats_many"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "out"
        argv = {"simulate": ["--config", "scenario_b", "--policy", "naive"], "reproduce-table2": []}[command]
        code = run_cli([command, *argv, flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {flag} must be >= 1, got 0\n" if value == "0" else
                                           f"error: {flag} is out of range of a 64-bit int\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "scenario_b", "--policy", "naive", "--reps", str(2**62), "--periods", "10"],
        ["reproduce-table2", "--reps", str(2**60), "--periods", "10"],
        ["reproduce-table2", "--reps", str(2**62), "--periods", "10"],
        ["burst-convergence", "--config", "scenario_b", "--n-policies", str(2**60)],
    ], ids=["simulate", "reproduce-table2", "reproduce-table2-2**62", "burst-convergence"])
    def test_impossible_repetition_batch_exits_one(self, tmp_path, capsys, monkeypatch, argv):
        # every repetition index array or policy array would take 2**65 bytes or more, which numpy
        # refuses before any allocation
        def no_seed(*key):
            raise AssertionError("a seed was derived for a batch numpy cannot hold")

        monkeypatch.setattr(simulate_module, "derive_seed", no_seed)
        out = tmp_path / "out"
        code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: array is too big") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type int64",
         "Unable to allocate 8.00 TiB for an array with shape (1099511627776,) and data type int64"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_batch_too_large_for_memory_exits_one(self, tmp_path, capsys, monkeypatch, message, printed):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_repetitions_many", out_of_memory)
        out = tmp_path / "table2.csv"
        code = run_cli(["reproduce-table2", "--reps", "1099511627776", "--periods", "10", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {printed}\n"
        assert not out.exists()

    def test_reproduce_table2_numerical_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        failing = load_scenario("scenario_c").system
        analyse = cli.burst_stats_many

        def fail_on_scenario_c(cfg, policies):
            if cfg == failing:
                raise RuntimeError("injected failure")
            return analyse(cfg, policies)

        monkeypatch.setattr(cli, "burst_stats_many", fail_on_scenario_c)
        out = tmp_path / "table2.csv"
        code = run_cli(["reproduce-table2", "--reps", "2", "--periods", "50", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "numerical failure: injected failure\n"
        assert not out.exists()

    def test_nan_chain_exits_one(self, tmp_path, capsys, monkeypatch):
        build = burstiness._scatter_matrices

        def with_nan(cfg, pols):
            ps = build(cfg, pols)
            ps[0, 0, 1] = float("nan")
            return ps

        monkeypatch.setattr(burstiness, "_scatter_matrices", with_nan)
        out = tmp_path / "eval.json"
        code = run_cli(["evaluate", "--config", "scenario_b", "--policy", "naive", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: transition probabilities must be finite and lie in [0, 1]\n"
        assert not out.exists()

    def test_burst_convergence_smoke(self, tmp_path):
        out = tmp_path / "cvg.csv"
        code = run_cli(["burst-convergence", "--config", "scenario_b",
                        "--n-policies", "2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10  # policies x checkpoints
        checkpoints = sorted({int(r["checkpoint"]) for r in rows})
        assert checkpoints == [500, 1000, 2500, 5000, 10000]
        for row in rows:
            assert float(row["analytic_p_out"]) > 0.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_burst_convergence_without_policies_exits_one(self, tmp_path, capsys, count):
        out = tmp_path / "cvg.csv"
        code = run_cli(["burst-convergence", "--config", "scenario_b", "--n-policies", count,
                        "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --n-policies must be >= 1, got {count}\n"
        assert not out.exists()

    def test_burst_convergence_undefined_exits_two(self, tmp_path, capsys):
        # a_out = a_max leaves the outage set empty: no policy has a burst
        document = json.loads(json.dumps(PRESETS["scenario_b"]))
        document["state"]["a_out"] = document["state"]["a_max"]
        out = tmp_path / "cvg.csv"
        with pytest.warns(UserWarning, match="outage set is empty"):
            code = run_cli(["burst-convergence", "--config", write_config(tmp_path, document),
                            "--n-policies", "3", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "numerical failure: policy 0 has no reachable outage; burst errors undefined\n"
        )
        assert not out.exists()


class TestCliBasics:
    def test_version(self, capsys):
        assert run_cli(["--version"]) == 0

    def test_usage_error_exits_one(self):
        assert run_cli([]) == 1
        assert run_cli(["no-such-command"]) == 1

    def test_runs_without_scipy(self, tmp_path):
        out = tmp_path / "eval.json"
        package_parent = str(Path(aoi_outage.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", NO_SCIPY_EVALUATE, package_parent, str(out)],
                              capture_output=True, text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result == {"code": 0, "scipy_modules": []}
        assert read_strict_json(out)["analytic_p_out"] > 0.0

    def test_grids_run_without_lapack_or_numpy_ma(self, tmp_path):
        package_parent = str(Path(aoi_outage.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", NO_LAPACK_GRIDS, package_parent, str(tmp_path / "cvg.csv"),
             str(tmp_path / "table2.csv")],
            capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"codes": [0, 0], "numpy_ma": False}

    def test_package_calls_no_blas(self):
        # the analytic layer is elementwise products and sums, so its bytes
        # do not depend on the BLAS kernel numpy picks for the host
        for path in sorted(Path(aoi_outage.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                assert not isinstance(getattr(node, "op", None), ast.MatMult), f"{path.name}:{node.lineno}"
                assert not (isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES), f"{path.name}:{node.lineno}"
                assert not (isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")), path.name
