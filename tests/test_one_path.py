"""One scoring path: every command, and optimize, score a policy through
the batch burst analysis, and no code in the package calls a stack of one.

The one-policy forms stay library API. Each test rebinds them, in every
aoi_outage module that binds them, to a stub that fails the test when
called, the way a tracer rebinds names, and checks that the package still
gives the same bytes without them.
"""

import sys

import pytest

from aoi_outage import cli
from aoi_outage.optimizer import PenaltyKind, optimize
from aoi_outage.scenarios import load_scenario

#: The public one-chain, one-policy and one-run forms of the batch functions.
STACKS_OF_ONE = (
    "build_transition_matrix", "steady_state", "outage_probability", "burst_stats", "simulate",
    "run_repetitions",
)


def _stub_everywhere(monkeypatch, names) -> None:
    """Rebind each name in every loaded aoi_outage module that binds it;
    each name must be bound somewhere, so a renamed one fails here."""
    modules = [module for key, module in sys.modules.items()
               if module is not None and key.split(".")[0] == "aoi_outage"]
    for name in names:
        binders = [module for module in modules if name in vars(module)]
        assert binders, f"no aoi_outage module binds {name}"
        for module in binders:
            def called(*args, _name=name, **kwargs):
                raise AssertionError(f"the package called {_name}")

            monkeypatch.setattr(module, name, called)


COMMANDS = {
    "optimize": ["optimize", "--config", "scenario_b", "--penalty", "exp-peak-aoi", "--out", "{out}/opt.json"],
    "evaluate-naive": ["evaluate", "--config", "scenario_b", "--policy", "naive", "--out", "{out}/eval.json"],
    "evaluate-min-error": ["evaluate", "--config", "scenario_a", "--policy", "min-error",
                           "--out", "{out}/eval.json"],
    "evaluate-file": ["evaluate", "--config", "scenario_b", "--policy", "file", "--policy-file", "{policy}",
                      "--out", "{out}/eval.json"],
    "simulate": ["simulate", "--config", "scenario_c", "--policy", "file", "--policy-file", "{policy}",
                 "--reps", "3", "--periods", "200", "--out", "{out}/sim.json", "--csv", "{out}/sim.csv"],
    "reproduce-table2": ["reproduce-table2", "--reps", "2", "--periods", "50", "--out", "{out}/table2.csv"],
    "burst-convergence": ["burst-convergence", "--config", "scenario_b", "--n-policies", "2",
                          "--out", "{out}/cvg.csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_call_no_stack_of_one(tmp_path, monkeypatch, command):
    # the policy file is one path for both runs, since evaluate and simulate echo it
    policy = tmp_path / "policy.json"
    assert cli.main(["optimize", "--config", "scenario_b", "--penalty", "binary", "--out", str(policy)]) == 0
    outputs = {}
    for run in ("plain", "stubbed"):
        out = tmp_path / run
        out.mkdir()
        if run == "stubbed":
            _stub_everywhere(monkeypatch, (*STACKS_OF_ONE, "optimize"))
        argv = [arg.format(out=out, policy=policy) for arg in COMMANDS[command]]
        assert cli.main(argv) == 0
        outputs[run] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert outputs["plain"]
    assert outputs["stubbed"] == outputs["plain"]


@pytest.mark.parametrize("kind", list(PenaltyKind))
def test_optimize_calls_no_stack_of_one(monkeypatch, kind):
    cfg = load_scenario("scenario_a").system
    plain = optimize(cfg, kind, 0)
    _stub_everywhere(monkeypatch, STACKS_OF_ONE)
    stubbed = optimize(cfg, kind, 0)
    assert stubbed.final_policy.tobytes() == plain.final_policy.tobytes()
    assert (stubbed.iterations, stubbed.convergence_trace, stubbed.best_p_out) == (
        plain.iterations, plain.convergence_trace, plain.best_p_out)
