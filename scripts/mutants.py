"""Mutation check: does the suite catch a one-line fault?

Applies each mutant of MUTANTS, one at a time, to a copy of the tree's
`src/` and `tests/`, and runs that mutant's tests on it with `-x -q`: by
default the simulator tests and the golden tests, and for a mutant of
another module the tests of that module. A mutant is caught when the run
fails. Before any mutant, every test file a mutant names must pass on the
unmutated copy.

    python scripts/mutants.py

Exits 0 when every mutant is caught or listed as equivalent, 1 when any
other mutant survives, and 2 when the unmutated run fails or a mutant's
`old` text is not found exactly once in its file. Uses the standard
library only; the tests need the `test` extra.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The tests a mutant runs unless it names its own: the simulator's, and
#: the CLI goldens that pin the seeded outputs byte for byte.
TESTS = (
    "tests/test_simulate.py",
    "tests/test_scenarios_cli.py::TestCliGrids::test_reproduce_table2_matches_golden_csv",
    "tests/test_scenarios_cli.py::TestCliGrids::test_burst_convergence_matches_golden_measurements",
    "tests/test_scenarios_cli.py::TestCliGrids::test_simulate_matches_golden_output",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    #: why the mutant cannot change any output; None for a mutant the tests must catch
    equivalent: str | None = None
    tests: tuple[str, ...] = TESTS


SIMULATE = "src/aoi_outage/simulate.py"
BURSTINESS = "src/aoi_outage/burstiness.py"
MARKOV = "src/aoi_outage/markov.py"
CLI_TESTS = ("tests/test_scenarios_cli.py",)
VALIDATION_TESTS = (
    "tests/test_markov.py::TestValidatePolicies",
    "tests/test_markov.py::TestBuildMatrix::test_policy_validation",
)

MUTANTS = (
    Mutant("the chunk's last failure pair not copied", SIMULATE,
           "us[:m] = u[:, :, :2]", "us[:m - 1] = u[:-1, :, :2]"),
    Mutant("every period reads the chunk's first bit codes", SIMULATE,
           "seed_bits[j]", "seed_bits[0]"),
    Mutant("packing slice one byte short", SIMULATE,
           "outage[:, start // 8 : (start + m + 7) // 8]", "outage[:, start // 8 : (start + m - 1) // 8]"),
    Mutant("x1 and x2 swapped in the fresh-bit code", SIMULATE,
           "2 * (u[:, :, 2] < cfg.profile.alpha_1) + (u[:, :, 3] < cfg.profile.alpha_2)",
           "2 * (u[:, :, 3] < cfg.profile.alpha_2) + (u[:, :, 2] < cfg.profile.alpha_1)"),
    Mutant("every row starts one age position later, at ages (1, 2)", SIMULATE,
           "h = base = offset[group]", "base = offset[group]\n    h = base + 4"),
    Mutant("branch table in reverse order", SIMULATE,
           "= n * np.arange(4)", "= n * np.arange(3, -1, -1)"),
    Mutant("failure compare `<` made `<=`", SIMULATE,
           "np.less(us[j]", "np.less_equal(us[j]",
           equivalent="a continuous uniform equals an error rate with probability ~2**-53, "
                      "and a rate of 1.0 fails either way"),
    Mutant("the policy range admits N + 1", MARKOV,
           "arr.max(initial=0) > n)", "arr.max(initial=0) > n + 1)", tests=VALIDATION_TESTS),
    Mutant("fractional allocations truncated, not refused", MARKOV,
           'arr.dtype.kind == "f" and np.array_equal(np.rint(arr), arr)', 'arr.dtype.kind == "f"',
           tests=VALIDATION_TESTS),
    Mutant("GTH elimination skips state 1", MARKOV,
           "range(n - 1, 0, -1)", "range(n - 1, 1, -1)", tests=("tests/test_markov.py",)),
    Mutant("the pmf walk stops at 10x its tolerance", BURSTINESS,
           "inside.sum() / xi1 < SERIES_TOLERANCE", "inside.sum() / xi1 < 10 * SERIES_TOLERANCE",
           tests=("tests/test_burstiness.py",)),
    Mutant("ties broken to the largest allocation", "src/aoi_outage/optimizer.py",
           "new[:, k] = np.argmin(cost, axis=1)",
           "new[:, k] = cost.shape[1] - 1 - np.argmin(cost[:, ::-1], axis=1)",
           tests=("tests/test_optimizer.py",)),
    Mutant("sqrt(2) scaled by 1 + 1e-9 in Q(x)", "src/aoi_outage/fbl.py",
           "_SQRT2 = math.sqrt(2.0)", "_SQRT2 = math.sqrt(2.0) * (1 + 1e-9)", tests=("tests/test_fbl.py",)),
    Mutant("each stack's last policy dropped", BURSTINESS,
           "pols[start:start + size]", "pols[start:start + size - 1]", tests=("tests/test_burstiness.py",)),
    Mutant("identity gate 10**6 times looser", BURSTINESS,
           "IDENTITY_TOL = 1e-9", "IDENTITY_TOL = 1e-3", tests=("tests/test_burstiness.py",)),
    Mutant("residual gate 10**4 times looser", MARKOV,
           "RESIDUAL_TOL = 1e-10", "RESIDUAL_TOL = 1e-6", tests=("tests/test_markov.py",)),
    Mutant("GTH divides by zero pivots", MARKOV,
           ", where=pivot[:, None] > 0.0)", ")", tests=("tests/test_markov.py",)),
    Mutant("GTH anchored at state 0", MARKOV,
           "anchor = n - 1 - (pivots[:, ::-1] == 0.0).argmax(axis=1)", "anchor = np.zeros(b, dtype=np.intp)",
           tests=("tests/test_markov.py",)),
    Mutant("the pmf walk capped at 1 000 steps", BURSTINESS,
           "SERIES_CAP = 10_000", "SERIES_CAP = 1_000", tests=("tests/test_burstiness.py",)),
    Mutant("simulation.reps may be 0", "src/aoi_outage/scenarios.py",
           '"reps": (int, 1)', '"reps": (int, 0)', tests=CLI_TESTS),
    Mutant("--policy-file accepted with a named --policy", "src/aoi_outage/cli.py",
           'if policy not in (None, "file") and args.policy_file is not None:', "if False:", tests=CLI_TESTS),
    Mutant("flag abbreviations accepted", "src/aoi_outage/cli.py",
           "allow_abbrev=False", "allow_abbrev=True", tests=CLI_TESTS),
    Mutant("draw chunks of 60 periods, not a multiple of 8", SIMULATE,
           "DRAW_CHUNK = 64", "DRAW_CHUNK = 60"),
    Mutant("draw chunks of 8 periods", SIMULATE,
           "DRAW_CHUNK = 64", "DRAW_CHUNK = 8",
           equivalent="rng.random(out=...) in chunks draws the same stream whatever their size, "
                      "and every multiple of 8 packs into whole bytes"),
)


def run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, float]:
    """Exit code and wall time of the run of `tests` on `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - started


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for mutant in MUTANTS:
            found = (tree / mutant.file).read_text().count(mutant.old)
            if found != 1:
                print(f"mutant {mutant.name!r}: {mutant.old!r} found {found} times in {mutant.file}")
                return 2
        every_test = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        code, seconds = run_tests(tree, every_test)
        if code != 0:
            print(f"the unmutated tree fails its tests (pytest exit {code}); no mutant was run")
            return 2
        print(f"unmutated: pass in {seconds:.1f} s")
        survivors = []
        for mutant in MUTANTS:
            path = tree / mutant.file
            original = path.read_text()
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                code, seconds = run_tests(tree, mutant.tests)
            finally:
                path.write_text(original)
            if code != 0:
                verdict = "caught"
            elif mutant.equivalent:
                verdict = f"survived, equivalent: {mutant.equivalent}"
            else:
                verdict = "SURVIVED"
                survivors.append(mutant.name)
            print(f"{mutant.name}: {verdict} ({seconds:.1f} s)")
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
