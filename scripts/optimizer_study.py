#!/usr/bin/env python3
"""Compare all four penalties against the benchmark policies per scenario.

For each preset and penalty the table reports the optimized policy's
analytic outage rate, next to the two benchmark policies.
"""

import argparse
import sys

from aoi_outage import (
    PenaltyKind,
    burst_stats_many,
    load_scenario,
    min_error_policy,
    naive_policy,
    optimize,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", nargs="+",
                        default=["scenario_a", "scenario_b", "scenario_c"])
    args = parser.parse_args()

    print(f"{'scenario':<12}{'policy':<16}{'p_out':>14}")
    for preset in args.scenarios:
        cfg = load_scenario(preset).system
        for kind in PenaltyKind:
            report = optimize(cfg, kind, 0)
            print(f"{preset:<12}{kind.value:<16}{report.best_p_out:>14.6e}")
        benchmarks = {"naive": naive_policy(cfg), "min-error": min_error_policy(cfg)}
        for name, stats in zip(benchmarks, burst_stats_many(cfg, list(benchmarks.values()))):
            print(f"{preset:<12}{name:<16}{stats.p_out:>14.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
