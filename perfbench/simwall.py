"""Simulated time against wall time for the paper's five configurations.

    python3 perfbench/simwall.py --seed 1 --seconds 10

Runs the untraced ``tpch_scs`` and ``tpch_baselines`` workloads in this
process and prints, per configuration, the mean simulated and wall
milliseconds per request, and whether wall time ranks the configurations
in the same order as simulated time.  A report only: nothing is gated.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args(argv)

    run._import_program()
    from workloads import make_workload

    per_config: dict[str, tuple[float, float, int]] = {}
    for name in ("tpch_scs", "tpch_baselines"):
        _, _, problems, phase = run.measure(make_workload(name, args.seed), args.seconds)
        if problems:
            print(f"{name}: {len(problems)} wrong answers; no table", file=sys.stderr)
            return 1
        for config in sorted({request.kind for request in phase.requests}):
            outcomes = [o for r, o in phase.pairs if r.kind == config]
            per_config[config] = (
                statistics.fmean(o.sim_ms for o in outcomes),
                statistics.fmean(o.scaled_s * 1000 for o in outcomes),
                len(outcomes),
            )

    by_sim = sorted(per_config, key=lambda c: per_config[c][0])
    by_wall = sorted(per_config, key=lambda c: per_config[c][1])
    print(f"\nseed {args.seed}: mean per request, ranked by simulated time")
    print(f"{'config':<8} {'sim ms':>10} {'wall ms':>10} {'wall/sim':>9} {'wall rank':>9} {'n':>5}")
    for config in by_sim:
        sim, wall, n = per_config[config]
        print(f"{config:<8} {sim:>10.3f} {wall:>10.2f} {wall / sim:>9.1f} "
              f"{by_wall.index(config) + 1:>9} {n:>5}")
    print(f"sim order:  {' < '.join(by_sim)}")
    print(f"wall order: {' < '.join(by_wall)}")
    print(f"wall ranks the configurations as sim does: {'yes' if by_sim == by_wall else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
