"""One cold process: the set-up cost a fresh ``lqw`` invocation pays.

    python3 perfbench/probe.py --workload <name> --seed <n>

Times the import of lqw (numpy and scipy included), then one cold pass and
WARM_PASSES warm passes of the workload at toy size, and prints one JSON
line.  ``setup_s`` is the import time plus the cold pass minus the median
warm pass: what the first use costs on top of the work itself, i.e. the
Gauss-Legendre tables (2048 and 4096 nodes), numpy's first-call set-up and
anything else a later change moves into lazy initialisation.  The warm passes
run only after the cold one filled the caches.  Toy size keeps the passes
short, so the difference is not lost in run-to-run noise, and the warm passes
run right after the cold one, so all see the same machine load.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import workloads

WARM_PASSES = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    workloads.bootstrap()
    import lqw.cli  # noqa: F401
    import lqw.harness  # noqa: F401
    import_s = time.perf_counter() - start

    invocations = workloads.build(args.workload, args.seed, toy=True)
    with workloads.workdir("probe") as directory:
        runner = workloads.Runner(invocations, directory, reference={})
        passes = [runner.run_pass() for _ in range(1 + WARM_PASSES)]
    cold_s = passes[0].wall
    warm_s = statistics.median(p.wall for p in passes[1:])
    print(json.dumps({
        "import_s": import_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "setup_s": import_s + cold_s - warm_s,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failures": [f for p in passes for f in p.failures],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
