"""Self-test of the benchmark: each workload once at toy size, in both modes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json declares is emitted with its unit,
that no invocation fails, that the layer map in ``workloads.py`` holds (each
exercised layer has self time, each metric a workload is built to leave
alone is 0, every per-layer metric is nonzero on some workload), and that the
reference comparison rejects a perturbed artifact.  Prints each workload's
metric table, then every problem found; exits 1 if there is any.
"""

from __future__ import annotations

import sys

import workloads

SEED = 1  # a non-default seed, so seeded invocations get generated amplitudes


def check_reference_comparison() -> list[str]:
    """compare() must accept the reference itself and reject a 1e-9 perturbation."""
    columns = workloads.load_reference()["columns"]
    key, column = "variance-tau10", "variance"
    own = {name.split("/", 1)[1]: values for name, values in columns.items()
           if name.startswith(key + "/")}
    problems = []
    if workloads.compare(columns, key, own) is not None:
        problems.append("reference comparison rejects the reference itself")
    bumped = dict(own, **{column: list(own[column])})
    bumped[column][-1] *= 1 + 1e-9
    if workloads.compare(columns, key, bumped) is None:
        problems.append("reference comparison accepts a 1e-9 relative change")
    return problems


def main() -> int:
    workloads.bootstrap()
    import run

    declared = run.declared_metrics()
    problems = check_reference_comparison()
    nonzero_somewhere: set[str] = set()
    for workload in workloads.SPECS:
        for trace in (0, 1):
            metrics, tally, detail = run.measure(workload, SEED, 0.0, trace, toy=True)
            result = run.result_line(metrics, tally, declared, trace)
            print(f"{workload}  trace {trace}  (toy size)")
            print("\n".join(run.report_lines(metrics, tally, declared, detail)))
            group = declared["per_layer" if trace else "end_to_end"]
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            if emitted != group:
                problems.append(f"{workload}/{trace}: emitted {emitted} != declared {group}")
            problems.extend(f"{workload}/{trace}: {f}" for f in tally.failures)
            if trace == 0:
                problems.extend(f"{workload}: {n} is {metrics[n]}" for n in group
                                if not metrics[n] > 0)
                continue
            nonzero_somewhere.update(n for n in group if metrics[n] > 0)
            problems.extend(f"{workload}: {layer}.self_s is 0"
                            for layer in workloads.EXERCISED[workload]
                            if not metrics[f"{layer}.self_s"] > 0)
            problems.extend(f"{workload}: {n} is {metrics[n]}, expected 0" for n in group
                            if n.startswith(workloads.UNUSED[workload]) and metrics[n] != 0)
    problems.extend(f"{n} is 0 on every workload"
                    for n in declared["per_layer"] if n not in nonzero_somewhere)
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
