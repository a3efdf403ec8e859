"""The lqw benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload evolution --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off (``wall_s`` scaled to the nominal machine speed,
see speed.py); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, which are not scaled.  The metric names and
units are the ones listed in BENCHMARK.json.  Human-readable lines come
first; the last line of standard output is the JSON result.  README.md beside
this file says why each workload exists and which layer metric should move
which end-to-end metric.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import speed
import workloads

SETUP_PROBES = 5
# Printed beside the declared metrics: the unscaled wall time and the kernel's time.
UNDECLARED_UNITS = {"wall_raw_s": "s", "kernel_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def declared_metrics() -> dict[str, dict[str, str]]:
    """{"end_to_end"|"per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- provenance -----------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (may be absent)."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "lqw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in workloads.THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "amplitudes": workloads.amplitudes(seed),
    }


# -- measurement ----------------------------------------------------------------


class Tally:
    """Attempted and failed operations: each invocation of a pass, each setup probe."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, result: workloads.PassResult) -> workloads.PassResult:
        self.attempted += len(result.outcomes)
        self.failures.extend(result.failures)
        return result


def setup_probes(workload: str, seed: int, tally: Tally) -> list[dict]:
    """The results of SETUP_PROBES fresh processes, run one after another."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(workloads.HERE / "probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=workloads.ROOT, capture_output=True, text=True, timeout=40)
        if proc.returncode != 0:
            tally.attempted += 1
            tally.failures.append(f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}")
            continue
        probe = json.loads(proc.stdout.splitlines()[-1])
        # a probe counts as one operation, so its toy-size invocations do not
        # dilute failed_ratio
        tally.attempted += 1
        if probe["failures"]:
            tally.failures.append("setup probe: " + "; ".join(sorted(set(probe["failures"]))))
        probes.append(probe)
    return probes


def timed_passes(runner: workloads.Runner, seconds: float, tally: Tally, tracer=None):
    """Closed-loop passes for ``seconds``; with a tracer, alternate untraced and traced."""
    from tracer import pass_metrics

    plain, traced, layer_samples, spans = [], [], [], []
    start = time.perf_counter()
    while not plain or (tracer is not None and not traced) \
            or time.perf_counter() - start < seconds:
        plain.append(tally.add(runner.run_pass()))
        if tracer is None:
            continue
        tracer.spans = []
        runner.tracer = tracer
        with tracer:
            traced.append(tally.add(runner.run_pass()))
        runner.tracer = None
        spans = tracer.spans
        layer_samples.append(pass_metrics(spans))
    return plain, traced, layer_samples, spans


def measure(workload: str, seed: int, seconds: float, trace: int,
            toy: bool = False) -> tuple[dict, Tally, dict]:
    """Computed metrics, the failure tally and extra detail for the results file."""
    invocations = workloads.build(workload, seed, toy=toy)
    tally = Tally()
    metrics: dict[str, float] = {}
    detail: dict = {}
    with workloads.workdir(f"trace{trace}") as directory:
        runner = workloads.Runner(invocations, directory)
        if trace == 0:
            probes = setup_probes(workload, seed, tally)
            # first pass: fills lqw's lazy caches and measures peak allocation
            tracemalloc.start()
            tally.add(runner.run_pass())
            tracemalloc.stop()
            runner.kernel = speed.Kernel()
            plain, _, _, _ = timed_passes(runner, seconds, tally)
            # wall time at the nominal machine speed (speed.py)
            metrics["wall_s"] = median([
                speed.scaled_pass([o.seconds for o in p.outcomes], p.kernel_s) for p in plain])
            metrics["kernel_s"] = median([k for p in plain for k in p.kernel_s])
            metrics["setup_s"] = median([p["setup_s"] for p in probes])
            metrics["peak_alloc_mb"] = runner.peak_bytes / 1e6
            detail["setup_samples"] = [p["setup_s"] for p in probes]
            detail["pass_kernel_s"] = [p.kernel_s for p in plain]
        else:
            from tracer import Tracer, layer_calls

            tally.add(runner.run_pass())  # warm-up, untimed
            plain, traced, samples, spans = timed_passes(runner, seconds, tally, Tracer())
            for name, last in samples[-1].items():
                # counts repeat exactly from pass to pass; times take the median
                metrics[name] = last if isinstance(last, int) else median(
                    [s[name] for s in samples])
            metrics["trace.wall_s"] = median([p.wall for p in traced])
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
                [p.wall for p in plain])
            calls = layer_calls(spans)
            detail["layer_calls"] = calls
            for layer in workloads.EXERCISED[workload]:
                if calls[layer] == 0:
                    tally.failures.append(f"traced pass recorded no call into {layer}")
            write_spans(workload, spans)
        metrics["wall_raw_s"] = median([p.wall for p in plain])
        # every workload reports every invocation metric; absent ones are 0
        for name in workloads.invocation_metrics():
            metrics[name] = median([p.by_metric().get(name, 0.0) for p in plain])
        detail["passes"] = len(plain)
        detail["pass_walls"] = [p.wall for p in plain]
        detail["identical"] = {o.invocation.key: o.identical
                               for o in plain[-1].outcomes if o.identical is not None}
    return metrics, tally, detail


def write_spans(workload: str, spans) -> None:
    """The last traced pass, one span per line, under the checkout's scratch dir."""
    workloads.SCRATCH.mkdir(exist_ok=True)
    path = workloads.SCRATCH / f"spans-{workload}.jsonl"
    with open(path, "w") as fh:
        for name, start, end, parent, request, _ in spans:
            fh.write(json.dumps([name, start, end, parent, request]) + "\n")


# -- reporting --------------------------------------------------------------------


def result_line(metrics: dict, tally: Tally, declared: dict, trace: int) -> dict:
    """The benchmark's result: exactly the metrics BENCHMARK.json declares for the mode."""
    names = declared["per_layer" if trace else "end_to_end"]
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    failed = len(tally.failures)
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }


def report_lines(metrics: dict, tally: Tally, declared: dict, detail: dict) -> list[str]:
    """Every computed metric by name and unit, then failed_ratio and the failures."""
    units = {**declared["end_to_end"], **declared["per_layer"], **UNDECLARED_UNITS}
    lines = [f"  medians over {detail['passes']} untraced passes"
             + (f", setup_s over {len(detail['setup_samples'])} fresh processes"
                if "setup_samples" in detail else "")]
    for name in sorted(metrics):
        lines.append(f"  {name:42s} {metrics[name]:>16.6g} {units.get(name, '')}")
    failed = len(tally.failures)
    lines.append(f"  {'failed_ratio':42s} {failed / max(tally.attempted, 1):>16.6g} ratio"
                 f"  ({failed} of {tally.attempted} operations)")
    lines.extend(f"  FAILED {count}x {failure}"
                 for failure, count in collections.Counter(tally.failures).items())
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.bootstrap()
    declared = declared_metrics()
    metrics, tally, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    result = result_line(metrics, tally, declared, args.trace)

    record = {"provenance": provenance(args.workload, args.seed), "args": vars(args),
              "result": result, "all_metrics": metrics, "failures": tally.failures,
              **detail}
    workloads.SCRATCH.mkdir(exist_ok=True)
    (workloads.SCRATCH / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("\n".join(report_lines(metrics, tally, declared, detail)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
