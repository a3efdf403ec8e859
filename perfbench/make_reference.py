"""Regenerate the reference artifacts the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Runs every invocation the benchmark compares (all unseeded ones, plus the
seeded ones at the default seed) once at full size, and stores:

* ``reference/columns.npz``: each CSV column (``<key>/<column>``) and, for the
  library calls, the report's scalar metrics;
* ``reference/manifest.json``: argv, row count, the sha256 of every CSV and
  JSON artifact, so byte-identity with the reference is visible, and the
  failures (failed verdicts, exit status) the invocation had when stored.

An invocation that fails a verdict is stored all the same, its failure
recorded: the benchmark then reports that failure on every run and still
compares the artifact's columns.  One that crashes or writes no readable
output stops the script.

Only regenerate when a change alters the artifacts on purpose.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import workloads


def main() -> int:
    workloads.bootstrap()
    import numpy as np

    columns: dict[str, np.ndarray] = {}
    manifest: dict[str, dict] = {}
    for name in workloads.SPECS:
        invocations = [dataclasses.replace(inv, checked=False)
                       for inv in workloads.build(name, workloads.DEFAULT_SEED)]
        with workloads.workdir("reference") as directory:
            runner = workloads.Runner(invocations, directory, reference={})
            for inv in invocations:
                outcome = runner.run_invocation(inv)
                if outcome.values is None:
                    print(f"{inv.key}: {outcome.error}", file=sys.stderr)
                    return 1
                if outcome.errors:
                    # kept: the benchmark reports this failure on every run
                    print(f"{inv.key}: stored, but fails: {outcome.error}", file=sys.stderr)
                entry = {"workload": name, "alpha": inv.alpha, "beta": inv.beta,
                         "tau": inv.tau, "size": inv.size, "failures": outcome.errors,
                         "rows": len(next(iter(outcome.values.values())))}
                if inv.kind == "cmd":
                    out = directory / inv.key
                    entry["argv"] = inv.argv(out)[:-2]
                    for ext in ("csv", "json"):
                        entry[f"{ext}_sha256"] = workloads.sha256(out / f"{inv.name}.{ext}")
                for column, cells in outcome.values.items():
                    columns[f"{inv.key}/{column}"] = np.asarray(cells)
                manifest[inv.key] = entry
    np.savez_compressed(workloads.REFERENCE / "columns.npz", **columns)
    (workloads.REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {len(manifest)} reference entries to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
