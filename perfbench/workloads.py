"""The benchmark's workloads, the closed-loop pass runner and the output checks.

Every workload is a fixed list of invocations.  ``cmd`` invocations call
``lqw.cli.main(argv)`` in process, exactly as ``lqw <subcommand> ...`` would;
``lib`` invocations call a library function (``LIBRARY``) directly.  One pass runs the list
once, each invocation starting after the previous one returned (one client,
closed loop).  The workload seed only picks the ``--alpha/--beta`` of the
invocations marked *seeded*; the program sees nothing but the generated flags.

Nothing here imports numpy or lqw at module level: ``bootstrap`` must pin the
BLAS/OpenMP thread count first.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
SCRATCH = ROOT / ".perfbench"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEFAULT_SEED = 0
# Numeric artifact columns must match the reference to 1e-10, relative above 1
# (variance grows like t^2, so an absolute 1e-10 would be below one ulp there).
REL_TOL = 1e-10

# kind, name, tau, size, (toy tau, toy size), seeded.  ``size`` is --steps,
# --grid (density) or t (library call).  The toy sizes keep the self-test and
# the set-up probes short; verify's toy tau is small because its F3 projector
# integral costs the same at any step count.  Why each workload exists: see
# README.md.  The tau-1 final-state walk calls ``evolve`` directly rather than
# ``simulate --tau 1``: at this commit that subcommand exits 1 at any step
# count above ~250 (its peak verdict has a fixed 2-site tolerance, while the
# peak trails v*t by ~0.4 t^(1/3) sites; README.md), and no operation of a
# workload may fail.  The walk keeps its full size and its distribution is
# checked against the reference.
SPECS = {
    "evolution": (
        ("cmd", "simulate", 100, 1000, (100, 50), False),
        ("lib", "evolve", 1, 4000, (1, 50), False),
        ("cmd", "localize", 10, 2000, (10, 200), False),
        ("cmd", "variance", 10, 2000, (10, 200), True),
    ),
    "verify": (
        ("cmd", "verify", 10, 1000, (2, 100), False),
        ("cmd", "verify", 20, 200, (3, 100), True),
    ),
    "weak-limit": (
        ("cmd", "density", 10, 20001, (10, 201), False),
        ("cmd", "density", 100, 20001, (100, 201), True),
        ("lib", "empirical_vs_weak_limit", 1, 2000, (1, 200), False),
        ("lib", "empirical_vs_weak_limit", 3, 3000, (3, 300), True),
    ),
}

# The layer map.  EXERCISED: the layers each workload is built to exercise; a
# traced pass that records no call into one of them fails.  UNUSED: prefixes of
# the per-layer metrics a workload is built to leave at 0 (``spectral.`` is the
# whole layer); the self-test checks them.  README.md shows the same map.
EXERCISED = {
    "evolution": ("core", "analytics", "harness", "cli"),
    "verify": ("core", "spectral", "analytics", "quadrature", "harness", "cli"),
    "weak-limit": ("core", "analytics", "quadrature", "harness", "cli"),
}
UNUSED = {
    "evolution": ("spectral.", "quadrature.", "analytics.cdf.", "analytics.continuous_mass.",
                  "analytics.limit_moment.", "analytics.weak_limit_density."),
    "verify": ("analytics.cdf.", "analytics.weak_limit_density."),
    "weak-limit": ("spectral.", "core.iter_evolution."),
}

# Columns of each subcommand's CSV that hold text rather than numbers.
TEXT_COLUMNS = {"check", "passed"}
# The module of each library function a ``lib`` invocation calls.  It is looked
# up at call time, so the tracer's wrapper is the one called in traced passes.
LIBRARY = {"evolve": "core", "empirical_vs_weak_limit": "harness"}
# Library-report metrics kept as reference values.
LIB_METRICS = ("sup_distance", "near_origin_mass", "near_origin_mass_theory", "p_hat", "omega")


def bootstrap():
    """Pin BLAS/OpenMP to one thread, then import lqw from this checkout's src/."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "lqw" / "__init__.py").is_file():
        raise SystemExit(f"error: no lqw sources at {SRC}; run from a checkout of the repo")
    sys.path.insert(0, str(SRC))
    import lqw

    if Path(lqw.__file__).resolve().parent != SRC / "lqw":
        raise SystemExit(f"error: imported lqw from {lqw.__file__}, not from {SRC}")
    return lqw


@dataclass(frozen=True)
class Invocation:
    key: str          # unique across workloads; names its reference entry
    kind: str         # "cmd" or "lib"
    name: str         # subcommand or library function
    tau: int
    size: int
    alpha: str
    beta: str
    checked: bool     # compare the outputs with the stored reference

    @property
    def metric(self) -> str:
        return f"{self.kind}.{self.name}_s"

    def argv(self, out: Path) -> list[str]:
        flag = "--grid" if self.name == "density" else "--steps"
        return [self.name, "--tau", str(self.tau), flag, str(self.size),
                f"--alpha={self.alpha}", f"--beta={self.beta}", "--out", str(out)]

    def expected_rows(self) -> int | None:
        """Rows of the CSV (or library report) the invocation must produce, if fixed."""
        return {"simulate": 2 * self.size + 1, "localize": self.size,
                "variance": self.size + 1, "density": self.size, "evolve": 2 * self.size + 1,
                "empirical_vs_weak_limit": 2 * self.size + 1}.get(self.name)


def invocation_metrics() -> list[str]:
    """Per-invocation-kind wall time metrics of all workloads, e.g. cmd.verify_s."""
    return sorted({f"{kind}.{name}_s" for specs in SPECS.values()
                   for kind, name, *_ in specs})


def amplitudes(seed: int) -> tuple[str, str]:
    """CLI literals for (alpha, beta): the CLI default at the default seed."""
    if seed == DEFAULT_SEED:
        return "1/sqrt(2)", "i/sqrt(2)"
    rng = random.Random(seed)
    theta = rng.uniform(0.0, 0.5 * math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    re, im = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)
    return repr(math.cos(theta)), f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def build(workload: str, seed: int, toy: bool = False) -> list[Invocation]:
    """The workload's invocations for this seed; ``toy`` shrinks every size."""
    seeded_alpha, seeded_beta = amplitudes(seed)
    default_alpha, default_beta = amplitudes(DEFAULT_SEED)
    invocations = []
    for kind, name, tau, size, toy_tau_size, seeded in SPECS[workload]:
        key = f"{name}-tau{tau}"
        if toy:
            tau, size = toy_tau_size
        invocations.append(Invocation(
            key=key, kind=kind, name=name, tau=tau, size=size,
            alpha=seeded_alpha if seeded else default_alpha,
            beta=seeded_beta if seeded else default_beta,
            checked=not toy and (not seeded or seed == DEFAULT_SEED),
        ))
    return invocations


@contextlib.contextmanager
def workdir(tag: str):
    """A private directory under the checkout, removed afterwards."""
    path = SCRATCH / f"work-{os.getpid()}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- running --------------------------------------------------------------------


@dataclass
class Outcome:
    invocation: Invocation
    seconds: float
    errors: list[str]
    values: dict[str, list] | None = None  # CSV columns, or the library report's metrics
    identical: bool | None = None   # artifacts byte-identical to the reference

    @property
    def error(self) -> str | None:
        return "; ".join(self.errors) or None


@dataclass
class PassResult:
    outcomes: list[Outcome]
    kernel_s: list[float]  # kernel times before each invocation and after the last

    @property
    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def failures(self) -> list[str]:
        return [f"{o.invocation.key}: {o.error}" for o in self.outcomes if o.error]

    def by_metric(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for o in self.outcomes:
            totals[o.invocation.metric] = totals.get(o.invocation.metric, 0.0) + o.seconds
        return totals


class Runner:
    """Runs passes over one workload's invocations and checks every output."""

    def __init__(self, invocations: list[Invocation], directory: Path, reference=None):
        import lqw.cli

        self.invocations = invocations
        self.directory = directory
        self.reference = reference if reference is not None else load_reference()
        self.tracer = None
        self.kernel = None  # a speed.Kernel, timed between invocations once set
        self.peak_bytes = 0  # tracemalloc peak inside invocations, when tracing memory
        self.inits = {
            inv.key: lqw.StandardInit(lqw.cli.parse_complex(inv.alpha),
                                      lqw.cli.parse_complex(inv.beta))
            for inv in invocations if inv.kind == "lib"}

    def run_pass(self) -> PassResult:
        gc.collect()  # start every pass from the same collector state
        outcomes, kernel_s = [], []
        for index, inv in enumerate(self.invocations):
            if self.kernel is not None:
                kernel_s.append(self.kernel())
            if self.tracer is not None:
                self.tracer.request = index
            outcomes.append(self.run_invocation(inv))
        if self.kernel is not None:
            kernel_s.append(self.kernel())
        return PassResult(outcomes, kernel_s)

    def run_invocation(self, inv: Invocation) -> Outcome:
        """Time one invocation, then check its outputs (outside the timing).

        Every check runs, so an invocation that exits 1 on a failed verdict
        still has its artifacts compared with the reference."""
        import lqw.cli

        out = self.directory / inv.key
        sink = io.StringIO()
        # the peak covers the invocation only, not the checks that read its output
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            if inv.kind == "cmd":
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = lqw.cli.main(inv.argv(out))
            else:
                result = self.call_library(inv)
        except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
            where = traceback.extract_tb(exc.__traceback__)[-1]
            return Outcome(inv, time.perf_counter() - start,
                           [f"raised {exc!r} at {where.filename}:{where.lineno}"])
        seconds = time.perf_counter() - start
        if tracemalloc.is_tracing():
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])

        errors = []
        if inv.kind == "cmd" and status != 0:
            errors.append(f"exit status {status}")
        try:
            if inv.kind == "cmd":
                payload = json.loads((out / f"{inv.name}.json").read_text())
                failed = [v["name"] for v in payload["verdicts"] if not v["passed"]]
                values = read_csv(out / f"{inv.name}.csv")
                rows = len(next(iter(values.values())))
            elif inv.name == "evolve":  # a WalkerState: its distribution is the output
                failed = []
                values = {"n": result.positions.astype(float).tolist(),
                          "probability": result.probabilities().tolist()}
                rows = len(values["n"])
            else:
                failed = [v.name for v in result.verdicts if not v.passed]
                values = {m: [result.metrics[m]] for m in LIB_METRICS}
                rows = len(result.rows)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            return Outcome(inv, seconds, errors + [f"unreadable output: {exc!r}"])
        if failed:
            errors.append(f"failed verdicts {failed}")
        if inv.expected_rows() not in (None, rows):
            errors.append(f"{rows} rows, expected {inv.expected_rows()}")
        outcome = Outcome(inv, seconds, errors, values)
        if inv.checked:
            mismatch = compare(self.reference["columns"], inv.key, values)
            if mismatch:
                errors.append(mismatch)
            if inv.kind == "cmd":
                entry = self.reference["manifest"][inv.key]
                outcome.identical = all(
                    sha256(out / f"{inv.name}.{ext}") == entry[f"{ext}_sha256"]
                    for ext in ("csv", "json"))
        return outcome

    def call_library(self, inv: Invocation):
        import lqw

        fn = getattr(sys.modules[f"lqw.{LIBRARY[inv.name]}"], inv.name)
        if inv.name == "evolve":
            return fn(self.inits[inv.key], lqw.WalkParams(inv.tau), inv.size)
        return fn(self.inits[inv.key], inv.tau, inv.size)


# -- reference artifacts --------------------------------------------------------


def read_csv(path: Path) -> dict[str, list]:
    """Columns of an lqw CSV artifact; numeric columns as floats."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        columns[name] = cells if name in TEXT_COLUMNS else [float(c) for c in cells]
    return columns


def compare(reference: dict, key: str, columns: dict[str, list]) -> str | None:
    """First mismatch between an artifact's columns and the reference, if any."""
    expected_names = sorted(n.split("/", 1)[1] for n in reference if n.startswith(key + "/"))
    if sorted(columns) != expected_names:
        return f"columns {sorted(columns)} differ from reference {expected_names}"
    for name, values in columns.items():
        ref = reference[f"{key}/{name}"]
        if len(values) != len(ref):
            return f"column {name}: {len(values)} values, reference has {len(ref)}"
        if name in TEXT_COLUMNS:
            if list(values) != [str(r) for r in ref]:
                return f"column {name} differs from the reference"
            continue
        for i, (got, want) in enumerate(zip(values, ref)):
            if not abs(got - want) <= REL_TOL * max(1.0, abs(want)):
                return f"column {name} row {i}: {got!r} vs reference {float(want)!r}"
    return None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    """Reference columns (``<key>/<column>`` arrays) and the artifact manifest."""
    import numpy as np

    with np.load(REFERENCE / "columns.npz", allow_pickle=False) as data:
        columns = {name: data[name].tolist() for name in data.files}
    manifest = json.loads((REFERENCE / "manifest.json").read_text())
    return {"columns": columns, "manifest": manifest}
