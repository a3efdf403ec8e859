"""Span tracer for the per-layer metrics, installed around lqw from outside.

The tracer never edits lqw.  ``Tracer.install`` replaces, from outside, every
public function of the six layer modules (and the handful of methods and
private helpers the metrics need) with a wrapper that records a span.  The
replacement is made in *every* module namespace that holds the original
object, not only the defining one: ``lqw.harness`` binds ``evolve``,
``iter_evolution``, ``propagate_fourier``, ``momentum_grid_solution`` and
``eigen_system`` by name at import, and the package re-exports most of the
API, so patching only the defining module would miss those calls.
``Tracer.uninstall`` restores every binding it replaced.

A span is ``[name, start, end, parent, request, attrs]``; ``parent`` is the
index of the enclosing span (or -1) and ``request`` identifies the workload
invocation that caused it.  Generator functions (``iter_evolution``) get one
span per ``next()``, parented to whatever span is open when the consumer asks
for the next item, so a layer's self time is the time spent inside it.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = ("core", "spectral", "analytics", "quadrature", "harness", "cli")

# Per layer, the names traced besides the public functions and methods: the
# WalkerState constructor check and the CLI's serializer.  A name a later
# version of lqw no longer has is skipped, and its metrics read 0.
EXTRA = {
    "core": ("WalkerState.__post_init__",),
    "cli": ("_write_outputs",),
}

# Span names whose attributes feed the derived metrics.
_WALKS = ("core.evolve", "core.iter_evolution")
_WRITE = "cli._write_outputs"
_LEGENDRE = "quadrature.legendre_rule"

_clock = time.perf_counter


class Tracer:
    """Collects spans for the current pass; aggregate with ``pass_metrics``."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import lqw  # noqa: F401  (imports every layer module)

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"lqw.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
            for qualname in EXTRA.get(layer, ()):
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                obj = vars(owner).get(attr)
                if not inspect.isfunction(obj):
                    continue
                if owner_name:
                    self._patch(owner, attr, self._wrap(f"{layer}.{qualname}", obj))
                else:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        # Rebind in every lqw module namespace that holds an original.
        for name, module in list(sys.modules.items()):
            if name != "lqw" and not name.startswith("lqw."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue  # properties, classmethods and dunders stay untraced
            self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", value))

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, attrs) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.request, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        return span

    def _close(self, span: list) -> None:
        span[2] = _clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        before = _BEFORE.get(name)

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                attrs = before(*args, **kwargs) if before else None
                inner = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name, attrs)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    if attrs is not None:
                        attrs["snapshots"] += 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(name, before(*args, **kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == _WRITE:
                span[5] = _written(*args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _evolve_attrs(init, params, t, *_, **__):
    return {"walk": (init, int(params.tau), int(t)), "snapshots": 0}


def _iter_attrs(init, params, t_max, *_, **__):
    return _evolve_attrs(init, params, t_max)


def _legendre_attrs(n, *_, **__):
    return {"nodes": int(n)}


def _written(report, config, paths) -> dict:
    rows = len(report.rows) if config.fmt in ("csv", "both") else 0
    return {"rows": rows, "bytes": sum(os.path.getsize(p) for p in paths)}


# Span attributes taken from the call arguments (same signatures as lqw's).
_BEFORE = {
    "core.evolve": _evolve_attrs,
    "core.iter_evolution": _iter_attrs,
    _LEGENDRE: _legendre_attrs,
}


# -- aggregation ----------------------------------------------------------------

EXPERIMENTS = ("localization_series", "distribution_snapshot", "variance_series",
               "empirical_vs_weak_limit", "verification_suite")

# metric prefix -> span name, for the published ``.calls`` / ``.s`` pairs
TIMED = {
    "core.evolve": "core.evolve",
    "spectral.propagate_fourier": "spectral.propagate_fourier",
    "spectral.momentum_grid_solution": "spectral.momentum_grid_solution",
    "spectral.eigen_system": "spectral.eigen_system",
    "analytics.cdf": "analytics.WeakLimitModel.cdf",
    "analytics.continuous_mass": "analytics.WeakLimitModel.continuous_mass",
    "analytics.limit_moment": "analytics.limit_moment",
    "analytics.weak_limit_density": "analytics.weak_limit_density",
    "quadrature.legendre_rule": "quadrature.legendre_rule",
}
COUNTED = {
    "spectral.momentum_operator.calls": "spectral.momentum_operator",
    "quadrature.midpoint_rule.calls": "quadrature.midpoint_rule",
    "core.WalkerState.constructions": "core.WalkerState.__post_init__",
}
KERNEL_TAUS = (1, 10, 100)


def layer_calls(spans) -> dict[str, int]:
    """Number of spans per layer (a generator counts one per next())."""
    calls = dict.fromkeys(LAYERS, 0)
    for span in spans:
        calls[span[0].partition(".")[0]] += 1
    return calls


def pass_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    duration: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    for span, inner in zip(spans, child):
        name = span[0]
        d = span[2] - span[1]
        duration[name] = duration.get(name, 0.0) + d
        self_time[name] = self_time.get(name, 0.0) + d - inner
        count[name] = count.get(name, 0) + 1

    m: dict[str, float] = {}
    for prefix, name in TIMED.items():
        m[f"{prefix}.calls"] = count.get(name, 0)
        m[f"{prefix}.s"] = duration.get(name, 0.0)
    for metric, name in COUNTED.items():
        m[metric] = count.get(name, 0)
    m["core.iter_evolution.s"] = duration.get("core.iter_evolution", 0.0)
    m["cli.write_outputs.s"] = duration.get(_WRITE, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_time.items()
                                   if k.partition(".")[0] == layer)
    for exp in EXPERIMENTS:
        m[f"harness.{exp}.self_s"] = self_time.get(f"harness.{exp}", 0.0)

    # One attrs dict per evolve call and per iter_evolution generator.
    walks: dict[int, list] = {}
    nodes = rows = written = 0
    for span in spans:
        attrs = span[5]
        if span[0] in _WALKS:
            walks.setdefault(id(attrs), [attrs, 0.0, span[4]])[1] += span[2] - span[1]
        elif span[0] == _LEGENDRE:
            nodes += attrs["nodes"]
        elif span[0] == _WRITE:
            rows += attrs["rows"]
            written += attrs["bytes"]
    m["core.iter_evolution.snapshots"] = sum(a["snapshots"] for a, _, _ in walks.values())

    site_steps: dict[int, int] = {}
    walk_time: dict[int, float] = {}
    for attrs, seconds, _ in walks.values():
        _, tau, t = attrs["walk"]
        site_steps[tau] = site_steps.get(tau, 0) + t * t  # sites touched by a t-step walk
        walk_time[tau] = walk_time.get(tau, 0.0) + seconds
    total_time = sum(walk_time.values())
    m["core.site_steps"] = sum(site_steps.values())
    m["core.site_steps_per_s"] = m["core.site_steps"] / total_time if total_time else 0.0
    for tau in KERNEL_TAUS:
        secs = walk_time.get(tau, 0.0)
        m[f"core.site_steps_per_s.tau{tau}"] = site_steps[tau] / secs if secs else 0.0

    direct = len(walks)
    # Reuse is counted within one invocation: each CLI call is its own process,
    # so equal walks of two invocations can never share one evolution.
    distinct = len({(request, attrs["walk"]) for attrs, _, request in walks.values()})
    m["harness.direct_evolutions"] = direct
    m["harness.walk_reuse_ratio"] = distinct / direct if direct else 0.0
    m["quadrature.legendre_rule.nodes"] = nodes
    m["cli.rows_written"] = rows
    m["cli.bytes_written"] = written
    return m
