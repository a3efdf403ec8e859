"""Command-line front end: run experiments, write CSV and JSON reports.

Subcommands map onto the harness experiments:

    simulate   distribution snapshot at a fixed step count
    localize   origin-probability series against the theoretical limit
    density    tabulated weak-limit density with its atom mass and support
    variance   variance series with a power-law fit
    verify     full simulation-vs-analytics cross-check battery

Each run writes ``<out>/<subcommand>.csv`` and ``<out>/<subcommand>.json``
(restrictable with --format).  Exit status: 0 all verdicts passed, 1 a
tolerance was exceeded, 2 usage error (nothing is written; this includes
an output that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analytics, harness
from .core import StandardInit
from .errors import ComplexParseError, LqwError, NormalizationError

__all__ = ["CliConfig", "parse_complex", "format_complex", "run", "main"]

SCHEMA_VERSION = 1

_TOKEN = re.compile(
    r"""(?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<sqrt>sqrt\(\s*\d+(?:\.\d+)?\s*\))
      | (?P<imag>[ij])
      | (?P<slash>/)
      | (?P<sign>[+-])
      | (?P<ws>\s+)""",
    re.VERBOSE,
)


def parse_complex(text: str) -> complex:
    """Parse a complex literal of the form ``a``, ``bi`` or ``a+bi``.

    Each part is a product/quotient chain of decimal numbers, ``sqrt(n)``
    factors and at most one ``i``, e.g. ``1/sqrt(2)``, ``0.5-0.5i``, ``i/2``,
    ``sqrt(2)i/4``.  Raises ComplexParseError with the offending position.
    """
    if not isinstance(text, str) or not text.strip():
        raise ComplexParseError(str(text), 0, "a non-empty complex literal")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ComplexParseError(text, pos, "number, sqrt(n), 'i', '/', '+' or '-'")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()

    terms: list[list[tuple[str, str, int]]] = [[]]
    for kind, value, at in tokens:
        if kind == "sign" and terms[-1]:
            terms.append([(kind, value, at)])
        else:
            terms[-1].append((kind, value, at))
    if len(terms) > 2:
        raise ComplexParseError(text, terms[2][0][2], "at most two terms (a+bi)")

    result = 0j
    imag_flags = []
    for term in terms:
        value, is_imag = _eval_term(text, term)
        imag_flags.append(is_imag)
        result += value * 1j if is_imag else value
    if len(terms) == 2 and not imag_flags[1]:
        raise ComplexParseError(
            text, terms[1][0][2], "the second term of a+bi to be imaginary")
    if len(terms) == 2 and imag_flags[0]:
        raise ComplexParseError(text, terms[1][0][2], "the real term to come first")
    return result


def _eval_term(text: str, term: list[tuple[str, str, int]]) -> tuple[float, bool]:
    sign = 1.0
    idx = 0
    while idx < len(term) and term[idx][0] == "sign":
        if term[idx][1] == "-":
            sign = -sign
        idx += 1
    factors = term[idx:]
    if not factors:
        at = term[-1][2] if term else 0
        raise ComplexParseError(text, at, "a value after the sign")

    value = sign
    is_imag = False
    dividing = False
    expect_factor = True
    for kind, tok, at in factors:
        if kind == "slash":
            if expect_factor:
                raise ComplexParseError(text, at, "a value before '/'")
            dividing = True
            expect_factor = True
            continue
        if kind == "sign":
            raise ComplexParseError(text, at, "a single sign per term")
        if kind == "number":
            factor = float(tok)
        elif kind == "sqrt":
            factor = math.sqrt(float(tok[5:-1]))
        else:  # imag
            if is_imag:
                raise ComplexParseError(text, at, "at most one 'i' per term")
            if dividing:
                raise ComplexParseError(text, at, "'i' in the numerator only")
            is_imag = True
            expect_factor = False
            continue
        if dividing and factor == 0.0:
            raise ComplexParseError(text, at, "a nonzero divisor")
        value = value / factor if dividing else value * factor
        dividing = False
        expect_factor = False
    if expect_factor:
        raise ComplexParseError(text, factors[-1][2] + len(factors[-1][1]),
                                "a value after '/'")
    return value, is_imag


def format_complex(z: complex) -> str:
    """Shortest round-trip rendering, parseable by parse_complex."""
    re_part, im_part = float(z.real), float(z.imag)
    if im_part == 0.0:
        return repr(re_part)
    imag = f"{repr(abs(im_part))}i"
    sign = "-" if im_part < 0 else ""
    if re_part == 0.0:
        return sign + imag
    return f"{repr(re_part)}{'-' if im_part < 0 else '+'}{imag}"


@dataclass
class CliConfig:
    """Validated arguments of one invocation."""

    subcommand: str
    tau: int
    init: StandardInit
    steps: int | None
    out: Path
    fmt: str
    grid: int | None


class UsageError(LqwError):
    """Bad flags or values; exit status 2, no files written."""


def _fmt_cell(value) -> object:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _json_value(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag, "text": format_complex(value)}
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


def _write_csv(fh, report: harness.ExperimentReport) -> None:
    writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(report.columns)
    # the csv module writes str(cell), which is _fmt_cell's text for an exact
    # float or int but not for a bool or a numpy scalar (np.float32(0.1))
    if set(map(type, itertools.chain.from_iterable(report.rows))) <= {float, int}:
        writer.writerows(report.rows)
    else:
        writer.writerows([_fmt_cell(v) for v in row] for row in report.rows)


def _write_json(fh, report: harness.ExperimentReport) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "experiment": report.experiment,
        "config": _json_value(report.config),
        "metrics": _json_value(report.metrics),
        "verdicts": [
            {"name": v.name, "measured": v.measured,
             "tolerance": v.tolerance, "passed": v.passed}
            for v in report.verdicts
        ],
        "passed": report.passed,
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _write_outputs(report: harness.ExperimentReport, config: CliConfig) -> list[Path]:
    """Write the artifacts all or nothing.

    Each artifact goes to a temp file in the output directory, and the temp
    files replace their targets only after every write succeeded.  A failed
    write leaves no artifact behind; an OSError becomes a UsageError.
    """
    writers = {"csv": _write_csv, "json": _write_json}
    if config.fmt != "both":
        writers = {config.fmt: writers[config.fmt]}
    paths = [config.out / f"{config.subcommand}.{ext}" for ext in writers]
    temps: list[Path] = []
    try:
        config.out.mkdir(parents=True, exist_ok=True)
        for path in paths:
            if path.is_dir():  # os.replace would fail only after the others are in place
                raise UsageError(f"cannot write the output: {path} is a directory")
        for path, write in zip(paths, writers.values()):
            temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            with open(temp, "x", newline="") as fh:
                temps.append(temp)
                write(fh, report)
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException as exc:
        # also a MemoryError while serializing: no temp file may stay behind
        for temp in temps:
            temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write the output: {exc}") from exc
        raise
    return paths


def _density_report(config: CliConfig) -> harness.ExperimentReport:
    init = config.init
    model = analytics.WeakLimitModel(init, config.tau)
    omega = model.omega
    n = config.grid
    # interior grid: the density diverges at +-Omega
    xs = -omega + (np.arange(n) + 0.5) * (2.0 * omega / n)
    rows = list(zip(map(float, xs), map(float, model.density(xs))))
    body = model.continuous_mass()
    report = harness.ExperimentReport(
        experiment="weak_limit_density",
        config={"tau": config.tau, "alpha": init.alpha, "beta": init.beta, "grid": n},
        columns=("x", "density"),
        rows=rows,
        metrics={"p_hat": model.p_hat, "omega": omega, "continuous_mass": body,
                 "spread_coefficient": analytics.spread_coefficient(init, config.tau)},
    )
    report.verdicts.append(harness.Verdict.judge(
        "weak_limit_closure", abs(model.p_hat + body - 1.0), 1e-6))
    return report


def _variance_report(config: CliConfig) -> harness.ExperimentReport:
    init = config.init
    report = harness.variance_series(init, config.tau, config.steps)
    c_fit, alpha_fit = harness.fit_power_law(report.rows)
    c_theory = analytics.spread_coefficient(init, config.tau)
    report.metrics.update(
        {"c_fit": c_fit, "alpha_fit": alpha_fit, "c_theory": c_theory})
    report.verdicts.append(harness.Verdict.judge(
        "spread_exponent_offset", abs(alpha_fit - 2.0), 0.05))
    report.verdicts.append(harness.Verdict.judge(
        "spread_coefficient_relative_error", abs(c_fit - c_theory) / c_theory, 0.10))
    return report


def run(config: CliConfig) -> int:
    """Execute one subcommand; returns the process exit status."""
    init = config.init
    if config.subcommand == "simulate":
        report = harness.distribution_snapshot(init, config.tau, config.steps)
    elif config.subcommand == "localize":
        report = harness.localization_series(init, config.tau, config.steps)
    elif config.subcommand == "density":
        report = _density_report(config)
    elif config.subcommand == "variance":
        report = _variance_report(config)
    elif config.subcommand == "verify":
        report = harness.verification_suite(init, config.tau, config.steps)
    else:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")

    written = _write_outputs(report, config)
    for path in written:
        print(f"wrote {path}")
    for v in report.verdicts:
        status = "pass" if v.passed else "FAIL"
        print(f"  [{status}] {v.name}: measured {v.measured:.3e} vs tolerance {v.tolerance:.3e}")
    return 0 if report.passed else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqw",
        description="Lackadaisical quantum walk simulator and analytic toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    defaults = {
        "simulate": dict(steps=50, help="probability distribution after a fixed number of steps"),
        "localize": dict(steps=1000, help="origin probability series vs the localization limit"),
        "density": dict(help="tabulated weak-limit density, atom mass and support bound"),
        "variance": dict(steps=1000, help="variance series with ballistic power-law fit"),
        "verify": dict(steps=200, help="run every simulation-vs-analytics cross-check"),
    }
    for name, info in defaults.items():
        p = sub.add_parser(name, help=info["help"])
        p.add_argument("--tau", type=int, required=True,
                       help="laziness factor (self-loops per vertex, >= 1)")
        p.add_argument("--alpha", default="1/sqrt(2)",
                       help="left-component amplitude, e.g. '1/sqrt(2)' or '0.5-0.5i'")
        p.add_argument("--beta", default="i/sqrt(2)",
                       help="right-component amplitude")
        if name != "density":
            p.add_argument("--steps", type=_positive_int, default=info["steps"],
                           help=f"number of walk steps (default {info['steps']})")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both",
                       dest="fmt", help="which artifact files to write")
        if name == "density":
            p.add_argument("--grid", type=_positive_int, default=201,
                           help="number of tabulation points (default %(default)s)")
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    if args.tau < 1:
        raise UsageError(f"--tau must be >= 1 (got {args.tau}): the walk requires "
                         "at least one self-loop per vertex")
    try:
        alpha = parse_complex(args.alpha)
        beta = parse_complex(args.beta)
    except ComplexParseError as exc:
        raise UsageError(str(exc)) from exc
    try:
        init = StandardInit(alpha, beta)
    except NormalizationError as exc:
        raise UsageError(f"--alpha/--beta: {exc}") from exc

    return CliConfig(
        subcommand=args.subcommand,
        tau=args.tau,
        init=init,
        steps=getattr(args, "steps", None),
        out=Path(args.out),
        fmt=args.fmt,
        grid=getattr(args, "grid", None),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (LqwError, ValueError) as exc:
        # precondition violations and unwritable outputs leave no file behind
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # raised before or while writing: either way no artifact is left behind
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
