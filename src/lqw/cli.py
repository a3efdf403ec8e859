"""Command-line front end: run one harness experiment, write CSV and JSON reports.

Every subcommand is one :mod:`lqw.harness` experiment, which decides the table,
metrics and verdicts; the CLI parses, dispatches, writes and sets the exit status:

    simulate   distribution_snapshot  distribution at a fixed step count
    localize   localization_series    origin-probability series against the limit
    density    density_table          weak-limit density with its atom mass and support
    variance   variance_series        variance series with its ballistic power-law fit
    verify     verification_suite     simulation-vs-analytics cross-check battery

Each run writes ``<out>/<subcommand>.csv`` and ``<out>/<subcommand>.json``
(restrictable with --format).  The CSV holds the report's table in the
default dialect of :func:`csv.writer`: CRLF line ends, minimal quoting.  A
table of float64 arrays and integer arrays within ±2^53 only goes through
:mod:`lqw._floatfmt`, in equal blocks of at most ``_BLOCK_ROWS`` rows, so the
writer holds one block of text and never the whole file; it writes the text
of ``repr`` for each float and of ``str`` for each int, the bytes
``csv.writer`` gives them.  A table with a text, bool or beyond-±2^53 int
column goes row by row through ``csv.writer``.  The JSON is
:func:`json.dump`'s, with complex values as ``{"re", "im", "text"}``.
Exit status: 0 all verdicts passed, 1 a tolerance was exceeded, 2 usage
error (nothing is written; this includes an output that cannot be written).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, _floatfmt, harness
from .core import StandardInit, _check_tau
from .errors import ComplexParseError, LqwError, NormalizationError

__all__ = ["parse_complex", "format_complex", "main"]

SCHEMA_VERSION = 1

# subcommand -> (harness experiment, size flag, default size, help).  The
# experiment is looked up on the module at call time, never stored.
_SUBCOMMANDS = {
    "simulate": ("distribution_snapshot", "--steps", 50, "distribution after a number of steps"),
    "localize": ("localization_series", "--steps", 1000, "origin probability vs its limit"),
    "density": ("density_table", "--grid", 201, "weak-limit density, atom mass and support"),
    "variance": ("variance_series", "--steps", 1000, "variance series with ballistic fit"),
    "verify": ("verification_suite", "--steps", 200, "every simulation-vs-analytics check"),
}
_SIZE_HELP = {"--steps": "number of walk steps", "--grid": "number of tabulation points"}

# Rows of the CSV formatted and written at a time; it bounds the writer's
# memory.  A bulk block holds 96 bytes of work per number of every column and
# about 90 bytes of words and text per cell: two columns peak near 0.45 MB at
# 1280 rows and 0.72 MB at 2048, and `localize`'s three near 0.62 MB at 1280;
# a 2000-row `localize` block (0.96 MB), not the walk, would set the peak of
# the `evolution` benchmark.
_BLOCK_ROWS = 1280

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
    # a sign after a value starts a new term, so only a term's first token is one
    sign, factors = 1.0, term
    if term and term[0][0] == "sign":
        sign, factors = (-1.0 if term[0][1] == "-" else 1.0), term[1:]
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
    imag = f"{'-' if im_part < 0 else '+'}{repr(abs(im_part))}i"
    if re_part == 0.0:
        return imag.lstrip("+")
    return repr(re_part) + imag


class UsageError(LqwError):
    """Bad flags or values; exit status 2, no files written."""


def _fmt_cell(value) -> object:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value  # csv.writer writes str() of the rest, an np.integer's included


def _json_default(value):
    # json writes floats, np.float64 among them, with float.__repr__ itself
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag, "text": format_complex(value)}
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_csv(fh, report: harness.ExperimentReport) -> None:
    # a csv.writer holds a 128 KiB record buffer while it lives: none outlives its call
    csv.writer(fh).writerow(report.columns)
    if not all(map(_floatfmt.is_numeric, report.table)):
        csv.writer(fh).writerows(zip(*(map(_fmt_cell, col) for col in report.table)))
        return
    length = len(report.table[0]) if report.table else 0
    # equal blocks, the last a little shorter; an empty table writes none
    blocks = max(1, -(-length // _BLOCK_ROWS))
    rows = max(1, -(-length // blocks))
    lines = _floatfmt.BlockFormatter(report.table, rows)
    for start in range(0, length, rows):
        fh.write(lines([col[start:start + rows] for col in report.table]))


def _write_json(fh, report: harness.ExperimentReport) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "experiment": report.experiment,
        "config": report.config,
        "metrics": report.metrics,
        "verdicts": [
            {"name": v.name, "measured": v.measured,
             "tolerance": v.tolerance, "passed": v.passed}
            for v in report.verdicts
        ],
        "passed": report.passed,
    }
    json.dump(payload, fh, indent=2, default=_json_default)
    fh.write("\n")


def _write_outputs(report: harness.ExperimentReport, args: argparse.Namespace) -> list[Path]:
    """Write the artifacts ``args.fmt`` names to ``args.out``, all or nothing.

    Each artifact goes to a temp file in the output directory, and the temp
    files replace their targets only after every write succeeded.  A failed
    write leaves no artifact behind; an OSError becomes a UsageError.
    """
    writers = {"csv": _write_csv, "json": _write_json}
    if args.fmt != "both":
        writers = {args.fmt: writers[args.fmt]}
    out = Path(args.out)
    paths = [out / f"{args.subcommand}.{ext}" for ext in writers]
    temps: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
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

    for name, (_, flag, default, text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--tau", type=int, required=True,
                       help="laziness factor (self-loops per vertex, >= 1)")
        p.add_argument("--alpha", default="1/sqrt(2)",
                       help="left-component amplitude, e.g. '1/sqrt(2)' or '0.5-0.5i'")
        p.add_argument("--beta", default="i/sqrt(2)",
                       help="right-component amplitude")
        p.add_argument(flag, type=_positive_int, default=default, dest="size",
                       metavar=flag[2:].upper(), help=f"{_SIZE_HELP[flag]} (default %(default)s)")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both",
                       dest="fmt", help="which artifact files to write")
    return parser


# One parser per process, built as the module loads; parsing leaves it as it
# was.  Building it takes about 1 ms, 25 times a parse (2-core x86-64).
_PARSER = build_parser()


def _tau_and_init(args: argparse.Namespace) -> tuple[int, StandardInit]:
    """The validated --tau and the initial state of --alpha/--beta."""
    try:
        tau = _check_tau(args.tau)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--tau: {exc}") from exc
    try:
        alpha = parse_complex(args.alpha)
        beta = parse_complex(args.beta)
    except ComplexParseError as exc:
        raise UsageError(str(exc)) from exc
    try:
        return tau, StandardInit(alpha, beta)
    except NormalizationError as exc:
        raise UsageError(f"--alpha/--beta: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        tau, init = _tau_and_init(args)
        experiment = getattr(harness, _SUBCOMMANDS[args.subcommand][0])
        report = experiment(init, tau, args.size)
        for path in _write_outputs(report, args):
            print(f"wrote {path}")
        for v in report.verdicts:
            status = "pass" if v.passed else "FAIL"
            print(f"  [{status}] {v.name}: measured {v.measured:.3e} vs tolerance "
                  f"{v.tolerance:.3e}")
        return 0 if report.passed else 1
    except (LqwError, ValueError) as exc:
        # bad flags, precondition violations and unwritable outputs leave no file behind
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # raised before or while writing: either way no artifact is left behind
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
