"""CLI: complex-literal grammar, subcommand artifacts, exit codes."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lqw
from lqw import ComplexParseError, _floatfmt
from lqw.cli import format_complex, main, parse_complex


class TestParseComplex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/sqrt(2)", 0.7071067811865476),
            ("0.5-0.5i", complex(0.5, -0.5)),
            ("i/2", 0.5j),
            ("1", 1.0),
            ("-1", -1.0),
            ("i", 1j),
            ("-i", -1j),
            ("2i", 2j),
            ("0.25", 0.25),
            ("i/sqrt(2)", 1j * 0.7071067811865476),
            ("sqrt(2)/4+sqrt(2)i/4", complex(math.sqrt(2) / 4, math.sqrt(2) / 4)),
            ("1/2+i/2", complex(0.5, 0.5)),
            ("-0.6+0.8i", complex(-0.6, 0.8)),
            ("1e-3", 1e-3),
            (" 1 + 2i ", complex(1, 2)),
            ("sqrt(9)", 3.0),
        ],
    )
    def test_accepted_literals(self, text, expected):
        assert parse_complex(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize(
        "text", ["", "   ", "1+", "widget", "1+2", "i+1", "1+2i+3i", "1/", "/2", "1/i", "ii", "sqrt(-2)",
                 "--1", "1+-2i", "+-i"]
    )
    def test_rejected_literals(self, text):
        with pytest.raises(ComplexParseError):
            parse_complex(text)

    def test_error_carries_position(self):
        with pytest.raises(ComplexParseError) as info:
            parse_complex("0.5&0.5i")
        assert info.value.position == 3
        assert "expected" in str(info.value)

    @pytest.mark.parametrize("text,position", [("1/0", 2), ("0/0", 2), ("sqrt(0)i/0", 9)])
    def test_zero_divisor_rejected(self, text, position):
        with pytest.raises(ComplexParseError) as info:
            parse_complex(text)
        assert info.value.position == position
        assert info.value.expected == "a nonzero divisor"

    @given(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6))
    def test_format_round_trips(self, z):
        assert parse_complex(format_complex(z)) == z


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_writes_csv_and_json(self, tmp_path):
        status = run_cli(
            "simulate", "--tau", "10", "--alpha", "1/sqrt(2)", "--beta", "i/sqrt(2)",
            "--steps", "50", "--out", str(tmp_path),
        )
        assert status == 0
        rows = read_csv(tmp_path / "simulate.csv")
        assert rows[0] == ["n", "probability"]
        data = {int(r[0]): float(r[1]) for r in rows[1:]}
        assert sum(data.values()) == pytest.approx(1.0, abs=1e-9)
        peak = max((n for n in data if n > 25), key=data.get)
        assert abs(peak - 46) <= 2
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["passed"] is True

    def test_deterministic_bytes(self, tmp_path):
        args = ("simulate", "--tau", "3", "--steps", "30")
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a/simulate.csv").read_bytes() == (
            tmp_path / "b/simulate.csv"
        ).read_bytes()

    def test_format_restriction(self, tmp_path):
        run_cli("simulate", "--tau", "2", "--steps", "20", "--format", "csv",
                "--out", str(tmp_path))
        assert (tmp_path / "simulate.csv").exists()
        assert not (tmp_path / "simulate.json").exists()

    def test_csv_uses_crlf(self, tmp_path):
        run_cli("simulate", "--tau", "1", "--steps", "10", "--out", str(tmp_path))
        assert b"\r\n" in (tmp_path / "simulate.csv").read_bytes()

    def test_tau1_long_walk_passes_peak_verdicts(self, tmp_path):
        # the travelling peaks lag v*t by ~6 sites here; the verdicts allow for it
        assert run_cli("simulate", "--tau", "1", "--steps", "4000", "--out", str(tmp_path)) == 0


def cell_by_cell_csv(report) -> bytes:
    """The CSV of ``report`` with every cell passed through ``_fmt_cell``."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([lqw.cli._fmt_cell(v) for v in row])
    return fh.getvalue().encode()


class TestCsvSerialization:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--tau", "10", "--steps", "60"),
        ("localize", "--tau", "3", "--steps", "150", "--alpha", "0.6", "--beta", "0.8i"),
        ("density", "--tau", "5", "--grid", "301"),
        ("variance", "--tau", "2", "--steps", "80"),
        ("verify", "--tau", "2", "--steps", "40"),
        ("simulate", "--tau", "3", "--steps", "20"),  # 41 rows
        ("density", "--tau", "3", "--grid", "1"),  # one row
    ], ids=["simulate", "localize", "density", "variance", "verify", "simulate-41-rows",
            "density-one-row"])
    def test_bytes_match_cell_by_cell_formatting(self, argv, tmp_path, monkeypatch):
        reports, cells = [], []
        write, fmt_cell = lqw.cli._write_outputs, lqw.cli._fmt_cell

        def captured(report, config):
            reports.append(report)
            return write(report, config)

        def counted(value):
            cells.append(value)
            return fmt_cell(value)

        monkeypatch.setattr(lqw.cli, "_write_outputs", captured)
        monkeypatch.setattr(lqw.cli, "_fmt_cell", counted)
        run_cli(*argv, "--out", str(tmp_path))
        monkeypatch.setattr(lqw.cli, "_fmt_cell", fmt_cell)
        assert (tmp_path / f"{argv[0]}.csv").read_bytes() == cell_by_cell_csv(reports[0])
        # tables of plain floats and ints skip the per-cell path at any length;
        # verify has text and bools
        assert bool(cells) is (argv[0] == "verify")

    @pytest.mark.parametrize("argv", [
        ("density", "--tau", "10", "--grid", "200001"),  # an odd grid has a cell at x = 0
        ("simulate", "--tau", "1", "--steps", "4000"),
    ], ids=" ".join)
    def test_large_numeric_tables_match_cell_by_cell_formatting(self, argv, tmp_path,
                                                                 monkeypatch):
        reports = []
        write = lqw.cli._write_outputs

        def captured(report, config):
            reports.append(report)
            return write(report, config)

        monkeypatch.setattr(lqw.cli, "_write_outputs", captured)
        run_cli(*argv, "--out", str(tmp_path))
        assert (tmp_path / f"{argv[0]}.csv").read_bytes() == cell_by_cell_csv(reports[0])

    @staticmethod
    def blocks_report(length, limit):
        rng = np.random.default_rng(length)
        return lqw.ExperimentReport(
            experiment="blocks", config={}, columns=("t", "x", "n"),
            table=(np.arange(length) - length // 2,
                   rng.integers(0, 2**64, length, dtype=np.uint64).view(np.float64),
                   rng.integers(-limit, limit, length, endpoint=limit == 2**53)))

    @staticmethod
    def cells_formatted(report, monkeypatch) -> list:
        """The cells ``_write_csv`` passes to ``_fmt_cell``; its bytes match cell by cell."""
        cells, fmt_cell = [], lqw.cli._fmt_cell

        def counted(value):
            cells.append(value)
            return fmt_cell(value)

        fh = io.StringIO(newline="")
        monkeypatch.setattr(lqw.cli, "_fmt_cell", counted)
        lqw.cli._write_csv(fh, report)
        monkeypatch.setattr(lqw.cli, "_fmt_cell", fmt_cell)
        assert fh.getvalue().encode() == cell_by_cell_csv(report)
        return cells

    @pytest.mark.parametrize("length", [1023, 1024, 1025, lqw.cli._BLOCK_ROWS - 1,
                                        lqw.cli._BLOCK_ROWS, lqw.cli._BLOCK_ROWS + 1,
                                        4095, 4096, 4097])
    def test_numeric_tables_across_block_boundaries(self, length, monkeypatch):
        report = self.blocks_report(length, 2**53)
        assert self.cells_formatted(report, monkeypatch) == []

    @pytest.mark.parametrize("length", [64, lqw.cli._BLOCK_ROWS + 1])
    def test_full_range_int_columns_go_cell_by_cell(self, length, monkeypatch):
        # an int beyond ±2^53 is not exact as a float64: the bulk path takes none
        report = self.blocks_report(length, 2**63)
        assert len(self.cells_formatted(report, monkeypatch)) == 3 * length

    # the csv module writes str(cell): 'True' for True and '0.1' for
    # np.float32(0.1), so any cell that is not an exact float or int goes
    # through _fmt_cell
    @pytest.mark.parametrize("odd,text", [
        (True, "true"), (np.float32(0.1), "0.10000000149011612"),
        (np.float64(0.5), "0.5"), (np.int64(7), "7"),
    ], ids=["bool", "float32", "float64", "int64"])
    def test_numpy_scalars_and_bools_are_formatted_per_cell(self, odd, text):
        report = lqw.ExperimentReport(
            experiment="mixed", config={}, columns=("n", "x"),
            table=([1, 2, 3], [0.25, odd, 1e-300]))
        fh = io.StringIO(newline="")
        lqw.cli._write_csv(fh, report)
        assert fh.getvalue() == f"n,x\r\n1,0.25\r\n2,{text}\r\n3,1e-300\r\n"
        assert fh.getvalue().encode() == cell_by_cell_csv(report)

    def test_text_cells_are_quoted_as_the_csv_module_quotes_them(self):
        report = lqw.ExperimentReport(
            experiment="quoted", config={}, columns=("check", "measured"),
            table=(["a,b", 'say "hi"', "x\r\ny", "plain_name"], np.array([0.5, 1e-3, 2.0, 3.0])))
        fh = io.StringIO(newline="")
        lqw.cli._write_csv(fh, report)
        assert fh.getvalue().encode() == (b'check,measured\r\n"a,b",0.5\r\n"say ""hi""",0.001\r\n'
                                          b'"x\r\ny",2.0\r\nplain_name,3.0\r\n')

    def test_one_column_tables_match_the_csv_module(self):
        # an unquoted empty cell alone on its row would read as an empty line
        # an empty table, of text or of numbers, is its header alone
        for cells, expected in ((["", "a", "a,b"], b'name\r\n""\r\na\r\n"a,b"\r\n'),
                                ([], b"name\r\n"), (np.empty(0), b"name\r\n")):
            report = lqw.ExperimentReport(experiment="names", config={}, columns=("name",),
                                          table=(cells,))
            fh = io.StringIO(newline="")
            lqw.cli._write_csv(fh, report)
            assert fh.getvalue().encode() == expected

    def test_writer_memory_does_not_grow_with_the_table(self):
        class Discard:
            def write(self, text):
                return len(text)

        def peak(length):
            xs = np.linspace(-1.0, 1.0, length)
            report = lqw.ExperimentReport(experiment="large", config={}, columns=("x", "density"),
                                          table=(xs, np.sqrt(xs + 1.0)))
            tracemalloc.start()
            try:
                lqw.cli._write_csv(Discard(), report)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(400_001) < 1.5 * peak(40_001)

    @pytest.mark.parametrize("length", [1, 2, 63, 64, 65])
    def test_short_numeric_tables_go_in_bulk(self, length, monkeypatch):
        rng = np.random.default_rng(length)
        report = lqw.ExperimentReport(
            experiment="short", config={}, columns=("n", "x"),
            table=(np.arange(length) - length // 2, rng.standard_normal(length) * 1e-3))
        assert self.cells_formatted(report, monkeypatch) == []

    # A two-float table like density's and an (int, float, float) one like
    # localize's; the bulk writer holds one block, so its peak stays under
    # these bounds at any length (it measures about 0.45 and 0.48 MB).
    @pytest.mark.parametrize("shape,length,bound", [("density", 40_001, 500_000),
                                                    ("localize", 2000, 530_000)])
    def test_writer_peak_has_a_fixed_bound(self, shape, length, bound):
        class Discard:
            def write(self, text):
                return len(text)

        xs = np.linspace(-1.0, 1.0, length)
        t = np.arange(1, length + 1)
        table = {"density": (xs, np.sqrt(xs + 1.0)),
                 "localize": (t, 1.0 / np.sqrt(t + 0.5), np.full(length, 0.123456789))}[shape]
        report = lqw.ExperimentReport(experiment=shape, config={},
                                      columns=("a", "b", "c")[:len(table)], table=table)
        tracemalloc.start()
        try:
            lqw.cli._write_csv(Discard(), report)
            assert tracemalloc.get_traced_memory()[1] < bound
        finally:
            tracemalloc.stop()

    def test_a_second_block_allocates_no_block_sized_array(self):
        # every step of a block writes into the formatter's work arrays: making the
        # words of all its columns allocates less than one uint64 column of the block,
        # and the call no more than that besides the deletion of the NULs and the text
        n = 16384  # above numpy's ufunc buffer, 8192 values, which a smaller block may fill
        xs = np.linspace(-1.0, 1.0, n)
        block = [xs, np.arange(n) - n // 2, np.sqrt(xs + 1.0)]
        formatter = _floatfmt.BlockFormatter(block, n)
        formatter(block)
        ordered = [block[i] for i in formatter._order]
        work = formatter._work.reshape(_floatfmt._WORK_ROWS, -1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _floatfmt._float_text(work, ordered, formatter._ints)
            assert tracemalloc.get_traced_memory()[1] - before < 8 * n
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = formatter(block)
            peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < len(formatter._text) + len(text) + 8 * n
        finally:
            tracemalloc.stop()


class TestJsonSerialization:
    @staticmethod
    def report(**metrics):
        return lqw.ExperimentReport(
            experiment="literal", columns=(), table=(),
            config={"tau": 3, "alpha": complex(0.6, 0.0), "beta": 0.8j,
                    "coin_vector": [np.complex128(0.5 - 0.5j)]},
            metrics=metrics, verdicts=[lqw.Verdict("norm", 1e-15, 1e-12, True)])

    def test_bytes_are_literal(self):
        report = self.report(f=np.float64(0.1), n=np.int64(7), ok=np.bool_(True),
                             gap=float("nan"), tiny=np.float64(5e-324))
        fh = io.StringIO(newline="")
        lqw.cli._write_json(fh, report)
        assert fh.getvalue() == (
            '{\n  "schema_version": 1,\n  "tool_version": "%s",\n  "experiment": "literal",\n'
            '  "config": {\n    "tau": 3,\n'
            '    "alpha": {\n      "re": 0.6,\n      "im": 0.0,\n      "text": "0.6"\n    },\n'
            '    "beta": {\n      "re": 0.0,\n      "im": 0.8,\n      "text": "0.8i"\n    },\n'
            '    "coin_vector": [\n      {\n        "re": 0.5,\n        "im": -0.5,\n'
            '        "text": "0.5-0.5i"\n      }\n    ]\n  },\n'
            '  "metrics": {\n    "f": 0.1,\n    "n": 7,\n    "ok": true,\n    "gap": NaN,\n'
            '    "tiny": 5e-324\n  },\n'
            '  "verdicts": [\n    {\n      "name": "norm",\n      "measured": 1e-15,\n'
            '      "tolerance": 1e-12,\n      "passed": true\n    }\n  ],\n'
            '  "passed": true\n}\n' % lqw.__version__)

    def test_an_unknown_type_raises_type_error(self):
        with pytest.raises(TypeError, match="Path"):
            lqw.cli._write_json(io.StringIO(), self.report(where=Path(".")))


class TestUsageErrors:
    @pytest.fixture
    def no_experiment(self, monkeypatch):
        def never(*args):
            raise AssertionError("the experiment started")

        for name, *_ in lqw.cli._SUBCOMMANDS.values():
            monkeypatch.setattr(lqw.harness, name, never)

    def test_tau_zero_exits_2_writes_nothing(self, tmp_path, capsys):
        status = run_cli("simulate", "--tau", "0", "--steps", "10", "--out", str(tmp_path))
        assert status == 2
        assert "tau" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["simulate", "localize", "density", "variance",
                                            "verify"])
    def test_tau_beyond_float_exits_2_writes_nothing(self, subcommand, tmp_path, capsys):
        status = run_cli(subcommand, "--tau", str(10**400), "--out", str(tmp_path))
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        status = run_cli("simulate", "--tau", "1", "--alpha", "fish", "--out", str(tmp_path))
        assert status == 2
        assert "parse" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_normalized_pair_exits_2(self, tmp_path):
        status = run_cli("simulate", "--tau", "1", "--alpha", "1", "--beta", "1",
                         "--out", str(tmp_path))
        assert status == 2
        assert list(tmp_path.iterdir()) == []

    def test_zero_divisor_exits_2_writes_nothing(self, tmp_path, capsys):
        status = run_cli("simulate", "--tau", "2", "--alpha", "1/0", "--beta", "1",
                         "--out", str(tmp_path))
        assert status == 2
        assert "nonzero divisor" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nan_amplitude_exits_2_writes_nothing(self, tmp_path, capsys):
        # 1e400 overflows to inf, and inf/inf is NaN
        status = run_cli("density", "--tau", "2", "--alpha", "1e400/1e400", "--beta", "0",
                         "--out", str(tmp_path))
        assert status == 2
        assert "expected 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # |1e200|^2 overflows in the norm check; at tau 1e154 the density quadrature refuses
    # (Omega rounds to 1), before (2 tau + 4)^2 can overflow in the spread coefficient
    @pytest.mark.parametrize("argv", [("--tau", "5", "--alpha", "1e200", "--beta", "0"),
                                      ("--tau", str(10**154))], ids=["alpha-1e200", "tau-1e154"])
    def test_overflowing_input_exits_2_writes_nothing(self, argv, tmp_path, capsys):
        status = run_cli("density", *argv, "--out", str(tmp_path))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    # a single localize step emits no convergence verdict
    @pytest.mark.parametrize("subcommand,steps", [("simulate", 20), ("localize", 1),
                                                  ("variance", 20)])
    def test_quadrature_free_commands_ignore_quad_nodes_env(self, subcommand, steps, tmp_path,
                                                            monkeypatch):
        monkeypatch.setenv("LQW_QUAD_NODES", "abc")
        assert run_cli(subcommand, "--tau", "2", "--steps", str(steps),
                       "--out", str(tmp_path)) == 0

    @pytest.mark.parametrize("subcommand", ["simulate", "localize", "density", "variance",
                                            "verify"])
    def test_quad_nodes_is_unknown_to_every_subcommand(self, subcommand, tmp_path, capsys):
        # no verdict depends on a node count, so no subcommand takes one
        status = run_cli(subcommand, "--tau", "2", "--quad-nodes", "5", "--out", str(tmp_path))
        assert status == 2
        assert "unrecognized arguments: --quad-nodes" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # the library's own wording, from core._check_tau
    @pytest.mark.parametrize("tau,wording", [
        ("0", "tau must be >= 1 (got 0); closed forms divide by tau"),
        (str(10**400), "tau is too large for a float (1329 bits)"),
    ], ids=["zero", "beyond_float"])
    @pytest.mark.parametrize("subcommand", ["simulate", "localize", "density", "variance",
                                            "verify"])
    def test_bad_tau_rejected_before_any_experiment(self, subcommand, tau, wording, tmp_path,
                                                    capsys, no_experiment):
        status = run_cli(subcommand, "--tau", tau, "--out", str(tmp_path))
        assert status == 2
        assert capsys.readouterr().err == f"error: --tau: {wording}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unknown_subcommand_exits_2_before_any_experiment(self, tmp_path, capsys,
                                                               no_experiment):
        # argparse's choices reject it: main has no subcommand check of its own
        assert run_cli("spread", "--tau", "2", "--out", str(tmp_path)) == 2
        assert "invalid choice: 'spread'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run_cli("simulate", "--tau", "1", "--bogus", "1") == 2

    def test_too_few_steps_exits_2_without_files(self, tmp_path):
        status = run_cli("simulate", "--tau", "1", "--steps", "3", "--out", str(tmp_path))
        assert status == 2
        assert list(tmp_path.iterdir()) == []

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "F"
        target.write_text("keep")
        status = run_cli("simulate", "--tau", "2", "--steps", "20", "--out", str(target))
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert target.read_text() == "keep"
        assert [p.name for p in tmp_path.iterdir()] == ["F"]

    def test_unwritable_artifact_leaves_nothing_behind(self, tmp_path, capsys):
        # simulate.json is a directory: simulate.csv must not be written either
        (tmp_path / "simulate.json").mkdir()
        status = run_cli("simulate", "--tau", "2", "--steps", "20", "--out", str(tmp_path))
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in tmp_path.iterdir()] == ["simulate.json"]
        assert list((tmp_path / "simulate.json").iterdir()) == []

    def test_out_of_memory_exits_2_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(lqw.harness, "verification_suite", exhausted)
        out = tmp_path / "out"
        status = run_cli("verify", "--tau", "2", "--steps", "10", "--out", str(out))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_out_of_memory_while_writing_leaves_nothing_behind(self, tmp_path, capsys,
                                                               monkeypatch):
        def exhausted(fh, report):
            raise MemoryError("cannot serialize the report")

        monkeypatch.setattr(lqw.cli, "_write_json", exhausted)
        status = run_cli("simulate", "--tau", "2", "--steps", "20", "--out", str(tmp_path))
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", [
        MemoryError("cannot format the cell"), OSError(28, "No space left on device"),
    ], ids=["MemoryError", "OSError"])
    def test_failure_in_the_middle_of_the_csv_leaves_nothing_behind(self, exc, tmp_path,
                                                                    capsys, monkeypatch):
        out = tmp_path / "out"
        on_disk = []

        class FailingCell:
            def __str__(self):
                on_disk.append(sum(p.stat().st_size for p in out.iterdir()))
                raise exc

        length = lqw.cli._BLOCK_ROWS + 10
        names = ["plain_name"] * length
        names[lqw.cli._BLOCK_ROWS + 5] = FailingCell()
        report = lqw.ExperimentReport(
            experiment="localization_series", config={}, columns=("t", "check"),
            table=(np.arange(length), names))
        monkeypatch.setattr(lqw.harness, "localization_series", lambda *args: report)
        status = run_cli("localize", "--tau", "2", "--out", str(out))
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")
        assert on_disk and on_disk[0] > 0  # the first block was in the temp file
        assert list(out.iterdir()) == []


class TestLocalize:
    def test_series_and_reference(self, tmp_path):
        status = run_cli("localize", "--tau", "1", "--steps", "200", "--out", str(tmp_path))
        assert status == 0
        rows = read_csv(tmp_path / "localize.csv")
        assert rows[0] == ["t", "origin_probability", "reference"]
        assert len(rows) == 201
        payload = json.loads((tmp_path / "localize.json").read_text())
        assert payload["metrics"]["reference"] == pytest.approx(0.2020410288672876, rel=1e-12)

    def test_json_records_the_probe_steps(self, tmp_path):
        # the recurrence's kernel probe covers min(steps, 256) steps
        status = run_cli("localize", "--tau", "2", "--steps", "300", "--out", str(tmp_path))
        assert status == 0
        payload = json.loads((tmp_path / "localize.json").read_text())
        assert payload["metrics"]["probe_steps"] == 256
        assert [v["name"] for v in payload["verdicts"]] == [
            "window_mean_deviation", "recurrence_vs_kernel", "recurrence_vs_closed_form"]

    def test_single_step_no_verdict(self, tmp_path):
        status = run_cli("localize", "--tau", "1", "--steps", "1", "--out", str(tmp_path))
        assert status == 0
        payload = json.loads((tmp_path / "localize.json").read_text())
        assert payload["verdicts"] == []

    def test_unconverged_run_exits_1_but_writes(self, tmp_path):
        # 10 steps cannot reach the limit within 1e-2; files are still written
        status = run_cli("localize", "--tau", "1", "--steps", "10", "--out", str(tmp_path))
        assert status == 1
        payload = json.loads((tmp_path / "localize.json").read_text())
        assert payload["passed"] is False
        assert (tmp_path / "localize.csv").exists()


class TestDensity:
    def test_table_and_closure(self, tmp_path):
        status = run_cli("density", "--tau", "5", "--alpha", "0.6", "--beta", "0.8i",
                         "--grid", "101", "--out", str(tmp_path))
        assert status == 0
        rows = read_csv(tmp_path / "density.csv")
        assert rows[0] == ["x", "density"]
        assert len(rows) == 102
        payload = json.loads((tmp_path / "density.json").read_text())
        omega = payload["metrics"]["omega"]
        assert omega == pytest.approx(math.sqrt(5 / 7), rel=1e-12)
        assert payload["metrics"]["p_hat"] + payload["metrics"]["continuous_mass"] == (
            pytest.approx(1.0, abs=1e-6)
        )

    def test_quad_nodes_env_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LQW_QUAD_NODES", "zero")
        assert run_cli("density", "--tau", "2", "--out", str(tmp_path)) == 0
        assert run_cli("verify", "--tau", "2", "--steps", "20", "--out", str(tmp_path)) == 0

    def test_closure_passes_at_tau_1e12(self, tmp_path):
        # the graded quadrature resolves the edges of the support at any tau
        assert run_cli("density", "--tau", "1000000000000", "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / "density.json").read_text())
        assert [v["name"] for v in payload["verdicts"]] == ["weak_limit_closure"]
        assert payload["verdicts"][0]["measured"] <= 1e-9

    def test_closure_passes_at_tau_1e16(self, tmp_path):
        # the largest power of ten below the refusal: Omega < 1 in float64
        assert run_cli("density", "--tau", str(10**16), "--out", str(tmp_path)) == 0

    def test_omega_rounding_to_one_exits_2_writes_nothing(self, tmp_path, capsys):
        status = run_cli("density", "--tau", str(10**30), "--out", str(tmp_path))
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestHarnessParity:
    # the CLI only serializes: its metrics and verdicts are the experiment's own
    @pytest.mark.parametrize("argv,experiment,size", [
        (("density", "--tau", "5", "--grid", "101"), "density_table", 101),
        (("variance", "--tau", "3", "--steps", "300"), "variance_series", 300),
    ], ids=["density", "variance"])
    @pytest.mark.parametrize("alpha,beta", [("1/sqrt(2)", "i/sqrt(2)"), ("0.6", "0.8i")],
                             ids=["symmetric", "real_alpha"])
    def test_json_matches_the_harness_report(self, argv, experiment, size, alpha, beta,
                                            tmp_path):
        assert run_cli(*argv, "--alpha", alpha, "--beta", beta, "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / f"{argv[0]}.json").read_text())
        init = lqw.StandardInit(parse_complex(alpha), parse_complex(beta))
        report = getattr(lqw.harness, experiment)(init, int(argv[2]), size)
        assert payload["metrics"] == {k: float(v) for k, v in report.metrics.items()}
        assert payload["verdicts"] == [
            {"name": v.name, "measured": v.measured, "tolerance": v.tolerance,
             "passed": v.passed} for v in report.verdicts]
        assert payload["verdicts"]


class TestVariance:
    def test_fit_against_theory(self, tmp_path):
        status = run_cli("variance", "--tau", "1", "--steps", "400", "--out", str(tmp_path))
        assert status == 0
        payload = json.loads((tmp_path / "variance.json").read_text())
        assert abs(payload["metrics"]["alpha_fit"] - 2.0) < 0.05
        c_fit, c_theory = payload["metrics"]["c_fit"], payload["metrics"]["c_theory"]
        assert abs(c_fit - c_theory) / c_theory < 0.10


class TestVerify:
    def test_default_battery_passes(self, tmp_path):
        status = run_cli("verify", "--tau", "1", "--steps", "200", "--out", str(tmp_path))
        assert status == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"] is True
        assert payload["verdicts"]
        for verdict in payload["verdicts"]:
            assert set(verdict) == {"name", "measured", "tolerance", "passed"}

    def test_csv_lists_checks(self, tmp_path):
        run_cli("verify", "--tau", "2", "--steps", "64", "--out", str(tmp_path))
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[0] == ["check", "measured", "tolerance", "passed"]
        assert all(r[3] == "true" for r in rows[1:])


def readme_cli_examples() -> list[list[str]]:
    """The ``lqw ...`` lines of the sh block under "## CLI" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lqw ")]


class TestReadmeExamples:
    def test_examples_found(self):
        assert [argv[0] for argv in readme_cli_examples()] == [
            "simulate", "localize", "density", "variance", "verify"]

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
    def test_example_exits_0_and_writes_both(self, argv, tmp_path):
        out = argv.index("--out") + 1
        argv = argv[:out] + [str(tmp_path)] + argv[out + 1:]
        assert run_cli(*argv) == 0
        assert (tmp_path / f"{argv[0]}.csv").is_file()
        assert (tmp_path / f"{argv[0]}.json").is_file()


def readme_library_sketch() -> str:
    """The python block under "## Library sketch" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


class TestReadmeLibrarySketch:
    def test_sketch_runs(self):
        namespace = {}
        exec(compile(readme_library_sketch(), "README.md", "exec"), namespace)
        assert namespace["state"].t == 50


class TestMisc:
    def test_numpy_is_the_only_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert [re.match(r"[\w-]+", d).group() for d in project["dependencies"]] == ["numpy"]
        assert "scipy" in [re.match(r"[\w-]+", d).group()
                           for d in project["optional-dependencies"]["test"]]

    def test_runs_without_scipy(self, tmp_path):
        # numpy is the only runtime dependency: scipy is made unimportable
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from lqw.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "for argv in (['simulate', '--steps', '20'], ['density'], ['verify', '--steps', '20']):\n"
            "    status = main([*argv, '--tau', '10', '--out', out])\n"
            "    assert status == 0, (argv, status)\n"
        )
        src = Path(lqw.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "density.csv", "density.json", "simulate.csv", "simulate.json",
            "verify.csv", "verify.json"]

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # main parses with the parser built as lqw.cli loads; a usage error or
        # --version exits through it, and the next call must parse as a first
        # call, on a new parser, does
        calls = (("simulate", "--tau", "3", "--steps", "30"),
                 ("simulate", "--tau", "3", "--steps", "0"),
                 ("--version",),
                 ("variance", "--tau", "2", "--steps", "100", "--alpha", "0.6", "--beta", "0.8"))

        def call(index, argv):
            out = tmp_path / str(index)
            status = run_cli(*argv, "--out", str(out)) if len(argv) > 1 else run_cli(*argv)
            artifacts = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
            for path in out.glob("*"):
                path.unlink()
            return status, capsys.readouterr(), artifacts

        first = []
        for index, argv in enumerate(calls):
            with monkeypatch.context() as patch:
                patch.setattr(lqw.cli, "_PARSER", lqw.cli.build_parser())
                first.append(call(index, argv))

        def never():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(lqw.cli, "build_parser", never)
        again = [call(index, argv) for index, argv in enumerate(calls)]
        assert [status for status, _, _ in first] == [0, 2, 0, 0]
        assert first[1][1].err.endswith("must be >= 1, got 0\n")
        assert first[2][1].out == f"lqw {lqw.__version__}\n"
        assert sorted(first[3][2]) == ["variance.csv", "variance.json"]
        assert again == first

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_version_exits_zero(self):
        assert run_cli("--version") == 0

    def test_missing_subcommand_exits_2(self):
        assert run_cli() == 2

    def test_every_exported_name_resolves(self):
        missing = [name for name in lqw.__all__ if not hasattr(lqw, name)]
        assert lqw.__all__ and not missing
        assert len(set(lqw.__all__)) == len(lqw.__all__)
