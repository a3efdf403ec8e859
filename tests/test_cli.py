"""CLI: complex-literal grammar, subcommand artifacts, exit codes."""

import csv
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lqw
from lqw import ComplexParseError
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
        "text", ["", "   ", "1+", "widget", "1+2", "i+1", "1+2i+3i", "1/", "/2", "1/i", "ii", "sqrt(-2)"]
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


class TestUsageErrors:
    def test_tau_zero_exits_2_writes_nothing(self, tmp_path, capsys):
        status = run_cli("simulate", "--tau", "0", "--steps", "10", "--out", str(tmp_path))
        assert status == 2
        assert "tau" in capsys.readouterr().err
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

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run_cli("simulate", "--tau", "1", "--bogus", "1") == 2

    def test_too_few_steps_exits_2_without_files(self, tmp_path):
        status = run_cli("simulate", "--tau", "1", "--steps", "3", "--out", str(tmp_path))
        assert status == 2
        assert list(tmp_path.iterdir()) == []


class TestLocalize:
    def test_series_and_reference(self, tmp_path):
        status = run_cli("localize", "--tau", "1", "--steps", "200", "--out", str(tmp_path))
        assert status == 0
        rows = read_csv(tmp_path / "localize.csv")
        assert rows[0] == ["t", "origin_probability", "reference"]
        assert len(rows) == 201
        payload = json.loads((tmp_path / "localize.json").read_text())
        assert payload["metrics"]["reference"] == pytest.approx(0.2020410288672876, rel=1e-12)

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

    def test_quad_nodes_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LQW_QUAD_NODES", "512")
        assert run_cli("density", "--tau", "2", "--out", str(tmp_path)) == 0
        monkeypatch.setenv("LQW_QUAD_NODES", "zero")
        assert run_cli("density", "--tau", "2", "--out", str(tmp_path)) == 2


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


class TestMisc:
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
