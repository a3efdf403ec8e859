"""Bulk CSV number text: the bytes of ``repr`` for every float64, of ``str`` for every int."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lqw.cli
from lqw._floatfmt import BlockFormatter, is_numeric

INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def cells(values: np.ndarray) -> list[str]:
    """The text of each value of a one-column table, through the bulk formatter."""
    lines = []
    for start in range(0, len(values), 8192):
        block = values[start:start + 8192]
        lines += BlockFormatter([block], len(block))([block]).split("\r\n")[:-1]
    return lines


def written_lines(*columns) -> list[str]:
    """The data lines ``cli._write_csv`` writes for these columns, in bulk or cell by cell."""
    report = lqw.ExperimentReport(experiment="ints", config={},
                                  columns=tuple("abcd"[:len(columns)]), table=columns)
    fh = io.StringIO(newline="")
    lqw.cli._write_csv(fh, report)
    return fh.getvalue().split("\r\n")[1:-1]


def assert_repr(values) -> None:
    values = np.asarray(values, np.float64)
    got, expected = cells(values), [repr(v) for v in values.tolist()]
    wrong = [(g, e) for g, e in zip(got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    assert_repr(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    assert_repr(np.array(patterns, np.uint64).view(np.float64))


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(20180618)
    assert_repr(rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False).view(np.float64))


def test_powers_of_two_and_their_neighbours():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_repr(with_neighbours(np.concatenate([powers, -powers])))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    assert_repr(with_neighbours(with_neighbours(powers)))


@pytest.mark.parametrize("value", [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), -float("inf"), float("nan"),
    1e-4, 9.999999999999999e-05, 1e-05, 1e16, 9999999999999998.0, 1e15, 123456789012345.6,
    0.1, 0.3, 2.0**53, 2.0**53 + 2, 1125899906842624.2, 0.5, 100.0,
])
def test_edge_values(value):
    assert_repr([value])


def test_integers_up_to_2_to_the_53():
    values = np.concatenate([np.arange(0, 10**5), 2**53 - np.arange(0, 10**5),
                             np.logspace(0, 53, 1000, base=2).round()]).astype(np.float64)
    assert_repr(np.concatenate([values, -values]))


def test_subnormals():
    rng = np.random.default_rng(5)
    patterns = np.concatenate([np.arange(1, 10**5), rng.integers(1, 2**52, 10**5)])
    assert_repr(patterns.astype(np.uint64).view(np.float64))


def test_short_decimals_at_every_scale():
    rng = np.random.default_rng(7)
    digits, exponents = rng.integers(1, 10**6, 10**4), rng.integers(-330, 310, 10**4)
    assert_repr([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
def test_integer_columns_match_str(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(3)
    values = np.concatenate([
        np.array([info.min, info.min + 1, info.max - 1, info.max, 0, 1, 9, 10, 99, 100],
                 dtype),
        rng.integers(info.min, info.max, 1000, dtype=dtype, endpoint=True)])
    assert written_lines(values) == [str(v) for v in values.tolist()]


def test_int64_extremes_and_every_digit_count():
    powers = [10**e for e in range(19)]
    values = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max]
                      + powers + [-p for p in powers] + [p - 1 for p in powers]
                      + [1 - p for p in powers], np.int64)
    assert written_lines(values) == [str(v) for v in values.tolist()]


def test_mixed_columns_make_csv_lines():
    ints = np.array([-3, 0, 2**62], np.int64)
    unsigned = np.array([2**64 - 1, 0, 7], np.uint64)
    floats = np.array([float("nan"), -0.0, 1e-7])
    lines = written_lines(floats, ints, unsigned, floats[::-1].copy())
    assert lines == [f"{a!r},{b},{c},{d!r}" for a, b, c, d in
                     zip(floats.tolist(), ints.tolist(), unsigned.tolist(), floats[::-1].tolist())]


@pytest.mark.parametrize("dtype", INTEGER_DTYPES)
def test_integers_within_2_to_the_53_match_str(dtype):
    info = np.iinfo(dtype)
    low, high = max(info.min, -2**53), min(info.max, 2**53)
    edges = [0, 1, -1, 2**53 - 1, 1 - 2**53, 2**53, -2**53] + [
        s * (10**e + d) for e in range(16) for d in (-1, 0) for s in (1, -1)]
    rng = np.random.default_rng(11)
    values = np.concatenate([np.array([v for v in edges if low <= v <= high], dtype),
                             rng.integers(low, high, 1000, dtype=dtype, endpoint=True)])
    assert is_numeric(values)
    assert cells(values) == [str(v) for v in values.tolist()]


def test_int_and_float_columns_in_one_block():
    ints = np.array([-3, 0, 2**53, -2**53, 10**15], np.int64)
    unsigned = np.array([2**53, 0, 7, 1, 10**15 - 1], np.uint64)
    floats = np.array([float("nan"), -0.0, 1e-7, 1e16, 123.0])
    block = [floats, ints, unsigned, floats[::-1].copy()]
    text = BlockFormatter(block, 8)(block)
    assert text == "".join(f"{a!r},{b},{c},{d!r}\r\n" for a, b, c, d in
                           zip(floats.tolist(), ints.tolist(), unsigned.tolist(),
                               floats[::-1].tolist()))


@pytest.mark.parametrize("edge", [2**53, -2**53])
def test_ints_beyond_2_to_the_53_go_cell_by_cell(edge, monkeypatch):
    cells_formatted, fmt_cell = [], lqw.cli._fmt_cell

    def counted(value):
        cells_formatted.append(value)
        return fmt_cell(value)

    monkeypatch.setattr(lqw.cli, "_fmt_cell", counted)
    for beyond in (False, True):
        values = np.arange(8)
        values[0] = edge + beyond * (1 if edge > 0 else -1)
        cells_formatted.clear()
        assert is_numeric(values) is not beyond
        assert written_lines(values) == [str(v) for v in values.tolist()]
        assert bool(cells_formatted) is beyond


def test_one_formatter_serves_blocks_of_any_length_up_to_its_rows():
    xs = np.linspace(-1.0, 1.0, 10)
    formatter = BlockFormatter([xs], 4)
    text = "".join(formatter([xs[start:start + 4]]) for start in range(0, 10, 4))
    assert text == "".join(f"{x!r}\r\n" for x in xs.tolist())
