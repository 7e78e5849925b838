"""Byte identity of the block CSV writers with a per-value reference."""

import csv
import io

import numpy as np
import pytest

from reflectsde import csvio
from reflectsde.csvio import (read_path_csv, read_solution_csv,
                              write_path_csv, write_rate_csv,
                              write_solution_csv)
from reflectsde.driver import GridPath

# ---------------------------------------------------------------------------
# reference writers: one '%.17g' per value, one csv.writer row per line


def _ref_fmt(value):
    value = float(value)
    if np.isnan(value):
        return "nan"
    return "%.17g" % value


def _ref_path_csv(path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + ["z%d" % (i + 1) for i in range(path.dimension)]
                    + ["is_jump"])
    jump_times = set(float(t) for t in path.jump_times)
    for i, t in enumerate(path.times):
        row = [_ref_fmt(t)]
        row.extend(_ref_fmt(v) for v in path.values[i])
        row.append("1" if float(t) in jump_times else "0")
        writer.writerow(row)
    return buf.getvalue()


def _ref_solution_csv(x, k, k_variation):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    d = x.dimension
    writer.writerow(["t"] + ["x%d" % (i + 1) for i in range(d)]
                    + ["k%d" % (i + 1) for i in range(d)] + ["kvar"])
    for i, t in enumerate(x.times):
        row = [_ref_fmt(t)]
        row.extend(_ref_fmt(v) for v in x.values[i])
        row.extend(_ref_fmt(v) for v in k.values[i])
        row.append(_ref_fmt(k_variation[i]))
        writer.writerow(row)
    return buf.getvalue()


def _ref_rate_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csvio.RATE_HEADER)
    for row in rows:
        writer.writerow(["nan" if row.get(key) is None else _ref_fmt(row[key])
                         for key in csvio.RATE_HEADER])
    return buf.getvalue()


def _text(writer, *args):
    buf = io.StringIO()
    writer(buf, *args)
    return buf.getvalue()


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
ROW_COUNTS = [1, csvio._BLOCK_ROWS, csvio._BLOCK_ROWS + 1]


def _values(n, d, seed):
    """n x d values mixing random normals with every SPECIAL value."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, (n, d))
    flat = values.reshape(-1)
    flat[:len(SPECIAL)] = SPECIAL[:len(flat)]
    # and the special values again in the block's last and first rows
    flat[-min(len(SPECIAL), len(flat)):] = SPECIAL[:len(flat)][::-1]
    return values


def _times(n):
    # 5e-324 as the second time also checks the smallest subnormal time
    times = np.arange(n, dtype=float) / 7.0
    if n > 1:
        times[1] = 5e-324
    return times


def _path(n, d, seed, jumps):
    times = _times(n)
    jump_rows = [i for i in (1, 2, n // 2, n - 1) if 0 < i < n]
    jump_rows = sorted(set(jump_rows))[:jumps]
    jt = times[jump_rows]
    jv = np.ones((len(jt), d))
    return GridPath(times, _values(n, d, seed), jump_times=jt,
                    jump_values=jv if len(jt) else np.zeros((0, d)))


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_path_csv_matches_per_value_writer(n, d):
    for jumps in (0, 4):
        path = _path(n, d, seed=10 * n + d, jumps=jumps)
        text = _text(write_path_csv, path)
        assert text == _ref_path_csv(path)
        flags = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert flags.count("1") == len(path.jump_times)
        assert csvio.path_csv_text(path) == text


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_solution_csv_matches_per_value_writer(n, d):
    times = _times(n)
    x = GridPath(times, _values(n, d, seed=n + d))
    k = GridPath(times, _values(n, d, seed=n + d + 1))
    kvar = _values(n, 1, seed=n + d + 2)[:, 0]
    text = _text(write_solution_csv, x, k, kvar)
    assert text == _ref_solution_csv(x, k, kvar)
    assert csvio.solution_csv_text(x, k, kvar) == text


def test_solution_csv_rejects_a_short_variation():
    x = GridPath(_times(3), np.zeros((3, 2)))
    with pytest.raises(csvio.CsvFormatError):
        write_solution_csv(io.StringIO(), x, x, np.zeros(2))


def test_rejected_solution_creates_no_file(tmp_path):
    """The writer validates before it opens the file: a short k-variation,
    or x and k of different shapes, raise and leave no file behind."""
    x = GridPath(_times(3), np.zeros((3, 2)))
    k = GridPath(_times(3), np.zeros((3, 1)))
    target = tmp_path / "solution.csv"
    with pytest.raises(csvio.CsvFormatError):
        write_solution_csv(target, x, x, np.zeros(2))
    with pytest.raises(csvio.CsvFormatError):
        write_solution_csv(str(target), x, k, np.zeros(3))
    assert not target.exists()


def test_rate_csv_matches_per_value_writer():
    rows = [
        {key: v for key, v in zip(csvio.RATE_HEADER, SPECIAL)},
        {key: None for key in csvio.RATE_HEADER},
        {"mesh": 0.25, "err_unif_med": np.float64(0.1), "k_err_med": 3,
         "extra": "ignored"},
    ] + [{key: float(v) for key, v in zip(csvio.RATE_HEADER, row)}
         for row in _values(csvio._BLOCK_ROWS, len(csvio.RATE_HEADER), 5)]
    for subset in (rows, rows[:1], []):
        text = _text(write_rate_csv, subset)
        assert text == _ref_rate_csv(subset)
        assert csvio.rate_csv_text(subset) == text


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_writers_round_trip(tmp_path, d):
    n = csvio._BLOCK_ROWS + 1
    path = _path(n, d, seed=d, jumps=4)
    write_path_csv(tmp_path / "path.csv", path)
    back = read_path_csv(tmp_path / "path.csv")
    assert back.times.tobytes() == path.times.tobytes()
    assert back.values.tobytes() == path.values.tobytes()
    assert back.jump_times.tobytes() == path.jump_times.tobytes()

    k = GridPath(path.times, _values(n, d, seed=d + 1))
    kvar = _values(n, 1, seed=d + 2)[:, 0]
    write_solution_csv(tmp_path / "solution.csv", path, k, kvar)
    x2, k2, kvar2 = read_solution_csv(tmp_path / "solution.csv")
    assert x2.values.tobytes() == path.values.tobytes()
    assert k2.values.tobytes() == k.values.tobytes()
    assert kvar2.tobytes() == kvar.tobytes()
