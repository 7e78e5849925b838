"""Byte identity of the block CSV writers with a per-value reference."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflectsde import csvio
from reflectsde.csvio import (read_path_csv, write_path_csv, write_rate_csv,
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
    table = np.loadtxt(tmp_path / "solution.csv", delimiter=",", skiprows=1,
                       ndmin=2)
    assert table[:, 0].tobytes() == path.times.tobytes()
    assert table[:, 1:1 + d].tobytes() == path.values.tobytes()
    assert table[:, 1 + d:1 + 2 * d].tobytes() == k.values.tobytes()
    assert table[:, -1].tobytes() == kvar.tobytes()


# ---------------------------------------------------------------------------
# rows that repeat the row above, in runs that cross block edges


def _runs(n, d, bounds, seed, values=None):
    """(n, d) rows, constant on [bounds[i], bounds[i + 1]) and new at each
    bound; ``values`` are used in order for the runs' rows when given."""
    rng = np.random.default_rng(seed)
    edges = [0] + sorted(set(bounds) - {0, n}) + [n]
    out = np.empty((n, d))
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        out[a:b] = (rng.standard_normal(d) if values is None
                    else values[i % len(values)])
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_k_runs_across_block_edges_match_per_value_writer(d):
    """k and kvar move together in runs that start at row 0, cross the
    first two block edges, and end at the last row."""
    b = csvio._BLOCK_ROWS
    n = 2 * b + 37
    bounds = [3, b - 5, b + 2, b + 3, 2 * b - 1, n - 1]
    times = _times(n)
    x = GridPath(times, _values(n, d, seed=d))
    kk = _runs(n, d + 1, bounds, seed=d)
    k, kvar = GridPath(times, kk[:, :d]), kk[:, d]
    text = _text(write_solution_csv, x, k, kvar)
    assert text == _ref_solution_csv(x, k, kvar)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_signed_zeros_nan_and_inf_runs_match_per_value_writer(d):
    """Runs of 0.0 and -0.0 side by side, of NaNs of other bits (all
    written nan), and of inf and -inf."""
    quiet, other = np.float64(np.nan), np.int64(0x7ff8000000000001).view(
        np.float64)
    values = [0.0, -0.0, 0.0, quiet, other, quiet, np.inf, -np.inf, np.inf,
              -0.0, 5e-324]
    n = csvio._BLOCK_ROWS + 200
    bounds = list(range(90, n, 90))
    times = _times(n)
    x = GridPath(times, _runs(n, d, bounds, seed=1, values=values))
    kk = _runs(n, d + 1, bounds[1:], seed=2, values=values[::-1])
    k = GridPath(times, kk[:, :d])
    assert (_text(write_solution_csv, x, k, kk[:, d])
            == _ref_solution_csv(x, k, kk[:, d]))


@pytest.mark.parametrize("repeats", [csvio._BLOCK_ROWS // 2 - 1,
                                     csvio._BLOCK_ROWS // 2])
def test_half_threshold_blocks_match_per_value_writer(repeats):
    """One block whose x repeats its first row just under, or at, half of
    the block."""
    n = csvio._BLOCK_ROWS
    times = _times(n)
    values = _values(n, 2, seed=repeats)
    values[1:repeats + 1] = values[0]
    x = GridPath(times, values)
    k = GridPath(times, _values(n, 2, seed=3))
    kvar = _values(n, 1, seed=4)[:, 0]
    assert (_text(write_solution_csv, x, k, kvar)
            == _ref_solution_csv(x, k, kvar))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pure_jump_path_matches_per_value_writer(d):
    """A pure-jump driver's z is constant between its jumps, which fall
    inside blocks, on a block edge and on the last row."""
    b = csvio._BLOCK_ROWS
    n = 2 * b + 11
    jump_rows = [0, 5, b // 2 + 1, b, b + b // 2 - 1, n - 1]
    times = _times(n)
    values = _runs(n, d, jump_rows, seed=d)
    values[:5] = 0.0
    jt = times[jump_rows[1:]]
    jv = values[jump_rows[1:]] - values[np.array(jump_rows[1:]) - 1]
    path = GridPath(times, values, jump_times=jt, jump_values=jv)
    assert _text(write_path_csv, path) == _ref_path_csv(path)


FLOATS = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def run_structured(draw):
    """Rows made of runs: (n, d) x, (n, d + 1) k with kvar, and a block
    size small enough to put block edges inside the runs."""
    d = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    n = sum(lengths)
    groups = []
    for width in (d, d + 1):
        row = st.lists(FLOATS, min_size=width, max_size=width)
        moving = draw(st.booleans())
        rows = []
        for length in lengths:
            rows += ([draw(row) for _ in range(length)] if moving
                     else [draw(row)] * length)
        groups.append(np.array(rows, dtype=float).reshape(n, width))
    return d, groups[0], groups[1], draw(st.sampled_from([1, 2, 3, 7, 1024]))


@settings(max_examples=150, deadline=None)
@given(run_structured())
def test_run_structured_rows_match_per_value_writer(case):
    d, xs, kk, block_rows = case
    times = _times(len(xs))
    x, k = GridPath(times, xs), GridPath(times, kk[:, :d])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_BLOCK_ROWS", block_rows)
        text = _text(write_solution_csv, x, k, kk[:, d])
        jumps = len(times) > 1
        path = GridPath(times, xs, jump_times=times[-1:] if jumps else [],
                        jump_values=np.ones((int(jumps), d)))
        path_text = _text(write_path_csv, path)
    assert text == _ref_solution_csv(x, k, kk[:, d])
    assert path_text == _ref_path_csv(path)


# ---------------------------------------------------------------------------
# the bulk '%.17g' kernel against Python's '%.17g', cell by cell


def _column_text(values):
    """The text a writer gives ``values`` as one column, header aside."""
    buf = io.StringIO()
    csvio._write_rows(buf, ["v"], [values])
    return buf.getvalue()[len("v\n"):]


def _assert_cells_match(values):
    values = np.asarray(values, dtype=float).tolist()
    got = _column_text(np.array(values))
    if got != ("%.17g\n" * len(values)) % tuple(values):
        cells = got.split("\n")[:-1]
        bad = [(v, g, "%.17g" % v) for v, g in zip(values, cells)
               if g != "%.17g" % v]
        assert len(cells) == len(values) and bad == [], bad[:5]


def _ulps(values, n):
    """values and their neighbours up to n ulps away on both sides."""
    out = [values]
    up = down = values
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_kernel_cells_of_random_bit_patterns():
    rng = np.random.default_rng(14)
    bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64, endpoint=False)
    _assert_cells_match(bits.view(np.float64))


def test_kernel_cells_of_log_uniform_magnitudes():
    """The kernel's whole range, 1e-4 <= |x| < 1e16, in both signs."""
    rng = np.random.default_rng(15)
    values = 10.0 ** rng.uniform(-4.0, 16.0, 150000)
    values[::2] *= -1.0
    _assert_cells_match(values)


def test_kernel_cells_around_powers_of_ten():
    """Where log10 may misjudge the exponent, and the ends of the range."""
    powers = 10.0 ** np.arange(-6, 18)
    values = _ulps(np.concatenate((powers, [1e-4, 1e16])), 2)
    _assert_cells_match(np.concatenate((values, -values)))


def test_kernel_cells_of_constructed_ties():
    """M / 2**j with 2**52 <= M < 2**53: values whose 18th significant
    digit is often an exact 5, so rounding must go half to even."""
    rng = np.random.default_rng(16)
    mantissas = rng.integers(2 ** 52, 2 ** 53, 3000).astype(np.float64)
    values = np.concatenate([np.ldexp(mantissas, -j) for j in range(1, 13)])
    # '%.30e' is exact here; a tie has the 18th digit 5 and zeros after it
    digits = [("%.30e" % v).replace(".", "")[:31] for v in values.tolist()]
    assert sum(d[17:] == "5" + "0" * 13 for d in digits) > 1000
    _assert_cells_match(np.concatenate((values, -values)))


def test_kernel_cells_of_integers():
    values = np.concatenate((np.arange(2.0 ** 20),
                             2.0 ** 53 - np.arange(1.0, 1001.0)))
    _assert_cells_match(values)


def test_kernel_cells_of_zeros_subnormals_nan_and_inf():
    payload = np.array([0x7FF8000000000001, 0xFFF0000000000123],
                       dtype=np.uint64).view(np.float64)
    values = np.concatenate((
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], payload,
        [5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
         2.2250738585072014e-308, 1.7976931348623157e308]))
    _assert_cells_match(np.tile(values, 3))
    assert _column_text(payload) == "nan\nnan\n"
