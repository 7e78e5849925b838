"""CSV writers for paths, solutions, and rate tables, and the path reader.

All floats are written with the %.17g format: 17 significant digits, which
is not the shortest form (0.1 is written 0.10000000000000001) but
round-trips bitwise through float(), so rerunning an experiment with the
same seed reproduces the artifact byte for byte.  No timestamps or other
non-deterministic fields are ever written.

The writers share one block writer, ``_write_rows``: it writes the header
line, then the rows in blocks of at most ``_BLOCK_ROWS``.  A writer hands
it its columns as groups that move together (t; x or z; k1..kd with
kvar).  In each block, a group whose rows repeat the row above, bit for
bit, in at least half of the block is formatted once per run of equal
rows, and each row's run text is spliced into the block's row template
as %s: between projections, k and its variation do not move (Lemma 1),
nor does a pure-jump driver between its jumps.  A run that crosses a
block edge is formatted again in the next block.  Other groups go inline,
and the whole block is then formatted with one ``%`` over the repeated
row template.  Comparing bits, not values, keeps -0.0 after 0.0 a new
run.  '%.17g' already writes nan, inf and -inf, and no token it writes
needs CSV quoting, so the bytes are those of a per-value format and
``csv.writer`` loop.  The block bound keeps the stacked copies and the
block's text small next to the arrays being written.

Given a filesystem path, a writer streams its blocks to the file, so the
whole text is never held in memory; the command line writes ``path.csv``
and ``solution.csv`` this way.  Every writer validates its input before
it opens the file, so input it rejects with CsvFormatError leaves no file
behind.  The ``*_csv_text`` helpers return the whole text as one string,
for small tables (``rate.csv``) and for tests.
"""

import contextlib
import csv
import io
import os

import numpy as np

from .driver import CADLAG_STEP, GridPath
from .errors import CsvFormatError

FLOAT_FMT = "%.17g"

_BLOCK_ROWS = 1024


@contextlib.contextmanager
def _opened(fh, mode):
    """Accept either an open text handle or a filesystem path."""
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, mode, newline="") as handle:
            yield handle
    else:
        yield fh


def _run_starts(bits):
    """Rows of a block that start a run, or None if the group moves often.

    ``bits`` is one column group's block viewed as int64, so that -0.0
    after 0.0, or one NaN after another with other bits, starts a run.
    The block's first row always starts one.  When fewer than half of the
    rows repeat the row above, the group is formatted inline: None.
    """
    new = np.zeros(len(bits) - 1, dtype=bool)
    for column in bits.T:   # faster than any(axis=1) on a few columns
        new |= column[1:] != column[:-1]
    if 2 * (len(new) - np.count_nonzero(new)) < len(bits):
        return None
    return np.concatenate(([True], new))


def _write_rows(handle, header, groups):
    """Write the header line, then one line per row of the column groups.

    ``groups`` is a sequence of (cell_format, arrays): a group's arrays
    (1-d columns or 2-d column blocks) share the first axis with every
    other group's, and each of its cells is written with cell_format.
    """
    handle.write(",".join(header) + "\n")
    n = len(groups[0][1][0])
    for start in range(0, n, _BLOCK_ROWS):
        fields = []
        formats = []
        for cell_format, arrays in groups:
            block = np.column_stack([a[start:start + _BLOCK_ROWS]
                                     for a in arrays])
            group_format = ",".join([cell_format] * block.shape[1])
            starts = _run_starts(block.view(np.int64))
            if starts is None:
                fields.append(block)
                formats.append(group_format)
                continue
            heads = block[starts]
            text = ((group_format + "\n") * len(heads)
                    % tuple(heads.ravel().tolist()))
            runs = np.array(text.split("\n")[:-1], dtype=object)
            fields.append(runs[np.cumsum(starts) - 1, None])
            formats.append("%s")
        rows = np.hstack(fields)
        handle.write((",".join(formats) + "\n") * len(rows)
                     % tuple(rows.ravel().tolist()))


def _parse_float(token, where):
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError("bad float %r in %s" % (token, where))


def write_path_csv(fh, path):
    """Write a driver path as rows t,z1..zd,is_jump.

    is_jump is 1 on rows whose time carries a jump of the path and 0
    otherwise.  The jump vector itself is recoverable as the difference
    from the previous row only when no diffusion moves at the same
    instant, which is the convention used by read_path_csv.
    """
    d = path.dimension
    header = ["t"] + ["z%d" % (i + 1) for i in range(d)] + ["is_jump"]
    # GridPath holds each jump time as one of its grid times
    is_jump = np.zeros(len(path.times))
    is_jump[np.searchsorted(path.times, path.jump_times)] = 1.0
    with _opened(fh, "w") as handle:
        _write_rows(handle, header, [(FLOAT_FMT, [path.times]),
                                     (FLOAT_FMT, [path.values]),
                                     ("%d", [is_jump])])


def read_path_csv(fh, interp=CADLAG_STEP):
    """Read a path written by write_path_csv back into a GridPath.

    Jump vectors are reconstructed as the difference between the flagged
    row and the row before it.  For a pure-jump path this is exact; when
    a diffusion increment shares the cell the reconstruction folds that
    increment into the jump, which is an accepted approximation of this
    text format.
    """
    times = []
    values = []
    flags = []
    with _opened(fh, "r") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty path file")
        if header[0] != "t" or header[-1] != "is_jump":
            raise CsvFormatError("path header must be t,z1..zd,is_jump")
        d = len(header) - 2
        if d < 1 or header[1:-1] != ["z%d" % (i + 1) for i in range(d)]:
            raise CsvFormatError("path header must be t,z1..zd,is_jump")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise CsvFormatError("row %d has %d fields, expected %d"
                                     % (ln, len(row), d + 2))
            where = "row %d" % ln
            times.append(_parse_float(row[0], where))
            values.append([_parse_float(tok, where) for tok in row[1:-1]])
            if row[-1] not in ("0", "1"):
                raise CsvFormatError("is_jump must be 0 or 1 in row %d" % ln)
            flags.append(row[-1] == "1")
    if not times:
        raise CsvFormatError("path file has no data rows")
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    jt = []
    jv = []
    for i, flagged in enumerate(flags):
        if not flagged:
            continue
        if i == 0:
            raise CsvFormatError("first row cannot be a jump row")
        jt.append(times[i])
        jv.append(values[i] - values[i - 1])
    jump_times = np.asarray(jt, dtype=float).reshape(len(jt))
    jump_values = (np.asarray(jv, dtype=float).reshape(len(jt), d)
                   if jt else np.zeros((0, d)))
    return GridPath(times=times, values=values, interp=interp,
                    jump_times=jump_times, jump_values=jump_values)


def write_solution_csv(fh, x, k, k_variation):
    """Write a reflected solution as rows t,x1..xd,k1..kd,kvar."""
    if x.values.shape != k.values.shape:
        raise CsvFormatError("x and k must share a grid and dimension")
    d = x.dimension
    header = (["t"]
              + ["x%d" % (i + 1) for i in range(d)]
              + ["k%d" % (i + 1) for i in range(d)]
              + ["kvar"])
    kvar = np.asarray(k_variation, dtype=float)
    if kvar.shape != x.times.shape:
        raise CsvFormatError("k_variation must hold one value per grid time")
    with _opened(fh, "w") as handle:
        _write_rows(handle, header, [(FLOAT_FMT, [x.times]),
                                     (FLOAT_FMT, [x.values]),
                                     (FLOAT_FMT, [k.values, kvar])])


RATE_HEADER = ["mesh", "err_unif_med", "err_unif_p90", "err_grid_med",
               "k_err_med", "slope_partial"]


def write_rate_csv(fh, rows):
    """Write a convergence table as rows of RATE_HEADER fields.

    rows is an iterable of mappings holding the header keys; missing or
    None entries are written as nan.
    """
    # a float array holds None as nan
    table = np.array([[row.get(key) for key in RATE_HEADER] for row in rows],
                     dtype=float)
    with _opened(fh, "w") as handle:
        _write_rows(handle, RATE_HEADER,
                    [(FLOAT_FMT, [table.reshape(-1, len(RATE_HEADER))])])


def path_csv_text(path):
    buf = io.StringIO()
    write_path_csv(buf, path)
    return buf.getvalue()


def solution_csv_text(x, k, k_variation):
    buf = io.StringIO()
    write_solution_csv(buf, x, k, k_variation)
    return buf.getvalue()


def rate_csv_text(rows):
    buf = io.StringIO()
    write_rate_csv(buf, rows)
    return buf.getvalue()
