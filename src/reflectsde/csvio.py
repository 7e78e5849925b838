"""CSV writers for paths, solutions, and rate tables, and the path reader.

All floats are written as Python's %.17g writes them: 17 significant
digits, which is not the shortest form (0.1 is written 0.10000000000000001)
but round-trips bitwise through float(), so rerunning an experiment with
the same seed reproduces the artifact byte for byte.  No timestamps or
other non-deterministic fields are ever written.

The writers share one block writer, ``_write_rows``: it writes the header
line, then the rows in blocks of at most ``_BLOCK_ROWS``.  All cells of a
block go through one call of a numpy kernel (``_format_cells``) that
writes each as a row of bytes.  It covers 1e-4 <= |x| < 1e16, where
%.17g writes fixed notation: an error-free two-product (Dekker, 1971)
gives |x| * 10**(16 - X) exactly as hi + lo, so the 17 digits are rounded
half to even as %.17g rounds them, and 10 000-entry tables of ASCII
digits lay them out.  Zeros, NaNs (of any payload, written nan) and
infinities share fixed rows; every other cell (|x| < 1e-4 or >= 1e16,
subnormals) goes through Python's % one at a time.  is_jump is a float
column too: %.17g writes its 0.0 and 1.0 as 0 and 1.  Separators go in at
fixed places, and the block's text is its rows with their NUL padding
dropped, so the bytes are those of a per-value %.17g and ``csv.writer``
loop: no token written needs CSV quoting.  The block bound keeps the
kernel's arrays and the block's text small next to the arrays being
written.

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

# A cell row is 28 bytes: the cell's text among NUL bytes, which are
# dropped from a block's text as it is written, then at byte 24 the
# separator that follows the cell.  A Python-formatted text (at most 24
# characters: '-1.7976931348623157e+308') starts at byte 0.  A text of
# ``_fixed_rows`` has its last digit at byte 23 at most, and its sign,
# '0.' and zeros before the digits at bytes 1..6.
_WIDTH = 28
_SEPARATOR = 24
_SPLIT = 134217729.0   # 2**27 + 1, Veltkamp's splitter for float64
# 10**k is a float64 exactly for k <= 22; each is split for the two-product
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _text_rows(texts):
    """The cell rows of Python-formatted texts."""
    rows = np.zeros((len(texts), _WIDTH), dtype=np.uint8)
    for i, text in enumerate(texts):
        rows[i, :len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    return rows


def _digit_words():
    """Little-endian uint32 words of a ``_fixed_rows`` row, by its key
    k = X + 4 + 20 * sign: bytes 0..3; bytes 4..7 by 400 z + 10 k + the
    leading digit, with z = 1 when the other 16 digits are zeros; and the
    ASCII digits of 0..9999, then the same with their trailing '0' digits
    NUL (all four for 0)."""
    # bytes 0..7: the sign, '0.' and the zeros of X < 0 before the leading
    # digit at byte 7; of X = 0 the sign, the leading digit at byte 6, and
    # '.' at byte 7 unless no digit follows; of X >= 1 the sign at byte 5
    # and the leading digit at byte 7
    before = np.zeros((2, 40, 10, 8), dtype=np.uint8)
    for k in range(40):
        exponent, sign = k % 20 - 4, b"-" * (k // 20)
        if exponent < 0:
            text = sign + b"0." + b"0" * (-1 - exponent)
            before[:, k, :, 7 - len(text):7] = np.frombuffer(text, np.uint8)
        else:
            before[:, k, :, 5] = 45 if sign else 0
        lead = 6 if exponent == 0 else 7
        before[:, k, :, lead] = 48 + np.arange(10)
        if exponent == 0:
            before[0, k, :, 7] = 46
    n = np.arange(10000, dtype=np.uint16)
    digits = np.empty((2, 10000, 4), dtype=np.uint8)
    for i in range(4):
        digits[:, :, i] = 48 + n // 10 ** (3 - i) % 10
        # a trailing zero: this digit and the ones after it are zeros
        digits[1, n % 10 ** (4 - i) == 0, i] = 0
    words = before.view("<u4")
    return (words[0, :, 0, 0].copy(), words[..., 1].ravel(),
            digits.view("<u4").ravel())


_PREFIX_WORDS, _LEAD_WORDS, _DIGIT_WORDS = _digit_words()
_SPECIAL_TEXTS = ["0", "-0", "nan", "inf", "-inf"]
_SPECIAL_ROWS = _text_rows(_SPECIAL_TEXTS)


def _fixed_digits(a):
    """|x| of 1e-4 <= |x| < 1e16 as the 17 significant digits '%.17g'
    rounds it to: (D, X) with 10**16 <= D < 10**17 and X the decimal
    exponent, so that D * 10**(X - 16) is x correctly rounded, ties to
    even.

    hi + lo is a * 10**(16 - X) exactly (Dekker's two-product: numpy rounds
    every ufunc on its own, so nothing is fused).  X from log10 may be one
    off near a power of ten, which the exact comparisons of hi, then lo,
    with 10**16 and 10**17 correct.  hi >= 2**53 is then an even integer,
    so rounding lo half to even rounds hi + lo half to even.
    """
    x = np.log10(a)
    np.floor(x, out=x)
    x = x.astype(np.int8)
    while True:
        k = 16 - x
        hi = a * _POW10.take(k)
        ah = _SPLIT * a
        ah -= ah - a
        al = a - ah
        ph, pl = _POW10_HI.take(k), _POW10_LO.take(k)
        lo = ah * ph
        lo -= hi
        ah *= pl
        lo += ah
        ph *= al
        lo += ph
        al *= pl
        lo += al
        ah = al = ph = pl = None
        edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
        if not len(edge):
            break
        h, l = hi[edge], lo[edge]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0))).view(np.int8) - (
            (h < 1e16) | ((h == 1e16) & (l < 0))).view(np.int8)
        if not step.any():
            break
        x[edge] += step
    digits = hi.astype(np.int64)
    digits += np.rint(lo).astype(np.int64)
    top = digits == 10 ** 17
    if top.any():
        digits[top] = 10 ** 16
        x += top.view(np.int8)
    return digits, x


def _fixed_rows(a, negative):
    """The cell rows of ``_fixed_digits``' values, with a '-' where
    ``negative`` is 1.

    '%.17g' writes 1e-4 <= |x| < 1 as '0.', -X - 1 zeros and the digits,
    and 1 <= |x| < 1e16 as X + 1 integer digits, then '.' and the other
    digits; trailing zeros of the digits are cut, and the '.' with them.
    A row is four words looked up by sign, exponent and digits (see
    ``_digit_words``): the leading digit with what goes before it, and
    four groups of four digits, whose trailing zeros are NUL.  Rows of
    X >= 1 then move their integer digits one byte to the left, to make
    room for the '.'.
    """
    digits, x = _fixed_digits(a)
    key = x.astype(np.int32)
    key += 4
    key += 20 * negative
    # D as its leading digit and four groups of four digits; a group's
    # word has its trailing zeros NUL when the groups after it are zero
    lead, halves = np.empty_like(digits), np.empty((2, len(digits)), np.int32)
    np.divmod(digits, 10 ** 8, out=(digits, halves[1]))
    np.divmod(digits, 10 ** 8, out=(lead, halves[0]))
    groups = np.empty((2, 2, len(digits)), dtype=np.int32)
    np.divmod(halves, 10 ** 4, out=(groups[:, 0], groups[:, 1]))
    groups = groups.reshape(4, -1)
    digits = halves = None
    # tail[j]: groups j..3 are zeros.  A group's trailing zeros are NUL
    # when the groups after it are zeros, and the '.' of X = 0 goes when
    # all four are
    tail = groups == 0
    tail[2] &= tail[3]
    tail[1] &= tail[2]
    tail[0] &= tail[1]
    groups[3] += 10000
    np.add(groups[:3], 10000, out=groups[:3], where=tail[1:])
    words = np.empty((len(key), _WIDTH // 4), dtype="<u4")
    words[:, 0] = _PREFIX_WORDS.take(key)
    lead += 10 * key
    lead += 400 * tail[0]
    words[:, 1] = _LEAD_WORDS.take(lead)
    words[:, 2:6] = _DIGIT_WORDS.take(groups).T
    words[:, 6] = 0
    groups = tail = key = lead = None
    rows = words.view(np.uint8)

    whole = np.flatnonzero(x >= 1)
    if len(whole):
        # integer digits move to bytes 6..6 + X (a stripped zero among
        # them is NUL, and NUL | '0' is '0'), then '.' if a digit follows
        ints = x[whole, None]
        part = rows.take(whole, axis=0)
        moved = np.where(np.arange(6, 23) < 7 + ints, part[:, 7:24] | 48,
                         part[:, 6:23])
        lines = np.arange(len(whole))
        moved[lines, 1 + ints[:, 0]] = (
            part[lines, 8 + ints[:, 0]] > 0) * np.uint8(46)
        part[:, 6:23] = moved
        rows[whole] = part
    return rows


def _format_cells(values):
    """Each value's '%.17g' text as a cell row, in the order of ``values``.

    Values of 1e-4 <= |x| < 1e16 are formatted in bulk (``_fixed_rows``).
    Zeros, NaNs (of any payload: '%.17g' writes nan) and infinities take
    fixed rows.  Other values (|x| < 1e-4 or >= 1e16, subnormals) go
    through Python's '%.17g' one by one.
    """
    a = np.abs(values)
    with np.errstate(invalid="ignore"):
        fast = (a >= 1e-4) & (a < 1e16)
    negative = np.signbit(values).view(np.int8)
    if fast.all():
        return _fixed_rows(a, negative)
    cells, slow = np.flatnonzero(fast), np.flatnonzero(~fast)
    rows = np.empty((len(values), _WIDTH), dtype=np.uint8)
    rows[cells] = _fixed_rows(a[cells], negative[cells])
    # zeros, NaNs and infinities take the special rows; every other value
    # gets a row of its own after those
    v = values[slow]
    special = np.full(len(slow), -1, dtype=np.intp)
    special[v == 0] = negative[slow][v == 0]
    special[np.isnan(v)] = 2
    special[v == np.inf] = 3
    special[v == -np.inf] = 4
    alone = special < 0
    own = [FLOAT_FMT % t for t in v[alone].tolist()]
    special[alone] = len(_SPECIAL_TEXTS) + np.arange(len(own))
    rows[slow] = np.concatenate((_SPECIAL_ROWS, _text_rows(own)))[special]
    return rows


@contextlib.contextmanager
def _opened(fh, mode):
    """Accept either an open text handle or a filesystem path."""
    if isinstance(fh, (str, os.PathLike)):
        with open(fh, mode, newline="") as handle:
            yield handle
    else:
        yield fh


def _write_rows(handle, header, columns):
    """Write the header line, then one line per row of the columns.

    ``columns`` is a list of float arrays (1-d columns or 2-d column
    blocks) that share their first axis; each cell is written as '%.17g'
    writes it.
    """
    handle.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([a[start:start + _BLOCK_ROWS]
                                 for a in columns])
        block = _format_cells(block.ravel()).reshape(len(block), -1, _WIDTH)
        # the separators, then the text without the NUL bytes
        block[:, :-1, _SEPARATOR] = 44
        block[:, -1, _SEPARATOR] = 10
        text = block.tobytes()
        block = None
        handle.write(text.translate(None, b"\0").decode("ascii"))


def _parse_float(token, where):
    try:
        return float(token)
    except ValueError:
        raise CsvFormatError("bad float %r in %s" % (token, where))


def write_path_csv(fh, path):
    """Write a driver path as rows t,z1..zd,is_jump.

    is_jump is 1 on rows whose time carries a jump of the path and 0
    otherwise: a float column, whose 1.0 and 0.0 '%.17g' writes as 1 and
    0.  The jump vector itself is recoverable as the difference from the
    previous row only when no diffusion moves at the same instant, which
    is the convention used by read_path_csv.
    """
    d = path.dimension
    header = ["t"] + ["z%d" % (i + 1) for i in range(d)] + ["is_jump"]
    # GridPath holds each jump time as one of its grid times
    is_jump = np.zeros(len(path.times))
    is_jump[np.searchsorted(path.times, path.jump_times)] = 1.0
    with _opened(fh, "w") as handle:
        _write_rows(handle, header,
                    [path.times, path.values, is_jump])


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
        _write_rows(handle, header,
                    [x.times, x.values, k.values, kvar])


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
                    [table.reshape(-1, len(RATE_HEADER))])


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
