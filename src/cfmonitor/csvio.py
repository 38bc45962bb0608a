"""CSV codec for cfmonitor's numeric tables.

`read_csv_columns` reads the named float columns of a headed CSV file,
each value bit-identical to ``float()`` of its cell.  `write_csv_columns`
writes headed tables of float and integer columns, byte for byte as the
`csv` module's writer does with ``repr(float(v))`` and ``int(v)`` cells;
it formats a large table's later rows in a forked helper process.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import shutil
import signal
import tempfile

import numpy as np

__all__ = ["read_csv_columns", "write_csv_columns"]


# a header the fast reader takes: printable ASCII, no quote
_PLAIN_HEADER = bytes(b for b in range(32, 127) if b != ord('"'))
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
_READ_CHUNK = 1 << 16  # bytes of whole lines parsed at a time
# significant digits read as one int64: below 10**18, so never out of range
_MAX_DIGITS = 18
_MAX_FRACTION = 21  # digits after the point: _POW10 holds 10**0 to 10**21
# bytes searched for a long cell's first significant digit: "-0." and four
# more zeros, more than repr or "%.17g" print before using an exponent
_LEAD_SPAN = 8


def read_csv_columns(path, columns) -> np.ndarray:
    """Read the named float columns of a headed CSV file.

    Returns an ``(rows, len(columns))`` array.  A data row is valid when
    ``float()`` accepts each named cell as `csv.reader` splits it and the
    value is finite; other cells are ignored.  Raises ValueError for an
    empty file, missing columns, or the first malformed or non-finite row,
    by its number in the file.  The text is UTF-8; a byte-order mark
    before the header is skipped.
    A file of plain decimal cells is parsed by `_plain_columns`; any other
    file, or one in which it finds a fault, by the row loop, which decides
    and names the row."""
    with open(path, "rb") as fh:
        data = _plain_columns(fh.read(), columns)
    if data is not None:
        return data
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        idx = [header.index(c) for c in columns]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append([float(row[i]) for i in idx])
            except (ValueError, IndexError):
                raise ValueError(f"{path}: malformed row {lineno}") from None
            if not all(map(math.isfinite, rows[-1])):
                raise ValueError(f"{path}: non-finite value in row {lineno}")
    return np.array(rows, dtype=float).reshape(len(rows), len(idx))


def _plain_columns(data: bytes, columns) -> np.ndarray | None:
    """The named columns of a CSV file's bytes, or None for the row loop.

    Takes a printable, unquoted ASCII header that names every column, then
    lines of exactly its width, ended by ``\\n`` or ``\\r\\n`` (the last may
    have none), of cells of digits, points, signs, ``e`` and ``E``.  The
    lines are parsed in chunks of about `_READ_CHUNK` bytes by
    `_plain_rows`."""
    end = data.find(b"\n")
    head = data[:max(end, 0)].removesuffix(b"\r")
    if end < 0 or head.translate(None, _PLAIN_HEADER):
        return None
    header = head.decode("ascii").split(",")
    if any(c not in header for c in columns):
        return None
    idx = [header.index(c) for c in columns]
    if idx == list(range(len(header))):
        idx = slice(None)  # every column, in order: a view, not a copy
    parts = [np.empty((0, len(columns)))]
    lo = end + 1
    while lo < len(data):
        hi = len(data)
        if hi - lo > _READ_CHUNK:  # up to the last line end in the chunk
            hi = (data.rfind(b"\n", lo, lo + _READ_CHUNK) + 1
                  or data.find(b"\n", lo + _READ_CHUNK) + 1 or hi)
        chunk = data[lo:hi]
        if not chunk.endswith(b"\n"):
            chunk += b"\n"
        parts.append(_plain_rows(chunk, len(header), idx))
        if parts[-1] is None:
            return None
        lo = hi
    return np.concatenate(parts)


def _plain_rows(chunk: bytes, width, idx) -> np.ndarray | None:
    """Columns ``idx`` of lines of ``width`` cells, each line ending in
    ``\\n``, as floats bit-identical to ``float(cell)``; None if a line
    holds another byte or number of cells, or a named cell is not a finite
    float.

    With its point and sign deleted, the digits of each cell are read as
    one int64 ``m`` (`np.fromstring`), ``k`` the digits after the point,
    and `_quotient` rounds ``m / 10**k``.  A cell is plain when its bytes
    below ``0`` are at most a minus sign as its first byte and then one
    point, and it has a digit.  Any other cell is not given to
    `np.fromstring` (its bytes are made ``0``), nor is one with ``e`` or
    ``E``, more than `_MAX_DIGITS` significant digits or more than
    `_MAX_FRACTION` digits after the point; if such a cell is named, or
    `_quotient` cannot certify one, ``float()`` reads it."""
    if b"\r" in chunk:
        if chunk.count(b"\r") != chunk.count(b"\r\n"):
            return None
        chunk = chunk.replace(b"\r\n", b"\n")
    buf = np.frombuffer(chunk, np.uint8)
    special = np.flatnonzero(buf < 48)  # the digits are 48-57
    kind = buf[special]
    newline = kind == 10
    if not (((kind >= 43) & (kind <= 46)) | newline).all():  # but \n + , - .
        return None
    last = np.flatnonzero(newline | (kind == 44))  # in special: a cell's end
    ends = special[last]
    rows = len(ends) // width
    if (len(ends) != rows * width or np.count_nonzero(newline) != rows
            or not (buf[ends[width - 1::width]] == 10).all()):
        return None  # a line of more or fewer cells
    starts = np.concatenate(([0], ends[:-1] + 1))
    length = ends - starts
    if not length.all():
        return None  # an empty cell or line
    # a cell's signs and points: the `inner` entries of special before its end
    first = np.concatenate(([0], last[:-1] + 1))
    inner = last - first
    negative = kind[first] == ord("-")
    has_point = (inner > 0) & (kind[last - 1] == ord("."))
    slow = ((inner - negative != has_point)
            | (negative & (special[first] != starts)) | (length <= inner))
    k = np.where(has_point, ends - special[last - 1] - 1, 0)
    if buf.max() > ord("9"):
        high = np.flatnonzero(buf > ord("9"))
        if not ((buf[high] | 0x20) == ord("e")).all():
            return None
        slow[np.searchsorted(ends, high)] = True
    long = np.flatnonzero(length - inner > _MAX_DIGITS)  # every cell with k > 21
    if len(long):  # leading zeros in its first `_LEAD_SPAN` bytes do not count
        # the offset of its first digit 1-9, or 0 where there is none
        span = buf[starts[long, None] + np.arange(_LEAD_SPAN)]
        at = (span > ord("0")).argmax(axis=1)
        lead = at - negative[long] - (has_point[long] & (length[long] - k[long] <= at))
        slow[long] |= ((length[long] - inner[long] - lead > _MAX_DIGITS)
                       | (k[long] > _MAX_FRACTION))
    text = chunk
    if slow.any():
        blank = np.flatnonzero(slow)
        size = length[blank]
        offset = np.repeat(starts[blank] - (np.cumsum(size) - size), size)
        zeroed = buf.copy()
        zeroed[offset + np.arange(size.sum())] = ord("0")
        text = zeroed.tobytes()
        k[blank] = 0
    m = np.fromstring(text.translate(_NEWLINE_TO_COMMA, b".-")[:-1],
                      dtype=np.int64, sep=",")
    x, sure = _quotient(m.reshape(rows, width)[:, idx],
                        k.reshape(rows, width)[:, idx])
    np.negative(x, out=x, where=negative.reshape(rows, width)[:, idx])
    slow = slow.reshape(rows, width)[:, idx] | ~sure
    if slow.any():  # float() reads these, one at a time
        r, c = np.nonzero(slow)
        j = r * width + np.arange(width)[idx][c]
        try:
            x[r, c] = [float(chunk[a:b])
                       for a, b in zip(starts[j].tolist(), ends[j].tolist())]
        except ValueError:
            return None
        if not np.isfinite(x[r, c]).all():
            return None
    return x


def _quotient(m, k):
    """``m / 10**k`` rounded to the nearest double, for integers ``0 <= m
    < 10**18`` and ``0 <= k <= 21``, and where the rounding is certain.

    One division gives ``q``, within 1.5 units in the last place.  The
    residual ``m - q * 10**k`` is exact but for rounding far below an
    ulp: ``m = m_hi + m_lo`` in doubles, `_times_pow10` gives ``q * 10**k``
    as ``hi + lo``, and ``m_hi - hi`` is exact (Sterbenz).  It moves ``q``
    to ``x``.  ``x`` is certain where ``x``'s residual is below half the
    gap to its neighbour on its side, by a margin (the gap below a power
    of two is half as wide); exact ties, rounded to even by ``float()``,
    are left uncertain."""
    m_hi = m.astype(np.float64)
    m_lo = (m - m_hi.astype(np.int64)).astype(np.float64)  # |m_lo| <= 64
    scale = np.take(_POW10, k)
    q = m_hi / scale
    hi, lo = _times_pow10(q, k)
    r = m_hi - hi
    r += m_lo - lo
    x = q + r / scale
    r -= (x - q) * scale  # x - q is a few ulps, and its product exact
    mantissa, e = np.frexp(x)
    half = np.ldexp(scale, e - 54) * (1 - 2.0 ** -30)  # half an ulp, times 10**k
    sure = np.abs(r) < half
    power = mantissa == 0.5  # the gap below is half as wide
    if power.any():
        sure[power] &= r[power] > -0.5 * half[power]
    return x, sure


def _can_offload() -> bool:
    """True when a forked helper can run beside this process: the platform
    can fork and two or more CPUs are usable."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2


@contextlib.contextmanager
def _forked(work):
    """Run ``work()`` in a forked child while the block runs.  The child ends
    with `os._exit`: code 0 when ``work`` returns, 1 when it raises.

    Yields ``wait()``, which reaps the child and returns its exit code and
    the error it raised, as text (empty when it raised none), or yields None
    when the fork fails (e.g. at a process limit), so the caller does the
    work itself.  A child not yet reaped when the block ends, normally or by
    an exception, is killed and reaped.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        # fork copies only this thread; a child must call no BLAS routine,
        # whose worker threads it would lack
        status = 1
        try:
            work()
            status = 0
        except BaseException as exc:
            os.write(write_end, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(status)
    os.close(write_end)
    reaped = False
    with open(read_end, "rb") as errors:
        def wait():
            nonlocal reaped
            # read to the end, which comes when the child exits
            error = errors.read().decode(errors="replace")
            _, status = os.waitpid(pid, 0)
            reaped = True
            return os.waitstatus_to_exitcode(status), error

        try:
            yield wait
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# rows formatted per block, all of a block's float columns in one kernel
# call: a run's 9 columns make 4608 values, about 96 ns each, where a call
# costs about 100 us however small and a 2048-row block (120 ns a value at
# 2048, 150 at 18 432) spills the caches.  The cells (48 bytes each) and the
# kernel's temporaries (about 240 bytes a value) peak at 1.4 MB traced;
# 768-row blocks write faster but trace 1.9 MB
_EMIT_BLOCK = 512
# a table of more rows is split between this process and a forked helper,
# no slower from 4096 rows on 2 CPUs: three trajectory tables took 1.6-1.8 ms
# longer forked at 2048 rows, -0.2 to +0.1 ms at 4096, 1.4-1.9 ms less at 6001
_SPLIT_ROWS = 4096

# a cell: 48 bytes, that is 24 two-byte slots.  Slot j's first byte holds
# digit j of the 24-digit, zero-padded decimal integer C the kernel prints
# (or NUL), its second byte the decimal point, the sign or NUL; byte 47
# holds the comma after the cell.  NUL bytes are dropped when a line is
# written, so a cell reads as its characters in order.
_POW10 = np.array([float(10 ** i) for i in range(22)])  # exact
_VELTKAMP = 2.0 ** 27 + 1  # splits a double into two 26-bit halves
_POW10_HI = _VELTKAMP * _POW10 - (_VELTKAMP * _POW10 - _POW10)


@functools.cache  # built on first use: a run that writes no CSV needs none
def _cell_tables():
    """The float kernel's lookup tables, as uint64 words of 4 slots.

    ``digits[g + 10000 * trailing]``: the 4-digit group ``g`` in the digit
    bytes of 4 slots; with ``trailing`` set, its trailing zeros are NUL.

    ``heads[((u * 21 + g0) * 2 + trailing) * 2 + negative]``: the cell's
    fixed part, to be OR-ed with the digits of its groups 1-4.  C has its
    units digit in slot u, and its leading group is g0 in slots 4-7,
    printed without leading zeros (and, with ``trailing``, as the last
    nonzero group, without trailing zeros).  Slots from the first digit
    printed to the first after the point get a ``0`` (0x30) OR-ed in, so a
    NUL left there by a zero's removal reads 0: the units digit of a
    value below 1 and the zeros after its point, and the ``.0`` of a whole
    number.  Slot u holds the point, and the slot before the first digit
    the sign."""
    numeral = np.stack(np.indices((10,) * 4, np.uint8).reshape(4, 10000), axis=1)
    kept = numeral != 0  # then: this digit or a later one is not 0
    for place in (2, 1, 0):
        kept[:, place] |= kept[:, place + 1]
    numeral += 48
    # a slot as a little-endian 16-bit number: the digit, then NUL
    digits = np.stack([numeral, np.where(kept, numeral, 0)]).astype("<u2")

    u = np.arange(24)[:, None, None, None]
    first = 7 - np.arange(2)[:, None, None]  # the slot of g0's leading digit
    negative = np.arange(2)[:, None]
    slot = np.arange(24)
    start = np.minimum(first, u)  # the first slot printed
    frame = np.zeros((24, 2, 2, 24, 2), np.uint8)
    frame[..., 0] = np.where((slot >= start)
                             & (slot <= np.maximum(u + 1, first - 1)), 0x30, 0)
    frame[..., 1] = np.where(slot == u, ord("."),
                             np.where((negative == 1) & (slot == start - 1),
                                      ord("-"), 0))
    frame[..., 23, 1] = ord(",")
    g0 = np.arange(21)[:, None, None]
    trailing = np.arange(2)[:, None]
    place = np.arange(4)
    shown = (g0 // 10 ** (3 - place) != 0) & (
        (trailing == 0) | (g0 % 10 ** (4 - place) != 0))
    heads = np.zeros((24, 21, 2, 2, 24, 2), np.uint8)
    heads[...] = frame[:, (np.arange(21) >= 10).astype(int), None]
    heads[..., 4:8, 0] |= np.where(shown, g0 // 10 ** (3 - place) % 10 + 48,
                                   0)[None, :, :, None].astype(np.uint8)
    return (digits.view(np.uint8).view(np.uint64).ravel(),
            heads.reshape(-1, 48).view(np.uint64))


def _cells(text: list[bytes]) -> np.ndarray:
    """Cells holding the given strings of at most 47 bytes."""
    cells = np.array(text, dtype="S48").view(np.uint8).reshape(-1, 48)
    cells[:, 47] = ord(",")
    return cells.view(np.uint64)


_ZERO, _NEG_ZERO = _cells([b"0.0", b"-0.0"])


def _times_pow10(a, k):
    """``a * 10**k`` as ``hi + lo`` exactly (Dekker's TwoProduct), for
    ``0 <= k <= 21``, where 10**k is a double."""
    scale = np.take(_POW10, k)
    hi = a * scale
    a_hi = _VELTKAMP * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    s_hi = np.take(_POW10_HI, k)
    lo = a_hi * s_hi
    lo -= hi
    scale -= s_hi
    lo += a_hi * scale
    lo += a_lo * s_hi
    lo += a_lo * scale
    return hi, lo


def _shortest(x):
    """Of the decimals in the rounding interval of each ``|x|``, the
    shortest, and of those the nearest to ``|x|``: ``(top * 10**4 + c) *
    10**-k``, with ``top`` and ``c`` integer floats, ``0 <= c < 10**4``.
    Returns ``(certain, k, top, c)``; ``certain`` is False where ``|x|``
    is outside ``[1e-4, 1e16)`` or a bound or a tie lies within 1e-6 of a
    unit, too near to tell here."""
    a = np.abs(x)
    mantissa, e = np.frexp(a)  # a = mantissa * 2**e, 0.5 <= mantissa < 1
    certain = (a >= 1e-4) & (a < 1e16)
    a[~certain] = 1.0
    e[~certain] = 1
    # P = a * 10**k lies in [1e16, 2e17), 1 <= k <= 21: its integer part
    # holds the 17 significant digits repr may need
    k = 16 - np.floor((e - 1) * math.log10(2)).astype(np.intp)
    hi, lo = _times_pow10(a, k)
    # hi >= 2**53 is an integer; its last four digits, `low`, and every
    # offset from top * 10**4 below are small integers, exact as floats
    whole = hi.astype(np.int64)
    top = whole // 10000
    whole -= top * 10000
    low = whole.astype(np.float64)
    # the rounding interval, P + ulp(a) * 10**k / 2 above and as far below
    # (half that for a power of two, whose lower neighbour is nearer), holds
    # the integers (below, above], as offsets; it is wider than 1.1
    half = np.ldexp(np.take(_POW10, k), e - 54)
    below = lo - np.where(mantissa == 0.5, 0.5 * half, half)
    above = lo + half
    # near an integer bound, whether the interval is closed would matter
    unsure = np.abs(below - np.floor(below) - 0.5) > 0.5 - 1e-6
    unsure |= np.abs(above - np.floor(above) - 0.5) > 0.5 - 1e-6
    np.floor(below, out=below)
    np.floor(above, out=above)
    below += low
    above += low
    # unit = 10**t, t + 1 the digits of the interval's integer count: the
    # interval holds a multiple of unit, and at most one of 10 * unit,
    # which is then the shortest decimal
    unit = np.where(above - below >= 10, 10.0, 1.0)
    coarse = np.floor(above / (10 * unit)) * (10 * unit)
    # else the multiple of unit nearest P, moved into the interval
    low += lo
    c = np.floor(low / unit + 0.5) * unit
    low -= c
    unsure |= (coarse <= below) & (np.abs(np.abs(low) - 0.5 * unit) < 1e-6)
    c += np.where(c <= below, unit, 0.0) - np.where(c > above, unit, 0.0)
    c = np.where(coarse > below, coarse, c)
    carry = np.floor(c / 10000)
    c -= carry * 10000
    return certain & ~unsure, k, top + carry, c


def _float_cells(x) -> np.ndarray:
    """The cells of ``repr(float(v))`` for each value of a float column.

    The positional range of repr, ``1e-4 <= |v| < 1e16``, is printed here:
    repr's digits are those of the shortest decimal in v's rounding
    interval, and of those the nearest to v (`_shortest`).  ``0.0`` and
    ``-0.0`` are printed here too.  Everything else goes to ``repr``: NaN,
    infinities, subnormals and the exponent form, and any value for which
    a bound of its rounding interval or a tie between two candidates falls
    within 1e-6 units of a decision."""
    x = np.asarray(x, dtype=np.float64)
    certain, k, top, c = _shortest(x)
    # C = top * 10**4 + c in 4-digit groups g0 (1 to 20) to g4 = c
    g0 = np.floor(top / 1e12)
    top -= g0 * 1e12
    g1 = np.floor(top / 1e8)
    top -= g1 * 1e8
    g2 = np.floor(top / 1e4)
    top -= g2 * 1e4
    # a group is printed without trailing zeros when every later one is 0
    groups = np.empty((len(x), 4), np.intp)
    groups[:, 3] = c + 10000
    zeros = c == 0
    groups[:, 2] = top + 10000 * zeros
    zeros &= top == 0
    groups[:, 1] = g2 + 10000 * zeros
    zeros &= g2 == 0
    groups[:, 0] = g1 + 10000 * zeros
    zeros &= g1 == 0
    negative = np.signbit(x)
    # the heads' index, ((u * 21 + g0) * 2 + trailing) * 2 + negative
    head = (23 - k) * 84 + (g0 * 4).astype(np.intp) + zeros * 2 + negative
    digits, heads = _cell_tables()
    cells = np.take(heads, head, axis=0)
    cells[:, 2:] |= np.take(digits, groups)
    zero = x == 0
    cells[zero] = _ZERO
    cells[zero & negative] = _NEG_ZERO
    slow = np.flatnonzero(~(certain | zero))
    if len(slow):
        cells[slow] = _cells([repr(v).encode() for v in x[slow].tolist()])
    return cells


def _format_blocks(sinks, tables, columns, rows, lo, hi) -> None:
    """Write rows ``[lo, hi)`` of each table to its sink, one block at a
    time.  One `_float_cells` call per block formats every float column,
    a column shared by several tables (the same array object) once."""
    end = np.frombuffer(b"\r\n".ljust(8, b"\0"), np.uint64)
    for b0 in range(lo, hi, _EMIT_BLOCK):
        b1 = min(b0 + _EMIT_BLOCK, hi)
        parts = {key: col[b0:b1] for key, col in columns.items() if len(col) > b0}
        cells = {key: _cells([b"%d" % v for v in part.tolist()])
                 for key, part in parts.items() if part.dtype.kind in "biu"}
        floats = [key for key in parts if key not in cells]
        if floats:
            flat = _float_cells(np.concatenate([parts[key] for key in floats]))
            at = np.cumsum([len(parts[key]) for key in floats])
            cells.update(zip(floats, np.split(flat, at[:-1])))
        for fh, n, (_, _, cols) in zip(sinks, rows, tables):
            if n <= b0:
                continue
            count = min(n, b1) - b0
            # the cells, each ending in a comma but the last, and the line end
            line = np.concatenate([*(cells[id(col)][:count] for col in cols),
                                   np.broadcast_to(end, (count, 1))], axis=1)
            line.view(np.uint8)[:, len(cols) * 48 - 1] = 0
            fh.write(line.tobytes().translate(None, b"\0"))


def write_csv_columns(tables) -> None:
    """Write headed CSV files of numeric columns, byte for byte as the `csv`
    module's writer does with ``\\r\\n`` line ends, a float column's cells
    given as ``repr(float(v))`` and an integer column's as ``int(v)``: the
    counterpart of `read_csv_columns`.

    ``tables`` holds ``(path, header, columns)``; a file has as many rows
    as its shortest column.  A column passed as the same array object in
    several tables is formatted once.  Floats are printed by `_float_cells`, which
    leaves few to ``repr``.  When `_can_offload` and the longest file has
    more rows than `_SPLIT_ROWS`, one forked child formats every file's rows
    from the longest's middle row on into anonymous temporary files, each in
    its file's directory, while this process writes the rows before; the
    child's parts are then appended."""
    columns = {id(col): np.asarray(col)
               for _, _, cols in tables for col in cols}
    rows = [min(len(col) for col in cols) for _, _, cols in tables]
    mid = end = max(rows)
    tails = []

    def format_tail():
        _format_blocks(tails, tables, columns, rows, mid, end)
        for tmp in tails:
            tmp.flush()

    with contextlib.ExitStack() as stack:
        # opened before the fork but written after it, so the child's copies
        # hold no buffered data (os._exit would not flush them anyway)
        files = [stack.enter_context(open(path, "wb")) for path, _, _ in tables]
        wait = None
        if end > _SPLIT_ROWS and _can_offload():
            for path, _, _ in tables:
                tails.append(stack.enter_context(tempfile.TemporaryFile(
                    dir=os.path.dirname(path) or os.curdir)))
            mid = end // 2
            wait = stack.enter_context(_forked(format_tail))
            if wait is None:  # format every row here
                mid = end
        for fh, (_, header, _) in zip(files, tables):
            fh.write((",".join(header) + "\r\n").encode())
        _format_blocks(files, tables, columns, rows, 0, mid)
        if wait is not None:
            code, error = wait()
            if code:
                raise OSError(f"the process formatting rows from {mid} on ended "
                              f"with code {code}" + (f": {error}" if error else ""))
            for fh, tmp in zip(files, tails):
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
