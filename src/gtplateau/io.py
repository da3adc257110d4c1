"""File formats: JSON control nets, OBJ meshes, CSV grids, run summaries.

Net files are JSON objects with a "points" array of rows (row index = u),
each cell either a list of 3 finite numbers or null for an unknown point
(JSON's NaN, Infinity and overflowing literals are refused), plus optional
"degrees" (two JSON integers) and a "fixed" mask. Mesh and grid numbers are
"%.17g" text, integers included, so identical runs produce identical bytes.
``write_obj`` is the only mesh writer; meshes on one grid share one face block
(``_face_block``), formatted once and checked against their vertex count; its
vertex numbers, like a grid's parameters, take cells as narrow as their text.
Every writer goes through an atomic write-temp-then-rename so a crash never
leaves a half-written artifact.
"""

from __future__ import annotations

import datetime
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NetFormatError
from .patch import ControlNet, FundamentalForms


def atomic_write_text(path, *parts: str) -> None:
    """Write the text parts in order (never joined) via a new temp file in the target
    directory, then rename. The file gets mode 0o666 & ~umask, as ``open(path, "w")`` does."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".gtplateau-{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8", newline="\n")  # exclusive: never another's file
    try:
        with handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def net_from_payload(payload, source: str = "<payload>") -> ControlNet:
    """Build a ControlNet from decoded JSON, naming ``source`` in errors."""
    if not isinstance(payload, dict):
        raise NetFormatError(f"{source}: top level must be a JSON object")
    if "points" not in payload:
        raise NetFormatError(f"{source}: missing required key 'points'")
    raw = payload["points"]
    if (
        not isinstance(raw, list)
        or len(raw) < 2
        or not all(isinstance(row, list) for row in raw)
    ):
        raise NetFormatError(f"{source}: 'points' must be an array of at least 2 rows")
    width = len(raw[0])
    points = np.full((len(raw), width, 3), np.nan)
    for i, row in enumerate(raw):
        if len(row) != width:
            raise NetFormatError(
                f"{source}: points row {i} has {len(row)} entries, expected {width}"
            )
        for j, cell in enumerate(row):
            if cell is None:
                continue
            ok = (
                isinstance(cell, list)
                and len(cell) == 3
                and all(
                    isinstance(x, (int, float)) and not isinstance(x, bool)
                    and abs(x) <= sys.float_info.max  # exact for ints; NaN fails
                    for x in cell
                )
            )
            if not ok:
                raise NetFormatError(
                    f"{source}: point [{i}][{j}] must be null or a list of 3 finite numbers"
                )
            points[i, j] = cell

    degrees = payload.get("degrees")
    if degrees is not None:
        expected = [points.shape[0] - 1, points.shape[1] - 1]
        # == alone would take true and 1.0 for 1
        integers = isinstance(degrees, list) and all(type(d) is int for d in degrees)
        if not integers or degrees != expected:
            raise NetFormatError(
                f"{source}: declared degrees {degrees!r} do not match the "
                f"{points.shape[0]}x{points.shape[1]} point grid, whose degrees are the integers {expected}"
            )

    fixed = payload.get("fixed")
    if fixed is not None:
        rows_ok = (
            isinstance(fixed, list)
            and len(fixed) == points.shape[0]
            and all(
                isinstance(row, list)
                and len(row) == points.shape[1]
                and all(isinstance(x, bool) for x in row)
                for row in fixed
            )
        )
        if not rows_ok:
            raise NetFormatError(
                f"{source}: 'fixed' must be a {points.shape[0]}x{points.shape[1]} "
                "array of booleans"
            )
        fixed = np.array(fixed, dtype=bool)

    try:
        return ControlNet(points=points, fixed=fixed)
    except ConfigurationError as exc:
        raise NetFormatError(f"{source}: {exc}") from exc


def load_net(path) -> ControlNet:
    """Read a net file; malformed JSON reports the path, line, and column."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NetFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, or an integer past the digit limit
        raise NetFormatError(f"{path}: unreadable net file: {exc}") from exc
    return net_from_payload(payload, source=os.fspath(path))


def net_to_payload(net: ControlNet) -> dict:
    finite = np.all(np.isfinite(net.points), axis=-1)
    points = [
        [
            [float(x) for x in net.points[i, j]] if finite[i, j] else None
            for j in range(net.points.shape[1])
        ]
        for i in range(net.points.shape[0])
    ]
    payload = {"degrees": [net.degree_u, net.degree_v], "points": points}
    # the mask is implied by the nulls unless some known value is not fixed
    if not np.array_equal(net.fixed, finite):
        payload["fixed"] = net.fixed.tolist()
    return payload


def save_net(net: ControlNet, path) -> None:
    atomic_write_text(path, json.dumps(net_to_payload(net), indent=2), "\n")


# Numbers are written as Python's "%.17g" % x would write them, but built as numpy
# byte matrices: each value becomes a cell of whole 8-byte words of ASCII padded
# with NUL, its last byte spare, and the NULs are deleted once the rows of a
# block are joined. A double's cell is 48 bytes; an integer below 10**7, 8.
#
# "%.17g" prints the 17 digits of N = rint(y), y = |x| * 10**(16 - X), where X
# is the decimal exponent with 10**16 <= y < 10**17. With 10**(16 - X) as a
# double-double hi + lo (each part correctly rounded), y = p + s: p = fl(|x|*hi)
# is an integer (it exceeds 2**53), its rounding error is exact by Dekker's
# product ("A floating-point technique for extending the available precision",
# 1971), and s adds |x|*lo to that error. |s| < 20 and s is off by under
# 1e-14, so N = p + rint(s) is exact wherever s is farther than 2**-20 from a
# tie. The rest (ties, 0, -0, nan, inf, |X| > _MAX_EXPONENT and a misjudged X)
# is formatted by Python.

#: Largest |decimal exponent| of the array path.
_MAX_EXPONENT = 99
#: Largest |s - rint(s)| taken as exact; with 0 every value goes to Python.
_TIE_MARGIN = 0.5 - 2.0**-20
#: Rows formatted at a time, or more to fill 256 KB of narrower lines; a block's
#: byte matrices take about 1 MB.
_BLOCK_ROWS = 2048
#: Tables with fewer cells are formatted by Python: the array path costs about
#: 0.1 ms however small the table, which Python's "%" beats below roughly 90 cells.
_ARRAY_MIN_CELLS = 96
#: A formatted double is 48 bytes: sign and "0.000" lead (6), 17 digits each
#: followed by a slot for the decimal point (34), 2 spare, "e+XX" and 4 spare.
_FLOAT_WIDTH = 48

_EXPONENTS = np.arange(-_MAX_EXPONENT, _MAX_EXPONENT + 1)  # table row of each X


def _split(x):
    """Dekker's split of doubles into 26- and 27-bit halves that sum to x."""
    head = x * 134217729.0  # 2**27 + 1
    high = head - (head - x)
    return high, x - high


def _double_double(power: int):
    """10**power as hi + lo, each the correctly rounded double of what is left."""
    if power >= 0:
        high = float(10**power)
        return high, float(10**power - int(high))
    scale = 10**-power
    high = 1 / scale  # int / int is correctly rounded
    numerator, denominator = high.as_integer_ratio()
    return high, (denominator - numerator * scale) / (denominator * scale)


_HIGH, _LOW = np.array([_double_double(16 - int(e)) for e in _EXPONENTS]).T
#: hi, hi's two halves and lo of 10**(16 - X), by row.
_SCALE = np.stack([_HIGH, *_split(_HIGH), _LOW])


def _words(rows, dtype) -> np.ndarray:
    """Byte rows (lists of ints or ASCII strings) as one word of ``dtype`` each."""
    rows = [row.encode("ascii") if isinstance(row, str) else bytes(row) for row in rows]
    return np.frombuffer(b"".join(rows), dtype)


_DIGITS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # of 0..9999, by place
_ASCII = _DIGITS.T + np.uint8(ord("0"))
#: Words of g = 0..9999, leading zeros kept: its 4 digits in bytes 3 to 6, and
#: (g < 1000) its last 3 in bytes 0 to 2; by digit count d - 1, the last d of bytes 0 to 6.
_LOW_WORDS = np.ascontiguousarray(np.pad(_ASCII, ((0, 0), (3, 1)))).view(np.uint64)[:, 0]
_HIGH_WORDS = np.ascontiguousarray(np.pad(_ASCII[:1000, 1:], ((0, 0), (0, 5)))).view(np.uint64)[:, 0]
_KEEP_DIGITS = _words([[0] * (7 - d) + [255] * d + [0] for d in range(1, 8)], np.uint64)
#: Word f*10000 + g: the 4 digits of g, each followed by a spare byte, up to
#: its last nonzero digit but at least f digits.
_FLOAT_QUADS = (
    np.stack([_ASCII, np.zeros_like(_ASCII)], axis=-1).reshape(-1, 8).view(np.uint64)[:, 0]
    & _words([[255, 0] * c + [0, 0] * (4 - c) for c in range(5)], np.uint64)[
        np.maximum(np.arange(5)[:, None], np.select(_DIGITS[::-1] > 0, [4, 3, 2, 1], 0))
    ]
).reshape(-1)

# "%g" keeps fixed notation for -4 <= X < 17: a "0.000" lead below 0, else all
# X + 1 integer digits, with the point after digit X if more digits follow.
_FIXED = (_EXPONENTS >= -4) & (_EXPONENTS < 17)
_LEAD = np.where(_FIXED & (_EXPONENTS < 0), -_EXPONENTS, 0)
_KEPT = np.where(_FIXED, _EXPONENTS + 1, 0)
_POINT = np.maximum(_KEPT - 1, 0)
#: By quad k = 0..3 and row: 10000 times the digits of quad k kept even if zero.
_STRIP = 10000 * np.clip(_KEPT - (4 * np.arange(4)[:, None] + 1), 0, 4)
#: By row: digits follow the point if digits % this != 0; never after a lead.
_DOT_MODULUS = np.where(_LEAD > 0, 1, 10 ** (16 - _POINT))
_DOT_BYTE = 7 + 2 * _POINT
#: Word 2*(10*row + d) + negative: the sign, the lead and the first digit d.
_HEADS = (
    _words(["\0" + ("0." + "0" * (lead - 1) if lead else "").ljust(7, "\0") for lead in _LEAD], np.uint64)[:, None, None]
    | _words(["\0" * 6 + str(d) + "\0" for d in range(10)], np.uint64)[:, None]
    | _words(["\0" * 8, "-" + "\0" * 7], np.uint64)
).reshape(-1)
#: Word by row: "e+XX" and 4 spare bytes, or nothing in fixed notation.
_TAILS = _words(["\0" * 8 if fixed else "e%+03d\0\0\0\0" % e for e, fixed in zip(_EXPONENTS, _FIXED)], np.uint64)


def _quads(values: np.ndarray):
    """The four 4-digit groups of integers below 10**16, most significant first."""
    high = values // 10**8
    high, low = high.astype(np.uint32), (values - high * 10**8).astype(np.uint32)
    high_top, low_top = high // 10000, low // 10000
    return high_top, high - high_top * 10000, low_top, low - low_top * 10000


def _python_format(values: np.ndarray, out: np.ndarray, slow: np.ndarray) -> None:
    """Write ``"%.17g" % x`` of the values where ``slow`` holds into their cells."""
    where = slow.nonzero()
    if where[0].size:
        texts = [("%.17g" % x).ljust(_FLOAT_WIDTH, "\0") for x in values[where].tolist()]
        out[where] = _words(texts, np.uint8).reshape(len(texts), -1)


def _float_cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % x`` of each double into its NUL-padded cell of ``out``."""
    magnitude = np.abs(values)
    power = np.floor(np.log10(np.maximum(magnitude, 5e-324)))  # log10(0) warns
    fast = np.abs(power) <= _MAX_EXPONENT  # False for 0, nan, inf and subnormals
    row = np.where(fast, power + _MAX_EXPONENT, _MAX_EXPONENT).astype(np.intp)
    x = np.where(fast, magnitude, 1.0)
    high, high_head, high_tail, low = _SCALE.take(row, axis=1)
    x_head, x_tail = _split(x)
    p = x * high
    s = ((x_head * high_head - p) + x_head * high_tail + x_tail * high_head) + x_tail * high_tail + x * low
    nearest = np.rint(s)
    fast &= (np.abs(s - nearest) < _TIE_MARGIN) & ((p - 1e16) + s >= 0) & (p < 1e17)
    digits = np.where(fast, p.astype(np.int64) + nearest.astype(np.int64), 10**16)
    first = digits // 10**16
    rest = digits - first * 10**16

    words = out.view(np.uint64)
    words[..., 0] = _HEADS.take((row * 10 + first) * 2 + np.signbit(values))
    # a quad loses the zeros after its last nonzero digit when every later quad
    # is zero, except the integer digits of fixed notation
    tail_zero = np.ones(values.shape, dtype=bool)
    for k, quad in reversed(list(enumerate(_quads(rest)))):
        strip = np.where(tail_zero, _STRIP[k].take(row), 40000)
        words[..., k + 1] = _FLOAT_QUADS.take(strip + quad)
        tail_zero &= quad == 0
    words[..., 5] = _TAILS.take(row)
    dots = (rest % _DOT_MODULUS.take(row) != 0).nonzero()
    out[(*dots, _DOT_BYTE.take(row[dots]))] = ord(".")
    _python_format(values, out, ~fast)


def _cells(values) -> np.ndarray:
    """The "%.17g" cells of a 1-D array, one row each, in the fewest words holding the longest text and a spare byte."""
    values = np.asarray(values)
    if values.dtype.kind in "iu" and values.min(initial=0) >= 0 and values.max(initial=0) < 10**7:
        high = values // 10000
        words = _HIGH_WORDS[high] | _LOW_WORDS[values - high * 10000]
        words &= _KEEP_DIGITS[np.searchsorted(10 ** np.arange(1, 7), values, "right")]  # digits - 1
        return words.view(np.uint8).reshape(-1, 8)
    out = np.empty((len(values), _FLOAT_WIDTH), np.uint8)
    _float_cells(values.astype(float), out)
    return out[:, :(np.flatnonzero(out.any(axis=0)).max(initial=0) + 1) // 8 * 8 + 8]


def format_table(*tables, sep: str = ",", head: str = "") -> list[str]:
    """One line per row of the ``tables``: ``head``, then the row's numbers
    joined by ``sep``, then a newline, byte for byte as Python's "%.17g" writes
    them. Integers are written as the doubles they are, which "%.17g" prints as
    "%d" does up to 2**53. The text is a list of one string per block of rows,
    each decoded as it is made, so writers hold it once and never join it.

    A table is a 1-D column or a 2-D array of columns, or a pair (cells, index)
    of text made once by ``_cells`` (cells of any whole number of words) and a
    1-D or 2-D index into it, whose rows are ``cells[index]``. All tables have one length.
    """
    slots, width = [], -(-len(head) // 8) * 8  # each cell starts on a word boundary
    for table in tables:
        cells, table = table if isinstance(table, tuple) else (None, np.asarray(table, dtype=float))
        table = table[:, None] if table.ndim == 1 else table
        cell_width = _FLOAT_WIDTH if cells is None else cells.shape[1]
        slots.append((cells, table, width, cell_width))
        width += table.shape[1] * cell_width
    count = len(table)
    rows = max(_BLOCK_ROWS, 2**18 // width)
    line = np.zeros((min(count, rows), width), np.uint8)
    line[:, :len(head)] = np.frombuffer(head.encode("ascii"), np.uint8)

    small = count * sum(slot[1].shape[1] for slot in slots) < _ARRAY_MIN_CELLS
    chunks = []
    for start in range(0, count, rows):
        size = min(rows, count - start)
        for cells, table, first, cell_width in slots:
            block = table[start:start + size]
            out = line[:size, first:first + block.shape[1] * cell_width].reshape(size, -1, cell_width)
            if cells is not None:  # gathered a word at a time
                out.view(np.uint64)[:] = cells.view(np.uint64)[block]
            elif small:  # Python formats every cell
                _python_format(block, out, np.ones(block.shape, bool))
            else:
                _float_cells(block, out)
            out[:, :, -1] = ord(sep)  # the last byte of every cell is spare
        line[:size, -1] = ord("\n")  # the line's last spare byte takes the newline
        chunks.append(line[:size].tobytes().translate(None, b"\0").decode("ascii"))
    return chunks


@dataclass(frozen=True)
class _FaceBlock:
    """The "f" lines of a face array, checked against ``vertex_count`` vertices."""

    vertex_count: int
    text: list[str]


def _face_block(faces: np.ndarray, vertex_count: int) -> _FaceBlock:
    """Format the faces once, for every mesh of ``vertex_count`` vertices on one grid."""
    faces = np.asarray(faces)
    if faces.size and not 0 <= faces.min() <= faces.max() < vertex_count:
        raise ConfigurationError(f"face indices must lie in [0, {vertex_count}), got {faces.min()} to {faces.max()}")
    # faces are written as the vertex numbers 1..V, each formatted once
    numbers = _cells(np.arange(1, vertex_count + 1))
    return _FaceBlock(vertex_count, format_table((numbers, faces), sep=" ", head="f "))


def write_obj(path, vertices: np.ndarray, faces) -> None:
    """Wavefront OBJ: vertices in tessellation order, 1-based faces, no normals.
    ``faces`` is an (F, 3) index array or a ``_face_block`` made for ``len(vertices)``."""
    vertices = np.asarray(vertices, dtype=float)
    block = faces if isinstance(faces, _FaceBlock) else _face_block(faces, len(vertices))
    if block.vertex_count != len(vertices):
        raise ConfigurationError(f"the face block is for {block.vertex_count} vertices, not {len(vertices)}")
    atomic_write_text(path, *format_table(vertices, sep=" ", head="v "), *block.text)


def write_curvature_csv(path, us, vs, forms: FundamentalForms) -> None:
    """Grid of first-form coefficients and mean curvature, row-major in u."""
    index = np.indices((len(us), len(vs)), sparse=True)
    iu, iv, *columns = np.broadcast_arrays(*index, forms.H, forms.E, forms.F, forms.G)
    # u and v are formatted once per parameter value and repeated by index
    text = format_table((_cells(us), iu.ravel()), (_cells(vs), iv.ravel()), np.stack(columns, axis=-1).reshape(-1, 4))
    atomic_write_text(path, "u,v,H,E,F,G\n", *text)


def write_convergence_csv(path, history) -> None:
    """Best objective value per swarm iteration (iteration 0 = initial swarm)."""
    history = np.asarray(history, dtype=float)
    atomic_write_text(path, "iteration,best_value\n", *format_table(np.arange(len(history)), history))


def utc_timestamp() -> str:
    """Current UTC time; SOURCE_DATE_EPOCH overrides for reproducible output."""
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        seconds = int(time.time()) if stamp is None else int(stamp)
        moment = datetime.datetime.fromtimestamp(seconds, datetime.timezone.utc)
    except (OverflowError, OSError, ValueError) as exc:
        raise ConfigurationError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds in the datetime range, got {stamp!r}"
        ) from exc
    # strftime("%Y") does not pad years below 1000 on every platform
    return "%04d" % moment.year + moment.strftime("-%m-%dT%H:%M:%SZ")


def write_summary(path, command: str, timestamp: str, settings: dict, results: dict) -> None:
    """What a command did and what came out, serialized next to its artifacts.

    ``settings`` echoes every knob that influenced the numbers (quadrature
    order, tessellation, seeds, shape vectors) so each reported value can be
    recomputed from the emitted net file alone.
    """
    payload = {"command": command, "timestamp": timestamp, "settings": settings, "results": results}
    atomic_write_text(path, json.dumps(payload, indent=2), "\n")
