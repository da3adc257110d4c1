"""File formats: JSON control nets, OBJ meshes, CSV grids, run summaries.

Net files are JSON objects with a "points" array of rows (row index = u),
each cell either a 3-number list or null for an unknown point, plus optional
"degrees" and a "fixed" mask. All writers go through an atomic
write-temp-then-rename so a crash never leaves a half-written artifact, and
all float formatting is deterministic so identical runs produce identical
bytes.
"""

from __future__ import annotations

import datetime
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NetFormatError
from .patch import ControlNet, FundamentalForms


def atomic_write_text(path, text: str) -> None:
    """Write text via a temp file in the target directory, then rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gtplateau-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
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
                    isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell
                )
            )
            if not ok:
                raise NetFormatError(
                    f"{source}: point [{i}][{j}] must be null or a list of 3 numbers"
                )
            points[i, j] = cell

    degrees = payload.get("degrees")
    if degrees is not None:
        expected = [points.shape[0] - 1, points.shape[1] - 1]
        if not isinstance(degrees, list) or list(degrees) != expected:
            raise NetFormatError(
                f"{source}: declared degrees {degrees!r} do not match the "
                f"{points.shape[0]}x{points.shape[1]} point grid"
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
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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
    atomic_write_text(path, json.dumps(net_to_payload(net), indent=2) + "\n")


#: Rows converted to Python objects at a time: a whole-array tolist() holds an
#: object per entry at once, about 7 MB more peak memory for a 129x129 OBJ.
_ROW_BLOCK = 1024


def _format_rows(template: str, rows: np.ndarray) -> str:
    """``template % row`` for every row of a 2-D array, concatenated."""
    return "".join(
        "".join([template % tuple(row) for row in rows[start:start + _ROW_BLOCK].tolist()])
        for start in range(0, len(rows), _ROW_BLOCK)
    )


def write_obj(path, vertices: np.ndarray, faces: np.ndarray) -> None:
    """Wavefront OBJ: vertices in tessellation order, 1-based faces, no normals."""
    text = _format_rows("v %.17g %.17g %.17g\n", np.asarray(vertices, dtype=float))
    atomic_write_text(path, text + _format_rows("f %d %d %d\n", np.asarray(faces) + 1))


def write_curvature_csv(path, us, vs, forms: FundamentalForms) -> None:
    """Grid of first-form coefficients and mean curvature, row-major in u."""
    u = np.asarray(us, dtype=float)[:, None]
    v = np.asarray(vs, dtype=float)[None, :]
    grid = np.stack(np.broadcast_arrays(u, v, forms.H, forms.E, forms.F, forms.G), axis=-1)
    rows = _format_rows("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n", grid.reshape(-1, 6))
    atomic_write_text(path, "u,v,H,E,F,G\n" + rows)


def write_convergence_csv(path, history) -> None:
    """Best objective value per swarm iteration (iteration 0 = initial swarm)."""
    lines = ["iteration,best_value"]
    lines += ["%d,%.17g" % row for row in enumerate(np.asarray(history, dtype=float).tolist())]
    atomic_write_text(path, "\n".join(lines) + "\n")


def utc_timestamp() -> str:
    """Current UTC time; SOURCE_DATE_EPOCH overrides for reproducible output."""
    stamp = os.environ.get("SOURCE_DATE_EPOCH")
    if stamp is not None:
        try:
            seconds = int(stamp)
        except ValueError as exc:
            raise ConfigurationError("SOURCE_DATE_EPOCH must be an integer") from exc
    else:
        seconds = int(time.time())
    moment = datetime.datetime.fromtimestamp(seconds, datetime.timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass
class RunSummary:
    """What a command did and what came out, serialized next to its artifacts.

    ``settings`` echoes every knob that influenced the numbers (quadrature
    order, tessellation, seeds, shape vectors) so each reported value can be
    recomputed from the emitted net file alone.
    """

    command: str
    settings: dict
    results: dict
    timestamp: str = field(default_factory=utc_timestamp)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "timestamp": self.timestamp,
            "settings": self.settings,
            "results": self.results,
        }
        return json.dumps(payload, indent=2) + "\n"


def write_summary(summary: RunSummary, path) -> None:
    atomic_write_text(path, summary.to_json())
