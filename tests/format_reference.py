"""Reference text of the mesh and curvature writers: one Python ``%`` per row.

This is how ``gtplateau.io`` formatted OBJ and CSV rows before the text was
built as numpy byte arrays; the writers must still produce these bytes.
"""

import numpy as np

#: Rows converted to Python objects at a time: a whole-array tolist() holds an
#: object per entry at once, about 7 MB more peak memory for a 129x129 OBJ.
_ROW_BLOCK = 1024


def _format_rows(template: str, rows: np.ndarray) -> str:
    """``template % row`` for every row of a 2-D array, concatenated."""
    return "".join(
        "".join([template % tuple(row) for row in rows[start:start + _ROW_BLOCK].tolist()])
        for start in range(0, len(rows), _ROW_BLOCK)
    )


def obj_text(vertices, faces) -> str:
    text = _format_rows("v %.17g %.17g %.17g\n", np.asarray(vertices, dtype=float))
    return text + _format_rows("f %d %d %d\n", np.asarray(faces) + 1)


def curvature_text(us, vs, forms) -> str:
    u = np.asarray(us, dtype=float)[:, None]
    v = np.asarray(vs, dtype=float)[None, :]
    grid = np.stack(np.broadcast_arrays(u, v, forms.H, forms.E, forms.F, forms.G), axis=-1)
    rows = _format_rows("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n", grid.reshape(-1, 6))
    return "u,v,H,E,F,G\n" + rows
