"""Pure-Python fallback for the compiled DFS kernel.

Same interface and semantics as the C extension ``_dfs``; selected
at import time when the extension is unavailable.  Slower by a large
constant factor but exact.
"""

import numpy as np


def tally_class(tables, max_len: int):
    """Histogram of walk endpoints: counts[class, length, contacts]."""
    step_vert = tables.step_vert.tolist()
    step_mid = tables.step_mid.tolist()
    step_dir = tables.step_dir.tolist()
    vert_surface = tables.vert_surface.tolist()
    mid_class = tables.mid_class.tolist()
    counts = [
        [[0] * (tables.n_surface + 1) for _ in range(max_len + 1)]
        for _ in range(tables.n_classes)
    ]
    vis_mid = bytearray(len(tables.mids))
    vis_vert = bytearray(len(tables.verts))

    def walk(mid, d, length, contacts):
        counts[mid_class[mid]][length][contacts] += 1
        if length >= max_len:
            return
        v = step_vert[2 * mid + d]
        if v < 0 or vis_vert[v]:
            return
        vis_vert[v] = 1
        base = 4 * mid + 2 * d
        c2 = contacts + vert_surface[v]
        for t in (0, 1):
            nm = step_mid[base + t]
            if not vis_mid[nm]:
                vis_mid[nm] = 1
                walk(nm, step_dir[base + t], length + 1, c2)
                vis_mid[nm] = 0
        vis_vert[v] = 0

    vis_mid[tables.start_mid] = 1
    walk(tables.start_mid, tables.start_dir, 0, 0)
    return np.asarray(counts, dtype=np.int64)
