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
    # An explicit stack, so walks may be longer than the recursion limit.
    # Entries are walks to count, (end mid, dir, length, contacts), and
    # undo markers (mid, -1, vertex, 0) that release a step's mid-edge
    # and vertex once every extension through them has been counted.
    stack = [(tables.start_mid, tables.start_dir, 0, 0)]
    while stack:
        mid, d, length, contacts = stack.pop()
        if d < 0:
            vis_mid[mid] = vis_vert[length] = 0
            continue
        if vis_mid[mid]:
            continue
        counts[mid_class[mid]][length][contacts] += 1
        if length >= max_len:
            continue
        v = step_vert[2 * mid + d]
        if v < 0 or vis_vert[v]:
            continue
        vis_mid[mid] = vis_vert[v] = 1
        base = 4 * mid + 2 * d
        c2 = contacts + vert_surface[v]
        stack.append((mid, -1, v, 0))
        # right turn first, so the left turn is counted first
        stack.append((step_mid[base + 1], step_dir[base + 1], length + 1, c2))
        stack.append((step_mid[base], step_dir[base], length + 1, c2))
    return np.asarray(counts, dtype=np.int64)
