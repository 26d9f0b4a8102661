"""Per-mid-edge domain geometry, a test oracle for the one-pass
``Domain.tables``: a domain's mid-edges, boundary classes and kernel
step tables, each from its own pass.

These are the package's former bodies of ``Domain.mids`` (the union of
every vertex's ``vertex_mids``), ``Domain.boundary`` (a ``mid_endpoints``
scan of each mid-edge, then ``_classify_boundary`` on its one inside
vertex) and ``enumeration.build_tables`` (``mid_headings`` of each
mid-edge and ``lattice.step`` of each turn).  They take the domain as
an argument and read only its vertices, surface, kind and height.
``mirror_class`` reflects each mid-edge and reads this module's own
``boundary`` of both.  ``vertex_mids`` and ``mid_endpoints``, once
lattice helpers, live here too: the package reads every mid-edge off
the layout pass and needs neither.
"""

import numpy as np

from hexsaw import domains as dm
from hexsaw import lattice
from hexsaw.errors import InvalidParameterError
from hexsaw.lattice import HEADING_STEPS, is_vertex, vertex_neighbors, vertex_type


def mid_endpoints(U: int, V: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two vertices of the edge whose midpoint is (U, V)."""
    out = []
    for du, dv in HEADING_STEPS:
        uu, vv = U + du, V + dv
        if uu % 2 == 0 and vv % 2 == 0 and is_vertex(uu // 2, vv // 2):
            out.append((uu // 2, vv // 2))
    if len(out) != 2:
        raise InvalidParameterError(f"({U}, {V}) is not a mid-edge")
    return out[0], out[1]


def vertex_mids(u: int, v: int) -> list[tuple[int, int]]:
    """The three mid-edges incident to a vertex."""
    return [(u + w[0], v + w[1]) for w in vertex_neighbors(u, v)]


def mids(domain: dm.Domain) -> frozenset[tuple[int, int]]:
    out = set()
    for vtx in domain.vertices:
        out.update(vertex_mids(*vtx))
    return frozenset(out)


def boundary(domain: dm.Domain) -> dict[tuple[int, int], str]:
    """Boundary class of every mid-edge (INTERIOR for full edges)."""
    out = {}
    for m in mids(domain):
        p, q = mid_endpoints(*m)
        inside = [vtx for vtx in (p, q) if vtx in domain.vertices]
        if len(inside) == 2:
            out[m] = dm.INTERIOR
        else:
            out[m] = _classify_boundary(domain, m, inside[0])
    return out


def _classify_boundary(domain: dm.Domain, m, owner) -> str:
    U, V = m
    if V == 0:
        return dm.A_START if m == lattice.START_MID else dm.A_BOTTOM
    if V == 6 * domain.T:
        return dm.B_TOP
    if domain.kind == "rectangle":
        return dm.E_PLUS if vertex_type(*owner) == "lam" else dm.E_MINUS
    return dm.E_RIGHT if U > 0 else dm.E_LEFT


def mirror_class(domain: dm.Domain, classes: dict) -> np.ndarray | None:
    """The class permutation of the reflection (U, V) -> (-U, V), read
    off the pairs (class of m, class of its mirror), or None if the
    vertices or surface are not symmetric or the pairs are not one
    involution fixing the start class."""
    def mirrored(vs):
        return frozenset((-u, v) for u, v in vs)

    if mirrored(domain.vertices) != domain.vertices or mirrored(domain.surface) != domain.surface:
        return None
    pairs = {(dm.CLASS_ID[c], dm.CLASS_ID[classes[-U, V]]) for (U, V), c in classes.items()}
    perm = dict(pairs)
    if len(perm) != len(pairs):
        return None
    out = [perm.get(c, c) for c in range(len(dm.CLASS_ORDER))]
    start = dm.CLASS_ID[dm.A_START]
    if out[start] != start or any(out[p] != c for c, p in enumerate(out)):
        return None
    return np.array(out, dtype=np.int32)


def build_tables(domain: dm.Domain) -> dm.KernelTables:
    mids_ = tuple(sorted(mids(domain)))
    verts = tuple(sorted(domain.vertices))
    mid_idx = {m: i for i, m in enumerate(mids_)}
    vert_idx = {v: i for i, v in enumerate(verts)}
    headings = [lattice.mid_headings(*m) for m in mids_]

    step_vert = np.full(2 * len(mids_), -1, dtype=np.int32)
    step_mid = np.zeros(4 * len(mids_), dtype=np.int32)
    step_dir = np.zeros(4 * len(mids_), dtype=np.int32)
    for i, m in enumerate(mids_):
        for d, h in enumerate(headings[i]):
            du, dv = lattice.HEADING_STEPS[h]
            vtx = ((m[0] + du) // 2, (m[1] + dv) // 2)
            if vtx not in domain.vertices:
                continue
            step_vert[2 * i + d] = vert_idx[vtx]
            for t, turn in enumerate(("L", "R")):
                _, nm, nh = lattice.step(m, h, turn)
                j = mid_idx[nm]
                step_mid[4 * i + 2 * d + t] = j
                step_dir[4 * i + 2 * d + t] = headings[j].index(nh)

    vert_surface = np.array(
        [1 if v in domain.surface else 0 for v in verts], dtype=np.uint8
    )
    classes = boundary(domain)
    mid_class = np.array(
        [dm.CLASS_ID[classes[m]] for m in mids_], dtype=np.int32
    )
    sm = mid_idx[lattice.START_MID]
    return dm.KernelTables(
        mids=mids_,
        verts=verts,
        step_vert=step_vert,
        step_mid=step_mid,
        step_dir=step_dir,
        vert_surface=vert_surface,
        mid_class=mid_class,
        start_mid=sm,
        start_dir=headings[sm].index(lattice.START_HEADING),
        n_classes=len(dm.CLASS_ORDER),
        n_surface=int(vert_surface.sum()),
        mirror_class=mirror_class(domain, classes),
    )
