"""Finite domains: trapezoids, rectangles and truncated strips.

A domain is a finite vertex set plus the half-edges they carry.  Every
mid-edge incident to a domain vertex belongs to the domain; a mid-edge
whose far endpoint falls outside the vertex set is a boundary half-edge
and gets a boundary class.  Walks start on the marked vertical mid-edge
``a = (0, 0)`` just below the bottom row and may end on any mid-edge.

Trapezoid D(T, L): T rows of cells, bottom row 2L+1 cells wide, each row
one cell wider per side going up, sides sloping outward.  The weighted
surface is the top row of vertices.  Its boundary splits into the bottom
line A (2L+1 vertical mid-edges, including a), the top line B (2L+T+1
mid-edges), and T outward-sloping half-edges on each side (E right,
EBAR left).

Rectangle R(T, L): vertical sides instead, |u| <= L.  Side half-edges
point up out of a down-vertex row (class EPLUS) or down out of an
up-vertex row (EMINUS).  The rectangle carries no weighted surface.

Strip prefix: the infinite strip of height T cut at |u| <= 2*Lmax + 1.
Tallies agree with the infinite strip for walks of length <= 2*Lmax;
enumerating longer walks raises TruncationError upstream.

A domain's sorted mid-edges, their boundary classes and the kernel's
step tables all come from one pass over its vertices
(:attr:`Domain.tables`), made on first use: a vertex's three mid-edges
are twice the vertex plus its three heading steps, a mid-edge met from
one domain vertex only is a boundary mid-edge classified by that
vertex, and a walk entering a vertex through one of its mid-edges turns
left or right into the other two.  ``mids`` and ``boundary`` are views
of that pass.  Every domain the package builds is symmetric under the
reflection U -> -U, which fixes a, swaps left and right turns and keeps
length and contacts; the pass checks that and records the reflection's
class permutation (E <-> EBAR on trapezoids and strips) as
``mirror_class``, and the kernel then walks only the walks whose first
turn is left and folds in their mirror images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from . import lattice
from .lattice import is_vertex

# Boundary classes.
A_START = "a"        # the marked starting mid-edge itself
A_BOTTOM = "A"       # other bottom-line mid-edges
B_TOP = "B"
E_RIGHT = "E"
E_LEFT = "EBAR"
E_PLUS = "E+"
E_MINUS = "E-"
INTERIOR = "int"

CLASS_ORDER = (A_START, A_BOTTOM, B_TOP, E_RIGHT, E_LEFT, E_PLUS, E_MINUS, INTERIOR)
CLASS_ID = {c: i for i, c in enumerate(CLASS_ORDER)}


@dataclass(frozen=True, eq=False)
class KernelTables:
    """A domain's stepping tables, as the kernel and iter_saws read them.
    A mid-edge's direction flag ``dir`` is 1 when it is traversed along
    heading 3, 4 or 5, and 0 along 0, 1 or 2."""

    mids: tuple              # sorted
    verts: tuple             # sorted
    step_vert: np.ndarray    # [2*mid + dir] -> vertex ahead, -1 if outside
    step_mid: np.ndarray     # [4*mid + 2*dir + turn] -> next mid (turn 0 = L)
    step_dir: np.ndarray     # [4*mid + 2*dir + turn] -> next dir flag
    vert_surface: np.ndarray
    mid_class: np.ndarray    # CLASS_ID of each mid-edge's boundary class
    start_mid: int
    start_dir: int
    n_classes: int
    n_surface: int
    # [class] -> class of the mirror image under (U, V) -> (-U, V), an
    # involution fixing A_START; None unless the domain is symmetric.
    # With it the kernel walks the first-left-turn subtree and folds.
    mirror_class: np.ndarray | None


# The headings from a vertex out through its three mid-edges, in the
# cyclic order of left turns: a walk that enters the vertex through the
# k-th leaves it through the (k+1)-th on a left turn and the (k-1)-th on
# a right turn.  Y vertices point up, lambda vertices down.
_Y_HEADINGS = (0, 2, 4)
_LAM_HEADINGS = (3, 5, 1)


@dataclass(frozen=True)
class Domain:
    kind: str
    T: int
    L: int
    vertices: frozenset[tuple[int, int]]
    surface: frozenset[tuple[int, int]]
    #: walks longer than this are unreliable (None = no truncation)
    max_reliable_len: int | None = None

    def __post_init__(self):
        for u, v in self.vertices:
            if not is_vertex(u, v):
                raise InvalidParameterError(f"({u}, {v}) is not a lattice vertex")
        if not self.surface <= self.vertices:
            raise InvalidParameterError("surface vertices must lie in the domain")
        # the start mid-edge joins (0, -1) and (0, 1)
        if (0, 1) not in self.vertices and (0, -1) not in self.vertices:
            raise InvalidParameterError("domain does not contain the start mid-edge")

    @cached_property
    def tables(self) -> KernelTables:
        """Mid-edges, boundary classes and step tables in one pass over
        the vertices.  Vertex (u, v)'s mid-edges are (2u, 2v) plus the
        steps of its three out-headings j, and a mid-edge met from one
        domain vertex only is a boundary mid-edge, classified by that
        vertex.  A walk leaving the vertex along j has dir [j >= 3]; one
        entering it through that mid-edge moves along j + 3, the other
        dir."""
        steps = lattice.HEADING_STEPS
        verts = tuple(sorted(self.vertices))
        # mid-edge -> whether its owner is a lambda vertex, or None once
        # a second domain vertex meets it
        owner: dict[tuple[int, int], bool | None] = {}
        incident = []
        for u, v in verts:
            lam = v % 3 == 1
            ms = []
            for h in _LAM_HEADINGS if lam else _Y_HEADINGS:
                du, dv = steps[h]
                m = (2 * u + du, 2 * v + dv)
                owner[m] = None if m in owner else lam
                ms.append(m)
            incident.append((lam, ms))
        mids = tuple(sorted(owner))
        mid_idx = {m: i for i, m in enumerate(mids)}
        n = len(mids)
        step_vert = [-1] * (2 * n)
        step_mid = [0] * (4 * n)
        step_dir = [0] * (4 * n)
        for vi, (lam, ms) in enumerate(incident):
            ix = [mid_idx[m] for m in ms]
            # the dir leaving through each mid-edge; entering is the other
            outs = (1, 1, 0) if lam else (0, 0, 1)
            for k in range(3):
                i, back = ix[k], 1 - outs[k]
                step_vert[2 * i + back] = vi
                base = 4 * i + 2 * back
                left, right = (k + 1) % 3, (k - 1) % 3
                step_mid[base] = ix[left]
                step_dir[base] = outs[left]
                step_mid[base + 1] = ix[right]
                step_dir[base + 1] = outs[right]
        classes = [INTERIOR if owner[m] is None
                   else self._classify_boundary(m, owner[m]) for m in mids]
        vert_surface = [1 if v in self.surface else 0 for v in verts]
        return KernelTables(
            mids=mids,
            verts=verts,
            step_vert=np.array(step_vert, dtype=np.int32),
            step_mid=np.array(step_mid, dtype=np.int32),
            step_dir=np.array(step_dir, dtype=np.int32),
            vert_surface=np.array(vert_surface, dtype=np.uint8),
            mid_class=np.array([CLASS_ID[c] for c in classes], dtype=np.int32),
            start_mid=mid_idx[lattice.START_MID],
            start_dir=int(lattice.START_HEADING >= 3),
            n_classes=len(CLASS_ORDER),
            n_surface=sum(vert_surface),
            mirror_class=self._mirror_class(dict(zip(mids, classes))),
        )

    @cached_property
    def mids(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.tables.mids)

    @cached_property
    def boundary(self) -> dict[tuple[int, int], str]:
        """Boundary class of every mid-edge (INTERIOR for full edges)."""
        tables = self.tables
        return dict(zip(tables.mids, map(CLASS_ORDER.__getitem__, tables.mid_class.tolist())))

    def _mirror_class(self, boundary: dict) -> np.ndarray | None:
        """The class permutation of the reflection (u, v) -> (-u, v), or
        None unless the vertices and the surface are symmetric and one map
        of classes sends every mid-edge's class to its mirror's.  That map
        is an involution (the reflection is one) and fixes A_START (the
        start mid-edge is its own mirror)."""
        for vs in (self.vertices, self.surface):
            if {(-u, v) for u, v in vs} != vs:
                return None
        image: dict[str, str] = {}
        for (U, V), c in boundary.items():
            mirror = boundary[-U, V]
            if image.setdefault(c, mirror) != mirror:
                return None
        return np.array([CLASS_ID[image.get(c, c)] for c in CLASS_ORDER], dtype=np.int32)

    def _classify_boundary(self, m, lam_owner: bool) -> str:
        U, V = m
        if V == 0:
            return A_START if m == lattice.START_MID else A_BOTTOM
        if V == 6 * self.T:
            return B_TOP
        if self.kind == "rectangle":
            return E_PLUS if lam_owner else E_MINUS
        return E_RIGHT if U > 0 else E_LEFT


def _check_TL(T: int, L: int) -> None:
    if T < 1 or L < 1:
        raise InvalidParameterError(f"need T >= 1 and L >= 1, got T={T}, L={L}")


def build_trapezoid(T: int, L: int) -> Domain:
    _check_TL(T, L)
    verts = set()
    for k in range(T):
        # down-vertex row of cell row k, then up-vertex row (one wider).
        for u in range(-(2 * L + k), 2 * L + k + 1):
            if (u - k) % 2 == 0:
                verts.add((u, 3 * k + 1))
        for u in range(-(2 * L + 1 + k), 2 * L + k + 2):
            if (u - k - 1) % 2 == 0:
                verts.add((u, 3 * k + 2))
    surface = frozenset(v for v in verts if v[1] == 3 * T - 1)
    return Domain("trapezoid", T, L, frozenset(verts), surface)


def build_rectangle(T: int, L: int) -> Domain:
    _check_TL(T, L)
    verts = set()
    for v in range(1, 3 * T):
        for u in range(-L, L + 1):
            if is_vertex(u, v):
                verts.add((u, v))
    return Domain("rectangle", T, L, frozenset(verts), frozenset())


def prefix_size(N: int) -> int:
    """max(1, ceil(N/2)): the half-width Lmax of a strip prefix, and the
    height of a half-plane prefix, that hold every walk of length <= N.

    The prefix is reliable for walks of length <= 2*Lmax >= N.  An n-step
    walk's end mid-edge has doubled height V <= 3n, so no walk shorter
    than N reaches the top line V = 6T >= 3N of the height-T strip: no
    walk of length <= N is cut short there.
    """
    return max(1, -(-N // 2))


def build_strip_prefix(T: int, Lmax: int, surface: str = "top") -> Domain:
    """Height-T strip truncated at |u| <= 2*Lmax + 1.

    Walk tallies below length 2*Lmax coincide with the infinite strip: a
    walk of n steps moves at most n columns sideways, so it cannot feel
    the cut.  ``surface`` selects which vertex row carries the contact
    weight ('top' or 'bottom').
    """
    _check_TL(T, Lmax)
    if surface not in ("top", "bottom"):
        raise InvalidParameterError(f"surface must be 'top' or 'bottom', not {surface!r}")
    width = 2 * Lmax + 1
    verts = set()
    for v in range(1, 3 * T):
        for u in range(-width, width + 1):
            if is_vertex(u, v):
                verts.add((u, v))
    row = 3 * T - 1 if surface == "top" else 1
    srf = frozenset(v for v in verts if v[1] == row)
    dom = Domain("strip", T, Lmax, frozenset(verts), srf,
                 max_reliable_len=2 * Lmax)
    return dom
