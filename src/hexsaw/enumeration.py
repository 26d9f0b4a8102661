"""Exhaustive enumeration of walks and loop configurations in a domain.

Both enumerators walk the same step tables (:func:`build_tables`), the
domain's one-pass :attr:`~hexsaw.domains.Domain.tables`.  The hot path
(full endpoint histograms keyed by boundary class, length and surface
contacts) runs through the compiled kernel ``_dfs``, which must be
built: importing the package without it raises ``ImportError``, and its
histograms are checked against :func:`iter_saws`.  The kernel walks
only the walks whose first turn is left and folds in their mirror
images by the tables' ``mirror_class``.  Everything that needs per-walk
detail (turns, winding phases, penultimate mid-edges,
loop decoration) uses :func:`iter_saws`, the package's one walk
generator, and is only intended for small domains.  Such a pass is
collapsed into tallies {(length, contacts, loops): count} under a key
(the boundary class, or for :func:`observable_f` the end, penultimate
mid-edge and winding), so each distinct monomial x_c^len y^contacts
n^loops is weighed once, by the same code for every tally.  Half-plane
and strip walks are walks of strip-prefix domains
(:func:`half_plane_domain`, :func:`hexsaw.bridges.iter_strip_walks`);
the bridges among the half-plane walks come from the kernel's bridge
enumerator instead (:func:`hexsaw.bridges.iter_bridges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import domains as dm
from . import lattice
from .errors import CapacityError, InvalidParameterError, TruncationError
from .lattice import _kernel

LOOP_VERTEX_CAP = 40


def build_tables(domain: dm.Domain) -> dm.KernelTables:
    return domain.tables


def _resolve_max_len(domain: dm.Domain, max_len: int | None) -> int:
    hard = len(domain.mids) - 1
    if max_len is None:
        max_len = hard
    if max_len < 0:
        raise InvalidParameterError(f"need max_len >= 0, got {max_len}")
    if domain.max_reliable_len is not None and max_len > domain.max_reliable_len:
        raise TruncationError(
            f"walks of length {max_len} can reach the truncation cut "
            f"(reliable up to {domain.max_reliable_len}); widen the prefix"
        )
    return min(max_len, hard)


def backend_name() -> str:
    return "compiled"


def class_histogram(domain: dm.Domain, max_len: int | None = None) -> np.ndarray:
    """counts[class_id, length, contacts] over all walks from a."""
    return _kernel.tally_class(build_tables(domain), _resolve_max_len(domain, max_len))


class SawVisit(NamedTuple):
    """One enumerated walk, as seen by a visitor."""

    end: tuple[int, int]
    prev: tuple[int, int] | None   # penultimate mid-edge
    length: int
    contacts: int
    winding: int                   # units of pi/3
    turns: tuple[lattice.Turn, ...]
    vertices: tuple[tuple[int, int], ...]   # in walk order

    @property
    def walk(self) -> lattice.Walk:
        return lattice.Walk(turns=self.turns)


def iter_saws(domain: dm.Domain, max_len: int | None = None) -> Iterator[SawVisit]:
    """Every self-avoiding walk from a, including the empty walk, in
    depth-first order (left turn before right turn)."""
    n_max = _resolve_max_len(domain, max_len)
    tab = build_tables(domain)
    mids, verts = tab.mids, tab.verts
    step_vert = tab.step_vert.tolist()
    step_mid = tab.step_mid.tolist()
    step_dir = tab.step_dir.tolist()
    vert_surface = tab.vert_surface.tolist()
    vis_mid = bytearray(len(mids))
    vis_vert = bytearray(len(verts))
    turns: list = []
    path_verts: list = []
    # An explicit stack, so walks may be longer than the recursion limit.
    # Entries are walks to visit, (end mid, dir, penultimate mid-edge,
    # contacts, winding, last turn), and undo markers (mid, -1, ...) and
    # (vertex, -2, ...) that release a turn's mid-edge or a step's vertex
    # once every extension through it has been visited.
    vis_mid[tab.start_mid] = 1
    stack = [(tab.start_mid, tab.start_dir, None, 0, 0, None)]
    while stack:
        mid, d, prev, contacts, wind, turn = stack.pop()
        if d == -1:
            vis_mid[mid] = 0
            turns.pop()
            continue
        if d == -2:
            vis_vert[mid] = 0
            path_verts.pop()
            continue
        if turn:
            if vis_mid[mid]:
                continue
            vis_mid[mid] = 1
            turns.append(turn)
            stack.append((mid, -1, None, 0, 0, None))
        length = len(turns)
        yield SawVisit(mids[mid], prev, length, contacts, wind, tuple(turns),
                       tuple(path_verts))
        if length >= n_max:
            continue
        v = step_vert[2 * mid + d]
        if v < 0 or vis_vert[v]:
            continue
        vis_vert[v] = 1
        path_verts.append(verts[v])
        stack.append((v, -2, None, 0, 0, None))
        base = 4 * mid + 2 * d
        c2 = contacts + vert_surface[v]
        # right turn first, so the left turn is visited first
        stack.append((step_mid[base + 1], step_dir[base + 1], mids[mid], c2, wind - 1, "R"))
        stack.append((step_mid[base], step_dir[base], mids[mid], c2, wind + 1, "L"))


@dataclass(frozen=True)
class Loop:
    vertices: frozenset
    length: int
    contacts: int


def enumerate_loops(domain: dm.Domain) -> list[Loop]:
    """All simple cycles fully inside the domain (vertex cap 40)."""
    if len(domain.vertices) > LOOP_VERTEX_CAP:
        raise CapacityError(
            f"loop search capped at {LOOP_VERTEX_CAP} vertices, domain has "
            f"{len(domain.vertices)}"
        )
    verts = sorted(domain.vertices)
    adj = {
        v: [w for w in lattice.vertex_neighbors(*v) if w in domain.vertices]
        for v in verts
    }
    loops = []
    path: list = []

    def extend(root, cur):
        for nxt in adj[cur]:
            if nxt == root and len(path) >= 3:
                # Count each cycle once: fix orientation by requiring the
                # second vertex to precede the last one.
                if path[1] < path[-1]:
                    vs = frozenset(path)
                    loops.append(
                        Loop(vs, len(path), sum(1 for v in vs if v in domain.surface))
                    )
            elif nxt > root and nxt not in path:
                path.append(nxt)
                extend(root, nxt)
                path.pop()

    for r in verts:
        path = [r]
        extend(r, r)
    return loops


def _loop_subsets(loops: list[Loop], busy) -> Iterator[tuple[int, int, int]]:
    """(total length, total contacts, count) over disjoint subsets of the
    loops that avoid the vertices in ``busy``."""
    free = [lp for lp in loops if lp.vertices.isdisjoint(busy)]

    def rec(i, used, tot_len, tot_con, k):
        yield (tot_len, tot_con, k)
        for j in range(i, len(free)):
            lp = free[j]
            if lp.vertices.isdisjoint(used):
                yield from rec(
                    j + 1, used | lp.vertices, tot_len + lp.length,
                    tot_con + lp.contacts, k + 1,
                )

    yield from rec(0, frozenset(), 0, 0, 0)


Tallies = dict  # class -> {(length, contacts, loops): count}


def _walk_tallies(domain: dm.Domain, key, with_loops: bool) -> dict:
    """One :func:`iter_saws` pass grouped as key(visit) -> {(length,
    contacts, loops): count}; with loops, each walk is dressed with every
    disjoint set of loops that avoids it."""
    loops = enumerate_loops(domain) if with_loops else None
    out: dict = {}
    for visit in iter_saws(domain):
        tally = out.setdefault(key(visit), {})
        if loops is None:
            k = (visit.length, visit.contacts, 0)
            tally[k] = tally.get(k, 0) + 1
        else:
            for ll, lc, lk in _loop_subsets(loops, visit.vertices):
                k = (visit.length + ll, visit.contacts + lc, lk)
                tally[k] = tally.get(k, 0) + 1
    return out


def boundary_tallies(domain: dm.Domain, with_loops: bool = False) -> Tallies:
    """Configuration tallies keyed by boundary class of the walk's end."""
    out: Tallies = {c: {} for c in dm.CLASS_ORDER}
    if not with_loops:
        hist = class_histogram(domain)
        nz = np.argwhere(hist)
        for ci, ln, ct in nz:
            out[dm.CLASS_ORDER[ci]][(int(ln), int(ct), 0)] = int(hist[ci, ln, ct])
        return out
    out.update(_walk_tallies(domain, lambda v: domain.boundary[v.end], True))
    return out


def _tally_sum(consts, y):
    """A function summing count * x_c^len * y^contacts * n^loops over a
    tally.  The powers are memoised across calls."""
    x, yv, n = consts.x_c, consts.surface_weight(y), consts.n
    zero = consts.one() * 0
    xpow: dict = {}
    ypow: dict = {}

    def total(tally: dict):
        acc = zero
        for (ln, ct, lp), cnt in sorted(tally.items()):
            if ln not in xpow:
                xpow[ln] = x**ln
            if ct not in ypow:
                ypow[ct] = yv**ct
            term = cnt * xpow[ln] * ypow[ct]
            if lp:
                term = term * n**lp
            acc = acc + term
        return acc

    return total


def evaluate_tally(tally: dict, consts, y) -> object:
    """Sum count * x_c^len * y^contacts * n^loops over one tally."""
    return _tally_sum(consts, y)(tally)


def observable_f(domain: dm.Domain, consts, y, with_loops: bool = False) -> dict:
    """The parafermionic observable, split by the walk's last step:
    {(end mid-edge p, penultimate mid-edge): value}, with the empty walk
    under (a, None).  F(p) is the sum over the penultimate mid-edges;
    the split is what the boundary-vertex identity needs.

    One walk pass groups the walks by (end, penultimate, winding), and
    each group's tally is weighed once per (length, contacts, loops).
    At n = 0 every loop term is 0, so ``with_loops`` then dresses nothing.
    """
    total = _tally_sum(consts, y)
    groups = _walk_tallies(domain, lambda v: (v.end, v.prev, v.winding),
                           with_loops and consts.n != 0)
    phases: dict = {}
    out: dict = {}
    for (end, prev, wind), tally in groups.items():
        if wind not in phases:
            phases[wind] = consts.phase(wind)
        term = phases[wind] * total(tally)
        key = (end, prev)
        out[key] = out[key] + term if key in out else term
    return out


#: Walks ending back on the bottom line (class A) leave the open upper
#: half-plane; the start class stays, as it only ever holds the empty walk.
HALF_PLANE_CLASSES = frozenset(dm.CLASS_ORDER) - {dm.A_BOTTOM}


def half_plane_domain(N: int) -> dm.Domain:
    """A bottom-surface strip prefix that holds every walk of length <= N
    in the upper half-plane; keep the walks ending in HALF_PLANE_CLASSES."""
    size = dm.prefix_size(N)
    return dm.build_strip_prefix(size, size, surface="bottom")


def half_plane_counts(N: int) -> dict[tuple[int, int], int]:
    """c[n, i]: walks of length n <= N in the upper half-plane with i
    visits to the boundary vertex row."""
    if N < 0:
        raise InvalidParameterError(f"need N >= 0, got {N}")
    hist = class_histogram(half_plane_domain(N), max_len=N)
    keep = [i for i, c in enumerate(dm.CLASS_ORDER) if c in HALF_PLANE_CLASSES]
    agg = hist[keep].sum(axis=0)
    out = {}
    for n in range(N + 1):
        for i in range(agg.shape[1]):
            if agg[n, i]:
                out[(n, i)] = int(agg[n, i])
    return out
