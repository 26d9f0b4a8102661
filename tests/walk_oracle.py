"""Pure-Python self-avoidance, classification, renewal points and
diamond points, a test oracle for the kernel's ``walk_facts``, the
brute-force source of walks, every turn sequence of a length, and the
stickbreak sweep as a loop over ``Walk`` objects, an oracle for the
kernel's ``stickbreak_sweep``.

The first four are the package's former Python bodies of
``Walk.is_self_avoiding``, ``classify_walk``, ``renewal_points`` and
``diamond_points``, which read the walk's Python trace (``Walk.mids``
and this module's ``headings``, traced with ``lattice.step``) and never
the kernel; they tell a vertical mid-edge by this module's
``mid_orientation``, once a package lattice helper.  The sweep is the
command line's former loop: one ``Walk``, ``stickbreak`` and
``classify_walk`` call per diamond-point pair.
"""

from typing import Iterator

from hexsaw import bridges as br
from hexsaw import lattice
from hexsaw.errors import ClassificationError
from hexsaw.lattice import Turn, Walk, mid_headings


def iter_turn_sequences(n: int) -> Iterator[tuple[Turn, ...]]:
    """All 2**n turn sequences of length n."""
    if n == 0:
        yield ()
        return
    for rest in iter_turn_sequences(n - 1):
        yield ("L",) + rest
        yield ("R",) + rest


def mid_orientation(U: int, V: int) -> int:
    """0 = vertical, 1 = NE/SW slant, 2 = SE/NW slant."""
    return mid_headings(U, V)[0] % 3


def headings(w: Walk) -> list[int]:
    """The heading along each mid-edge of the walk, traced with
    ``lattice.step``."""
    m, h = w.start, w.heading
    out = [h]
    for t in w.turns:
        _, m, h = lattice.step(m, h, t)
        out.append(h)
    return out


def is_self_avoiding(w: Walk) -> bool:
    mids, verts, _ = w._trace
    return len(set(mids)) == len(mids) and len(set(verts)) == len(verts)


def classify_walk(w: Walk) -> str:
    """Classify as 'bridge', 'arch', 'half-plane' or 'other'.

    A bridge starts and ends on vertical mid-edges traversed upward, with
    all interior mid-edges strictly between the two in height.  An arch
    stays strictly above its start line and comes back down to it.  A
    half-plane walk merely stays strictly above the start line.
    """
    if not is_self_avoiding(w):
        raise ClassificationError("walk is not self-avoiding")
    mids = w.mids
    v0, vn = mids[0][1], mids[-1][1]
    interior = [m[1] for m in mids[1:-1]]
    n = len(w)
    if n == 0:
        raise ClassificationError("the empty walk is not classifiable")
    heads = headings(w)
    vertical_up_ends = (
        mid_orientation(*mids[0]) == 0
        and mid_orientation(*mids[-1]) == 0
        and heads[0] == 0
        and heads[-1] == 0
    )
    if vertical_up_ends and all(v0 < y < vn for y in interior):
        return "bridge"
    above = all(m[1] > v0 for m in mids[1:])
    if above:
        return "half-plane"
    if vn == v0 and all(y > v0 for y in interior):
        return "arch"
    return "other"


def _require_bridge(b: Walk) -> None:
    if classify_walk(b) != "bridge":
        raise ClassificationError("walk is not a bridge")


def renewal_points(b: Walk) -> list[int]:
    """Mid-edge indices splitting the bridge into two bridges.

    Always contains 0 and len(b).  An interior index qualifies iff the
    mid-edge is vertical, traversed upward, and strictly separates the
    walk by height.
    """
    _require_bridge(b)
    mids, heads = b.mids, headings(b)
    n = len(b)
    out = [0]
    running_max = mids[0][1]
    suffix_min = [0] * (n + 1)
    suffix_min[n] = mids[n][1]
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(mids[i][1], suffix_min[i + 1])
    for i in range(1, n):
        if (
            heads[i] == 0
            and mid_orientation(*mids[i]) == 0
            and running_max < mids[i][1] < suffix_min[i + 1]
        ):
            out.append(i)
        running_max = max(running_max, mids[i][1])
    out.append(n)
    return out


def diamond_points(b: Walk) -> tuple[int, ...]:
    """Indices of vertical mid-edges such that the whole walk lies in the
    double cone with apexes half an edge below and above the mid-edge
    and boundary slopes +-60 degrees."""
    _require_bridge(b)
    mids = b.mids
    out = []
    for k, (uk, vk) in enumerate(mids):
        if mid_orientation(uk, vk) != 0:
            continue
        ok = True
        for (u, v) in mids:
            d = 3 * abs(u - uk)
            if not (v - vk + 2 >= d or vk + 2 - v >= d):
                ok = False
                break
        if ok:
            out.append(k)
    return tuple(out)


def stickbreak_sweep(max_len: int) -> br.StickbreakSweep:
    """``bridges.stickbreak_sweep``'s counts, from ``bridges.stickbreak``
    on each diamond-point pair of each ``bridges.iter_bridges`` bridge."""
    enumerated = checked = failures = bridges_used = 0
    first = None
    for b in br.iter_bridges(max_len):
        enumerated += 1
        d = br.diamond_points(b)
        if len(d) < 2:
            continue
        bridges_used += 1
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                out = br.stickbreak(b, i, j)
                checked += 1
                try:
                    ok = lattice.classify_walk(out) == "bridge" and len(out) == len(b) + 2
                except ClassificationError:   # not self-avoiding, or empty
                    ok = False
                failures += not ok
                if not ok and first is None:
                    first = (b.turns, i, j)
    return br.StickbreakSweep(enumerated, bridges_used, checked, failures, first)
