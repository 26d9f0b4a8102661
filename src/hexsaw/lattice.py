"""Honeycomb lattice geometry: vertices, mid-edges, headings and walks.

Conventions
-----------
Vertices carry integer coordinates ``(u, v)`` with real position
``(u * sqrt(3)/2, v / 2)``.  A pair is a vertex iff ``v % 3 != 0`` and the
parity of ``u`` matches the row: ``u`` even when ``v % 6`` is 1 or 5, odd
when it is 2 or 4.  Rows with ``v % 3 == 2`` hold "Y" vertices (their
vertical edge points up), rows with ``v % 3 == 1`` hold inverted-Y
vertices (vertical edge points down).

Mid-edges use doubled coordinates ``(U, V)`` equal to the sum of the two
endpoint vertices, so every mid-edge is an integer pair with real position
``(U * sqrt(3)/4, V / 4)``.  The marked starting mid-edge ``a`` is
``(0, 0)``, the midpoint of the vertical edge between ``(0, -1)`` and
``(0, 1)``.

Headings are indexed 0..5 clockwise from "straight up"; heading ``h``
points along ``exp(i*(pi/2 - h*pi/3))``.  A walk never goes straight
through a vertex: each step turns left (heading - 1) or right
(heading + 1).

Self-avoidance, the class of :func:`classify_walk` and a bridge's
renewal and diamond points come from one call of the compiled kernel's
``walk_facts`` per walk, cached on the walk (:attr:`Walk.facts`).  This
module holds the package's one import of the kernel, so importing
``hexsaw`` from a checkout where it was never built, or where the build
is older than the kernel contract (:data:`KERNEL_ABI`), raises
``ImportError``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal, NamedTuple

from .errors import ClassificationError, InvalidParameterError

#: The contract of the kernel this package calls; ``_dfs.c`` exports the
#: same number, and both rise when an entry's arguments or tables change.
KERNEL_ABI = 5

# setuptools takes an in-place build copied without its timestamps for up
# to date, so a stale one is rebuilt with --force
_BUILD_HINT = ("run 'python setup.py build_ext --inplace{}' in a source checkout, "
               "or 'pip install -e .'")

try:
    from . import _dfs as _kernel
except ImportError as exc:
    raise ImportError("the compiled kernel hexsaw._dfs is not built; "
                      + _BUILD_HINT.format("")) from exc
_abi = getattr(_kernel, "KERNEL_ABI", None)
if _abi != KERNEL_ABI:
    raise ImportError(f"the compiled kernel hexsaw._dfs is stale (KERNEL_ABI {_abi}, "
                      f"need {KERNEL_ABI}); rebuild it: {_BUILD_HINT.format(' --force')}")

Turn = Literal["L", "R"]

# Vertex-to-vertex displacement for each heading, in (u, v) units.
HEADING_STEPS: tuple[tuple[int, int], ...] = (
    (0, 2),
    (1, 1),
    (1, -1),
    (0, -2),
    (-1, -1),
    (-1, 1),
)

#: The marked mid-edge every walk starts from, and its outgoing heading.
START_MID = (0, 0)
START_HEADING = 0


def is_vertex(u: int, v: int) -> bool:
    r = v % 6
    if r in (1, 5):
        return u % 2 == 0
    if r in (2, 4):
        return u % 2 == 1
    return False


def vertex_type(u: int, v: int) -> str:
    """'Y' for an up-pointing vertical edge, 'lam' for down-pointing."""
    if not is_vertex(u, v):
        raise InvalidParameterError(f"({u}, {v}) is not a lattice vertex")
    return "Y" if v % 3 == 2 else "lam"


def vertex_neighbors(u: int, v: int) -> list[tuple[int, int]]:
    if vertex_type(u, v) == "Y":
        return [(u, v + 2), (u - 1, v - 1), (u + 1, v - 1)]
    return [(u, v - 2), (u - 1, v + 1), (u + 1, v + 1)]


@lru_cache(maxsize=None)
def mid_headings(U: int, V: int) -> tuple[int, int]:
    """The two headings along which a walk can traverse this mid-edge."""
    hs = []
    for h, (du, dv) in enumerate(HEADING_STEPS):
        uu, vv = U + du, V + dv
        if uu % 2 == 0 and vv % 2 == 0 and is_vertex(uu // 2, vv // 2):
            hs.append(h)
    if len(hs) != 2:
        raise InvalidParameterError(f"({U}, {V}) is not a mid-edge")
    return hs[0], hs[1]


def step(
    mid: tuple[int, int], heading: int, turn: Turn
) -> tuple[tuple[int, int], tuple[int, int], int]:
    """One step: returns (vertex traversed, next mid, next heading)."""
    du, dv = HEADING_STEPS[heading]
    u, v = (mid[0] + du) // 2, (mid[1] + dv) // 2
    nh = (heading - 1) % 6 if turn == "L" else (heading + 1) % 6
    ndu, ndv = HEADING_STEPS[nh]
    return (u, v), (2 * u + ndu, 2 * v + ndv), nh


class WalkFacts(NamedTuple):
    """What the kernel's ``walk_facts`` decides about a walk in one call."""

    self_avoiding: bool                 # distinct mid-edges and vertices
    cls: str | None                     # classify_walk's class; None if it raises
    renewal: tuple[int, ...] | None     # a bridge's renewal points, else None
    diamond: tuple[int, ...] | None     # a bridge's diamond points, else None


@dataclass(frozen=True)
class Walk:
    """A walk on mid-edges, stored as a start state plus a turn sequence.

    ``mids`` has length ``len(turns) + 1``; ``vertices`` lists the
    vertices traversed, one per step.  ``start`` is stored as a tuple of
    two ints and ``turns`` as a tuple of ``"L"`` and ``"R"``; anything
    else is an error.
    """

    start: tuple[int, int] = START_MID
    heading: int = START_HEADING
    turns: tuple[Turn, ...] = ()

    def __post_init__(self) -> None:
        start = self.start
        if not (type(start) is tuple and len(start) == 2
                and type(start[0]) is int and type(start[1]) is int):
            try:
                u, v = start
                start = (operator.index(u), operator.index(v))
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"start must be a pair of ints, got {start!r}") from None
            object.__setattr__(self, "start", start)
        turns = self.turns
        if type(turns) is not tuple:
            if isinstance(turns, str):
                raise InvalidParameterError(f"turns must be a sequence of tokens, not {turns!r}")
            turns = tuple(turns)
            object.__setattr__(self, "turns", turns)
        if turns.count("L") + turns.count("R") != len(turns):
            raise InvalidParameterError(f"every turn must be 'L' or 'R', got {turns!r}")
        if self.heading not in mid_headings(*self.start):
            raise InvalidParameterError(
                f"heading {self.heading} does not traverse mid-edge {self.start}"
            )

    @classmethod
    def _from_kernel(cls, turns: tuple[Turn, ...]) -> "Walk":
        """The walk from a along ``turns``, a tuple of "L" and "R" that
        the kernel made.  The kernel has already checked the start, the
        turns and the heading, so ``__post_init__`` is skipped: this is
        the fast path for walks the kernel enumerates."""
        w = object.__new__(cls)
        fields = w.__dict__
        fields["start"], fields["heading"], fields["turns"] = START_MID, START_HEADING, turns
        return w

    def __len__(self) -> int:
        return len(self.turns)

    @cached_property
    def _trace(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[int]]:
        mids = [self.start]
        verts: list[tuple[int, int]] = []
        heads = [self.heading]
        m, h = self.start, self.heading
        for t in self.turns:
            vtx, m, h = step(m, h, t)
            verts.append(vtx)
            mids.append(m)
            heads.append(h)
        return mids, verts, heads

    @cached_property
    def facts(self) -> WalkFacts:
        """Self-avoidance, class, renewal and diamond points: one kernel call."""
        return WalkFacts(*_kernel.walk_facts(*self.start, self.heading, self.turns))

    @property
    def mids(self) -> list[tuple[int, int]]:
        return self._trace[0]

    @property
    def vertices(self) -> list[tuple[int, int]]:
        return self._trace[1]

    @property
    def end(self) -> tuple[int, int]:
        return self.mids[-1]

    def subwalk(self, i: int, j: int) -> "Walk":
        """The portion between mid-edge indices i <= j."""
        if not 0 <= i <= j <= len(self):
            raise InvalidParameterError(f"bad subwalk range [{i}, {j}]")
        mids, _, heads = self._trace
        return Walk(mids[i], heads[i], self.turns[i:j])


def classify_walk(w: Walk) -> str:
    """Classify as 'bridge', 'arch', 'half-plane' or 'other'.

    A bridge starts and ends on vertical mid-edges traversed upward, with
    all interior mid-edges strictly between the two in height.  An arch
    stays strictly above its start line and comes back down to it.  A
    half-plane walk merely stays strictly above the start line.  Any
    other nonempty self-avoiding walk is 'other'.
    """
    facts = w.facts
    if not facts.self_avoiding:
        raise ClassificationError("walk is not self-avoiding")
    if facts.cls is None:
        raise ClassificationError("the empty walk is not classifiable")
    return facts.cls

