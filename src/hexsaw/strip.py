"""Transfer-matrix machinery for walks in a height-T strip.

A height-T strip has T vertices per column; within one column the vertex
at level k sits at lattice row 3k+1 (down-pointing) or 3k+2 (up-pointing)
depending on the column parity, and every vertical cut between two
columns crosses exactly T slanted edges, one per level.  The sweep moves
left to right.  A cut state records, for each of the T crossing slots,
whether the walk crosses there and how the crossing strands connect up
on the left: a noncrossing pairing plus at most one strand tied to the
start mid-edge a (label S, never nested under a pairing arc, since a
sits on the bottom boundary) and at most one tied to the already-placed
free end (label E).  Two flags track whether the start has been inserted
and the end placed; a parity bit tracks the column parity relative to
the start column.

One column is a set of disjoint paths, and a column move keeps only how
they join the column's endpoints, numbered L_k = k (left crossing at
level k), R_k = T + k (right crossing), S* = 2T (the start) and
E* = 2T + 1 (the free end).  A move is
``(rocc, xpow, ypow, start, end_kind, match)``: the bitmask of occupied
right crossings, the visited vertices and contact vertices, whether the
column inserts the start, where it places the end (None, 'interior',
'bottom' or 'top'), and ``match[e]``, the endpoint the column joins e
to (-1 when e is unused).  The moves of one (parity, left mask) come in
a fixed order, split into four lists by whether a state may still
insert the start and place the end, so a state only meets moves its
flags allow.  A transition follows paths through the state's left
pairing and the move from each right port, then from an S or E end not
yet reached; an occupied left port that no path visits lies on a closed
loop and rejects the move.

Every walk corresponds to exactly one accepted transition path from an
all-empty state (flags 00) to the all-empty state with flags 11, with
one x per visited vertex and one y per visited contact vertex.  End
transitions are tagged 'bottom', 'top' or 'interior' so arches, bridges
and unrestricted walks come from the same operator.

A strip generating function is the resolvent (I - M)^-1 * sink summed
over the sources.  Flags are never cleared, so I - M is block-triangular
over the four flag sectors (start inserted, end placed), and one solver
eliminates one diagonal block at a time: over Q(zeta_48) for T <= 4,
in floats up to T = 7.  Growth rates mu_T and the fugacities y_T are
roots of (spectral radius of M) - 1, found by a secant (Illinois
regula falsi) search whose matrix-free power iterations each start from
the previous one's last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .cyclo import Cyclo48
from .errors import (
    CapacityError,
    InvalidParameterError,
    NonConvergenceError,
)
from .model import constants

T_CAP_EXACT = 4
T_CAP_FLOAT = 7

EMPTY = "."
_VERTICAL = ("none", "full", "end_lo", "end_hi")


def _level_options(T: int, p: int, k: int) -> list:
    """The ways level k of a parity-p column can meet its own edges:
    (locc bit, endpoints, end kind, right bit, start, vertical), in the
    fixed enumeration order."""
    S, E = 2 * T, 2 * T + 1
    none = ((None, None),)
    left = ((0, None, None), (0, E, "interior"), (1 << k, k, None))
    right = ((None, None), (T + k, None), (E, "interior"))
    bottom = ((None, None), (S, None), (E, "bottom")) if k == 0 and p % 2 == 0 else none
    top = ((None, None), (E, "top")) if k == T - 1 and p % 2 == T % 2 else none
    vert = _VERTICAL if k + 1 < T and (k + 1) % 2 == p % 2 else ("none",)
    out = []
    for (lb, lp, le), (rp, re), (bp, be), (tp, te), v in product(left, right, bottom, top, vert):
        kinds = [e for e in (le, re, be, te) if e] + (["interior"] if v[:3] == "end" else [])
        eps = tuple(e for e in (lp, rp, bp, tp) if e is not None) + ((E,) if v == "end_lo" else ())
        if len(kinds) < 2 and len(eps) < 3:
            out.append((lb, eps, kinds[0] if kinds else None, int(rp == T + k) << k,
                        bp == S, v))
    return out


def _column_moves(T: int, p: int, surface: str) -> dict:
    """The nonempty column moves of parity p, keyed by (left-crossing
    mask, may insert the start, may place the end).

    Levels are filled bottom to top and a level is cut off as soon as its
    vertex cannot have degree 0 or 2.  ``carry`` is the endpoint at the
    lower end of the strand entering a level from below, so each path is
    matched end to end where it closes.
    """
    E = 2 * T + 1
    if surface == "top":
        contact = T - 1 if p % 2 == T % 2 else None
    else:
        contact = 0 if p % 2 == 0 else None
    levels = [_level_options(T, p, k) for k in range(T)]
    moves: dict = {}

    def rec(k, carry, ek, locc, rocc, xpow, ypow, start, pairs):
        if k == T:
            if xpow:  # an unoccupied column is padding, not a step
                match = [-1] * (2 * T + 2)
                for a, b in pairs:
                    match[a], match[b] = b, a
                moves.setdefault(locc, []).append((rocc, xpow, ypow, start, ek, tuple(match)))
            return
        for lb, eps, kind, rb, st, v in levels[k]:
            if kind and ek:
                continue
            if carry is not None:
                eps = (carry,) + eps
            if v == "full":
                if len(eps) != 1:
                    continue
                up, closed = eps[0], pairs
            elif len(eps) == 2:
                up, closed = None, pairs + (eps,)
            elif not eps:
                up, closed = None, pairs
            else:
                continue
            if v == "end_hi":
                up = E
            visit = 1 if v == "full" or eps else 0
            rec(k + 1, up, kind or ek, locc | lb, rocc | rb, xpow + visit,
                ypow + (visit if k == contact else 0), start or st, closed)

    rec(0, None, None, 0, 0, 0, 0, False, ())
    return {
        (locc, s, e): [m for m in ms if (s or not m[3]) and (e or m[4] is None)]
        for locc, ms in moves.items()
        for s in (False, True)
        for e in (False, True)
    }


def _parse(labels: str, T: int):
    """(part, occupied count, S port, occupied mask) of a cut state:
    part[i] is the left port paired with i, or 2T / 2T + 1 for a strand
    tied to S / E."""
    part, stack = [-1] * T, []
    for i, c in enumerate(labels):
        if c == "(":
            stack.append(i)
        elif c == ")":
            j = stack.pop()
            part[i], part[j] = j, i
        elif c != EMPTY:
            part[i] = 2 * T + (c == "E")
    return part, T - labels.count(EMPTY), labels.find("S"), sum(
        1 << i for i in range(T) if part[i] >= 0)


def _trace(e, part, match, seen, T):
    """From column endpoint e, alternate left arcs and column paths to the
    far end of the strand: a right port, S (2T) or E (2T + 1)."""
    while e < T:
        seen[e] = True
        e = part[e]
        if e >= T:
            return e
        seen[e] = True
        e = match[e]
    return e


def _compose(parsed, move, T):
    """The right-hand labels after one column move, or None if the move
    closes a loop or leaves an invalid cut."""
    part, occupied, s_port, _ = parsed
    rocc, _, _, start, _, match = move
    S = 2 * T
    seen = [False] * (S + 2)
    new = [EMPTY] * T
    for k in range(T):
        if rocc >> k & 1 and not seen[T + k]:
            t = _trace(match[T + k], part, match, seen, T)
            seen[t] = True
            if t < S:
                new[k], new[t - T] = "(", ")"
            else:
                new[k] = "S" if t == S else "E"
    completed = False
    if not seen[S] and (start or s_port >= 0):
        e = S if start else s_port
        seen[e] = True
        completed = _trace(match[e], part, match, seen, T) == S + 1
    if seen[:T].count(True) != occupied:
        return None  # an occupied left port off every path lies on a loop
    if completed and rocc:
        return None
    labels = "".join(new)
    # planarity sanity: S may not be nested inside a pairing arc
    i = labels.find("S")
    if i > 0 and labels.count("(", 0, i) != labels.count(")", 0, i):
        return None
    return labels


# End kinds each walk kind accepts; the other end transitions are dropped.
_KINDS = {
    "walk": ("interior", "bottom", "top"),
    "arch": ("bottom",),
    "bridge": ("top",),
}
# End-kind codes of the transition arrays: index = code.
_END_KINDS = (None, "interior", "bottom", "top")


@dataclass(frozen=True)
class TransferOperator:
    """Column-to-column transfer system for one strip height.

    For the float layer ``transitions`` is also held column-wise as int
    arrays ``src``, ``dst``, ``xpow``, ``ypow`` and ``end`` (the end kind
    as its index in ``_END_KINDS``).  ``cells[kind]`` is
    ``(keep, slot, row, col)``: the indices of the transitions the kind
    keeps, and for each the slot of its matrix cell, cells being the
    distinct (row, col) pairs in order of first use.
    """

    T: int
    surface: str
    states: tuple           # (labels, a_done, end_done, parity)
    transitions: tuple      # (src, dst, xpow, ypow, end_kind)
    sources: tuple          # state indices with weight-1 initial amplitude
    sinks: tuple            # accepting state indices
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)
    xpow: np.ndarray = field(init=False, repr=False, compare=False)
    ypow: np.ndarray = field(init=False, repr=False, compare=False)
    end: np.ndarray = field(init=False, repr=False, compare=False)
    cells: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        code = {k: i for i, k in enumerate(_END_KINDS)}
        cols = np.array(
            [(si, sj, xp, yp, code[ek]) for si, sj, xp, yp, ek in self.transitions],
            dtype=np.intp,
        ).reshape(-1, 5)
        for name, col in zip(("src", "dst", "xpow", "ypow", "end"), cols.T):
            object.__setattr__(self, name, np.ascontiguousarray(col))
        cells = {}
        for kind, allowed in _KINDS.items():
            ok = np.array([ek is None or ek in allowed for ek in _END_KINDS])
            keep = np.flatnonzero(ok[self.end])
            index: dict = {}
            slot = [index.setdefault(c, len(index))
                    for c in zip(self.src[keep].tolist(), self.dst[keep].tolist())]
            rc = np.array(list(index), dtype=np.intp).reshape(-1, 2)
            cells[kind] = (keep, np.array(slot, dtype=np.intp),
                           np.ascontiguousarray(rc[:, 0]), np.ascontiguousarray(rc[:, 1]))
        object.__setattr__(self, "cells", cells)

    @property
    def state_count(self) -> int:
        return len(self.states)


def build_transfer(T: int, surface: str = "top") -> TransferOperator:
    """The height-T transfer operator with contacts on ``surface``, built
    once per (T, surface) however the arguments are spelled."""
    if T < 1:
        raise InvalidParameterError(f"need T >= 1, got T={T}")
    if T > T_CAP_FLOAT:
        raise CapacityError(f"strip height {T} outside supported range 1..{T_CAP_FLOAT}")
    if surface not in ("top", "bottom"):
        raise InvalidParameterError(f"bad surface {surface!r}")
    return _build_transfer(T, surface)


@lru_cache(maxsize=16)
def _build_transfer(T: int, surface: str) -> TransferOperator:
    empty = EMPTY * T
    sources = [(empty, False, False, 0), (empty, False, False, 1)]
    index: dict = {}
    states: list = []
    transitions = []
    parsed: dict = {}
    columns = [_column_moves(T, p, surface) for p in (0, 1)]

    def intern(s):
        if s not in index:
            index[s] = len(states)
            states.append(s)
        return index[s]

    for s in sources:
        intern(s)
    frontier = list(sources)
    while frontier:
        nxt = []
        for st in frontier:
            labels, a_done, end_done, p = st
            if labels == empty and a_done and end_done:
                continue  # accepting state, no outgoing transitions
            if labels not in parsed:
                parsed[labels] = _parse(labels, T)
            cut = parsed[labels]
            si = index[st]
            for move in columns[p][cut[3], not a_done and p == 0, not end_done]:
                new = _compose(cut, move, T)
                if new is None:
                    continue
                _, xpow, ypow, start, ek, _ = move
                # a completed walk joined an S end and an E end, so both
                # flags are already set
                tgt = (new, a_done or start, end_done or ek is not None, (p + 1) % 2)
                if tgt not in index:
                    nxt.append(tgt)
                sj = intern(tgt)
                transitions.append((si, sj, xpow, ypow, ek))
        frontier = nxt
    sinks = tuple(
        i for i, (lb, a, e, _) in enumerate(states) if lb == empty and a and e
    )
    return TransferOperator(
        T=T,
        surface=surface,
        states=tuple(states),
        transitions=tuple(transitions),
        sources=tuple(index[s] for s in sources),
        sinks=sinks,
    )


def _filtered(op: TransferOperator, kind: str):
    return [op.transitions[i] for i in op.cells[kind][0]]


def series_counts(op: TransferOperator, N: int, kind: str = "walk"):
    """Exact counts c[n, contacts] of strip walks of length n <= N.

    Walks of the requested kind only; the empty walk is included for
    kind='walk'.  Used as the bridge between the operator and the DFS
    enumeration oracle.
    """
    trans = _filtered(op, kind)
    by_src: dict = {}
    for si, sj, xp, yp, ek in trans:
        by_src.setdefault(si, []).append((sj, xp, yp))
    frontier = {s: {(0, 0): 1} for s in op.sources}
    out: dict = {}
    if kind == "walk":
        out[(0, 0)] = 1
    sinks = set(op.sinks)
    for _ in range(N):
        new: dict = {}
        for si, poly in frontier.items():
            for sj, xp, yp in by_src.get(si, ()):
                tgt = new.setdefault(sj, {})
                for (n, c), cnt in poly.items():
                    if n + xp <= N:
                        key = (n + xp, c + yp)
                        tgt[key] = tgt.get(key, 0) + cnt
        for s in sinks:
            for key, cnt in new.get(s, {}).items():
                out[key] = out.get(key, 0) + cnt
            new.pop(s, None)
        if not new:
            break
        frontier = new
    return out


@dataclass(frozen=True)
class _FloatMatrix:
    """M(x, y) in coordinate form: M[row[k], col[k]] = w[k], one k per cell."""

    n: int
    row: np.ndarray
    col: np.ndarray
    w: np.ndarray

    def vecmat(self, v: np.ndarray) -> np.ndarray:
        """The row vector v @ M."""
        return np.bincount(self.col, weights=v[self.row] * self.w, minlength=self.n)


def _float_matrix(op: TransferOperator, x: float, y: float, kind: str = "walk") -> _FloatMatrix:
    keep, slot, row, col = op.cells[kind]
    # x**i * y**j as Python floats, one per exponent pair, gathered per
    # transition and summed into its cell in transition order
    xmax, ymax = int(op.xpow.max(initial=0)), int(op.ypow.max(initial=0))
    table = np.array([[x**i * y**j for j in range(ymax + 1)] for i in range(xmax + 1)])
    w = np.bincount(slot, weights=table[op.xpow[keep], op.ypow[keep]], minlength=len(row))
    return _FloatMatrix(op.state_count, row, col, w)


def _spectral_radius(M: _FloatMatrix, tol: float = 1e-13, iters: int = 20000,
                     start: np.ndarray | None = None) -> float:
    """Spectral radius of M by power iteration, from the uniform vector
    or from ``start``, which then receives the last (unit-norm) iterate
    so the next radius of a root search can start warm."""
    # Column parity makes the spectrum symmetric under negation, so
    # iterate with M^2 and take a square root at the end.
    v = np.full(M.n, 1.0 / M.n) if start is None else start
    lam = 0.0
    for _ in range(iters):
        w = M.vecmat(M.vecmat(v)) + 1e-300
        nlam = float(np.linalg.norm(w))
        w = w / nlam
        if abs(nlam - lam) < tol * max(nlam, 1.0):
            if start is not None:
                start[:] = w
            return math.sqrt(nlam)
        lam, v = nlam, w
    raise NonConvergenceError("power iteration did not settle")


@dataclass(frozen=True)
class GrowthEstimate:
    T: int
    y: float
    mu: float
    error: float


def _find_root(f, lo: float, hi: float, flo: float, fhi: float,
               tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the sign change of f (flo = f(lo) < 0 <=
    f(hi) = fhi) until it is no wider than tol or the next point rounds
    to an end.

    Illinois regula falsi: the next point is the secant root of the two
    ends, and an end kept twice in a row has its value halved so both
    ends converge.  A secant point off the open bracket is replaced by
    the midpoint.
    """
    kept = 0  # +1 when lo was kept by the last step, -1 when hi was
    while hi - lo > tol:
        mid = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats: the interval cannot shrink further
        fmid = f(mid)
        if fmid < 0:
            lo, flo = mid, fmid
            if kept < 0:
                fhi *= 0.5
            kept = -1
        else:
            hi, fhi = mid, fmid
            if kept > 0:
                flo *= 0.5
            kept = 1
    return lo, hi


def growth_mu(T: int, y) -> GrowthEstimate:
    """mu_T(1, y): growth rate of strip walk counts with contact weight y,
    as 1/x at the x where the spectral radius of M(x, y) is 1."""
    yf = float(Fraction(y)) if not isinstance(y, float) else y
    if yf <= 0:
        raise InvalidParameterError("need y > 0")
    op = build_transfer(T, "top")
    v = np.full(op.state_count, 1.0 / op.state_count)  # warm start, reused

    def f(x):
        return _spectral_radius(_float_matrix(op, x, yf), start=v) - 1.0

    # T=1 is degenerate (mu=1 at y=1), so the upper end sits past x=1
    lo, hi = 0.15, 1.25
    flo, fhi = f(lo), f(hi)
    if not (flo < 0 < fhi):
        raise NonConvergenceError(f"growth bracket failed: {flo}, {fhi}")
    lo, hi = _find_root(f, lo, hi, flo, fhi, 0.0)
    return GrowthEstimate(T, yf, 2.0 / (lo + hi), hi - lo)


MU_BULK = math.sqrt(2.0 + math.sqrt(2.0))


def solve_yT(T: int, tol: float = 1e-8) -> float:
    """The fugacity y_T where the strip growth rate hits the bulk mu,
    as the midpoint of a bracket no wider than tol (0 <= tol <= 1e-2; 0
    runs to adjacent floats)."""
    if not 0.0 <= tol <= 1e-2:  # also refuses NaN
        raise InvalidParameterError(f"need 0 <= tol <= 1e-2, got tol={tol}")
    lo, hi = 1.0, MU_BULK**2
    op = build_transfer(T, "top")
    x_c = 1.0 / MU_BULK
    v = np.full(op.state_count, 1.0 / op.state_count)  # warm start, reused

    def f(y):
        return _spectral_radius(_float_matrix(op, x_c, y), start=v) - 1.0

    flo, fhi = f(lo), f(hi)
    if fhi <= 0:
        # T=1 attains the bound y_1 = mu^2 exactly
        if abs(fhi) < 1e-9:
            return hi
        raise NonConvergenceError(
            f"y_T bracket [1, mu^2] failed for T={T}: f={flo}, {fhi} "
            "(would contradict monotonicity in y)"
        )
    if flo >= 0:
        raise NonConvergenceError(
            f"y_T bracket [1, mu^2] failed for T={T}: f={flo}, {fhi}"
        )
    lo, hi = _find_root(f, lo, hi, flo, fhi, tol)
    return 0.5 * (lo + hi)


# -- resolvent solve ---------------------------------------------------

# A state's flag sector is its (start inserted, end placed) pair.  Flags
# are never cleared, so I - M is block-triangular over the sectors and a
# sector, solved in this order, only reads sectors solved before it.
_SECTOR_ORDER = ((True, True), (False, True), (True, False), (False, False))


def _exact_weights(op: TransferOperator, x, y, kind: str) -> np.ndarray:
    """M(x, y) over Q(zeta_48) on the cells of ``op.cells[kind]``."""
    keep, slot, row, _ = op.cells[kind]
    power: dict = {}
    w = [x * 0] * len(row)
    for k, i, j in zip(slot.tolist(), op.xpow[keep].tolist(), op.ypow[keep].tolist()):
        if (i, j) not in power:
            power[i, j] = x**i * y**j
        w[k] = w[k] + power[i, j]
    return np.array(w, dtype=object)


def _sector_solve(op: TransferOperator, kind: str, w: np.ndarray, one, solve) -> np.ndarray:
    """z = (I - M)^-1 * sink, one flag-sector block at a time.

    ``w`` holds M's entries on the cells of ``op.cells[kind]``, as floats
    or as ``Cyclo48`` in an object array, ``one`` is the unit of the same
    scalars and ``solve(A, b)`` solves one dense diagonal block.
    """
    _, _, row, col = op.cells[kind]
    zero = one * 0
    n = op.state_count
    sector = np.array([_SECTOR_ORDER.index(st[1:3]) for st in op.states])
    sink = np.zeros(n, dtype=bool)
    sink[list(op.sinks)] = True
    pos = np.zeros(n, dtype=np.intp)
    z = np.full(n, zero)
    for s in range(len(_SECTOR_ORDER)):
        idx = np.flatnonzero(sector == s)
        m = len(idx)
        pos[idx] = np.arange(m)
        mine = sector[row] == s
        inner = mine & (sector[col] == s)
        cross = mine & ~inner
        A = np.full((m, m), zero)
        A[pos[row[inner]], pos[col[inner]]] = -w[inner]
        A.flat[:: m + 1] += one
        b = np.where(sink[idx], one, zero)
        np.add.at(b, pos[row[cross]], w[cross] * z[col[cross]])
        z[idx] = solve(A, b)
    return z


def _gauss(A, b):
    """Dense exact Gaussian elimination over the field."""
    m = len(A)
    A = [list(row) for row in A]
    b = list(b)
    for col in range(m):
        piv = next(r for r in range(col, m) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = A[col][col].inverse()
        A[col] = [a * inv for a in A[col]]
        b[col] = b[col] * inv
        for r in range(m):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [a - f * p if p else a for a, p in zip(A[r], A[col])]
                b[r] = b[r] - f * b[col]
    return b


class DivergenceError(CapacityError):
    pass


@dataclass(frozen=True)
class StripValue:
    T: int
    y: Fraction
    kind: str
    value: object          # Cyclo48 in exact mode, float otherwise
    mode: str


@lru_cache(maxsize=128)
def _guard_radius(T: int, y: Fraction) -> float:
    """Walk-kind spectral radius at x = x_c; the strip series of every
    kind converges iff it is below 1."""
    return _spectral_radius(_float_matrix(build_transfer(T, "top"), 1.0 / MU_BULK, float(y)))


@lru_cache(maxsize=128)
def strip_gf(T: int, y, kind: str = "walk", mode: str = "auto") -> StripValue:
    """Exact value of the strip generating function at x = x_c.

    kind 'arch' is A_T(x_c, y), 'bridge' is B_T(x_c, y), 'walk' is
    C_T(x_c, y) (empty walk included).  Requires y < y_T.
    """
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}")
    y = Fraction(y)
    if y < 0:
        raise InvalidParameterError("need y >= 0")
    if mode == "auto":
        mode = "exact" if T <= T_CAP_EXACT else "float"
    op = build_transfer(T, "top")
    # convergence guard: the series diverges at and beyond y_T
    if y > 1:
        rho = _guard_radius(T, y)
        if rho >= 1.0:
            raise DivergenceError(
                f"strip series diverges: y = {y} >= y_{T} (spectral radius {rho:.6f})"
            )
    if mode == "exact":
        if T > T_CAP_EXACT:
            raise CapacityError(f"exact solve capped at T = {T_CAP_EXACT}")
        one = Cyclo48.from_rational(1)
        w = _exact_weights(op, constants(0, "dilute").x_c, Cyclo48.from_rational(y), kind)
        solve = _gauss
    else:
        one = 1.0
        w = _float_matrix(op, 1.0 / MU_BULK, float(y), kind).w
        solve = np.linalg.solve
    z = _sector_solve(op, kind, w, one, solve)
    total = sum(z[list(op.sources)].tolist(), one * 0)
    if kind == "walk":
        total = total + one
    return StripValue(T, y, kind, total, mode)


def check_strip_identity(T: int, y, mode: str = "auto"):
    """alpha*A_T(x_c,y) + beta(y)*B_T(x_c,y) = 1 for y < y_T."""
    from .identity import ResidualReport, _abs

    y = Fraction(y)
    a = strip_gf(T, y, "arch", mode)
    b = strip_gf(T, y, "bridge", mode)
    if a.mode == "exact":
        c = constants(0, "dilute")
        res = c.coeff_a * a.value + c.beta(y) * b.value - 1
        exact_zero = not res
    else:
        c = constants(0.0, "dilute", mode="float")
        res = c.coeff_a * a.value + c.beta(float(y)) * b.value - 1.0
        exact_zero = False
    return ResidualReport(
        kind="strip-identity",
        mode=a.mode,
        params={"T": T, "y": str(y)},
        residuals={"strip": res},
        max_abs=_abs(res),
        exact_zero=exact_zero,
    )


def check_bounds(Tmax: int, y_grid=(1, Fraction(3, 2), 2), mode: str = "auto") -> dict:
    """The finite-T inequality suite behind the critical-fugacity proof.

    (i) B_T(x_c,1) strictly decreasing in T; (ii) the arch-factorization
    inequality A_{T+1}(x_c,y) - A_T(x_c,1) <= x_c B_T(x_c,1) B_{T+1}(x_c,y);
    (iii) 0 <= 1/B_{T+1}(x_c,y) <= alpha x_c + beta(y)/B_T(x_c,1);
    (iv) A_T(x_c,1) increasing in T and below 1/alpha.
    """
    if Tmax < 1:
        raise InvalidParameterError(f"need Tmax >= 1, got Tmax={Tmax}")
    A = {t: strip_gf(t, 1, "arch", mode).value for t in range(1, Tmax + 1)}
    B = {t: strip_gf(t, 1, "bridge", mode).value for t in range(1, Tmax + 1)}
    if isinstance(B[1], Cyclo48):
        c = constants(0, "dilute")
    else:
        c = constants(0.0, "dilute", mode="float")
    x_c, alpha = c.x_c, c.coeff_a
    checks = []

    def sgn_ok(name, value):
        """value must be >= 0 (exact sign decision in exact mode)."""
        if isinstance(value, Cyclo48):
            ok = (not value) or value.sign() > 0
            num = value.to_float()
        else:
            ok = value >= -1e-12
            num = float(value)
        checks.append({"check": name, "margin": num, "ok": bool(ok)})
        return ok

    for t in range(1, Tmax):
        sgn_ok(f"B_{t} > B_{t + 1}", B[t] - B[t + 1])
        sgn_ok(f"A_{t} < A_{t + 1}", A[t + 1] - A[t])
    for t in range(1, Tmax + 1):
        sgn_ok(f"B_{t} > 0", B[t])
        sgn_ok(f"A_{t} < 1/alpha", 1 / alpha - A[t])
    for y in y_grid:
        yq = Fraction(y)
        for t in range(1, Tmax):
            a2 = strip_gf(t + 1, yq, "arch", mode).value
            b2 = strip_gf(t + 1, yq, "bridge", mode).value
            sgn_ok(
                f"arch-factorization T={t} y={yq}",
                x_c * B[t] * b2 - (a2 - A[t]),
            )
            sgn_ok(f"1/B positive T={t + 1} y={yq}", b2)
            # 1/B_{T+1}(y) <= alpha x_c + beta(y)/B_T(1)
            sgn_ok(
                f"inverse-bridge-bound T={t} y={yq}",
                alpha * x_c + c.beta(yq) / B[t] - 1 / b2,
            )
    ok = all(ch["ok"] for ch in checks)
    return {"ok": ok, "Tmax": Tmax, "checks": checks}
