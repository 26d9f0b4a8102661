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


@lru_cache(maxsize=16)
def build_transfer(T: int, surface: str = "top") -> TransferOperator:
    if T < 1:
        raise InvalidParameterError(f"need T >= 1, got T={T}")
    if T > T_CAP_FLOAT:
        raise CapacityError(f"strip height {T} outside supported range 1..{T_CAP_FLOAT}")
    if surface not in ("top", "bottom"):
        raise InvalidParameterError(f"bad surface {surface!r}")
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

    def identity_minus(self) -> np.ndarray:
        """Dense I - M."""
        n = self.n
        A = np.zeros((n, n))
        A[self.row, self.col] = -self.w
        A.flat[:: n + 1] += 1.0
        return A


def _float_matrix(op: TransferOperator, x: float, y: float, kind: str = "walk") -> _FloatMatrix:
    keep, slot, row, col = op.cells[kind]
    # x**i * y**j as Python floats, one per exponent pair, gathered per
    # transition and summed into its cell in transition order
    xmax, ymax = int(op.xpow.max(initial=0)), int(op.ypow.max(initial=0))
    table = np.array([[x**i * y**j for j in range(ymax + 1)] for i in range(xmax + 1)])
    w = np.bincount(slot, weights=table[op.xpow[keep], op.ypow[keep]], minlength=len(row))
    return _FloatMatrix(op.state_count, row, col, w)


def _spectral_radius(M: _FloatMatrix, tol: float = 1e-13, iters: int = 20000) -> float:
    # Column parity makes the spectrum symmetric under negation, so
    # iterate with M^2 and take a square root at the end.
    v = np.full(M.n, 1.0 / M.n)
    lam = 0.0
    for _ in range(iters):
        w = M.vecmat(M.vecmat(v)) + 1e-300
        nlam = float(np.linalg.norm(w))
        w = w / nlam
        if abs(nlam - lam) < tol * max(nlam, 1.0):
            return math.sqrt(nlam)
        lam, v = nlam, w
    raise NonConvergenceError("power iteration did not settle")


@dataclass(frozen=True)
class GrowthEstimate:
    T: int
    y: float
    mu: float
    method: str
    error: float


def growth_mu(T: int, y, method: str = "eigen", surface: str = "top") -> GrowthEstimate:
    """mu_T(1, y): growth rate of strip walk counts with contact weight y."""
    yf = float(Fraction(y)) if not isinstance(y, float) else y
    if yf <= 0:
        raise InvalidParameterError("need y > 0")
    op = build_transfer(T, surface)
    if method == "eigen":
        # T=1 is degenerate (mu=1 at y=1), so the upper end sits past x=1
        lo, hi = 0.15, 1.25
        flo = _spectral_radius(_float_matrix(op, lo, yf)) - 1.0
        fhi = _spectral_radius(_float_matrix(op, hi, yf)) - 1.0
        if not (flo < 0 < fhi):
            raise NonConvergenceError(f"growth bracket failed: {flo}, {fhi}")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats: the interval cannot shrink further
            if _spectral_radius(_float_matrix(op, mid, yf)) - 1.0 < 0:
                lo = mid
            else:
                hi = mid
        return GrowthEstimate(T, yf, 2.0 / (lo + hi), "eigen", hi - lo)
    if method == "series-ratio":
        N = 36
        counts = series_counts(op, N)
        c = [0.0] * (N + 1)
        for (n, k), cnt in counts.items():
            c[n] += cnt * yf**k
        # period-2 parity wobble: use two-step ratios, then accelerate the
        # geometric tail with one Aitken step
        est = [math.sqrt(c[n] / c[n - 2]) for n in range(N - 5, N + 1)]
        r0, r1, r2 = est[-5], est[-3], est[-1]
        denom = (r2 - r1) - (r1 - r0)
        mu = r2 - (r2 - r1) ** 2 / denom if abs(denom) > 1e-15 else r2
        err = max(abs(mu - r2), 1e-12) * 2
        return GrowthEstimate(T, yf, mu, "series-ratio", err)
    raise InvalidParameterError(f"unknown method {method!r}")


MU_BULK = math.sqrt(2.0 + math.sqrt(2.0))


def solve_yT(T: int, tol: float = 1e-8) -> float:
    """The fugacity y_T where the strip growth rate hits the bulk mu."""
    lo, hi = 1.0, MU_BULK**2
    op = build_transfer(T, "top")
    x_c = 1.0 / MU_BULK

    def f(y):
        return _spectral_radius(_float_matrix(op, x_c, y)) - 1.0

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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- exact resolvent solve ---------------------------------------------


def _sector(state):
    return (state[1], state[2])


def _exact_solve(op: TransferOperator, x, y, kind: str):
    """z = (I - M)^-1 * sink over Q(zeta_48), by flag-sector blocks."""
    one = Cyclo48.from_rational(1)
    zero = one * 0
    xp_cache: dict = {}

    def weight(xpow, ypow):
        key = (xpow, ypow)
        if key not in xp_cache:
            xp_cache[key] = x**xpow * y**ypow
        return xp_cache[key]

    n = op.state_count
    rows: list[dict] = [dict() for _ in range(n)]
    for si, sj, xpw, ypw, ek in _filtered(op, kind):
        rows[si][sj] = rows[si].get(sj, zero) + weight(xpw, ypw)

    z = [zero] * n
    sink_set = set(op.sinks)
    order = [(True, True), (False, True), (True, False), (False, False)]
    solved: set = set()
    for sector in order:
        idx = [i for i in range(n) if _sector(op.states[i]) == sector]
        if not idx:
            continue
        pos = {i: k for k, i in enumerate(idx)}
        m = len(idx)
        # rhs: sink indicator plus already-solved cross-sector flow
        rhs = []
        for i in idx:
            r = one if i in sink_set else zero
            for j, w in rows[i].items():
                if j in solved:
                    r = r + w * z[j]
            rhs.append(r)
        A = [[zero] * m for _ in range(m)]
        for i in idx:
            A[pos[i]][pos[i]] = A[pos[i]][pos[i]] + one
            for j, w in rows[i].items():
                if j in pos:
                    A[pos[i]][pos[j]] = A[pos[i]][pos[j]] - w
        sol = _gauss(A, rhs)
        for i in idx:
            z[i] = sol[pos[i]]
        solved.update(idx)
    return z


def _gauss(A, b):
    """Dense exact Gaussian elimination over the field."""
    m = len(A)
    A = [row[:] for row in A]
    b = b[:]
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
        c = constants(0, "dilute")
        yv = Cyclo48.from_rational(y)
        z = _exact_solve(op, c.x_c, yv, kind)
        total = Cyclo48.from_rational(1 if kind == "walk" else 0)
        for s in op.sources:
            total = total + z[s]
        return StripValue(T, y, kind, total, "exact")
    rhs = np.zeros(op.state_count)
    rhs[list(op.sinks)] = 1.0
    z = np.linalg.solve(_float_matrix(op, 1.0 / MU_BULK, float(y), kind).identity_minus(), rhs)
    total = float(sum(z[list(op.sources)]))
    if kind == "walk":
        total += 1.0
    return StripValue(T, y, kind, total, "float")


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
