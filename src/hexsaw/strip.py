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

The column moves, the breadth-first search over cut states and the
composition run in the compiled kernel (``_dfs.c``) or its pure-Python
twin (``_dfs_py.transfer``, which spells them out), whichever
:mod:`hexsaw.enumeration` selected; both return the operator as int
arrays with the same state codes and order.  This module wraps the
arrays in a :class:`TransferOperator` and solves with it.

A strip generating function is the resolvent (I - M)^-1 * sink summed
over the sources.  Flags are never cleared, so I - M is block-triangular
over the four flag sectors (start inserted, end placed), and the
resolvent is solved one diagonal block at a time: over Q(zeta_48) for
T <= 5 by sparse elimination in Markowitz order (the blocks hold about
3.3 nonzero cells per row), in floats up to T = 7 by a dense LAPACK
solve per block.  Growth rates mu_T and the fugacities y_T are
roots of (spectral radius of M) - 1, found by a secant (Illinois
regula falsi) search whose matrix-free power iterations each start from
the previous one's last iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import ONE, ZERO, Cyclo48
from .enumeration import _kernel
from .errors import (
    CapacityError,
    InvalidParameterError,
    NonConvergenceError,
)
from .model import constants

T_CAP_EXACT = 5
T_CAP_FLOAT = 7

# End kinds each walk kind accepts; the other end transitions are dropped.
_KINDS = {
    "walk": ("interior", "bottom", "top"),
    "arch": ("bottom",),
    "bridge": ("top",),
}
# End-kind codes of the transition arrays: index = code.
_END_KINDS = _kernel.END_KINDS


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """Column-to-column transfer system for one strip height.

    The compiled kernel or its twin ``_dfs_py.transfer`` builds it as
    int arrays, and those arrays are the only transition representation:
    transition k goes from state ``src[k]`` to ``dst[k]`` with weight
    x**xpow[k] * y**ypow[k] and end kind ``_END_KINDS[end[k]]``.
    ``transitions`` is a read-only view yielding the same transitions as
    (src, dst, xpow, ypow, end_kind) tuples.  ``states`` decodes the
    kernel's state codes into (labels, a_done, end_done, parity).
    ``cells[kind]`` is ``(keep, slot, row, col)``: the indices of the
    transitions the kind keeps, and for each the slot of its matrix
    cell, cells being the distinct (row, col) pairs in order of first
    use.
    """

    T: int
    surface: str
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    xpow: np.ndarray = field(repr=False)
    ypow: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)
    states: tuple = field(repr=False)  # (labels, a_done, end_done, parity)
    sinks: tuple                       # accepting state indices
    sources: tuple = (0, 1)            # state indices with weight-1 initial amplitude
    cells: dict = field(init=False, repr=False)

    def __post_init__(self):
        for a in (self.src, self.dst, self.xpow, self.ypow, self.end):
            a.flags.writeable = False  # the operator is cached and shared
        n = self.state_count
        cells = {}
        for kind, allowed in _KINDS.items():
            ok = np.array([ek is None or ek in allowed for ek in _END_KINDS])
            keep = np.flatnonzero(ok[self.end])
            # slots number the distinct cells by their first transition
            cell, first, inverse = np.unique(self.src[keep] * n + self.dst[keep],
                                             return_index=True, return_inverse=True)
            # stable: the sort np.unique has run already, so no other sort
            # code is paged in
            order = np.argsort(first, kind="stable")
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            cells[kind] = (keep, rank[inverse], cell[order] // n, cell[order] % n)
        object.__setattr__(self, "cells", cells)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transitions(self) -> _Transitions:
        return _Transitions(self)


class _Transitions:
    """The transitions of a TransferOperator as (src, dst, xpow, ypow,
    end_kind) tuples, read from its arrays."""

    def __init__(self, op: TransferOperator):
        self._op = op

    def __len__(self) -> int:
        return len(self._op.src)

    def __iter__(self):
        op = self._op
        return zip(op.src.tolist(), op.dst.tolist(), op.xpow.tolist(), op.ypow.tolist(),
                   [_END_KINDS[e] for e in op.end.tolist()])


def _decode_states(codes: np.ndarray, T: int) -> tuple[tuple, tuple]:
    """The (labels, a_done, end_done, parity) of each kernel state code,
    and the accepting states: an empty cut with both flags set."""
    chars, shift, empty = _kernel.SLOT_CHARS, _kernel.FLAG_SHIFT, "." * T
    states = tuple(
        ("".join(chars[c >> 3 * i & 7] for i in range(T)), bool(c >> shift & 1),
         bool(c >> shift + 1 & 1), c >> shift + 2 & 1)
        for c in codes.tolist()
    )
    sinks = tuple(i for i, (lb, a, e, _) in enumerate(states) if lb == empty and a and e)
    return states, sinks


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
    codes, src, dst, xpow, ypow, end = _kernel.transfer(T, surface == "top")
    return TransferOperator(T, surface, src, dst, xpow, ypow, end, *_decode_states(codes, T))


def series_counts(op: TransferOperator, N: int, kind: str = "walk"):
    """Exact counts c[n, contacts] of strip walks of length n <= N.

    Walks of the requested kind only; the empty walk is included for
    kind='walk'.  Used as the bridge between the operator and the DFS
    enumeration oracle.
    """
    keep = op.cells[kind][0]
    by_src: dict = {}
    for si, sj, xp, yp in zip(op.src[keep].tolist(), op.dst[keep].tolist(),
                              op.xpow[keep].tolist(), op.ypow[keep].tolist()):
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
    the midpoint.  A point where f is exactly 0 is returned as (mid, mid).
    """
    kept = 0  # +1 when lo was kept by the last step, -1 when hi was
    while hi - lo > tol:
        mid = lo - flo * (hi - lo) / (fhi - flo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats: the interval cannot shrink further
        fmid = f(mid)
        if fmid == 0:
            return mid, mid
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

    # For T >= 2, mu_T(1, y) > 1 and mu_T(1, y) >= sqrt(y) (the zigzag
    # along the contact level), so the root x = 1/mu_T lies below
    # 1/max(1, sqrt(y)).  T=1 attains mu_1 = sqrt(y), so its upper end
    # sits past x = 1/min(1, sqrt(y)).
    if T == 1:
        hi = 1.25 / min(1.0, math.sqrt(yf))
    else:
        hi = 1.0 / max(1.0, math.sqrt(yf))
    lo = 0.15
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


class DivergenceError(CapacityError):
    pass


def _sector_solve(op: TransferOperator, kind: str, w: np.ndarray, one, solve) -> np.ndarray:
    """z = (I - M)^-1 * sink, one flag-sector block at a time.

    ``w`` holds M's entries on the cells of ``op.cells[kind]``, as floats
    or as ``Cyclo48`` in an object array, and ``one`` is the unit of the
    same scalars.  ``solve(m, r, c, v, b)`` solves (I - B) u = b for one
    m x m diagonal block B given in coordinate form, B[r[k], c[k]] =
    v[k] with distinct (r[k], c[k]): :func:`_dense_solve` in floats,
    :func:`_markowitz_solve` over Q(zeta_48).
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
        pos[idx] = np.arange(len(idx))
        mine = sector[row] == s
        inner = mine & (sector[col] == s)
        cross = mine & ~inner
        b = np.where(sink[idx], one, zero)
        np.add.at(b, pos[row[cross]], w[cross] * z[col[cross]])
        z[idx] = solve(len(idx), pos[row[inner]], pos[col[inner]], w[inner], b)
    return z


def _dense_solve(m: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, b: np.ndarray):
    """(I - B)^-1 b in floats, by one LAPACK solve of the dense block."""
    A = np.zeros((m, m))
    A[r, c] = -v
    A.flat[:: m + 1] += 1.0
    return np.linalg.solve(A, b)


def _markowitz_solve(m: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, b: np.ndarray):
    """(I - B)^-1 b over Q(zeta_48), by sparse elimination on the diagonal.

    The block is kept as one dict of nonzero entries per row.  Each step
    pivots on the diagonal entry of the active index k with the least
    Markowitz cost (r_k - 1)(c_k - 1), r_k and c_k counting the nonzeros
    of row and column k among active indices, the lowest k on a tie, so
    the fill and the operation counts repeat from run to run.  A fill
    entry that cancels to exact zero is dropped.  Each pivot is inverted
    once, and back-substitution in reverse pivot order gives u.

    Diagonal pivots suffice: where the strip series converges, I - B is
    a nonsingular M-matrix (B >= 0, spectral radius < 1; Berman &
    Plemmons, ch. 6), and every Schur complement of one keeps a positive
    diagonal.  A zero pivot therefore proves divergence and raises.
    """
    rows = [{i: ONE} for i in range(m)]
    for i, j, x in zip(r.tolist(), c.tolist(), v.tolist()):
        t = rows[i].pop(j, ZERO) - x
        if t:
            rows[i][j] = t
    cols = [set() for _ in range(m)]   # active rows with a nonzero in column j
    for i, entries in enumerate(rows):
        for j in entries:
            cols[j].add(i)
    b = list(b)
    active = set(range(m))
    order = []                          # (k, 1/pivot) in pivot order
    while active:
        k = min(active, key=lambda i: ((len(rows[i]) - 1) * (len(cols[i]) - 1), i))
        active.discard(k)
        piv = rows[k].get(k)
        if not piv:
            raise DivergenceError("zero pivot: I - M is not a nonsingular M-matrix, "
                                  "so the strip series diverges")
        inv = piv.inverse()
        order.append((k, inv))
        pivot_row = rows[k]
        for j in pivot_row:
            cols[j].discard(k)
        bk = b[k]
        for i in cols[k]:
            target = rows[i]
            f = target.pop(k) * inv
            for j, p in pivot_row.items():
                if j == k:
                    continue
                if j in target:
                    t = target[j] - f * p
                    if t:
                        target[j] = t
                    else:
                        del target[j]
                        cols[j].discard(i)
                else:
                    target[j] = -(f * p)
                    cols[j].add(i)
            if bk:
                b[i] = b[i] - f * bk
    u = [None] * m
    for k, inv in reversed(order):
        acc = b[k]
        for j, p in rows[k].items():
            if j != k:
                acc = acc - p * u[j]
        u[k] = acc * inv
    return u


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
        solve = _markowitz_solve
    else:
        one = 1.0
        w = _float_matrix(op, 1.0 / MU_BULK, float(y), kind).w
        solve = _dense_solve
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
