"""Transfer-matrix machinery for walks in a height-T strip.

A height-T strip has T vertices per column; within one column the vertex
at level k sits at lattice row 3k+1 (down-pointing) or 3k+2 (up-pointing)
depending on the column parity, and every vertical cut between two
columns crosses exactly T slanted edges, one per level.  The sweep moves
left to right.  A cut state records, for each of the T crossing slots,
whether the walk crosses there and how the crossing strands connect up
on the left: a noncrossing pairing plus at most one strand tied to the
start mid-edge a (never nested under a pairing arc, since a sits on the
bottom boundary) and at most one tied to the already-placed free end.
Two flags track whether the start has been inserted and the end placed;
a parity bit tracks the column parity relative to the start column.
The kernel packs all of it into one int64 state code (layout in the
header of ``_dfs.c``), and the codes are the only form of the states
here: the flag sector and the accepting states are read from their bits.

A column move keeps only how the column's paths join its endpoints:
the left and right crossings, the start and the free end.  A transition
follows paths through the state's left pairing and the move; an
occupied left port that no path visits lies on a closed loop and
rejects the move.

Every walk corresponds to exactly one accepted transition path from an
all-empty state (flags 00) to the all-empty state with flags 11, with
one x per visited vertex and one y per visited top-row (contact) vertex.
End transitions are tagged 'bottom', 'top' or 'interior' so arches,
bridges and unrestricted walks come from the same operator.

The column moves, the breadth-first search over cut states and the
composition run in the compiled kernel (``_dfs.c``), read through
:mod:`hexsaw.lattice`'s one import of it, and return the operator as
int arrays for every height up to the kernel's ``T_MAX`` (10).  This
module wraps the arrays in a :class:`TransferOperator` and solves with
it.

A strip generating function is the resolvent (I - M)^-1 * sink summed
over the sources.  Flags are never cleared, so I - M is block-triangular
over the four flag sectors (start inserted, end placed), and the
resolvent is solved one diagonal block at a time: over Q(zeta_48) for
T <= 5 by sparse elimination in Markowitz order (the blocks hold about
3.3 nonzero cells per row), in floats up to T = 7 by a dense LAPACK
solve per block; :func:`_resolve_mode` holds both caps.  M's spectral
radius is its blocks' largest, and each block solve proves its block's
below 1 (every exact pivot positive, or a float (I - B)^-1 * 1 > 0) or
raises :class:`DivergenceError`, so the solves decide convergence.  In both scalar modes
``ModelConstants.surface_weight`` checks and coerces y, and one builder
(:func:`_cell_weights`) gives the weights of M(x, y).  An end transition
leads from an end-open sector to an end-placed one, so no block holds
one, and one solve per (T, y) with a column per end kind gives arches
(bottom), bridges (top) and walks (all three).  Growth rates mu_T and
the fugacities y_T are roots of (spectral radius of M) - 1, found by one
search (:func:`_radius_root`): secant steps (Illinois regula falsi) over
matrix-free power iterations, run in the compiled kernel, that each
start from the previous one's last iterate.  They solve no resolvent,
so they reach every height the kernel builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyclo import ONE, ZERO
from .lattice import _kernel
from .errors import (
    CapacityError,
    DivergenceError,
    InvalidParameterError,
    NonConvergenceError,
)
from .identity import _report
from .model import constants

T_CAP_EXACT = 5  # exact resolvent: sparse elimination over Q(zeta_48)
T_CAP_FLOAT = 7  # float resolvent: a dense LAPACK solve per flag-sector block
RADIUS_TOL = 1e-13  # relative settling of a spectral radius: no finer gap is seen

# End kinds each walk kind accepts: the resolvent columns its value sums.
_KINDS = {
    "walk": ("interior", "bottom", "top"),
    "arch": ("bottom",),
    "bridge": ("top",),
}
# End-kind codes of the transition arrays: index = code.
_END_KINDS = _kernel.END_KINDS


@dataclass(frozen=True, eq=False)
class TransferOperator:
    """Column-to-column transfer system for one strip height, contacts on top.

    The compiled kernel builds it, for 1 <= T <= ``T_MAX``, as the int
    arrays its ``_dfs.c`` header lays out, and those arrays are the only
    transition representation.  Transition k has weight x**xpow[k] *
    y**ypow[k] and falls in cell ``slot[k]``; cell c is the matrix entry
    from state ``row[c]`` to ``col[c]`` with end kind
    ``_END_KINDS[end[c]]``, the cells being the distinct (row, col, end)
    triples in order of first use.  ``transitions`` is a read-only view
    yielding the transitions as (src, dst, xpow, ypow, end_kind) tuples.
    ``states`` holds the kernel's int64 state codes, and ``sinks``, the
    accepting states, are those with an empty cut and both flags set.
    """

    T: int
    slot: np.ndarray = field(repr=False)
    xpow: np.ndarray = field(repr=False)
    ypow: np.ndarray = field(repr=False)
    row: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    end: np.ndarray = field(repr=False)
    states: np.ndarray = field(repr=False)  # kernel state codes
    sources = (0, 1)                   # state indices with weight-1 initial amplitude
    sinks: tuple = field(init=False)   # accepting state indices

    def __post_init__(self):
        for a in (self.slot, self.xpow, self.ypow, self.row, self.col, self.end, self.states):
            a.flags.writeable = False  # the operator is cached and shared
        # the code below the parity bit is both flags over an empty cut;
        # read with % and >>, as numpy's bitwise_and loop pages in 64 kB
        flags = _kernel.FLAG_SHIFT
        object.__setattr__(self, "sinks", tuple(np.flatnonzero(
            self.states % (4 << flags) == 3 << flags).tolist()))

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
        return len(self._op.slot)

    def __iter__(self):
        op = self._op
        return zip(op.row[op.slot].tolist(), op.col[op.slot].tolist(), op.xpow.tolist(),
                   op.ypow.tolist(), [_END_KINDS[e] for e in op.end[op.slot].tolist()])


def build_transfer(T: int) -> TransferOperator:
    """The height-T transfer operator, for every height the kernel builds
    (1 <= T <= ``T_MAX``), built once per T however the argument is
    spelled."""
    if T < 1:
        raise InvalidParameterError(f"need T >= 1, got T={T}")
    if T > _kernel.T_MAX:
        raise CapacityError(f"strip height {T} outside supported range 1..{_kernel.T_MAX}")
    return _build_transfer(T)


@lru_cache(maxsize=16)
def _build_transfer(T: int) -> TransferOperator:
    codes, *arrays = _kernel.transfer(T)
    return TransferOperator(T, *arrays, codes)


def series_counts(op: TransferOperator, N: int, kind: str = "walk"):
    """Exact counts c[n, contacts] of strip walks of length n <= N.

    Walks of the requested kind only; the empty walk is included for
    kind='walk'.  Used as the bridge between the operator and the DFS
    enumeration oracle.
    """
    ends = [0] + [_END_KINDS.index(e) for e in _KINDS[kind]]
    keep = np.flatnonzero(np.isin(op.end, ends)[op.slot])
    cell = op.slot[keep]
    by_src: dict = {}
    for si, sj, xp, yp in zip(op.row[cell].tolist(), op.col[cell].tolist(),
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


def _cell_weights(op: TransferOperator, x, y) -> np.ndarray:
    """M(x, y) on the cells of ``op``, as floats or, for ``Cyclo48``
    x and y, in an object array: x**i * y**j once per exponent pair,
    gathered per transition and summed into its cell in transition order."""
    xmax, ymax = int(op.xpow.max(initial=0)), int(op.ypow.max(initial=0))
    table = np.array([[x**i * y**j for j in range(ymax + 1)] for i in range(xmax + 1)])
    w = np.full(len(op.row), x * 0)
    np.add.at(w, op.slot, table[op.xpow, op.ypow])
    return w


def _float_matrix(op: TransferOperator, x: float, y: float) -> _FloatMatrix:
    return _FloatMatrix(op.state_count, op.row, op.col, _cell_weights(op, float(x), float(y)))


def _spectral_radius(M: _FloatMatrix, tol: float = RADIUS_TOL, iters: int = 20000,
                     start: np.ndarray | None = None) -> float:
    """Spectral radius of M by power iteration with M^2 in the compiled
    kernel, from the uniform vector or from ``start``, which then
    receives the last (unit-norm) iterate so the next radius of a root
    search can start warm.  Stops once successive norms of the M^2
    iterates differ by less than tol * max(norm, 1)."""
    v = np.full(M.n, 1.0 / M.n) if start is None else start
    radius = _kernel.spectral_radius(M.row, M.col, M.w, v, tol, iters)
    if radius is None:
        raise NonConvergenceError("power iteration did not settle")
    return radius


@dataclass(frozen=True)
class GrowthEstimate:
    T: int
    y: float
    mu: float
    # width of the final bracket on x = 1/mu_T, not an error bound: each
    # spectral radius is settled only to about 1e-13 relative
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


def _radius_root(T: int, point, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """[lo, hi] shrunk by :func:`_find_root` around the root of
    f(t) = (spectral radius of M(*point(t))) - 1 on the height-T operator,
    every radius after the first starting from the last one's iterate.

    A radius at hi of at most 1 but within 1e-9 of it makes hi the root
    (y_1 = mu^2 is one), returned as (hi, hi); otherwise f must change
    sign from lo to hi."""
    op = build_transfer(T)
    v = np.full(op.state_count, 1.0 / op.state_count)  # warm start, reused

    def f(t):
        return _spectral_radius(_float_matrix(op, *point(t)), start=v) - 1.0

    flo, fhi = f(lo), f(hi)
    if -1e-9 < fhi <= 0:
        return hi, hi
    if not flo < 0 < fhi:
        raise NonConvergenceError(
            f"no root of (spectral radius) - 1 in [{lo!r}, {hi!r}] for T={T}: "
            f"f = {flo!r}, {fhi!r}")
    return _find_root(f, lo, hi, flo, fhi, tol)


def growth_mu(T: int, y) -> GrowthEstimate:
    """mu_T(1, y): growth rate of strip walk counts with contact weight y,
    as 1/x at the x where the spectral radius of M(x, y) is 1."""
    yf = constants(0, "dilute", "float").surface_weight(y)
    # The root x = 1/mu_T lies in [lo, hi].  For T >= 2, mu_T(1, y) >
    # max(1, sqrt(y)) (the zigzag along the contact level); T=1 attains
    # mu_1 = sqrt(y), so its upper end sits past x = 1/min(1, sqrt(y)).
    # Consecutive vertices of a walk lie on different sublattices, so at
    # most every other one is a contact, and mu_T(1, y) <= mu_T(1, 1) *
    # max(1, sqrt(y)) < 2 * max(1, sqrt(y)), as mu_T(1, 1) < mu < 2.
    if T == 1:
        hi = 1.25 / min(1.0, math.sqrt(yf))
    else:
        hi = 1.0 / max(1.0, math.sqrt(yf))
    lo = 0.5 / max(1.0, math.sqrt(yf))
    lo, hi = _radius_root(T, lambda x: (x, yf), lo, hi, 0.0)
    return GrowthEstimate(T, yf, 2.0 / (lo + hi), hi - lo)


MU_BULK = 1.0 / constants(0, "dilute", "float").x_c   # sqrt(2 + sqrt(2))


def solve_yT(T: int, tol: float = 1e-8) -> float:
    """The fugacity y_T where the strip growth rate hits the bulk mu,
    as the midpoint of a bracket no wider than tol (0 <= tol <= 1e-2; 0
    runs to adjacent floats).

    The bracket holds the root of the computed radius, whose power
    iteration settles only to about 1e-13 relative; summing the cells in
    another order moved y_7 by 2.1e-14 relative.  So a tol below that is
    not an error bound on y_T."""
    if not 0.0 <= tol <= 1e-2:  # also refuses NaN
        raise InvalidParameterError(f"need 0 <= tol <= 1e-2, got tol={tol}")
    x_c = 1.0 / MU_BULK
    lo, hi = _radius_root(T, lambda y: (x_c, y), 1.0, MU_BULK**2, tol)
    return 0.5 * (lo + hi)


# -- resolvent solve ---------------------------------------------------


def _sector_solve(op: TransferOperator, w: np.ndarray, one, solve) -> np.ndarray:
    """Z = (I - M_e)^-1 * sink, one flag-sector block at a time, with a
    column per end kind e (interior, bottom, top).

    M_e keeps the cells without an end and those of end kind e.  No
    diagonal block holds an end cell, so the columns share every block,
    and an end-placed sector solves one column for all three.  ``w``
    holds M's entries on the cells of ``op``, as floats or as ``Cyclo48``
    in an object array, and ``one`` is the unit of the same scalars.
    ``solve(m, r, c, v, b)`` solves (I - B) U = b for one m x m diagonal
    block B given in coordinate form, B[r[k], c[k]] = v[k] with distinct
    (r[k], c[k]), and an (m, k) right-hand side b: :func:`_dense_solve`
    in floats, :func:`_markowitz_solve` over Q(zeta_48).
    """
    row, col, end = op.row, op.col, op.end
    zero = one * 0
    n, kinds = op.state_count, len(_END_KINDS) - 1
    # A state's flag sector is 3 - (start inserted + 2 * end placed), so
    # sectors 0 and 1 have the end placed.  Flags are never cleared, so
    # I - M is block-triangular over the sectors, and a sector, solved in
    # increasing order, only reads sectors solved before it.
    sector = 3 - (op.states >> _kernel.FLAG_SHIFT) % 4
    # feed[k, e]: cell k feeds column e; a cell without an end feeds all
    feed = (end[:, None] == 0) | (end[:, None] == np.arange(1, kinds + 1))
    pos = np.zeros(n, dtype=np.intp)
    z = np.full((n, kinds), zero)
    for s in range(4):
        idx = np.flatnonzero(sector == s)
        pos[idx] = np.arange(len(idx))
        mine = sector[row] == s
        inner = mine & (sector[col] == s)
        cols = 1 if s < 2 else kinds
        k, e = np.nonzero((mine & ~inner)[:, None] & feed[:, :cols])
        b = np.full((len(idx), cols), zero)
        b[np.isin(idx, op.sinks)] = one
        np.add.at(b, (pos[row[k]], e), w[k] * z[col[k], e])
        z[idx] = solve(len(idx), pos[row[inner]], pos[col[inner]], w[inner], b)
    return z


def _dense_solve(m: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, b: np.ndarray):
    """(I - B)^-1 b in floats by one LAPACK solve of the dense block, which
    also gives u = (I - B)^-1 * 1.  u > 0 proves B's radius below 1, as
    B u = u - 1 <= (1 - 1/max u) u (Collatz-Wielandt), and a radius below 1
    gives u = sum_k B^k * 1 >= 1; so a u not positive, or a singular
    block, raises."""
    A = np.zeros((m, m))
    A[r, c] = -v
    A.flat[:: m + 1] += 1.0
    try:
        u = np.linalg.solve(A, np.column_stack((np.ones(m), b)))
    except np.linalg.LinAlgError:
        raise DivergenceError("I - B is singular") from None
    if not (u[:, 0] > 0).all():
        raise DivergenceError("(I - B)^-1 * 1 is not positive")
    return u[:, 1:]


def _markowitz_solve(m: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, b: np.ndarray):
    """(I - B)^-1 b over Q(zeta_48), b of shape (m, k) or (m,), by sparse
    elimination on the diagonal.

    The block is kept as one dict of nonzero entries per row.  Each step
    pivots on the diagonal entry of the active index k with the least
    Markowitz cost (r_k - 1)(c_k - 1), r_k and c_k counting the nonzeros
    of row and column k among active indices, the lowest k on a tie, so
    the fill and the operation counts repeat from run to run.  A fill
    entry that cancels to exact zero is dropped.  Each pivot is inverted
    once, and back-substitution in reverse pivot order gives u, (m, k).

    The pivots certify convergence: I - B (B >= 0) is a Z-matrix in any
    symmetric order, each pivot is the ratio of two successive leading
    principal minors, and so all are positive iff I - B is a nonsingular
    M-matrix, i.e. B's spectral radius is below 1 (Berman & Plemmons,
    ch. 6).  A zero or negative pivot proves divergence and raises.
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
    b = [list(bi) for bi in np.reshape(b, (m, -1))]
    active = set(range(m))
    order = []                          # (k, 1/pivot) in pivot order
    while active:
        k = min(active, key=lambda i: ((len(rows[i]) - 1) * (len(cols[i]) - 1), i))
        active.discard(k)
        piv = rows[k].get(k)
        if not piv or piv.sign() < 0:
            raise DivergenceError(f"{'negative' if piv else 'zero'} pivot: I - B is not "
                                  "a nonsingular M-matrix")
        inv = piv.inverse()
        order.append((k, inv))
        pivot_row = rows[k]
        for j in pivot_row:
            cols[j].discard(k)
        bk = [(e, x) for e, x in enumerate(b[k]) if x]
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
            for e, x in bk:
                b[i][e] = b[i][e] - f * x
    u = [None] * m
    for k, inv in reversed(order):
        acc = b[k]
        for j, p in rows[k].items():
            if j != k:
                acc = [a - p * x if x else a for a, x in zip(acc, u[j])]
        u[k] = [a * inv for a in acc]
    return np.array(u, dtype=object)


@dataclass(frozen=True)
class StripValue:
    T: int
    y: Fraction
    kind: str
    value: object          # Cyclo48 in exact mode, float otherwise
    mode: str


def _resolve_mode(mode: str, T: int) -> str:
    """The scalar mode of the resolvent solves up to strip height T:
    'auto' is exact iff T <= T_CAP_EXACT.  The one check of both caps:
    an exact solve above T_CAP_EXACT or a float one above T_CAP_FLOAT
    raises."""
    if mode == "auto":
        mode = "exact" if T <= T_CAP_EXACT else "float"
    elif mode not in ("exact", "float"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    cap = T_CAP_EXACT if mode == "exact" else T_CAP_FLOAT
    if T > cap:
        raise CapacityError(f"{mode} resolvent solve capped at T = {cap}")
    return mode


@lru_cache(maxsize=128)
def _source_sums(T: int, y: Fraction, mode: str) -> tuple:
    """The resolvent at x = x_c summed over the sources, one value per
    end kind (interior, bottom, top), from one sector solve."""
    op = build_transfer(T)
    c = constants(0, "dilute", mode)
    solve = _markowitz_solve if mode == "exact" else _dense_solve
    try:
        z = _sector_solve(op, _cell_weights(op, c.x_c, c.surface_weight(y)), c.one(), solve)
    except DivergenceError as exc:
        raise DivergenceError(f"strip series diverges: y = {y} >= y_{T} ({exc})") from None
    return tuple(z[list(op.sources)].sum(axis=0).tolist())


def _weight(y) -> Fraction:
    """y as the Fraction the solves are keyed by, once the float
    ``surface_weight`` has refused it unless positive and finite (a float
    nan or inf never reaches ``Fraction``)."""
    constants(0, "dilute", "float").surface_weight(y)
    return Fraction(y)


def strip_gf(T: int, y, kind: str = "walk", mode: str = "auto") -> StripValue:
    """Exact value of the strip generating function at x = x_c.

    kind 'arch' is A_T(x_c, y), 'bridge' is B_T(x_c, y), 'walk' is
    C_T(x_c, y) (empty walk included), for y < y_T: the solve certifies
    it block by block or raises :class:`DivergenceError`.  All three
    kinds at one (T, y, mode) read one cached solve.
    """
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown kind {kind!r}")
    y = _weight(y)
    mode = _resolve_mode(mode, T)
    sums = _source_sums(T, y, mode)
    value = sum(sums[_END_KINDS.index(e) - 1] for e in _KINDS[kind])
    if kind == "walk":
        value = value + 1
    return StripValue(T, y, kind, value, mode)


def check_strip_identity(T: int, y, mode: str = "auto"):
    """alpha*A_T(x_c,y) + beta(y)*B_T(x_c,y) = 1 for y < y_T."""
    y = _weight(y)
    a = strip_gf(T, y, "arch", mode)
    b = strip_gf(T, y, "bridge", mode)
    c = constants(0, "dilute", a.mode)
    res = c.coeff_a * a.value + c.beta(y) * b.value - 1
    return _report("strip-identity", c, {"T": T, "y": str(y)}, {"strip": res})


def check_bounds(Tmax: int, y_grid=(1, Fraction(3, 2), 2), mode: str = "auto") -> dict:
    """The finite-T inequality suite behind the critical-fugacity proof.

    (i) B_T(x_c,1) strictly decreasing in T; (ii) the arch-factorization
    inequality A_{T+1}(x_c,y) - A_T(x_c,1) <= x_c B_T(x_c,1) B_{T+1}(x_c,y);
    (iii) 0 <= 1/B_{T+1}(x_c,y) <= alpha x_c + beta(y)/B_T(x_c,1);
    (iv) A_T(x_c,1) increasing in T and below 1/alpha.
    """
    if Tmax < 1:
        raise InvalidParameterError(f"need Tmax >= 1, got Tmax={Tmax}")
    mode = _resolve_mode(mode, Tmax)
    c = constants(0, "dilute", mode)
    # beta(y) first, so a bad weight is refused before any solve, at any Tmax
    betas = [(yq, c.beta(yq)) for yq in map(_weight, y_grid)]
    A = {t: strip_gf(t, 1, "arch", mode).value for t in range(1, Tmax + 1)}
    B = {t: strip_gf(t, 1, "bridge", mode).value for t in range(1, Tmax + 1)}
    x_c, alpha = c.x_c, c.coeff_a
    checks = []

    def sgn_ok(name, value):
        """value must be >= 0 (decided exactly in exact mode)."""
        checks.append({"check": name, "margin": c.real(value), "ok": bool(value >= 0)})

    for t in range(1, Tmax):
        sgn_ok(f"B_{t} > B_{t + 1}", B[t] - B[t + 1])
        sgn_ok(f"A_{t} < A_{t + 1}", A[t + 1] - A[t])
    for t in range(1, Tmax + 1):
        sgn_ok(f"B_{t} > 0", B[t])
        sgn_ok(f"A_{t} < 1/alpha", 1 / alpha - A[t])
    for yq, beta in betas:
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
                alpha * x_c + beta / B[t] - 1 / b2,
            )
    ok = all(ch["ok"] for ch in checks)
    return {"ok": ok, "Tmax": Tmax, "mode": mode, "checks": checks}
