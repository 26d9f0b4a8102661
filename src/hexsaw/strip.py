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

import numpy as np

from .cyclo import Cyclo48
from .errors import (
    CapacityError,
    InvalidParameterError,
    NonConvergenceError,
)
from .model import constants

T_CAP_EXACT = 4
T_CAP_FLOAT = 6

EMPTY = "."


def _partners(labels: str) -> dict[int, int]:
    out, stack = {}, []
    for i, c in enumerate(labels):
        if c == "(":
            stack.append(i)
        elif c == ")":
            j = stack.pop()
            out[i], out[j] = j, i
    if stack:
        raise InvalidParameterError(f"unbalanced cut state {labels!r}")
    return out


@dataclass(frozen=True)
class _Config:
    """One geometric occupation pattern of a single column."""

    links: tuple          # (token, token) per visited vertex
    rocc: int             # bitmask of occupied right crossings
    xpow: int
    ypow: int
    start: bool
    end_kind: str | None  # None | 'interior' | 'bottom' | 'top'


@lru_cache(maxsize=None)
def _geometric_configs(T: int, p: int, locc: int, surface: str) -> tuple:
    """All degree-consistent column patterns for a given left-crossing mask."""
    vert_ks = [k for k in range(1, T) if k % 2 == p % 2]
    has_bottom = p % 2 == 0
    has_top = p % 2 == T % 2
    if surface == "top":
        contact_level = T - 1 if has_top else None
    else:
        contact_level = 0 if has_bottom else None

    configs = []

    def emit(rch, lend, vch, bstub, tstub):
        ends = (
            sum(1 for c in rch if c == "end")
            + sum(1 for c in lend if c == "end")
            + sum(1 for c in vch if c in ("end_lo", "end_hi"))
            + (bstub == "end")
            + (tstub == "end")
        )
        if ends > 1:
            return
        vslot = {}
        for k in range(T):
            slots = []
            if locc >> k & 1:
                slots.append(f"L{k}")
            elif lend[k] == "end":
                slots.append("E*")
            if rch[k] == "cross":
                slots.append(f"R{k}")
            elif rch[k] == "end":
                slots.append("E*")
            vslot[k] = slots
        for k, ch in zip(vert_ks, vch):
            # vertical edge between levels k-1 (lower) and k (upper)
            if ch == "full":
                vslot[k - 1].append(f"V{k}")
                vslot[k].append(f"V{k}")
            elif ch == "end_lo":
                vslot[k - 1].append("E*")
            elif ch == "end_hi":
                vslot[k].append("E*")
        if bstub == "start":
            vslot[0].append("S*")
        elif bstub == "end":
            vslot[0].append("E*")
        if tstub == "end":
            vslot[T - 1].append("E*")

        links = []
        xpow = ypow = 0
        for k in range(T):
            m = len(vslot[k])
            if m == 0:
                continue
            if m != 2:
                return
            links.append(tuple(vslot[k]))
            xpow += 1
            if k == contact_level:
                ypow += 1
        if bstub == "end":
            ek = "bottom"
        elif tstub == "end":
            ek = "top"
        elif ends:
            ek = "interior"
        else:
            ek = None
        rocc = sum(1 << k for k in range(T) if rch[k] == "cross")
        configs.append(
            _Config(tuple(links), rocc, xpow, ypow, bstub == "start", ek)
        )

    rc = ["none", "cross", "end"]
    lc = ["none", "end"]
    vc = ["none", "full", "end_lo", "end_hi"]
    bs = ["none", "start", "end"] if has_bottom else ["none"]
    ts = ["none", "end"] if has_top else ["none"]
    vert_set = set(vert_ks)

    # Build candidates level by level so that a level whose slot count
    # cannot reach 0 or 2 is pruned immediately; ``emit`` stays the sole
    # validator of anything subtler than the per-level degree.
    def rec(k, carry, ends, rch, lend, vch, b, t):
        if k == T:
            emit(rch, lend, vch, b, t)
            return
        l_opts = ["none"] if locc >> k & 1 else lc
        l_base = 1 if locc >> k & 1 else 0
        for le in l_opts:
            e_l = ends + (le == "end")
            if e_l > 1:
                continue
            for rcv in rc:
                e_r = e_l + (rcv == "end")
                if e_r > 1:
                    continue
                cnt = carry + l_base + (le == "end") + (rcv != "none")
                for bv in (bs if k == 0 else ["none"]):
                    e_b = e_r + (bv == "end")
                    if e_b > 1:
                        continue
                    c_b = cnt + (bv != "none")
                    for tv in (ts if k == T - 1 else ["none"]):
                        e_t = e_b + (tv == "end")
                        if e_t > 1:
                            continue
                        c_t = c_b + (tv != "none")
                        if k + 1 in vert_set:
                            for vcv in vc:
                                e_v = e_t + (vcv in ("end_lo", "end_hi"))
                                if e_v > 1:
                                    continue
                                low = c_t + (vcv in ("full", "end_lo"))
                                if low not in (0, 2):
                                    continue
                                up = 1 if vcv in ("full", "end_hi") else 0
                                rec(k + 1, up, e_v, rch + [rcv],
                                    lend + [le], vch + [vcv],
                                    bv if k == 0 else b,
                                    tv if k == T - 1 else t)
                        else:
                            if c_t not in (0, 2):
                                continue
                            rec(k + 1, 0, e_t, rch + [rcv],
                                lend + [le], vch,
                                bv if k == 0 else b,
                                tv if k == T - 1 else t)

    rec(0, 0, 0, [], [], [], None, None)
    return tuple(configs)


class _UF:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            p = self.parent[x] = self.find(p)
        return p

    def union(self, a, b) -> bool:
        """Returns False when a and b were already connected (a cycle)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _apply_column(state, config: _Config, T: int):
    """One column transition, or None if the pattern is inconsistent."""
    labels, a_done, end_done, p = state
    if config.start and a_done:
        return None
    if config.start and p % 2 != 0:
        return None
    if config.end_kind and end_done:
        return None

    uf = _UF()
    for i, j in _partners(labels).items():
        if i < j:
            uf.union(f"L{i}", f"L{j}")
    for t1, t2 in config.links:
        if not uf.union(t1, t2):
            return None  # closed loop

    tags: dict = {}
    for i, c in enumerate(labels):
        if c in ("S", "E"):
            tags.setdefault(uf.find(f"L{i}"), set()).add(c)
    if config.start:
        tags.setdefault(uf.find("S*"), set()).add("S")
    if config.end_kind:
        tags.setdefault(uf.find("E*"), set()).add("E")

    comp_ports: dict = {}
    for k in range(T):
        if config.rocc >> k & 1:
            comp_ports.setdefault(uf.find(f"R{k}"), []).append(k)

    new = [EMPTY] * T
    for root, ports in comp_ports.items():
        tg = tags.pop(root, set())
        if len(ports) == 2 and not tg:
            new[ports[0]] = "("
            new[ports[1]] = ")"
        elif len(ports) == 1 and tg == {"S"}:
            new[ports[0]] = "S"
        elif len(ports) == 1 and tg == {"E"}:
            new[ports[0]] = "E"
        else:
            return None

    completed = False
    for root, tg in tags.items():
        if tg == {"S", "E"}:
            completed = True
        elif tg:
            # a strand tied to S or E alone must keep crossing; if its
            # marker is no longer on any port the pattern is invalid
            if root not in comp_ports:
                return None
    if completed and any(c != EMPTY for c in new):
        return None

    # planarity sanity: S may not be nested inside a pairing arc
    depth = 0
    for c in new:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "S" and depth:
            return None

    na = a_done or config.start
    ne = end_done or bool(config.end_kind)
    if completed:
        na = ne = True
    return ("".join(new), na, ne, (p + 1) % 2)


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
            locc = sum(1 << k for k in range(T) if labels[k] != EMPTY)
            si = index[st]
            for cfg in _geometric_configs(T, p, locc, surface):
                if cfg.xpow == 0:
                    continue  # an unoccupied column is padding, not a step
                res = _apply_column(st, cfg, T)
                if res is None:
                    continue
                if res not in index:
                    nxt.append(res)
                sj = intern(res)
                transitions.append((si, sj, cfg.xpow, cfg.ypow, cfg.end_kind))
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
