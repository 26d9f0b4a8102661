"""Renewal structure of bridges, diamond points, the stickbreak
perturbation, and a truncated renewal sampler.

A bridge decomposes uniquely at its renewal points into irreducible
bridges.  The critical weights x_c^|gamma| of irreducible bridges sum
to 1 (Kesten's relation); this module computes exact truncated partial
sums of that series in Q(zeta_48).  Every bridge comes from the
kernel's one bridge enumerator, which walks the upper half-plane from a
with the step arithmetic of :func:`hexsaw.lattice.step` and takes only a
length, no domain.  It counts the bridges by height and length for
those sums (renewal inversion turns the counts into irreducible ones),
lists them for the sampler's pool, deciding irreducibility by the
renewal rule of ``Walk.facts``, and runs the stickbreak sweep whole,
splicing and judging each perturbation with the same C code as
``Walk.facts`` and returning counts, building no ``Walk``.  The
half-plane and strip walks come from
:func:`hexsaw.enumeration.iter_saws` passes.

Unfolding and the prime-arch factorization of unfolded arches are
lemmas of the argument that no command reports; the test suite checks
them on these strip walks in ``tests/arch_lemmas.py``.

Coordinates follow :mod:`hexsaw.lattice`: mid-edges carry doubled
integer pairs (U, V) with real position (U*sqrt(3)/4, V/4), so a
bridge's height is (V_end - V_start)/6 and the x-spread of a set of
mid-edges is (max U - min U)*sqrt(3)/4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from . import domains as dm
from . import enumeration as en
from . import lattice
from .cyclo import Cyclo48
from .errors import CapacityError, ClassificationError, InvalidParameterError
from .lattice import Walk, _kernel
from .model import constants

#: Longest bridge that the counts and the sampler's pool reach.
N_CAP = 20


# ---------------------------------------------------------------------------
# height, width, renewal points
# ---------------------------------------------------------------------------

def height_width(w: Walk) -> tuple[Fraction, Fraction]:
    """Exact height (2/3 of the vertical extent of the endpoint) and
    width (horizontal spread of the mid-edges divided by sqrt(3))."""
    mids = w.mids
    height = Fraction(mids[-1][1] - mids[0][1], 6)
    us = [m[0] for m in mids]
    width = Fraction(max(us) - min(us), 4)
    return height, width


def _bridge_facts(b: Walk) -> lattice.WalkFacts:
    facts = b.facts
    if facts.cls != "bridge":
        raise ClassificationError("walk is not a bridge" if facts.self_avoiding
                                  else "walk is not self-avoiding")
    return facts


def renewal_points(b: Walk) -> list[int]:
    """Mid-edge indices splitting the bridge into two bridges.

    Always contains 0 and len(b).  An interior index qualifies iff the
    mid-edge is vertical, traversed upward, and strictly separates the
    walk by height.
    """
    return list(_bridge_facts(b).renewal)


def is_irreducible(b: Walk) -> bool:
    return len(renewal_points(b)) == 2


@dataclass(frozen=True)
class BridgeDecomposition:
    """A bridge cut at its renewal points into irreducible factors."""

    bridge: Walk
    renewal_indices: tuple[int, ...]
    factors: tuple[Walk, ...]       # each translated to start at a
    heights: tuple[Fraction, ...]
    widths: tuple[Fraction, ...]


def irreducible_factors(b: Walk) -> BridgeDecomposition:
    idx = renewal_points(b)
    factors = []
    for i, j in zip(idx, idx[1:]):
        piece = b.subwalk(i, j)
        factors.append(Walk(lattice.START_MID, 0, piece.turns))
    hw = [height_width(f) for f in factors]
    return BridgeDecomposition(
        bridge=b,
        renewal_indices=tuple(idx),
        factors=tuple(factors),
        heights=tuple(h for h, _ in hw),
        widths=tuple(w for _, w in hw),
    )


def concat_bridges(factors: Sequence[Walk]) -> Walk:
    """Concatenate bridges started at a by splicing their turn lists."""
    for f in factors:
        _bridge_facts(f)
    return Walk(lattice.START_MID, 0, tuple(chain.from_iterable(f.turns for f in factors)))


# ---------------------------------------------------------------------------
# free enumeration of half-plane walks, strip walks and bridges
# ---------------------------------------------------------------------------

def iter_half_plane_walks(max_len: int) -> Iterator[Walk]:
    """Every nonempty self-avoiding walk from a whose mid-edges after
    the start stay strictly above the start line, up to max_len steps."""
    domain = en.half_plane_domain(max_len)
    for v in en.iter_saws(domain, max_len):
        if v.length and domain.boundary[v.end] in en.HALF_PLANE_CLASSES:
            yield v.walk


def iter_strip_walks(T: int, max_len: int) -> Iterator[Walk]:
    """Every nonempty self-avoiding walk from a whose vertices lie in
    the height-T strip (rows 1 .. 3T-1), up to max_len steps."""
    domain = dm.build_strip_prefix(T, dm.prefix_size(max_len))
    for v in en.iter_saws(domain, max_len):
        if v.length:
            yield v.walk


def _check_max_len(max_len: int) -> None:
    if max_len < 0:
        raise InvalidParameterError(f"need max_len >= 0, got {max_len}")
    if max_len > N_CAP:
        raise CapacityError(f"bridge enumeration capped at length {N_CAP}")


def iter_bridges(max_len: int, irreducible: bool | None = None) -> Iterator[Walk]:
    """Every bridge of at most max_len steps, in the depth-first order of
    :func:`iter_half_plane_walks`: the half-plane walks whose last step
    leaves their highest vertex straight up.  With ``irreducible`` True
    or False, only the bridges with no interior renewal point, or only
    those with one.  The kernel enumerates them and applies the renewal
    rule, so a Walk is built only for the bridges yielded, and built
    without re-checking what the kernel has checked."""
    _check_max_len(max_len)
    make = Walk._from_kernel
    for turns in _kernel.bridges(max_len, irreducible):
        yield make(turns)


def bridge_height_length_counts(
    max_len: int, irreducible_only: bool = False
) -> dict[tuple[int, int], int]:
    """Counts of bridges by (height, length) up to max_len steps.

    The kernel's bridge enumerator, the one behind :func:`iter_bridges`,
    counts the bridges by height and length in one walk; the
    shortest bridge of height h has 2h steps.  A bridge is an irreducible
    bridge followed by a bridge or nothing, heights and lengths adding, so
    the irreducible counts are the renewal inversion I = B - I*B.
    """
    _check_max_len(max_len)
    hist = _kernel.bridge_counts(max_len)
    counts = {(h, n): c for h, row in enumerate(hist.tolist()) for n, c in enumerate(row) if c}
    if not irreducible_only:
        return counts
    irr: dict[tuple[int, int], int] = {}
    for (h, n), c in counts.items():     # by height: every lower one is done
        c -= sum(ci * counts.get((h - hi, n - ni), 0) for (hi, ni), ci in irr.items())
        if c:
            irr[(h, n)] = c
    return irr


# ---------------------------------------------------------------------------
# Kesten partial sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RenewalStats:
    """Truncated renewal data for irreducible bridges of length <= N."""

    N: int
    counts: dict                    # (height, length) -> int, irreducible
    f_h: dict                       # height -> Cyclo48 mass
    partial_sum: Cyclo48            # sum of f_h, exact
    partial_sum_float: float
    mean_height: Cyclo48            # sum h*f_h / Z_N, exact
    mean_height_float: float


def _check_truncation(N: int) -> None:
    if N < 2:
        raise InvalidParameterError(
            f"need N >= 2, got {N}: no bridge is shorter than 2 steps"
        )


def kesten_partial(N: int) -> RenewalStats:
    """Exact partial sum of x_c^|gamma| over irreducible bridges with
    |gamma| <= N, together with the per-height masses f_h."""
    _check_truncation(N)
    return _renewal_stats(N, bridge_height_length_counts(N, irreducible_only=True))


def kesten_partials(Ns: Sequence[int]) -> list[RenewalStats]:
    """:func:`kesten_partial` of each N in Ns, counting the irreducible
    bridges once, at the largest N.  The renewal inversion reads only
    shorter lengths, so the largest N's counts cut to lengths <= N are
    the counts at N."""
    if not Ns:
        raise InvalidParameterError("need at least one truncation N")
    for N in Ns:
        _check_truncation(N)
    top = kesten_partial(max(Ns))
    return [top if N == top.N else
            _renewal_stats(N, {k: c for k, c in top.counts.items() if k[1] <= N})
            for N in Ns]


def _renewal_stats(N: int, counts: dict[tuple[int, int], int]) -> RenewalStats:
    x_c = constants(0, "dilute").x_c
    xpow = {0: Cyclo48.from_rational(1)}
    for k in range(1, N + 1):
        xpow[k] = xpow[k - 1] * x_c
    zero = Cyclo48.from_rational(0)
    f_h: dict[int, Cyclo48] = {}
    for (h, n), c in counts.items():
        f_h[h] = f_h.get(h, zero) + xpow[n] * c
    total = zero
    weighted = zero
    for h, v in f_h.items():
        total = total + v
        weighted = weighted + v * h
    mean = weighted / total
    return RenewalStats(
        N=N,
        counts=counts,
        f_h=f_h,
        partial_sum=total,
        partial_sum_float=total.to_float(),
        mean_height=mean,
        mean_height_float=mean.to_float(),
    )


# ---------------------------------------------------------------------------
# diamond points and stickbreak
# ---------------------------------------------------------------------------

def diamond_points(b: Walk) -> tuple[int, ...]:
    """Indices of vertical mid-edges such that the whole walk lies in the
    double cone with apexes half an edge below and above the mid-edge
    and boundary slopes +-60 degrees."""
    return _bridge_facts(b).diamond


def stickbreak(b: Walk, i: int, j: int) -> Walk:
    """Rotate the subpath between the i-th and j-th diamond points
    clockwise by pi/3, splicing it back with one extra right turn before
    and one extra left turn after.  The result is a self-avoiding bridge
    two steps longer than the input."""
    d = diamond_points(b)
    if not (0 <= i < j < len(d)):
        raise InvalidParameterError(
            f"need diamond positions 0 <= i < j < {len(d)}, got ({i}, {j})"
        )
    di, dj = d[i], d[j]
    t = b.turns
    return Walk(b.start, b.heading, t[:di] + ("R",) + t[di:dj] + ("L",) + t[dj:])


def rotated_segment(b: Walk, i: int, j: int) -> Walk:
    """The middle segment of ``stickbreak(b, i, j)`` as it appears in the
    output: the subpath between the selected diamond points, rotated
    clockwise by pi/3."""
    out = stickbreak(b, i, j)
    d = diamond_points(b)
    return out.subwalk(d[i] + 1, d[j] + 1)


class StickbreakSweep(NamedTuple):
    """The counts of :func:`stickbreak_sweep`."""

    bridges: int                    # bridges enumerated
    used: int                       # those with at least two diamond points
    pairs: int                      # diamond-point pairs perturbed
    failures: int                   # outputs that are not a bridge 2 steps longer
    first_failure: tuple[tuple[str, ...], int, int] | None   # (turns, i, j)


def stickbreak_sweep(max_len: int) -> StickbreakSweep:
    """``stickbreak(b, i, j)`` for every bridge b of at most max_len steps
    and every pair i < j of its diamond points, each output judged a
    pass iff it is a self-avoiding bridge two steps longer than b.  The
    kernel runs the sweep inside its bridge enumerator and keeps only the
    counts and the first failing (turns of b, i, j)."""
    _check_max_len(max_len)
    return StickbreakSweep(*_kernel.stickbreak_sweep(max_len))


# ---------------------------------------------------------------------------
# truncated renewal sampler
# ---------------------------------------------------------------------------

def sample_renewal(N: int, k: int, seed: int) -> tuple[Walk, dict]:
    """Concatenate k independent draws from the irreducible bridges of
    length <= N, drawn with probability x_c^|gamma| / Z_N: a truncated
    stand-in for the infinite irreducible-bridge measure.  The expected
    factor height is Kesten's mean height of the same truncation."""
    if k < 1:
        raise InvalidParameterError("need at least one factor")
    stats = kesten_partial(N)   # refuses N < 2 and N > N_CAP first
    pool = list(iter_bridges(N, irreducible=True))
    x_c = constants(0, "dilute").x_c.to_float()
    weights = [x_c ** len(b) for b in pool]
    rng = random.Random(seed)
    picks = rng.choices(range(len(pool)), weights=weights, k=k)
    bridge = concat_bridges([pool[i] for i in picks])
    # Every factor starts at a and ends heading up, so the splice
    # translates it by the U at which the factors before it end: fold
    # each distinct factor's height, U range and end U over the draws.
    shape = {}
    for i in set(picks):
        us = [m[0] for m in pool[i].mids]
        shape[i] = (int(height_width(pool[i])[0]), min(us), max(us), us[-1])
    height = u_lo = u_hi = off = 0
    for i in picks:
        h, lo, hi, end = shape[i]
        height += h
        u_lo, u_hi = min(u_lo, off + lo), max(u_hi, off + hi)
        off += end
    report = {
        "truncation_N": N,
        "factors": k,
        "seed": seed,
        "length": len(bridge),
        "height": height,
        "width": str(Fraction(u_hi - u_lo, 4)),
        "renewal_points": len(renewal_points(bridge)),
        "diamond_points": len(diamond_points(bridge)),
        "mean_factor_height": height / k,
        "expected_factor_height": stats.mean_height_float,
    }
    return bridge, report
