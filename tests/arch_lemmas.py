"""Unfolding and the prime-arch factorization of unfolded arches:
lemmas of the argument that no command reports, checked by
``tests/test_bridges.py`` on the package's strip walks.

Unfolding reflects a self-avoiding walk at its extremal-x vertices
until the start mid-edge is leftmost and the end mid-edge rightmost.
An unfolded arch splits at its seams into prime unfolded arches, and
the series of unfolded arches in a strip, counted by (length, contacts),
is the geometric series of the prime ones with one step and one contact
removed per seam (:func:`check_prime_arch_series`).
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import walk_oracle
from hexsaw import lattice
from hexsaw.bridges import iter_strip_walks
from hexsaw.errors import ClassificationError, InvalidParameterError
from hexsaw.lattice import Walk


# ---------------------------------------------------------------------------
# unfolding
# ---------------------------------------------------------------------------

def _turns_from_headings(heads: Sequence[int]) -> tuple[str, ...]:
    out = []
    for h, nh in zip(heads, heads[1:]):
        if nh == (h - 1) % 6:
            out.append("L")
        elif nh == (h + 1) % 6:
            out.append("R")
        else:
            raise ClassificationError("reflection broke the turn sequence")
    return tuple(out)


def _reflect_suffix(w: Walk, k: int) -> Walk:
    """Reflect the part of the walk after vertex index k in the vertical
    line through that vertex.  The turn at the pivot vertex flips
    exactly when its outgoing mid-edge is a slanted one."""
    heads = walk_oracle.headings(w)
    new_heads = list(heads[: k + 1]) + [(-h) % 6 for h in heads[k + 1:]]
    return Walk(w.start, w.heading, _turns_from_headings(new_heads))


def _reflect_prefix(w: Walk, k: int) -> Walk:
    """Reflect the part of the walk before vertex index k in the vertical
    line through that vertex."""
    heads = walk_oracle.headings(w)
    uk = w.vertices[k][0]
    new_heads = [(-h) % 6 for h in heads[: k + 1]] + list(heads[k + 1:])
    new_start = (4 * uk - w.start[0], w.start[1])
    return Walk(new_start, new_heads[0], _turns_from_headings(new_heads))


def unfold(w: Walk) -> Walk:
    """Iterated reflection at extremal-x vertices until the start
    mid-edge is minimal and the end mid-edge maximal in x.

    The input must be self-avoiding; the output has the same length, is
    self-avoiding, and is a fixpoint of this map.
    """
    if not w.facts.self_avoiding:
        raise ClassificationError("walk is not self-avoiding")
    if len(w) == 0:
        return w
    for _ in range(4 * len(w) + 8):
        verts = w.vertices
        us = [2 * u for u, _ in verts]
        if max(us) > w.end[0]:
            m = max(u for u, _ in verts)
            k = max(i for i, (u, _) in enumerate(verts) if u == m)
            w = _reflect_suffix(w, k)
            continue
        if min(us) < w.start[0]:
            m = min(u for u, _ in verts)
            k = min(i for i, (u, _) in enumerate(verts) if u == m)
            w = _reflect_prefix(w, k)
            continue
        return w
    raise ClassificationError("unfolding failed to terminate")


# ---------------------------------------------------------------------------
# unfolded arches and prime factorization
# ---------------------------------------------------------------------------

def is_unfolded_arch(w: Walk) -> bool:
    """An arch (returning to the start line) all of whose vertices lie
    weakly right of the start and strictly left of the end, except the
    final vertex which sits directly above the end mid-edge."""
    if lattice.classify_walk(w) != "arch":
        return False
    u0, ub = w.start[0], w.end[0]
    verts = w.vertices
    return all(u0 <= 2 * u for u, _ in verts) and all(
        2 * u < ub for u, _ in verts[:-1]
    ) and 2 * verts[-1][0] == ub


def arch_seams(w: Walk) -> list[int]:
    """Vertex indices where an unfolded arch splits into two unfolded
    arches: bottom-row vertices entered through their upper-left slant
    mid-edge and left through their upper-right one, with every earlier
    vertex strictly left and every later vertex weakly right."""
    if not is_unfolded_arch(w):
        raise ClassificationError("walk is not an unfolded arch")
    mids, verts = w.mids, w.vertices
    seams = []
    for k, (u, v) in enumerate(verts):
        if v != 1 or k == 0 or k == len(verts) - 1:
            continue
        if mids[k] != (2 * u - 1, 3) or mids[k + 1] != (2 * u + 1, 3):
            continue
        if all(verts[i][0] < u for i in range(k)) and all(
            verts[i][0] >= u for i in range(k, len(verts))
        ):
            seams.append(k)
    return seams


def prime_arch_factors(w: Walk) -> list[Walk]:
    """Split an unfolded arch at its seams into prime unfolded arches,
    each translated to start at a.  A deleted downward step is restored
    at the end of every factor but the last, and the forced upward step
    is restored at the start of every factor but the first."""
    seams = arch_seams(w)
    t = w.turns
    bounds = [-1] + seams + [len(t)]
    factors = []
    for idx, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        head = () if idx == 0 else ("R",)
        tail = ("R",) if hi < len(t) else ()
        factors.append(Walk(lattice.START_MID, 0, head + t[lo + 1: hi] + tail))
    return factors


def concat_arches(factors: Sequence[Walk]) -> Walk:
    """Inverse of :func:`prime_arch_factors` (up to translation)."""
    parts = []
    for idx, f in enumerate(factors):
        t = f.turns
        if idx > 0:
            t = t[1:]
        if idx < len(factors) - 1:
            if t[-1] != "R":
                raise ClassificationError("factor does not end with a seam step")
            t = t[:-1] + ("L",)
        parts.append(t)
    return Walk(lattice.START_MID, 0, tuple(chain.from_iterable(parts)))


def wavy_column_arch(T: int) -> Walk:
    """The prime unfolded arch made of a single wavy column with 2(T-1)
    vertical edges in a strip of height T: length 4T-1, two contacts."""
    if T < 1:
        raise InvalidParameterError("need T >= 1")
    up: list[str] = []
    for k in range(T - 1):
        up += ["R", "L"] if k % 2 == 0 else ["L", "R"]
    turns = up + ["R", "R", "R"] + ["L", "R"] * (T - 1)
    return Walk(lattice.START_MID, 0, tuple(turns))


def _series_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _series_mul(a, b, max_len):
    out: dict[tuple[int, int], int] = {}
    for (la, ca), va in a.items():
        for (lb, cb), vb in b.items():
            if la + lb <= max_len:
                key = (la + lb, ca + cb)
                out[key] = out.get(key, 0) + va * vb
    return out


def _seam_shift(a):
    # one concatenation seam removes one step and merges one contact
    return {(l - 1, c - 1): v for (l, c), v in a.items()}


def unfolded_arch_series(T: int, max_len: int, prime: bool = False):
    """Counts of (prime) unfolded arches in a strip of height T with the
    bottom row weighted, tallied by (length, contacts)."""
    counts: dict[tuple[int, int], int] = {}
    for w in iter_strip_walks(T, max_len):
        if not is_unfolded_arch(w):
            continue
        if prime and arch_seams(w):
            continue
        contacts = sum(1 for _, v in set(w.vertices) if v == 1)
        key = (len(w), contacts)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_prime_arch_series(T: int, max_len: int) -> dict:
    """Coefficientwise check, up to max_len, of the geometric relation
    between unfolded arches and their prime factors: the full series is
    sum_k P^k with one (step, contact) pair removed per seam."""
    full = unfolded_arch_series(T, max_len)
    prime = unfolded_arch_series(T, max_len, prime=True)
    acc = dict(prime)
    total = dict(prime)
    while acc:
        acc = _seam_shift(_series_mul(acc, prime, max_len + 1))
        acc = {k: v for k, v in acc.items() if k[0] <= max_len}
        total = _series_add(total, acc)
    ok = full == {k: v for k, v in total.items() if v}
    return {"T": T, "max_len": max_len, "ok": ok, "full": full, "rebuilt": total}
