"""Pure-Python twin of the compiled kernel's strip transfer builder.

``transfer`` returns the arrays of ``_dfs.transfer`` (same state codes,
numbering and transitions) with each transition's source, target and
end in place of its cell, and the tests compare the two array for
array.  It is an oracle only: no package module imports it, and
the package always runs the compiled kernel.
"""

from itertools import product

import numpy as np

# transfer(T) returns (codes, src, dst, xpow, ypow, end) as int64 arrays,
# contacts lying on the top row.  A state code holds cut slot i in bits
# 3i..3i+2 (its index in SLOT_CHARS) and the start-inserted flag, the
# end-placed flag and the column parity in bits FLAG_SHIFT, FLAG_SHIFT + 1
# and FLAG_SHIFT + 2.
# States are numbered in first-discovery order, transitions come in
# state x move order, and end[k] is the end kind's index in END_KINDS.
# The C kernel exports the same T_MAX, FLAG_SHIFT and END_KINDS.

T_MAX = 10
SLOT_CHARS = ".()SE"
FLAG_SHIFT = 3 * T_MAX
END_KINDS = (None, "interior", "bottom", "top")

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


def _column_moves(T: int, p: int) -> dict:
    """The nonempty column moves of parity p, keyed by (left-crossing
    mask, may insert the start, may place the end), each list in a fixed
    order.

    A column is a set of disjoint paths, and a move keeps only how they
    join the column's endpoints, numbered L_k = k (left crossing at level
    k), R_k = T + k (right crossing), S = 2T (the start) and E = 2T + 1
    (the free end).  A move is ``(rocc, xpow, ypow, start, end_kind,
    match)``: the bitmask of occupied right crossings, the visited
    vertices and top-row (contact) vertices, whether the column inserts
    the start, where it places the end (None, 'interior', 'bottom' or
    'top'), and ``match[e]``, the endpoint the column joins e to (-1 when
    unused).

    Levels are filled bottom to top and a level is cut off as soon as its
    vertex cannot have degree 0 or 2.  ``carry`` is the endpoint at the
    lower end of the strand entering a level from below, so each path is
    matched end to end where it closes.
    """
    E = 2 * T + 1
    contact = T - 1 if p % 2 == T % 2 else None
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
    # no nesting test for S: its strand runs to the start on the bottom
    # boundary, so it cannot begin inside a closed arc
    return "".join(new)


def _code(state) -> int:
    labels, a_done, end_done, p = state
    code = sum(SLOT_CHARS.index(c) << 3 * i for i, c in enumerate(labels))
    return code | a_done << FLAG_SHIFT | end_done << FLAG_SHIFT + 1 | p << FLAG_SHIFT + 2


def transfer(T: int):
    """The height-T strip transfer operator with contacts on the top row,
    as (codes, src, dst, xpow, ypow, end)."""
    if not 1 <= T <= T_MAX:
        raise ValueError(f"need 1 <= T <= {T_MAX}, got T={T!r}")
    empty = EMPTY * T
    sources = [(empty, False, False, 0), (empty, False, False, 1)]
    index: dict = {}
    states: list = []
    transitions = []
    parsed: dict = {}
    columns = [_column_moves(T, p) for p in (0, 1)]

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
                transitions.append((si, sj, xpow, ypow, END_KINDS.index(ek)))
        frontier = nxt
    cols = np.array(transitions, dtype=np.int64).reshape(-1, 5).T
    codes = np.array([_code(s) for s in states], dtype=np.int64)
    return (codes, *(np.ascontiguousarray(c) for c in cols))
