"""Lattice geometry and walk mechanics."""

import pytest

import geometry_oracle
import walk_oracle
from hexsaw import lattice
from hexsaw.errors import ClassificationError, InvalidParameterError
from hexsaw.lattice import Walk, classify_walk


def test_vertex_predicate():
    assert lattice.is_vertex(0, 1)
    assert lattice.is_vertex(1, 2)
    assert not lattice.is_vertex(0, 0)
    assert not lattice.is_vertex(1, 1)
    assert not lattice.is_vertex(0, 3)
    # parity alternation between rows
    assert lattice.is_vertex(0, 5) and not lattice.is_vertex(1, 5)
    assert lattice.is_vertex(1, 4) and not lattice.is_vertex(0, 4)


def test_vertex_types_and_neighbors():
    assert lattice.vertex_type(1, 2) == "Y"
    assert lattice.vertex_type(0, 1) == "lam"
    for v in [(0, 1), (1, 2), (1, 4), (0, 5)]:
        nbrs = lattice.vertex_neighbors(*v)
        assert len(nbrs) == 3
        for nb in nbrs:
            assert lattice.is_vertex(*nb)
            assert v in lattice.vertex_neighbors(*nb)


def test_mid_edge_roundtrip():
    """A mid-edge is the sum of its two endpoint vertices; a vertical one
    is traversed up or down, and a non-adjacent pair sums to no mid-edge."""
    a, b = (1, 2), (1, 4)
    assert b in lattice.vertex_neighbors(*a)
    m = (a[0] + b[0], a[1] + b[1])
    assert m == (2, 6)
    assert set(geometry_oracle.mid_endpoints(*m)) == {a, b}
    assert walk_oracle.mid_orientation(*m) == 0
    assert lattice.mid_headings(*m) == (0, 3)
    assert (0, 5) not in lattice.vertex_neighbors(1, 2)
    with pytest.raises(InvalidParameterError):
        lattice.mid_headings(1, 7)


def test_step_geometry():
    vtx, mid, heading = lattice.step(lattice.START_MID, 0, "R")
    assert vtx == (0, 1) and mid == (1, 3) and heading == 1
    vtx, mid, heading = lattice.step(lattice.START_MID, 0, "L")
    assert vtx == (0, 1) and mid == (-1, 3) and heading == 5


def test_walk_trace_and_winding():
    w = Walk(turns=("R", "L", "L", "R"))
    assert len(w) == 4
    assert w.end == (0, 12)
    assert w.facts.self_avoiding
    # the winding, in units of pi/3 counterclockwise, is the turn of the heading
    for turns in (w.turns, ("R", "R"), ("L",)):
        winding = turns.count("L") - turns.count("R")
        assert (lattice.START_HEADING - winding) % 6 == Walk(turns=turns)._trace[2][-1]


def test_walk_turns_are_a_tuple_of_l_and_r():
    """Any other token is an error, not a right turn."""
    for turns in (("X", "L"), (1,), ("R", None), ("r", "L"), "RL"):
        with pytest.raises(InvalidParameterError):
            Walk(turns=turns)
    w = Walk(turns=["R", "L"])
    assert w.turns == ("R", "L") and w == Walk(turns=("R", "L"))
    assert hash(w) == hash(Walk(turns=("R", "L")))
    assert classify_walk(w) == "bridge"


def test_walk_start_is_a_tuple_of_two_ints():
    """A list start is stored as a tuple, so the walk hashes; a start
    that is not a pair of ints is an error."""
    w = Walk(start=[0, 0], turns=("R", "L"))
    assert w.start == (0, 0) and type(w.start) is tuple
    assert w == Walk(turns=("R", "L")) and hash(w) == hash(Walk(turns=("R", "L")))
    assert classify_walk(w) == "bridge"
    for start in ((0.0, 0), (0, 0, 1), (0,), "00", None, ("0", 0)):
        with pytest.raises(InvalidParameterError):
            Walk(start=start)


def test_walk_mid_distinctness_kills_hexagon():
    # six identical turns close a hexagon: vertices distinct only until
    # the final step revisits the starting mid-edge
    w = Walk(turns=("R",) * 6)
    assert not w.facts.self_avoiding


def test_subwalk_reflect_translate():
    w = Walk(turns=("R", "L", "L", "R"))
    s = w.subwalk(2, 4)
    assert s.start == w.mids[2] and len(s) == 2
    # the mirror image about the vertical axis through the start mid-edge
    r = Walk(w.start, (-w.heading) % 6, tuple("R" if t == "L" else "L" for t in w.turns))
    assert r.end == (-w.end[0], w.end[1])
    t = Walk((w.start[0] + 4, w.start[1]), w.heading, w.turns)
    assert t.end == (4, 12)


def test_classify():
    assert classify_walk(Walk(turns=("R", "L"))) == "bridge"
    assert classify_walk(Walk(turns=("R", "L", "L", "R"))) == "bridge"
    assert classify_walk(Walk(turns=("R", "R", "R"))) == "arch"
    assert classify_walk(Walk(turns=("R",))) == "half-plane"
    # one step down from above cannot happen from the start heading, but a
    # walk that dips back to the start line without ending vertical is
    # neither arch nor bridge
    assert classify_walk(Walk(turns=("R", "R"))) == "half-plane"
    with pytest.raises(ClassificationError):
        classify_walk(Walk())


def test_classify_heights_definition():
    # brute force: bridge iff interior mid-edges strictly between the
    # endpoint heights and both ends vertical upward
    for n in range(1, 7):
        for turns in walk_oracle.iter_turn_sequences(n):
            w = Walk(turns=turns)
            if not w.facts.self_avoiding:
                continue
            mids, heads = w.mids, walk_oracle.headings(w)
            expect = (
                heads[0] == 0
                and heads[-1] == 0
                and walk_oracle.mid_orientation(*mids[-1]) == 0
                and all(mids[0][1] < m[1] < mids[-1][1] for m in mids[1:-1])
            )
            assert (classify_walk(w) == "bridge") == expect


def _oracle_facts(w):
    """(self-avoiding, class or None, renewal, diamond) by the oracle."""
    if not walk_oracle.is_self_avoiding(w):
        return False, None, None, None
    if len(w) == 0:
        return True, None, None, None
    cls = walk_oracle.classify_walk(w)
    if cls != "bridge":
        return True, cls, None, None
    return (True, cls, tuple(walk_oracle.renewal_points(w)),
            walk_oracle.diamond_points(w))


# upward and downward on the start mid-edge, two slanted mid-edges, and
# a vertical one a period away
STARTS = [((0, 0), 0), ((0, 0), 3), ((1, 3), 1), ((-1, 3), 2), ((8, -12), 0)]


@pytest.mark.parametrize("start, heading", STARTS)
def test_walk_facts_match_oracle_on_all_short_walks(start, heading):
    """Self-avoidance, class, renewal and diamond points from the kernel
    equal the Python oracle's for every turn sequence of length <= 12,
    self-avoiding or not."""
    seen = set()
    for n in range(13):
        for turns in walk_oracle.iter_turn_sequences(n):
            w = Walk(start, heading, turns)
            want = _oracle_facts(w)
            assert tuple(w.facts) == want, turns
            assert w.facts.self_avoiding == want[0]
            if want[1] is None:
                with pytest.raises(ClassificationError):
                    classify_walk(w)
            else:
                assert classify_walk(w) == want[1]
            seen.add(want[1] if want[0] else "not self-avoiding")
    assert {"not self-avoiding", "other"} <= seen
    if heading == 0:
        assert seen == {None, "bridge", "arch", "half-plane", "other", "not self-avoiding"}
