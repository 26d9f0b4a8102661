"""Domain builders and boundary classification.

The boundary oracle below re-derives every class from coordinate
predicates alone, independent of the owner-vertex logic in the package.
"""

import numpy as np
import pytest

import geometry_oracle
from hexsaw import domains as dm
from hexsaw import enumeration as en
from hexsaw import lattice
from hexsaw.errors import InvalidParameterError


def _oracle_class(domain, mid):
    """Classify a boundary mid-edge from raw coordinates only."""
    U, V = mid
    if V == 0:
        return dm.A_START if mid == (0, 0) else dm.A_BOTTOM
    if V == 6 * domain.T:
        return dm.B_TOP
    if domain.kind == "rectangle":
        # the half-edge points up out of the domain iff the missing
        # endpoint vertex sits above the inside one
        p, q = geometry_oracle.mid_endpoints(U, V)
        inside, outside = (p, q) if p in domain.vertices else (q, p)
        return dm.E_PLUS if outside[1] > inside[1] else dm.E_MINUS
    return dm.E_RIGHT if U > 0 else dm.E_LEFT


def _boundary_by_degree(domain):
    """A mid-edge is boundary iff one endpoint vertex lies outside."""
    out = {}
    for m in domain.mids:
        p, q = geometry_oracle.mid_endpoints(*m)
        n_in = (p in domain.vertices) + (q in domain.vertices)
        assert n_in in (1, 2)
        if n_in == 1:
            out[m] = _oracle_class(domain, m)
    return out


@pytest.mark.parametrize(
    "domain",
    [
        dm.build_trapezoid(1, 1),
        dm.build_trapezoid(2, 1),
        dm.build_trapezoid(1, 3),
        dm.build_trapezoid(3, 2),
        dm.build_rectangle(2, 2),
        dm.build_rectangle(3, 3),
        dm.build_strip_prefix(2, 2),
        dm.build_strip_prefix(2, 2, surface="bottom"),
    ],
    ids=lambda d: f"{d.kind}-{d.T}-{d.L}",
)
def test_boundary_against_oracle(domain):
    oracle = _boundary_by_degree(domain)
    for m, cls in domain.boundary.items():
        if cls == dm.INTERIOR:
            assert m not in oracle
        else:
            assert oracle[m] == cls


def _class_mids(domain, cls):
    return sorted(m for m, c in domain.boundary.items() if c == cls)


def test_trapezoid_boundary_counts():
    for T, L in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)]:
        d = dm.build_trapezoid(T, L)
        assert len(_class_mids(d, dm.A_START)) == 1
        assert len(_class_mids(d, dm.A_BOTTOM)) == 2 * L
        assert len(_class_mids(d, dm.B_TOP)) == 2 * L + T + 1
        assert len(_class_mids(d, dm.E_RIGHT)) == T
        assert len(_class_mids(d, dm.E_LEFT)) == T
        assert len(d.surface) == 2 * L + T + 1


def test_rectangle_shape():
    d = dm.build_rectangle(2, 2)
    assert d.surface == frozenset()
    assert all(abs(u) <= 2 for u, _ in d.vertices)
    eplus, eminus = _class_mids(d, dm.E_PLUS), _class_mids(d, dm.E_MINUS)
    assert len(eplus) == len(eminus) == d.T
    # E+ mid-edges point up out of the domain: their inside vertex is a
    # down-pointing one
    for m in eplus:
        p, q = geometry_oracle.mid_endpoints(*m)
        owner = p if p in d.vertices else q
        assert lattice.vertex_type(*owner) == "lam"


def test_strip_prefix_surface_rows():
    top = dm.build_strip_prefix(2, 3)
    bottom = dm.build_strip_prefix(2, 3, surface="bottom")
    assert {v for _, v in top.surface} == {5}
    assert {v for _, v in bottom.surface} == {1}
    assert top.max_reliable_len == 6
    assert top.vertices == bottom.vertices


def test_guards():
    with pytest.raises(InvalidParameterError):
        dm.build_trapezoid(0, 1)
    with pytest.raises(InvalidParameterError):
        dm.build_strip_prefix(1, 1, surface="left")
    with pytest.raises(InvalidParameterError, match="not a lattice vertex"):
        dm.Domain("x", 1, 1, frozenset({(0, 0)}), frozenset())


def test_guard_start_mid_edge():
    with pytest.raises(InvalidParameterError,
                       match="^domain does not contain the start mid-edge$"):
        dm.Domain("x", 1, 1, frozenset({(2, 1)}), frozenset())
    # either endpoint of the start edge carries it
    for vtx in ((0, 1), (0, -1)):
        d = dm.Domain("x", 1, 1, frozenset({vtx}), frozenset())
        assert lattice.START_MID in d.mids
        assert d.boundary[lattice.START_MID] == dm.A_START


def test_guard_surface_outside_domain():
    with pytest.raises(InvalidParameterError,
                       match="^surface vertices must lie in the domain$"):
        dm.Domain("x", 1, 1, frozenset({(0, 1)}), frozenset({(2, 1)}))


# -- the one-pass layout against the per-mid-edge oracle ------------------

GEOMETRY_FAMILIES = {
    "trapezoid": [dm.build_trapezoid(T, L) for T in range(1, 6) for L in range(1, 5)],
    "rectangle": [dm.build_rectangle(T, L) for T in range(1, 6) for L in range(1, 5)],
    "strip-prefix": [dm.build_strip_prefix(T, L, surface=s)
                     for T in range(1, 5) for L in range(1, 5) for s in ("top", "bottom")],
    "half-plane": [en.half_plane_domain(N) for N in range(1, 21)],
}


@pytest.mark.parametrize("family", GEOMETRY_FAMILIES)
def test_layout_matches_per_mid_edge_oracle(family):
    """build_tables, Domain.mids and Domain.boundary equal the former
    per-mid-edge passes, array for array (values, dtypes and order)."""
    for domain in GEOMETRY_FAMILIES[family]:
        assert domain.mids == geometry_oracle.mids(domain)
        assert domain.boundary == geometry_oracle.boundary(domain)
        got, want = en.build_tables(domain), geometry_oracle.build_tables(domain)
        for name in dm.KernelTables.__dataclass_fields__:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            else:
                assert a == b, name
