"""Walk and loop enumeration: kernels, tallies, half-plane counts."""

import ctypes
import dataclasses
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import transfer_oracle
import walk_oracle
from hexsaw import domains as dm
from hexsaw import enumeration as en
from hexsaw import lattice
from hexsaw import strip as sp
from hexsaw.cyclo import ONE
from hexsaw.errors import CapacityError, InvalidParameterError, TruncationError
from hexsaw.lattice import Walk
from hexsaw.model import constants


def test_backend_flag():
    assert en.backend_name() == "compiled"


def test_build_tables_returns_the_domain_cache():
    d = dm.build_trapezoid(2, 2)
    assert en.build_tables(d) is en.build_tables(d) is d.tables


def test_kernel_header_names_every_function(c_kernel):
    """The header comment of _dfs.c states the contract of each function
    the kernel exports, each named as it is called: name(args)."""
    src = (Path(__file__).resolve().parents[1] / "src" / "hexsaw" / "_dfs.c").read_text()
    header = src[:src.index("*/")]
    names = [n for n, f in vars(c_kernel).items() if callable(f) and not n.startswith("_")]
    assert names
    assert [n for n in names if not re.search(rf"\b{n}\(\w", header)] == []


def _import_error(kernel: str) -> str:
    """The last stderr line of a fresh interpreter that registers the
    expression ``kernel`` as hexsaw._dfs and imports hexsaw; it must fail
    with an ImportError that names the build."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = f"import sys, types; sys.modules['hexsaw._dfs'] = {kernel}; import hexsaw"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert "python setup.py build_ext --inplace" in last
    assert "pip install -e ." in last
    return last


def test_import_without_kernel_names_the_build():
    """The compiled kernel is required: no fallback runs in its place."""
    assert "not built" in _import_error("None")


@pytest.mark.parametrize("abi", [None, lattice.KERNEL_ABI - 1], ids=["missing", "stale"])
def test_import_with_stale_kernel_names_the_build(abi):
    """A kernel built from an older _dfs.c (no KERNEL_ABI, or another
    one) fails at import, and not in the middle of a command."""
    kernel = "types.SimpleNamespace()" if abi is None else f"types.SimpleNamespace(KERNEL_ABI={abi})"
    last = _import_error(kernel)
    assert "stale" in last
    # a copied in-place build can look up to date; only --force rebuilds it
    assert "python setup.py build_ext --inplace --force" in last


def _iter_saws_histogram(domain, n):
    """counts[class, length, contacts] over the iter_saws walks of <= n steps."""
    tables = en.build_tables(domain)
    ref = np.zeros((tables.n_classes, n + 1, tables.n_surface + 1), dtype=np.int64)
    for visit in en.iter_saws(domain, n):
        ref[dm.CLASS_ID[domain.boundary[visit.end]], visit.length, visit.contacts] += 1
    return ref


@pytest.mark.parametrize(
    "domain, max_len",
    [
        (dm.build_trapezoid(1, 2), None),
        (dm.build_trapezoid(2, 1), None),
        (dm.build_trapezoid(2, 2), None),
        (dm.build_trapezoid(3, 2), None),
        (dm.build_rectangle(2, 2), None),
        (dm.build_rectangle(3, 3), None),
        (dm.build_strip_prefix(3, 4, surface="bottom"), 8),
        (dm.build_trapezoid(2, 2), 0),
        # walks far longer than the interpreter's recursion limit
        (dm.build_strip_prefix(1, 700, surface="bottom"), 1300),
    ],
    ids=lambda p: f"{p.kind}-{p.T}-{p.L}" if isinstance(p, dm.Domain) else f"len{p}",
)
def test_c_kernel_matches_pure(c_kernel, domain, max_len):
    """The C kernel's histogram equals the pure-Python iter_saws one,
    array for array, and class_histogram returns it."""
    tables = en.build_tables(domain)
    n = len(tables.mids) - 1 if max_len is None else max_len
    ref = _iter_saws_histogram(domain, n)
    got = c_kernel.tally_class(tables, n)
    assert got.dtype == np.int64 and got.shape == ref.shape
    assert (got == ref).all()
    assert (en.class_histogram(domain, max_len) == ref).all()


E_SWAP = [0, 1, 2, 4, 3, 5, 6, 7]   # E <-> EBAR, every other class fixed
MIRROR_FAMILIES = {
    "trapezoid": ([dm.build_trapezoid(T, L) for T, L in ((1, 1), (1, 3), (2, 2), (3, 1), (3, 2))],
                  E_SWAP),
    "rectangle": ([dm.build_rectangle(T, L) for T, L in ((1, 1), (2, 2), (3, 3), (4, 2))],
                  list(range(8))),
    "strip-prefix": ([dm.build_strip_prefix(T, L, surface=s)
                      for T, L in ((1, 4), (2, 3), (4, 4)) for s in ("top", "bottom")], E_SWAP),
    "half-plane": ([en.half_plane_domain(N) for N in (1, 2, 7, 10)], E_SWAP),
}


@pytest.mark.parametrize("family", MIRROR_FAMILIES)
def test_mirror_fold_matches_full_search(c_kernel, family):
    """On the package's domains, all symmetric under U -> -U, the folded
    search equals the full one and the iter_saws histogram, at every
    max_len."""
    domains, perm = MIRROR_FAMILIES[family]
    for domain in domains:
        tables = en.build_tables(domain)
        assert tables.mirror_class.tolist() == perm
        full = dataclasses.replace(tables, mirror_class=None)
        n = domain.max_reliable_len or len(tables.mids) - 1
        ref = _iter_saws_histogram(domain, n)
        assert ref.sum() < 10**5
        for m in range(n + 1):
            got = c_kernel.tally_class(tables, m)
            assert (got == c_kernel.tally_class(full, m)).all(), (domain, m)
            assert (got == ref[:, : m + 1]).all(), (domain, m)


def _grown(domain, extra=frozenset(), surface=None):
    return dm.Domain(domain.kind, domain.T, domain.L, domain.vertices | extra,
                     domain.surface if surface is None else surface)


@pytest.mark.parametrize("domain", [
    _grown(dm.build_trapezoid(2, 1), extra=frozenset({(4, 1)})),
    _grown(dm.build_trapezoid(2, 1),
           surface=frozenset(v for v in dm.build_trapezoid(2, 1).surface if v[0] > 0)),
], ids=["extra-vertex", "one-sided-surface"])
def test_asymmetric_domain_runs_the_full_search(c_kernel, domain):
    tables = en.build_tables(domain)
    assert tables.mirror_class is None
    n = len(tables.mids) - 1
    ref = _iter_saws_histogram(domain, n)
    for m in range(n + 1):
        assert (c_kernel.tally_class(tables, m) == ref[:, : m + 1]).all()


def test_only_the_empty_walk(c_kernel):
    """The vertex ahead of a is missing: the fold adds the empty walk once."""
    domain = dm.Domain("x", 1, 1, frozenset({(0, -1)}), frozenset())
    tables = en.build_tables(domain)
    assert tables.mirror_class is not None
    for m in range(len(tables.mids)):
        got = c_kernel.tally_class(tables, m)
        assert got.sum() == 1 and got[dm.CLASS_ID[dm.A_START], 0, 0] == 1
        assert (got == _iter_saws_histogram(domain, m)).all()


def test_negative_max_len_is_refused():
    domain = dm.build_trapezoid(1, 1)
    with pytest.raises(InvalidParameterError, match="max_len"):
        en.class_histogram(domain, -1)
    with pytest.raises(InvalidParameterError, match="max_len"):
        list(en.iter_saws(domain, -1))


def test_iter_saws_walks_past_recursion_limit():
    domain = dm.build_strip_prefix(1, 700, surface="bottom")
    lengths = [v.length for v in en.iter_saws(domain, 1300)]
    assert len(lengths) == 5199
    assert max(lengths) == 1300


def _malformed_tables(tables):
    wide = tables.step_mid.copy()
    wide[0] = len(tables.mids)
    mirror = tables.mirror_class
    out_of_range, cycle, moves_start = mirror.copy(), mirror.copy(), mirror.copy()
    out_of_range[-1] = tables.n_classes
    cycle[[3, 4, 5]] = (4, 5, 3)                # E -> EBAR -> E+ -> E
    start, bottom = dm.CLASS_ID[dm.A_START], dm.CLASS_ID[dm.A_BOTTOM]
    moves_start[[start, bottom]] = (bottom, start)   # an involution, but moving a
    return (
        dataclasses.replace(tables, step_mid=wide),
        dataclasses.replace(tables, step_vert=tables.step_vert.astype(np.int64)),
        dataclasses.replace(tables, mid_class=tables.mid_class[:-1]),
        dataclasses.replace(tables, mid_class=tables.mid_class[::-1]),
        dataclasses.replace(tables, start_dir=2),
        dataclasses.replace(tables, n_surface=0),
        dataclasses.replace(tables, mirror_class=mirror[:-1]),
        dataclasses.replace(tables, mirror_class=mirror.astype(np.int64)),
        dataclasses.replace(tables, mirror_class=out_of_range),
        dataclasses.replace(tables, mirror_class=cycle),
        dataclasses.replace(tables, mirror_class=moves_start),
    )


def test_c_kernel_rejects_malformed_tables(c_kernel):
    tables = en.build_tables(dm.build_trapezoid(1, 2))
    for bad in _malformed_tables(tables):
        with pytest.raises(ValueError):
            c_kernel.tally_class(bad, 4)
    with pytest.raises(ValueError):
        c_kernel.tally_class(tables, -1)


@pytest.mark.parametrize("entry, args, want", [
    ("bridges", (None,), [[], [], [("L", "R"), ("R", "L")]]),
    ("bridges", (True,), [[], [], [("L", "R"), ("R", "L")]]),
    ("bridges", (False,), [[], [], []]),
    ("bridge_counts", (), [[[0]], [[0, 0]], [[0, 0, 0], [0, 0, 2]]]),
    ("stickbreak_sweep", (), [(0, 0, 0, 0, None)] * 2 + [(2, 2, 2, 0, None)]),
], ids=["bridges", "irreducible_bridges", "reducible_bridges", "bridge_counts",
        "stickbreak_sweep"])
def test_c_bridge_entry_checks_max_len(c_kernel, entry, args, want):
    """The bridge entries take only max_len, checked before any walk: a
    negative one or one too large for the vertex grid raises ValueError,
    and one that is not an int TypeError.  want is the result at max_len
    0, 1 and 2: below two steps there is no bridge, and at two there are
    the two minimal ones, irreducible, each with two diamond points."""
    def call(max_len):
        got = getattr(c_kernel, entry)(max_len, *args)
        return got.tolist() if isinstance(got, np.ndarray) else got

    for bad in (-1, 10**6, 2**31 - 1):
        with pytest.raises(ValueError, match="max_len"):
            call(bad)
    for bad in (4.0, "4", None):
        with pytest.raises(TypeError):
            call(bad)
    assert [call(n) for n in (0, 1, 2)] == want


def test_c_spectral_radius_rejects_malformed_matrices(c_kernel):
    """Every length, format and index is checked before the first
    matvec: a malformed matrix raises and never reads out of bounds, and
    the start vector keeps its values."""
    M = sp._float_matrix(sp.build_transfer(2), 0.5, 1.0)
    start = np.full(M.n, 1.0 / M.n)
    wide = M.col.copy()
    wide[-1] = M.n
    negative = M.row.copy()
    negative[0] = -1
    read_only = start.copy()
    read_only.flags.writeable = False
    for row, col, w, v in (
        (M.row.astype(np.int32), M.col, M.w, start),
        (M.row, M.col.astype(np.int32), M.w, start),
        (M.row, wide, M.w, start),
        (negative, M.col, M.w, start),
        (M.row, M.col, M.w, start[:-1]),   # the last state is some cell's column
        (M.row[:-1], M.col, M.w, start),
        (M.row, M.col[:-1], M.w, start),
        (M.row, M.col, M.w[:-1], start),
        (M.row, M.col, M.w.astype(np.float32), start),
        (M.row, M.col, M.w, read_only),
        (M.row, M.col, M.w, start[::-1]),
        (M.row, M.col, M.w, start.tolist()),
    ):
        with pytest.raises((ValueError, TypeError)):
            c_kernel.spectral_radius(row, col, w, v, sp.RADIUS_TOL, 100)
    assert (start == 1.0 / M.n).all()
    # one step settles nothing: no radius, and start is left as it was
    assert c_kernel.spectral_radius(M.row, M.col, M.w, start, sp.RADIUS_TOL, 1) is None
    assert (start == 1.0 / M.n).all()


LONG_MAX = 2 ** (8 * ctypes.sizeof(ctypes.c_long) - 1) - 1


def test_c_walk_facts_rejects_malformed_walks(c_kernel):
    """A malformed walk raises and never gets a class: turns that are
    not a tuple of 'L'/'R' strings, a start that is no mid-edge or a
    heading that does not traverse it, and coordinates a C long cannot
    hold along the walk."""
    for args, exc in (
        ((0, 0, 0, ["R", "L"]), TypeError),
        ((0, 0, 0, "RL"), TypeError),
        ((0, 0, 0, ("R", 1)), TypeError),
        ((0, 0, 0, ("R", b"L")), TypeError),
        ((0, 0, 0, ("R", "X")), ValueError),
        ((0, 0, 0, ("R", "LR")), ValueError),
        ((0, 0, 1, ("R",)), ValueError),
        ((0, 0, 6, ("R",)), ValueError),
        ((0, 0, -3, ("R",)), ValueError),
        ((1, 0, 0, ("R",)), ValueError),
        ((LONG_MAX + 1, 0, 0, ("R",)), OverflowError),
        ((0, -LONG_MAX - 2, 0, ("R",)), OverflowError),
        ((LONG_MAX - 3, 0, 0, ("R",)), OverflowError),
        ((0, 12 * (LONG_MAX // 12), 0, ("R", "L")), OverflowError),
    ):
        with pytest.raises(exc):
            c_kernel.walk_facts(*args)
    # the empty walk is self-avoiding and has no class
    assert c_kernel.walk_facts(0, 0, 0, ()) == (True, None, None, None)
    # far from the origin, but inside the range, a walk keeps its facts
    for turns in (("R", "L"), ("R", "L", "L", "R"), ("R", "R", "R"), ("R",) * 6):
        far = c_kernel.walk_facts(4 * (LONG_MAX // 16), -12 * (LONG_MAX // 48), 0, turns)
        assert far == c_kernel.walk_facts(0, 0, 0, turns) == tuple(Walk(turns=turns).facts)


def _first_use_cells(src, dst, end, n):
    """(slot, row, col, end): the distinct (src, dst, end) triples of the
    transitions numbered in order of their first transition, the slot of
    each transition, and each cell's row, column and end."""
    ends = len(transfer_oracle.END_KINDS)
    cell, first, inverse = np.unique((src * n + dst) * ends + end,
                                     return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cell = cell[order]
    return rank[inverse], cell // ends // n, cell // ends % n, cell % ends


@pytest.mark.parametrize("T", range(1, 9), ids=lambda T: f"{T}-top")
def test_c_transfer_matches_pure(c_kernel, T):
    """Same layout, state codes, numbering and transitions, array for
    array, and the kernel's cells are the first-use numbering."""
    for name in ("T_MAX", "FLAG_SHIFT", "END_KINDS"):
        assert getattr(c_kernel, name) == getattr(transfer_oracle, name), name
    codes, src, dst, xpow, ypow, end = transfer_oracle.transfer(T)
    got = c_kernel.transfer(T)
    assert len(got) == 7 and all(a.dtype == np.int64 for a in got)
    k_codes, k_slot, k_xpow, k_ypow, k_row, k_col, k_end = got
    for a, b in ((k_codes, codes), (k_xpow, xpow), (k_ypow, ypow),
                 (k_row[k_slot], src), (k_col[k_slot], dst), (k_end[k_slot], end)):
        assert b.dtype == np.int64 and a.shape == b.shape and (a == b).all()
    cells = _first_use_cells(src, dst, end, len(codes))
    for a, b in zip((k_slot, k_row, k_col, k_end), cells):
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


@pytest.mark.parametrize("args", [(0,), (11,), (-1,), (1000,)])
def test_transfer_rejects_bad_arguments(c_kernel, args):
    """Heights outside 1..T_MAX."""
    for kernel in (c_kernel, transfer_oracle):
        with pytest.raises(ValueError):
            kernel.transfer(*args)


def _brute_force_saws(domain, n_max):
    """(turns, end, prev, contacts, winding) of every self-avoiding walk
    of length <= n_max inside the domain, from all 2**n turn sequences."""
    out = []
    for n in range(n_max + 1):
        for turns in walk_oracle.iter_turn_sequences(n):
            w = Walk(turns=turns)
            if (w.facts.self_avoiding and all(v in domain.vertices for v in w.vertices)
                    and all(m in domain.mids for m in w.mids)):
                contacts = sum(1 for v in w.vertices if v in domain.surface)
                prev = w.mids[-2] if n else None
                out.append((turns, w.end, prev, contacts, turns.count("L") - turns.count("R")))
    return out


@pytest.mark.parametrize(
    "domain",
    [dm.build_trapezoid(1, 1), dm.build_trapezoid(1, 2), dm.build_rectangle(2, 1),
     dm.build_strip_prefix(1, 3)],
    ids=lambda d: f"{d.kind}-{d.T}-{d.L}",
)
def test_iter_saws_matches_brute_force(domain):
    n_max = min(7, domain.max_reliable_len or 7)
    got = [(v.turns, v.end, v.prev, v.contacts, v.winding)
           for v in en.iter_saws(domain, max_len=n_max)]
    assert sorted(got) == sorted(_brute_force_saws(domain, n_max))
    assert len(set(got)) == len(got)


@pytest.mark.parametrize(
    "domain",
    [dm.build_trapezoid(1, 2), dm.build_trapezoid(2, 1), dm.build_rectangle(2, 2)],
    ids=lambda d: f"{d.kind}-{d.T}-{d.L}",
)
def test_kernels_agree(domain):
    """class_histogram agrees with the turn-sequence brute force, a
    reference that shares no code with either depth-first search."""
    n_max = 10
    hist = en.class_histogram(domain, n_max)
    ref = np.zeros_like(hist)
    for turns, end, _, contacts, _ in _brute_force_saws(domain, n_max):
        ref[dm.CLASS_ID[domain.boundary[end]], len(turns), contacts] += 1
    assert (hist == ref).all()


def test_histogram_matches_generator():
    """Cut at every max_len, class_histogram is the iter_saws histogram
    cut at the same length."""
    domain = dm.build_trapezoid(1, 2)
    full = en.class_histogram(domain)
    ref = np.zeros_like(full)
    for visit in en.iter_saws(domain):
        ref[dm.CLASS_ID[domain.boundary[visit.end]], visit.length, visit.contacts] += 1
    assert (full == ref).all()
    for m in range(full.shape[1]):
        assert (en.class_histogram(domain, m) == ref[:, : m + 1]).all()


def test_iter_saws_basics():
    domain = dm.build_trapezoid(1, 1)
    visits = list(en.iter_saws(domain))
    # one empty walk, at the start mid-edge, with no predecessor
    empties = [v for v in visits if v.length == 0]
    assert len(empties) == 1 and empties[0].end == (0, 0)
    assert empties[0].prev is None
    # every walk is self-avoiding by construction: set sizes match lengths
    for v in visits:
        assert len(v.walk.mids) == v.length + 1
        assert len(v.vertices) == v.length
    # exactly two walks of length 1 (left and right turn at the first vertex)
    assert sum(1 for v in visits if v.length == 1) == 2


def test_truncation_guard():
    domain = dm.build_strip_prefix(2, 2)
    assert domain.max_reliable_len == 4
    en.class_histogram(domain, max_len=4)
    with pytest.raises(TruncationError):
        en.class_histogram(domain, max_len=5)
    with pytest.raises(TruncationError):
        en.class_histogram(domain)  # default max_len exceeds the cap


def test_loop_enumeration():
    # T=2 trapezoid: tall enough to hold hexagonal faces
    domain = dm.build_trapezoid(2, 2)
    loops = en.enumerate_loops(domain)
    assert loops, "domain should contain at least one hexagon"
    for lp in loops:
        assert lp.length == len(lp.vertices) >= 6
        assert lp.contacts == sum(1 for v in lp.vertices if v in domain.surface)
    # hexagons are the shortest cycles
    assert min(lp.length for lp in loops) == 6
    big = dm.build_trapezoid(3, 4)
    assert len(big.vertices) > en.LOOP_VERTEX_CAP
    with pytest.raises(CapacityError):
        en.enumerate_loops(big)


def test_loop_tallies_reduce_to_plain():
    domain = dm.build_trapezoid(1, 2)
    plain = en.boundary_tallies(domain)
    dressed = en.boundary_tallies(domain, with_loops=True)
    for cls, tally in plain.items():
        undecorated = {
            k: v for k, v in dressed[cls].items() if k[2] == 0
        }
        assert undecorated == tally


def test_evaluate_tally_exact_vs_float():
    domain = dm.build_trapezoid(1, 1)
    tallies = en.boundary_tallies(domain)
    ce = constants(0, "dilute")
    cf = constants(0.0, "dilute", mode="float")
    for y_exact, y_float in [(1, 1.0), (Fraction(3, 2), 1.5)]:
        for cls in (dm.B_TOP, dm.E_RIGHT):
            ve = en.evaluate_tally(tallies[cls], ce, y_exact)
            vf = en.evaluate_tally(tallies[cls], cf, y_float)
            assert abs(ve.to_float() - vf) < 1e-12


def _brute_force_observable(saws, consts, y):
    """sum x_c^len * y^contacts * phase(winding) over the walks, keyed by
    (end, penultimate mid), walk by walk."""
    yv = consts.surface_weight(y)
    out: dict = {}
    for turns, end, prev, contacts, wind in saws:
        term = consts.x_c ** len(turns) * yv**contacts * consts.phase(wind)
        out[(end, prev)] = out[(end, prev)] + term if (end, prev) in out else term
    return out


@pytest.mark.parametrize("T,L,walks,longest", [(1, 2, 23, 6), (2, 1, 167, 14)])
def test_observable_f_matches_brute_force(T, L, walks, longest):
    domain = dm.build_trapezoid(T, L)
    # one step past the longest walk, to show that none is missed
    saws = _brute_force_saws(domain, longest + 1)
    assert len(saws) == walks and max(len(s[0]) for s in saws) == longest
    ce = constants(0, "dilute")
    for y in (1, Fraction(3, 2)):
        got = en.observable_f(domain, ce, y)
        assert got == _brute_force_observable(saws, ce, y)
        cf = constants(0.0, "dilute", mode="float")
        fl = en.observable_f(domain, cf, float(y))
        assert fl.keys() == got.keys()
        assert all(abs(fl[k] - v.to_complex()) < 1e-12 for k, v in got.items())


def test_half_plane_zigzag_bound():
    # the zigzag touching the surface at every other vertex, first one
    # included, has (n+1)//2 contacts, the most of any length-n walk, so
    # C_n(y) >= y^((n+1)//2) at every y > 0
    counts = en.half_plane_counts(18)
    for n in range(1, 19):
        assert max(i for ln, i in counts if ln == n) == (n + 1) // 2
        for y in (Fraction(1, 3), Fraction(2)):
            total = sum(c * y**i for (ln, i), c in counts.items() if ln == n)
            assert total >= y ** ((n + 1) // 2)


@pytest.mark.parametrize("N", [5, 6, 13, 14])
def test_half_plane_counts_against_direct_dfs(N):
    counts = en.half_plane_counts(N)
    # oracle: a tall bottom-surface strip prefix is the half-plane for
    # walks this short; count by hand from the generator
    domain = dm.build_strip_prefix(N, (N + 1) // 2 + 1, surface="bottom")
    ref: dict = {}
    for visit in en.iter_saws(domain, max_len=N):
        if visit.length and domain.boundary[visit.end] == dm.A_BOTTOM:
            continue
        key = (visit.length, visit.contacts)
        ref[key] = ref.get(key, 0) + 1
    assert counts == ref


def test_total_weight_is_positive_exact():
    domain = dm.build_trapezoid(1, 1)
    tallies = en.boundary_tallies(domain)
    c = constants(0, "dilute")
    total = sum(
        (en.evaluate_tally(t, c, 1) for t in tallies.values()),
        start=ONE * 0,
    )
    assert total.sign() == 1
