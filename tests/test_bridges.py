"""Renewal structure, Kesten partial sums, diamond points, unfolding,
prime-arch factorization and the stickbreak perturbation."""

import math
from fractions import Fraction

import pytest

from hexsaw import bridges as br
from hexsaw import enumeration as en
from hexsaw import lattice
from hexsaw import strip as sp
from hexsaw.cyclo import ONE, ZERO, two_cos
from hexsaw.errors import (
    CapacityError,
    ClassificationError,
    InvalidParameterError,
)
from hexsaw.lattice import Walk, classify_walk

X_C = ONE / two_cos(3)


def test_height_width_examples():
    # the shortest bridge: one left-right pair, height 1, width 1/2
    b = Walk(turns=("R", "L"))
    assert br.height_width(b) == (Fraction(1), Fraction(1, 2))
    assert br.height_width(b.reflect()) == br.height_width(b)
    tall = Walk(turns=("R", "L", "L", "R"))
    assert br.height_width(tall) == (Fraction(2), Fraction(1, 2))


def test_height_integer_width_half_integer_for_bridges():
    for b in br.iter_bridges(8):
        h, w = br.height_width(b)
        assert h.denominator == 1 and h >= 1
        assert (2 * w).denominator == 1 and w > 0


def test_half_plane_walks_match_kernel_counts():
    for N in range(13):
        per_length: dict = {}
        for w in br.iter_half_plane_walks(N):
            per_length[len(w)] = per_length.get(len(w), 0) + 1
        ref: dict = {}
        for (n, _), c in en.half_plane_counts(N).items():
            if n:
                ref[n] = ref.get(n, 0) + c
        assert per_length == ref, N


def test_renewal_points_against_subwalk_oracle():
    """An interior index is a renewal point iff both halves are bridges."""
    for b in br.iter_bridges(9):
        got = set(br.renewal_points(b))
        n = len(b)
        expect = {0, n}
        for i in range(1, n):
            pre, suf = b.subwalk(0, i), b.subwalk(i, n)
            try:
                if classify_walk(pre) == "bridge" and classify_walk(suf) == "bridge":
                    expect.add(i)
            except ClassificationError:
                pass
        assert got == expect, b.turns


def test_decomposition_invariants():
    for b in br.iter_bridges(9):
        dec = br.irreducible_factors(b)
        assert all(br.is_irreducible(f) for f in dec.factors)
        assert sum(dec.heights) == br.height_width(b)[0]
        assert br.concat_bridges(dec.factors) == Walk(turns=b.turns)


def test_concat_requires_bridges():
    with pytest.raises(ClassificationError):
        br.concat_bridges([Walk(turns=("R",))])


def test_smallest_bridges_and_kesten_n2():
    two_step = list(br.iter_bridges(2))
    assert len(two_step) == 2
    assert all(br.is_irreducible(b) for b in two_step)
    # partial sum at N = 2 is exactly 2 x_c^2
    s = br.kesten_partial(2)
    assert s.partial_sum == 2 * X_C**2
    assert abs(s.partial_sum_float - 0.5857864376269049) < 1e-12


def test_length4_bridges_split():
    """Exactly two length-4 bridges end directly above the start; both
    are reducible (two stacked minimal bridges, weight 2 x_c^4).  The
    irreducible length-4 bridges are two side-stepping ones."""
    len4 = [b for b in br.iter_bridges(4) if len(b) == 4]
    straight = [b for b in len4 if b.end == (0, 12)]
    assert sorted(b.turns for b in straight) == [
        ("L", "R", "R", "L"), ("R", "L", "L", "R")
    ]
    for b in straight:
        dec = br.irreducible_factors(b)
        assert dec.heights == (Fraction(1), Fraction(1))
    irr4 = [b for b in len4 if br.is_irreducible(b)]
    assert sorted(b.turns for b in irr4) == [
        ("L", "L", "R", "R"), ("R", "R", "L", "L")
    ]
    assert sorted(b.end for b in irr4) == [(-6, 6), (6, 6)]
    assert all(br.height_width(b)[0] == 1 for b in irr4)


def test_kesten_partials_increase_below_one():
    vals = [br.kesten_partial(N).partial_sum_float for N in (2, 4, 8, 12)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert all(v < 1 for v in vals)
    # taller irreducible bridges first appear at length 12
    assert set(h for h, _ in br.kesten_partial(12).counts) == {1, 2}
    assert set(h for h, _ in br.kesten_partial(8).counts) == {1}


def test_kesten_float_at_N26(monkeypatch):
    """Past N_CAP, at N = 26, the exactly real Kesten sum converts to a
    float within one ulp of a 60-digit evaluation."""
    monkeypatch.setattr(br, "N_CAP", 26)
    stats = br.kesten_partial(26)
    want = float(stats.partial_sum.eval_mp().real)
    assert abs(stats.partial_sum_float - want) <= math.ulp(want)
    assert 0.9 < stats.partial_sum_float < 1


def test_kesten_guard():
    with pytest.raises(CapacityError):
        br.bridge_height_length_counts(br.N_CAP + 1)
    # no bridge is shorter than 2 steps; no length is negative
    for N in (-3, 0, 1):
        with pytest.raises(InvalidParameterError, match="N >= 2"):
            br.kesten_partial(N)
    with pytest.raises(InvalidParameterError, match="max_len"):
        br.bridge_height_length_counts(-1)
    with pytest.raises(InvalidParameterError, match="max_len"):
        list(br.iter_bridges(-1))
    with pytest.raises(InvalidParameterError, match="N >= 0"):
        en.half_plane_counts(-1)
    assert br.bridge_height_length_counts(1) == {}


def _per_walk_bridge_counts(N):
    """(height, length) counts of all and of irreducible bridges, found
    by classifying every half-plane walk."""
    full: dict = {}
    irr: dict = {}
    for w in br.iter_half_plane_walks(N):
        if classify_walk(w) != "bridge":
            continue
        key = (int(br.height_width(w)[0]), len(w))
        full[key] = full.get(key, 0) + 1
        if br.is_irreducible(w):
            irr[key] = irr.get(key, 0) + 1
    return full, irr


def test_kernel_bridge_counts_match_per_walk_oracle():
    full, irr = _per_walk_bridge_counts(16)
    for N in list(range(15)) + [16]:
        def upto(counts):
            return {k: c for k, c in counts.items() if k[1] <= N}
        assert br.bridge_height_length_counts(N) == upto(full), N
        assert br.bridge_height_length_counts(N, irreducible_only=True) == upto(irr), N


@pytest.mark.parametrize("T", [1, 2, 3])
def test_kernel_bridge_counts_match_transfer_series(T):
    """Height-T bridges are the strip operator's bridge series."""
    series = sp.series_counts(sp.build_transfer(T), 14, "bridge")
    by_len: dict = {}
    for (n, _), c in series.items():
        by_len[n] = by_len.get(n, 0) + c
    counts = br.bridge_height_length_counts(14)
    assert {n: c for (h, n), c in counts.items() if h == T} == by_len


@pytest.mark.parametrize("irreducible", [None, True, False])
def test_iter_bridges_matches_classify_filter(irreducible):
    for N in range(13):
        ref = [
            w.turns for w in br.iter_half_plane_walks(N)
            if classify_walk(w) == "bridge"
            and (irreducible is None or br.is_irreducible(w) == irreducible)
        ]
        assert [b.turns for b in br.iter_bridges(N, irreducible)] == ref, N


def test_bridge_paths_skip_classify_walk(monkeypatch):
    """Kesten sums read kernel counts only, and iter_bridges builds a
    Walk for the bridges it yields, not for every half-plane walk."""
    calls = {"classify": 0, "walks": 0}
    classify = lattice.classify_walk
    post_init = Walk.__post_init__

    def counted_classify(w):
        calls["classify"] += 1
        return classify(w)

    def counted_post_init(self):
        calls["walks"] += 1
        post_init(self)

    monkeypatch.setattr(lattice, "classify_walk", counted_classify)
    monkeypatch.setattr(Walk, "__post_init__", counted_post_init)
    br.kesten_partial(12)
    assert calls == {"classify": 0, "walks": 0}
    yielded = sum(1 for _ in br.iter_bridges(12))
    assert calls == {"classify": 0, "walks": yielded}


def test_truncated_bridge_sums_bound_strip_series():
    """B_T(x_c, 1) from the strip operator exceeds its kernel-counted
    truncation at 20 steps (exact sign)."""
    counts = br.bridge_height_length_counts(20)
    for T in range(1, 5):
        truncated = ZERO
        for (h, n), c in counts.items():
            if h == T:
                truncated = truncated + c * X_C**n
        assert truncated
        assert (sp.strip_gf(T, 1, "bridge").value - truncated).sign() > 0, T


def test_renewal_consistency_rows():
    rows = br.renewal_consistency(10, 8)
    assert [r["T"] for r in rows] == list(range(1, 9))
    # the renewal sequence approaches its own truncated limit
    assert rows[-1]["gap_vT_limit"] < rows[0]["gap_vT_limit"]
    assert rows[-1]["gap_vT_limit"] < 1e-3
    # and the exact strip series stays below it (truncation discards
    # mass at every height, inflating the renewal density)
    for r in rows:
        if r["B_T"] is not None:
            assert r["B_T"] < r["renewal_limit"]


def test_diamond_points_are_renewal_points():
    seen_interior = False
    for b in br.iter_bridges(8):
        d = br.diamond_points(b)
        r = br.renewal_points(b)
        assert set(d) <= set(r)
        # a wide excursion can leave the double cone of every mid-edge,
        # so endpoints need not qualify and d may be empty
        seen_interior |= any(0 < k < len(b) for k in d)
    assert seen_interior


def test_stickbreak_properties():
    checked = 0
    for b in br.iter_bridges(8):
        d = br.diamond_points(b)
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                out = br.stickbreak(b, i, j)
                assert len(out) == len(b) + 2
                assert classify_walk(out) == "bridge"
                # outside the rotated middle the walk is untouched
                d2 = br.diamond_points(b)
                assert out.turns[: d2[i]] == b.turns[: d2[i]]
                assert out.turns[d2[j] + 2:] == b.turns[d2[j]:]
                checked += 1
    assert checked > 50


def test_rotated_segment_width_bound():
    """The rotated middle has width at least half the height it spanned
    in the original bridge."""
    for b in br.iter_bridges(8):
        d = br.diamond_points(b)
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                seg = br.rotated_segment(b, i, j)
                h_span = Fraction(b.mids[d[j]][1] - b.mids[d[i]][1], 6)
                _, w = br.height_width(seg)
                assert w >= h_span / 2


def test_stickbreak_guard():
    b = Walk(turns=("R", "L"))
    with pytest.raises(InvalidParameterError):
        br.stickbreak(b, 0, 5)
    with pytest.raises(InvalidParameterError):
        br.stickbreak(b, 1, 0)


def test_unfold_properties():
    for n in range(1, 9):
        for turns in lattice.iter_turn_sequences(n):
            w = Walk(turns=turns)
            if not w.is_self_avoiding():
                continue
            u = br.unfold(w)
            assert len(u) == len(w)
            assert u.is_self_avoiding()
            # start minimal, end maximal in x over all vertices
            us = [2 * x for x, _ in u.vertices]
            assert all(u.start[0] <= x <= u.end[0] for x in us)
            # fixpoint
            assert br.unfold(u) == u


def test_unfold_guard():
    with pytest.raises(ClassificationError):
        br.unfold(Walk(turns=("R",) * 6))


def test_wavy_column_arch():
    for T in (1, 2, 3, 4):
        w = br.wavy_column_arch(T)
        assert len(w) == 4 * T - 1
        assert br.is_unfolded_arch(w)
        assert br.arch_seams(w) == []          # prime
        assert sum(1 for _, v in set(w.vertices) if v == 1) == 2
        assert max(v for _, v in w.vertices) == 3 * T - 1


def test_prime_factor_roundtrip():
    count = 0
    for w in br.iter_strip_walks(2, 11):
        if not br.is_unfolded_arch(w):
            continue
        factors = br.prime_arch_factors(w)
        assert all(br.is_unfolded_arch(f) for f in factors)
        assert all(not br.arch_seams(f) for f in factors)
        assert br.concat_arches(factors) == Walk(turns=w.turns)
        count += 1
    assert count > 10


@pytest.mark.parametrize("T", [1, 2])
def test_prime_arch_series_identity(T):
    rep = br.check_prime_arch_series(T, 13)
    assert rep["ok"], (rep["full"], rep["rebuilt"])


def test_sampler_deterministic_and_renewed():
    cfg = br.SamplerConfig(N=8, k=5, seed=7)
    b1, rep1 = br.sample_renewal(cfg)
    b2, rep2 = br.sample_renewal(cfg)
    assert b1 == b2 and rep1 == rep2
    assert classify_walk(b1) == "bridge"
    # the construction forces at least the k+1 seams to be renewals
    assert rep1["renewal_points"] >= cfg.k + 1
    assert rep1["height"] == sum(
        int(h) for h in br.irreducible_factors(b1).heights
    )
    b3, _ = br.sample_renewal(br.SamplerConfig(N=8, k=5, seed=8))
    assert b3 != b1


def test_sampler_guards():
    with pytest.raises(InvalidParameterError):
        br.sample_renewal(br.SamplerConfig(N=4, k=0, seed=1))
    with pytest.raises(InvalidParameterError, match="N >= 2"):
        br.sample_renewal(br.SamplerConfig(N=1, k=2, seed=1))
    with pytest.raises(CapacityError):
        br.sample_renewal(br.SamplerConfig(N=br.N_CAP + 1, k=1, seed=1))
