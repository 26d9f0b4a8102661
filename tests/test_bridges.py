"""Renewal structure, Kesten partial sums, diamond points, unfolding,
prime-arch factorization and the stickbreak perturbation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import arch_lemmas
import walk_oracle
from hexsaw import bridges as br
from hexsaw import domains as dm
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
from mp_oracle import eval_mp

X_C = ONE / two_cos(3)


def test_height_width_examples():
    # the shortest bridge: one left-right pair, height 1, width 1/2
    b = Walk(turns=("R", "L"))
    assert br.height_width(b) == (Fraction(1), Fraction(1, 2))
    mirror = Walk(b.start, (-b.heading) % 6, tuple("R" if t == "L" else "L" for t in b.turns))
    assert br.height_width(mirror) == br.height_width(b)
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


def test_kesten_partials_count_once(monkeypatch):
    """Rows from one count at the largest N equal per-N kesten_partial
    rows exactly, and that count is one pass of the kernel's bridge
    enumerator, with no strip histogram."""
    Ns = [4, 8, 12, 16, 5, 2, 16]
    want = [br.kesten_partial(N) for N in Ns]
    calls = {"counts": 0, "kernel": 0, "histograms": 0}
    counts, kernel_counts, histogram = (
        br.bridge_height_length_counts, br._kernel.bridge_counts, en.class_histogram)

    def counted(key, f):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(br, "bridge_height_length_counts", counted("counts", counts))
    monkeypatch.setattr(br._kernel, "bridge_counts", counted("kernel", kernel_counts))
    monkeypatch.setattr(en, "class_histogram", counted("histograms", histogram))
    assert br.kesten_partials(Ns) == want
    assert calls == {"counts": 1, "kernel": 1, "histograms": 0}
    with pytest.raises(InvalidParameterError, match="N >= 2"):
        br.kesten_partials([30, 1])   # checked before anything is counted
    with pytest.raises(InvalidParameterError, match="truncation N"):
        br.kesten_partials([])


def test_kesten_float_at_N26(monkeypatch):
    """Past N_CAP, at N = 26, the exactly real Kesten sum converts to a
    float within one ulp of a 60-digit evaluation."""
    monkeypatch.setattr(br, "N_CAP", 26)
    stats = br.kesten_partial(26)
    want = float(eval_mp(stats.partial_sum).real)
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


def test_iter_bridges_guard():
    """The bridge generator behind stickbreak-sweep and the sampler's
    pool stops at N_CAP, as the counts do: each +2 in length costs about
    3x the time."""
    with pytest.raises(CapacityError, match="capped"):
        next(br.iter_bridges(br.N_CAP + 1))
    assert len(next(br.iter_bridges(br.N_CAP))) <= br.N_CAP  # the cap itself runs


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


def _strip_prefix_counts(N):
    """counts[height, length] of the bridges of at most N steps, counted
    as the walks of each height-h strip prefix that end on its top line
    (class B): one class_histogram search per height."""
    counts = np.zeros((N // 2 + 1, N + 1), dtype=np.int64)
    top = dm.CLASS_ID[dm.B_TOP]
    for h in range(1, N // 2 + 1):
        strip = dm.build_strip_prefix(h, dm.prefix_size(N))
        counts[h] = en.class_histogram(strip, N)[top].sum(axis=1)
    return counts


@pytest.mark.parametrize("N", list(range(17)) + [20])
def test_kernel_bridge_counts_match_strip_prefix_histograms(N):
    """The bridge enumerator's (height, length) counts, from its own
    lattice walk, equal the class-B histograms of the strip prefixes."""
    assert (br._kernel.bridge_counts(N) == _strip_prefix_counts(N)).all()


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


@pytest.fixture(scope="module")
def classified_half_plane_walks():
    """(turns, irreducible) of every half-plane walk of at most 16 steps,
    in depth-first order: irreducible is None for a walk that is not a
    bridge.  Depth-first order puts the left turn first at every branch,
    so cut at any shorter length it is that length's own order."""
    return [(w.turns, br.is_irreducible(w) if classify_walk(w) == "bridge" else None)
            for w in br.iter_half_plane_walks(16)]


@pytest.mark.parametrize("irreducible", [None, True, False])
def test_iter_bridges_matches_classify_filter(classified_half_plane_walks, irreducible):
    for N in range(17):
        ref = [t for t, irr in classified_half_plane_walks
               if len(t) <= N and irr is not None
               and (irreducible is None or irr == irreducible)]
        assert [b.turns for b in br.iter_bridges(N, irreducible)] == ref, N


def test_iter_bridges_runs_no_python_walk_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iter_saws called")

    monkeypatch.setattr(en, "iter_saws", refuse)
    assert sum(1 for _ in br.iter_bridges(12)) == sum(
        c for (_, n), c in br.bridge_height_length_counts(12).items())


def test_bridge_paths_skip_classify_walk(monkeypatch):
    """Kesten sums read kernel counts only, and iter_bridges builds a
    Walk for the bridges it yields, not for every half-plane walk, each
    through the trusted constructor (no ``__post_init__`` re-check)."""
    calls = {"classify": 0, "walks": 0, "trusted": 0}
    classify = lattice.classify_walk
    post_init = Walk.__post_init__
    from_kernel = Walk._from_kernel

    def counted_classify(w):
        calls["classify"] += 1
        return classify(w)

    def counted_post_init(self):
        calls["walks"] += 1
        post_init(self)

    def counted_from_kernel(cls, turns):
        calls["trusted"] += 1
        return from_kernel(turns)

    monkeypatch.setattr(lattice, "classify_walk", counted_classify)
    monkeypatch.setattr(Walk, "__post_init__", counted_post_init)
    monkeypatch.setattr(Walk, "_from_kernel", classmethod(counted_from_kernel))
    br.kesten_partial(12)
    assert calls == {"classify": 0, "walks": 0, "trusted": 0}
    yielded = sum(1 for _ in br.iter_bridges(12))
    assert calls == {"classify": 0, "walks": 0, "trusted": yielded}


def test_trusted_walks_equal_checked_walks():
    """A bridge built by the trusted constructor equals, hashes as and
    has the facts of the same turns through the public constructor."""
    n = 0
    for b in br.iter_bridges(12):
        w = Walk(turns=b.turns)
        assert type(b) is Walk and b == w and hash(b) == hash(w)
        assert (b.start, b.heading, b.turns) == (w.start, w.heading, w.turns)
        assert type(b.turns) is tuple and type(b.start) is tuple
        assert b.facts == w.facts
        assert b.mids == w.mids and b.vertices == w.vertices
        n += 1
    assert n == sum(br.bridge_height_length_counts(12).values())


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


def _assert_points_match_oracle(b):
    assert br.renewal_points(b) == walk_oracle.renewal_points(b), b.turns
    assert br.diamond_points(b) == walk_oracle.diamond_points(b), b.turns


def test_bridge_points_match_oracle_up_to_16():
    n = 0
    for b in br.iter_bridges(16):
        _assert_points_match_oracle(b)
        n += 1
    assert n > 5000


def test_bridge_points_match_oracle_on_long_concatenations():
    """Concatenations of irreducible bridges, 200 steps or more: the
    renewal points are the seams, and the diamond points are the
    oracle's.  Sideways factors push the walk out of every double cone,
    so every other walk favours the two straight 2-step factors."""
    pool = list(br.iter_bridges(10, irreducible=True))
    rng = random.Random(19)
    with_diamonds = 0
    for trial in range(200):
        weights = [20 if trial % 2 and len(f) == 2 else 1 for f in pool]
        factors = []
        while sum(len(f) for f in factors) < 200:
            factors += rng.choices(pool, weights)
        b = br.concat_bridges(factors)
        _assert_points_match_oracle(b)
        seams = [0]
        for f in factors:
            seams.append(seams[-1] + len(f))
        assert br.renewal_points(b) == seams
        with_diamonds += len(br.diamond_points(b)) >= 2
    assert with_diamonds > 40


def test_diamond_points_match_quadratic_oracle_on_sampled_bridges():
    """The kernel's linear-time diamond rule (running extremes of
    v +- 3u before and after each mid-edge) picks the mid-edges that the
    oracle's all-pairs double-cone test picks, on sampled bridges of more
    than a thousand steps."""
    found = 0
    for seed in range(5):
        b, _ = br.sample_renewal(14, 400, seed)
        assert len(b) > 1000
        d = br.diamond_points(b)
        assert d == walk_oracle.diamond_points(b), seed
        found += len(d)
    assert found > 50


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


@pytest.fixture(scope="module")
def python_sweeps():
    """The Python sweep's counts at every max_len 2..14 and at 16."""
    return {N: walk_oracle.stickbreak_sweep(N) for N in list(range(2, 15)) + [16]}


def test_stickbreak_sweep_matches_python_loop(python_sweeps):
    """The kernel's sweep counts what the loop over Walks counts: the
    bridges, those with two diamond points, the pairs and the failures."""
    for N, ref in python_sweeps.items():
        assert br.stickbreak_sweep(N) == ref, N
    assert python_sweeps[14][:4] == (2532, 986, 8722, 0)


def test_stickbreak_sweep_at_the_cap():
    assert br.stickbreak_sweep(br.N_CAP) == (86382, 28078, 288150, 0, None)


def test_stickbreak_sweep_guard():
    """The sweep refuses what iter_bridges refuses; below 2 steps there is
    no bridge."""
    with pytest.raises(InvalidParameterError, match="max_len"):
        br.stickbreak_sweep(-1)
    with pytest.raises(CapacityError, match="capped"):
        br.stickbreak_sweep(br.N_CAP + 1)
    assert br.stickbreak_sweep(0) == br.stickbreak_sweep(1) == (0, 0, 0, 0, None)


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
        for turns in walk_oracle.iter_turn_sequences(n):
            w = Walk(turns=turns)
            if not w.facts.self_avoiding:
                continue
            u = arch_lemmas.unfold(w)
            assert len(u) == len(w)
            assert u.facts.self_avoiding
            # start minimal, end maximal in x over all vertices
            us = [2 * x for x, _ in u.vertices]
            assert all(u.start[0] <= x <= u.end[0] for x in us)
            # fixpoint
            assert arch_lemmas.unfold(u) == u


def test_unfold_guard():
    with pytest.raises(ClassificationError):
        arch_lemmas.unfold(Walk(turns=("R",) * 6))


def test_wavy_column_arch():
    for T in (1, 2, 3, 4):
        w = arch_lemmas.wavy_column_arch(T)
        assert len(w) == 4 * T - 1
        assert arch_lemmas.is_unfolded_arch(w)
        assert arch_lemmas.arch_seams(w) == []  # prime
        assert sum(1 for _, v in set(w.vertices) if v == 1) == 2
        assert max(v for _, v in w.vertices) == 3 * T - 1


def test_prime_factor_roundtrip():
    count = 0
    for w in br.iter_strip_walks(2, 11):
        if not arch_lemmas.is_unfolded_arch(w):
            continue
        factors = arch_lemmas.prime_arch_factors(w)
        assert all(arch_lemmas.is_unfolded_arch(f) for f in factors)
        assert all(not arch_lemmas.arch_seams(f) for f in factors)
        assert arch_lemmas.concat_arches(factors) == Walk(turns=w.turns)
        count += 1
    assert count > 10


@pytest.mark.parametrize("T", [1, 2])
def test_prime_arch_series_identity(T):
    rep = arch_lemmas.check_prime_arch_series(T, 13)
    assert rep["ok"], (rep["full"], rep["rebuilt"])


def test_sampler_deterministic_and_renewed():
    b1, rep1 = br.sample_renewal(8, 5, 7)
    b2, rep2 = br.sample_renewal(8, 5, 7)
    assert b1 == b2 and rep1 == rep2
    assert classify_walk(b1) == "bridge"
    # the construction forces at least the k+1 seams to be renewals
    assert rep1["renewal_points"] >= 5 + 1
    assert rep1["height"] == sum(
        int(h) for h in br.irreducible_factors(b1).heights
    )
    b3, _ = br.sample_renewal(8, 5, 8)
    assert b3 != b1


@pytest.mark.parametrize("N", [8, 14])
def test_sampler_expected_height_from_its_pool(N):
    """The sampler's expected factor height is the mean height of
    Kesten's truncated sum at the same N, the distribution its pool is
    drawn from."""
    _, rep = br.sample_renewal(N, 1, 0)
    assert rep["expected_factor_height"] == br.kesten_partial(N).mean_height_float


@pytest.mark.parametrize("seed, height, turns", [
    (0, 21, "RLLLRLLRRLRRLRRLLRLRRLLRRLLRLRRLRRLLRLLRRLRLLRRRLLRRLRLLRLRRLL"),
    (1, 22, "LLRRRLRRLRRLLLLRRLLRLRRRRLLLRLLRRLRLLLRRLLRLRRRLLRRLLLRLRLRLRRLRRLLRRRLLRRLLLLRLRR"),
    (7, 20, "LRLRRLLLRRRLLRLLRRRLLLRLRRLRLLRRLLRRLRRLLLRRLRRLRRLLRLLR"),
])
def test_sampler_pins(seed, height, turns):
    """The draws of ``sample --N 14 --k 20``, turn for turn: the pool's
    order and weights fix them, so a change to either shows here."""
    bridge, rep = br.sample_renewal(14, 20, seed)
    assert "".join(bridge.turns) == turns
    assert (rep["height"], rep["length"]) == (height, len(turns))
    assert rep["renewal_points"] == 21


@pytest.mark.parametrize("seed", range(5))
def test_sampler_height_width_fold_matches_trace(seed):
    """The report folds each factor's height and U range over the draws;
    on the whole traced bridge, height_width gives the same values."""
    bridge, rep = br.sample_renewal(14, 400, seed)
    height, width = br.height_width(bridge)
    assert (rep["height"], rep["width"]) == (int(height), str(width))
    assert rep["mean_factor_height"] == int(height) / 400


def test_sampler_guards():
    with pytest.raises(InvalidParameterError):
        br.sample_renewal(4, 0, 1)
    with pytest.raises(InvalidParameterError, match="N >= 2"):
        br.sample_renewal(1, 2, 1)
    with pytest.raises(CapacityError):
        br.sample_renewal(br.N_CAP + 1, 1, 1)
