"""Strip transfer operator, growth rates and the bridge/arch identities."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hexsaw import bridges as br
from hexsaw import domains as dm
from hexsaw import enumeration as en
from hexsaw import strip as sp
from hexsaw.cyclo import ONE, ZERO, Cyclo48
from hexsaw.errors import CapacityError, InvalidParameterError, NonConvergenceError
from hexsaw.model import constants


@pytest.mark.parametrize("T", [1, 2, 3])
def test_transfer_matches_dfs(T):
    """Operator series must equal direct walk enumeration, every y power."""
    max_len = 14 if T < 3 else 12
    op = sp.build_transfer(T, "top")
    got = sp.series_counts(op, max_len, kind="walk")
    ref: dict = {(0, 0): 1}
    top_row = 3 * T - 1
    for w in br.iter_strip_walks(T, max_len):
        if len(w) == 0:
            continue
        ct = sum(1 for _, v in w.vertices if v == top_row)
        key = (len(w), ct)
        ref[key] = ref.get(key, 0) + 1
    assert got == ref


def _as_counts(hist):
    return {(n, c): int(v) for (n, c), v in np.ndenumerate(hist) if v}


@pytest.mark.parametrize("surface", ["top", "bottom"])
@pytest.mark.parametrize("T", [4, 5, 6])
def test_transfer_matches_kernel(T, surface):
    """Operator series against the DFS kernel's class histograms on a
    strip prefix long enough that no walk of length <= 20 feels the cut."""
    op = sp.build_transfer(T, surface)
    hist = en.class_histogram(dm.build_strip_prefix(T, 11, surface), 20)
    assert sp.series_counts(op, 20, "walk") == _as_counts(hist.sum(axis=0))
    assert sp.series_counts(op, 20, "arch") == _as_counts(hist[en.CLASS_ID[dm.A_BOTTOM]])
    assert sp.series_counts(op, 20, "bridge") == _as_counts(hist[en.CLASS_ID[dm.B_TOP]])


def test_transfer_sizes():
    sizes = [(8, 16), (18, 71), (44, 274), (116, 1040), (314, 4069), (868, 15994),
             (2426, 63748)]
    for T, size in enumerate(sizes, start=1):
        op = sp.build_transfer(T, "top")
        assert (op.state_count, len(op.transitions)) == size, T


def test_transfer_cache_ignores_argument_spelling():
    """The default surface and the spelled-out one share one build."""
    op = sp.build_transfer(3)
    assert op is sp.build_transfer(3, "top") is sp.build_transfer(3, surface="top")
    assert op is not sp.build_transfer(3, "bottom")


def test_transfer_arch_bridge_split():
    """Arch/bridge filtered series agree with walk classification."""
    T, max_len = 2, 12
    op = sp.build_transfer(T, "top")
    arches = sp.series_counts(op, max_len, kind="arch")
    bridges_ = sp.series_counts(op, max_len, kind="bridge")
    from hexsaw.lattice import classify_walk

    ref_a: dict = {}
    ref_b: dict = {}
    top_row = 3 * T - 1
    for w in br.iter_strip_walks(T, max_len):
        if len(w) == 0:
            continue
        cls = classify_walk(w)
        ct = sum(1 for _, v in w.vertices if v == top_row)
        key = (len(w), ct)
        if cls == "arch":
            ref_a[key] = ref_a.get(key, 0) + 1
        elif cls == "bridge" and w.end[1] == 6 * T:
            ref_b[key] = ref_b.get(key, 0) + 1
    assert arches == ref_a
    assert bridges_ == ref_b


@pytest.mark.parametrize("T", [1, 2, 3])
def test_strip_identity_exact_y1(T):
    rep = sp.check_strip_identity(T, 1)
    assert rep.mode == "exact" and rep.exact_zero


def test_strip_identity_exact_T2_y2():
    rep = sp.check_strip_identity(2, 2)
    assert rep.mode == "exact" and rep.exact_zero


def test_strip_identity_float():
    rep = sp.check_strip_identity(sp.T_CAP_EXACT + 1, 1)
    assert rep.mode == "float" and rep.max_abs < 1e-9


def test_exact_vs_float_gf():
    for kind in ("arch", "bridge", "walk"):
        e = sp.strip_gf(2, 1, kind, mode="exact")
        f = sp.strip_gf(2, 1, kind, mode="float")
        assert isinstance(e.value, Cyclo48)
        assert abs(e.value.to_float() - f.value) < 1e-10


def test_exact_gf_values_T1():
    """T=1 closed forms, derivable by hand from the two-state column walk."""
    a = sp.strip_gf(1, 1, "arch").value
    b = sp.strip_gf(1, 1, "bridge").value
    c = constants(0, "dilute")
    # alpha*A + beta(1)*B = 1 with beta(1) = 1
    assert c.coeff_a * a + b == ONE
    # B_1(x_c, 1): bridges in a height-1 strip are single vertical
    # crossings dressed by horizontal excursions
    assert b.sign() == 1 and (ONE - b).sign() == 1


def _gauss(A, b):
    """Dense exact Gaussian elimination over the field."""
    m = len(A)
    A = [list(row) for row in A]
    b = list(b)
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


def _gauss_solve(m, r, c, v, b):
    """The sector solver interface over the dense oracle: (I - B) u = b."""
    A = np.full((m, m), ZERO)
    A[r, c] = -v
    A.flat[:: m + 1] += ONE
    return _gauss(A, b)


def _exact_z(op, kind, y, solve):
    w = sp._exact_weights(op, constants(0, "dilute").x_c, Cyclo48.from_rational(y), kind)
    return sp._sector_solve(op, kind, w, ONE, solve)


@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_markowitz_solve_matches_dense_gauss(T):
    """Sparse elimination in Markowitz order gives the dense oracle's
    exact resolvent, state by state."""
    op = sp.build_transfer(T, "top")
    for kind in ("arch", "bridge", "walk"):
        for y in (1, Fraction(7, 4), 2):
            got = _exact_z(op, kind, y, sp._markowitz_solve)
            want = _exact_z(op, kind, y, _gauss_solve)
            assert list(got) == list(want), (kind, y)


@pytest.mark.parametrize("kind", ["arch", "bridge"])
def test_exact_T5_resolvent_certificate(kind):
    """(I - M) z = sink holds exactly at T = 5, row by row in every flag
    sector, with I - M rebuilt from the operator's cells and transitions."""
    op = sp.build_transfer(5, "top")
    y = Fraction(7, 4)
    z = _exact_z(op, kind, y, sp._markowitz_solve)
    keep, slot, row, col = op.cells[kind]
    x_c, yc = constants(0, "dilute").x_c, Cyclo48.from_rational(y)
    w = [ZERO] * len(row)
    for k, i, j in zip(slot.tolist(), op.xpow[keep].tolist(), op.ypow[keep].tolist()):
        w[k] = w[k] + x_c**i * yc**j
    lhs = list(z)
    for i, j, wk in zip(row.tolist(), col.tolist(), w):
        lhs[i] = lhs[i] - wk * z[j]
    sinks = set(op.sinks)
    for sector in sp._SECTOR_ORDER:
        rows = [i for i, st in enumerate(op.states) if st[1:3] == sector]
        assert rows, sector
        assert all(lhs[i] == (ONE if i in sinks else ZERO) for i in rows), sector
    assert any(z[s] for s in op.sources)


@pytest.mark.parametrize("y", [1, Fraction(7, 4)])
def test_strip_identity_exact_T5(y):
    rep = sp.check_strip_identity(5, y)
    assert rep.mode == "exact" and rep.exact_zero


def test_exact_vs_float_gf_T5():
    for kind in ("arch", "bridge", "walk"):
        e = sp.strip_gf(5, 1, kind, mode="exact")
        f = sp.strip_gf(5, 1, kind, mode="float")
        assert e.mode == "exact" and isinstance(e.value, Cyclo48)
        assert abs(e.value.to_float() - f.value) < 1e-12, kind


def test_markowitz_solve_refuses_a_zero_pivot():
    """I - B singular on the diagonal: the series diverges, and the pivot
    is not skipped."""
    one = np.array([ONE], dtype=object)
    with pytest.raises(sp.DivergenceError, match="zero pivot"):
        sp._markowitz_solve(1, np.array([0]), np.array([0]), one, one)
    # a 2-cycle of weight 1: the first diagonal pivot is 1, its Schur
    # complement 1 - 1 = 0
    with pytest.raises(sp.DivergenceError, match="zero pivot"):
        sp._markowitz_solve(2, np.array([0, 1]), np.array([1, 0]),
                            np.array([ONE, ONE], dtype=object), np.array([ONE, ZERO], dtype=object))


def test_growth_mu_monotone_and_bounded():
    mus = [sp.growth_mu(T, 1).mu for T in (1, 2, 3, 4)]
    assert all(m2 > m1 for m1, m2 in zip(mus, mus[1:]))
    assert all(m < sp.MU_BULK for m in mus)
    assert abs(mus[0] - 1.0) < 1e-9  # T=1, y=1 walks grow linearly


def _series_ratio_mu(op, y, N=36):
    """mu_T from the exact series: two-step ratios (the counts wobble
    with period 2), with the geometric tail accelerated by one Aitken
    step; returns (mu, error)."""
    c = [0.0] * (N + 1)
    for (n, k), cnt in sp.series_counts(op, N).items():
        c[n] += cnt * y**k
    est = [math.sqrt(c[n] / c[n - 2]) for n in range(N - 5, N + 1)]
    r0, r1, r2 = est[-5], est[-3], est[-1]
    denom = (r2 - r1) - (r1 - r0)
    mu = r2 - (r2 - r1) ** 2 / denom if abs(denom) > 1e-15 else r2
    return mu, max(abs(mu - r2), 1e-12) * 2


def test_growth_methods_agree():
    e = sp.growth_mu(2, 1)
    mu, error = _series_ratio_mu(sp.build_transfer(2, "top"), 1.0)
    assert abs(e.mu - mu) < 3 * error


def test_surface_side_counts():
    """Moving the weighted row cannot change the total number of walks,
    only how contacts are distributed; in a height-1 strip the rows
    alternate, fixing the contact count per length on each side."""
    for T in (1, 2):
        top = sp.series_counts(sp.build_transfer(T, "top"), 10)
        bottom = sp.series_counts(sp.build_transfer(T, "bottom"), 10)
        for n in range(11):
            assert sum(c for (ln, _), c in top.items() if ln == n) == sum(
                c for (ln, _), c in bottom.items() if ln == n
            )
    t1_top = sp.series_counts(sp.build_transfer(1, "top"), 9)
    t1_bot = sp.series_counts(sp.build_transfer(1, "bottom"), 9)
    assert all(ct == n // 2 for (n, ct) in t1_top)
    assert all(ct == (n + 1) // 2 or n == 0 for (n, ct) in t1_bot)


def test_solve_yT_sequence():
    ys = [sp.solve_yT(T, tol=1e-7) for T in (1, 2, 3, 4)]
    assert ys[0] == pytest.approx(sp.MU_BULK**2, abs=1e-9)
    assert all(a > b for a, b in zip(ys, ys[1:]))
    y_star = 1 + 2**0.5
    assert all(y > y_star for y in ys)


def _dense_from_transitions(op, x, y, kind="walk"):
    """M(x, y) straight from the transition list, as an independent oracle."""
    M = np.zeros((op.state_count, op.state_count))
    for si, sj, xp, yp, ek in op.transitions:
        if ek is None or ek in sp._KINDS[kind]:
            M[si, sj] += x**xp * y**yp
    return M


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 6])
def test_float_strip_gf_matches_dense_solve(T):
    """The flag-sector block solve against one dense solve of I - M."""
    op = sp.build_transfer(T, "top")
    sink = np.zeros(op.state_count)
    sink[list(op.sinks)] = 1.0
    for kind in ("arch", "bridge", "walk"):
        for y in (1, 2):
            M = _dense_from_transitions(op, 1.0 / sp.MU_BULK, float(y), kind)
            z = np.linalg.solve(np.eye(op.state_count) - M, sink)
            want = z[list(op.sources)].sum() + (kind == "walk")
            got = sp.strip_gf(T, y, kind, mode="float").value
            assert got == pytest.approx(want, rel=1e-12), (kind, y)


def test_float_strip_gf_never_forms_the_whole_matrix():
    """The float solve's memory stays below one dense n x n matrix."""
    op = sp.build_transfer(7, "top")
    tracemalloc.start()
    try:
        sp.strip_gf.__wrapped__(7, 1, "bridge", mode="float")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < op.state_count**2 * 8


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_spectral_radius_matches_dense_eigvals(T):
    """Matrix-free power iteration against LAPACK eigenvalues."""
    op = sp.build_transfer(T, "top")
    x_c = 1.0 / sp.MU_BULK
    for x, y in ((x_c, 1.0), (x_c, 2.5), (0.6, 0.5), (0.45, 3.0)):
        want = max(abs(np.linalg.eigvals(_dense_from_transitions(op, x, y))))
        got = sp._spectral_radius(sp._float_matrix(op, x, y))
        assert got == pytest.approx(want, rel=1e-10), (x, y)


@pytest.mark.parametrize("T", [1, 2, 3, 4, 5])
def test_warm_spectral_radius_matches_dense_eigvals(T):
    """Each radius starts from the last iterate of the radius before, at
    a different (x, y), and still matches LAPACK."""
    op = sp.build_transfer(T, "top")
    x_c = 1.0 / sp.MU_BULK
    points = ((x_c, 1.0), (x_c, 2.5), (0.6, 0.5), (0.45, 3.0))
    v = np.full(op.state_count, 1.0 / op.state_count)
    sp._spectral_radius(sp._float_matrix(op, *points[-1]), start=v)
    for x, y in points:
        start = v.copy()
        want = max(abs(np.linalg.eigvals(_dense_from_transitions(op, x, y))))
        got = sp._spectral_radius(sp._float_matrix(op, x, y), start=v)
        assert got == pytest.approx(want, rel=1e-10), (x, y)
        assert not np.array_equal(v, start)  # v now holds this radius' iterate


def test_spectral_radius_nonconvergence():
    op = sp.build_transfer(3, "top")
    with pytest.raises(NonConvergenceError):
        sp._spectral_radius(sp._float_matrix(op, 1.0 / sp.MU_BULK, 2.0), iters=1)


def test_float_values_T5_T6():
    """Regression values where only the float transfer layer reaches."""
    assert sp.solve_yT(5) == pytest.approx(2.750306675518633, abs=1e-7)
    assert sp.solve_yT(6) == pytest.approx(2.710513243925555, abs=1e-7)
    assert sp.solve_yT(7) == pytest.approx(2.680571227716606, abs=1e-7)
    rep = sp.check_strip_identity(6, 2, mode="float")
    assert rep.mode == "float" and rep.max_abs <= 1e-11


def _counting_radius(monkeypatch):
    calls = []
    real = sp._spectral_radius
    monkeypatch.setattr(sp, "_spectral_radius",
                        lambda M, **kw: calls.append(M) or real(M, **kw))
    return calls


def _cold_bisection(op, weights, lo, hi, halvings):
    """Halve [lo, hi] around the root of (spectral radius of
    M(*weights(t))) - 1, every radius from the uniform vector."""
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        if sp._spectral_radius(sp._float_matrix(op, *weights(mid))) - 1.0 < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("T", [2, 3, 4, 5])
def test_growth_mu_bisection_stops_when_interval_cannot_shrink(T, monkeypatch):
    """The root search runs x to adjacent floats and agrees with 60
    cold-start halvings, in fewer than 30 spectral radii."""
    op = sp.build_transfer(T, "top")
    lo, hi = _cold_bisection(op, lambda x: (x, 1.75), 0.15, 1.25, halvings=60)
    calls = _counting_radius(monkeypatch)
    est = sp.growth_mu(T, Fraction(7, 4))
    assert est.error <= 2 * math.ulp(1.0)
    assert abs(est.mu - 2.0 / (lo + hi)) <= est.error + 1e-12 * est.mu
    assert len(calls) < 30


def test_growth_mu_T1_stops_on_exact_root(monkeypatch):
    """At T=1 the secant lands on mu_1 = sqrt(y) exactly and the search
    stops there instead of bisecting to adjacent floats.  Below y = 1 the
    root x = 1/sqrt(y) lies past x = 1."""
    calls = _counting_radius(monkeypatch)
    # 1, the perfbench weights, and weights below 1
    for y in ("1", "3/2", "5/3", "7/4", "9/5", "2", "11/5", "1/2", "63/100", "1/10"):
        calls.clear()
        est = sp.growth_mu(1, Fraction(y))
        assert len(calls) <= 5, y
        assert abs(est.mu - math.sqrt(Fraction(y))) <= 1e-12, y


@pytest.mark.parametrize("T", [2, 3, 4, 5, 6])
def test_growth_mu_upper_end_is_above_root(T):
    """mu_T(1, y) > max(1, sqrt(y)) for T >= 2, so the upper bracket end
    x = 1/max(1, sqrt(y)) has spectral radius above 1."""
    op = sp.build_transfer(T, "top")
    for y in (0.5, 1.0, 1.5, 2.0, 2.2):
        hi = 1.0 / max(1.0, math.sqrt(y))
        assert sp._spectral_radius(sp._float_matrix(op, hi, y)) > 1.0, y


@pytest.mark.parametrize("T", [2, 3, 4, 5])
def test_solve_yT_matches_cold_bisection(T, monkeypatch):
    """y_T within tol of a cold-start bisection to the same tol, in at
    most 12 spectral radii."""
    tol = 1e-8
    lo, hi = 1.0, sp.MU_BULK**2
    lo, hi = _cold_bisection(sp.build_transfer(T, "top"), lambda y: (1.0 / sp.MU_BULK, y),
                             lo, hi, math.ceil(math.log2((hi - lo) / tol)))
    assert hi - lo <= tol
    calls = _counting_radius(monkeypatch)
    assert abs(sp.solve_yT(T, tol) - 0.5 * (lo + hi)) <= tol
    assert len(calls) <= 12


def test_convergence_guard_runs_once_per_T_and_y(monkeypatch):
    calls = _counting_radius(monkeypatch)
    y = Fraction(21, 10)
    rep = sp.check_strip_identity(3, y, mode="float")
    assert rep.ok and len(calls) == 1
    with pytest.raises(sp.DivergenceError):
        sp.strip_gf(1, Fraction(17, 2), "arch")
    with pytest.raises(sp.DivergenceError):
        sp.strip_gf(1, Fraction(17, 2), "bridge")
    assert len(calls) == 2


def test_divergence_guard():
    with pytest.raises(sp.DivergenceError):
        sp.strip_gf(1, 8, "walk")


def test_guards():
    with pytest.raises(CapacityError):
        sp.build_transfer(sp.T_CAP_FLOAT + 1)
    with pytest.raises(CapacityError):
        sp.strip_gf(sp.T_CAP_EXACT + 1, 1, "walk", mode="exact")
    with pytest.raises(InvalidParameterError):
        sp.strip_gf(1, 1, "spiral")
    with pytest.raises(InvalidParameterError):
        sp.growth_mu(1, 0)
    # heights below 1 are bad input, not a capacity limit
    for T in (0, -2):
        with pytest.raises(InvalidParameterError, match="T >= 1"):
            sp.build_transfer(T)
        with pytest.raises(InvalidParameterError, match="T >= 1"):
            sp.strip_gf(T, 1, "bridge")
    with pytest.raises(InvalidParameterError, match="Tmax >= 1"):
        sp.check_bounds(0)


def test_check_bounds_small():
    rep = sp.check_bounds(2, y_grid=(1, Fraction(3, 2)))
    assert rep["ok"]
    names = {c["check"] for c in rep["checks"]}
    assert "B_1 > B_2" in names
    assert any(n.startswith("inverse-bridge-bound") for n in names)
    for c in rep["checks"]:
        assert c["margin"] >= -1e-12
