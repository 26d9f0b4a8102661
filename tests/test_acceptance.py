"""Acceptance gate: the twelve headline checks of the package.

Each test prints one PASS/FAIL line (also visible as the pytest verdict
for the correspondingly numbered test).
"""

import math
from fractions import Fraction

import numpy as np
from hexsaw import bridges as br
from hexsaw import domains as dm
from hexsaw import identity as idn
from hexsaw import strip as sp
from hexsaw.cyclo import ONE
from hexsaw.lattice import classify_walk
from hexsaw.model import constants

Y_STAR = 1 + math.sqrt(2)


def report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_trapezoid_identity_exact():
    """Boundary identity on trapezoids, both regimes, exact zero."""
    checked = 0
    for regime, ys in (("dilute", (1, Fraction(3, 2), 2)),
                       ("dense", (1, Fraction(1, 2)))):
        c = constants(0, regime)
        for T in (1, 2):
            for L in (1, 2, 3):
                for y in ys:
                    rep = idn.check_global_trapezoid(T, L, c, y)
                    assert rep.exact_zero, (regime, T, L, y)
                    checked += 1
    report(1, checked == 30, f"{checked} trapezoid identities exactly zero")


def test_criterion_02_local_identity_with_surface():
    """Vertex identity, surface correction included, on D(1, 2) at y=1."""
    c = constants(0, "dilute")
    domain = dm.build_trapezoid(1, 2)
    rep = idn.check_local(domain, c, 1)
    n_surface = sum(1 for v in rep.residuals if v in domain.surface)
    ok = rep.exact_zero and n_surface == len(domain.surface) > 0
    report(2, ok, f"{len(rep.residuals)} vertices ({n_surface} on the surface), "
                  "all residuals exactly zero")


def test_criterion_03_rectangle_identity_exact():
    """Boundary identity on rectangles with the slant-edge coefficients."""
    c = constants(0, "dilute")
    assert abs(c.eps_plus.to_float() - math.cos(math.pi / 8)) < 1e-15
    assert abs(c.eps_minus.to_float() - math.cos(math.pi / 4)) < 1e-15
    oks = []
    for T, L in ((2, 2), (3, 2)):
        rep = idn.check_global_rectangle(T, L, c)
        oks.append(rep.exact_zero)
    report(3, all(oks), "R(2,2) and R(3,2) identities exactly zero")


def test_criterion_04_general_n_with_loops():
    """Float-mode identity with loop configurations for n in {-1, 1, 2}."""
    domain = dm.build_trapezoid(1, 2)
    assert len(domain.vertices) <= 40
    worst = 0.0
    for n in (-1.0, 1.0, 2.0):
        c = constants(n, "dilute", mode="float")
        rep = idn.check_local(domain, c, 1.0, with_loops=True)
        worst = max(worst, rep.max_abs)
    report(4, worst < 1e-9, f"max |residual| = {worst:.3e} over n in {{-1, 1, 2}}")


def test_criterion_05_strip_identity_exact():
    """alpha*A_T + beta(y)*B_T = 1 exactly in the strip."""
    cases = [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1), (4, 2)]
    oks = []
    for T, y in cases:
        rep = sp.check_strip_identity(T, y, mode="exact")
        oks.append(rep.exact_zero)
    report(5, all(oks), f"exact zero for (T, y) in {cases}")


def test_criterion_06_critical_fugacity_sequence():
    """y_1 > y_2 > y_3 > y_4 > 1 + sqrt(2), with one sign change of
    mu_T(1, y) - mu on a 100-point grid for each T."""
    ys = [sp.solve_yT(T, tol=1e-6) for T in (1, 2, 3, 4)]
    decreasing = all(a > b for a, b in zip(ys, ys[1:]))
    margins = [y - Y_STAR for y in ys]
    above = all(m > 1e-9 for m in margins)
    x_c = 1.0 / sp.MU_BULK
    grid = np.linspace(1.0, 7.0, 100)
    changes = []
    for T in (1, 2, 3, 4):
        op = sp.build_transfer(T)
        sign = [sp._spectral_radius(sp._float_matrix(op, x_c, y)) - 1.0 < 0
                for y in grid]
        changes.append(sum(1 for a, b in zip(sign, sign[1:]) if a != b))
    ok = decreasing and above and all(c == 1 for c in changes)
    report(6, ok, f"y_T = {[round(y, 6) for y in ys]}, "
                  f"min margin {min(margins):.3e}, sign changes {changes}")


def test_criterion_07_bridge_decay():
    """B_1 > B_2 > B_3 > B_4 > 0 with the exact complement identity
    (T = 1..4, and T = 4 again in float);
    the log-log slope against T is reported, not asserted."""
    c = constants(0, "dilute")
    bs = []
    for T in (1, 2, 3):
        a = sp.strip_gf(T, 1, "arch", mode="exact").value
        b = sp.strip_gf(T, 1, "bridge", mode="exact").value
        assert ONE - c.coeff_a * a == b          # beta(1) = 1
        bs.append(b.to_float())
    a4 = sp.strip_gf(4, 1, "arch", mode="float").value
    b4 = sp.strip_gf(4, 1, "bridge", mode="float").value
    assert abs(1.0 - c.coeff_a.to_float() * a4 - b4) < 1e-9
    bs.append(b4)
    a4_exact = sp.strip_gf(4, 1, "arch", mode="exact").value
    b4_exact = sp.strip_gf(4, 1, "bridge", mode="exact").value
    assert ONE - c.coeff_a * a4_exact == b4_exact
    assert abs(b4_exact.to_float() - b4) < 1e-10
    decreasing = all(x > y for x, y in zip(bs, bs[1:])) and bs[-1] > 0
    slope = np.polyfit(np.log(np.arange(1, 5)), np.log(bs), 1)[0]
    report(7, decreasing,
           f"B_T = {[round(b, 6) for b in bs]}; log-log slope {slope:.4f} "
           "(reference exponent -1/4; not asserted)")


def test_criterion_08_inequality_suite():
    """Exact sign decisions for the finite-T inequality suite."""
    rep = sp.check_bounds(3, y_grid=(1, Fraction(3, 2), 2), mode="exact")
    report(8, rep["ok"], f"{len(rep['checks'])} exact inequalities hold")


def test_criterion_09_transfer_equals_dfs():
    """Transfer-operator series equal direct enumeration, all y powers."""
    ok = True
    total = 0
    for T in (1, 2, 3):
        op = sp.build_transfer(T)
        got = sp.series_counts(op, 14, kind="walk")
        ref = {(0, 0): 1}
        top_row = 3 * T - 1
        for w in br.iter_strip_walks(T, 14):
            ct = sum(1 for _, v in w.vertices if v == top_row)
            key = (len(w), ct)
            ref[key] = ref.get(key, 0) + 1
        ok &= got == ref
        total += sum(ref.values())
    report(9, ok, f"T = 1..3, length <= 14: {total} walks, "
                  "coefficientwise equality")


def test_criterion_10_kesten_partial_sums():
    """Truncated irreducible-bridge sums increase and stay below 1;
    the length-4 census behind the weight 2 x_c^4."""
    vals = [br.kesten_partial(N).partial_sum_float for N in (4, 8, 12, 16)]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    below = all(v < 1 for v in vals)
    # exactly two length-4 bridges return to the column of a (two
    # stacked minimal bridges each, hence weight 2 x_c^4), and exactly
    # two irreducible length-4 bridges (the side-stepping ones)
    len4 = [b for b in br.iter_bridges(4) if len(b) == 4]
    straight = [b for b in len4 if b.end[0] == 0]
    stacked = all(
        br.irreducible_factors(b).heights == (Fraction(1), Fraction(1))
        for b in straight
    )
    irr4 = [b for b in len4 if br.is_irreducible(b)]
    census = len(straight) == 2 and stacked and len(irr4) == 2
    report(10, increasing and below and census,
           f"partial sums {[round(v, 4) for v in vals]}; "
           "length-4 census as expected")


def test_criterion_11_stickbreak_sweep():
    """Every diamond-point pair of every bridge up to length 10 yields a
    two-step-longer bridge whose rotated middle is suitably wide."""
    pairs = 0
    ok = True
    for b in br.iter_bridges(10):
        d = br.diamond_points(b)
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                out = br.stickbreak(b, i, j)
                seg = br.rotated_segment(b, i, j)
                span = Fraction(b.mids[d[j]][1] - b.mids[d[i]][1], 6)
                ok &= (
                    classify_walk(out) == "bridge"
                    and len(out) == len(b) + 2
                    and br.height_width(seg)[1] >= span / 2
                )
                pairs += 1
    report(11, ok and pairs > 0, f"{pairs} perturbations checked")


def test_criterion_12_strip_growth_rates():
    """mu_T(1, 1) increases in T and stays below sqrt(2 + sqrt 2)."""
    mus = [sp.growth_mu(T, 1).mu for T in (1, 2, 3, 4)]
    errs = [sp.growth_mu(T, 1).error for T in (1, 2, 3, 4)]
    increasing = all(b - a > 1e-8 for a, b in zip(mus, mus[1:]))
    bounded = all(m < sp.MU_BULK - 1e-8 for m in mus)
    precise = all(e < 1e-8 for e in errs)
    report(12, increasing and bounded and precise,
           f"mu_T = {[round(m, 8) for m in mus]} < {sp.MU_BULK:.8f}")
