"""The benchmark's workloads: hexsaw CLI job lists made from a seed, and
the reference values their reports are checked against.

The seed picks two distinct surface weights Y1, Y2 and the sampler
seed.  Every weight is below y_6 ~ 2.71, so every strip series the jobs
sum converges.  Job cost depends somewhat on the weights, so compare two
commits on the same seeds.

Reference values were computed with hexsaw 0.1.0 (pure-Python kernel)
and agree with its test oracles where those reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WEIGHTS = ("3/2", "5/3", "7/4", "9/5", "2", "11/5")

# Float identities sum O(100) terms of size O(1); 1e-11 is a wide
# rounding budget for that, and far below any real failure.
FLOAT_RESIDUAL_TOL = 1e-11
# solve_yT bisects to 1e-8; growth_mu bisects x to machine precision.
Y_T_TOL = 1e-7
MU_T_TOL = 1e-9
KESTEN_TOL = 1e-12

# y_T for T = 1..6 (y* = 1 + sqrt(2) ~ 2.4142 is the common lower bound)
Y_T_REF = (3.414213562373095, 3.0448154972661206, 2.8922313886025393,
           2.8063090141919664, 2.750306675518633, 2.710513243925555)
# mu_T(1, y) for T = 1..6
MU_T_REF = {
    "3/2": (1.224744871391589, 1.4581918778665401, 1.5742888497758074,
            1.6395904000456163, 1.6809676709230463, 1.7093997212314085),
    "5/3": (1.2909944487358056, 1.5017792051743395, 1.6043339293792584,
            1.6617910747416902, 1.698143456409517, 1.7231227089305479),
    "7/4": (1.3228756555322954, 1.5234375988377575, 1.6196484522123278,
            1.6733476037894157, 1.707253949034784, 1.7305275931418895),
    "9/5": (1.341640786499874, 1.5363904351492907, 1.6289325296060335,
            1.6804319788759663, 1.7128943114993316, 1.735153461470427),
    "2": (1.4142135623730951, 1.5878852939695083, 1.6667861056343516,
          1.7099293915660123, 1.736820368659994, 1.7551123348500763),
    "11/5": (1.4832396974191329, 1.6388609061110644, 1.7057600257385144,
             1.7413270244232102, 1.7630498808065624, 1.7775886003176902),
}
# truncated Kesten sums over irreducible bridges of length <= N
KESTEN_REF = {4: 0.7573593128807143, 8: 0.8223304703363112,
              12: 0.8602999588361513, 16: 0.8799518807500135}
MEAN_HEIGHT_N14 = 1.0494847446927758
# half-plane walks of length n = 0..18
HALF_PLANE_REF = (1, 2, 4, 6, 12, 22, 44, 76, 144, 262, 500, 892, 1688, 3054,
                  5756, 10410, 19564, 35506, 66588)
STICKBREAK_REF = {"bridges": 986, "pairs_checked": 8722, "failures": 0}
# walks the kernel visits on the trapezoids D(T, L)
WALKS_D34 = 4_633_583
WALKS_D42 = 4_658_995


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its JSON report must pass."""

    argv: tuple
    check: Callable[[dict], str | None]
    # walks the kernel must visit; only a traced run can see this
    walks: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _exact(rep):
    r = rep["results"]
    if r.get("mode") != "exact" or r.get("exact_zero") is not True:
        return f"exact residual not zero: {r}"
    return None


def _float_residual(rep):
    r = rep["results"]
    if r.get("mode") != "float" or not abs(r["max_abs_residual"]) <= FLOAT_RESIDUAL_TOL:
        return f"float residual over {FLOAT_RESIDUAL_TOL}: {r}"
    return None


def _bounds(rep):
    checks = rep["results"]["checks"]
    # Tmax = 3 and a 3-point grid: 2*2 monotonicity + 2*3 bound + 3*3*2 grid
    if len(checks) != 28 or not all(c["ok"] for c in checks):
        return f"bounds: {len(checks)} checks, failing {[c for c in checks if not c['ok']]}"
    return None


def _close_rows(rows, key, ref, tol, what):
    got = [row[key] for row in rows]
    if len(got) != len(ref) or any(abs(g - r) > tol for g, r in zip(got, ref)):
        return f"{what} {got} differs from {list(ref)} by more than {tol}"
    return None


def _y_seq(rep):
    return _close_rows(rep["results"]["rows"], "y_T", Y_T_REF, Y_T_TOL, "y_T")


def _strip_mu(y):
    def check(rep):
        return _close_rows(rep["results"]["rows"], "mu_T", MU_T_REF[y], MU_T_TOL, "mu_T")
    return check


def _kesten(rep):
    rows = rep["results"]["rows"]
    ref = [KESTEN_REF[row["N"]] for row in rows]
    return _close_rows(rows, "kesten_partial", ref, KESTEN_TOL, "Kesten sums")


def _stickbreak(rep):
    r = rep["results"]
    got = {k: r.get(k) for k in STICKBREAK_REF}
    return None if got == STICKBREAK_REF else f"stickbreak {got} != {STICKBREAK_REF}"


def _sample(seed):
    def check(rep):
        r = rep["results"]
        if (r["seed"] != seed or r["factors"] != 20 or r["renewal_points"] != 21
                or abs(r["expected_factor_height"] - MEAN_HEIGHT_N14) > KESTEN_TOL):
            return f"sampler report {r}"
        return None
    return check


def _half_plane(rep):
    got = tuple(row["walks"] for row in rep["results"]["rows"])
    return None if got == HALF_PLANE_REF else f"half-plane walks {got}"


def draw(seed: int) -> tuple[str, str, int]:
    """(Y1, Y2, sampler seed) for a workload seed."""
    rng = random.Random(seed)
    y1, y2 = rng.sample(WEIGHTS, 2)
    return y1, y2, rng.randrange(1_000_000)


def jobs(workload: str, seed: int) -> list[Job]:
    y1, y2, sseed = draw(seed)
    if workload == "domain":
        return [
            Job(("verify-local", "--T", "2", "--L", "3", "--y", y1), _exact),
            Job(("verify-global", "--T", "3", "--L", "4", "--y", y2), _exact,
                walks=WALKS_D34),
            Job(("verify-global", "--T", "4", "--L", "2", "--y", y1, "--mode", "float"),
                _float_residual, walks=WALKS_D42),
            Job(("verify-rectangle", "--T", "3", "--L", "3", "--n", "1", "--mode", "float",
                 "--with-loops"), _float_residual),
        ]
    if workload == "strip-exact":
        return [
            Job(("bounds", "--Tmax", "3", "--y-grid", f"1,{y1},{y2}"), _bounds),
            Job(("strip-identity", "--T", "3", "--y", y2), _exact),
        ]
    if workload == "strip-float":
        return [
            Job(("y-seq", "--Tmax", "6"), _y_seq),
            Job(("strip-mu", "--Tmax", "6", "--y", y1), _strip_mu(y1)),
            Job(("strip-identity", "--T", "6", "--y", y2), _float_residual),
        ]
    if workload == "bridges":
        return [
            Job(("kesten", "--N", "4,8,12,16"), _kesten),
            Job(("stickbreak-sweep", "--max-len", "14"), _stickbreak),
            Job(("sample", "--N", "14", "--k", "20", "--seed", str(sseed)), _sample(sseed)),
            Job(("half-plane", "--N", "18", "--y", y1), _half_plane),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("domain", "strip-exact", "strip-float", "bridges")
# every subcommand some workload runs, for the cli.<subcommand>.wall_s metrics
SUBCOMMANDS = tuple(dict.fromkeys(j.command for w in WORKLOADS for j in jobs(w, 0)))
