"""Local and global observable identities on finite domains.

The local identity: at the critical step weight, for every vertex v off
the weighted surface,

    (p - v) F(p) + (q - v) F(q) + (r - v) F(r) = 0,

with p, q, r the three adjacent mid-edges.  At a surface vertex the
left-hand side instead equals a boundary correction built from walks
that reach the mid-edge above v via its lower-left (q) or lower-right
(r) mid-edge:

    (q-v)(1-y)(x_c y lam)^-1 * S_q  +  (r-v)(1-y)(x_c y conj(lam))^-1 * S_r.

Summing over all vertices telescopes interior contributions away and
yields one global boundary identity, A° = sum over boundary classes c
of w_c * c, with the weights

    A -> alpha,  B -> beta(y),  E, EBAR, E- -> coeff_e,  E+ -> eps_plus

in both regimes.  A trapezoid has the classes A, B, E and EBAR; a
rectangle has A, B, E+ and E- and no weighted surface, so its identity
is the same one at y = 1, where beta(1) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import domains as dm
from . import enumeration as en
from . import lattice
from .errors import InvalidParameterError
from .model import ModelConstants


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of an identity check, with an overall verdict."""

    kind: str
    mode: str
    params: dict
    residuals: dict
    max_abs: float
    exact_zero: bool

    @property
    def ok(self) -> bool:
        return self.exact_zero if self.mode == "exact" else self.max_abs < 1e-9


def check_local(
    domain: dm.Domain,
    consts: ModelConstants,
    y,
    with_loops: bool = False,
) -> ResidualReport:
    """Verify the vertex identity at every vertex of the domain."""
    yv = consts.surface_weight(y)
    F_via = en.observable_f(domain, consts, y, with_loops=with_loops)
    F: dict = {}
    for (end, _), val in F_via.items():
        F[end] = F[end] + val if end in F else val
    zero = consts.one() * 0
    half = consts.one() / 2
    residuals = {}
    for v in sorted(domain.vertices):
        lhs = zero
        for h, (du, dv) in enumerate(lattice.HEADING_STEPS):
            m = (2 * v[0] + du, 2 * v[1] + dv)
            if m in domain.mids:
                lhs = lhs + half * consts.direction(h) * F.get(m, zero)
        if v in domain.surface:
            rhs = _surface_rhs(domain, consts, yv, F_via, v, half, zero)
        else:
            rhs = zero
        residuals[v] = lhs - rhs
    return _report("local", consts, {"y": str(y)}, residuals)


def _surface_rhs(domain, consts, yv, F_via, v, half, zero):
    if lattice.vertex_type(*v) != "Y":
        raise InvalidParameterError(f"surface vertex {v} is not up-pointing")
    u, w = v
    p = (2 * u, 2 * w + 2)       # heading 0
    q = (2 * u - 1, 2 * w - 1)   # heading 4, lower-left
    r = (2 * u + 1, 2 * w - 1)   # heading 2, lower-right
    one_minus_y = consts.one() - yv
    lam = consts.lam
    lam_bar = lam.conjugate()
    s_q = F_via.get((p, q), zero)
    s_r = F_via.get((p, r), zero)
    term_q = (
        half * consts.direction(4) * one_minus_y
        * s_q / (consts.x_c * yv * lam)
    )
    term_r = (
        half * consts.direction(2) * one_minus_y
        * s_r / (consts.x_c * yv * lam_bar)
    )
    return term_q + term_r


def _report(kind, consts, params, residuals) -> ResidualReport:
    return ResidualReport(
        kind=kind,
        mode=consts.mode,
        params={"n": str(consts.n), "regime": consts.regime, **params},
        residuals=residuals,
        max_abs=max((consts.magnitude(v) for v in residuals.values()), default=0.0),
        exact_zero=consts.mode == "exact" and not any(residuals.values()),
    )


def _check_global(kind, build, T, L, consts, y, with_loops, params) -> ResidualReport:
    """A° - sum of w_c * c over the boundary classes c of ``build(T, L)``;
    a class the domain lacks has the value 0."""
    e = consts.coeff_e
    weights = {dm.A_BOTTOM: consts.coeff_a, dm.B_TOP: consts.beta(y),  # beta checks y first
               dm.E_RIGHT: e, dm.E_LEFT: e, dm.E_MINUS: e, dm.E_PLUS: consts.eps_plus}
    # at n = 0 every loop term is 0: no loop search, whatever the domain size
    tallies = en.boundary_tallies(build(T, L), with_loops=with_loops and consts.n != 0)
    residual = en.evaluate_tally(tallies[dm.A_START], consts, y)
    for cls, w in weights.items():
        residual = residual - w * en.evaluate_tally(tallies[cls], consts, y)
    return _report(kind, consts, {"T": T, "L": L, **params}, {"global": residual})


def check_global_trapezoid(
    T: int,
    L: int,
    consts: ModelConstants,
    y,
    with_loops: bool = False,
) -> ResidualReport:
    """A° = alpha*A + beta(y)*B + coeff_e*(E + EBAR) on the trapezoid D(T, L)."""
    return _check_global("global-trapezoid", dm.build_trapezoid, T, L, consts, y,
                         with_loops, {"y": str(y)})


def check_global_rectangle(
    T: int,
    L: int,
    consts: ModelConstants,
    with_loops: bool = False,
) -> ResidualReport:
    """A° = alpha*A + B + eps_plus*E+ + coeff_e*E- on the rectangle R(T, L).

    The rectangle has no weighted surface: its identity is the
    trapezoid's at y = 1, where beta(1) = 1.
    """
    return _check_global("global-rectangle", dm.build_rectangle, T, L, consts, 1,
                         with_loops, {})
