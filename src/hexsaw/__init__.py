"""hexsaw: exact identities for the honeycomb O(n) loop model with a
surface fugacity, verified by exhaustive enumeration at desk scale."""

from .cyclo import Cyclo48
from .model import ModelConstants, constants
from .lattice import Walk, classify_walk
from .domains import Domain, build_rectangle, build_strip_prefix, build_trapezoid
from .enumeration import (
    backend_name,
    boundary_tallies,
    enumerate_loops,
    half_plane_counts,
    iter_saws,
    observable_f,
)
from .identity import check_global_rectangle, check_global_trapezoid, check_local
from .strip import (
    MU_BULK,
    build_transfer,
    check_bounds,
    check_strip_identity,
    growth_mu,
    solve_yT,
    strip_gf,
)
from .bridges import (
    diamond_points,
    height_width,
    irreducible_factors,
    kesten_partial,
    renewal_points,
    sample_renewal,
    stickbreak,
)

__version__ = "0.1.0"

__all__ = [
    "Cyclo48",
    "ModelConstants",
    "constants",
    "Walk",
    "classify_walk",
    "Domain",
    "build_trapezoid",
    "build_rectangle",
    "build_strip_prefix",
    "boundary_tallies",
    "enumerate_loops",
    "iter_saws",
    "observable_f",
    "half_plane_counts",
    "backend_name",
    "check_local",
    "check_global_trapezoid",
    "check_global_rectangle",
    "MU_BULK",
    "build_transfer",
    "check_bounds",
    "check_strip_identity",
    "growth_mu",
    "solve_yT",
    "strip_gf",
    "diamond_points",
    "height_width",
    "irreducible_factors",
    "kesten_partial",
    "renewal_points",
    "sample_renewal",
    "stickbreak",
]
