"""hexsaw: exact identities for the honeycomb O(n) loop model with a
surface fugacity, verified by exhaustive enumeration at desk scale."""

import os
import sys

# One OpenBLAS thread, set before numpy loads OpenBLAS, which reads the
# variable once, at load.  The package's only BLAS work is the dense float
# strip solve (T <= 7), and one thread runs it as fast or faster.  On a
# 2-CPU host the default pool of one thread per CPU cost every fresh
# process about 70 ms of CPU (`python -c "import numpy"`: 0.24-0.26 s
# against 0.17-0.18 s), and after an idle spell it stalled that solve:
# check_strip_identity(6, 2) took 0.57-0.60 s after `sleep 3`, against
# 0.011-0.016 s with one thread.  A thread count the user set (OpenBLAS
# reads all three variables), or a numpy loaded before hexsaw, is kept.
if "numpy" not in sys.modules and not any(
        name in os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
