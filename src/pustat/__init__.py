"""Normal-approximation bound certificates for Poisson U-statistics.

Simulates Poisson point processes on boxes, evaluates U-statistics and
their add-one costs D_z F and -D_z L^{-1}F pathwise, integrates Var F and
the bound terms M_ij over contraction classes of chaos kernels, and
compares the resulting Kolmogorov and Wasserstein bound values against
exact or empirical distances to the standard normal.  The operator
identities these rest on (D^n F, empirical chaos kernels, pathwise I_1 and
-L^{-1}F) are test oracles in tests/oracles.py, not package code.
"""

from ._accel import BACKEND
from .bounds import (
    BoundReport,
    SteinTerms,
    bound_report,
    compute_Mij,
    dk_bound,
    dw_bound,
    estimate_Rij,
    estimate_stein_terms,
    fourth_moment_bound,
)
from .chaos import MCValue, variance_from_kernels
from .distance import empirical_dK, empirical_dW, poisson_exact_dK
from .kernels import (
    SymmetricKernel,
    make_constant,
    make_count,
    make_geometric_indicator,
    make_kernel,
    make_product,
)
from .measure import (
    IntensitySpec,
    NumericalError,
    PointConfiguration,
    mc_integral,
    sample_point_process,
)
from .partitions import count_partitions, enumerate_partitions
from .stein import check_stein_properties, g, g_prime, normal_cdf
from .ustat import add_one_costs, evaluate

__version__ = "0.1.0"
