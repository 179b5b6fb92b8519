"""Normal-approximation bound certificates for Poisson U-statistics.

Simulates Poisson point processes on boxes, evaluates U-statistics and
their Malliavin-type operators pathwise, integrates the bound terms M_ij
over contraction classes of partitions, and compares the resulting
Kolmogorov and Wasserstein bound values against exact or empirical
distances to the standard normal.
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
from .chaos import (
    MCValue,
    kernel_empirical,
    variance_from_kernels,
    wiener_ito_I1,
)
from .distance import empirical_dK, empirical_dW, poisson_exact_dK
from .kernels import (
    SymmetricKernel,
    make_constant,
    make_count,
    make_geometric_indicator,
    make_kernel,
    make_product,
    symmetry_check,
)
from .measure import (
    IntensitySpec,
    NumericalError,
    PointConfiguration,
    mc_integral,
    replication_rng,
    sample_point_process,
)
from .partitions import count_partitions, enumerate_partitions
from .stein import check_stein_properties, g, g_prime, normal_cdf
from .ustat import (
    UStatValue,
    add_one_cost,
    evaluate,
    inverse_ou_pathwise,
    iterated_difference,
)

__version__ = "0.1.0"
