"""Simulation of Brownian exit times and exit positions from spheres.

Walk on moving spheres, classical walk on spheres (with exit times by CDF
inversion or precomputed tables), a naive Euler baseline, the underlying
hitting-time mathematics, and a benchmark harness.
"""

from .specfun import BesselIndex, bessel_i, bessel_j, bessel_zero, log_gamma
from .samplers import (
    RNG_ALGORITHM,
    RngStream,
    sample_inverse_gaussian,
    sample_tau_psi,
    sample_unit_direction,
)
from .bessel_hitting import (
    MovingBoundary,
    SpectralSeriesCache,
    hitting_pdf,
    laplace_transform,
    psi,
    tail_spectral,
)
from .brownian1d import (
    NEVER,
    Boundary1D,
    durbin_pdf,
    durbin_q1,
    level_hitting_pdf,
    line_hitting_pdf,
    sample_level_hitting,
    sample_line_hitting,
    volterra_apply,
)
from .walkers import (
    BatchResult,
    SphereDomain,
    Tau1Table,
    euler_batch,
    precompute_table,
    read_table,
    woms_batch,
    wos_batch,
    write_table,
)
from .harness import (
    ExperimentConfig,
    FitResult,
    RunStatistics,
    fit_loglinear,
    run_experiment,
    sweep,
    sweep_fit,
)

__version__ = "0.1.0"
