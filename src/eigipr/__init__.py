"""Eigenvector localization statistics for rotation-invariant random matrices.

Samplers for the matrix ensembles, the inverse participation ratio (IPR)
functional, the exact limiting laws of the IPR conditioned on an eigenvalue
near the real axis, and Monte Carlo pipelines that cross-check the two.
"""

from .core import EigRecord, Records, double_factorial_odd, factorial, ipr, uniform_sphere_sample
from .ensembles import (
    EnsembleSpec,
    ewens_permutation,
    sample,
    sample_elliptic,
    sample_ginibre_complex,
    sample_ginibre_real,
    sample_haar_orthogonal,
    sample_induced_ginibre,
    sample_orthogonal_sum,
    sample_permutation_sum,
)
from .experiments import (
    EmpiricalDist,
    InsufficientDataError,
    PairingError,
    RunConfig,
    RunError,
    conditional_ipr,
    convergence_study,
    eig_right,
    ks_distance,
    realness_threshold,
    spectrum_ipr_map,
    trial_rng,
)
from .legendre import g, g_inverse, legendre_eval, phi
from .schur import eigvec_from_block, sample_stiefel_pair, st_from_S, synthetic_eigvec_sample
from .theory import (
    cdf_S,
    cdf_ell,
    density_S,
    density_delta,
    density_ell,
    mean_ipr_depletion_finite_N,
    mean_ipr_finite_N,
    orthogonal_joint_moment,
    sample_S,
    sample_ell,
)

__version__ = "0.1.0"
