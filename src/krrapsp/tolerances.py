"""Numerical tolerances shared by the library and its test suite.

Every hard threshold used by the kernels lives here so that tests assert
exactly what the library enforces.
"""

from typing import NamedTuple


class Tolerances(NamedTuple):
    # max |S^T S - I| allowed for any orthonormal basis ever produced
    orthonormality: float = 1e-10
    # relative residual ||(I - SS^T) R^j p|| / ||R^j p|| for Krylov spans
    krylov_span_rel: float = 1e-8
    # Krylov truncation: a new direction whose norm after orthogonalization
    # is <= this * ||R q|| (its norm before) ends the build
    basis_truncation_rel: float = 1e-10
    # a Krylov seed whose plain norm falls below this (p.p underflows once
    # |p| < ~1e-154), or overflows, is replaced by p / max|p|
    seed_rescale_below: float = 1e-150
    # boundary placement of a half-space projection
    halfspace_boundary: float = 1e-10
    # relative Pythagoras defect for subspace projections
    pythagoras_rel: float = 1e-9
    # quadratic forms more negative than this (scaled) signal a non-PSD matrix
    quadform_negative: float = 1e-12
    # weights of a parallel projection step must sum to 1 within this
    weights_sum: float = 1e-12
    # |1 - eigenvalue| window when extracting the fixed-point subspace
    fixed_point_eigen: float = 1e-8
    # feasibility certification and monotone-approximation slack
    feasibility: float = 1e-10
    monotone_slack: float = 1e-10
    # ||sum of subgradient steps|| below this times the step-norm budget is
    # treated as exact cancellation (no update)
    cancellation: float = 1e-14
    # residual allowed when a vector must lie in a basis range
    range_confinement: float = 1e-9
    # a subgradient direction whose norm is below this fraction of its
    # natural scale is treated as zero (inconsistent-data corner); covers
    # exact zeros and FMA-level cancellation residue
    zero_direction_rel: float = 1e-14


TOL = Tolerances()
