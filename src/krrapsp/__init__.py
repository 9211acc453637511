"""Reduced-rank adaptive filtering with Krylov subspaces.

A streaming implementation of the Krylov reduced-rank adaptive parallel
subgradient projection (KRR-APSP) filter with CGRRF, NLMS, and RLS
baselines, seedable experiment scenarios (system identification and CDMA
interference suppression), closed-form complexity models, a Monte-Carlo
harness, and a numerical verification suite for the algorithm's
convergence properties.

Records (step outputs, samples, metrics, reports, tolerances, and the
analysis objects such as ``BasisMatrix`` and ``HalfSpace``) are
``typing.NamedTuple`` types, because a dataclass's methods are generated
and compiled at every import. A record is a tuple: it can be indexed, it
iterates, and it compares equal to a plain tuple of its fields. The five
configs (``KrrParams``, ``SysIdConfig``, ``CdmaConfig`` and the
``experiments`` module's ``FilterSpec`` and ``ExperimentConfig``) are
frozen dataclasses, because ``dataclasses.replace`` and ``fields`` are
their API.
"""

__version__ = "0.1.0"

from .estimation import CorrelationEstimator
from .filters import Cgrrf, KrrApsp, KrrParams, Nlms, Rls, StepOutput
from .linalg import (
    BasisMatrix,
    DegenerateCrossCorrelationError,
    HalfSpace,
    SymMatrix,
    cg_solve,
    condition_number,
    krylov_basis,
    project_half_space,
    project_subspace,
    r_norm,
)
from .scenarios import (
    CdmaConfig,
    CdmaScenario,
    StreamSample,
    SysIdConfig,
    SysIdScenario,
    gold_family,
)
from .tolerances import TOL, Tolerances

__all__ = [
    "BasisMatrix",
    "CdmaConfig",
    "CdmaScenario",
    "Cgrrf",
    "CorrelationEstimator",
    "DegenerateCrossCorrelationError",
    "HalfSpace",
    "KrrApsp",
    "KrrParams",
    "Nlms",
    "Rls",
    "StepOutput",
    "StreamSample",
    "SymMatrix",
    "SysIdConfig",
    "SysIdScenario",
    "TOL",
    "Tolerances",
    "cg_solve",
    "condition_number",
    "gold_family",
    "krylov_basis",
    "project_half_space",
    "project_subspace",
    "r_norm",
    "__version__",
]
