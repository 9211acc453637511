"""Streaming adaptive filters under one step-by-step interface.

Four algorithms are provided:

* ``KrrApsp`` - Krylov reduced-rank adaptive parallel subgradient
  projection. Maintains an orthonormal Krylov basis of the estimated
  statistics, refreshed every ``m`` iterations, and adjusts a reduced
  coefficient vector by a relaxed convex combination of subgradient
  projections onto per-sample bounded-error sets.
* ``Cgrrf`` - conjugate-gradient reduced-rank filter: every ``m``
  iterations, a fixed number of CG steps on the estimated normal
  equations; held in between.
* ``Nlms`` and ``Rls`` - classical full-rank baselines.

Each filter consumes one ``(u, d)`` pair per ``step`` call and reports its
full-dimension coefficient vector so metrics can be computed uniformly;
a pair with a non-finite entry is rejected before any state changes.
:mod:`krrapsp.batch` steps R independent ``KrrApsp``, ``Cgrrf`` or ``Nlms``
filters in lockstep.

Multiplication accounting
-------------------------
``StepOutput.mults`` counts the recurring per-iteration multiplications
(statistics update, reduced-regressor maintenance, filter update) under
the cost model documented in :mod:`krrapsp.complexity`. Basis
construction and rebasing charges are kept in the per-filter
``mult_totals`` categories ``basis`` and ``rebase``; see
``complexity.COUNTER_NOTES`` for the reconciliation protocol and its
bookkeeping slack.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .estimation import MODES, CorrelationEstimator
from .linalg import (
    BasisMatrix,
    DegenerateCrossCorrelationError,
    as_vector,
    cg_solve,
    krylov_basis,
)
from .tolerances import TOL


@dataclass(frozen=True)
class KrrParams:
    """Parameters of the reduced-rank parallel projection filter.

    Attributes
    ----------
    rank : int
        Requested Krylov dimension D.
    projections : int
        Number q of parallel projections per iteration (newest q samples).
    error_dim : int
        Error-vector length r of each bounded-error set.
    rho : float
        Error bound defining the data-consistent sets, ``>= 0``.
    refresh_period : int
        Basis refresh period m (refresh when the step index is 1 mod m).
    step_size : float
        Relaxation in [0, 2].
    forgetting : float
        Forgetting factor of the statistics estimator.
    weights : sequence of float, optional
        q positive weights summing to one; uniform when omitted. Stored
        as a tuple, so parameter sets compare and hash by value; the
        array view is ``weight_array``.
    """

    rank: int
    projections: int = 4
    error_dim: int = 1
    rho: float = 0.0
    refresh_period: int = 10
    step_size: float = 1.0
    forgetting: float = 0.999
    weights: tuple = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.projections < 1 or self.error_dim < 1:
            raise ValueError("projections and error_dim must be at least 1")
        if self.rho < 0.0:
            raise ValueError("rho must be nonnegative")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be at least 1")
        if not 0.0 <= self.step_size <= 2.0:
            raise ValueError("step_size must lie in [0, 2]")
        if self.weights is None:
            w = np.full(self.projections, 1.0 / self.projections)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.projections,):
                raise ValueError("weights must have one entry per projection")
            if np.any(w <= 0.0):
                raise ValueError("weights must be positive")
            if abs(float(w.sum()) - 1.0) > TOL.weights_sum:
                raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def weight_array(self) -> np.ndarray:
        """The weights as a fresh float array."""
        return np.array(self.weights)


@dataclass
class StepOutput:
    """Result of one filter step.

    ``KrrApspBatch`` returns one for R trials at once: each field then has
    a leading trial axis.
    """

    y: float
    updated: bool
    h_full: np.ndarray
    mults: int


def _zero_counters() -> dict:
    return {"stats": 0, "transform": 0, "filter": 0, "basis": 0, "rebase": 0}


def _stats_cost(mode: str, n: int) -> int:
    # per-sample charge of one statistics update
    return 4 * n if mode == "toeplitz" else n * n + 3 * n


def _checked_sample(u, d, n: int):
    """Validate one ``(u, d)`` pair; returns ``(u as a vector, float d)``."""
    v = as_vector(u, n)
    d = float(d)
    if not math.isfinite(d):
        raise ValueError("desired output d must be finite")
    return v, d


class KrrApsp:
    """Krylov reduced-rank adaptive parallel subgradient projection filter.

    Parameters
    ----------
    params : KrrParams
    n : int
        Full filter length N; requires ``params.rank <= n``.
    mode : {"toeplitz", "fullsym"}
        Statistics estimator mode.
    h0 : array_like, optional
        Full-space initial vector, projected into the first basis when it
        becomes available (``h_tilde = S^T h0``). Zero when omitted.

    Until the first basis can be built (estimator immature or a zero
    cross-correlation estimate) the filter runs in passthrough: output 0
    and no update.
    """

    name = "krr-apsp"

    def __init__(self, params: KrrParams, n: int, mode: str = "toeplitz", h0=None):
        if params.rank > n:
            raise ValueError(f"rank {params.rank} exceeds filter length {n}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        self.params = params
        self.n = int(n)
        self.est = CorrelationEstimator(mode, n, params.forgetting)
        self._h0 = None if h0 is None else as_vector(h0, n).copy()
        self.basis: BasisMatrix | None = None
        self.h_tilde: np.ndarray | None = None
        ring = params.projections + params.error_dim - 1
        self._us: deque = deque(maxlen=ring)
        self._ds: deque = deque(maxlen=ring)
        self._ut: deque = deque(maxlen=ring)  # cached S^T u columns
        self._ut_valid = False
        self._k = 0
        self.steps = 0
        self.update_count = 0
        self.update_flags: deque = deque(maxlen=4096)
        self.skipped_zero_direction = 0
        self.cancelled_updates = 0
        self.build_count = 0
        self.last_relaxation: float | None = None
        self.mult_totals = _zero_counters()

    # -- observability ----------------------------------------------------

    @property
    def update_rate(self) -> float:
        return self.update_count / self.steps if self.steps else 0.0

    @property
    def coefficients(self) -> np.ndarray:
        """Full-dimension coefficient vector ``S h_tilde``."""
        if self.basis is None:
            return np.zeros(self.n)
        return self.basis.matrix @ self.h_tilde

    # -- internals ---------------------------------------------------------

    def _try_first_build(self) -> None:
        # passthrough until the estimator has seen a filter length's worth
        # of samples; a basis built from fewer is dominated by noise and
        # its misfit energy would have to be unlearned later
        if not self.est.mature:
            return
        try:
            basis = krylov_basis(self.est.r_matrix(), self.est.p_vector(),
                                 self.params.rank, build_tag=self._k)
        except DegenerateCrossCorrelationError:
            return
        self.basis = basis
        self.build_count += 1
        self.mult_totals["basis"] += _basis_build_charge(self.params.rank, self.n)
        if self._h0 is None:
            self.h_tilde = np.zeros(basis.rank)
        else:
            self.h_tilde = basis.matrix.T @ self._h0
        self._ut_valid = False

    def _refresh_basis(self) -> None:
        p = self.est.p_vector()
        try:
            basis = krylov_basis(self.est.r_matrix(), p, self.params.rank,
                                 build_tag=self._k + 1)
        except DegenerateCrossCorrelationError:
            return
        self.build_count += 1
        self.mult_totals["basis"] += _basis_build_charge(self.params.rank, self.n)
        self.rebase(basis)

    def rebase(self, new_basis: BasisMatrix) -> None:
        """Carry the reduced filter into a new basis.

        The full-space vector passes through the basis-transition map
        ``S_new S_old^T``, which maps ``S_old h_tilde`` to
        ``S_new h_tilde``: for equal ranks the reduced coordinates carry
        over verbatim at no cost. When the effective rank changed (early
        rank-deficient estimates), the old full vector is re-embedded by
        projection, ``h_tilde <- S_new^T (S_old h_tilde)``. Cached reduced
        regressors are invalidated and recomputed lazily on the next step.
        """
        if new_basis.n != self.n:
            raise ValueError("new basis has wrong ambient dimension")
        if self.basis is None:
            raise ValueError("cannot rebase before the first basis build")
        if new_basis.rank != self.basis.rank:
            full = self.basis.matrix @ self.h_tilde
            self.h_tilde = new_basis.matrix.T @ full
            self.mult_totals["rebase"] += (self.basis.rank * self.n
                                           + new_basis.rank * self.n)
        self.basis = new_basis
        self._ut_valid = False

    def _refresh_transforms(self) -> int:
        """Bring the cached reduced regressors up to date; returns mults."""
        s = self.basis.matrix
        if self._ut_valid:
            self._ut.appendleft(s.T @ self._us[0])
            return self.basis.rank * self.n
        self._ut.clear()
        for u in self._us:
            self._ut.append(s.T @ u)
        self._ut_valid = True
        return len(self._us) * self.basis.rank * self.n

    # -- streaming interface ------------------------------------------------

    def step(self, u, d: float) -> StepOutput:
        """Consume one sample pair and advance the filter."""
        v, d = _checked_sample(u, d, self.n)
        self._us.appendleft(v.copy())
        self._ds.appendleft(d)
        self.est.update(v, d)
        stats_mults = _stats_cost(self.est.mode, self.n)
        self.mult_totals["stats"] += stats_mults
        mults = stats_mults

        if self.basis is None:
            self._try_first_build()
            if self.basis is None:
                # passthrough until a basis exists
                self.steps += 1
                self.update_flags.append(False)
                self._k += 1
                return StepOutput(0.0, False, np.zeros(self.n), mults)

        transform_mults = self._refresh_transforms()
        self.mult_totals["transform"] += transform_mults
        mults += transform_mults

        p = self.params
        d_eff = self.basis.rank
        ring = len(self._us)
        ut_cols = list(self._ut)
        h = self.h_tilde

        # inner products of each cached reduced regressor with the filter;
        # the newest one doubles as the filter output
        ips = np.array([float(col @ h) for col in ut_cols])
        filter_mults = ring * d_eff
        y = ips[0]

        q_eff = min(p.projections, ring)
        w = p.weight_array[:q_eff]
        w = w / float(w.sum())

        f_dir = np.zeros(d_eff)
        loss_sum = 0.0
        delta_norm_sum = 0.0
        any_violation = False
        contributed = False
        for j in range(q_eff):
            r_eff = min(p.error_dim, ring - j)
            e = ips[j:j + r_eff] - np.fromiter(
                (self._ds[t] for t in range(j, j + r_eff)), dtype=float, count=r_eff)
            sq = float(e @ e)
            filter_mults += r_eff
            if sq <= p.rho:
                continue
            any_violation = True
            block = np.column_stack([ut_cols[j + t] for t in range(r_eff)])
            a = block @ e
            c = float(a @ a)
            filter_mults += r_eff * d_eff + d_eff
            # guard scale: uncharged safeguard arithmetic, not part of the
            # documented cost model
            direction_scale = float(np.sum(block * block)) * sq
            if c <= TOL.zero_direction_rel ** 2 * direction_scale:
                # violated set with a vanishing subgradient: inconsistent
                # data corner, skipped with a diagnostic count
                self.skipped_zero_direction += 1
                continue
            gap = p.rho - sq
            coef = w[j] * gap / (2.0 * c)
            f_dir += coef * a
            loss_sum += w[j] * gap * gap / (4.0 * c)
            delta_norm_sum += abs(coef) * float(np.sqrt(c))
            filter_mults += 7 + d_eff
            contributed = True

        updated = False
        self.last_relaxation = None
        if any_violation and contributed:
            nf = float(f_dir @ f_dir)
            filter_mults += d_eff
            if np.sqrt(nf) <= TOL.cancellation * delta_norm_sum:
                self.cancelled_updates += 1
            else:
                relax = loss_sum / nf
                scale = p.step_size * relax
                self.h_tilde = h + scale * f_dir
                filter_mults += 2 + d_eff
                self.last_relaxation = relax
                updated = True

        mults += filter_mults
        self.mult_totals["filter"] += filter_mults
        h_full = self.basis.matrix @ self.h_tilde

        self.steps += 1
        self.update_count += int(updated)
        self.update_flags.append(updated)

        if self._k % p.refresh_period == 1 % p.refresh_period:
            self._refresh_basis()
        self._k += 1
        return StepOutput(float(y), updated, h_full, mults)


def _basis_build_charge(rank: int, n: int) -> int:
    # CG-equivalent construction charge per build; see complexity module
    return (rank - 1) * n * n + (5 * rank - 4) * n + 2 * (rank - 1)


class _CumulativeStats:
    """Plain sample sums of the second-order statistics (growing window).

    The classical reduced-rank conjugate-gradient filter estimates its
    normal equations by uniform averaging, so past data never decays;
    sums are kept unnormalized (solutions are scale invariant).
    """

    def __init__(self, mode: str, n: int):
        self.mode = mode
        self.n = int(n)
        self.sample_count = 0
        self._p = np.zeros(n)
        self._r = np.zeros(n) if mode == "toeplitz" else None
        self._matrix = np.zeros((n, n)) if mode == "fullsym" else None

    @property
    def mature(self) -> bool:
        return self.sample_count >= self.n

    def update(self, u, d: float) -> None:
        if self.mode == "toeplitz":
            self._r = self._r + u[0] * u
        else:
            self._matrix = self._matrix + np.outer(u, u)
        self._p = self._p + float(d) * u
        self.sample_count += 1

    def r_matrix(self):
        from .linalg import SymMatrix

        if self.mode == "toeplitz":
            return SymMatrix(first_row=self._r)
        return SymMatrix(self._matrix)

    def p_vector(self) -> np.ndarray:
        return self._p.copy()


class Cgrrf:
    """Conjugate-gradient reduced-rank filter.

    Every ``refresh_period`` iterations the coefficient vector is replaced
    by the result of ``rank`` CG iterations on the estimated normal
    equations, started from ``init_vector`` (zero by default); between
    refreshes the filter is held. A non-positive curvature direction ends
    a solve early, keeping the current iterate.

    By default the statistics are uniform sample averages over all data
    seen so far, the classical formulation of this filter. Passing a
    ``forgetting`` factor in (0, 1) switches to exponentially weighted
    estimates instead.
    """

    name = "cgrrf"

    def __init__(self, n: int, rank: int, refresh_period: int = 10,
                 forgetting: float | None = None, mode: str = "toeplitz",
                 init_vector=None):
        if not 1 <= rank <= n:
            raise ValueError(f"rank {rank} outside 1..{n}")
        if refresh_period < 1:
            raise ValueError("refresh_period must be at least 1")
        self.n = int(n)
        self.rank = int(rank)
        self.refresh_period = int(refresh_period)
        if forgetting is None:
            self.est = _CumulativeStats(mode, n)
        else:
            self.est = CorrelationEstimator(mode, n, forgetting)
        self._init = np.zeros(n) if init_vector is None else as_vector(init_vector, n).copy()
        self.h = np.zeros(n)
        self._solved_once = False
        self._k = 0
        self.steps = 0
        self.update_count = 0
        self.mult_totals = _zero_counters()

    @property
    def coefficients(self) -> np.ndarray:
        return self.h.copy()

    @property
    def update_rate(self) -> float:
        return self.update_count / self.steps if self.steps else 0.0

    def _solve(self) -> bool:
        # same estimator warm-up gate as the reduced-rank filter: solves on
        # fewer than a filter length's worth of samples chase noise
        if not self.est.mature:
            return False
        p = self.est.p_vector()
        if float(np.linalg.norm(p)) == 0.0 and not np.any(self._init):
            return False
        self.h = cg_solve(self.est.r_matrix(), p, x0=self._init, iters=self.rank)
        self.mult_totals["basis"] += _basis_build_charge(self.rank, self.n)
        self._solved_once = True
        return True

    def step(self, u, d: float) -> StepOutput:
        v, d = _checked_sample(u, d, self.n)
        self.est.update(v, d)
        stats = _stats_cost(self.est.mode, self.n)
        self.mult_totals["stats"] += stats

        updated = False
        if not self._solved_once:
            updated = self._solve()
        y = float(self.h @ v)
        mults = stats + self.n
        self.mult_totals["filter"] += self.n

        if self._solved_once and self._k % self.refresh_period == 1 % self.refresh_period:
            updated = self._solve() or updated
        self.steps += 1
        self.update_count += int(updated)
        self._k += 1
        return StepOutput(y, updated, self.h.copy(), mults)


class Nlms:
    """Normalized least mean squares filter."""

    name = "nlms"

    def __init__(self, n: int, step_size: float = 0.5):
        self.n = int(n)
        self.step_size = float(step_size)
        self.h = np.zeros(n)
        self.steps = 0
        self.update_count = 0
        self.mult_totals = _zero_counters()

    @property
    def coefficients(self) -> np.ndarray:
        return self.h.copy()

    @property
    def update_rate(self) -> float:
        return self.update_count / self.steps if self.steps else 0.0

    def step(self, u, d: float) -> StepOutput:
        v, d = _checked_sample(u, d, self.n)
        y = float(self.h @ v)
        energy = float(v @ v)
        mults = 2 * self.n
        updated = False
        if energy > 0.0:
            e = d - y
            if e != 0.0:
                self.h = self.h + (self.step_size * e / energy) * v
                mults += self.n + 2
                updated = True
        self.mult_totals["filter"] += mults
        self.steps += 1
        self.update_count += int(updated)
        return StepOutput(y, updated, self.h.copy(), mults)


class Rls:
    """Exponentially weighted recursive least squares filter.

    The inverse-correlation matrix starts at ``I / delta``. When ``delta``
    is omitted it is set on the first sample to ``0.01`` times the measured
    input power (falling back to ``0.01`` on a zero first sample); the
    realized value is exposed as ``delta`` for run metadata.
    """

    name = "rls"

    def __init__(self, n: int, forgetting: float = 0.999, delta: float | None = None):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")
        self.n = int(n)
        self.forgetting = float(forgetting)
        self.delta = delta
        self.h = np.zeros(n)
        self._pinv = None
        self.steps = 0
        self.update_count = 0
        self.mult_totals = _zero_counters()

    @property
    def coefficients(self) -> np.ndarray:
        return self.h.copy()

    @property
    def update_rate(self) -> float:
        return self.update_count / self.steps if self.steps else 0.0

    def step(self, u, d: float) -> StepOutput:
        v, d = _checked_sample(u, d, self.n)
        if self._pinv is None:
            if self.delta is None:
                power = float(v @ v) / self.n
                self.delta = 0.01 * power if power > 0.0 else 0.01
            self._pinv = np.eye(self.n) / self.delta
            # buffer of the rank-one correction: a step allocates no N x N
            # temporaries, which the allocator may return to the system and
            # fault in again at every step
            self._outer = np.empty((self.n, self.n))
        y = float(self.h @ v)
        pi = self._pinv @ v
        denom = self.forgetting + float(v @ pi)
        gain = pi / denom
        e = d - y
        self.h = self.h + e * gain
        self._pinv -= np.outer(gain, pi, out=self._outer)
        self._pinv /= self.forgetting
        mults = 3 * self.n * self.n + 4 * self.n
        self.mult_totals["filter"] += mults
        self.steps += 1
        self.update_count += 1
        return StepOutput(y, True, self.h.copy(), mults)
