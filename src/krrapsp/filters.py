"""Streaming adaptive filters, one stream at a time or R trials in lockstep.

Four algorithms are provided:

* KRR-APSP - Krylov reduced-rank adaptive parallel subgradient
  projection. Maintains an orthonormal Krylov basis of the estimated
  statistics, refreshed every ``m`` iterations, and adjusts a reduced
  coefficient vector by a relaxed convex combination of subgradient
  projections onto per-sample bounded-error sets.
* CGRRF - conjugate-gradient reduced-rank filter: every ``m`` iterations,
  a fixed number of CG steps on the estimated normal equations; held in
  between.
* NLMS and RLS - classical full-rank baselines.

The first three are written once each, as :class:`KrrApspBatch`,
:class:`CgrrfBatch` and :class:`NlmsBatch`, which step R independent
filters in lockstep on stacked ``(R, N)`` samples. Their stacked products
make a single filter's BLAS calls trial by trial, so a trial's arithmetic
does not depend on R. ``KrrApsp``, ``Cgrrf`` and ``Nlms`` are their
one-trial views. KRR-APSP batches of one statistics mode, forgetting
factor, refresh period and ``(q, r)`` can form a family (``_KrrFamily``):
one statistics stack, sample ring, Krylov build and reduced pass for all.
:func:`lockstep_families` is the one rule for which batches of a lockstep
pass share state: it joins the families and, with full-symmetric
statistics, one statistics group of every family's and CGRRF's stack.
``Rls`` has no batch: 100 inverse correlations at N = 200 hold 32 MB, and
a stacked RLS step measured slower than the scalar one (142-159 against
129 us per trial-step; one BLAS thread, 2-core x86-64). Its arithmetic is
one private core, ``Rls._update``, which ``Rls.step`` calls after checking
the sample and which the Monte-Carlo harness calls on samples it has
checked a chunk at a time, both by the batches' rule (``_checked_stack``).

Every filter reports its full-dimension coefficient vector, rejects a
filter length (and a batch its trial count) that is not a positive
integer when it is constructed, and rejects a sample with a non-finite
entry, ``u . u`` or ``d * d`` before any state changes.

Multiplication accounting
-------------------------
``StepOutput.mults`` counts the recurring per-iteration multiplications
(statistics, reduced regressors, filter update) under the cost model of
:mod:`krrapsp.complexity`; basis construction and rebasing go to the
``mult_totals`` categories ``basis`` and ``rebase``. See
``complexity.COUNTER_NOTES`` for the reconciliation and its slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .estimation import _chunk_trials, _StatsStack, check_forgetting
from .linalg import (
    BasisMatrix,
    all_finite,
    as_vector,
    cg_solve_stack,
    check_int,
    krylov_basis,  # noqa: F401  (unused; the benchmark's layer trace checks it here)
    krylov_basis_stack,
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
        Forgetting factor of the statistics estimator, a real number in (0, 1).
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
        for name in ("rank", "projections", "error_dim", "refresh_period"):
            check_int(getattr(self, name), name)
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        if not 0.0 <= self.step_size <= 2.0:
            raise ValueError("step_size must lie in [0, 2]")
        check_forgetting(self.forgetting)
        if self.weights is None:
            w = np.full(self.projections, 1.0 / self.projections)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (self.projections,):
                raise ValueError("weights must have one entry per projection")
            if not np.all(w > 0.0):  # NaN is not positive either
                raise ValueError("weights must be positive")
            if not abs(float(w.sum()) - 1.0) <= TOL.weights_sum:
                raise ValueError("weights must sum to 1")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def weight_array(self) -> np.ndarray:
        """The weights as a fresh float array."""
        return np.array(self.weights)


class StepOutput(NamedTuple):
    """Result of one filter step; a batch's has a leading trial axis on every field."""

    y: float
    updated: bool
    h_full: np.ndarray
    mults: int


def _zero_counters() -> dict:
    return {"stats": 0, "transform": 0, "filter": 0, "basis": 0, "rebase": 0}


def _stats_cost(mode: str, n: int) -> int:
    # per-sample charge of one statistics update
    return 4 * n if mode == "toeplitz" else n * n + 3 * n


def _basis_build_charge(rank: int, n: int) -> int:
    # CG-equivalent construction charge per build; see complexity module
    return (rank - 1) * n * n + (5 * rank - 4) * n + 2 * (rank - 1)


def _checked_stack(u, d, trials: int, n: int):
    """Validate one ``(R, N)`` regressor stack and its ``(R,)`` outputs, ``u . u`` and ``d * d``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (trials, n):
        raise ValueError(f"expected u of shape {(trials, n)}, got {u.shape}")
    as_vector(u.reshape(-1))
    d = as_vector(d, trials)
    with np.errstate(over="ignore"):  # no fold or product may overflow on the sample alone
        if not (all_finite(np.vecdot(u, u)) and all_finite(d * d)):
            raise ValueError("sample rejected: u . u or d * d is not finite")
    return u, d


def _initial_stack(x, trials: int, n: int, name: str):
    """A finite ``(R, N)`` copy of per-trial initial vectors, or None for None."""
    if x is None:
        return None
    x = np.array(x, dtype=float)
    if x.shape != (trials, n) or not all_finite(x):
        raise ValueError(f"{name} must be a finite ({trials}, {n}) array")
    return x


def _cache_aligned(n: int) -> np.ndarray:
    """An uninitialized ``(n, n)`` float array whose data starts on a 64-byte boundary."""
    raw = np.empty(n * n + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + n * n].reshape(n, n)


def _aged(ring: np.ndarray, spare: np.ndarray):
    # (new ring, new spare): ring copied one slot older into spare; slot 0 is stale
    np.copyto(spare[:, 1:], ring[:, :-1])
    return spare, ring


def _sum_sets(x: np.ndarray) -> np.ndarray:
    # np.add.accumulate(x, axis=1)[:, -1] bit for bit: one set after another
    total = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += x[:, j]
    return total


class _Lockstep:
    """Counters of R filters stepped in lockstep: ``(R,)`` integer arrays."""

    def __init__(self, n: int, trials: int):
        self.n, self.trials = check_int(n, "filter length"), check_int(trials, "trials")
        self.steps = np.zeros(self.trials, dtype=np.int64)
        self.update_count = np.zeros(self.trials, dtype=np.int64)
        self.mult_totals = {cat: np.zeros(self.trials, dtype=np.int64)
                            for cat in _zero_counters()}


class _KrrFamily:
    """The shared state and the one reduced pass of the KRR-APSP batches of a family.

    A family is the batches of one statistics mode, ``(R, N)`` shape,
    forgetting factor, refresh period and ``(q, r)`` fed the same streams.
    They share the ``_StatsStack``, the ``(u, d)`` ring of ``q + r - 1``
    samples, the warm-up gate, the refresh steps and ``has_basis``. A build
    runs once per ``chunk`` of trials at the largest rank; a member of rank
    D takes the leading D columns and ranks ``min(rank, D)``, which a build
    of rank D would give (column i is built from the columns before it
    only). A batch starts as a family of one, :meth:`join` adds batches
    before their first step, and :meth:`step` steps the ``members`` in join
    order.

    Member ``i`` owns rows ``i R`` to ``i R + R - 1`` of the reduced
    regressors' ring (newest first) and its spare, ``(M R, q + r - 1,
    D_max)``, the reduced filters ``(M R, D_max)`` (its ``h_tilde`` their
    leading D columns) and the per-trial state ``_ROWS``; both are zero past
    a row's ``rank_eff`` (0 without a basis). Products in N-space and sums
    over the rank axis run per member and effective rank on its own columns;
    the rest runs once over all rows, where the zero columns change no bit
    (``tests/test_kernels.py``) but in a one-column window product (r > 1).
    """

    _ROWS = dict(rank_eff=0, _ut_valid=False, last_relaxation=np.nan, build_count=0,
                 skipped_zero_direction=0, cancelled_updates=0, steps=0, update_count=0)

    def __init__(self, mode: str, member):
        p = member.params
        self.q, self.r = p.projections, p.error_dim
        self.key = (mode, member.n, member.trials, p.forgetting, p.refresh_period,
                    self.q, self.r)
        self.n, self.trials, self.refresh_period = member.n, member.trials, p.refresh_period
        self.stats = _StatsStack(mode, self.n, self.trials, p.forgetting)
        self.chunk = _chunk_trials(1 << 20, self.n, self.trials)  # 1 MiB: 52 trials at N = 50
        self.has_basis = np.zeros(self.trials, dtype=bool)
        ring = self.q + self.r - 1
        self.us, self._us_spare = np.zeros((2, self.trials, ring, self.n))
        self.ds, self._ds_spare = np.zeros((2, self.trials, ring))
        held = [np.minimum(self.r, slots - np.arange(min(self.q, slots)))  # by ring length
                for slots in range(1, ring + 1)]  # the samples each set holds
        self.charges = [None] + [(x + 1, int(x.sum())) for x in held]
        self.filled = self._k = 0  # filled ring slots, shared by all trials; step index
        self.members = []
        member.family = self
        self.join(member)

    def join(self, member) -> None:
        """Add ``member``, a batch of this family's key; neither side may have stepped."""
        if (member.family.key != self.key or member.family._k or self._k
                or member in self.members):
            raise ValueError("a family joins batches of one key before their first step, once")
        member.family = self
        self.members.append(member)
        # the rows are laid out afresh: before a first step they hold initial values
        members, trials = self.members, self.trials
        rows, width = len(members) * trials, max(m.params.rank for m in members)
        self.rings = np.zeros((2, rows, self.q + self.r - 1, width))
        self.ut, self._ut_spare = self.rings
        self.h = np.zeros((rows, width))
        for name, value in self._ROWS.items():
            setattr(self, name, np.full(rows, value))
        self.mult_totals = {cat: np.zeros(rows, dtype=np.int64) for cat in _zero_counters()}
        self.rho, self.step_size, self.full = (
            np.repeat([getattr(m.params, name) for m in members], trials)
            for name in ("rho", "step_size", "rank"))
        # normalized weights of the newest q_eff sets, by q_eff
        weights = [m.params.weight_array for m in members]
        self.weights = [None] + [np.repeat([w[:q] / float(w[:q].sum()) for w in weights],
                                           trials, axis=0) for q in range(1, self.q + 1)]
        for i, m in enumerate(members):
            m._rows = slice(i * trials, (i + 1) * trials)
            m.h_tilde = self.h[m._rows, :m.params.rank]
            for name in self._ROWS:
                setattr(m, name, getattr(self, name)[m._rows])
            m.mult_totals = {cat: v[m._rows] for cat, v in self.mult_totals.items()}
        self.built = True  # a build changed ranks or bases since the last step

    def _build(self, among: np.ndarray) -> None:
        """Build and install the members' bases of trials ``among``, chunk by chunk.

        A trial with a zero cross-correlation estimate passes through (a
        first build) or keeps its bases (a refresh). Every trial's statistics
        are checked (:meth:`_StatsStack.dense`) before the first chunk is
        installed.
        """
        pos = np.flatnonzero(among & np.any(self.stats.p, axis=1))
        for part, mats in self.stats.dense(pos, self.chunk):
            bases, ranks = krylov_basis_stack(mats, self.stats.p[part], self.h.shape[1])
            for m in self.members:
                m._take(part, bases[:, :, :m.params.rank], np.minimum(ranks, m.params.rank))
        self.has_basis[pos] = True

    def step(self, u, d) -> list:
        """Step every member on one ``(R, N)`` and ``(R,)`` sample; returns their outputs."""
        u, d = _checked_stack(u, d, self.trials, self.n)
        # age each ring into its spare: a shift in place would copy via a temporary
        self.us, self._us_spare = _aged(self.us, self._us_spare)
        self.ds, self._ds_spare = _aged(self.ds, self._ds_spare)
        self.ut, self._ut_spare = _aged(self.ut, self._ut_spare)
        self.us[:, 0], self.ds[:, 0] = u, d
        self.filled = min(self.filled + 1, self.ds.shape[1])
        self.stats.update(u, d)
        # the estimators have now seen k + 1 samples: mature from N on
        if self._k + 1 >= self.n and np.count_nonzero(self.has_basis) < self.trials:
            self._build(~self.has_basis)
        outs = self._pass(u)
        if self._k % self.refresh_period == 1 % self.refresh_period:
            self._build(self.has_basis)
        self._k += 1
        return outs

    def _pass(self, u: np.ndarray) -> list:
        """Every member's transform, output and update on a checked sample; returns the outputs."""
        n, trials, ranks, ut, h = self.n, self.trials, self.rank_eff, self.ut, self.h
        ring, stats_mults = self.filled, _stats_cost(self.stats.mode, n)
        self.mult_totals["stats"] += stats_mults
        self.steps += 1
        if self.built:  # ranks, bases and has_basis change only at a build
            self.whole, self.idle = (ranks == self.full).all(), not np.count_nonzero(self.has_basis)
            self.transform = ranks * n  # S^T u of the newest sample
        valid, self.built = not self.built, False
        if self.idle:  # every trial passes through: output 0, no update
            return [StepOutput(np.zeros(trials), np.zeros(trials, dtype=bool),
                               np.zeros((trials, n)), np.full(trials, stats_mults))
                    for _ in self.members]
        transform_mults = (self.transform if valid
                           else self.transform * np.where(self._ut_valid, 1, ring))
        # S^T u of the newest sample into the ring, of every slot for a trial whose
        # basis changed; parts: each member's (rows, rank, trials, bases) by D_eff
        parts = []
        for m in self.members:
            parts.append([])
            for rank, idx in [(m.params.rank, slice(None))] if self.whole else [
                    (d, np.flatnonzero(m.rank_eff == d)) for d in set(m.rank_eff.tolist()) - {0}]:
                basis = m.basis if self.whole else np.ascontiguousarray(m.basis[idx][..., :rank])
                basis_t, mine = basis.transpose(0, 2, 1), ut[m._rows]
                mine[idx, 0, :rank] = np.matvec(basis_t, u[idx])
                if not valid and np.count_nonzero(stale := ~m._ut_valid[idx]):
                    at = np.arange(trials)[idx][stale]
                    mine[at, 1:ring, :rank] = np.matvec(basis_t[stale][:, None],
                                                        self.us[at, 1:ring])
                rows = m._rows if self.whole else idx + m._rows.start
                parts[-1].append((rows, rank, idx, basis))
        self._ut_valid.fill(True)

        # set j holds the errors of samples j, ..., j + r - 1; ring slots not yet
        # filled are zero in regressors and outputs, so their errors are exactly 0
        r, q_eff, rho = self.r, min(self.q, ring), self.rho[:, None]
        width = q_eff + r - 1
        ips = np.vecdot(ut[:, :max(ring, width)], h[:, None, :])
        e = ips[:, :width].reshape(len(self.members), trials, width) - self.ds[:, :width]
        if not self.whole:  # a trial without a basis has no sets
            e[:, ~self.has_basis] = 0.0
        e = e.reshape(len(h), width)

        # each set's squared error, its subgradient g = (S^T U) e, c = g . g and
        # the guard scale (uncharged), each product the one a set's own BLAS call makes
        if r == 1:
            sq, g, squares = e * e, ut[:, :q_eff] * e[..., None], ut[:, :q_eff] * ut[:, :q_eff]
        else:
            e_win = sliding_window_view(e, r, axis=1)
            # ut[j], ..., ut[j + r - 1] as columns, copied: on the view np.matvec rounds otherwise
            u_win = np.ascontiguousarray(sliding_window_view(ut[:, :width], r, axis=1))
            sq, g, squares = np.vecdot(e_win, e_win), np.matvec(u_win, e_win), u_win * u_win
        block_sq = np.zeros(sq.shape)
        for rows, rank, _, _ in (group for groups in parts for group in groups):
            block_sq[rows] = squares[rows, :, :rank].sum(axis=2 if r == 1 else (2, 3))
            if rank == 1 < r:
                g[rows, :, :1] = np.matvec(np.ascontiguousarray(u_win[rows, :, :1]), e_win[rows])
        violated = sq > rho
        c = np.vecdot(g, g)

        # a violated set with a vanishing subgradient (a data corner) is skipped and counted
        zero = violated & (c <= TOL.zero_direction_rel ** 2 * (block_sq * sq))
        if np.count_nonzero(zero):
            self.skipped_zero_direction += zero.sum(axis=1)
        ok = violated ^ zero  # zero only where violated
        gap = rho - sq
        c_ok = np.where(ok, c, 1.0)
        w_gap = self.weights[q_eff] * gap
        coef, loss = np.zeros((2,) + c.shape)
        np.divide(w_gap, 2.0 * c_ok, out=coef, where=ok)
        np.divide(w_gap * gap, 4.0 * c_ok, out=loss, where=ok)
        # the sums over the sets add in set order, as one set after another;
        # f_dir starts at zero, and + 0.0 turns only a -0 sum into that +0
        f_dir = _sum_sets(g * coef[:, :, None])
        f_dir += 0.0
        n_ok = ok.sum(axis=1)
        contributed = n_ok > 0

        nf = np.vecdot(f_dir, f_dir)
        delta_norm_sum = _sum_sets(np.abs(coef) * np.sqrt(c))
        cancelled = contributed & (np.sqrt(nf) <= TOL.cancellation * delta_norm_sum)
        self.cancelled_updates += cancelled
        updated = contributed ^ cancelled  # cancelled only where contributed
        self.last_relaxation.fill(np.nan)
        relax = np.divide(_sum_sets(loss), nf, out=self.last_relaxation, where=updated)
        np.add(h, (self.step_size * relax)[:, None] * f_dir, out=h, where=updated[:, None])
        # the inner products, the errors, the violated sets and the updates
        charges, samples = self.charges[ring]
        filter_mults = (ranks * (ring + np.dot(violated, charges) + n_ok + contributed + updated)
                        + (7 * n_ok + 2 * updated + samples))
        if not self.whole:
            filter_mults[ranks == 0] = 0
        self.mult_totals["transform"] += transform_mults
        self.mult_totals["filter"] += filter_mults
        self.update_count += updated
        mults, outs = stats_mults + transform_mults + filter_mults, []
        for m, groups in zip(self.members, parts):
            if self.whole:
                (rows, rank, _, basis), = groups
                h_full = np.matvec(basis, np.ascontiguousarray(h[rows, :rank]))
            else:  # trials without a basis pass through
                h_full = np.zeros((trials, n))
                for rows, rank, idx, basis in groups:  # rows index: a contiguous copy
                    h_full[idx] = np.matvec(basis, h[rows, :rank])
            outs.append(StepOutput(ips[m._rows, 0], updated[m._rows], h_full, mults[m._rows]))
        return outs


class KrrApspBatch(_Lockstep):
    """R independent KRR-APSP filters stepped in lockstep.

    Trial ``i`` is the filter ``KrrApsp(params, n, mode, h0[i])`` fed with
    row ``i`` of every ``(U, d)`` pair. Until a trial's first basis can be
    built (fewer than N samples seen, or a zero cross-correlation
    estimate) it passes through: output 0 and no update. All trials share
    the step index, hence the warm-up gate and the refresh steps. A basis
    that truncates to ``D_eff < D`` carries zero columns after its
    ``D_eff`` leading ones.

    The statistics, sample ring, builds and reduced pass are the
    ``family``'s (:class:`_KrrFamily`); :meth:`step` steps a family of one.
    The batch keeps its bases, ``(R, N, D)``. Its reduced filters ``(R, D)``,
    last relaxation factors (NaN where a trial did not update) and ``(R,)``
    counters are its rows of the family's arrays.
    """

    stats = property(lambda self: self.family.stats)
    has_basis = property(lambda self: self.family.has_basis)

    def __init__(self, params: KrrParams, n: int, trials: int, mode: str = "toeplitz",
                 h0=None):
        if params.rank > n:
            raise ValueError(f"rank {params.rank} exceeds filter length {n}")
        super().__init__(n, trials)
        self.params = params
        self._h0 = _initial_stack(h0, self.trials, self.n, "h0")
        self.basis = np.zeros((self.trials, self.n, params.rank))
        self.family = _KrrFamily(mode, self)  # a family of one until joined

    def _take(self, part: np.ndarray, bases: np.ndarray, ranks: np.ndarray) -> None:
        """Install the built ``(count, N, D)`` bases of effective ``ranks`` into trials ``part``.

        A first basis starts the reduced filter at ``S^T h0`` (zero without
        ``h0``). On a refresh to another rank the full vector is re-embedded
        by projection, charged to ``rebase``; at the same rank the reduced
        coordinates carry over as they are (the map ``S_new S_old^T``).
        """
        for j in np.flatnonzero(ranks != self.rank_eff[part]):
            i, old, new = part[j], int(self.rank_eff[part[j]]), int(ranks[j])
            if self.has_basis[i]:  # leading columns laid out as a BasisMatrix
                full = np.ascontiguousarray(self.basis[i, :, :old]) @ self.h_tilde[i, :old]
                self.mult_totals["rebase"][i] += (old + new) * self.n
            else:
                full = None if self._h0 is None else self._h0[i]
            self.h_tilde[i] = 0.0
            if full is not None:
                self.h_tilde[i, :new] = np.ascontiguousarray(bases[j, :, :new]).T @ full
            self.rank_eff[i] = new
        self.basis[part] = bases
        self.build_count[part] += 1
        self.mult_totals["basis"][part] += _basis_build_charge(self.params.rank, self.n)
        self._ut_valid[part] = False
        self.family.rings[:, self._rows][:, part] = 0.0  # both rings, all columns
        self.family.built = True

    def step(self, u, d) -> StepOutput:
        """Consume one ``(R, N)`` regressor stack and its ``(R,)`` outputs (a family of one)."""
        if len(self.family.members) > 1:
            raise ValueError("a family steps with all its members")
        return self.family.step(u, d)[0]


class CgrrfBatch(_Lockstep):
    """R independent CGRRF filters stepped in lockstep.

    Trial ``i`` is the filter ``Cgrrf(n, rank, refresh_period, forgetting,
    mode, init_vector[i])`` fed with row ``i`` of every ``(U, d)`` pair.
    Once N samples are seen, and then every ``refresh_period`` steps, a
    trial's coefficients are replaced by ``rank`` CG iterations on its
    estimated normal equations from its initial vector (zero by default);
    a non-positive curvature ends a solve early, and a trial whose ``p . p``
    and initial vector are zero does not solve. Non-finite statistics of a
    trial that solves raise ``ValueError`` before any coefficients change,
    as they do a KRR-APSP build. Without a ``forgetting``
    factor the statistics are plain sums over all data seen so far, the
    classical formulation of this filter.

    State: the statistics (a ``_StatsStack``), the coefficients ``h`` as
    ``(R, N)`` (replaced, never written, once a step has returned them)
    and the ``solved`` mask. Counters are ``(R,)`` integer arrays,
    ``mult_totals`` one per category.
    """

    def __init__(self, n: int, trials: int, rank: int, refresh_period: int = 10,
                 forgetting: float | None = None, mode: str = "toeplitz",
                 init_vector=None):
        if not 1 <= check_int(rank, "rank") <= n:
            raise ValueError(f"rank {rank} outside 1..{n}")
        check_int(refresh_period, "refresh_period")
        super().__init__(n, trials)
        n, r = self.n, self.trials
        self.rank = int(rank)
        self.refresh_period = int(refresh_period)
        self.stats = _StatsStack(mode, n, r, forgetting)
        self._init = _initial_stack(init_vector, r, n, "init_vector")
        self._init_nonzero = (np.zeros(r, dtype=bool) if self._init is None
                              else np.any(self._init, axis=1))
        self.h = np.zeros((r, n))
        self.solved = np.zeros(r, dtype=bool)
        self._k = 0

    def _solve(self, among: np.ndarray) -> np.ndarray:
        """Solve the trials of ``among`` that may solve; returns their mask."""
        p = self.stats.p
        # a zero p (p . p, which is what ||p|| == 0 tests) with a zero
        # initial vector has nothing to solve
        ok = among & ((np.vecdot(p, p) != 0.0) | self._init_nonzero)
        pos = np.flatnonzero(ok)
        if pos.size:
            self.h = self.h.copy()  # the last step returned the old one
        for part, mats in self.stats.dense(pos, self.stats.chunk):
            x0 = np.zeros((part.size, self.n)) if self._init is None else self._init[part]
            self.h[part] = cg_solve_stack(mats, p[part], x0, self.rank)
        self.mult_totals["basis"][pos] += _basis_build_charge(self.rank, self.n)
        self.solved |= ok
        return ok

    def step(self, u, d) -> StepOutput:
        """Consume one ``(R, N)`` regressor stack and its ``(R,)`` outputs."""
        r, n, m = self.trials, self.n, self.refresh_period
        u, d = _checked_stack(u, d, r, n)
        self.stats.update(u, d)
        stats_mults = _stats_cost(self.stats.mode, n)
        self.mult_totals["stats"] += stats_mults
        updated = np.zeros(r, dtype=bool)
        # the estimators have now seen k + 1 samples: mature from N on
        if self._k + 1 >= n and np.count_nonzero(self.solved) < r:
            updated = self._solve(~self.solved)
        y = np.vecdot(self.h, u)
        self.mult_totals["filter"] += n
        if self._k % m == 1 % m and np.count_nonzero(self.solved):
            updated |= self._solve(self.solved)
        self.steps += 1
        self.update_count += updated
        self._k += 1
        return StepOutput(y, updated, self.h, np.full(r, stats_mults + n))


class NlmsBatch(_Lockstep):
    """R independent NLMS filters stepped in lockstep.

    Trial ``i`` is the filter ``Nlms(n, step_size)`` fed with row ``i`` of
    every ``(U, d)`` pair: it updates when its regressor energy is positive
    and its error nonzero. ``step_size`` must lie in [0, 2].
    """

    def __init__(self, n: int, trials: int, step_size: float = 0.5):
        if not 0.0 <= step_size <= 2.0:
            raise ValueError(f"step_size must lie in [0, 2], got {step_size}")
        super().__init__(n, trials)
        self.step_size = float(step_size)
        self.h = np.zeros((self.trials, self.n))

    def step(self, u, d) -> StepOutput:
        """Consume one ``(R, N)`` regressor stack and its ``(R,)`` outputs."""
        r, n = self.trials, self.n
        u, d = _checked_stack(u, d, r, n)
        y = np.vecdot(self.h, u)
        energy = np.vecdot(u, u)
        e = d - y
        updated = (energy > 0.0) & (e != 0.0)
        scale = np.divide(self.step_size * e, energy, out=np.zeros(r), where=updated)
        # a fresh array every step, so the returned h_full is never written
        self.h = np.where(updated[:, None], self.h + scale[:, None] * u, self.h)
        mults = 2 * n + updated * (n + 2)
        self.mult_totals["filter"] += mults
        self.steps += 1
        self.update_count += updated
        return StepOutput(y, updated, self.h, mults)


def lockstep_families(batches) -> list:
    """Join unstepped ``batches`` fed the same streams for one pass; returns the families.

    KRR-APSP batches of one ``family.key`` join one family, in order, and
    the families' and CGRRF batches' full-symmetric statistics join one
    group. Neither changes a bit of any batch's output.
    """
    families = {}  # the one family of each key
    for batch in batches:
        if isinstance(batch, KrrApspBatch):
            family = families.setdefault(batch.family.key, batch.family)
            if family is not batch.family:
                family.join(batch)
    stacks = [family.stats for family in families.values()]
    stacks += [batch.stats for batch in batches if isinstance(batch, CgrrfBatch)]
    stacks = [stack for stack in stacks if stack.mode == "fullsym"]
    for stack in stacks[1:]:
        stacks[0].join(stack)
    return list(families.values())


def _one_row(x):
    # a single-stream value (a sample, an initial vector) as a one-trial batch's one-row stack
    return None if x is None else np.asarray(x, dtype=float)[None]


def _of_batch(name: str) -> property:
    return property(lambda self: getattr(self._batch, name))


def _of_trial(name: str) -> property:
    # a per-trial counter of the one-trial batch, as a plain int
    return property(lambda self: int(getattr(self._batch, name)[0]))


class _OneTrial:
    """A one-trial batch behind the single-stream interface.

    ``step`` returns a scalar ``StepOutput``; its ``h_full`` is a row the
    batch never writes again.
    """

    n = _of_batch("n")
    steps = _of_trial("steps")
    update_count = _of_trial("update_count")

    def __init__(self, batch):
        self._batch = batch

    def _step(self, u, d) -> StepOutput:
        out = self._batch.step(_one_row(u), _one_row(d))
        h_full = out.h_full[0]
        h_full.flags.writeable = False  # it may be the batch's live state
        return StepOutput(float(out.y[0]), bool(out.updated[0]), h_full, int(out.mults[0]))

    @property
    def update_rate(self) -> float:
        return self.update_count / self.steps if self.steps else 0.0

    @property
    def mult_totals(self) -> dict:
        return {cat: int(v[0]) for cat, v in self._batch.mult_totals.items()}

    @property
    def coefficients(self) -> np.ndarray:
        return self._batch.h[0].copy()


class KrrApsp(_OneTrial):
    """Krylov reduced-rank adaptive parallel subgradient projection filter.

    The one-trial view of :class:`KrrApspBatch`: ``KrrApsp(params, n, mode,
    h0)`` runs the recursion of ``KrrApspBatch(params, n, 1, mode, [h0])``.
    ``h0`` is a full-space initial vector, projected into the first basis
    (``h_tilde = S^T h0``); zero when omitted. Until the first basis is
    built the filter passes through, and ``basis`` and ``h_tilde`` are
    None.
    """

    name = "krr-apsp"
    params = _of_batch("params")
    build_count = _of_trial("build_count")
    skipped_zero_direction = _of_trial("skipped_zero_direction")
    cancelled_updates = _of_trial("cancelled_updates")

    def __init__(self, params: KrrParams, n: int, mode: str = "toeplitz", h0=None):
        super().__init__(KrrApspBatch(params, n, 1, mode=mode, h0=_one_row(h0)))
        self._basis = (None, None)  # (build count, BasisMatrix) last made

    def step(self, u, d: float) -> StepOutput:
        """Consume one sample pair and advance the filter."""
        return self._step(u, d)

    @property
    def basis(self) -> BasisMatrix | None:
        batch = self._batch
        if not batch.has_basis[0]:
            return None
        if self.build_count != self._basis[0]:
            self._basis = (self.build_count,
                           BasisMatrix(batch.basis[0, :, :batch.rank_eff[0]]))
        return self._basis[1]

    @property
    def h_tilde(self) -> np.ndarray | None:
        batch = self._batch
        return batch.h_tilde[0, :batch.rank_eff[0]].copy() if batch.has_basis[0] else None

    @property
    def coefficients(self) -> np.ndarray:
        """Full-dimension coefficient vector ``S h_tilde``."""
        basis = self.basis
        return np.zeros(self.n) if basis is None else basis.matrix @ self.h_tilde

    @property
    def last_relaxation(self) -> float | None:
        relax = float(self._batch.last_relaxation[0])
        return None if math.isnan(relax) else relax


class Cgrrf(_OneTrial):
    """Conjugate-gradient reduced-rank filter, the one-trial view of :class:`CgrrfBatch`."""

    name = "cgrrf"
    rank = _of_batch("rank")
    refresh_period = _of_batch("refresh_period")

    def __init__(self, n: int, rank: int, refresh_period: int = 10,
                 forgetting: float | None = None, mode: str = "toeplitz",
                 init_vector=None):
        super().__init__(CgrrfBatch(n, 1, rank, refresh_period, forgetting, mode,
                                    _one_row(init_vector)))

    def step(self, u, d: float) -> StepOutput:
        return self._step(u, d)


class Nlms(_OneTrial):
    """Normalized least mean squares filter, the one-trial view of :class:`NlmsBatch`."""

    name = "nlms"
    step_size = _of_batch("step_size")

    def __init__(self, n: int, step_size: float = 0.5):
        super().__init__(NlmsBatch(n, 1, step_size))

    def step(self, u, d: float) -> StepOutput:
        return self._step(u, d)


def _check_delta(delta: float, source: str = "delta") -> None:
    # I / delta must be finite too: below about 5.6e-309 the reciprocal overflows
    if not (0.0 < delta < math.inf and 1.0 / float(delta) < math.inf):
        raise ValueError(f"{source} {delta} must be positive with a finite reciprocal")


class Rls:
    """Exponentially weighted recursive least squares filter.

    The inverse-correlation matrix starts at ``I / delta``; an explicit
    ``delta`` must be finite and positive with a finite reciprocal. When
    ``delta`` is omitted it is set on the first sample to ``0.01`` times the
    measured input power (falling back to ``0.01`` on a zero first sample);
    a first sample whose power makes it infinite, zero or too small to
    invert is rejected like a non-finite one, and the realized value is kept
    as ``delta``.
    """

    name = "rls"

    def __init__(self, n: int, forgetting: float = 0.999, delta: float | None = None):
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must lie in (0, 1]")
        if delta is not None:
            _check_delta(delta)
        self.n = check_int(n, "filter length")
        self.forgetting = float(forgetting)
        self.delta = delta
        self.h = np.zeros(self.n)
        self._pinv = None
        self._mults = 3 * self.n * self.n + 4 * self.n  # charged at every step
        self.steps = 0
        self.update_count = 0
        self.mult_totals = _zero_counters()

    @property
    def coefficients(self) -> np.ndarray:
        return self.h.copy()

    update_rate = _OneTrial.update_rate

    def step(self, u, d: float) -> StepOutput:
        if self._pinv is None and self.delta is None:  # a first sample must set a usable delta
            self._first_delta(as_vector(u, self.n))
        u, d = _checked_stack(_one_row(u), _one_row(d), 1, self.n)
        y = self._update(u[0], float(d[0]))
        return StepOutput(y, True, self.h.copy(), self._mults)

    def _first_delta(self, v: np.ndarray) -> float:
        """The ``delta`` of a finite first regressor: 0.01 times its power, or 0.01."""
        with np.errstate(over="ignore"):  # an overflow is rejected below
            delta = 0.01 * (float(v @ v) / self.n or 1.0)
        _check_delta(delta, "the first sample's delta")
        return delta

    def _update(self, v: np.ndarray, d: float) -> float:
        """One recursion on a finite contiguous ``(N,)`` regressor; returns ``y``.

        ``v`` is only read, and ``h`` is a fresh array after every call. A ``v``
        that overflows ``forgetting + v . P v`` raises before any state changes.
        """
        pinv = self._pinv
        if pinv is None:
            delta = self._first_delta(v) if self.delta is None else self.delta
            # both N x N arrays start on a cache line: on the allocator's
            # 16-byte alignment a step took about 79 against 61 us at N = 200
            # (one BLAS thread, 2-core x86-64), with the same arithmetic
            pinv = np.divide(np.eye(self.n), delta, out=_cache_aligned(self.n))
        y = float(self.h @ v)
        pi = pinv @ v
        denom = self.forgetting + float(v @ pi)
        if not math.isfinite(denom):  # the gain would be 0 or NaN
            raise ValueError("the regressor overflows the RLS gain: v . P v is not finite")
        if self._pinv is None:
            # _outer buffers the rank-one correction: a step allocates no N x N
            # temporaries, which the allocator may return to the system and
            # fault in again at every step
            self.delta, self._pinv, self._outer = delta, pinv, _cache_aligned(self.n)
        gain = pi / denom
        self.h = self.h + (d - y) * gain
        # gain pi^T as one BLAS product, each entry one rounded product as in
        # np.outer, which broadcasts at about twice the cost
        self._pinv -= np.dot(gain[:, None], pi[None, :], out=self._outer)
        self._pinv /= self.forgetting
        self.mult_totals["filter"] += self._mults
        self.steps += 1
        self.update_count += 1
        return y
