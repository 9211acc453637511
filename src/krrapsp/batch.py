"""KRR-APSP over a Monte-Carlo ensemble: R trials stepped in lockstep.

:class:`KrrApspBatch` runs R independent :class:`~krrapsp.filters.KrrApsp`
filters at once, on stacked ``(R, N)`` samples. The stacked kernels below
make the BLAS calls of the single-stream code trial by trial, so each
trial's arithmetic is the scalar filter's.

The experiment harness imports this module only when an experiment has a
KRR-APSP filter: run without cached bytecode, every fresh import of the
package compiles its sources, and this module would add a tenth to that.
"""

from __future__ import annotations

import numpy as np

from .estimation import MODES
from .filters import (
    KrrParams,
    StepOutput,
    _basis_build_charge,
    _stats_cost,
    _zero_counters,
)
from .linalg import DegenerateCrossCorrelationError
from .tolerances import TOL


def stacked_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products along the last axis, each the BLAS dot of ``x[i] @ y[i]``."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def stacked_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Products ``a[i] @ x[i]``, each the BLAS call of the unstacked product."""
    return np.matmul(a, x[..., None])[..., 0]


def krylov_basis_stack(matrices: np.ndarray, seeds: np.ndarray, rank: int):
    """:func:`~krrapsp.linalg.krylov_basis` for a stack of ``(matrix, seed)`` pairs.

    ``matrices`` is ``(R, N, N)`` (symmetric) and ``seeds`` is ``(R, N)``
    with no zero row. Every row makes the BLAS calls and elementwise
    operations of ``krylov_basis``, so its basis is the same. Returns
    ``(bases, ranks)``: ``bases`` is ``(R, N, rank)`` with the effective
    rank ``ranks[i]`` of row ``i`` in its leading columns and zeros after
    them. Raises as ``BasisMatrix`` does if a basis is not orthonormal.
    """
    count, n = seeds.shape
    norms = divisors = np.sqrt(stacked_dot(seeds, seeds))
    tiny = (norms < TOL.seed_rescale_below) & np.any(seeds, axis=1)
    if tiny.any():
        # rows whose p.p underflows are normalized as krylov_basis does
        scales = np.where(tiny, np.max(np.abs(seeds), axis=1), 1.0)
        seeds = seeds / scales[:, None]
        divisors = np.sqrt(stacked_dot(seeds, seeds))
        norms = scales * divisors
    if not np.all(norms > 0.0):
        raise DegenerateCrossCorrelationError("degenerate cross-correlation: ||p|| = 0")
    if not 1 <= rank <= n:
        raise ValueError(f"requested rank {rank} outside 1..{n}")
    tol = TOL.basis_truncation_rel * norms
    cols = np.zeros((count, n, rank))
    cols[:, :, 0] = seeds / divisors[:, None]
    ranks = np.ones(count, dtype=np.int64)
    growing = np.ones(count, dtype=bool)
    for i in range(1, rank):
        w = stacked_matvec(matrices, cols[:, :, i - 1])
        built = cols[:, :, :i]
        w = w - stacked_matvec(built, stacked_matvec(built.transpose(0, 2, 1), w))
        w = w - stacked_matvec(built, stacked_matvec(built.transpose(0, 2, 1), w))
        nw = np.sqrt(stacked_dot(w, w))
        growing &= nw > tol
        if not growing.any():
            break
        cols[growing, :, i] = w[growing] / nw[growing, None]
        ranks[growing] += 1
    # the identity on each row's leading ranks[i] columns, zeros after them
    eye = np.eye(rank) * (np.arange(rank) < ranks[:, None])[:, None, :]
    gram_defect = float(np.max(np.abs(np.matmul(cols.transpose(0, 2, 1), cols) - eye)))
    if gram_defect > TOL.orthonormality:
        raise ValueError(f"basis columns not orthonormal: max |S^T S - I| = {gram_defect:.3e}")
    return cols, ranks


# bytes of the dense matrices one basis-build chunk may hold
_BUILD_CHUNK_BYTES = 1 << 18


class KrrApspBatch:
    """R independent :class:`~krrapsp.filters.KrrApsp` filters stepped in lockstep.

    Trial ``i`` behaves as ``KrrApsp(params, n, mode, h0[i])`` fed with row
    ``i`` of every ``(U, d)`` pair: the same update flags, multiplication
    charges and counters, and the same outputs: the stacked products make
    the scalar filter's BLAS calls trial by trial, on arrays of its shapes,
    so the arithmetic is the same.

    All trials share the step index, hence the warm-up gate and the
    refresh steps. What differs between trials is held in per-trial masks:
    passthrough (no basis yet), the violated sets, zero-direction skips,
    cancelled updates, and the effective rank. A basis that truncates to
    ``D_eff < D`` carries zero columns after its ``D_eff`` leading ones,
    and each step handles the trials of one effective rank together; a
    refresh that changes ``D_eff`` re-embeds that trial by projection.

    State: the statistics as ``(R, N)`` Toeplitz first rows or ``(R, N, N)``
    matrices, ``p`` as ``(R, N)``, the sample ring and the cached reduced
    regressors as ``(R, ring, N)`` and ``(R, ring, D)`` (newest first), the
    bases as ``(R, N, D)`` and the reduced filters as ``(R, D)``. Counters
    are ``(R,)`` integer arrays; ``mult_totals`` holds one per category.
    Basis builds run on chunks of trials, so at most
    ``_BUILD_CHUNK_BYTES`` of dense matrices exist at a time.
    """

    def __init__(self, params: KrrParams, n: int, trials: int, mode: str = "toeplitz",
                 h0=None):
        if params.rank > n:
            raise ValueError(f"rank {params.rank} exceeds filter length {n}")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 < params.forgetting < 1.0:
            raise ValueError(f"forgetting factor must lie in (0, 1), got {params.forgetting}")
        if trials < 1:
            raise ValueError("trials must be at least 1")
        self.params = params
        self.n = n = int(n)
        self.trials = r = int(trials)
        self.mode = mode
        d = params.rank
        self._h0 = None
        if h0 is not None:
            h0 = np.array(h0, dtype=float)
            if h0.shape != (r, n) or not np.all(np.isfinite(h0)):
                raise ValueError(f"h0 must be a finite ({r}, {n}) array")
            self._h0 = h0
        self._chunk = max(1, _BUILD_CHUNK_BYTES // (8 * n * n))
        self._stats = np.zeros((r, n) if mode == "toeplitz" else (r, n, n))
        self._p = np.zeros((r, n))
        ring = params.projections + params.error_dim - 1
        self._us = np.zeros((r, ring, n))
        self._ds = np.zeros((r, ring))
        self._ut = np.zeros((r, ring, d))
        self._ring = 0  # filled ring slots, shared by all trials
        self._ut_valid = np.zeros(r, dtype=bool)
        self.has_basis = np.zeros(r, dtype=bool)
        self.basis = np.zeros((r, n, d))
        self.rank_eff = np.zeros(r, dtype=np.int64)
        self.h_tilde = np.zeros((r, d))
        self._k = 0
        self.steps = np.zeros(r, dtype=np.int64)
        self.update_count = np.zeros(r, dtype=np.int64)
        self.build_count = np.zeros(r, dtype=np.int64)
        self.skipped_zero_direction = np.zeros(r, dtype=np.int64)
        self.cancelled_updates = np.zeros(r, dtype=np.int64)
        self.mult_totals = {cat: np.zeros(r, dtype=np.int64) for cat in _zero_counters()}

    # -- internals ---------------------------------------------------------

    def _seeded(self, among: np.ndarray) -> np.ndarray:
        # trials of ``among`` whose cross-correlation estimate is nonzero;
        # KrrApsp skips a build (the first) or keeps its basis (a refresh)
        # on a zero p
        return among & np.any(self._p, axis=1)

    def _build_bases(self, idx: np.ndarray) -> None:
        """Build and install the Krylov bases of trials ``idx``, chunk by chunk.

        A trial's first basis starts its reduced filter at ``S^T h0`` (zero
        without ``h0``); a later basis of another effective rank re-embeds
        the full vector by projection, as ``KrrApsp.rebase`` does.
        """
        pos = np.flatnonzero(idx)
        if pos.size == 0:
            return
        n, rank = self.n, self.params.rank
        if self.mode == "toeplitz":
            lags = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
            dense = np.empty((min(self._chunk, pos.size), n, n))
        for lo in range(0, pos.size, self._chunk):
            part = pos[lo:lo + self._chunk]
            if self.mode == "toeplitz":
                # SymMatrix(first_row=...).dense(), one chunk at a time
                mats = np.take(self._stats[part], lags, axis=1, out=dense[:part.size])
            else:
                # chunks of consecutive trials are views, others copies
                mats = self._stats[part[0]:part[-1] + 1]
                if mats.shape[0] != part.size:
                    mats = self._stats[part]
            seeds = self._p[part]
            if not (np.all(np.isfinite(mats)) and np.all(np.isfinite(seeds))):
                raise ValueError("statistics estimates must be finite")
            bases, ranks = krylov_basis_stack(mats, seeds, rank)
            for j in np.flatnonzero(ranks != self.rank_eff[part]):
                i, old, new = part[j], self.rank_eff[part[j]], ranks[j]
                if self.has_basis[i]:
                    full = _leading(self.basis[i], old) @ self.h_tilde[i, :old]
                    self.mult_totals["rebase"][i] += (old + new) * n
                else:
                    full = None if self._h0 is None else self._h0[i]
                self.h_tilde[i] = 0.0
                if full is not None:
                    self.h_tilde[i, :new] = _leading(bases[j], new).T @ full
            self.basis[part] = bases
            self.rank_eff[part] = ranks
        self.build_count[pos] += 1
        self.mult_totals["basis"][pos] += _basis_build_charge(rank, n)
        self.has_basis[pos] = True
        self._ut_valid[pos] = False

    def _update_stats(self, u: np.ndarray, d: np.ndarray) -> None:
        # CorrelationEstimator.update for every trial, in place
        g = self.params.forgetting
        self._stats *= g
        if self.mode == "toeplitz":
            self._stats += u[:, :1] * u
        else:
            # one row of the outer products at a time: no (R, N, N) temporary
            for i in range(self.n):
                self._stats[:, i] += u[:, i:i + 1] * u
        self._p *= g
        self._p += d[:, None] * u

    def _reduced_step(self, idx, rank: int, u: np.ndarray):
        """Transform, output and update of trials ``idx``, all of basis rank ``rank``.

        Works on contiguous ``[..., :rank]`` arrays, the shapes of
        KrrApsp's own, so that every product is its BLAS call. Returns
        ``(y, updated, h_full, transform_mults, filter_mults)``.
        """
        p = self.params
        n, ring = self.n, self._ring
        if isinstance(idx, slice) and rank == p.rank:
            basis, ut = self.basis, self._ut  # the whole batch at full rank
        else:
            basis = np.ascontiguousarray(self.basis[idx][:, :, :rank])
            ut = np.ascontiguousarray(self._ut[idx][:, :, :rank])
        basis_t = basis.transpose(0, 2, 1)
        count = basis.shape[0]

        # cached reduced regressors: the newest column for every trial, all
        # columns for trials whose basis changed since the last step
        ut[:, 0] = stacked_matvec(basis_t, u)
        stale = ~self._ut_valid[idx]
        if stale.any():
            us = self._us[idx]
            for t in range(1, ring):
                ut[stale, t] = stacked_matvec(basis_t[stale], us[stale, t])
        if ut is not self._ut:
            self._ut[idx, :, :rank] = ut
        self._ut_valid[idx] = True
        transform_mults = np.where(stale, ring, 1) * rank * n

        h = np.ascontiguousarray(self.h_tilde[idx][:, :rank])
        ips = stacked_dot(ut[:, :ring], h[:, None, :])
        filter_mults = np.full(count, ring * rank)
        q_eff = min(p.projections, ring)
        w = p.weight_array[:q_eff]
        w = w / float(w.sum())
        f_dir = np.zeros_like(h)
        loss_sum = np.zeros(count)
        delta_norm_sum = np.zeros(count)
        contributed = np.zeros(count, dtype=bool)
        for j in range(q_eff):
            r_eff = min(p.error_dim, ring - j)
            e = ips[:, j:j + r_eff] - self._ds[idx, j:j + r_eff]
            sq = stacked_dot(e, e)
            filter_mults += r_eff
            violated = sq > p.rho
            if not violated.any():
                continue
            # (count, rank, r_eff) blocks, laid out as KrrApsp's column_stack
            block = np.ascontiguousarray(ut[:, j:j + r_eff].transpose(0, 2, 1))
            a = stacked_matvec(block, e)
            c = stacked_dot(a, a)
            filter_mults += violated * (r_eff * rank + rank)
            direction_scale = np.sum(block * block, axis=(1, 2)) * sq
            zero = violated & (c <= TOL.zero_direction_rel ** 2 * direction_scale)
            self.skipped_zero_direction[idx] += zero
            ok = violated & ~zero
            gap = p.rho - sq
            c_ok = np.where(ok, c, 1.0)
            coef = np.where(ok, w[j] * gap / (2.0 * c_ok), 0.0)
            f_dir += coef[:, None] * a
            loss_sum += np.where(ok, w[j] * gap * gap / (4.0 * c_ok), 0.0)
            delta_norm_sum += np.abs(coef) * np.sqrt(c)
            filter_mults += ok * (7 + rank)
            contributed |= ok

        nf = stacked_dot(f_dir, f_dir)
        filter_mults += contributed * rank
        cancelled = contributed & (np.sqrt(nf) <= TOL.cancellation * delta_norm_sum)
        self.cancelled_updates[idx] += cancelled
        updated = contributed & ~cancelled
        relax = loss_sum / np.where(updated, nf, 1.0)
        scale = p.step_size * relax
        h = np.where(updated[:, None], h + scale[:, None] * f_dir, h)
        filter_mults += updated * (2 + rank)
        self.h_tilde[idx, :rank] = h
        return ips[:, 0], updated, stacked_matvec(basis, h), transform_mults, filter_mults

    # -- streaming interface ------------------------------------------------

    def step(self, u, d) -> StepOutput:
        """Consume one ``(R, N)`` regressor stack and its ``(R,)`` outputs."""
        u = np.asarray(u, dtype=float)
        d = np.asarray(d, dtype=float)
        r, n = self.trials, self.n
        if u.shape != (r, n) or d.shape != (r,):
            raise ValueError(f"expected u of shape {(r, n)} and d of shape {(r,)}, "
                             f"got {u.shape} and {d.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(d))):
            raise ValueError("sample entries must be finite")
        # age the rings slot by slot: an overlapping slice copy would
        # allocate a temporary of the whole ring every step
        for ring in (self._us, self._ds, self._ut):
            for age in range(ring.shape[1] - 1, 0, -1):
                ring[:, age] = ring[:, age - 1]
        self._us[:, 0] = u
        self._ds[:, 0] = d
        self._ring = min(self._ring + 1, self._us.shape[1])
        self._update_stats(u, d)
        stats_mults = _stats_cost(self.mode, n)
        self.mult_totals["stats"] += stats_mults

        # the estimators have now seen k + 1 samples: mature from N on
        if self._k + 1 >= n and not self.has_basis.all():
            self._build_bases(self._seeded(~self.has_basis))

        # trials without a basis pass through: output 0, no update
        y = np.zeros(r)
        updated = np.zeros(r, dtype=bool)
        h_full = np.zeros((r, n))
        mults = np.full(r, stats_mults, dtype=np.int64)
        # (a set, not np.unique, which imports numpy.ma on its first call)
        for rank in sorted(set(self.rank_eff[self.has_basis].tolist())):
            group = self.has_basis & (self.rank_eff == rank)
            idx = slice(None) if group.all() else np.flatnonzero(group)
            y[idx], updated[idx], h_full[idx], transform_mults, filter_mults = \
                self._reduced_step(idx, rank, u[idx])
            self.mult_totals["transform"][idx] += transform_mults
            self.mult_totals["filter"][idx] += filter_mults
            mults[idx] += transform_mults + filter_mults
        self.steps += 1
        self.update_count += updated
        if self._k % self.params.refresh_period == 1 % self.params.refresh_period:
            self._build_bases(self._seeded(self.has_basis))
        self._k += 1
        return StepOutput(y, updated, h_full, mults)


def _leading(basis: np.ndarray, rank: int) -> np.ndarray:
    # the leading columns of a zero-padded basis, laid out as a BasisMatrix
    return np.ascontiguousarray(basis[:, :rank])
