"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, explicit constructions,
textbook algorithms) and shares no code with the package internals, except
the frozen kernels and single-stream filters at the end of the module.
These are the library's scalar code as it was before each algorithm was
written once, for a stack of trials: the Krylov basis, conjugate gradient
solve, statistics estimator and Toeplitz expansion as scalar kernels, and
the filters built on them. They use the library's value types
(``SymMatrix``, ``BasisMatrix``) and input validation, but none of its
kernels, so the references stay independent of the code they check.
``SetLoopKrrApspBatch`` is the batch itself with its old set-by-set
reduced step, run per member and per effective rank: it freezes the order
of the stacked products, which the family's one pass over all sets of all
members must reproduce bit for bit, for every error length r.
``FrozenRls`` is the library's RLS step as it was before its arithmetic
moved into a core that the harness feeds a chunk at a time; the
trial-by-trial records step it, so the harness is checked against that
arithmetic and not against its own core. ``frozen_error_bound_half_spaces``
and ``frozen_find_feasible_point`` are ``verify``'s static-run half-space
build (public ``HalfSpace``s, one validated anchor copy each) and
feasibility oracle (every reduced product recomputed) as they were before
the build shared one anchor per step; with ``max_iter=0`` the frozen oracle
is the check at the start, whose point the exact oracle returns bit for
bit, and ``brute_force_projection`` the exact answer it must agree with
elsewhere.
The ``frozen_`` functions after them are ``verify``'s per-item loops (one
numpy call per random trial, fixed vector, rank or half-space) as they were
before each became one stacked call.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np

from krrapsp import verify
from krrapsp.estimation import MODES
from krrapsp.filters import KrrApspBatch, KrrParams, StepOutput, _KrrFamily, _stats_cost
from krrapsp.linalg import (
    BasisMatrix,
    DegenerateCrossCorrelationError,
    HalfSpace,
    SymMatrix,
    _norm,
    as_vector,
    cg_solve_stack,
    condition_number,
    krylov_basis_stack,
    project_half_space,
)
from krrapsp.tolerances import TOL


def stacked_dot(x, y):
    """Inner products along the last axis by ``np.matmul`` on inserted axes, a form of
    ``np.vecdot`` that makes the same per-row BLAS dots."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def stacked_matvec(a, x):
    """Products ``a[i] @ x[i]`` by ``np.matmul``, a form of ``np.matvec`` for the reference."""
    return np.matmul(a, x[..., None])[..., 0]


def naive_quadratic_form(x, a):
    """x^T A x by explicit triple loop."""
    n = len(x)
    total = 0.0
    for i in range(n):
        row = 0.0
        for j in range(n):
            row += a[i][j] * x[j]
        total += x[i] * row
    return total


def qr_krylov_projector(a, p, rank):
    """Orthogonal projector onto span{p, Ap, ..., A^(rank-1) p} via QR."""
    cols = []
    v = np.asarray(p, dtype=float)
    for _ in range(rank):
        cols.append(v / np.linalg.norm(v))
        v = a @ v
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q @ q.T


def halfspace_projection_closed_form(x, normal, anchor, offset):
    """Minimizer of ||y - x|| subject to <y - anchor, normal> + offset <= 0."""
    g = float((x - anchor) @ normal) + offset
    if g <= 0:
        return np.asarray(x, dtype=float).copy()
    return x - (g / float(normal @ normal)) * normal


def jacobi_eigenvalues(a, tol=1e-14, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(m[p, q]))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(m[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def weighted_window_sums(updates, gamma, mode):
    """Direct evaluation of the exponentially weighted sums.

    ``updates`` is a list of (u, d) pairs in arrival order. Returns
    (r_term, p) where r_term is the first-row vector (toeplitz) or the
    full matrix (fullsym).
    """
    n = len(updates[0][0])
    p = np.zeros(n)
    r = np.zeros(n) if mode == "toeplitz" else np.zeros((n, n))
    count = len(updates)
    for j, (u, d) in enumerate(updates):
        w = gamma ** (count - 1 - j)
        if mode == "toeplitz":
            r = r + w * u[0] * u
        else:
            r = r + w * np.outer(u, u)
        p = p + w * d * u
    return r, p


def reference_parallel_update(h_tilde, reduced_cols, d_values, q, r, rho,
                              step_size, weights, project_half_space, HalfSpace):
    """One reduced-space update evaluated through explicit projections.

    ``reduced_cols`` holds the reduced regressors newest-first (one per
    ring slot); the update is the relaxed weighted combination of the
    subgradient projections onto each bounded-error half-space, with the
    parallel over-relaxation factor. Returns (h_next, updated, m_factor).
    """
    ring = len(reduced_cols)
    q_eff = min(q, ring)
    w = np.asarray(weights[:q_eff], dtype=float)
    w = w / w.sum()
    projections = []
    violated = []
    for j in range(q_eff):
        r_eff = min(r, ring - j)
        block = np.column_stack([reduced_cols[j + t] for t in range(r_eff)])
        dv = np.asarray([d_values[j + t] for t in range(r_eff)])
        e = block.T @ h_tilde - dv
        g = float(e @ e) - rho
        if g <= 0:
            projections.append(h_tilde.copy())
            violated.append(False)
            continue
        normal = 2.0 * (block @ e)
        if float(normal @ normal) == 0.0:
            projections.append(h_tilde.copy())  # skipped corner
            violated.append(False)
            continue
        hs = HalfSpace(normal=normal, offset=g, anchor=h_tilde)
        projections.append(project_half_space(h_tilde, hs))
        violated.append(True)
    if not any(violated):
        return h_tilde.copy(), False, None
    diffs = [p - h_tilde for p in projections]
    f_dir = sum(wj * dj for wj, dj in zip(w, diffs))
    loss = sum(wj * float(dj @ dj) for wj, dj in zip(w, diffs))
    nf = float(f_dir @ f_dir)
    if nf == 0.0:
        return h_tilde.copy(), False, None
    m_factor = loss / nf
    return h_tilde + step_size * m_factor * f_dir, True, m_factor


def energy_norm_best_approx(a, p, h_star, rank):
    """Best approximation of h_star over the Krylov span in the A-norm.

    Solved by normal equations in the A inner product over an explicit
    orthonormalized power basis.
    """
    cols = []
    v = np.asarray(p, dtype=float)
    for _ in range(rank):
        cols.append(v / np.linalg.norm(v))
        v = a @ v
    basis, _ = np.linalg.qr(np.column_stack(cols))
    gram = basis.T @ a @ basis
    rhs = basis.T @ (a @ h_star)
    return basis @ np.linalg.solve(gram, rhs)


def least_squares_fit(us, ds):
    """Exact unregularized LS solve on stacked regressors."""
    a = np.vstack(us)
    b = np.asarray(ds, dtype=float)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def sysid_noise_std(scenario):
    """A system identification scenario's noise level, one window at a time.

    Seeds the calibration substream afresh from the scenario's seed, colors
    it with the scenario's filter, and adds the clean output power of the
    ``10 n`` calibration windows in a Python loop of windowed dot products.
    """
    cfg = scenario.config
    if cfg.snr_db == math.inf:
        return 0.0
    child = np.random.SeedSequence(int(cfg.seed)).spawn(6)[5]
    rng_calib = np.random.Generator(np.random.PCG64(child))
    n = cfg.n
    white = rng_calib.standard_normal(10 * n + n - 1 + cfg.fir_len - 1)
    calib = np.convolve(white, scenario.coloring_fir, mode="valid")
    z2 = 0.0
    count = 0
    for k in range(n - 1, len(calib)):
        window = calib[k - n + 1:k + 1][::-1]
        z = float(window @ scenario.h_star)
        z2 += z * z
        count += 1
    power = z2 / count
    return math.sqrt(power / (10.0 ** (cfg.snr_db / 10.0)))


def sysid_stream_per_step(scenario, count):
    """A system identification scenario's samples, drawn all at once.

    Seeds the input and noise substreams afresh from the scenario's seed
    and takes the system, coloring filter and noise level from the
    scenario. Yields ``(u, d, truth)`` per step.
    """
    cfg = scenario.config
    children = np.random.SeedSequence(int(cfg.seed)).spawn(6)
    rng_input, rng_noise = (np.random.Generator(np.random.PCG64(c)) for c in children[2:4])
    n = cfg.n
    if count == 0:
        return
    white = rng_input.standard_normal(count + n - 1 + cfg.fir_len - 1)
    x = np.convolve(white, scenario.coloring_fir, mode="valid")
    noise = (rng_noise.standard_normal(count) * scenario.noise_std
             if scenario.noise_std > 0.0 else np.zeros(count))
    for k in range(count):
        window = x[k:k + n][::-1].copy()
        truth = scenario.h_star
        if cfg.change_at is not None and k >= cfg.change_at:
            truth = scenario.h_star_post
        yield window, float(window @ truth) + float(noise[k]), truth


def cdma_stream_per_step(scenario, count):
    """A CDMA scenario's samples, one Python step and one draw at a time.

    Seeds the bit and noise substreams afresh from the scenario's seed,
    replays the construction's previous-bit draws, and takes each user's
    amplitude, partial signatures and first previous bit from the
    scenario. Yields ``(u, d)`` per step.
    """
    cfg = scenario.config
    children = np.random.SeedSequence(int(cfg.seed)).spawn(5)
    rng_bits, rng_noise = (np.random.Generator(np.random.PCG64(c)) for c in children[2:4])
    for _ in range(cfg.users - 1):
        rng_bits.integers(0, 2)

    def fresh(specs):
        return [[s.amplitude, s.tail, s.head, s.prev_bit] for s in specs]

    users = fresh(scenario._pre_users)
    for k in range(count):
        if cfg.change_at is not None and k == cfg.change_at:
            users = users[:1] + fresh(scenario._post_users)
        u = np.zeros(scenario.n)
        desired_bit = 0
        for idx, user in enumerate(users):
            bit = 1 - 2 * int(rng_bits.integers(0, 2))
            if idx == 0:
                desired_bit = bit
            amplitude, tail, head, prev = user
            u += amplitude * (prev * tail + bit * head)
            user[3] = bit
        if scenario.noise_std > 0.0:
            u = u + scenario.noise_std * rng_noise.standard_normal(scenario.n)
        yield u, float(desired_bit)


def trial_by_trial_records(config):
    """The records of ``run_experiment(config)``, every filter run trial by trial.

    The harness loop before the lockstep batches: each trial builds its
    scenario and one single-stream filter per spec (the frozen ones of this
    module, ``FrozenRls`` for RLS), runs them over its samples one step at a
    time, and the per-step metrics are added over trials in trial-index
    order.
    """
    from dataclasses import replace

    from krrapsp import CdmaScenario, SysIdScenario
    from krrapsp.experiments import MetricsRecord, trial_seeds

    iters = config.iters
    sums = {spec.label: np.zeros((4, iters)) for spec in config.filters}
    for seed in trial_seeds(config.seed, config.runs):
        if config.kind == "sysid":
            scen = SysIdScenario(replace(config.scenario, seed=int(seed)))
            n, mode, signature = config.scenario.n, "toeplitz", None
        else:
            scen = CdmaScenario(replace(config.scenario, seed=int(seed)))
            n, mode, signature = scen.n, "fullsym", scen.signature
        filters = {}
        for spec in config.filters:
            opts = dict(spec.options)
            init = None
            if spec.algorithm in ("krr-apsp", "cgrrf"):
                if opts.pop("init_from_signature", signature is not None):
                    init = signature
            if spec.algorithm == "krr-apsp":
                filt = KrrApsp(opts.pop("params"), n, mode=mode, h0=init, **opts)
            elif spec.algorithm == "cgrrf":
                filt = Cgrrf(n, mode=mode, init_vector=init, **opts)
            elif spec.algorithm == "nlms":
                filt = Nlms(n, **opts)
            else:
                filt = FrozenRls(n, **opts)
            filters[spec.label] = filt
        trial = {label: np.zeros((4, iters)) for label in filters}
        for s in scen.samples(iters):
            for label, filt in filters.items():
                out = filt.step(s.u, s.d)
                err = s.d - out.y
                mis = math.nan
                if s.truth_h is not None:
                    diff = s.truth_h - out.h_full
                    mis = float(diff @ diff) / float(s.truth_h @ s.truth_h)
                trial[label][:, s.k] = (err * err, mis, float(out.updated), out.mults)
        for label in filters:
            sums[label] += trial[label]

    records = []
    for spec in config.filters:
        se, mis, upd, mults = sums[spec.label] / config.runs
        with np.errstate(divide="ignore"):
            mse_db = 10.0 * np.log10(se)
            mis_db = 10.0 * np.log10(mis)
        for k in range(iters):
            records.append(MetricsRecord(
                k=k, algorithm=spec.label, mse_db=float(mse_db[k]),
                mismatch_db=float(mis_db[k]), update_rate=float(upd[k]),
                mults=float(mults[k])))
    return records


# ---------------------------------------------------------------------------
# frozen scalar kernels
# ---------------------------------------------------------------------------
#
# krylov_basis, cg_solve and CorrelationEstimator as the library wrote them
# before they became one-row calls of its stacked kernels, kept unchanged
# except that krylov_basis truncates relative to ||R q|| as the library now
# does, and the lag-index gather that SymMatrix.dense() used for a Toeplitz
# row.


def toeplitz_gather(first_row):
    """Symmetric Toeplitz matrix of a first row: entry (i, j) is row[|i - j|]."""
    n = len(first_row)
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    return np.asarray(first_row, dtype=float)[idx]


def krylov_basis(matrix: SymMatrix, p, rank: int, tol: float | None = None) -> BasisMatrix:
    """Orthonormal basis of ``span{p, Rp, ..., R^(D_eff-1) p}``.

    Built by the symmetric Arnoldi (Lanczos) recurrence with full
    reorthogonalization: each new direction is orthogonalized against all
    previous columns twice by classical Gram-Schmidt. The effective rank
    ``D_eff`` falls short of ``rank`` only when the Krylov sequence becomes
    numerically dependent: a new direction ``R q`` whose norm after
    reorthogonalization is at most ``TOL.basis_truncation_rel * ||R q||``
    ends the build.

    Parameters
    ----------
    matrix : SymMatrix
        Symmetric PSD matrix generating the subspace.
    p : array_like
        Seed vector; must have norm greater than ``tol``. With the default
        ``tol`` any nonzero seed qualifies: one so small that ``p.p``
        underflows is normalized through ``p / max|p|``.
    rank : int
        Requested dimension D, ``1 <= rank <= N``.
    tol : float, optional
        Seed threshold. Defaults to ``1e-10 * ||p||``.

    Raises
    ------
    DegenerateCrossCorrelationError
        If ``||p|| <= tol`` (callers handle warm-up).
    """
    seed = as_vector(p, matrix.n)
    norm_p = float(np.linalg.norm(seed))
    divisor = norm_p
    if norm_p < TOL.seed_rescale_below and np.any(seed):
        # p.p underflows: normalize p / max|p| and scale its norm back
        scale = float(np.max(np.abs(seed)))
        seed = seed / scale
        divisor = float(np.linalg.norm(seed))
        norm_p = scale * divisor
    if tol is None:
        tol = TOL.basis_truncation_rel * norm_p
    if norm_p == 0.0 or norm_p <= tol:
        raise DegenerateCrossCorrelationError(
            f"degenerate cross-correlation: ||p|| = {norm_p:.3e} <= tol = {tol:.3e}")
    if not 1 <= rank <= matrix.n:
        raise ValueError(f"requested rank {rank} outside 1..{matrix.n}")

    cols = np.empty((matrix.n, rank))
    cols[:, 0] = seed / divisor
    d_eff = 1
    for _ in range(rank - 1):
        w = matrix.matvec(cols[:, d_eff - 1])
        w_norm = float(np.linalg.norm(w))
        built = cols[:, :d_eff]
        w = w - built @ (built.T @ w)
        w = w - built @ (built.T @ w)
        nw = float(np.linalg.norm(w))
        if nw <= TOL.basis_truncation_rel * w_norm:
            break
        cols[:, d_eff] = w / nw
        d_eff += 1
    return BasisMatrix(cols[:, :d_eff])


def cg_solve(matrix: SymMatrix, b, x0=None, iters: int | None = None,
             residual_tol: float = 0.0) -> np.ndarray:
    """Conjugate gradient iterations on ``R h = b``.

    Runs at most ``iters`` steps from ``x0`` (zero by default). Stops early
    on a vanishing residual or a non-positive curvature direction
    (breakdown on semidefinite systems), returning the current iterate.
    With exact arithmetic and ``x0 = 0`` the ``D``-step iterate is the best
    approximation of the solution in the energy norm over the Krylov
    subspace of dimension ``D``.
    """
    rhs = as_vector(b, matrix.n)
    x = np.zeros(matrix.n) if x0 is None else as_vector(x0, matrix.n).copy()
    if iters is None:
        iters = matrix.n
    r = rhs - matrix.matvec(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(rhs))
    stop = max(residual_tol * b_norm, 0.0) ** 2
    for _ in range(iters):
        if rs <= stop or rs == 0.0:
            break
        ap = matrix.matvec(p)
        curvature = float(p @ ap)
        if curvature <= 0.0:
            break
        alpha = rs / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x


class CorrelationEstimator:
    """Exponentially weighted estimates of R and p.

    Updates follow
    ``r <- gamma*r + u[0]*u`` (Toeplitz) or ``R <- gamma*R + u u^T`` (full),
    and ``p <- gamma*p + d*u``, starting from zero. No ``1 - gamma``
    normalization is applied: Krylov bases and Wiener solutions are
    invariant to a common positive scaling of (R, p).

    Parameters
    ----------
    mode : {"toeplitz", "fullsym"}
    n : int
        Regressor length.
    gamma : float
        Forgetting factor, strictly inside (0, 1); fixed for the lifetime
        of the estimator.
    warmup_factor : float
        The estimator reports itself mature after ``warmup_factor * n``
        samples; consumers may defer basis builds until then.
    """

    def __init__(self, mode: str, n: int, gamma: float, warmup_factor: float = 1.0):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"forgetting factor must lie in (0, 1), got {gamma}")
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        self.mode = mode
        self.n = int(n)
        self.gamma = float(gamma)
        self.warmup_factor = float(warmup_factor)
        self.sample_count = 0
        self._p = np.zeros(self.n)
        if mode == "toeplitz":
            self._r = np.zeros(self.n)
            self._matrix = None
        else:
            self._matrix = np.zeros((self.n, self.n))
            self._r = None

    @property
    def mature(self) -> bool:
        return self.sample_count >= self.warmup_factor * self.n

    def update(self, u, d: float) -> None:
        """Fold one sample pair into the running estimates."""
        v = as_vector(u, self.n)
        g = self.gamma
        if self.mode == "toeplitz":
            # newest scalar sample times the regressor vector
            self._r = g * self._r + v[0] * v
        else:
            self._matrix = g * self._matrix + np.outer(v, v)
        self._p = g * self._p + float(d) * v
        self.sample_count += 1

    def r_matrix(self) -> SymMatrix:
        """Immutable snapshot of the autocorrelation estimate."""
        if self.mode == "toeplitz":
            return SymMatrix(toeplitz_gather(self._r))
        return SymMatrix(self._matrix)

    def p_vector(self) -> np.ndarray:
        """Immutable snapshot of the cross-correlation estimate."""
        p = self._p.copy()
        p.flags.writeable = False
        return p

    def __repr__(self) -> str:
        return (f"CorrelationEstimator(mode={self.mode!r}, n={self.n}, "
                f"gamma={self.gamma}, samples={self.sample_count})")


# ---------------------------------------------------------------------------
# frozen single-stream filters
# ---------------------------------------------------------------------------
#
# KrrApsp, Cgrrf and Nlms as they were written before the library made them
# one-trial views of its lockstep batches: one recursion per stream, with
# the scalar arithmetic spelled out. They are kept unchanged as the
# reference the batches and the library's single-stream filters must equal.
# (The only edits: SymMatrix is imported at the top of this module, and
# KrrApsp builds its bases without a build tag, which BasisMatrix no longer
# has.) Rls is the textbook recursion out of place, with the library's
# auto-delta rule.


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
                                 self.params.rank)
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
            basis = krylov_basis(self.est.r_matrix(), p, self.params.rank)
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
        if self.mode == "toeplitz":
            return SymMatrix(toeplitz_gather(self._r))
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
    """Exponentially weighted recursive least squares, out of place."""

    def __init__(self, n: int, forgetting: float = 0.999, delta: float | None = None):
        self.n = int(n)
        self.forgetting = float(forgetting)
        self.delta = delta
        self.h = np.zeros(n)
        self.pinv = None

    def step(self, u, d: float) -> StepOutput:
        v, d = _checked_sample(u, d, self.n)
        if self.pinv is None:
            if self.delta is None:
                power = float(v @ v) / self.n
                self.delta = 0.01 * power if power > 0.0 else 0.01
            self.pinv = np.eye(self.n) / self.delta
        lam = self.forgetting
        y = float(self.h @ v)
        pi = self.pinv @ v
        gain = pi / (lam + float(v @ pi))
        self.h = self.h + (d - y) * gain
        self.pinv = (self.pinv - np.outer(gain, pi)) / lam
        return StepOutput(y, True, self.h.copy(), 3 * self.n * self.n + 4 * self.n)


# KrrApspBatch's reduced step as it was before the projection sets were
# computed all at once: a dozen stacked calls per set, the bit-for-bit
# reference of the batch's step for every error_dim. Kept unchanged,
# comments dropped, except that it reads and writes the member's reduced
# regressors and filters in its rows of the family's padded arrays through
# contiguous copies of its own columns. Its family steps each member apart,
# one effective rank at a time, as the batch did before a family's members
# made one pass.


class SetLoopFamily(_KrrFamily):
    """A family whose members step one after another, each with its own set loop."""

    def _pass(self, u):
        return [m._step(u) for m in self.members]


class SetLoopKrrApspBatch(KrrApspBatch):
    """A ``KrrApspBatch`` whose reduced step loops over the projection sets, any r.

    ``loop_steps`` counts the steps this member made through its own loop.
    """

    def __init__(self, params, n, trials, mode="toeplitz", h0=None):
        super().__init__(params, n, trials, mode=mode, h0=h0)
        self.family = SetLoopFamily(mode, self)
        weights = params.weight_array
        self._weights = [None] + [weights[:q] / float(weights[:q].sum())
                                  for q in range(1, params.projections + 1)]
        self.loop_steps = 0

    @property
    def _ut(self):
        return self.family.ut[self._rows, :, :self.params.rank]

    def _step(self, u):
        self.loop_steps += 1
        r, n = self.trials, self.n
        stats_mults = _stats_cost(self.family.stats.mode, n)
        self.mult_totals["stats"] += stats_mults
        groups = [(rank, np.flatnonzero(self.has_basis & (self.rank_eff == rank)))
                  for rank in sorted(set(self.rank_eff[self.has_basis].tolist()))]
        if len(groups) == 1 and groups[0][1].size == r:
            y, updated, h_full, transform_mults, filter_mults = \
                self._reduced_step(slice(None), groups[0][0], u)
        else:
            y, updated, h_full = np.zeros(r), np.zeros(r, dtype=bool), np.zeros((r, n))
            transform_mults, filter_mults = np.zeros((2, r), dtype=np.int64)
            for rank, idx in groups:
                y[idx], updated[idx], h_full[idx], transform_mults[idx], filter_mults[idx] = \
                    self._reduced_step(idx, rank, u[idx])
        self.mult_totals["transform"] += transform_mults
        self.mult_totals["filter"] += filter_mults
        self.steps += 1
        self.update_count += updated
        return StepOutput(y, updated, h_full, stats_mults + transform_mults + filter_mults)

    def _reduced_step(self, idx, rank: int, u: np.ndarray):
        p = self.params
        n, ring = self.n, min(self.family.filled, self._ut.shape[1])
        if isinstance(idx, slice) and rank == self.basis.shape[2]:
            basis = self.basis  # the whole batch at full rank
        else:
            basis = np.ascontiguousarray(self.basis[idx][:, :, :rank])
        ut = np.ascontiguousarray(self._ut[idx][:, :, :rank])
        basis_t = basis.transpose(0, 2, 1)
        count = basis.shape[0]

        ut[:, 0] = stacked_matvec(basis_t, u)
        stale = ~self._ut_valid[idx]
        if stale.any():
            us = self.family.us[idx]
            for t in range(1, ring):
                ut[stale, t] = stacked_matvec(basis_t[stale], us[stale, t])
        self._ut[idx, :, :rank] = ut
        self._ut_valid[idx] = True
        transform_mults = np.where(stale, ring, 1) * rank * n

        h = np.ascontiguousarray(self.h_tilde[idx][:, :rank])
        ips = stacked_dot(ut[:, :ring], h[:, None, :])
        q_eff = min(p.projections, ring)

        sq = np.empty((count, q_eff))
        errors = []
        filter_mults = ring * rank
        for j in range(q_eff):
            r_eff = min(p.error_dim, ring - j)
            e = ips[:, j:j + r_eff] - self.family.ds[idx, j:j + r_eff]
            sq[:, j] = stacked_dot(e, e)
            errors.append(e)
            filter_mults += r_eff
        violated = sq > p.rho
        a = np.zeros((count, q_eff + 1, rank))
        c = np.zeros((count, q_eff))
        block_sq = np.zeros((count, q_eff))
        charges = np.zeros(q_eff, dtype=np.int64)
        for j in np.flatnonzero(violated.any(axis=0)):
            e = errors[j]
            r_eff = e.shape[1]
            block = np.ascontiguousarray(ut[:, j:j + r_eff].transpose(0, 2, 1))
            a[:, j + 1] = a_j = stacked_matvec(block, e)
            c[:, j] = stacked_dot(a_j, a_j)
            block_sq[:, j] = (block * block).sum(axis=(1, 2))
            charges[j] = r_eff * rank + rank

        zero = violated & (c <= TOL.zero_direction_rel ** 2 * (block_sq * sq))
        if zero.any():
            self.skipped_zero_direction[idx] += zero.sum(axis=1)
        ok = violated & ~zero
        gap = p.rho - sq
        c_ok = np.where(ok, c, 1.0)
        w_gap = self._weights[q_eff] * gap
        coef = np.where(ok, w_gap / (2.0 * c_ok), 0.0)
        loss = np.where(ok, w_gap * gap / (4.0 * c_ok), 0.0)
        a[:, 1:] *= coef[:, :, None]
        f_dir = np.ascontiguousarray(np.add.accumulate(a, axis=1)[:, -1])
        loss_sum = np.add.accumulate(loss, axis=1)[:, -1]
        delta_norm_sum = np.add.accumulate(np.abs(coef) * np.sqrt(c), axis=1)[:, -1]
        n_ok = ok.sum(axis=1)
        contributed = n_ok > 0

        nf = stacked_dot(f_dir, f_dir)
        cancelled = contributed & (np.sqrt(nf) <= TOL.cancellation * delta_norm_sum)
        self.cancelled_updates[idx] += cancelled
        updated = contributed & ~cancelled
        relax = loss_sum / np.where(updated, nf, 1.0)
        self.last_relaxation[idx] = np.where(updated, relax, np.nan)
        scale = p.step_size * relax
        h = np.where(updated[:, None], h + scale[:, None] * f_dir, h)
        filter_mults += (np.dot(violated, charges) + n_ok * (7 + rank)
                         + contributed * rank + updated * (2 + rank))
        self.h_tilde[idx, :rank] = h
        return ips[:, 0], updated, stacked_matvec(basis, h), transform_mults, filter_mults


# Rls.step as the library wrote it before its arithmetic became the private
# core Rls._update: the in-place recursion with the rank-one correction as
# one BLAS product into a kept buffer. Kept unchanged except that its
# counters, which the records do not read, and its comments are dropped.


class FrozenRls:
    """Exponentially weighted recursive least squares, in place."""

    def __init__(self, n: int, forgetting: float = 0.999, delta: float | None = None):
        self.n = int(n)
        self.forgetting = float(forgetting)
        self.delta = delta
        self.h = np.zeros(n)
        self._pinv = None

    def step(self, u, d: float) -> StepOutput:
        v, d = as_vector(u, self.n), float(d)
        if not math.isfinite(d):
            raise ValueError("desired output d must be finite")
        if self._pinv is None:
            if self.delta is None:
                power = float(v @ v) / self.n
                self.delta = 0.01 * power if power > 0.0 else 0.01
            self._pinv = np.eye(self.n) / self.delta
            self._outer = np.empty((self.n, self.n))
        y = float(self.h @ v)
        pi = self._pinv @ v
        gain = pi / (self.forgetting + float(v @ pi))
        self.h = self.h + (d - y) * gain
        self._pinv -= np.dot(gain[:, None], pi[None, :], out=self._outer)
        self._pinv /= self.forgetting
        return StepOutput(y, True, self.h.copy(), 3 * self.n * self.n + 4 * self.n)


def brute_force_projection(normals, bounds, start, tol: float = 1e-12):
    """The Euclidean projection of ``start`` onto ``{z : normals @ z <= bounds}``, or
    ``None`` when no point qualifies (the set is empty).

    The projection lies in the relative interior of a face, where the sets ``A``
    active there hold with equality, and it is the projection of ``start`` onto
    the affine set ``{z : N_A z = b_A}``. So it is the nearest of those
    projections, over every subset ``A`` (the empty one included), that satisfy
    every set within ``tol`` times the set's scale. Each is a least-squares
    solve (``lstsq``, singular values below ``1e-10`` of the largest dropped),
    so nearly dependent normals count as dependent.
    """
    normals, bounds = np.asarray(normals, dtype=float), np.asarray(bounds, dtype=float)
    start = np.asarray(start, dtype=float)
    sizes = np.sqrt(np.sum(normals ** 2, axis=1))
    best, best_dist = None, math.inf
    for count in range(len(bounds) + 1):
        for active in combinations(range(len(bounds)), count):
            point = start
            if active:
                rows = normals[list(active)]
                shift = np.linalg.lstsq(rows, rows @ start - bounds[list(active)], rcond=1e-10)[0]
                point = start - shift
            scale = 1.0 + np.abs(bounds) + sizes * np.sqrt(np.sum(point ** 2))
            dist = float(np.sqrt(np.sum((point - start) ** 2)))
            if np.all(normals @ point - bounds <= tol * scale) and dist < best_dist:
                best, best_dist = point, dist
    return best


# verify._error_bound_half_spaces and verify.find_feasible_point as the library
# wrote them before a static step's half-spaces shared one frozen anchor and
# the oracle kept its reduced products until the iterate moved. Kept unchanged.


def frozen_error_bound_half_spaces(ring, count: int, error_dim: int, h, rho: float) -> tuple:
    half_spaces = []
    for j in range(count):
        u_block = np.column_stack([u for u, _ in ring[j:j + error_dim]])
        e = u_block.T @ h - np.array([d for _, d in ring[j:j + error_dim]])
        half_spaces.append(HalfSpace(2.0 * (u_block @ e), float(e @ e) - rho, h))
    return tuple(half_spaces)


def frozen_find_feasible_point(half_spaces, basis: BasisMatrix, start=None,
                               max_iter: int = 5000) -> np.ndarray | None:
    reduced = []
    for hs in half_spaces:
        nr = basis.matrix.T @ hs.normal
        bound = float(hs.anchor @ hs.normal) - hs.offset
        nn = float(nr @ nr)
        if nn == 0.0:
            if bound < 0.0:
                return None  # constraint excludes the whole subspace
            continue
        margin = 1e-9 * (1.0 + abs(bound) + math.sqrt(nn))
        reduced.append((nr, bound, nn, margin))
    z = (basis.matrix.T @ as_vector(start, basis.n)) if start is not None \
        else np.zeros(basis.rank)
    for _ in range(max(max_iter, 0) + 1):  # the last pass only checks
        if all(float(nr @ z) <= bound for nr, bound, _, _ in reduced):
            return basis.matrix @ z
        for nr, bound, nn, margin in reduced:
            g = float(nr @ z) - (bound - margin)
            if g > 0.0:
                z = z - (g / nn) * nr
    return None


# verify's per-item loops as the library wrote them before they became stacked
# calls over trials, fixed vectors, ranks and half-spaces. Kept unchanged.


def frozen_attracting_projection_case(phi, trials: int, rng):
    """``verify.attracting_check`` on identical bases, one trial at a time."""
    defects = [0.0]
    s = phi.s_prev.matrix
    for _ in range(trials):
        x = rng.standard_normal(phi.n)
        f = s @ rng.standard_normal(phi.rank)
        px = frozen_apply_phi(phi, x)
        lhs = float(np.sum((x - px) ** 2))
        rhs = float(np.sum((x - f) ** 2) - np.sum((px - f) ** 2))
        defects.append(abs(lhs - rhs))
    return verify.AttractingReport(True, verify._worst(defects))


def frozen_apply_phi(phi, v):
    return phi.s_next.matrix @ (phi.s_prev.matrix.T @ as_vector(v, phi.n))


def frozen_subgradient_inequality_check(basis, u_block, d_block, rho, point, rng, trials=50):
    rng = np.random.default_rng(rng)
    ured = basis.matrix.T @ np.asarray(u_block, dtype=float)
    d = as_vector(d_block)
    y = as_vector(point, basis.rank)

    def g(z):
        e = ured.T @ z - d
        return float(e @ e) - rho

    grad = 2.0 * (ured @ (ured.T @ y - d))
    gy = g(y)
    defects = [0.0]
    for _ in range(trials):
        x = y + rng.standard_normal(basis.rank) * 2.0
        defects.append(float((x - y) @ grad) + gy - g(x))
    if gy > 0.0:
        hs = HalfSpace(normal=grad, offset=gy, anchor=y)
        proj = project_half_space(y, hs)
        defects.append(hs.violation(proj))
    return verify._worst(defects)


def frozen_fixed_point_set(phi, tol=None):
    tol = TOL.fixed_point_eigen if tol is None else tol
    gram = phi.s_prev.matrix.T @ phi.s_next.matrix
    _, sing, vt = np.linalg.svd(gram - np.eye(phi.rank))
    verified = []
    for z in vt[sing <= tol]:
        v = phi.s_prev.matrix @ z
        gap = _norm(phi.s_next.matrix @ z - v)
        move = _norm(frozen_apply_phi(phi, v) - v)
        if gap <= tol and move <= tol * max(1.0, _norm(v)):
            verified.append(v)
    return np.column_stack(verified) if verified else np.zeros((phi.n, 0))


def frozen_r_norm(v, matrix):
    quad = float(v @ (matrix.dense() @ v))
    scale = max(1.0, float(v @ v) * max(1.0, float(np.max(np.abs(matrix.dense()), initial=0.0))))
    if quad < -TOL.quadform_negative * scale:
        raise ValueError(f"negative quadratic form ({quad:.3e}): matrix is not PSD")
    return math.sqrt(max(quad, 0.0))


def frozen_mse_chain(matrix, pv, hs, sigma_d2, ranks):
    """``verify._mse_chain``, rank by rank, each rank's basis a checked ``BasisMatrix``."""
    dense = matrix.dense()
    kappa = condition_number(matrix)
    lam_min = float(matrix.eigenvalues[0])
    alpha = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    h_r2 = frozen_r_norm(hs, matrix) ** 2
    top, steps = max(ranks), []
    cg_solve_stack(dense[None], pv[None], np.zeros((1, matrix.n)), top, steps)
    bases, built = krylov_basis_stack(dense[None], pv[None], top)
    reports = []
    for rank in ranks:
        proj_r = steps[min(rank, len(steps) - 1)][0]
        mse = float(proj_r @ (dense @ proj_r) - 2.0 * proj_r @ pv) + sigma_d2
        bound = (4.0 * alpha ** (2 * rank) - 1.0) * h_r2 + sigma_d2
        basis = BasisMatrix(bases[0, :, :min(built[0], rank)])
        proj_e = basis.matrix @ (basis.matrix.T @ hs)
        t1 = _norm(proj_e - proj_r)
        t2 = _norm(hs - proj_r)
        t3 = frozen_r_norm(hs - proj_r, matrix) / math.sqrt(lam_min)
        t4 = 2.0 * math.sqrt(h_r2) * alpha ** rank / math.sqrt(lam_min)
        reports.append(verify.CgBoundReport(mse, bound, (
            verify.ChainTerm(t1, t2), verify.ChainTerm(t2, t3), verify.ChainTerm(t3, t4))))
    return reports


def frozen_geometry(inst):
    """``(g, Q s, Q s . Q s, ||Q s||)`` per half-space of a ``ThetaInstance``."""
    s = inst.basis.matrix
    return tuple((hs._violation(inst.anchor), qn, float(qn @ qn), _norm(qn)) for hs, qn
                 in ((h, s @ (s.T @ h.normal)) for h in inst.half_spaces))


def frozen_theta_value(inst, v):
    geometry = frozen_geometry(inst)
    anchor_d = np.array([verify._distance(0.0, g, nrm) for g, _, _, nrm in geometry])
    norm_const = float(inst.weights @ anchor_d)
    if norm_const == 0.0:
        return 0.0
    at_anchor = v is inst.anchor
    if not at_anchor:
        v, off_range = verify._range_split(v, inst.basis)
    total = sum(w * da * (da if at_anchor else verify._distance(off_range, hs._violation(v), nrm))
                for w, hs, da, (*_, nrm)
                in zip(inst.weights, inst.half_spaces, anchor_d, geometry) if da != 0.0)
    return total / norm_const


def frozen_rapsm_step(v, inst, phi, step_size):
    """``verify.rapsm_step`` of an iterate in the range, half-space by half-space."""
    geometry = frozen_geometry(inst)
    gs = ([geo[0] for geo in geometry] if v is inst.anchor
          else [hs._violation(v) for hs in inst.half_spaces])
    f_dir = np.zeros_like(v)
    loss = 0.0
    for w, g, (_, qn, nq2, _) in zip(inst.weights, gs, geometry):
        if g <= 0.0:
            continue
        if nq2 == 0.0:
            raise ValueError("half-space does not intersect the subspace")
        dvec = -(g / nq2) * qn
        f_dir += w * dvec
        loss += w * float(dvec @ dvec)
    nf = float(f_dir @ f_dir)
    if nf == 0.0:
        return frozen_apply_phi(phi, v)
    relax = loss / nf
    return frozen_apply_phi(phi, v + step_size * relax * f_dir)
