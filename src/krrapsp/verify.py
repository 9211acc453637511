"""Executable numerical checks of the convergence analysis.

The reduced-rank parallel projection filter can be written, in the full
space, as a relaxed subgradient step on a weighted distance objective
followed by a basis-transition map ``Phi = S_next S_prev^T`` between
consecutive Krylov subspaces. This module implements those analysis
objects directly and provides checks that the properties the algorithm's
guarantees rest on (nonexpansivity and fixed-point structure of ``Phi``,
convexity of the objective, monotone approximation of feasible points,
the conjugate-gradient MSE bound) hold on concrete instances.

Reports are plain data; the CLI ``verify`` subcommand formats them one
line per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimation import CorrelationEstimator
from .linalg import (
    BasisMatrix,
    HalfSpace,
    SymMatrix,
    as_vector,
    cg_solve,
    condition_number,
    krylov_basis,
    project_half_space,
    project_subspace,
    r_norm,
)
from .tolerances import TOL


# ---------------------------------------------------------------------------
# basis-transition map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiMap:
    """Transition map ``x -> S_next (S_prev^T x)`` between two bases."""

    s_prev: BasisMatrix
    s_next: BasisMatrix

    def __post_init__(self):
        if self.s_prev.n != self.s_next.n:
            raise ValueError("bases must share the ambient dimension")
        if self.s_prev.rank != self.s_next.rank:
            raise ValueError("bases must share the rank")

    @property
    def n(self) -> int:
        return self.s_prev.n

    @property
    def rank(self) -> int:
        return self.s_prev.rank


def apply_phi(phi: PhiMap, x) -> np.ndarray:
    """Apply the transition map; nonexpansive for orthonormal bases."""
    v = as_vector(x, phi.n)
    return phi.s_next.matrix @ (phi.s_prev.matrix.T @ v)


def fixed_point_set(phi: PhiMap, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (N x dim, possibly dim 0) of the fixed points.

    The fixed points are exactly ``{S_prev z = S_next z}`` for reduced
    vectors ``z`` fixed by ``S_prev^T S_next``; that eigenspace for
    eigenvalue one is extracted as the null space of ``S_prev^T S_next - I``
    (singular values below ``tol``), then mapped up through ``S_prev``.
    Every returned column is re-verified against both characterizations.
    """
    if tol is None:
        tol = TOL.fixed_point_eigen
    d = phi.rank
    gram = phi.s_prev.matrix.T @ phi.s_next.matrix
    _, sing, vt = np.linalg.svd(gram - np.eye(d))
    keep = sing <= tol
    z_basis = vt[keep].T  # orthonormal columns of the reduced fixed space
    verified = []
    for z in z_basis.T:
        gap = float(np.linalg.norm(phi.s_next.matrix @ z - phi.s_prev.matrix @ z))
        v = phi.s_prev.matrix @ z
        move = float(np.linalg.norm(apply_phi(phi, v) - v))
        if gap <= tol and move <= tol * max(1.0, float(np.linalg.norm(v))):
            verified.append(v)
    return np.column_stack(verified) if verified else np.zeros((phi.n, 0))


@dataclass
class AttractingReport:
    """Outcome of the attracting-nonexpansivity check."""

    projection_case: bool
    max_identity_defect: float = 0.0
    witness_norm_gap: float = 0.0
    witness_displacement: float = 0.0


def attracting_check(phi: PhiMap, trials: int = 50, rng=None) -> AttractingReport:
    """Check the two attracting-nonexpansivity regimes of the map.

    Identical bases: the map is the orthogonal projection onto the shared
    range and satisfies the 1-attracting identity
    ``||x - Phi x||^2 = ||x - f||^2 - ||Phi x - f||^2`` for every fixed
    point ``f``; verified on random pairs. Distinct bases: the map is
    nonexpansive but not attracting, witnessed by a vector whose norm the
    map preserves even though it is not fixed.
    """
    rng = np.random.default_rng(rng)
    if np.array_equal(phi.s_prev.matrix, phi.s_next.matrix):
        defect = 0.0
        s = phi.s_prev.matrix
        for _ in range(trials):
            x = rng.standard_normal(phi.n)
            f = s @ rng.standard_normal(phi.rank)
            px = apply_phi(phi, x)
            lhs = float(np.sum((x - px) ** 2))
            rhs = float(np.sum((x - f) ** 2) - np.sum((px - f) ** 2))
            defect = max(defect, abs(lhs - rhs))
        return AttractingReport(projection_case=True, max_identity_defect=defect)

    diff = phi.s_next.matrix - phi.s_prev.matrix
    _, sing, vt = np.linalg.svd(diff)
    if sing[0] <= TOL.fixed_point_eigen:
        raise ValueError("bases differ but no separating direction found")
    z = vt[0]
    witness = phi.s_prev.matrix @ z
    pw = apply_phi(phi, witness)
    return AttractingReport(
        projection_case=False,
        witness_norm_gap=abs(float(np.linalg.norm(pw)) - float(np.linalg.norm(witness))),
        witness_displacement=float(np.linalg.norm(pw - witness)),
    )


# ---------------------------------------------------------------------------
# the weighted distance objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaInstance:
    """One evaluation context of the weighted distance objective.

    ``half_spaces`` are the outer approximations of the data-consistent
    sets linearized at ``anchor``, which must lie in the range of
    ``basis``; ``weights`` are positive and sum to one.
    """

    half_spaces: tuple
    basis: BasisMatrix
    weights: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        hs = tuple(self.half_spaces)
        if not hs:
            raise ValueError("at least one half-space is required")
        for h in hs:
            if h.n != self.basis.n:
                raise ValueError("half-space dimension mismatch")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(hs),):
            raise ValueError("one weight per half-space required")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > TOL.weights_sum:
            raise ValueError("weights must be positive and sum to 1")
        anchor = as_vector(self.anchor, self.basis.n)
        if not _in_range(anchor, self.basis):
            raise ValueError("anchor must lie in the basis range")
        w = w.copy()
        anchor = anchor.copy()
        w.flags.writeable = False
        anchor.flags.writeable = False
        object.__setattr__(self, "half_spaces", hs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "anchor", anchor)


def _in_range(x, basis: BasisMatrix) -> bool:
    resid = float(np.linalg.norm(x - project_subspace(x, basis)))
    return resid <= TOL.range_confinement * (1.0 + float(np.linalg.norm(x)))


def halfspace_range_distance(x, half_space: HalfSpace, basis: BasisMatrix) -> float:
    """Distance from ``x`` to ``half_space`` within the range of ``basis``.

    Closed form by Pythagoras: ``hypot(||x - Qx||, max(0, g(Qx)) / ||Q s||)``
    with ``Q`` the range projector and ``s`` the half-space normal; a point
    in the range is measured as ``max(0, g(x)) / ||Q s||``. Raises if the
    half-space misses the subspace entirely (projected normal zero with
    positive violation).
    """
    v = as_vector(x, basis.n)
    off_range = 0.0
    if not _in_range(v, basis):
        in_range = project_subspace(v, basis)
        off_range = float(np.linalg.norm(v - in_range))
        v = in_range
    g = half_space.violation(v)
    if g <= 0.0:
        return off_range
    qn = project_subspace(half_space.normal, basis)
    norm_qn = float(np.linalg.norm(qn))
    if norm_qn == 0.0:
        raise ValueError("half-space does not intersect the subspace")
    return math.hypot(off_range, g / norm_qn)


def theta_value(inst: ThetaInstance, x) -> float:
    """Weighted distance objective at ``x``.

    Zero when the anchor already satisfies every half-space (the
    normalization constant vanishes); otherwise a convex, nonnegative
    combination of distances to the half-space/subspace intersections,
    each weighted by the anchor's own distance to that set.
    """
    v = as_vector(x, inst.basis.n)
    anchor_d = np.array([
        halfspace_range_distance(inst.anchor, hs, inst.basis) for hs in inst.half_spaces
    ])
    norm_const = float(inst.weights @ anchor_d)
    if norm_const == 0.0:
        return 0.0
    total = sum(w * da * halfspace_range_distance(v, hs, inst.basis)
                for w, hs, da in zip(inst.weights, inst.half_spaces, anchor_d) if da != 0.0)
    return total / norm_const


def rapsm_step(h, inst: ThetaInstance, phi: PhiMap, step_size: float) -> np.ndarray:
    """One full-space update of the reduced-rank projected subgradient method.

    A relaxed convex combination of the projections of ``h`` onto each
    half-space intersected with the basis range, scaled by the parallel
    over-relaxation factor, then passed through the transition map. A
    feasible ``h`` (vanishing subgradient) is only mapped through the
    transition.
    """
    if not 0.0 <= step_size <= 2.0:
        raise ValueError("step_size must lie in [0, 2]")
    v = as_vector(h, inst.basis.n)
    if not _in_range(v, inst.basis):
        raise ValueError("iterate must lie in the basis range")
    f_dir = np.zeros_like(v)
    loss = 0.0
    for w, hs in zip(inst.weights, inst.half_spaces):
        g = hs.violation(v)
        if g <= 0.0:  # a satisfied set adds nothing
            continue
        qn = project_subspace(hs.normal, inst.basis)
        nq2 = float(qn @ qn)
        if nq2 == 0.0:
            raise ValueError("half-space does not intersect the subspace")
        dvec = -(g / nq2) * qn
        f_dir += w * dvec
        loss += w * float(dvec @ dvec)
    nf = float(f_dir @ f_dir)
    if nf == 0.0:  # no violated set, or directions that cancel
        return apply_phi(phi, v)
    relax = loss / nf
    return apply_phi(phi, v + step_size * relax * f_dir)


# ---------------------------------------------------------------------------
# feasibility oracle and monotone approximation probe
# ---------------------------------------------------------------------------


def find_feasible_point(half_spaces, basis: BasisMatrix, start=None,
                        max_iter: int = 5000) -> np.ndarray | None:
    """Point in the intersection of the half-spaces and the basis range.

    Cyclic projections in reduced coordinates with a small inward margin;
    returns a point whose constraint values are all ``<= 0`` exactly, or
    ``None`` when the iteration cap is hit (certification failure, not a
    proof of emptiness).
    """
    reduced = []
    for hs in half_spaces:
        nr = basis.matrix.T @ hs.normal
        bound = float(hs.anchor @ hs.normal) - hs.offset
        nn = float(nr @ nr)
        if nn == 0.0:
            if bound < 0.0:
                return None  # constraint excludes the whole subspace
            continue
        margin = 1e-9 * (1.0 + abs(bound) + float(np.sqrt(nn)))
        reduced.append((nr, bound, nn, margin))
    z = (basis.matrix.T @ as_vector(start, basis.n)) if start is not None \
        else np.zeros(basis.rank)
    if not reduced:
        return basis.matrix @ z

    def all_feasible(zz):
        return all(float(nr @ zz) <= bound for nr, bound, _, _ in reduced)

    for _ in range(max_iter):
        if all_feasible(z):
            return basis.matrix @ z
        for nr, bound, nn, margin in reduced:
            g = float(nr @ z) - (bound - margin)
            if g > 0.0:
                z = z - (g / nn) * nr
    if all_feasible(z):
        return basis.matrix @ z
    return None


@dataclass(frozen=True)
class ProbeStep:
    """One recorded step of a trajectory for the monotone probe."""

    h: np.ndarray
    h_next: np.ndarray
    instance: ThetaInstance
    basis_next: BasisMatrix


@dataclass
class MonotoneReport:
    """Per-trajectory monotone-approximation summary."""

    total: int
    certified: int
    unchecked: int
    violations: list
    max_overshoot: float

    @property
    def certified_fraction(self) -> float:
        return self.certified / self.total if self.total else 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def monotone_probe(steps, slack: float | None = None) -> MonotoneReport:
    """Check distance non-increase toward certified feasible points.

    A step is certified when the basis did not move (the transition map is
    then the range projector, whose fixed points are the whole range) and
    the feasibility oracle produces a point in the intersection of all the
    step's half-spaces with the range. Steps the oracle cannot certify are
    reported as unchecked, never as failures.
    """
    if slack is None:
        slack = TOL.monotone_slack
    certified = 0
    unchecked = 0
    violations = []
    max_over = 0.0
    for idx, st in enumerate(steps):
        same_basis = np.array_equal(st.instance.basis.matrix, st.basis_next.matrix)
        omega = None
        if same_basis:
            omega = find_feasible_point(st.instance.half_spaces, st.instance.basis,
                                        start=st.instance.anchor)
        if omega is None:
            unchecked += 1
            continue
        certified += 1
        before = float(np.linalg.norm(st.h - omega))
        after = float(np.linalg.norm(st.h_next - omega))
        over = after - before
        max_over = max(max_over, over)
        if over > slack:
            violations.append((idx, over))
    return MonotoneReport(total=len(steps), certified=certified,
                          unchecked=unchecked, violations=violations,
                          max_overshoot=max_over)


def _error_bound_half_spaces(ring, count: int, error_dim: int, h, rho: float) -> tuple:
    """Linearizations at ``h`` of ``count`` bounded-error sets ``||U^T x - d||^2 <= rho``.

    Set ``j`` stacks the ``error_dim`` newest-first ``(u, d)`` pairs from ``ring[j]``
    into ``U`` and ``d``. With ``e = U^T h - d`` its half-space has normal ``2 U e``
    and offset ``e . e - rho``, the constraint value at ``h``.
    """
    half_spaces = []
    for j in range(count):
        u_block = np.column_stack([u for u, _ in ring[j:j + error_dim]])
        e = u_block.T @ h - np.array([d for _, d in ring[j:j + error_dim]])
        half_spaces.append(HalfSpace(normal=2.0 * (u_block @ e), offset=float(e @ e) - rho,
                                     anchor=h))
    return tuple(half_spaces)


def static_rapsm_run(*, n: int, rank: int, projections: int, iters: int,
                     warmup: int = 200, error_dim: int = 1, rho: float = 0.05,
                     step_size: float = 1.0, snr_db: float = 15.0,
                     noiseless: bool = False, subspace_target: bool = False,
                     seed: int = 0):
    """Drive the full-space update on a stationary stream with a frozen basis.

    Warm-up samples feed the statistics estimator; the Krylov basis built
    from the warmed-up estimates is then frozen while the update runs for
    ``iters`` steps. With ``subspace_target`` the supervision is re-derived
    from the projection of the unknown system onto the frozen subspace, so
    the bounded-error sets share a common subspace point (a consistent
    scenario by construction). Returns ``(probe_steps, theta_values)``.
    """
    from .scenarios import SysIdConfig, SysIdScenario

    cfg = SysIdConfig(n=n, snr_db=math.inf if noiseless else snr_db, seed=seed)
    scen = SysIdScenario(cfg)
    est = CorrelationEstimator("toeplitz", n, 0.999)
    samples = list(scen.samples(warmup + iters))
    for s in samples[:warmup]:
        est.update(s.u, s.d)
    basis = krylov_basis(est.r_matrix(), est.p_vector(), rank)
    phi = PhiMap(basis, basis)

    if subspace_target:
        target = project_subspace(scen.h_star, basis)
        samples = [type(s)(k=s.k, u=s.u, d=float(s.u @ target), truth_h=s.truth_h)
                   for s in samples]

    ring_len = projections + error_dim - 1
    ring = [(s.u, s.d) for s in reversed(samples[warmup - ring_len:warmup])]
    weights = np.full(projections, 1.0 / projections)
    h = np.zeros(n)
    probe_steps = []
    thetas = []
    for s in samples[warmup:]:
        ring.insert(0, (s.u, s.d))
        ring = ring[:ring_len]
        inst = ThetaInstance(_error_bound_half_spaces(ring, projections, error_dim, h, rho),
                             basis, weights, h)
        h_next = rapsm_step(h, inst, phi, step_size)
        probe_steps.append(ProbeStep(h=h, h_next=h_next, instance=inst,
                                     basis_next=basis))
        thetas.append(theta_value(inst, h))
        h = h_next
    return probe_steps, thetas


# ---------------------------------------------------------------------------
# MSE bound and subgradient checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainTerm:
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def scaled_violation(self) -> float:
        """Positive when violated; normalized by the term magnitudes."""
        return -self.slack / (1.0 + abs(self.lhs) + abs(self.rhs))


@dataclass
class CgBoundReport:
    mse_value: float
    mse_bound: float
    chain: tuple

    @property
    def mse_slack(self) -> float:
        return self.mse_bound - self.mse_value

    @property
    def max_scaled_violation(self) -> float:
        mse = -self.mse_slack / (1.0 + abs(self.mse_value) + abs(self.mse_bound))
        return max([mse] + [t.scaled_violation for t in self.chain])

    def passed(self, tol: float) -> bool:
        return self.max_scaled_violation <= tol


def cg_bound_check(matrix: SymMatrix, p, h_star, rank: int,
                   sigma_d2: float) -> CgBoundReport:
    """Evaluate the reduced-rank MSE bound and its Euclidean consequence.

    With ``p = R h_star`` and ``sigma_d2 = ||h_star||_R^2 + sigma_n^2``,
    the MSE at the energy-norm best approximation of ``h_star`` over the
    rank-``rank`` Krylov subspace is bounded by
    ``(4 a^(2 rank) - 1) ||h_star||_R^2 + sigma_d2`` where
    ``a = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)``. The report also carries
    the chain linking the Euclidean identification error to the same decay
    factor through the smallest eigenvalue.
    """
    hs = as_vector(h_star, matrix.n)
    pv = as_vector(p, matrix.n)
    scale = max(1.0, float(np.linalg.norm(pv)))
    if float(np.linalg.norm(matrix.matvec(hs) - pv)) > 1e-8 * scale:
        raise ValueError("cross-correlation must equal R @ h_star")
    kappa = condition_number(matrix)
    lam_min = float(np.linalg.eigvalsh(matrix.dense())[0])
    alpha = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    h_r2 = r_norm(hs, matrix) ** 2

    proj_r = cg_solve(matrix, pv, iters=rank)
    mse = float(proj_r @ matrix.matvec(proj_r) - 2.0 * proj_r @ pv) + sigma_d2
    bound = (4.0 * alpha ** (2 * rank) - 1.0) * h_r2 + sigma_d2

    span = krylov_basis(matrix, pv, rank)
    proj_e = project_subspace(hs, span)
    t1 = float(np.linalg.norm(proj_e - proj_r))
    t2 = float(np.linalg.norm(hs - proj_r))
    t3 = r_norm(hs - proj_r, matrix) / math.sqrt(lam_min)
    t4 = 2.0 * math.sqrt(h_r2) * alpha ** rank / math.sqrt(lam_min)
    chain = (ChainTerm(t1, t2), ChainTerm(t2, t3), ChainTerm(t3, t4))
    return CgBoundReport(mse_value=mse, mse_bound=bound, chain=chain)


def subgradient_inequality_check(basis: BasisMatrix, u_block, d_block,
                                 rho: float, point, rng, trials: int = 50) -> float:
    """Max defect of the subdifferential inequality for the error bound map.

    The map is ``g(z) = ||(S^T U)^T z - d||^2 - rho`` with gradient
    ``2 (S^T U) e``; for each random probe ``x`` the defect
    ``<x - y, grad(y)> + g(y) - g(x)`` must be nonpositive. Also verifies
    that the relaxed projection of ``y`` lands inside the separating
    half-space.
    """
    rng = np.random.default_rng(rng)
    ured = basis.matrix.T @ np.asarray(u_block, dtype=float)
    d = as_vector(d_block)
    y = as_vector(point, basis.rank)

    def g(z):
        e = ured.T @ z - d
        return float(e @ e) - rho

    e_y = ured.T @ y - d
    grad = 2.0 * (ured @ e_y)
    worst = 0.0
    for _ in range(trials):
        x = y + rng.standard_normal(basis.rank) * 2.0
        defect = float((x - y) @ grad) + g(y) - g(x)
        worst = max(worst, defect)
    gy = g(y)
    if gy > 0.0:
        hs = HalfSpace(normal=grad, offset=gy, anchor=y)
        proj = project_half_space(y, hs)
        worst = max(worst, hs.violation(proj))
    return worst


# ---------------------------------------------------------------------------
# the check suite behind the CLI `verify` subcommand
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    tolerance: float
    detail: str = ""


class _Outcome(NamedTuple):
    """A draw's worst defect and what its pass rule adds to ``defect <= tolerance``.

    ``gate`` must hold in every draw; a ``scale`` makes the tolerance
    ``tolerance * scale``, and a zero scale passes outright.
    """

    defect: float
    gate: bool = True
    scale: float | None = None
    detail: str = ""


def _random_orthonormal(n: int, d: int, rng) -> BasisMatrix:
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    q = q * np.sign(np.diag(r))
    return BasisMatrix(q)


def _random_spd(n: int, rng, lo: float = 0.5, hi: float = 3.0) -> SymMatrix:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(lo, hi, size=n)
    return SymMatrix(q @ np.diag(eigs) @ q.T)


def _random_instance(rng, n: int = 8, d: int = 3, q: int = 3,
                     rho: float = 0.1) -> ThetaInstance:
    basis = _random_orthonormal(n, d, rng)
    anchor = basis.matrix @ rng.standard_normal(d)
    ring = [(rng.standard_normal(n), rng.standard_normal()) for _ in range(q)]
    w = np.full(q, 1.0 / q)
    return ThetaInstance(_error_bound_half_spaces(ring, q, 1, anchor, rho), basis, w, anchor)


def _krylov_bases(rng, seed):
    """Orthonormality and span of the Krylov basis of a random SPD matrix."""
    n = int(rng.integers(4, 12))
    d = int(rng.integers(1, n + 1))
    mat = _random_spd(n, rng)
    p = rng.standard_normal(n)
    basis = krylov_basis(mat, p, d)
    gram = basis.matrix.T @ basis.matrix
    spans = []
    v = p.copy()
    for _ in range(basis.rank):
        resid = v - project_subspace(v, basis)
        spans.append(float(np.linalg.norm(resid)) / float(np.linalg.norm(v)))
        v = mat.matvec(v)
    return float(np.max(np.abs(gram - np.eye(basis.rank)))), max(spans)


def _halfspace_boundary(rng, seed):
    """Half-space projection boundary placement."""
    n = int(rng.integers(2, 9))
    hs = HalfSpace(normal=rng.standard_normal(n),
                   offset=abs(rng.standard_normal()) + 0.1,
                   anchor=rng.standard_normal(n))
    proj = project_half_space(hs.anchor, hs)
    return abs(hs.violation(proj))


def _projector_pythagoras(rng, seed):
    """Pythagoras for subspace projections."""
    n = int(rng.integers(3, 12))
    d = int(rng.integers(1, n))
    basis = _random_orthonormal(n, d, rng)
    x = rng.standard_normal(n)
    px = project_subspace(x, basis)
    lhs = float(x @ x)
    rhs = float(px @ px) + float(np.sum((x - px) ** 2))
    return abs(lhs - rhs) / max(lhs, 1.0)


def _phi_maps(rng, seed):
    """Transition-map structure on a random basis pair; attracting_check must not raise."""
    n = int(rng.integers(4, 10))
    d = int(rng.integers(1, n))
    prev = _random_orthonormal(n, d, rng)
    nxt = _random_orthonormal(n, d, rng)
    phi = PhiMap(prev, nxt)
    x = rng.standard_normal(n)
    gain = float(np.linalg.norm(apply_phi(phi, x))) - float(np.linalg.norm(x))
    zero_img = float(np.linalg.norm(apply_phi(phi, np.zeros(n))))
    fix = [float(np.linalg.norm(col - project_subspace(col, b)))
           for col in fixed_point_set(phi).T for b in (prev, nxt)]
    attracting_ok = True
    try:
        attracting_check(phi, trials=5, rng=rng)
    except ValueError:
        attracting_ok = False
    same = PhiMap(prev, prev)
    fix.append(attracting_check(same, trials=5, rng=rng).max_identity_defect)
    if fixed_point_set(same).shape[1] != d:
        fix.append(1.0)
    return max(gain, zero_img), _Outcome(max(fix), gate=attracting_ok)


def _theta_convexity(rng, seed):
    """Objective convexity along a random segment, and nonnegativity."""
    inst = _random_instance(rng)
    x = rng.standard_normal(inst.basis.n) * 2.0
    y = rng.standard_normal(inst.basis.n) * 2.0
    tx, ty = theta_value(inst, x), theta_value(inst, y)
    worst = 0.0
    for nu in np.linspace(0.0, 1.0, 7):
        mid = theta_value(inst, nu * x + (1 - nu) * y)
        worst = max(worst, mid - (nu * tx + (1 - nu) * ty))
    return max(worst, -min(tx, ty))


def _theta_feasible_zero(rng, seed):
    """The objective vanishes at an oracle-found feasible point (0 without one)."""
    inst = _random_instance(rng)
    omega = find_feasible_point(inst.half_spaces, inst.basis, start=inst.anchor)
    return 0.0 if omega is None else max(0.0, theta_value(inst, omega))


def _update_equivalence(rng, seed, rho: float = 0.05, step_size: float = 0.8):
    """The reduced update equals the full-space update read back through S^T."""
    from .filters import KrrApsp, KrrParams

    n = int(rng.integers(6, 12))
    d = int(rng.integers(2, 5))
    q = int(rng.integers(1, 4))
    params = KrrParams(rank=d, projections=q, error_dim=1, rho=rho,
                       refresh_period=10 ** 6, step_size=step_size)
    filt = KrrApsp(params, n)
    us = [rng.standard_normal(n) for _ in range(q + 8)]
    ds = [float(rng.standard_normal()) for _ in range(q + 8)]
    worst = 0.0
    ring = []
    for u, dv in zip(us, ds):
        ring.insert(0, (u, dv))
        ring = ring[:q]
        predicted = None
        builds_before = filt.build_count
        if filt.basis is not None:
            basis = filt.basis
            h_full = basis.matrix @ filt.h_tilde
            w = np.full(len(ring), 1.0 / len(ring))
            inst = ThetaInstance(_error_bound_half_spaces(ring, len(ring), 1, h_full, rho),
                                 basis, w, h_full)
            predicted = basis.matrix.T @ rapsm_step(h_full, inst, PhiMap(basis, basis), step_size)
        filt.step(u, dv)
        # a refresh rebases the reduced vector after the update; compare
        # only when the basis survived the step
        if predicted is not None and filt.build_count == builds_before:
            worst = max(worst, float(np.max(np.abs(predicted - filt.h_tilde))))
    return worst


def _monotone_approximation(rng, seed):
    """Monotone approximation on a stationary frozen-basis run, 95% of steps certified."""
    steps, _ = static_rapsm_run(n=16, rank=4, projections=3, iters=150,
                                rho=0.05, step_size=0.6, seed=seed + 7)
    rep = monotone_probe(steps)
    return _Outcome(rep.max_overshoot, gate=rep.passed and rep.certified_fraction >= 0.95,
                    detail=f"certified {rep.certified}/{rep.total}")


def _asymptotic_surrogate(rng, seed):
    """Asymptotic surrogate on a consistent (noiseless) stationary run, relative to its start."""
    _, thetas = static_rapsm_run(n=12, rank=3, projections=3, iters=500,
                                 rho=1e-4, step_size=1.0, noiseless=True,
                                 subspace_target=True, seed=seed + 11)
    initial = next((t for t in thetas if t > 0.0), 0.0)
    return _Outcome(min(thetas[-max(1, len(thetas) // 10):]), scale=initial)


def _mse_bound_chain(rng, seed):
    """MSE bound with the Euclidean chain, at every rank of a random SPD matrix."""
    n = int(rng.integers(2, 11))
    mat = _random_spd(n, rng)
    h_star = rng.standard_normal(n)
    p = mat.matvec(h_star)
    sigma_n2 = float(rng.uniform(0.0, 0.5))
    sigma_d2 = r_norm(h_star, mat) ** 2 + sigma_n2
    return max(cg_bound_check(mat, p, h_star, d, sigma_d2).max_scaled_violation
               for d in range(1, n + 1))


def _subgradient_inequality(rng, seed):
    """Subdifferential inequality for the bounded-error map."""
    n, d, r = 8, 3, 2
    basis = _random_orthonormal(n, d, rng)
    ub = rng.standard_normal((n, r))
    db = rng.standard_normal(r)
    y = rng.standard_normal(d)
    return subgradient_inequality_check(basis, ub, db, 0.1, y, rng)


# The suite in the order it draws from its one generator. A row is a check, called
# with the generator and the suite seed to make one draw, its number of draws and the
# (name, tolerance) of each defect it returns (the paired checks return two).
_CHECKS = (
    (_krylov_bases, 25, ("krylov-orthonormality", TOL.orthonormality),
     ("krylov-span", TOL.krylov_span_rel)),
    (_halfspace_boundary, 50, ("halfspace-boundary", TOL.halfspace_boundary)),
    (_projector_pythagoras, 50, ("projector-pythagoras", TOL.pythagoras_rel)),
    (_phi_maps, 100, ("phi-nonexpansive", 1e-12), ("phi-fixed-points", 1e-9)),
    (_theta_convexity, 20, ("theta-convexity", TOL.feasibility)),
    (_theta_feasible_zero, 20, ("theta-feasible-zero", TOL.feasibility)),
    (_update_equivalence, 30, ("update-equivalence", 1e-11)),
    (_monotone_approximation, 1, ("monotone-approximation", TOL.monotone_slack)),
    (_asymptotic_surrogate, 1, ("asymptotic-surrogate", 1e-6)),
    (_mse_bound_chain, 50, ("mse-bound-chain", 1e-9)),
    (_subgradient_inequality, 20, ("subgradient-inequality", TOL.feasibility)),
)


def run_all(seed: int = 0) -> list:
    """Run the whole verification suite; returns one result per check name.

    A name reports its worst defect over the draws (the first of equal ones).
    """
    rng = np.random.default_rng(seed)
    results = []
    for check, draws, *named in _CHECKS:
        worst = [_Outcome(-math.inf)] * len(named)
        for _ in range(draws):
            outcomes = check(rng, seed)
            for i, out in enumerate(outcomes if len(named) > 1 else (outcomes,)):
                out = out if isinstance(out, _Outcome) else _Outcome(out)
                worst[i] = out._replace(defect=max(worst[i].defect, out.defect),
                                        gate=worst[i].gate and out.gate)
        for (name, tol), out in zip(named, worst):
            limit = tol if out.scale is None else tol * out.scale
            passed = out.gate and (out.scale == 0.0 or out.defect <= limit)
            results.append(CheckResult(name, passed, out.defect,
                                       limit if limit > 0 else tol, out.detail))
    return results


def format_report(results) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        extra = f"  {r.detail}" if r.detail else ""
        lines.append(f"{r.name:<26} {status}  max={r.max_violation:.3e}  "
                     f"tol={r.tolerance:.1e}{extra}")
    return "\n".join(lines)
