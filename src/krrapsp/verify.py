"""Executable numerical checks of the convergence analysis.

In the full space, the reduced-rank parallel projection filter is a
relaxed subgradient step on a weighted distance objective, then the map
``Phi = S_next S_prev^T`` between consecutive Krylov subspaces. This
module implements those objects and checks what the guarantees rest on
(nonexpansivity and fixed points of ``Phi``, convexity of the objective,
monotone approximation of feasible points, the CG MSE bound) on concrete
instances.

Reports are plain data; the CLI ``verify`` subcommand prints them. Public
functions validate their arguments before any draw and pass checked arrays
on. Per-item work (an instance's half-spaces, a check's trials, a map's
fixed vectors, an MSE chain's ranks from one CG run) is one stacked call
whose rows make the unstacked BLAS calls (``tests/test_kernels.py``); sums
over sets add in set order.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import NamedTuple

import numpy as np

from .estimation import CorrelationEstimator
from .linalg import (
    BasisMatrix,
    HalfSpace,
    SymMatrix,
    _frozen,
    _norm,
    _project,
    _r_norms,
    _unchecked,
    all_finite,
    as_vector,
    cg_solve_stack,
    check_int,
    condition_number,
    krylov_basis,
    krylov_basis_stack,
    project_half_space,
    project_subspace,
)
from .tolerances import TOL


def _worst(values, pick=max) -> float:
    """``pick(values)``, or NaN if any is NaN (``max`` and ``min`` keep only a first NaN)."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else pick(values)


class PhiMap(NamedTuple("PhiMap", [("s_prev", BasisMatrix), ("s_next", BasisMatrix)])):
    """Transition map ``x -> S_next (S_prev^T x)`` between two bases."""

    __slots__ = ()

    def __new__(cls, s_prev: BasisMatrix, s_next: BasisMatrix):
        if s_prev.n != s_next.n:
            raise ValueError("bases must share the ambient dimension")
        if s_prev.rank != s_next.rank:
            raise ValueError("bases must share the rank")
        return super().__new__(cls, s_prev, s_next)

    @property
    def n(self) -> int:
        return self.s_prev.n

    @property
    def rank(self) -> int:
        return self.s_prev.rank


def apply_phi(phi: PhiMap, x) -> np.ndarray:
    """Apply the transition map; nonexpansive for orthonormal bases."""
    return _apply_phi(phi, as_vector(x, phi.n))


def _apply_phi(phi: PhiMap, v: np.ndarray) -> np.ndarray:
    """The map of ``v``, or of each row of a stack ``v``."""
    return np.matvec(phi.s_next.matrix, np.matvec(phi.s_prev.matrix.T, v))


def fixed_point_set(phi: PhiMap, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis (N x dim, possibly dim 0) of the fixed points.

    They are ``S_prev z`` for ``z`` in the null space of ``S_prev^T S_next - I``
    (singular values below ``tol``, finite and nonnegative), each re-verified
    as ``S_next z`` and as a fixed point of the map.
    """
    tol = TOL.fixed_point_eigen if tol is None else tol
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    gram = phi.s_prev.matrix.T @ phi.s_next.matrix
    _, sing, vt = np.linalg.svd(gram - np.eye(phi.rank))
    z = vt[sing <= tol]  # rows spanning the reduced fixed space
    v = np.matvec(phi.s_prev.matrix, z)
    gap, move, size = (np.sqrt(np.vecdot(x, x)) for x in (
        np.matvec(phi.s_next.matrix, z) - v, _apply_phi(phi, v) - v, v))
    return np.ascontiguousarray(v[(gap <= tol) & (move <= tol * np.maximum(1.0, size))].T)


class AttractingReport(NamedTuple):
    """Outcome of the attracting-nonexpansivity check."""

    projection_case: bool
    max_identity_defect: float = 0.0
    witness_norm_gap: float = 0.0
    witness_displacement: float = 0.0


def attracting_check(phi: PhiMap, trials: int = 50, rng=None) -> AttractingReport:
    """Check the two attracting-nonexpansivity regimes of the map.

    Identical bases: the map is the range projector and satisfies
    ``||x - Phi x||^2 = ||x - f||^2 - ||Phi x - f||^2`` for fixed ``f``
    (checked on ``trials >= 1`` random pairs). Distinct bases: nonexpansive
    but not attracting, witnessed by a vector not fixed whose norm it keeps.
    """
    check_int(trials, "trials")
    rng = np.random.default_rng(rng)
    if np.array_equal(phi.s_prev.matrix, phi.s_next.matrix):
        xz = rng.standard_normal((trials, phi.n + phi.rank))  # each trial's x, then f's z
        x, f = xz[:, :phi.n], np.matvec(phi.s_prev.matrix, xz[:, phi.n:])
        px = _apply_phi(phi, x)
        lhs = np.sum((x - px) ** 2, axis=1)
        rhs = np.sum((x - f) ** 2, axis=1) - np.sum((px - f) ** 2, axis=1)
        return AttractingReport(True, _worst([0.0] + np.abs(lhs - rhs).tolist()))

    _, sing, vt = np.linalg.svd(phi.s_next.matrix - phi.s_prev.matrix)
    if sing[0] <= TOL.fixed_point_eigen:
        raise ValueError("bases differ but no separating direction found")
    witness = phi.s_prev.matrix @ vt[0]
    pw = apply_phi(phi, witness)
    return AttractingReport(False, witness_norm_gap=abs(_norm(pw) - _norm(witness)),
                            witness_displacement=_norm(pw - witness))


def _geometry_of(anchor: np.ndarray, planes: tuple, basis: BasisMatrix) -> tuple:
    """``(g, Q, Q . Q, ||Q||)``, a row per half-space of ``planes`` (its anchors, normals and
    offsets): its value at ``anchor``, its normal projected onto the range."""
    anchors, normals, offsets = planes
    q = np.matvec(basis.matrix, np.matvec(basis.matrix.T, normals))
    qq = np.vecdot(q, q)
    return np.vecdot(anchor - anchors, normals) + offsets, q, qq, np.sqrt(qq)


class ThetaInstance(NamedTuple("ThetaInstance", [
        ("half_spaces", tuple), ("basis", BasisMatrix), ("weights", np.ndarray),
        ("anchor", np.ndarray)])):
    """One evaluation context of the weighted distance objective.

    ``half_spaces`` outer-approximate the data-consistent sets, linearized
    at ``anchor`` in the range of ``basis``; ``weights`` are positive and
    sum to one. Their geometry is derived on first use and kept in the
    instance's ``__dict__`` (so the type has no ``__slots__``).
    """

    def __new__(cls, half_spaces, basis: BasisMatrix, weights, anchor):
        hs = tuple(half_spaces)
        if not hs:
            raise ValueError("at least one half-space is required")
        if any(h.n != basis.n for h in hs):
            raise ValueError("half-space dimension mismatch")
        weights = _checked_weights(weights, len(hs))
        anchor = as_vector(anchor, basis.n)
        if not _in_range(anchor, basis):
            raise ValueError("anchor must lie in the basis range")
        return super().__new__(cls, hs, basis, weights, _frozen(anchor))

    @cached_property
    def _geometry(self) -> tuple:
        planes = (np.array([getattr(h, f) for h in self.half_spaces])
                  for f in ("anchor", "normal", "offset"))
        return _geometry_of(self.anchor, tuple(planes), self.basis)


def _checked_weights(weights, count: int) -> np.ndarray:
    """Frozen ``count`` positive (so not NaN) weights summing to one."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (count,):
        raise ValueError("one weight per half-space required")
    if not (np.all(w > 0) and abs(float(w.sum()) - 1.0) <= TOL.weights_sum):
        raise ValueError("weights must be positive and sum to 1")
    return _frozen(w)


def _uniform_weights(count: int) -> np.ndarray:
    return _checked_weights(np.full(count, 1.0 / count), count)


def _in_range(v: np.ndarray, basis: BasisMatrix) -> bool:
    return _norm(v - _project(v, basis)) <= TOL.range_confinement * (1.0 + _norm(v))


def _range_split(v: np.ndarray, basis: BasisMatrix):
    """``(Qv, ||v - Qv||)``, or ``(v, 0.0)`` for ``v`` in the range."""
    if _in_range(v, basis):
        return v, 0.0
    q = as_vector(_project(v, basis))  # a projection can overflow
    return q, _norm(v - q)


def _distance(off_range: float, g: float, norm_qn: float) -> float:
    """:func:`halfspace_range_distance` from ``||x - Qx||``, ``g(Qx)`` and ``||Q s||``."""
    if g <= 0.0:
        return off_range
    if norm_qn == 0.0:
        raise ValueError("half-space does not intersect the subspace")
    return math.hypot(off_range, g / norm_qn)


def halfspace_range_distance(x, half_space: HalfSpace, basis: BasisMatrix) -> float:
    """Distance from ``x`` to ``half_space`` within the range of ``basis``.

    By Pythagoras ``hypot(||x - Qx||, max(0, g(Qx)) / ||Q s||)``, ``Q`` the
    range projector and ``s`` the normal. Raises if the half-space misses
    the subspace (``Q s = 0``, ``g > 0``).
    """
    v, off_range = _range_split(as_vector(x, basis.n), basis)
    return _distance(off_range, half_space._violation(v),
                     _norm(_project(half_space.normal, basis)))


def theta_value(inst: ThetaInstance, x) -> float:
    """Weighted distance objective at ``x``.

    Zero when the anchor satisfies every half-space; else a convex,
    nonnegative combination of distances to the half-space/subspace
    intersections, each weighted by the anchor's.
    """
    v = as_vector(x, inst.basis.n)
    return _theta_value(inst.weights, inst._geometry, None if v is inst.anchor else (inst, v))


def _theta_value(weights: np.ndarray, geometry: tuple, at=None) -> float:
    """The objective at the anchor, or at ``v`` of ``at = (instance, v)``."""
    g, *_, norms = geometry
    norms = norms.tolist()
    anchor_d = np.array([_distance(0.0, gj, nrm) for gj, nrm in zip(g.tolist(), norms)])
    norm_const = float(weights @ anchor_d)
    if norm_const == 0.0:
        return 0.0
    if at is None:
        return sum(w * da * da for w, da in zip(weights, anchor_d) if da != 0.0) / norm_const
    inst, v = at
    v, off_range = _range_split(v, inst.basis)
    return sum(w * da * _distance(off_range, hs._violation(v), nrm) for w, hs, da, nrm
               in zip(weights, inst.half_spaces, anchor_d, norms) if da != 0.0) / norm_const


def rapsm_step(h, inst: ThetaInstance, phi: PhiMap, step_size: float) -> np.ndarray:
    """One full-space update of the reduced-rank projected subgradient method.

    A relaxed convex combination of the projections of ``h`` onto each
    half-space within the range, scaled by the parallel over-relaxation
    factor, then the transition map (alone for a feasible ``h``).
    """
    v = as_vector(h, inst.basis.n)
    if not 0.0 <= step_size <= 2.0:
        raise ValueError("step_size must lie in [0, 2]")
    at_anchor = v is inst.anchor  # in the range by construction
    if not (at_anchor or _in_range(v, inst.basis)):
        raise ValueError("iterate must lie in the basis range")
    gs = (inst._geometry[0] if at_anchor
          else np.array([hs._violation(v) for hs in inst.half_spaces]))
    return _rapsm_step(v, gs, inst._geometry, inst.weights, phi, step_size)


def _rapsm_step(v, gs, geometry, weights, phi: PhiMap, step_size: float) -> np.ndarray:
    """:func:`rapsm_step` from the half-spaces' values ``gs`` at ``v``."""
    _, q, qq, _ = geometry
    hit = ~(gs <= 0.0)  # a satisfied set adds a zero row, which changes no sum
    if np.count_nonzero(hit & (qq == 0.0)):
        raise ValueError("half-space does not intersect the subspace")
    dvecs = -np.divide(gs, qq, out=np.zeros(gs.shape), where=hit)[:, None] * q
    f_dir, loss = np.zeros(v.shape), 0.0
    for wd, wl in zip(weights[:, None] * dvecs, (weights * np.vecdot(dvecs, dvecs)).tolist()):
        f_dir += wd
        loss += wl
    nf = float(f_dir @ f_dir)
    if nf == 0.0:  # no violated set, or directions that cancel
        return _apply_phi(phi, v)
    relax = loss / nf
    return apply_phi(phi, v + step_size * relax * f_dir)


class EmptyIntersection(NamedTuple):
    """A Farkas certificate that half-spaces share no point of a basis range.

    ``multipliers[j] >= 0`` for half-space ``j``, with ``sum_j m_j S^T s_j``
    zero up to rounding and ``sum_j m_j b_j < 0``, where ``s_j`` is the normal
    and ``b_j = <anchor_j, s_j> - offset_j`` bounds ``<s_j, x>`` on the set.
    """

    multipliers: tuple


def find_feasible_point(half_spaces, basis: BasisMatrix, start=None):
    """Point in the intersection of the half-spaces and the basis range.

    In reduced coordinates ``z`` (``x = S z``) set ``j`` is ``nr_j . z <= b_j``,
    ``nr_j = S^T s_j``. The start (zero by default) is returned when it
    satisfies every set. Else comes the exact projection of the start onto
    the sets tightened by a small inward margin: the active sets are tried by
    increasing size, each a triangular solve of at most q x q (``2^q - 1`` at
    most for q sets), until one has nonnegative multipliers and keeps every
    set. Its point gets the start's check. Returns:

    * a point whose constraint values ``nr_j . z - b_j`` are all ``<= 0``
      exactly, as this check computes them;
    * an :class:`EmptyIntersection` whose certificate this check has verified:
      the intersection is empty;
    * ``None`` (unknown) when neither is found, or the projection's point
      fails the check.

    Raises if a half-space or the start is not of the basis dimension.
    """
    half_spaces = tuple(half_spaces)
    if any(hs.n != basis.n for hs in half_spaces):
        raise ValueError("half-space dimension mismatch")
    s = basis.matrix
    z = s.T @ as_vector(start, basis.n) if start is not None else np.zeros(basis.rank)
    multipliers = [0.0] * len(half_spaces)
    reduced, kept = [], []  # set by set: stacking three sets' products costs more than it saves
    for j, hs in enumerate(half_spaces):
        nr = s.T @ hs.normal
        bound = float(hs.anchor @ hs.normal) - hs.offset
        nn = float(nr @ nr)
        if nn == 0.0:
            if bound < 0.0:  # the set excludes the whole range
                multipliers[j] = 1.0
                return EmptyIntersection(tuple(multipliers))
            continue
        reduced.append((nr, bound, nn, bound - 1e-9 * (1.0 + abs(bound) + math.sqrt(nn))))
        kept.append(j)
    if _holds(reduced, z):
        return s @ z
    exact = _projection(reduced, z)
    if isinstance(exact, list):  # a certificate over the kept sets
        for j, m in zip(kept, exact):
            multipliers[j] = m
        return EmptyIntersection(tuple(multipliers))
    return s @ exact if exact is not None and _holds(reduced, exact) else None


def _holds(reduced, z: np.ndarray) -> bool:
    """Whether every set holds at ``z``: ``nr . z <= bound``, one BLAS product each."""
    return all(float(nr @ z) <= bound for nr, bound, *_ in reduced)


def _dot(a: list, b: list) -> float:
    return sum(map(mul, a, b))


def _extend(qs: list, row: list):
    """Modified Gram-Schmidt of ``row`` against the orthonormal ``qs``: ``(q, col)`` with
    ``row = sum_i col[i] qs[i] + col[-1] q``, and ``q`` ``None`` when ``col[-1]``, the part
    off their span, is at most ``TOL.cancellation`` of the row's norm."""
    v, col = row, []
    for q in qs:
        col.append(_dot(q, v))
        v = [x - col[-1] * y for x, y in zip(v, q)]
    col.append(math.sqrt(_dot(v, v)))
    if not col[-1] > TOL.cancellation * math.sqrt(_dot(row, row)):
        return None, col
    return [x / col[-1] for x in v], col


def _back(r: list, rhs: list) -> list:
    """``x`` with ``sum_{i >= j} r[i][j] x_i = rhs_j``: the upper triangle of columns ``r``."""
    x = [0.0] * len(rhs)
    for j in reversed(range(len(rhs))):
        x[j] = (rhs[j] - sum(r[i][j] * x[i] for i in range(j + 1, len(rhs)))) / r[j][j]
    return x


def _forward(r: list, rhs: list) -> list:
    """``w`` with ``sum_{i <= j} r[j][i] w_i = rhs_j``: the lower triangle ``R^T``."""
    w = []
    for col, value in zip(r, rhs):
        w.append((value - _dot(col, w)) / col[-1])
    return w


def _shift(point: list, qs: list, w: list) -> list:
    for c, q in zip(w, qs):
        point = [x - c * y for x, y in zip(point, q)]
    return point


def _projection(reduced, z: np.ndarray):
    """The projection of ``z`` onto the tightened sets ``nr_j . x <= inner_j``: the point of
    the first active set (fewest sets first) with independent normals, multipliers ``>= 0``
    and every set within half the margin. With ``N_A^T = Q R`` (each set's factors extend
    those of the set without its last member) the point is ``z - Q w``,
    ``R^T w = N_A z - inner_A``, refined once from its own set values, and the multipliers
    solve ``R mu = w``, so no step squares the normals' condition. Else the multipliers,
    one per set, of a Farkas certificate that passes :func:`_certified_empty`; else
    ``None``. Plain floats: the caller checks the point."""
    rows = [nr.tolist() for nr, *_ in reduced]
    inner = [tight for *_, tight in reduced]
    room = [0.5 * (bound - tight) for _, bound, _, tight in reduced]
    start = z.tolist()
    excess = [_dot(row, start) - c for row, c in zip(rows, inner)]
    factors = {(): ([], [])}  # (Q, R) of the active sets with independent normals
    circuits = []  # active sets independent but for the last normal, with R
    sets = range(len(rows))
    for size in sets:
        for active in combinations(sets, size + 1):
            if active[:-1] not in factors:
                continue
            qs, r = factors[active[:-1]]
            q, col = _extend(qs, rows[active[-1]])
            if q is None:
                circuits.append((active, r + [col]))
                continue
            qs, r = factors[active] = qs + [q], r + [col]
            w = _forward(r, [excess[i] for i in active])
            if min(_back(r, w)) < 0.0:
                continue
            point = _shift(start, qs, w)
            point = _shift(point, qs, _forward(r, [_dot(rows[i], point) - inner[i]
                                                   for i in active]))
            if all(_dot(row, point) - c <= slack for row, c, slack in zip(rows, inner, room)):
                return np.array(point)
    # a minimal empty subsystem has normals with a one-dimensional, positive null space:
    # the last multiplier one, the others solve R lam = -(the last normal's column)
    for active, r in circuits:
        lam = _back(r, [-c for c in r[-1][:-1]])
        if not min(lam, default=0.0) > 0.0:
            continue
        multipliers = [0.0] * len(rows)
        for m, i in zip(lam + [1.0], active):
            multipliers[i] = m
        if _certified_empty(reduced, multipliers):
            return multipliers
    return None


def _certified_empty(reduced, multipliers: list) -> bool:
    """Whether ``m >= 0`` has ``||sum_j m_j nr_j|| <= TOL.cancellation sum_j m_j ||nr_j||``
    (normals that cancel) and ``sum_j m_j bound_j < 0`` (bounds that cannot all hold)."""
    combo = sum(m * nr for m, (nr, *_) in zip(multipliers, reduced))
    size = sum(m * math.sqrt(nn) for m, (_, _, nn, _) in zip(multipliers, reduced))
    return (min(multipliers) >= 0.0 and _norm(combo) <= TOL.cancellation * size
            and sum(m * bound for m, (_, bound, *_) in zip(multipliers, reduced)) < 0.0)


class ProbeStep(NamedTuple):
    """One recorded step of a trajectory for the monotone probe."""

    h: np.ndarray
    h_next: np.ndarray
    instance: ThetaInstance
    basis_next: BasisMatrix


class MonotoneReport(NamedTuple):
    """Per-trajectory monotone-approximation summary: of ``total`` steps, ``certified``
    have an oracle point, ``empty`` a proof that their sets share no point of the range,
    and ``unchecked`` neither (the basis moved, or the oracle found neither)."""

    total: int
    certified: int
    unchecked: int
    empty: int
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

    A step is certified when the basis did not move (the map then fixes the
    whole range) and :func:`find_feasible_point` returns a point of all its
    half-spaces in the range, from the step's anchor; the step then must not
    move farther from that point than ``slack`` (not NaN). A step whose sets
    are proven to share no point counts as empty, and one with a moved basis
    or no oracle answer as unchecked; neither is a failure, and neither is
    certified. Per step the oracle checks the anchor, then makes at most
    ``2^q - 1`` triangular solves of at most q x q, for q half-spaces, and
    checks their point.
    """
    slack = TOL.monotone_slack if slack is None else slack
    if math.isnan(slack):
        raise ValueError("slack must not be NaN")
    unchecked, empty, violations, overs = 0, 0, [], [0.0]
    for idx, st in enumerate(steps):
        inst = st.instance
        omega = (find_feasible_point(inst.half_spaces, inst.basis, start=inst.anchor)
                 if st.basis_next is inst.basis
                 or np.array_equal(inst.basis.matrix, st.basis_next.matrix) else None)
        if isinstance(omega, EmptyIntersection):
            empty += 1
            continue
        if omega is None:
            unchecked += 1
            continue
        overs.append(_norm(st.h_next - omega) - _norm(st.h - omega))
        if overs[-1] > slack:
            violations.append((idx, overs[-1]))
    return MonotoneReport(len(steps), len(steps) - unchecked - empty, unchecked, empty,
                          violations, _worst(overs))


def _error_bound_sets(u, d, windows, anchor: np.ndarray, rho: float, basis: BasisMatrix):
    """Normals ``2 U e`` and offsets ``e . e - rho``, ``e = U^T anchor - d``, of the sets
    ``||U^T x - d||^2 <= rho``, set ``j`` from the rows ``windows[j]`` of ``u`` and ``d``
    (newest first); checked finite, and the anchor in the range."""
    blocks = np.ascontiguousarray(u[windows].transpose(0, 2, 1))  # as np.column_stack lays U
    e = np.matvec(blocks.transpose(0, 2, 1), anchor) - d[windows]
    normals = 2.0 * np.matvec(blocks, e)
    offsets = np.vecdot(e, e) - rho
    if not (all_finite(normals) and all_finite(offsets)):
        raise ValueError("half-space normals and offsets must be finite")
    if not _in_range(anchor, basis):
        raise ValueError("anchor must lie in the basis range")
    normals.flags.writeable = False
    return normals, offsets


def _instance(anchor, normals, offsets, basis: BasisMatrix, weights, **derived) -> ThetaInstance:
    """The instance of checked sets that share one frozen anchor (and its ``derived`` values)."""
    half_spaces = tuple(_unchecked(HalfSpace, normal=v, offset=o, anchor=anchor)
                        for v, o in zip(normals, offsets.tolist()))
    return _unchecked(ThetaInstance, half_spaces=half_spaces, basis=basis, weights=weights,
                      anchor=anchor, **derived)


def _error_bound_instance(ring, error_dim: int, h: np.ndarray, rho: float,
                          basis: BasisMatrix, weights: np.ndarray) -> ThetaInstance:
    """The instance of :func:`_error_bound_sets` over a newest-first ``(u, d)`` ring, with its
    geometry from the stacked sets."""
    anchor, windows = _frozen(h), np.arange(len(weights))[:, None] + np.arange(error_dim)
    sets = anchor, *_error_bound_sets(*map(np.array, zip(*ring)), windows, anchor, rho, basis)
    return _instance(*sets, basis, weights, _geometry=_geometry_of(anchor, sets, basis))


def _static_run(*, n: int, rank: int, projections: int, iters: int, warmup: int = 200,
                error_dim: int = 1, rho: float = 0.05, step_size: float = 1.0,
                snr_db: float = 15.0, subspace_target: bool = False, seed: int = 0):
    """:func:`static_rapsm_run` as steps ``(h, sets, h_next, theta)``, ``sets`` of an instance."""
    for value, name in ((iters, "iters"), (projections, "projections"), (error_dim, "error_dim")):
        check_int(value, name)
    ring_len = projections + error_dim - 1
    check_int(warmup, "warmup", ring_len)
    if not (rho >= 0.0 and 0.0 <= step_size <= 2.0):
        raise ValueError(f"rho must be nonnegative and step_size in [0, 2], got {rho}, {step_size}")
    from .scenarios import SysIdConfig, SysIdScenario

    scen = SysIdScenario(SysIdConfig(n=n, snr_db=snr_db, seed=seed))
    # (steps, N) regressors and (steps,) outputs; a chunk's u is overwritten by the next
    us, ds = map(np.concatenate, zip(*((c.u.copy(), c.d) for c in scen.chunks(warmup + iters))))
    est = CorrelationEstimator("toeplitz", n, 0.999)
    for u, d in zip(us[:warmup], ds[:warmup].tolist()):
        est.update(u, d)
    basis = krylov_basis(est.r_matrix(), est.p_vector(), rank)
    phi = PhiMap(basis, basis)
    if subspace_target:
        ds = np.vecdot(us, _project(scen.h_star, basis))

    weights, h = _uniform_weights(projections), np.zeros(n)
    windows = np.arange(projections)[:, None] + np.arange(error_dim)
    for k in range(warmup, warmup + iters):
        anchor = _frozen(h)
        ring = slice(k, k - ring_len, -1)  # newest first
        sets = (anchor, *_error_bound_sets(us[ring], ds[ring], windows, anchor, rho, basis),
                basis, weights)
        geometry = _geometry_of(anchor, sets[:3], basis)
        h_next = _rapsm_step(anchor, geometry[0], geometry, weights, phi, step_size)
        yield h, sets, h_next, _theta_value(weights, geometry)
        h = h_next


def static_rapsm_run(**config):
    """Drive the full-space update on a stationary stream with a frozen basis.

    Keywords of :func:`_static_run`, checked before the stream is built: counts
    at least 1, ``warmup >= projections + error_dim - 1``, ``rho >= 0`` and
    ``step_size`` in [0, 2]. The warmed-up estimates' Krylov basis is kept for
    ``iters`` steps; with ``subspace_target`` the supervision is the unknown system
    projected onto it. Returns ``(probe_steps, theta_values)``.
    """
    run = list(_static_run(**config))
    return ([ProbeStep(h, h_next, _instance(*sets), sets[3]) for h, sets, h_next, _ in run],
            [theta for *_, theta in run])


class ChainTerm(NamedTuple):
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def scaled_violation(self) -> float:
        """Positive when violated; normalized by the term magnitudes."""
        return -self.slack / (1.0 + abs(self.lhs) + abs(self.rhs))


class CgBoundReport(NamedTuple):
    mse_value: float
    mse_bound: float
    chain: tuple

    @property
    def mse_slack(self) -> float:
        return self.mse_bound - self.mse_value

    @property
    def max_scaled_violation(self) -> float:
        mse = -self.mse_slack / (1.0 + abs(self.mse_value) + abs(self.mse_bound))
        return _worst([mse] + [t.scaled_violation for t in self.chain])

    def passed(self, tol: float) -> bool:
        return self.max_scaled_violation <= tol


def cg_bound_check(matrix: SymMatrix, p, h_star, rank: int, sigma_d2: float) -> CgBoundReport:
    """Evaluate the reduced-rank MSE bound and its Euclidean consequence.

    With ``p = R h_star`` and ``sigma_d2 = ||h_star||_R^2 + sigma_n^2``,
    the MSE at the energy-norm best approximation of ``h_star`` in the
    rank-``rank`` Krylov subspace is at most
    ``(4 a^(2 rank) - 1) ||h_star||_R^2 + sigma_d2``,
    ``a = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)``; the chain ties the
    Euclidean error to ``a`` through the smallest eigenvalue.
    """
    hs = as_vector(h_star, matrix.n)
    return _mse_chain(matrix, as_vector(p, matrix.n), hs, sigma_d2, (rank,))[0]


def _mse_chain(matrix: SymMatrix, pv: np.ndarray, hs: np.ndarray, sigma_d2: float, ranks) -> list:
    """:func:`cg_bound_check` at each of ``ranks`` from one CG run and one Krylov build."""
    dense = matrix.dense()
    if _norm(dense @ hs - pv) > 1e-8 * max(1.0, _norm(pv)):
        raise ValueError("cross-correlation must equal R @ h_star")
    kappa = condition_number(matrix)
    lam_min = float(matrix.eigenvalues[0])
    alpha = (math.sqrt(kappa) - 1.0) / (math.sqrt(kappa) + 1.0)
    h_r2 = _r_norms(hs[None], matrix)[0] ** 2
    ranks, steps = list(ranks), []
    cg_solve_stack(dense[None], pv[None], np.zeros((1, matrix.n)), max(ranks), steps)
    bases, built = krylov_basis_stack(dense[None], pv[None], max(ranks))
    # a row per rank for what needs only its CG iterate x: the MSE's forms, ||h* - x||, ||h* - x||_R
    projs = np.stack([steps[min(rank, len(steps) - 1)][0] for rank in ranks])
    forms = np.vecdot(projs, np.matvec(dense, projs)) - np.vecdot(2.0 * projs, pv)
    errs = hs - projs
    reports = []
    for rank, proj_r, form, t2, t3 in zip(ranks, projs, forms.tolist(),
                                          np.sqrt(np.vecdot(errs, errs)).tolist(),
                                          _r_norms(errs, matrix)):
        bound = (4.0 * alpha ** (2 * rank) - 1.0) * h_r2 + sigma_d2
        s = bases[0, :, :min(built[0], rank)].copy()  # the build checked its columns
        t1 = _norm(s @ (s.T @ hs) - proj_r)
        t3 = t3 / math.sqrt(lam_min)
        t4 = 2.0 * math.sqrt(h_r2) * alpha ** rank / math.sqrt(lam_min)
        reports.append(CgBoundReport(form + sigma_d2, bound, (
            ChainTerm(t1, t2), ChainTerm(t2, t3), ChainTerm(t3, t4))))
    return reports


def subgradient_inequality_check(basis: BasisMatrix, u_block, d_block,
                                 rho: float, point, rng, trials: int = 50) -> float:
    """Max defect of the subdifferential inequality for the error bound map
    ``g(z) = ||(S^T U)^T z - d||^2 - rho``, gradient ``2 (S^T U) e``.

    ``U`` is the finite ``(N, r)`` block of the ``r`` outputs ``d``. At
    ``trials >= 1`` random ``x``, ``<x - y, grad(y)> + g(y) - g(x)`` must be
    nonpositive, and ``y``'s projection must land in the separating half-space.
    """
    check_int(trials, "trials")
    rng = np.random.default_rng(rng)
    d, u = as_vector(d_block), np.asarray(u_block, dtype=float)
    if u.shape != (basis.n, len(d)) or not all_finite(u):
        raise ValueError(f"u_block must be a finite ({basis.n}, {len(d)}) array")
    ured = basis.matrix.T @ u
    y = as_vector(point, basis.rank)

    def g(z):  # of a point, or of each row of a stack
        e = np.matvec(ured.T, z) - d
        return np.vecdot(e, e) - rho

    grad = 2.0 * (ured @ (ured.T @ y - d))
    gy = float(g(y))
    x = y + rng.standard_normal((trials, basis.rank)) * 2.0
    defects = [0.0] + (np.vecdot(x - y, grad) + gy - g(x)).tolist()
    if gy > 0.0:
        hs = HalfSpace(normal=grad, offset=gy, anchor=y)
        proj = project_half_space(y, hs)
        defects.append(hs.violation(proj))
    return _worst(defects)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    max_violation: float
    tolerance: float
    detail: str = ""


class _Outcome(NamedTuple):
    """A draw's worst defect and what its pass rule adds to ``defect <= tolerance``.

    ``gate`` must hold in every draw; a ``scale`` makes the tolerance
    ``tolerance * scale`` (a zero scale passes).
    """

    defect: float
    gate: bool = True
    scale: float | None = None
    detail: str = ""


def _random_orthonormal(n: int, d: int, rng) -> BasisMatrix:
    q, r = np.linalg.qr(rng.standard_normal((n, d)))
    return BasisMatrix(q * np.sign(np.diag(r)))


def _random_spd(n: int, rng, lo: float = 0.5, hi: float = 3.0) -> SymMatrix:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SymMatrix(q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T)


def _random_instance(rng, n: int = 8, d: int = 3, q: int = 3, rho: float = 0.1) -> ThetaInstance:
    basis = _random_orthonormal(n, d, rng)
    anchor = basis.matrix @ rng.standard_normal(d)
    ring = [(rng.standard_normal(n), rng.standard_normal()) for _ in range(q)]
    return _error_bound_instance(ring, 1, anchor, rho, basis, _uniform_weights(q))


def _krylov_bases(rng, seed):
    """Orthonormality and span of the Krylov basis of a random SPD matrix."""
    n = int(rng.integers(4, 12))
    d = int(rng.integers(1, n + 1))
    mat = _random_spd(n, rng)
    p = rng.standard_normal(n)
    basis = krylov_basis(mat, p, d)
    spans, v = [], p
    for _ in range(basis.rank):
        spans.append(_norm(v - project_subspace(v, basis)) / _norm(v))
        v = mat.matvec(v)
    gram = basis.matrix.T @ basis.matrix
    return float(np.max(np.abs(gram - np.eye(basis.rank)))), _worst(spans)


def _halfspace_boundary(rng, seed):
    """Half-space projection boundary placement."""
    n = int(rng.integers(2, 9))
    hs = HalfSpace(rng.standard_normal(n), abs(rng.standard_normal()) + 0.1,
                   rng.standard_normal(n))
    proj = project_half_space(hs.anchor, hs)
    return abs(hs.violation(proj))


def _projector_pythagoras(rng, seed):
    """Pythagoras for subspace projections."""
    n = int(rng.integers(3, 12))
    d = int(rng.integers(1, n))
    basis = _random_orthonormal(n, d, rng)
    x = rng.standard_normal(n)
    px = _project(x, basis)
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
    gain = _norm(_apply_phi(phi, x)) - _norm(x)
    zero_img = _norm(_apply_phi(phi, np.zeros(n)))
    fix = [_norm(col - _project(col, b))
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
    return _worst((gain, zero_img)), _Outcome(_worst(fix), gate=attracting_ok)


def _theta_convexity(rng, seed):
    """Objective convexity along a random segment, and nonnegativity."""
    inst = _random_instance(rng)
    x = rng.standard_normal(inst.basis.n) * 2.0
    y = rng.standard_normal(inst.basis.n) * 2.0
    tx, ty = theta_value(inst, x), theta_value(inst, y)
    gaps = [0.0]
    for nu in np.linspace(0.0, 1.0, 7):
        mid = theta_value(inst, nu * x + (1 - nu) * y)
        gaps.append(mid - (nu * tx + (1 - nu) * ty))
    return _worst(gaps + [-_worst((tx, ty), min)])


def _theta_feasible_zero(rng, seed):
    """The objective vanishes at an oracle-found feasible point (0 without one)."""
    inst = _random_instance(rng)
    omega = find_feasible_point(inst.half_spaces, inst.basis, start=inst.anchor)
    return _worst((0.0, theta_value(inst, omega))) if isinstance(omega, np.ndarray) else 0.0


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
    defects, ring = [0.0], []
    for u, dv in zip(us, ds):
        ring = [(u, dv)] + ring[:q - 1]
        basis, builds_before = filt.basis, filt.build_count
        if basis is not None:
            inst = _error_bound_instance(ring, 1, basis.matrix @ filt.h_tilde, rho, basis,
                                         _uniform_weights(len(ring)))
            predicted = basis.matrix.T @ rapsm_step(inst.anchor, inst, PhiMap(basis, basis),
                                                    step_size)
        filt.step(u, dv)
        # a refresh rebases the reduced vector after the update: compare only if the basis survived
        if basis is not None and filt.build_count == builds_before:
            defects.append(float(np.max(np.abs(predicted - filt.h_tilde))))
    return _worst(defects)


def _monotone_approximation(rng, seed):
    """Monotone approximation on a stationary frozen-basis run, 95% of steps certified."""
    steps, _ = static_rapsm_run(n=16, rank=4, projections=3, iters=150,
                                rho=0.05, step_size=0.6, seed=seed + 7)
    rep = monotone_probe(steps)
    empty = f", {rep.empty} empty" if rep.empty else ""
    return _Outcome(rep.max_overshoot, gate=rep.passed and rep.certified_fraction >= 0.95,
                    detail=f"certified {rep.certified}/{rep.total}{empty}")


def _asymptotic_surrogate(rng, seed):
    """Asymptotic surrogate on a consistent (noiseless) stationary run, relative to its start."""
    thetas = [theta for *_, theta in _static_run(n=12, rank=3, projections=3, iters=500,
                                                 rho=1e-4, step_size=1.0, snr_db=math.inf,
                                                 subspace_target=True, seed=seed + 11)]
    initial = next((t for t in thetas if t > 0.0), 0.0)
    return _Outcome(_worst(thetas[-max(1, len(thetas) // 10):], min), scale=initial)


def _mse_bound_chain(rng, seed):
    """MSE bound with the Euclidean chain, at every rank of a random SPD matrix."""
    n = int(rng.integers(2, 11))
    mat = _random_spd(n, rng)
    h_star = rng.standard_normal(n)
    p = mat.matvec(h_star)
    sigma_n2 = float(rng.uniform(0.0, 0.5))
    sigma_d2 = _r_norms(h_star[None], mat)[0] ** 2 + sigma_n2
    return _worst(rep.max_scaled_violation
                  for rep in _mse_chain(mat, p, h_star, sigma_d2, range(1, n + 1)))


def _subgradient_inequality(rng, seed):
    """Subdifferential inequality for the bounded-error map."""
    n, d, r = 8, 3, 2
    basis = _random_orthonormal(n, d, rng)
    ub = rng.standard_normal((n, r))
    db = rng.standard_normal(r)
    y = rng.standard_normal(d)
    return subgradient_inequality_check(basis, ub, db, 0.1, y, rng)


# The suite in the order it draws from its one generator: a check (one draw from it and
# the suite seed), its draws and each defect's (name, tolerance).
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

    A name reports its worst defect over the draws (the first of equal ones);
    a NaN defect is the worst and fails its check.
    """
    rng = np.random.default_rng(seed)
    results = []
    for check, draws, *named in _CHECKS:
        worst = [_Outcome(-math.inf)] * len(named)
        for _ in range(draws):
            outcomes = check(rng, seed)
            for i, out in enumerate(outcomes if len(named) > 1 else (outcomes,)):
                out = out if isinstance(out, _Outcome) else _Outcome(out)
                worst[i] = out._replace(defect=_worst((worst[i].defect, out.defect)),
                                        gate=worst[i].gate and out.gate)
        for (name, tol), out in zip(named, worst):
            limit = tol if out.scale is None else tol * out.scale
            passed = (out.gate and not math.isnan(out.defect)
                      and (out.scale == 0.0 or out.defect <= limit))
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
