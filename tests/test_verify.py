import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrapsp import TOL, HalfSpace, SymMatrix, linalg, r_norm, verify
from krrapsp.cli import main
from krrapsp.linalg import BasisMatrix, _unchecked, project_subspace
from krrapsp.verify import (
    ChainTerm,
    CheckResult,
    EmptyIntersection,
    PhiMap,
    ProbeStep,
    ThetaInstance,
    apply_phi,
    attracting_check,
    cg_bound_check,
    find_feasible_point,
    fixed_point_set,
    format_report,
    halfspace_range_distance,
    monotone_probe,
    rapsm_step,
    run_all,
    static_rapsm_run,
    subgradient_inequality_check,
    theta_value,
)

from conftest import random_orthonormal, random_spd
from oracles import (
    brute_force_projection,
    frozen_attracting_projection_case,
    frozen_error_bound_half_spaces,
    frozen_find_feasible_point,
    frozen_fixed_point_set,
    frozen_mse_chain,
    frozen_rapsm_step,
    frozen_subgradient_inequality_check,
    frozen_theta_value,
)


def make_instance(rng, n=8, d=3, q=3, rho=0.1, anchor=None):
    basis = BasisMatrix(random_orthonormal(n, d, rng))
    if anchor is None:
        anchor = basis.matrix @ rng.standard_normal(d)
    half_spaces = []
    for _ in range(q):
        u = rng.standard_normal((n, 1))
        dval = np.array([rng.standard_normal()])
        e = u.T @ anchor - dval
        g = float(e @ e) - rho
        half_spaces.append(HalfSpace(normal=2.0 * (u @ e).ravel(), offset=g,
                                     anchor=anchor))
    w = np.full(q, 1.0 / q)
    return ThetaInstance(tuple(half_spaces), basis, w, anchor)


class TestPhiMap:
    def test_same_basis_equals_projector(self, rng):
        basis = BasisMatrix(random_orthonormal(7, 3, rng))
        phi = PhiMap(basis, basis)
        x = rng.standard_normal(7)
        assert np.allclose(apply_phi(phi, x), project_subspace(x, basis), atol=1e-14)

    def test_zero_maps_to_zero(self, rng):
        phi = PhiMap(BasisMatrix(random_orthonormal(6, 2, rng)),
                     BasisMatrix(random_orthonormal(6, 2, rng)))
        assert np.array_equal(apply_phi(phi, np.zeros(6)), np.zeros(6))

    def test_nonexpansive_with_equality_iff_in_range(self, rng):
        prev = BasisMatrix(random_orthonormal(8, 3, rng))
        nxt = BasisMatrix(random_orthonormal(8, 3, rng))
        phi = PhiMap(prev, nxt)
        x_in = prev.matrix @ rng.standard_normal(3)
        assert abs(np.linalg.norm(apply_phi(phi, x_in)) - np.linalg.norm(x_in)) <= 1e-12
        x_out = rng.standard_normal(8)
        x_out = x_out - project_subspace(x_out, prev) + 0.01 * x_in
        assert np.linalg.norm(apply_phi(phi, x_out)) < np.linalg.norm(x_out)

    def test_rank_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            PhiMap(BasisMatrix(random_orthonormal(6, 2, rng)),
                   BasisMatrix(random_orthonormal(6, 3, rng)))


def validated_cases():
    """``(type, good arguments, bad arguments)`` of each record that validates itself."""
    axes, wide = BasisMatrix(np.eye(4)[:, :2]), BasisMatrix(np.eye(4)[:, :3])
    hs = HalfSpace(np.ones(4), 0.5, np.zeros(4))
    return [
        (BasisMatrix, (np.eye(4)[:, :2],), (np.ones((4, 2)),)),
        (HalfSpace, (np.ones(4), 0.5, np.zeros(4)), (np.ones(4), math.inf, np.zeros(4))),
        (PhiMap, (axes, axes), (axes, wide)),
        (ThetaInstance, ((hs,), axes, [1.0], np.zeros(4)), ((hs,), axes, [0.5], np.zeros(4))),
    ]


class TestRecords:
    @pytest.mark.parametrize("kind, good, bad", validated_cases(),
                             ids=["BasisMatrix", "HalfSpace", "PhiMap", "ThetaInstance"])
    def test_validated_types_raise_before_construction(self, monkeypatch, kind, good, bad):
        # the tuple is made by the NamedTuple base, which bad arguments never reach
        base, made = kind.__bases__[0], []
        build = base.__new__
        monkeypatch.setattr(base, "__new__", staticmethod(
            lambda cls, *args: made.append(cls) or build(cls, *args)))
        with pytest.raises(ValueError):
            kind(*bad)
        assert made == []
        record = kind(*good)
        assert made == [kind]
        with pytest.raises(AttributeError):  # read-only fields
            setattr(record, kind._fields[0], good[0])
        assert repr(kind(**dict(zip(kind._fields, good)))) == repr(record)

    def test_unchecked_keeps_derived_values(self, rng):
        inst = make_instance(rng)
        geometry = object()
        fast = _unchecked(ThetaInstance, **inst._asdict(), _geometry=geometry)
        assert type(fast) is ThetaInstance and fast._geometry is geometry
        assert all(a is b for a, b in zip(fast, inst))

    def test_reprs(self):
        # the strings these records printed as dataclasses
        assert repr(CheckResult("mse-bound-chain", True, 9.73e-16, 1e-09)) == (
            "CheckResult(name='mse-bound-chain', passed=True, max_violation=9.73e-16, "
            "tolerance=1e-09, detail='')")
        assert repr(ChainTerm(0.25, 1.5)) == "ChainTerm(lhs=0.25, rhs=1.5)"


class TestFixedPointSet:
    def test_same_basis_full_range(self, rng):
        basis = BasisMatrix(random_orthonormal(7, 3, rng))
        fset = fixed_point_set(PhiMap(basis, basis))
        assert fset.shape == (7, 3)
        for col in fset.T:
            assert np.linalg.norm(col - project_subspace(col, basis)) <= 1e-9

    def test_shared_column_is_fixed(self, rng):
        base = random_orthonormal(8, 3, rng)
        c, s = np.cos(0.7), np.sin(0.7)
        rotated = base.copy()
        rotated[:, 1] = c * base[:, 1] + s * base[:, 2]
        rotated[:, 2] = -s * base[:, 1] + c * base[:, 2]
        phi = PhiMap(BasisMatrix(base), BasisMatrix(rotated))
        fset = fixed_point_set(phi)
        assert fset.shape[1] >= 1
        # the shared first column must lie in the fixed subspace
        proj = fset @ (fset.T @ base[:, 0])
        assert np.linalg.norm(proj - base[:, 0]) <= 1e-8

    def test_fixed_vectors_in_both_ranges(self, rng):
        for _ in range(10):
            prev = BasisMatrix(random_orthonormal(7, 3, rng))
            nxt = BasisMatrix(random_orthonormal(7, 3, rng))
            fset = fixed_point_set(PhiMap(prev, nxt))
            for col in fset.T:
                for b in (prev, nxt):
                    assert np.linalg.norm(col - project_subspace(col, b)) <= 1e-8


class TestAttractingCheck:
    def test_projection_case_identity(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        report = attracting_check(PhiMap(basis, basis), trials=20, rng=rng)
        assert report.projection_case
        assert report.max_identity_defect <= 1e-9

    def test_moving_case_witness(self, rng):
        prev = BasisMatrix(random_orthonormal(6, 2, rng))
        nxt = BasisMatrix(random_orthonormal(6, 2, rng))
        report = attracting_check(PhiMap(prev, nxt), rng=rng)
        assert not report.projection_case
        assert report.witness_norm_gap <= 1e-12
        assert report.witness_displacement > 1e-8


class TestTheta:
    def test_feasible_anchor_gives_zero(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        anchor = basis.matrix @ rng.standard_normal(2)
        hs = HalfSpace(normal=rng.standard_normal(6), offset=-1.0, anchor=anchor)
        inst = ThetaInstance((hs,), basis, np.array([1.0]), anchor)
        assert theta_value(inst, rng.standard_normal(6)) == 0.0

    def test_zero_at_anchor_projection(self, rng):
        inst = make_instance(rng, q=1)
        hs = inst.half_spaces[0]
        if hs.violation(inst.anchor) <= 0:
            pytest.skip("anchor feasible for this draw")
        qs = project_subspace(hs.normal, inst.basis)
        proj = inst.anchor - (hs.violation(inst.anchor) / float(qs @ qs)) * qs
        assert theta_value(inst, proj) <= 1e-12

    def test_convex_along_segments(self, rng):
        for _ in range(10):
            inst = make_instance(rng)
            x = rng.standard_normal(inst.basis.n) * 2
            y = rng.standard_normal(inst.basis.n) * 2
            tx, ty = theta_value(inst, x), theta_value(inst, y)
            for nu in np.linspace(0, 1, 9):
                mid = theta_value(inst, nu * x + (1 - nu) * y)
                assert mid <= nu * tx + (1 - nu) * ty + 1e-10

    def test_nonnegative(self, rng):
        inst = make_instance(rng)
        for _ in range(10):
            assert theta_value(inst, rng.standard_normal(inst.basis.n)) >= 0.0

    def test_distance_matches_reduced_closed_form(self, rng):
        # distance from an off-range point to halfspace-within-range, via the
        # reduced-coordinates closed form as an independent oracle
        for _ in range(10):
            n, d = 7, 3
            basis = BasisMatrix(random_orthonormal(n, d, rng))
            anchor = basis.matrix @ rng.standard_normal(d)
            normal = rng.standard_normal(n)
            hs = HalfSpace(normal=normal, offset=float(rng.standard_normal()),
                           anchor=anchor)
            x = rng.standard_normal(n) * 2
            dist = halfspace_range_distance(x, hs, basis)
            # project reduced coordinates onto the reduced half-space, add
            # the out-of-range energy by Pythagoras
            z = basis.matrix.T @ x
            nr = basis.matrix.T @ normal
            bound = float(anchor @ normal) - hs.offset
            viol = float(nr @ z) - bound
            if viol > 0:
                z = z - (viol / float(nr @ nr)) * nr
            inside = basis.matrix @ z
            expected = math.sqrt(float(np.sum((x - inside) ** 2)))
            assert abs(dist - expected) <= 1e-12 * expected
        # an in-range point violating the half-space by g(x) = 1 is measured
        # as g(x) / ||Q s||
        x = basis.matrix @ rng.standard_normal(d)
        hs = HalfSpace(normal=rng.standard_normal(n), offset=1.0, anchor=x)
        qn = project_subspace(hs.normal, basis)
        assert halfspace_range_distance(x, hs, basis) == 1.0 / float(np.linalg.norm(qn))
        # a half-space whose normal is exactly orthogonal to the range and
        # which excludes the whole range
        axes = BasisMatrix(np.eye(n)[:, :d])
        hs = HalfSpace(normal=np.eye(n)[d], offset=1.0, anchor=np.zeros(n))
        for x in (np.zeros(n), rng.standard_normal(n)):
            with pytest.raises(ValueError, match="does not intersect"):
                halfspace_range_distance(x, hs, axes)

    def test_anchor_must_be_in_range(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        hs = HalfSpace(normal=rng.standard_normal(6), offset=0.0,
                       anchor=np.zeros(6))
        with pytest.raises(ValueError):
            ThetaInstance((hs,), basis, np.array([1.0]), rng.standard_normal(6) * 3)

    def test_non_finite_weights_rejected(self, rng):
        # a NaN weight fails no comparison and makes the sum NaN, which is not
        # "off by more than the tolerance" either
        inst = make_instance(rng, q=2)
        for w in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan], [np.inf, 0.5]):
            with pytest.raises(ValueError, match="weights must be positive"):
                ThetaInstance(inst.half_spaces, inst.basis, np.array(w), inst.anchor)


class TestRapsmStep:
    def test_feasible_point_passes_through_phi(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        anchor = basis.matrix @ rng.standard_normal(2)
        hs = HalfSpace(normal=rng.standard_normal(6), offset=-0.5, anchor=anchor)
        inst = ThetaInstance((hs,), basis, np.array([1.0]), anchor)
        phi = PhiMap(basis, basis)
        out = rapsm_step(anchor, inst, phi, 1.0)
        assert np.allclose(out, apply_phi(phi, anchor), atol=1e-14)

    def test_single_halfspace_closed_form(self, rng):
        inst = make_instance(rng, q=1)
        hs = inst.half_spaces[0]
        if hs.violation(inst.anchor) <= 0:
            pytest.skip("anchor feasible for this draw")
        phi = PhiMap(inst.basis, inst.basis)
        lam = 0.8
        out = rapsm_step(inst.anchor, inst, phi, lam)
        qs = project_subspace(hs.normal, inst.basis)
        proj = inst.anchor - (hs.violation(inst.anchor) / float(qs @ qs)) * qs
        expected = inst.anchor + lam * (proj - inst.anchor)
        assert np.max(np.abs(out - expected)) <= 1e-11

    def test_lambda_range_validated(self, rng):
        inst = make_instance(rng)
        phi = PhiMap(inst.basis, inst.basis)
        with pytest.raises(ValueError):
            rapsm_step(inst.anchor, inst, phi, 2.5)


class TestMonotoneProbe:
    def test_zero_step_distances_constant(self):
        steps, _ = static_rapsm_run(n=10, rank=3, projections=2, iters=40,
                                    rho=0.05, step_size=0.0, seed=3)
        for st in steps:
            assert np.linalg.norm(st.h_next - st.h) <= 1e-12
        report = monotone_probe(steps)
        assert report.passed

    def test_stationary_run_certified_and_monotone(self):
        steps, _ = static_rapsm_run(n=16, rank=4, projections=3, iters=200,
                                    rho=0.05, step_size=0.8, seed=11)
        report = monotone_probe(steps)
        assert report.certified_fraction >= 0.95
        assert report.passed

    def test_strict_decrease_with_interior_step(self, rng):
        # a violated instance with an interior relaxation strictly reduces
        # the distance to a feasible point
        inst = make_instance(rng, q=2, rho=0.05)
        if all(h.violation(inst.anchor) <= 0 for h in inst.half_spaces):
            pytest.skip("anchor feasible for this draw")
        phi = PhiMap(inst.basis, inst.basis)
        omega = find_feasible_point(inst.half_spaces, inst.basis, start=inst.anchor)
        assert omega is not None
        h_next = rapsm_step(inst.anchor, inst, phi, 1.0)
        assert (np.linalg.norm(h_next - omega)
                < np.linalg.norm(inst.anchor - omega) - 1e-12)

    def test_empty_step_reported_apart(self, rng):
        inst = make_instance(rng, q=1)
        hs = inst.half_spaces[0]
        q = project_subspace(hs.normal, inst.basis)
        opposite = HalfSpace(-hs.normal, -hs.offset + float(q @ q), hs.anchor)  # no slab
        empty = ThetaInstance((hs, opposite), inst.basis, [0.5, 0.5], inst.anchor)
        report = monotone_probe([ProbeStep(h=inst.anchor, h_next=inst.anchor, instance=empty,
                                           basis_next=inst.basis)])
        assert (report.certified, report.unchecked, report.empty) == (0, 0, 1)
        assert report.certified_fraction == 0.0 and report.passed

    @pytest.mark.parametrize("counts, detail, gate", [
        ((147, 3, 0), "certified 147/150", True),
        ((147, 0, 3), "certified 147/150, 3 empty", True),
        ((140, 0, 10), "certified 140/150, 10 empty", False),  # empty steps are not certified
    ])
    def test_check_names_empty_steps_only_when_some(self, monkeypatch, counts, detail, gate):
        report = verify.MonotoneReport(150, *counts, [], 0.0)
        monkeypatch.setattr(verify, "monotone_probe", lambda steps: report)
        out = verify._monotone_approximation(None, 0)
        assert out.detail == detail and out.gate is gate

    def test_basis_change_reported_unchecked(self, rng):
        inst = make_instance(rng)
        other = BasisMatrix(random_orthonormal(inst.basis.n, inst.basis.rank, rng))
        step = ProbeStep(h=inst.anchor, h_next=inst.anchor, instance=inst,
                         basis_next=other)
        report = monotone_probe([step])
        assert report.unchecked == 1 and report.certified == 0


class TestCgBound:
    def test_unit_condition_number_collapse(self):
        mat = SymMatrix(2.0 * np.eye(5))
        h_star = np.ones(5)
        p = mat.matvec(h_star)
        sigma_n2 = 0.3
        sigma_d2 = r_norm(h_star, mat) ** 2 + sigma_n2
        report = cg_bound_check(mat, p, h_star, 1, sigma_d2)
        assert abs(report.mse_value - sigma_n2) <= 1e-9
        assert report.passed(1e-9)

    def test_small_diagonal_instance(self):
        mat = SymMatrix(np.diag([1.0, 2.0, 4.0]))
        h_star = np.array([0.7, -0.4, 0.2])
        p = mat.matvec(h_star)
        sigma_d2 = r_norm(h_star, mat) ** 2 + 0.1
        for rank in (1, 2, 3):
            report = cg_bound_check(mat, p, h_star, rank, sigma_d2)
            assert report.passed(1e-9)
            assert report.mse_slack >= -1e-9

    def test_full_rank_reaches_noise_floor(self, rng):
        a = random_spd(6, rng)
        h_star = rng.standard_normal(6)
        mat = SymMatrix(a)
        p = mat.matvec(h_star)
        sigma_n2 = 0.2
        sigma_d2 = r_norm(h_star, mat) ** 2 + sigma_n2
        report = cg_bound_check(mat, p, h_star, 6, sigma_d2)
        assert abs(report.mse_value - sigma_n2) <= 1e-8

    def test_mismatched_cross_correlation_rejected(self, rng):
        mat = SymMatrix(np.eye(3))
        with pytest.raises(ValueError):
            cg_bound_check(mat, np.ones(3), 2 * np.ones(3), 1, 1.0)


def counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


class TestSharedWork:
    def test_mse_chain_equals_the_per_rank_checks(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            mat = SymMatrix(random_spd(n, rng, lo=0.4, hi=4.0))
            h_star = rng.standard_normal(n)
            p = mat.matvec(h_star)
            sigma_d2 = r_norm(h_star, mat) ** 2 + float(rng.uniform(0.0, 0.5))
            shared = verify._mse_chain(mat, p, h_star, sigma_d2, range(1, n + 1))
            # each rank on a fresh matrix: its own CG run, build and eigenvalues
            each = [cg_bound_check(SymMatrix(mat.dense()), p, h_star, rank, sigma_d2)
                    for rank in range(1, n + 1)]
            assert repr(shared) == repr(each)

    def test_one_build_one_solve_one_eigendecomposition_per_chain(self, monkeypatch):
        calls = dict.fromkeys(("krylov", "cg", "eig"), 0)
        monkeypatch.setattr(verify, "krylov_basis_stack",
                            counting(calls, "krylov", verify.krylov_basis_stack))
        monkeypatch.setattr(verify, "cg_solve_stack", counting(calls, "cg", verify.cg_solve_stack))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting(calls, "eig", np.linalg.eigvalsh))
        rng = np.random.default_rng(3)
        for draw in range(1, 6):
            verify._mse_bound_chain(rng, 0)
            assert calls == {"krylov": draw, "cg": draw, "eig": draw}

    def test_theta_at_the_anchor_computes_each_distance_once(self, monkeypatch, rng):
        inst = make_instance(rng, q=4, rho=1e-9)
        assert all(hs.violation(inst.anchor) > 0.0 for hs in inst.half_spaces)
        calls = {"distance": 0}
        monkeypatch.setattr(verify, "_distance", counting(calls, "distance", verify._distance))
        value = theta_value(inst, inst.anchor)
        assert calls["distance"] == 4  # not 8: the distances at x are the anchor's
        # an equal point that is not the anchor is measured afresh, to the same value
        assert theta_value(inst, inst.anchor.copy()) == value and calls["distance"] == 12

    def test_static_step_range_tests_its_anchor_once(self, monkeypatch):
        calls = {"range": 0}
        monkeypatch.setattr(verify, "_in_range", counting(calls, "range", verify._in_range))
        steps, _ = static_rapsm_run(n=10, rank=3, projections=3, iters=20, seed=4)
        assert calls["range"] == len(steps) == 20  # at construction of each instance


def frozen_sets(u, d, windows, anchor, rho, basis):
    """``verify._error_bound_sets`` through the frozen build and the public constructors."""
    count, error_dim = windows.shape
    half_spaces = frozen_error_bound_half_spaces(list(zip(u, d.tolist())), count, error_dim,
                                                 anchor, rho)
    ThetaInstance(half_spaces, basis, verify._uniform_weights(count), anchor)  # its checks
    return (np.array([hs.normal for hs in half_spaces]),
            np.array([hs.offset for hs in half_spaces]))


def same_bytes(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def same_point(got, want):
    return got is want is None or (got is not None and want is not None
                                   and same_bytes(got, want))


def reduced_problem(half_spaces, basis):
    """The oracle's reduced sets by its own products: ``(normals, bounds, tightened bounds)``
    of the sets whose normal meets the range, and the indices of those that exclude it."""
    rows, excluded = [], []
    for j, hs in enumerate(half_spaces):
        nr = basis.matrix.T @ hs.normal
        bound = float(hs.anchor @ hs.normal) - hs.offset
        nn = float(nr @ nr)
        if nn == 0.0:
            excluded += [j] if bound < 0.0 else []
            continue
        rows.append((nr, bound, bound - 1e-9 * (1.0 + abs(bound) + math.sqrt(nn))))
    normals = np.array([nr for nr, _, _ in rows]).reshape(len(rows), basis.rank)
    return (normals, *(np.array([row[k] for row in rows]) for k in (1, 2))), excluded


def oracle_path(half_spaces, basis, start=None):
    """Check ``find_feasible_point``'s answer and return the path that gave it.

    ``"start"``: the frozen loop's check holds at the start, before any pass, and the
    answer is its point, bit for bit. Otherwise ``"exact"``: a point of every set (the
    check's products at its reduced coordinates) no farther from the start than the
    brute-force projection onto the tightened sets, moved in by what rounding of the
    products at that point can reach; ``"empty"``: a certificate that checks out, for
    sets that the brute-force oracle finds empty; or ``"unknown"`` (``None``), only where
    the tightened sets are empty or their projection lies so far out that rounding of
    the products there reaches half the margin, so no point of them can be certified.
    """
    got = find_feasible_point(half_spaces, basis, start)
    want = frozen_find_feasible_point(half_spaces, basis, start, max_iter=0)
    if want is not None:
        assert same_bytes(got, want)
        return "start"
    s = basis.matrix
    (normals, bounds, inner), excluded = reduced_problem(half_spaces, basis)
    z0 = s.T @ start if start is not None else np.zeros(basis.rank)
    if isinstance(got, EmptyIntersection):
        m = np.array(got.multipliers)
        every = np.array([s.T @ hs.normal for hs in half_spaces])
        combo = m @ every
        assert m.shape == (len(half_spaces),) and np.all(m >= 0.0)
        assert math.sqrt(combo @ combo) <= TOL.cancellation * (m @ np.sqrt(np.sum(every ** 2, 1)))
        assert m @ [float(hs.anchor @ hs.normal) - hs.offset for hs in half_spaces] < 0.0
        assert excluded or brute_force_projection(normals, bounds, z0) is None
        return "empty"
    assert not excluded
    nearest = brute_force_projection(normals, inner, z0)
    if nearest is not None:  # rounding of nr . z at the projection, about eps ||nr|| ||z||
        rounding = 1e-15 * np.sqrt(np.sum(normals ** 2, 1)) * (1.0 + np.linalg.norm(nearest))
    if got is None:
        assert nearest is None or np.any(rounding >= 0.5 * (bounds - inner))
        return "unknown"
    z = s.T @ got
    assert all(float(nr @ z) <= b for nr, b in zip(normals, bounds.tolist()))
    assert nearest is not None
    farthest = brute_force_projection(normals, inner - rounding, z0)
    dist = np.linalg.norm(farthest - z0)
    assert np.linalg.norm(z - z0) <= dist + 1e-9 * (1.0 + dist)
    return "exact"


# the monotone-approximation and asymptotic-surrogate shapes, other seeds, r = 2
STATIC_RUNS = [
    *(dict(n=16, rank=4, projections=3, iters=150, rho=0.05, step_size=0.6, seed=seed)
      for seed in (0, 7, 13)),
    dict(n=12, rank=3, projections=3, iters=300, rho=1e-4, snr_db=math.inf,
         subspace_target=True, seed=11),
    *(dict(n=10, rank=3, projections=3, iters=100, error_dim=2, rho=0.05, step_size=0.8,
           seed=seed) for seed in (2, 9)),
    dict(n=12, rank=3, projections=2, iters=150, error_dim=2, rho=1e-4, snr_db=math.inf,
         subspace_target=True, seed=5),
]


class TestLeanStaticBuild:
    @pytest.mark.parametrize("kwargs", STATIC_RUNS)
    def test_static_run_equals_the_frozen_build(self, monkeypatch, kwargs):
        steps, thetas = static_rapsm_run(**kwargs)
        monkeypatch.setattr(verify, "_error_bound_sets", frozen_sets)
        want_steps, want_thetas = static_rapsm_run(**kwargs)
        assert same_bytes(thetas, want_thetas) and len(steps) == len(want_steps)
        for st, want in zip(steps, want_steps):
            assert same_bytes(st.h, want.h) and same_bytes(st.h_next, want.h_next)
            inst, ref = st.instance, want.instance
            assert same_bytes(inst.anchor, ref.anchor) and same_bytes(inst.weights, ref.weights)
            assert len(inst.half_spaces) == len(ref.half_spaces) == kwargs["projections"]
            for hs, ref_hs in zip(inst.half_spaces, ref.half_spaces):
                assert same_bytes(hs.normal, ref_hs.normal)
                assert same_bytes(hs.offset, ref_hs.offset) and type(hs.offset) is float
                assert same_bytes(hs.anchor, ref_hs.anchor)
                # one read-only anchor per step, shared with the instance
                assert hs.anchor is inst.anchor and not hs.normal.flags.writeable
            assert not inst.anchor.flags.writeable and inst.anchor is not st.h

    @pytest.mark.parametrize("kwargs", [STATIC_RUNS[0], STATIC_RUNS[4]])
    def test_oracle_equals_the_frozen_loop_on_static_steps(self, kwargs):
        steps, _ = static_rapsm_run(**kwargs)
        paths = Counter(oracle_path(step.instance.half_spaces, step.instance.basis, start)
                        for step in steps for start in (step.instance.anchor, None))
        assert set(paths) == {"start", "exact"}  # no step empty or unknown

    def test_oracle_equals_the_frozen_loop_at_the_cap_and_on_random_sets(self, rng):
        paths = set()
        for _ in range(30):
            inst = make_instance(rng, q=int(rng.integers(1, 6)), rho=float(rng.uniform(1e-3, 1.0)))
            for start in (inst.anchor, None):
                paths.add(oracle_path(inst.half_spaces, inst.basis, start))
        assert paths == {"start", "exact", "empty"}  # q > D admits empty sets
        # an empty intersection within the range: the frozen loop gives up at every cap,
        # the oracle proves it empty
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        s = basis.matrix[:, 0]
        empty = (HalfSpace(s, 1.0, np.zeros(6)), HalfSpace(-s, 1.0, np.zeros(6)))
        for cap in (0, 3, 5000):
            assert frozen_find_feasible_point(empty, basis, max_iter=cap) is None
        assert find_feasible_point(empty, basis) == EmptyIntersection((1.0, 1.0))
        assert oracle_path(empty, basis) == "empty"

    def test_oracle_equals_the_frozen_loop_off_the_range(self):
        # a normal orthogonal to the range: excluded (bound < 0, proven empty) or skipped
        n, d = 5, 2
        axes = BasisMatrix(np.eye(n)[:, :d])
        off = np.eye(n)[d]
        inside = HalfSpace(np.eye(n)[0], 0.5, np.zeros(n))
        for offset, excluded in ((1.0, True), (-1.0, False), (0.0, False)):
            sets = (inside, HalfSpace(off, offset, np.zeros(n)))
            assert oracle_path(sets, axes) == ("empty" if excluded else "exact")
            if excluded:
                assert find_feasible_point(sets, axes) == EmptyIntersection((0.0, 1.0))
        assert same_point(find_feasible_point((), axes), frozen_find_feasible_point((), axes))

    @pytest.mark.parametrize("u_scale, h_scale", [(1e200, 1.0), (1e200, 1e-50), (1e-100, 1e260)])
    def test_overflowing_ring_raises_before_any_instance(self, u_scale, h_scale):
        # e . e and 2 U e overflow; only 2 U e; only e . e
        basis = BasisMatrix(np.eye(4)[:, :2])
        ring = [(u_scale * np.ones(4), 0.0), (np.ones(4), 0.0)]
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
            verify._error_bound_instance(ring, 1, h_scale * basis.matrix[:, 0], 0.05, basis,
                                         verify._uniform_weights(2))

    def test_static_validation_grows_per_step_not_per_half_space(self, monkeypatch):
        calls = {"as_vector": 0}
        spy = counting(calls, "as_vector", linalg.as_vector)
        monkeypatch.setattr(verify, "as_vector", spy)
        monkeypatch.setattr(linalg, "as_vector", spy)  # the public constructors' checks
        for q in (1, 3, 6):
            counts = []
            for iters in (10, 20):
                calls["as_vector"] = 0
                static_rapsm_run(n=10, rank=3, projections=q, iters=iters, seed=4)
                counts.append(calls["as_vector"])
            # at most the check of each step's relaxed iterate
            assert 0 < counts[1] - counts[0] <= 10


@st.composite
def reduced_sets(draw):
    """Half-spaces in ``R^(D + extra)`` within the range of the first ``D`` axes (so
    ``S^T`` reads their reduced normals exactly), and a start. After a first random
    normal, each reduced normal is random, a positive multiple of an earlier one
    (parallel), a negative multiple or the exact negation of one (opposite), one moved
    by 1e-6 to 1e-2 of its norm (nearly tangent), such a move of a negation (nearly
    opposite), or zero (off the range). Its bound is the earlier one's, scaled alike,
    plus a gap in [-1, 1]: a negative gap leaves opposite sets no point in common."""
    d, q, extra = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = d + extra
    reduced, bounds = [], []
    for j in range(q):
        kind = draw(st.sampled_from(["random", "parallel", "opposite", "negation", "tangent",
                                     "nearly-opposite", "off"] if j else ["random"]))
        k = draw(st.integers(0, j - 1)) if j else 0
        base, move = (reduced[k], bounds[k]) if j else (None, None)
        gap = float(rng.uniform(-1.0, 1.0))  # < 0: a pair that cannot hold together
        wobble = 10.0 ** rng.uniform(-6, -2) * rng.standard_normal(d)
        scale = float(rng.uniform(0.5, 2.0))
        nr, bound = {
            "random": lambda: (rng.standard_normal(d), float(rng.uniform(-2.0, 2.0))),
            "parallel": lambda: (scale * base, scale * move + gap),
            "opposite": lambda: (-scale * base, -scale * move + gap),
            "negation": lambda: (-base, -move + gap),
            "tangent": lambda: (base + wobble * np.linalg.norm(base), move + gap),
            "nearly-opposite": lambda: (wobble * np.linalg.norm(base) - base, -move + gap),
            "off": lambda: (np.zeros(d), gap),
        }[kind]()
        reduced.append(nr)
        bounds.append(bound)
    half_spaces = []
    for nr, bound in zip(reduced, bounds):
        normal = np.concatenate([nr, rng.standard_normal(extra)])
        anchor = rng.standard_normal(n) if draw(st.booleans()) else np.zeros(n)
        half_spaces.append(HalfSpace(normal, float(anchor @ normal) - bound, anchor))
    start = 3.0 * rng.standard_normal(n) if draw(st.booleans()) else None
    return tuple(half_spaces), BasisMatrix(np.eye(n)[:, :d]), start


class TestExactOracle:
    @settings(max_examples=400, deadline=None)
    @given(reduced_sets())
    def test_oracle_agrees_with_the_brute_force_projection(self, case):
        assert oracle_path(*case) in {"start", "exact", "empty", "unknown"}

    @pytest.mark.parametrize("rows, bounds, path", [
        ([[1.0, 0.0], [2.0, 0.0]], [1.0, 1.0], "point"),  # dependent, same direction
        ([[1.0, 2.0], [-1.0, -2.0]], [-1.0, -1.0], "empty"),  # opposite, no slab between
        ([[1.0, 2.0], [-3.0, -6.0]], [1.0, 1.0], "point"),  # opposite, a slab between
        ([[1.0, 2.0], [-1.0, -2.0]], [-1.0, 1.0], "unknown"),  # a slab of width zero
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [-1.0, -1.0, 1.0], "empty"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [-1.0, -1.0, 3.0], "point"),
        ([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [-1.0, -1.0, -2.0], "empty"),
        ([[1.0, 1.0], [1.0, -1.0], [-1.0, 0.0]], [-1.0, -1.0, 2.0], "point"),
    ])
    def test_dependent_and_opposite_normals(self, rows, bounds, path):
        # z0 = (5, 5, ...) violates a set of each case; a slab of width zero has points,
        # but none of the sets tightened by the margin: neither a point nor a proof
        rows = np.array(rows)
        axes = BasisMatrix(np.eye(rows.shape[1] + 1)[:, :rows.shape[1]])
        sets = tuple(HalfSpace(np.append(row, 0.0), -b, np.zeros(len(row) + 1))
                     for row, b in zip(rows, bounds))
        start = np.append(np.full(rows.shape[1], 5.0), 0.0)
        got = oracle_path(sets, axes, start)
        assert {"start": "point", "exact": "point"}.get(got, got) == path

    def test_exact_points_hold_with_margin_to_spare(self):
        # on the steps the exact phase answers, every set holds by the check's products
        steps, _ = static_rapsm_run(**STATIC_RUNS[1])
        exact = 0
        for step in steps:
            inst = step.instance
            if frozen_find_feasible_point(inst.half_spaces, inst.basis, inst.anchor,
                                          max_iter=0) is None:
                omega = find_feasible_point(inst.half_spaces, inst.basis, inst.anchor)
                (normals, bounds, _), _ = reduced_problem(inst.half_spaces, inst.basis)
                assert np.all(normals @ (inst.basis.matrix.T @ omega) < bounds)
                exact += 1
        assert exact > 0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_capped_suite_steps_are_certified(self, seed):
        # the seeds whose cyclic oracle gave up at its 5000-pass cap (149/150, 148/150)
        assert verify._monotone_approximation(None, seed).detail == "certified 150/150"

    def test_dimension_mismatch_raises_before_any_product(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        good, short = HalfSpace(np.ones(6), 1.0, np.zeros(6)), HalfSpace(np.ones(5), 1.0, np.zeros(5))
        for sets in ((short,), (good, short)):
            with pytest.raises(ValueError, match="half-space dimension mismatch"):
                find_feasible_point(sets, basis)
        with pytest.raises(ValueError):
            find_feasible_point((good,), basis, start=np.zeros(5))


class TestSubgradientCheck:
    def test_random_instances(self, rng):
        for _ in range(10):
            basis = BasisMatrix(random_orthonormal(8, 3, rng))
            u = rng.standard_normal((8, 2))
            d = rng.standard_normal(2)
            y = rng.standard_normal(3)
            defect = subgradient_inequality_check(basis, u, d, 0.1, y, rng)
            assert defect <= 1e-10


CHECK_NAMES = [
    "krylov-orthonormality", "krylov-span", "halfspace-boundary", "projector-pythagoras",
    "phi-nonexpansive", "phi-fixed-points", "theta-convexity", "theta-feasible-zero",
    "update-equivalence", "monotone-approximation", "asymptotic-surrogate",
    "mse-bound-chain", "subgradient-inequality",
]


class TestRunAll:
    def test_all_checks_pass(self):
        results = run_all(seed=0)
        report = format_report(results)
        assert "FAIL" not in report
        assert all(r.passed for r in results)
        # the benchmark's verdicts and the CLI report key on these, in order
        assert [r.name for r in results] == CHECK_NAMES

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        # one check of the table made to fail: its defect exceeds the tolerance
        # while the draws (and so every other check) stay as they were
        def failing(rng, seed):
            return halfspace_boundary(rng, seed) + 1.0

        halfspace_boundary = verify._halfspace_boundary
        table = [(failing, *row[1:]) if row[0] is halfspace_boundary else row
                 for row in verify._CHECKS]
        monkeypatch.setattr(verify, "_CHECKS", tuple(table))
        assert main(["verify", "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == CHECK_NAMES
        assert [line.split()[1] for line in lines].count("FAIL") == 1
        assert lines[2].startswith("halfspace-boundary") and " FAIL " in lines[2]
        assert err.strip() == "1 of 13 checks failed"

    def test_nan_defect_fails_its_check(self, monkeypatch, capsys):
        # a NaN in a check's first draw, in a later draw of the second defect
        # of a paired check, and with a zero scale (which passes any number):
        # each fails and reports nan
        def single(rng, seed):
            value = halfspace_boundary(rng, seed)
            draws.append(None)
            return math.nan if len(draws) == 1 else value

        def paired(rng, seed):
            ortho, span = krylov_bases(rng, seed)
            span_draws.append(None)
            return ortho, math.nan if len(span_draws) == 3 else span

        draws, span_draws = [], []
        halfspace_boundary, krylov_bases = verify._halfspace_boundary, verify._krylov_bases
        swap = {halfspace_boundary: single, krylov_bases: paired,
                verify._asymptotic_surrogate: lambda rng, seed: verify._Outcome(
                    math.nan, scale=0.0)}
        monkeypatch.setattr(verify, "_CHECKS", tuple(
            (swap.get(row[0], row[0]), *row[1:]) for row in verify._CHECKS))
        assert main(["verify", "--seed", "0"]) == 1
        out, err = capsys.readouterr()
        failed = [line.split() for line in out.splitlines() if " FAIL " in line]
        assert [(fields[0], fields[2]) for fields in failed] == [
            ("krylov-span", "max=nan"), ("halfspace-boundary", "max=nan"),
            ("asymptotic-surrogate", "max=nan")]
        assert err.strip() == "3 of 13 checks failed"


def nan_on_call(fn, call):
    """``fn`` with every output entry NaN on its ``call``-th call (1-based)."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return np.full_like(out, np.nan) if len(calls) == call else out
    return wrapped


class TestFoldsKeepNan:
    # a NaN met after a finite defect inside one draw is that draw's defect
    def test_worst(self):
        assert verify._worst([0.0, 2.0, -1.0]) == 2.0
        assert verify._worst([0.0, 2.0, -1.0], min) == -1.0
        for values in ([math.nan, 1.0], [1.0, math.nan], [0.0, 3.0, math.nan, 1.0]):
            assert math.isnan(verify._worst(values)) and math.isnan(verify._worst(values, min))

    def test_attracting_check(self, monkeypatch, rng):
        # the trials are one stack; the third trial's image is NaN
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        apply = verify._apply_phi

        def third_nan(phi, v):
            out = apply(phi, v)
            out[2] = np.nan
            return out

        monkeypatch.setattr(verify, "_apply_phi", third_nan)
        report = attracting_check(PhiMap(basis, basis), trials=5, rng=rng)
        assert math.isnan(report.max_identity_defect)

    def test_subgradient_inequality_check(self, monkeypatch, rng):
        basis = BasisMatrix(random_orthonormal(8, 3, rng))
        u, d, y = rng.standard_normal((8, 2)), 10.0 + rng.standard_normal(2), np.zeros(3)
        # g(y) > 0, so the relaxed projection is checked after the probes

        class NanHalfSpace(HalfSpace):
            def violation(self, x):
                return math.nan

        monkeypatch.setattr(verify, "HalfSpace", NanHalfSpace)
        assert math.isnan(subgradient_inequality_check(basis, u, d, 0.1, y, rng))

    def test_krylov_span(self, monkeypatch, rng):
        monkeypatch.setattr(verify, "project_subspace", nan_on_call(verify.project_subspace, 2))
        rng = np.random.default_rng(0)  # a draw of a rank-7 basis
        _, span = verify._krylov_bases(rng, 0)
        assert math.isnan(span)


def same_layout(got, want):
    return (got.shape == want.shape and got.flags.c_contiguous == want.flags.c_contiguous
            and got.tobytes() == want.tobytes())


def state_of(rng):
    return rng.bit_generator.state


class TestStackedLoops:
    # every loop that became one stacked call reports what the frozen per-item
    # loop reports (repr, or bytes and layout for arrays), and draws the same
    def test_attracting_projection_case(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            basis = BasisMatrix(random_orthonormal(n, int(rng.integers(1, n + 1)), rng))
            phi = PhiMap(basis, BasisMatrix(basis.matrix.copy()))
            trials, seed = int(rng.integers(1, 60)), int(rng.integers(2 ** 32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = attracting_check(phi, trials, got_rng)
            assert repr(got) == repr(frozen_attracting_projection_case(phi, trials, want_rng))
            assert state_of(got_rng) == state_of(want_rng)

    def test_subgradient_check(self):
        rng = np.random.default_rng(42)
        positive = 0
        for _ in range(200):
            n, d, r = int(rng.integers(2, 11)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
            d = min(d, n)
            basis = BasisMatrix(random_orthonormal(n, d, rng))
            u, db, y = rng.standard_normal((n, r)), rng.standard_normal(r), rng.standard_normal(d)
            rho, trials, seed = float(rng.uniform(0.0, 3.0)), int(rng.integers(1, 60)), int(
                rng.integers(2 ** 32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = subgradient_inequality_check(basis, u, db, rho, y, got_rng, trials)
            want = frozen_subgradient_inequality_check(basis, u, db, rho, y, want_rng, trials)
            assert repr(got) == repr(want) and type(got) is type(want)
            assert state_of(got_rng) == state_of(want_rng)
            ured = basis.matrix.T @ u
            positive += float(np.sum((ured.T @ y - db) ** 2)) > rho
        assert 0 < positive < 200  # both sides of g(y) > 0

    def test_fixed_point_set(self):
        rng = np.random.default_rng(43)
        sizes = []
        for draw in range(150):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, n + 1))
            prev = BasisMatrix(random_orthonormal(n, d, rng))
            if draw % 3 == 0:  # all fixed
                nxt = prev
            elif draw % 3 == 1 and d > 2:  # columns 1 and 2 rotated, the others shared
                m = prev.matrix.copy()
                c, s_ = np.cos(0.7), np.sin(0.7)
                m[:, 1] = c * prev.matrix[:, 1] + s_ * prev.matrix[:, 2]
                m[:, 2] = -s_ * prev.matrix[:, 1] + c * prev.matrix[:, 2]
                nxt = BasisMatrix(m)
            else:
                nxt = BasisMatrix(random_orthonormal(n, d, rng))
            phi = PhiMap(prev, nxt)
            got = fixed_point_set(phi)
            assert same_layout(got, frozen_fixed_point_set(phi))
            sizes.append(got.shape[1])
        assert min(sizes) == 0 and max(sizes) >= 5

    def test_mse_chain(self):
        rng = np.random.default_rng(44)
        for n in range(2, 11):
            for _ in range(8):
                mat = SymMatrix(random_spd(n, rng, lo=0.3, hi=5.0))
                h_star = rng.standard_normal(n)
                p = mat.matvec(h_star)
                sigma_d2 = r_norm(h_star, mat) ** 2 + float(rng.uniform(0.0, 0.5))
                for ranks in (range(1, n + 1), (n,), (1,)):
                    got = verify._mse_chain(mat, p, h_star, sigma_d2, ranks)
                    assert repr(got) == repr(frozen_mse_chain(mat, p, h_star, sigma_d2, ranks))
            # an early CG stop and a truncated build: 2 I
            mat = SymMatrix(2.0 * np.eye(n))
            h_star = rng.standard_normal(n)
            got = verify._mse_chain(mat, mat.matvec(h_star), h_star, 1.0, range(1, n + 1))
            want = frozen_mse_chain(mat, mat.matvec(h_star), h_star, 1.0, range(1, n + 1))
            assert repr(got) == repr(want)

    def test_step_and_objective_on_and_off_the_anchor(self):
        rng = np.random.default_rng(45)
        for draw in range(150):
            q = int(rng.integers(1, 6))
            rho = float(10.0 ** rng.uniform(-6, 0.5))
            inst = make_instance(rng, q=q, rho=rho)
            if draw % 2:  # each half-space linearized at its own anchor
                hs = tuple(HalfSpace(h.normal, h.offset, h.anchor + rng.standard_normal(8) * 0.3)
                           for h in inst.half_spaces)
                inst = ThetaInstance(hs, inst.basis, inst.weights, inst.anchor)
            phi = PhiMap(inst.basis, inst.basis)
            inside = inst.anchor + inst.basis.matrix @ rng.standard_normal(inst.basis.rank)
            outside = rng.standard_normal(inst.basis.n) * 2.0
            step = float(rng.uniform(0.0, 2.0))
            for v in (inst.anchor, inst.anchor.copy(), inside):
                assert same_layout(rapsm_step(v, inst, phi, step),
                                   frozen_rapsm_step(v, inst, phi, step))
            for v in (inst.anchor, inst.anchor.copy(), inside, outside):
                got, want = theta_value(inst, v), frozen_theta_value(inst, v)
                assert repr(got) == repr(want) and type(got) is type(want)

    def test_oracle_set_up_with_normals_off_the_range(self):
        rng = np.random.default_rng(46)
        outcomes = set()
        for _ in range(60):
            n, d = int(rng.integers(3, 9)), 2
            axes = BasisMatrix(np.eye(n)[:, :d])
            sets = list(make_instance(rng, n=n, d=d, q=int(rng.integers(1, 4))).half_spaces)
            for _ in range(int(rng.integers(1, 3))):  # normals orthogonal to the range
                off = np.zeros(n)
                off[d:] = rng.standard_normal(n - d)
                sets.insert(int(rng.integers(0, len(sets) + 1)),
                            HalfSpace(off, float(rng.standard_normal()), rng.standard_normal(n)))
            for start in (None, rng.standard_normal(n)):
                outcomes.add(oracle_path(sets, axes, start))
        assert {"start", "empty"} <= outcomes <= {"start", "exact", "empty"}


def no_scenario(*args, **kwargs):
    raise AssertionError("a scenario was built")


class TestRejectedParameters:
    # every bad parameter is rejected before any draw or scenario build
    @pytest.mark.parametrize("bad", [
        dict(warmup=1), dict(warmup=3, error_dim=2), dict(iters=0), dict(iters=-3),
        dict(error_dim=0), dict(projections=0), dict(iters=2.5), dict(rho=-1.0),
        dict(rho=math.nan), dict(step_size=-0.1), dict(step_size=2.5), dict(step_size=math.nan),
    ])
    def test_static_rapsm_run(self, monkeypatch, bad):
        from krrapsp import scenarios
        monkeypatch.setattr(scenarios, "SysIdScenario", no_scenario)
        with pytest.raises(ValueError):
            static_rapsm_run(**{**dict(n=10, rank=3, projections=3, iters=20, seed=4), **bad})

    @pytest.mark.parametrize("trials", [0, -2, 1.5])
    def test_attracting_check(self, rng, trials):
        basis = BasisMatrix(random_orthonormal(6, 2, rng))
        for phi in (PhiMap(basis, basis), PhiMap(basis, BasisMatrix(random_orthonormal(6, 2, rng)))):
            before = state_of(rng)
            with pytest.raises(ValueError, match="trials"):
                attracting_check(phi, trials=trials, rng=rng)
            assert state_of(rng) == before

    @pytest.mark.parametrize("trials", [0, -1, 2.0])
    def test_subgradient_inequality_check(self, rng, trials):
        basis = BasisMatrix(random_orthonormal(8, 3, rng))
        u, d, y = rng.standard_normal((8, 2)), rng.standard_normal(2), rng.standard_normal(3)
        before = state_of(rng)
        with pytest.raises(ValueError, match="trials"):
            subgradient_inequality_check(basis, u, d, 0.1, y, rng, trials)
        assert state_of(rng) == before

    @pytest.mark.parametrize("slack", [math.nan, float("nan")])
    def test_monotone_probe(self, slack):
        steps, _ = static_rapsm_run(n=10, rank=3, projections=2, iters=5, seed=3)
        with pytest.raises(ValueError, match="slack"):
            monotone_probe(steps, slack=slack)
        assert monotone_probe(steps, slack=math.inf).passed  # not NaN: any slack passes
