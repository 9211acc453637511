import math

import numpy as np
import pytest

from krrapsp import HalfSpace, SymMatrix, r_norm, verify
from krrapsp.cli import main
from krrapsp.linalg import BasisMatrix, project_subspace
from krrapsp.verify import (
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
