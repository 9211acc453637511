import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from krrapsp import (
    TOL,
    BasisMatrix,
    CorrelationEstimator,
    DegenerateCrossCorrelationError,
    HalfSpace,
    SymMatrix,
    Tolerances,
    cg_solve,
    condition_number,
    krylov_basis,
    project_half_space,
    project_subspace,
    r_norm,
)
from krrapsp.linalg import _norm, krylov_basis_stack, toeplitz_dense

from conftest import random_orthonormal, random_spd
from oracles import (
    halfspace_projection_closed_form,
    jacobi_eigenvalues,
    naive_quadratic_form,
    qr_krylov_projector,
)


class TestSymMatrix:
    def test_toeplitz_expansion(self):
        m = SymMatrix(toeplitz_dense(np.array([[2.0, 1.0, 0.0]]))[0])
        expected = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert np.array_equal(m.dense(), expected)

    def test_dense_symmetry_exact(self, rng):
        a = rng.standard_normal((6, 6))
        m = SymMatrix(a)
        d = m.dense()
        assert np.array_equal(d, d.T)

    def test_toeplitz_matvec_matches_dense(self, rng):
        row = rng.standard_normal(8)
        m = SymMatrix(toeplitz_dense(row[None])[0])
        x = rng.standard_normal(8)
        assert np.allclose(m.matvec(x), m.dense() @ x, atol=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.ones((2, 3)))


class TestRNorm:
    def test_identity(self):
        assert r_norm([1.0, 0.0], SymMatrix(np.eye(2))) == 1.0

    def test_diagonal(self):
        m = SymMatrix(np.diag([2.0, 3.0]))
        assert abs(r_norm([1.0, 1.0], m) - np.sqrt(5.0)) < 1e-15

    def test_matches_naive_loop(self, rng):
        a = random_spd(5, rng)
        x = rng.standard_normal(5)
        expected = np.sqrt(naive_quadratic_form(x, a))
        assert abs(r_norm(x, SymMatrix(a)) - expected) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            r_norm([1.0, 2.0, 3.0], SymMatrix(np.eye(2)))

    def test_non_psd_rejected(self):
        m = SymMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError):
            r_norm([0.0, 1.0], m)


class TestKrylovBasis:
    def test_identity_collapse(self):
        basis = krylov_basis(SymMatrix(np.eye(4)), [1.0, 0.0, 0.0, 0.0], 3)
        assert basis.rank == 1
        assert np.allclose(np.abs(basis.matrix[:, 0]), [1, 0, 0, 0], atol=1e-14)

    def test_diagonal_span(self):
        m = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        p = np.ones(3)
        basis = krylov_basis(m, p, 3)
        assert basis.rank == 3
        v = p.copy()
        for _ in range(3):
            resid = v - project_subspace(v, basis)
            assert np.linalg.norm(resid) <= 1e-9
            v = m.matvec(v)

    def test_projector_matches_qr_oracle(self, rng):
        a = random_spd(8, rng)
        p = rng.standard_normal(8)
        basis = krylov_basis(SymMatrix(a), p, 5)
        gram = basis.matrix.T @ basis.matrix
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-10
        oracle = qr_krylov_projector(a, p, 5)
        ours = basis.matrix @ basis.matrix.T
        assert np.max(np.abs(ours - oracle)) <= 1e-8

    def test_degenerate_seed_raises(self):
        with pytest.raises(DegenerateCrossCorrelationError):
            krylov_basis(SymMatrix(np.eye(3)), np.zeros(3), 2)

    @pytest.mark.parametrize("bad", ["nan-seed", "inf-seed", "nan-matrix", "inf-times-zero"])
    def test_stacked_build_rejects_non_finite_input(self, rng, bad):
        # the second row of a stack is bad; no warning comes first (warnings fail tests)
        mats = np.stack([random_spd(4, rng), random_spd(4, rng)])
        seeds = rng.standard_normal((2, 4))
        if bad == "nan-seed":
            seeds[1, 2] = np.nan
        elif bad == "inf-seed":
            seeds[1, 2] = np.inf
        elif bad == "nan-matrix":
            mats[1] = np.nan
        else:  # an infinite entry met only by a zero seed entry
            seeds[1, 3] = 0.0
            mats[1, 0, 3] = mats[1, 3, 0] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            krylov_basis_stack(mats, seeds, 3)

    @pytest.mark.parametrize("scale", [1e-151, 1e-160, 1e-200, 1e-300, 1e160, 1e200, 1e300])
    def test_tiny_seed_keeps_its_direction(self, rng, scale):
        # p.p underflows once |p| < ~1e-154 and overflows once |p| > ~1e154;
        # the basis depends only on the direction of p
        a = SymMatrix(random_spd(6, rng))
        p = rng.standard_normal(6)
        want = krylov_basis(a, p, 3).matrix
        got = krylov_basis(a, scale * p, 3).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e-20, 1e200])
    def test_dependent_sequence_truncates_at_any_seed_scale(self, rng, scale):
        # a multiple of the identity spans one direction
        basis = krylov_basis(SymMatrix(2.0 * np.eye(5)), scale * rng.standard_normal(5), 4)
        assert basis.rank == 1

    def test_independent_sequence_keeps_its_rank_at_a_huge_seed(self, rng):
        # distinct eigenvalues: the Krylov space has the requested dimension
        basis = krylov_basis(SymMatrix(np.diag(np.arange(1.0, 6.0))),
                             1e100 * rng.standard_normal(5), 4)
        assert basis.rank == 4

    def test_truncates_on_dependence(self, rng):
        # rank-2 Krylov space: A has two distinct eigenvalues
        q = random_orthonormal(5, 5, rng)
        a = q @ np.diag([2.0, 2.0, 2.0, 1.0, 1.0]) @ q.T
        p = rng.standard_normal(5)
        basis = krylov_basis(SymMatrix(a), p, 4)
        assert basis.rank == 2

    def test_orthonormality_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            d = int(rng.integers(1, n + 1))
            basis = krylov_basis(SymMatrix(random_spd(n, rng)),
                                 rng.standard_normal(n), d)
            gram = basis.matrix.T @ basis.matrix
            assert np.max(np.abs(gram - np.eye(basis.rank))) <= TOL.orthonormality

    def test_span_invariant(self, rng):
        for _ in range(10):
            n = 9
            a = random_spd(n, rng)
            p = rng.standard_normal(n)
            basis = krylov_basis(SymMatrix(a), p, 4)
            v = p.copy()
            for _ in range(basis.rank):
                resid = np.linalg.norm(v - project_subspace(v, basis))
                assert resid <= TOL.krylov_span_rel * np.linalg.norm(v)
                v = a @ v


class TestHalfSpaceProjection:
    def test_interior_point_unchanged(self, rng):
        x = rng.standard_normal(4)
        hs = HalfSpace(normal=rng.standard_normal(4), offset=-1.0, anchor=x)
        assert np.array_equal(project_half_space(x, hs), x)

    def test_one_dimensional_geometry(self):
        hs = HalfSpace(normal=[2.0, 0.0], offset=4.0, anchor=[0.0, 0.0])
        assert np.allclose(project_half_space([0.0, 0.0], hs), [-2.0, 0.0])

    def test_matches_closed_form_oracle(self, rng):
        for _ in range(30):
            x = rng.standard_normal(6)
            normal = rng.standard_normal(6)
            anchor = rng.standard_normal(6)
            offset = float(rng.standard_normal())
            hs = HalfSpace(normal=normal, offset=offset, anchor=anchor)
            expected = halfspace_projection_closed_form(x, normal, anchor, offset)
            assert np.max(np.abs(project_half_space(x, hs) - expected)) <= 1e-12

    def test_boundary_and_parallel_displacement(self, rng):
        for _ in range(20):
            anchor = rng.standard_normal(5)
            hs = HalfSpace(normal=rng.standard_normal(5),
                           offset=abs(rng.standard_normal()) + 0.1, anchor=anchor)
            proj = project_half_space(anchor, hs)
            assert abs(hs.violation(proj)) <= TOL.halfspace_boundary
            move = proj - anchor
            cross = move - (move @ hs.normal) * hs.normal / (hs.normal @ hs.normal)
            assert np.linalg.norm(cross) <= 1e-12

    def test_zero_normal_with_violation(self):
        hs = HalfSpace(normal=[0.0, 0.0], offset=1.0, anchor=[0.0, 0.0])
        with pytest.raises(ValueError):
            project_half_space([0.0, 0.0], hs)

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_non_finite_offset_rejected(self, offset):
        # else every violation would read NaN or an infinity
        with pytest.raises(ValueError, match="offset must be finite"):
            HalfSpace(np.ones(2), offset, np.zeros(2))


class TestSubspaceProjection:
    def test_fixes_range(self, rng):
        basis = BasisMatrix(random_orthonormal(6, 3, rng))
        x = basis.matrix @ rng.standard_normal(3)
        assert np.max(np.abs(project_subspace(x, basis) - x)) <= 1e-10

    def test_coordinate_projection(self):
        basis = BasisMatrix(np.eye(3)[:, :1])
        assert np.allclose(project_subspace([1.0, 2.0, 3.0], basis), [1.0, 0.0, 0.0])

    def test_residual_orthogonality(self, rng):
        basis = BasisMatrix(random_orthonormal(8, 4, rng))
        x = rng.standard_normal(8)
        resid = x - project_subspace(x, basis)
        assert np.max(np.abs(basis.matrix.T @ resid)) <= 1e-10

    def test_contraction_and_pythagoras(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            d = int(rng.integers(1, n + 1))
            basis = BasisMatrix(random_orthonormal(n, d, rng))
            x = rng.standard_normal(n)
            px = project_subspace(x, basis)
            assert np.linalg.norm(px) <= np.linalg.norm(x) + 1e-12
            lhs = float(x @ x)
            rhs = float(px @ px) + float((x - px) @ (x - px))
            assert abs(lhs - rhs) <= TOL.pythagoras_rel * max(1.0, lhs)
            again = project_subspace(px, basis)
            assert np.max(np.abs(again - px)) <= 1e-12


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(SymMatrix(np.eye(4))) == 1.0

    def test_diagonal(self):
        assert abs(condition_number(SymMatrix(np.diag([1.0, 4.0]))) - 4.0) < 1e-12

    def test_matches_jacobi_oracle(self, rng):
        a = random_spd(6, rng, lo=0.3, hi=5.0)
        eigs = jacobi_eigenvalues(a)
        expected = eigs[-1] / eigs[0]
        assert abs(condition_number(SymMatrix(a)) - expected) <= 1e-8 * expected

    def test_non_pd_rejected(self):
        with pytest.raises(ValueError):
            condition_number(SymMatrix(np.diag([1.0, 0.0])))


class TestBasisMatrix:
    def test_rejects_nonorthonormal(self, rng):
        m = rng.standard_normal((5, 2))
        with pytest.raises(ValueError):
            BasisMatrix(m)

    def test_rank_bounds(self, rng):
        with pytest.raises(ValueError):
            BasisMatrix(np.zeros((3, 0)))

    def test_rejects_nan(self):
        # a NaN Gram defect fails "defect > tol" too, so the check is written negated
        with pytest.raises(ValueError, match="not orthonormal"):
            BasisMatrix(np.full((4, 2), np.nan))

    def test_stacked_build_rejects_a_nan_gram_defect(self, monkeypatch):
        # the build's own columns stay finite, so the NaN is put into the identity it checks against
        monkeypatch.setattr(np, "eye", lambda k: np.full((k, k), np.nan))
        with pytest.raises(ValueError, match="not orthonormal"):
            krylov_basis_stack(np.ones((1, 3, 3)), np.ones((1, 3)), 2)


def test_tolerances_take_keywords():
    tol = TOL._replace(orthonormality=1e-9)
    assert Tolerances(orthonormality=1e-9) == tol and tol.krylov_span_rel == TOL.krylov_span_rel


class TestCgSolve:
    def test_solves_spd_system(self, rng):
        a = random_spd(7, rng)
        x_true = rng.standard_normal(7)
        b = a @ x_true
        x = cg_solve(SymMatrix(a), b, iters=7)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_identity_single_step(self, rng):
        b = rng.standard_normal(5)
        x = cg_solve(SymMatrix(np.eye(5)), b, iters=1)
        assert np.allclose(x, b, atol=1e-14)

    def test_breakdown_guard_on_singular(self, rng):
        # consistent singular system: iterates stay finite
        u = rng.standard_normal(4)
        a = np.outer(u, u)
        b = a @ rng.standard_normal(4)
        x = cg_solve(SymMatrix(a), b, iters=4)
        assert np.all(np.isfinite(x))


# -- the kernels against their frozen scalar versions ------------------------

SEED_SCALES = [0.0, 1.0, 1e-160, 1e-300, 1e200, 1e300]


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    row = rng.standard_normal(n)
    row[0] = abs(row[0]) + draw(st.sampled_from([0.0, 1.0, float(n)]))
    u = rng.standard_normal((n, max(1, n // 2)))
    matrices = {
        "toeplitz": SymMatrix(toeplitz_dense(row[None])[0]),  # possibly indefinite
        "spd": SymMatrix(random_spd(n, rng)),
        "singular": SymMatrix(np.outer(u[:, 0], u[:, 0])),
        "identity": SymMatrix(2.0 * np.eye(n)),
        "zero": SymMatrix(np.zeros((n, n))),
        "low_rank": SymMatrix(u @ u.T),
    }
    matrix = matrices[draw(st.sampled_from(sorted(matrices)))]
    seed = draw(st.sampled_from(SEED_SCALES)) * rng.standard_normal(n)
    rank = draw(st.integers(1, n))
    rhs = rng.standard_normal(n)
    if draw(st.booleans()):
        rhs = matrix.dense() @ rhs  # in the range of a singular matrix
    x0 = rng.standard_normal(n) if draw(st.booleans()) else None
    iters = draw(st.one_of(st.none(), st.integers(0, n + 1)))
    mode = draw(st.sampled_from(["toeplitz", "fullsym"]))
    gamma = draw(st.floats(0.05, 0.999))
    samples = [(rng.standard_normal(n), float(rng.standard_normal()))
               for _ in range(draw(st.integers(0, 3 * n)))]
    return matrix, row, seed, rank, rhs, x0, iters, mode, gamma, samples


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_kernels_equal_the_frozen_scalar_kernels(case):
    matrix, row, seed, rank, rhs, x0, iters, mode, gamma, samples = case
    n = matrix.n

    assert np.array_equal(toeplitz_dense(row[None])[0], oracles.toeplitz_gather(row))

    if not np.any(seed):
        for build in (krylov_basis, oracles.krylov_basis):
            with pytest.raises(DegenerateCrossCorrelationError):
                build(matrix, seed, rank)
    else:
        # a seed whose p.p under- or overflows builds the basis of p / max|p|
        # (the frozen kernel fails on an overflowing seed)
        direction = seed
        if not 1e-150 <= np.max(np.abs(seed)) <= 1e150:
            direction = seed / np.max(np.abs(seed))
        want = oracles.krylov_basis(matrix, direction, rank)
        got = krylov_basis(matrix, seed, rank)
        assert np.array_equal(got.matrix, want.matrix)

    # early exits: zero residuals (identity), zero or negative curvature
    # (zero, singular or indefinite matrices)
    assert np.array_equal(cg_solve(matrix, rhs, x0=x0, iters=iters),
                          oracles.cg_solve(matrix, rhs, x0=x0, iters=iters))

    est = CorrelationEstimator(mode, n, gamma)
    frozen = oracles.CorrelationEstimator(mode, n, gamma)
    for u, d in samples:
        est.update(u, d)
        frozen.update(u, d)
    assert np.array_equal(est.p_vector(), frozen.p_vector())
    got, want = est.r_matrix(), frozen.r_matrix()
    assert np.array_equal(got.dense(), want.dense())


# -- a build of rank D holds every build of a lower rank ---------------------


def krylov_stack_case(n, count, toeplitz, span, seed):
    """``count`` symmetric PSD matrices and seeds; with ``span``, each seed lies
    in the span of ``span`` eigenvectors of its matrix, so its Krylov
    sequence becomes dependent after ``span`` columns."""
    rng = np.random.default_rng(seed)
    if toeplitz:  # sample autocorrelations of random FIRs
        fir = rng.standard_normal((count, n))
        mats = toeplitz_dense(np.stack([np.correlate(f, f, "full")[n - 1:] for f in fir]))
    else:
        a = rng.standard_normal((count, n, n))
        mats = a @ a.transpose(0, 2, 1)
    seeds = rng.standard_normal((count, n))
    if span is not None:
        vecs = np.linalg.eigh(mats)[1][:, :, -span:]
        seeds = np.matmul(vecs, rng.standard_normal((count, span, 1)))[:, :, 0]
    return mats, seeds


def assert_leading_columns(mats, seeds, big, small):
    bases, ranks = krylov_basis_stack(mats, seeds, big)
    lead, lead_ranks = krylov_basis_stack(mats, seeds, small)
    assert np.array_equal(lead_ranks, np.minimum(ranks, small))
    # bit for bit, sign bits of zeros included
    assert lead.tobytes() == np.ascontiguousarray(bases[:, :, :small]).tobytes()
    return ranks


@st.composite
def krylov_prefix_cases(draw):
    n = draw(st.integers(2, 40))
    big = draw(st.integers(1, n))
    span = draw(st.one_of(st.none(), st.integers(1, n)))
    mats, seeds = krylov_stack_case(n, draw(st.integers(1, 6)), draw(st.booleans()),
                                    span, draw(st.integers(0, 2 ** 32 - 1)))
    return mats, seeds, big, draw(st.integers(1, big))


@settings(max_examples=200, deadline=None)
@given(krylov_prefix_cases())
def test_krylov_stack_of_lower_rank_is_the_leading_columns(case):
    # the recurrence builds column i from the columns before it only, which
    # lets the KRR-APSP specs of one family share a build at their largest rank
    assert_leading_columns(*case)


@pytest.mark.parametrize("toeplitz", [True, False], ids=["toeplitz", "fullsym"])
def test_krylov_stack_leading_columns_of_a_truncated_build(toeplitz):
    mats, seeds = krylov_stack_case(30, 5, toeplitz, span=2, seed=3)
    ranks = assert_leading_columns(mats, seeds, 8, 3)
    assert np.all(ranks == 2)
    assert_leading_columns(mats, seeds, 8, 1)


# -- the private norm is numpy's, bit for bit ---------------------------------

EXTREMES = [0.0, -0.0, 5e-324, -2.5e-320, 1e-160, 1e154, 1.5e308, -1.7e308,
            np.inf, -np.inf, np.nan]


@st.composite
def norm_inputs(draw):
    n = draw(st.integers(0, 12))
    entry = st.one_of(st.floats(width=64), st.sampled_from(EXTREMES))
    x = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n)), dtype=float)
    layout = draw(st.sampled_from(["contiguous", "strided", "reversed", "2-d", "2-d transposed"]))
    if layout == "strided":
        return x[::2]
    if layout == "reversed":
        return x[::-1]
    if layout.startswith("2-d"):
        m = x.reshape(2, n)
        return m.T if layout.endswith("transposed") else m
    return x


@settings(max_examples=300, deadline=None)
@given(norm_inputs())
def test_private_norm_is_numpys_norm(x):
    with np.errstate(over="ignore", invalid="ignore"):
        want, got = np.linalg.norm(x), _norm(x)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("x", [np.zeros(5), np.full(3, 1e-320), np.full(4, 1e200),
                               np.array([3.0, np.nan]), np.array([np.inf, -np.inf])])
def test_private_norm_at_the_extremes(x):
    # zeros, subnormals, squares that overflow to inf, NaN and infinities
    with np.errstate(over="ignore", invalid="ignore"):
        want, got = np.linalg.norm(x), _norm(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
