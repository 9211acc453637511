import pickle

import numpy as np
import pytest

from krrapsp import (
    Cgrrf,
    CorrelationEstimator,
    HalfSpace,
    KrrApsp,
    KrrParams,
    Nlms,
    Rls,
    StepOutput,
    SymMatrix,
    SysIdConfig,
    SysIdScenario,
    cg_solve,
    krylov_basis,
    project_half_space,
    project_subspace,
)
from krrapsp.filters import CgrrfBatch, KrrApspBatch, NlmsBatch
from krrapsp.linalg import BasisMatrix

import oracles
from conftest import random_orthonormal, random_spd
from oracles import energy_norm_best_approx, least_squares_fit, reference_parallel_update


class TestKrrParams:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            KrrParams(rank=3, projections=2, weights=(0.7, 0.7))
        with pytest.raises(ValueError):
            KrrParams(rank=3, projections=2, weights=(1.0,))

    @pytest.mark.parametrize("weights", [
        (np.nan, np.nan), (0.5, np.nan), (np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf),
    ])
    def test_non_finite_weights_rejected(self, weights):
        # a NaN compares false with every bound, so each check must accept
        # only what it states, not reject what it excludes
        with pytest.raises(ValueError, match="weights"):
            KrrParams(rank=3, projections=2, weights=weights)

    def test_step_size_range(self):
        with pytest.raises(ValueError):
            KrrParams(rank=3, step_size=2.5)

    @pytest.mark.parametrize("kwargs", [
        dict(rank=1.5), dict(rank=0), dict(projections=2.0), dict(projections=0),
        dict(error_dim=1.5), dict(error_dim=0), dict(refresh_period=2.5),
        dict(refresh_period=0), dict(rho=np.nan), dict(rho=-0.1),
    ])
    def test_non_integral_count_or_nan_rho_rejected(self, kwargs):
        # refresh_period=2.5 would refresh at k = 1, 6, 11, ...; rho=nan never updates
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            KrrParams(**{"rank": 3, **kwargs})

    @pytest.mark.parametrize("forgetting", [None, "0.9", np.nan, 0.0, 1.0])
    def test_forgetting_not_a_real_in_the_open_interval_rejected(self, forgetting):
        # a ValueError here, not a TypeError when a batch is built on it
        with pytest.raises(ValueError, match="forgetting"):
            KrrParams(rank=3, forgetting=forgetting)

    def test_uniform_default(self):
        p = KrrParams(rank=3, projections=4)
        assert np.allclose(p.weights, 0.25)

    def test_equality_and_hash(self):
        a, b = KrrParams(rank=3), KrrParams(rank=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != KrrParams(rank=4)
        listed = KrrParams(rank=3, projections=2, weights=[0.25, 0.75])
        arrayed = KrrParams(rank=3, projections=2, weights=np.array([0.25, 0.75]))
        assert listed == arrayed and hash(listed) == hash(arrayed)
        assert listed.weights == (0.25, 0.75)
        assert np.array_equal(listed.weight_array, [0.25, 0.75])


FILTER_FACTORIES = {
    "krr-apsp": lambda n: KrrApsp(KrrParams(rank=2, projections=2, refresh_period=3), n),
    "cgrrf": lambda n: Cgrrf(n, rank=2, refresh_period=3),
    "nlms": lambda n: Nlms(n, 0.5),
    "rls": lambda n: Rls(n),
}


class TestInputContract:
    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    @pytest.mark.parametrize("warm", [0, 12])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])  # 1e200: d * d overflows
    def test_non_finite_d_rejected_without_state_change(self, name, warm, bad):
        n = 8
        filt = FILTER_FACTORIES[name](n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=5))
        samples = list(scen.samples(warm + 1))
        for s in samples[:warm]:
            filt.step(s.u, s.d)
        before = pickle.dumps(filt)
        with pytest.raises(ValueError):
            filt.step(samples[warm].u, bad)
        assert pickle.dumps(filt) == before
        filt.step(samples[warm].u, samples[warm].d)
        assert filt.steps == warm + 1

    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    @pytest.mark.parametrize("warm", [0, 12])
    def test_overflowing_regressor_rejected_without_state_change(self, name, warm):
        # finite entries whose u . u overflows; RLS's first sample names the
        # delta its power would set
        n = 8
        filt = FILTER_FACTORIES[name](n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=5))
        samples = list(scen.samples(warm + 1))
        for s in samples[:warm]:
            filt.step(s.u, s.d)
        before = pickle.dumps(filt)
        with pytest.raises(ValueError, match="delta" if (name, warm) == ("rls", 0)
                           else "not finite"):
            filt.step(np.full(n, 1e160), samples[warm].d)
        assert pickle.dumps(filt) == before
        filt.step(samples[warm].u, samples[warm].d)
        assert filt.steps == warm + 1

    @pytest.mark.parametrize("step_size", [np.nan, np.inf, -0.1, 2.5])
    def test_nlms_step_size_rejected(self, step_size):
        with pytest.raises(ValueError):
            Nlms(4, step_size)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf, 1e-310, np.float64(5e-309)])
    def test_rls_delta_rejected(self, delta):
        # 1 / delta must be finite too: I / 1e-310 overflows
        with pytest.raises(ValueError, match="delta"):
            Rls(4, delta=delta)

    def test_limits_accepted(self):
        Nlms(4, 0.0)
        Nlms(4, 2.0)
        Rls(4, delta=1e-300)

    @pytest.mark.parametrize("n", [0, -1, 3.5])
    @pytest.mark.parametrize("make", [
        Rls, Nlms, lambda n: NlmsBatch(n, 2), lambda n: Cgrrf(n, rank=1),
        lambda n: CgrrfBatch(n, 2, rank=1), lambda n: KrrApsp(KrrParams(rank=1), n),
        lambda n: KrrApspBatch(KrrParams(rank=1), n, 2),
    ], ids=["rls", "nlms", "nlms-batch", "cgrrf", "cgrrf-batch", "krr", "krr-batch"])
    def test_filter_length_rejected(self, make, n):
        with pytest.raises(ValueError):
            make(n)

    @pytest.mark.parametrize("trials", [0, -1, 2.5, "2"])
    @pytest.mark.parametrize("make", [
        lambda r: NlmsBatch(4, r), lambda r: CgrrfBatch(4, r, rank=1),
        lambda r: KrrApspBatch(KrrParams(rank=1), 4, r),
    ], ids=["nlms-batch", "cgrrf-batch", "krr-batch"])
    def test_trial_count_rejected(self, make, trials):
        # the filter length's rule: 2.5 trials is not truncated to 2
        with pytest.raises(ValueError, match="trials"):
            make(trials)

    @pytest.mark.parametrize("kwargs", [
        dict(rank=1.5), dict(rank=np.float64(2.0)), dict(rank=0), dict(rank=5),
        dict(refresh_period=2.5), dict(refresh_period=0),
    ])
    def test_cgrrf_batch_counts_rejected(self, kwargs):
        # rank=1.5 would run at rank 1
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CgrrfBatch(4, 2, **{"rank": 2, **kwargs})


class TestKrrApsp:
    def test_rank_exceeds_length(self):
        with pytest.raises(ValueError):
            KrrApsp(KrrParams(rank=60), 50)

    def test_passthrough_before_maturity(self):
        params = KrrParams(rank=2, projections=1, refresh_period=10 ** 6)
        filt = KrrApsp(params, 8)
        rng = np.random.default_rng(0)
        for _ in range(7):
            out = filt.step(rng.standard_normal(8), 1.0)
            assert out.y == 0.0 and not out.updated
            assert np.array_equal(out.h_full, np.zeros(8))
        assert filt.basis is None
        filt.step(rng.standard_normal(8), 1.0)
        assert filt.basis is not None

    def test_nlms_reduction_equivalence(self):
        # q=1, r=1, rho=0: the reduced update is the half-step NLMS recursion
        params = KrrParams(rank=4, projections=1, error_dim=1, rho=0.0,
                           refresh_period=10 ** 6, step_size=0.4)
        n = 20
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=9))
        h_oracle = None
        worst = 0.0
        for s in scen.samples(400):
            pre_basis = filt.basis
            filt.step(s.u, s.d)
            if filt.basis is None:
                continue
            if pre_basis is None:
                # basis built this step: the update already ran in it
                basis_used = filt.basis
                h_oracle = np.zeros(basis_used.rank)
            else:
                basis_used = pre_basis
            ut = basis_used.matrix.T @ s.u
            err = s.d - float(ut @ h_oracle)
            energy = float(ut @ ut)
            if energy > 0.0 and err != 0.0:
                h_oracle = h_oracle + (params.step_size / 2.0) * (err / energy) * ut
            worst = max(worst, float(np.max(np.abs(h_oracle - filt.h_tilde))))
        assert worst <= 1e-12

    def test_all_within_rho_is_bitwise_noop(self):
        params = KrrParams(rank=3, projections=2, rho=1e9, refresh_period=10 ** 6)
        n = 10
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=4))
        samples = list(scen.samples(40))
        for s in samples[:n + 1]:
            filt.step(s.u, s.d)
        frozen = filt.h_tilde.copy()
        for s in samples[n + 1:]:
            out = filt.step(s.u, s.d)
            assert not out.updated
            assert np.array_equal(filt.h_tilde, frozen)

    def test_matches_direct_projection_oracle(self, rng):
        # Table-style efficient path vs explicit subgradient projections
        for trial in range(25):
            n = int(rng.integers(6, 13))
            d = int(rng.integers(2, 5))
            q = int(rng.integers(1, 4))
            r = int(rng.integers(1, 3))
            rho = float(rng.uniform(0.0, 0.3))
            lam = float(rng.uniform(0.1, 1.9))
            params = KrrParams(rank=d, projections=q, error_dim=r, rho=rho,
                               refresh_period=10 ** 6, step_size=lam)
            filt = KrrApsp(params, n)
            ring = []
            for k in range(n + q + r + 6):
                u = rng.standard_normal(n)
                dv = float(rng.standard_normal())
                ring.insert(0, (u, dv))
                ring = ring[:q + r - 1]
                predicted = None
                if filt.basis is not None and len(ring) == q + r - 1:
                    cols = [filt.basis.matrix.T @ uu for uu, _ in ring]
                    dvals = [x for _, x in ring]
                    predicted, _, _ = reference_parallel_update(
                        filt.h_tilde, cols, dvals, q, r, rho, lam,
                        params.weights, project_half_space, HalfSpace)
                prev = filt.build_count
                filt.step(u, dv)
                if predicted is not None and filt.build_count == prev:
                    assert np.max(np.abs(predicted - filt.h_tilde)) <= 1e-11

    def test_single_projection_relaxation_is_one(self):
        params = KrrParams(rank=3, projections=1, rho=0.0,
                           refresh_period=10 ** 6, step_size=1.0)
        n = 8
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=2))
        for s in scen.samples(30):
            filt.step(s.u, s.d)
        assert filt.last_relaxation is not None
        assert abs(filt.last_relaxation - 1.0) <= 1e-12

    def test_relaxation_at_least_one(self, rng):
        params = KrrParams(rank=4, projections=3, rho=0.01,
                           refresh_period=10 ** 6, step_size=0.5)
        n = 12
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=6))
        seen = 0
        for s in scen.samples(300):
            out = filt.step(s.u, s.d)
            if out.updated:
                seen += 1
                assert filt.last_relaxation >= 1.0 - 1e-12
        assert seen > 50

    def test_range_confinement(self):
        params = KrrParams(rank=4, projections=3, rho=0.05, refresh_period=7,
                           step_size=0.8)
        n = 16
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=3))
        for s in scen.samples(200):
            pre_basis = filt.basis
            out = filt.step(s.u, s.d)
            if filt.basis is None:
                continue
            bound = 1e-9 * (1.0 + float(np.linalg.norm(filt.h_tilde)))
            # h_full is expressed in the basis active during the update
            basis_used = pre_basis if pre_basis is not None else filt.basis
            resid = out.h_full - project_subspace(out.h_full, basis_used)
            assert np.linalg.norm(resid) <= bound
            coeff = filt.coefficients
            resid2 = coeff - project_subspace(coeff, filt.basis)
            assert np.linalg.norm(resid2) <= bound

    def test_update_rate_is_exact_fraction(self):
        params = KrrParams(rank=3, projections=2, rho=0.05, refresh_period=10,
                           step_size=0.5)
        n = 10
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=8))
        flags = []
        for s in scen.samples(150):
            flags.append(filt.step(s.u, s.d).updated)
        assert filt.update_rate == sum(flags) / len(flags)

    def test_zero_direction_skip_diagnostic(self):
        # identical regressor with conflicting outputs: the subgradient
        # vanishes on a violated set and the index is skipped
        rho = 1.0e9
        params = KrrParams(rank=2, projections=1, error_dim=2, rho=rho,
                           refresh_period=10 ** 6, step_size=1.0)
        n = 6
        filt = KrrApsp(params, n)
        rng = np.random.default_rng(5)
        for _ in range(n + 2):
            filt.step(rng.standard_normal(n), float(rng.standard_normal()))
        assert filt.basis is not None
        assert np.array_equal(filt.h_tilde, np.zeros(filt.basis.rank))
        u = rng.standard_normal(n)
        delta = 30000.0  # single-sample error stays inside rho, the pair outside
        filt.step(u, -delta)
        before = filt.h_tilde.copy()
        out = filt.step(u, delta)
        assert filt.skipped_zero_direction == 1
        assert not out.updated
        assert np.array_equal(filt.h_tilde, before)

    def test_reduced_full_projection_consistency(self, rng):
        # projecting in reduced coordinates and in the full space through
        # the range projector give the same point
        for _ in range(20):
            n, d, r = 9, 4, 2
            basis = BasisMatrix(random_orthonormal(n, d, rng))
            h_t = rng.standard_normal(d)
            h = basis.matrix @ h_t
            u = rng.standard_normal((n, r))
            dv = rng.standard_normal(r)
            e = u.T @ h - dv
            g = float(e @ e)  # rho = 0
            if g <= 0:
                continue
            s_full = 2.0 * (u @ e)
            qs = project_subspace(s_full, basis)
            p_full = h - (g / float(qs @ qs)) * qs
            s_red = 2.0 * ((basis.matrix.T @ u) @ e)
            p_red = project_half_space(
                h_t, HalfSpace(normal=s_red, offset=g, anchor=h_t))
            assert np.max(np.abs(basis.matrix @ p_red - p_full)) <= 1e-10

    def test_h0_projected_into_first_basis(self):
        from krrapsp import CorrelationEstimator

        n = 8
        rng = np.random.default_rng(11)
        h0 = rng.standard_normal(n)
        # huge rho: no update fires, so h_tilde stays at its initialization
        params = KrrParams(rank=3, projections=1, refresh_period=10 ** 6, rho=1e9)
        filt = KrrApsp(params, n, h0=h0)
        ghost = CorrelationEstimator("toeplitz", n, params.forgetting)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=12))
        for s in scen.samples(n + 2):
            ghost.update(s.u, s.d)
            filt.step(s.u, s.d)
            if filt.basis is not None:
                break
        expected_basis = krylov_basis(ghost.r_matrix(), ghost.p_vector(), 3)
        assert np.allclose(filt.basis.matrix, expected_basis.matrix, atol=1e-12)
        assert np.allclose(filt.h_tilde, expected_basis.matrix.T @ h0, atol=1e-12)


class TestCgrrf:
    def test_energy_norm_best_approx_oracle(self, rng):
        a = random_spd(7, rng)
        h_star = rng.standard_normal(7)
        p = a @ h_star
        for rank in (1, 2, 3, 5):
            ours = cg_solve(SymMatrix(a), p, iters=rank)
            oracle = energy_norm_best_approx(a, p, h_star, rank)
            assert np.max(np.abs(ours - oracle)) <= 1e-8

    def test_full_rank_exactness(self, rng):
        a = random_spd(6, rng)
        p = a @ rng.standard_normal(6)
        x = cg_solve(SymMatrix(a), p, iters=6)
        assert np.linalg.norm(a @ x - p) <= 1e-8 * np.linalg.norm(p)

    def test_held_between_refreshes(self):
        n = 8
        filt = Cgrrf(n, rank=3, refresh_period=10)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=14))
        held = None
        changes = []
        for s in scen.samples(60):
            out = filt.step(s.u, s.d)
            if held is not None:
                changes.append(not np.array_equal(out.h_full, held))
            held = out.h_full
        assert sum(changes) <= 7  # solves only at the refresh cadence

    def test_cumulative_recovers_noiseless_system(self):
        n = 6
        rng = np.random.default_rng(3)
        h_star = rng.standard_normal(n)
        filt = Cgrrf(n, rank=n, refresh_period=1, mode="fullsym")
        for _ in range(80):
            u = rng.standard_normal(n)
            filt.step(u, float(u @ h_star))
        assert np.linalg.norm(filt.coefficients - h_star) <= 1e-6

    def test_exponential_estimator_option(self):
        # with a forgetting factor every solve runs on the exponentially
        # weighted statistics of a CorrelationEstimator with that factor
        n, rank = 6, 2
        filt = Cgrrf(n, rank=rank, refresh_period=1, forgetting=0.99)
        cumulative = Cgrrf(n, rank=rank, refresh_period=1)
        est = CorrelationEstimator("toeplitz", n, 0.99)
        for s in SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=15)).samples(3 * n):
            filt.step(s.u, s.d)
            cumulative.step(s.u, s.d)
            est.update(s.u, s.d)
        want = cg_solve(est.r_matrix(), est.p_vector(), iters=rank)
        assert np.max(np.abs(filt.coefficients - want)) <= 1e-12 * np.max(np.abs(want))
        assert not np.allclose(cumulative.coefficients, want)

    def test_init_vector_used(self):
        n = 6
        rng = np.random.default_rng(7)
        s_vec = rng.standard_normal(n)
        filt = Cgrrf(n, rank=1, refresh_period=10 ** 6, init_vector=s_vec)
        # rank-1 solve from s stays in the affine line s + span{residual dir}
        for _ in range(n + 1):
            u = rng.standard_normal(n)
            filt.step(u, float(rng.standard_normal()))
        assert filt.update_count == 1
        assert not np.array_equal(filt.coefficients, s_vec)


class TestNlms:
    def test_zero_error_no_update(self, rng):
        filt = Nlms(5, step_size=0.5)
        filt.step(rng.standard_normal(5), 1.0)
        u = rng.standard_normal(5)
        h_before = filt.coefficients
        out = filt.step(u, float(h_before @ u))
        assert not out.updated
        assert np.array_equal(filt.coefficients, h_before)

    def test_one_step_closed_form(self, rng):
        filt = Nlms(4, step_size=1.0)
        u = rng.standard_normal(4)
        out = filt.step(u, 2.0)
        assert out.y == 0.0
        assert np.allclose(filt.coefficients, (2.0 / float(u @ u)) * u, atol=1e-14)

    def test_zero_input_noop(self):
        filt = Nlms(3, step_size=0.5)
        out = filt.step(np.zeros(3), 1.0)
        assert not out.updated

    def test_mult_count_matches_closed_form(self, rng):
        n = 9
        filt = Nlms(n, step_size=0.7)
        out = filt.step(rng.standard_normal(n), 1.0)
        assert out.mults == 3 * n + 2

    def test_step_output_takes_keywords(self):
        out = Nlms(4, step_size=1.0).step(np.ones(4), 2.0)
        assert repr(StepOutput(y=out.y, updated=out.updated, h_full=out.h_full,
                               mults=out.mults)) == repr(out)


class TestRls:
    def test_noiseless_persistent_excitation(self, rng):
        n = 8
        h_star = rng.standard_normal(n)
        filt = Rls(n, forgetting=1.0, delta=1e-8)
        us, ds = [], []
        for _ in range(2 * n):
            u = rng.standard_normal(n)
            d = float(u @ h_star)
            us.append(u)
            ds.append(d)
            filt.step(u, d)
        assert np.linalg.norm(filt.coefficients - h_star) <= 1e-6
        ls = least_squares_fit(us, ds)
        assert np.linalg.norm(filt.coefficients - ls) <= 1e-6

    @pytest.mark.parametrize("lam", [0.99, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 12, 200])
    def test_matches_out_of_place_recursion(self, rng, n, lam):
        # the in-place inverse update does the textbook recursion's arithmetic,
        # signed zeros included, on ordinary, zero and -0.0 regressors; a
        # silent last input keeps zeros in the inverse correlation to the end
        filt, ref = Rls(n, forgetting=lam, delta=0.5), oracles.Rls(n, forgetting=lam, delta=0.5)
        us = rng.standard_normal((50, n))
        if n > 1:
            us[:, -1] = np.where(np.arange(50) % 2, 0.0, -0.0)
        us[10] = 0.0
        us[20] = -0.0
        us[30, ::2] = -0.0
        for u in us:
            d = float(rng.standard_normal())
            out, want = filt.step(u, d), ref.step(u, d)
            assert out.y == want.y and np.array_equal(out.h_full, want.h_full)
            assert np.array_equal(np.signbit(out.h_full), np.signbit(want.h_full))
        assert np.array_equal(filt._pinv, ref.pinv)
        assert np.array_equal(np.signbit(filt._pinv), np.signbit(ref.pinv))

    def test_auto_delta_from_first_sample(self, rng):
        filt = Rls(6)
        u = rng.standard_normal(6)
        filt.step(u, 1.0)
        assert abs(filt.delta - 0.01 * float(u @ u) / 6) <= 1e-15

    @pytest.mark.parametrize("n", [1, 12, 200])
    def test_inverse_correlation_starts_on_a_cache_line(self, n):
        # the N x N passes of a step run about a fifth faster on 64-byte
        # aligned arrays than on the allocator's 16-byte alignment
        filt = Rls(n, delta=0.5)
        filt.step(np.ones(n), 1.0)
        assert filt._pinv.ctypes.data % 64 == 0 and filt._outer.ctypes.data % 64 == 0
        assert filt._pinv.flags.c_contiguous and filt._outer.flags.c_contiguous

    @pytest.mark.parametrize("scale", [1e200, 1e-161, 1e-156],
                             ids=["overflow", "underflow", "subnormal"])
    def test_first_sample_without_a_usable_delta_rejected(self, scale):
        # a finite first sample whose power makes delta infinite (v . v
        # overflows), zero (0.01 * power underflows) or so small that
        # 1 / delta overflows (about 1e-314 here) is rejected before the
        # inverse correlation is set, like an explicit delta
        filt = Rls(3)
        before = pickle.dumps(filt)
        with pytest.raises(ValueError, match="delta"):
            filt.step(np.full(3, scale), 1.0)
        assert pickle.dumps(filt) == before
        assert filt.delta is None and filt._pinv is None
        filt.step(np.ones(3), 1.0)
        assert filt.delta == 0.01 and filt.steps == 1

    def test_overflowing_gain_rejected_before_any_state_changes(self):
        # delta passes its rule, but v . P v = 3e310 overflows at the first
        # step: the gain would be 0 and the filter would never adapt
        filt = Rls(3, delta=1e-300)
        before = pickle.dumps(filt)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            filt.step(np.full(3, 1e5), 1.0)
        assert pickle.dumps(filt) == before
        assert filt.delta == 1e-300 and filt._pinv is None
        # and once P is set, at a later step
        filt = Rls(3, delta=1e-10)
        filt.step(np.ones(3), 1.0)
        before = pickle.dumps(filt)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            filt.step(np.full(3, 1e160), 1.0)
        assert pickle.dumps(filt) == before


class TestFullCoefficients:
    def test_krr_exposes_basis_times_reduced(self):
        params = KrrParams(rank=2, projections=1, refresh_period=10 ** 6)
        n = 6
        filt = KrrApsp(params, n)
        assert np.array_equal(filt.coefficients, np.zeros(n))
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=15.0, seed=1))
        for s in scen.samples(n + 3):
            out = filt.step(s.u, s.d)
        assert np.allclose(out.h_full, filt.basis.matrix @ filt.h_tilde, atol=1e-14)

    def test_full_rank_filters_return_h(self, rng):
        for filt in (Nlms(4, 0.5), Rls(4, 0.999, 0.01)):
            out = filt.step(rng.standard_normal(4), 1.0)
            assert np.array_equal(filt.coefficients, out.h_full)


class TestMultCounting:
    def test_forced_update_per_step_share_exact(self):
        n, d, q, m = 24, 3, 4, 10 ** 6
        params = KrrParams(rank=d, projections=q, error_dim=1, rho=0.0,
                           refresh_period=m, step_size=0.5)
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=3))
        expected = 4 * n + d * n + (4 * q + 2) * d + 8 * q + 2
        checked = 0
        for s in scen.samples(120):
            out = filt.step(s.u, s.d)
            # past k = n + 2 the ring holds its q samples
            if filt.basis is not None and out.updated and s.k > n + 2:
                assert out.mults == expected
                checked += 1
        assert checked > 50

    def test_skip_branch_strictly_below(self):
        n, d, q = 24, 3, 4
        params = KrrParams(rank=d, projections=q, error_dim=1, rho=1e9,
                           refresh_period=10 ** 6, step_size=0.5)
        filt = KrrApsp(params, n)
        scen = SysIdScenario(SysIdConfig(n=n, snr_db=10.0, seed=3))
        expected = 4 * n + d * n + (4 * q + 2) * d + 8 * q + 2
        for s in scen.samples(80):
            out = filt.step(s.u, s.d)
            if filt.basis is not None and s.k > n + 2:
                assert out.mults < expected
