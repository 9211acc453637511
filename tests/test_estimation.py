import numpy as np
import pytest

from krrapsp import CorrelationEstimator

from oracles import weighted_window_sums


class TestInit:
    def test_toeplitz_zero_start(self):
        est = CorrelationEstimator("toeplitz", 4, 0.999)
        assert np.array_equal(est.p_vector(), np.zeros(4))
        assert np.array_equal(est.r_matrix().dense(), np.zeros((4, 4)))

    def test_fullsym_zero_start(self):
        est = CorrelationEstimator("fullsym", 2, 0.5)
        assert np.array_equal(est.r_matrix().dense(), np.zeros((2, 2)))

    @pytest.mark.parametrize("gamma", [1.0, 0.0, -0.1, 1.5])
    def test_gamma_outside_open_interval(self, gamma):
        with pytest.raises(ValueError):
            CorrelationEstimator("toeplitz", 4, gamma)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            CorrelationEstimator("hankel", 4, 0.9)


class TestUpdate:
    def test_toeplitz_single_sample(self):
        est = CorrelationEstimator("toeplitz", 3, 0.999)
        est.update([1.0, 0.0, 0.0], 2.0)
        assert np.array_equal(est.r_matrix().dense(), np.eye(3))
        assert np.array_equal(est.p_vector(), [2.0, 0.0, 0.0])

    def test_fullsym_single_sample(self):
        est = CorrelationEstimator("fullsym", 2, 0.9)
        est.update([1.0, 1.0], 0.0)
        assert np.array_equal(est.r_matrix().dense(), np.ones((2, 2)))
        assert np.array_equal(est.p_vector(), np.zeros(2))

    def test_geometric_series_closed_form(self):
        gamma = 0.9
        u = np.array([1.0, -2.0, 0.5])
        d = 1.5
        est = CorrelationEstimator("fullsym", 3, gamma)
        for _ in range(100):
            est.update(u, d)
        weight = (1 - gamma ** 100) / (1 - gamma)
        assert np.max(np.abs(est.r_matrix().dense() - weight * np.outer(u, u))) <= 1e-10
        assert np.max(np.abs(est.p_vector() - weight * d * u)) <= 1e-10

    def test_dimension_mismatch(self):
        est = CorrelationEstimator("toeplitz", 3, 0.9)
        with pytest.raises(ValueError):
            est.update([1.0, 2.0], 0.0)


class TestSnapshots:
    def test_toeplitz_expansion(self):
        est = CorrelationEstimator("toeplitz", 3, 0.999)
        est.update([np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0], 0.0)
        mat = est.r_matrix().dense()
        assert np.array_equal(mat, mat.T)
        assert mat[0, 1] == mat[1, 2] == mat[1, 0]

    def test_fullsym_bitwise_symmetry(self, rng):
        est = CorrelationEstimator("fullsym", 5, 0.97)
        for _ in range(50):
            est.update(rng.standard_normal(5), float(rng.standard_normal()))
        mat = est.r_matrix().dense()
        assert np.array_equal(mat, mat.T)

    @pytest.mark.parametrize("mode", ["toeplitz", "fullsym"])
    def test_batch_recomputation_oracle(self, mode, rng):
        gamma = 0.95
        est = CorrelationEstimator(mode, 4, gamma)
        updates = []
        for _ in range(60):
            u = rng.standard_normal(4)
            d = float(rng.standard_normal())
            updates.append((u, d))
            est.update(u, d)
        r_ref, p_ref = weighted_window_sums(updates, gamma, mode)
        if mode == "toeplitz":
            got = est.r_matrix().dense()[0]
        else:
            got = est.r_matrix().dense()
        scale = max(1.0, np.max(np.abs(r_ref)))
        assert np.max(np.abs(got - r_ref)) <= 1e-9 * scale
        assert np.max(np.abs(est.p_vector() - p_ref)) <= 1e-9

    def test_snapshots_immutable(self):
        est = CorrelationEstimator("toeplitz", 3, 0.9)
        est.update([1.0, 2.0, 3.0], 1.0)
        p = est.p_vector()
        with pytest.raises(ValueError):
            p[0] = 99.0


class TestProperties:
    def test_scaling(self, rng):
        base = CorrelationEstimator("fullsym", 4, 0.9)
        doubled = CorrelationEstimator("fullsym", 4, 0.9)
        for _ in range(30):
            u = rng.standard_normal(4)
            d = float(rng.standard_normal())
            base.update(u, d)
            doubled.update(2.0 * u, d)
        assert np.allclose(doubled.r_matrix().dense(), 4.0 * base.r_matrix().dense(),
                           rtol=1e-12)
        assert np.allclose(doubled.p_vector(), 2.0 * base.p_vector(), rtol=1e-12)
