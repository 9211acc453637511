import itertools

import numpy as np
import pytest

from krrapsp import CorrelationEstimator
from krrapsp.estimation import _StatsStack

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


GAMMAS = (0.999, 0.99, None)


def grouped_stacks(runs=45, n=40):
    # 45 trials at N = 40: chunks of 20, 20 and 5 trials
    stacks = [_StatsStack("fullsym", n, runs, g) for g in GAMMAS]
    for stack in stacks[1:]:
        stacks[0].join(stack)
    return stacks


class TestStatsGroup:
    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_group_equals_separate_stacks(self, order):
        rng = np.random.default_rng(11)
        group = grouped_stacks()
        alone = [_StatsStack("fullsym", 40, 45, g) for g in GAMMAS]
        assert group[0].chunk == 20 and all(s._outer is group[0]._outer for s in group)
        for step in range(4):
            u, d = rng.standard_normal((45, 40)), rng.standard_normal(45)
            # the first member updated folds u for all; rotate which one that is
            for i in order[step % 3:] + order[:step % 3]:
                group[i].update(u, d)
            for stack in alone:
                stack.update(u, d)
        for got, want in zip(group, alone):
            assert np.array_equal(got.r, want.r) and np.array_equal(got.p, want.p)

    @pytest.mark.parametrize("mode, n, runs", [
        ("toeplitz", 40, 45), ("fullsym", 39, 45), ("fullsym", 40, 44)],
        ids=["toeplitz", "other-n", "other-runs"])
    def test_join_of_another_shape_rejected(self, mode, n, runs):
        stack = _StatsStack("fullsym", 40, 45, 0.99)
        with pytest.raises(ValueError, match="full-symmetric"):
            stack.join(_StatsStack(mode, n, runs, 0.99))
        with pytest.raises(ValueError, match="full-symmetric"):
            _StatsStack(mode, n, runs, 0.99).join(stack)
        assert stack.group == [stack]

    def test_join_of_a_member_rejected(self):
        stacks = grouped_stacks(runs=3, n=4)
        for stack in stacks:
            with pytest.raises(ValueError, match="already"):
                stacks[1].join(stack)
        assert all(s.group == stacks for s in stacks)

    @pytest.mark.parametrize("updated", [0, 1])
    def test_join_after_an_update_rejected(self, updated):
        stacks = [_StatsStack("fullsym", 4, 3, 0.99) for _ in range(2)]
        stacks[updated].update(np.ones((3, 4)), np.ones(3))
        with pytest.raises(ValueError, match="first update"):
            stacks[0].join(stacks[1])

    def test_member_updated_twice_in_a_step_rejected(self):
        rng = np.random.default_rng(12)
        first, second, third = grouped_stacks(runs=3, n=4)
        u, d = rng.standard_normal((3, 4)), rng.standard_normal(3)
        first.update(u, d)
        second.update(u, d)
        before = [(s.r.copy(), s.p.copy(), s.steps) for s in (first, second, third)]
        for stack in (first, second):
            with pytest.raises(ValueError, match="once per step"):
                stack.update(u, d)
        for stack, (r, p, steps) in zip((first, second, third), before):
            assert np.array_equal(stack.r, r) and np.array_equal(stack.p, p)
            assert stack.steps == steps
        third.update(u, d)  # the step completes; the next may start anywhere
        second.update(u, d)
        assert [s.steps for s in (first, second, third)] == [1, 2, 1]

    def test_one_einsum_per_chunk_per_step(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        stacks = grouped_stacks()
        rng = np.random.default_rng(13)
        for _ in range(2):
            u, d = rng.standard_normal((45, 40)), rng.standard_normal(45)
            for stack in stacks:
                stack.update(u, d)
        assert calls == ["ri,rj->rij"] * 6  # 3 chunks, 2 steps
