"""KrrApspBatch against R independent scalar KrrApsp filters."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krrapsp import HalfSpace, KrrApsp, KrrParams, project_half_space
from krrapsp.batch import KrrApspBatch, krylov_basis_stack
from krrapsp.linalg import SymMatrix, krylov_basis

from conftest import random_spd
from oracles import reference_parallel_update
from streams import (
    cancelled_p_stream,
    passthrough_stream,
    repeated_regressor_stream,
    silenced_stream,
    subspace_stream,
    sysid_stream,
)

N = 10
STEPS = 60


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))))


def lockstep(params, streams, mode="toeplitz", h0=None, oracle_step=None):
    """Drive a batch and one scalar filter per stream; assert they agree.

    With ``oracle_step`` set, trial 0's update at that step is also checked
    against the explicit-projection oracle. Returns the batch.
    """
    runs = len(streams)
    n = len(streams[0][0][0])
    batch = KrrApspBatch(params, n, runs, mode=mode, h0=h0)
    scalars = [KrrApsp(params, n, mode=mode, h0=None if h0 is None else h0[i])
               for i in range(runs)]
    ring = params.projections + params.error_dim - 1
    for k in range(len(streams[0])):
        u = np.stack([s[k][0] for s in streams])
        d = np.array([s[k][1] for s in streams])
        predicted = None
        if k == oracle_step:
            filt = scalars[0]
            assert filt.basis is not None and len(filt._us) == ring
            s_mat = batch.basis[0][:, :batch.rank_eff[0]]
            cols = [s_mat.T @ uu for uu in [u[0]] + list(filt._us)[:ring - 1]]
            dvals = [d[0]] + list(filt._ds)[:ring - 1]
            predicted, _, _ = reference_parallel_update(
                batch.h_tilde[0][:batch.rank_eff[0]], cols, dvals,
                params.projections, params.error_dim, params.rho,
                params.step_size, params.weights, project_half_space, HalfSpace)
        out = batch.step(u, d)
        for i, filt in enumerate(scalars):
            ref = filt.step(u[i], d[i])
            assert out.updated[i] == ref.updated, (k, i)
            assert out.mults[i] == ref.mults, (k, i)
            assert close(out.y[i], ref.y), (k, i)
            assert close(out.h_full[i], ref.h_full), (k, i)
        if predicted is not None:
            assert np.max(np.abs(batch.h_tilde[0][:len(predicted)] - predicted)) <= 1e-11
    for i, filt in enumerate(scalars):
        assert batch.steps[i] == filt.steps
        assert batch.update_count[i] == filt.update_count
        assert batch.build_count[i] == filt.build_count
        assert batch.skipped_zero_direction[i] == filt.skipped_zero_direction
        assert batch.cancelled_updates[i] == filt.cancelled_updates
        assert {c: int(v[i]) for c, v in batch.mult_totals.items()} == filt.mult_totals
        assert batch.has_basis[i] == (filt.basis is not None)
        if filt.basis is not None:
            rank = filt.basis.rank
            assert batch.rank_eff[i] == rank
            assert close(batch.h_tilde[i][:rank], filt.h_tilde)
            assert not np.any(batch.h_tilde[i][rank:])
    return batch


# trial indices of the corner streams in every equivalence batch
ORDINARY, PASSTHROUGH, SUBSPACE, RANK_CHANGE, REPEATED = 0, 2, 3, 4, 5

CASES = {
    # r = 1, uniform weights: the repeated regressor cancels two sets
    "base": (KrrParams(rank=3, projections=3, error_dim=1, rho=0.05,
                       refresh_period=5, step_size=0.7), "toeplitz", False, "cancel"),
    # r = 3: the repeated regressor zeroes the newest set's subgradient
    "error_dim3": (KrrParams(rank=3, projections=2, error_dim=3, rho=0.05,
                             refresh_period=5, step_size=0.7), "toeplitz", False, "skip"),
    "h0_fullsym": (KrrParams(rank=4, projections=3, error_dim=2, rho=0.02,
                             refresh_period=7, step_size=1.2), "fullsym", True, None),
    "weights": (KrrParams(rank=3, projections=3, error_dim=2, rho=0.05,
                          refresh_period=5, step_size=0.5, weights=(0.5, 0.3, 0.2)),
                "toeplitz", False, "skip"),
    "refresh1": (KrrParams(rank=4, projections=2, error_dim=1, rho=0.01,
                           refresh_period=1, step_size=1.0), "fullsym", False, "cancel"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_matches_scalar_on_corner_streams(case):
    params, mode, use_h0, corner = CASES[case]
    ring = params.projections + params.error_dim - 1
    streams = [
        sysid_stream(N, STEPS, seed=1),
        sysid_stream(N, STEPS, seed=2, snr_db=5.0),
        passthrough_stream(N, STEPS, seed=3, zero_until=2 * N + 3),
        subspace_stream(N, STEPS, seed=4),
        subspace_stream(N, STEPS, seed=5, until=N + 12),
        repeated_regressor_stream(N, STEPS, seed=6, at=N - 1, ring=ring),
    ]
    h0 = np.random.default_rng(7).standard_normal((len(streams), N)) if use_h0 else None
    batch = lockstep(params, streams, mode=mode, h0=h0, oracle_step=N + ring + 4)

    # the corners were reached
    assert batch.build_count[PASSTHROUGH] >= 1
    assert batch.rank_eff[SUBSPACE] == 1 < params.rank
    assert batch.mult_totals["rebase"][RANK_CHANGE] > 0
    assert batch.rank_eff[RANK_CHANGE] == params.rank
    if corner == "skip":
        assert batch.skipped_zero_direction[REPEATED] > 0
    if corner == "cancel":
        assert batch.cancelled_updates[REPEATED] > 0
    assert batch.update_count[ORDINARY] > 0


def test_passthrough_trial_builds_late():
    params = CASES["base"][0]
    streams = [sysid_stream(N, 2 * N + 6, seed=1),
               passthrough_stream(N, 2 * N + 6, seed=3, zero_until=2 * N + 3)]
    batch = KrrApspBatch(params, N, 2)
    for k in range(2 * N + 3):
        batch.step(np.stack([s[k][0] for s in streams]), [s[k][1] for s in streams])
    assert batch.has_basis.tolist() == [True, False]
    out = batch.step(np.stack([s[2 * N + 3][0] for s in streams]),
                     [s[2 * N + 3][1] for s in streams])
    assert batch.has_basis.tolist() == [True, True]
    assert out.mults[1] > 4 * N


def test_zero_cross_correlation_keeps_the_basis():
    # p of trial 1 is exactly zero from step N + 4 on: after its first build
    # (step N - 1) and one refresh (step N + 1) its refreshes are degenerate
    # and keep the old basis, while trial 0 keeps rebuilding
    params = KrrParams(rank=3, projections=2, rho=0.05, refresh_period=5,
                       step_size=0.5)
    steps = N + 30
    batch = lockstep(params, [sysid_stream(N, steps, seed=1),
                              cancelled_p_stream(N, steps, params.forgetting, at=N + 4)])
    assert not np.any(batch._p[1])
    assert batch.has_basis[1] and batch.build_count[1] == 2 < batch.build_count[0]


def test_underflowing_cross_correlation_keeps_rebuilding():
    # zero outputs from 2N on halve p every step: p.p underflows from about
    # step 540 on, but p itself stays nonzero (until about step 1100), so
    # every refresh still builds a basis, from the direction of p
    params = KrrParams(rank=3, refresh_period=10, forgetting=0.5)
    steps = 620
    batch = lockstep(params, [silenced_stream(N, steps, seed, silent_from=2 * N)
                              for seed in (1, 2)])
    assert np.all(np.max(np.abs(batch._p), axis=1) < 1e-170)
    assert np.all(np.any(batch._p, axis=1))
    # the first build at step N - 1, then a refresh at every step k = 1 mod 10
    assert batch.build_count.tolist() == [1 + len(range(11, steps, 10))] * 2


def test_tiny_seeds_build_as_the_scalar_kernel():
    rng = np.random.default_rng(8)
    mats = np.stack([SymMatrix(random_spd(N, rng)).dense() for _ in range(4)])
    seeds = rng.standard_normal((4, N)) * np.array([[1.0], [1e-151], [1e-160], [1e-300]])
    bases, ranks = krylov_basis_stack(mats, seeds, 3)
    for i in range(4):
        ref = krylov_basis(SymMatrix(mats[i]), seeds[i], 3)
        assert ranks[i] == ref.rank == 3
        assert close(bases[i], ref.matrix)


@pytest.mark.parametrize("bad", ["u", "d"])
def test_non_finite_samples_rejected_without_state_change(bad):
    params = CASES["base"][0]
    streams = [sysid_stream(N, N + 4, seed=s) for s in (1, 2)]
    batch = KrrApspBatch(params, N, 2)
    for k in range(N + 3):
        batch.step(np.stack([s[k][0] for s in streams]), [s[k][1] for s in streams])
    u = np.stack([s[N + 3][0] for s in streams])
    d = np.array([s[N + 3][1] for s in streams])
    if bad == "u":
        u[1, 2] = np.nan
    else:
        d[0] = np.inf
    before = pickle.dumps(batch)
    with pytest.raises(ValueError):
        batch.step(u, d)
    assert pickle.dumps(batch) == before


def test_shape_and_construction_checks():
    params = KrrParams(rank=3)
    with pytest.raises(ValueError):
        KrrApspBatch(KrrParams(rank=12), N, 2)
    with pytest.raises(ValueError):
        KrrApspBatch(params, N, 2, h0=np.zeros((3, N)))
    batch = KrrApspBatch(params, N, 2)
    with pytest.raises(ValueError):
        batch.step(np.zeros((3, N)), np.zeros(3))


@st.composite
def batch_setups(draw):
    n = draw(st.integers(2, 12))
    projections = draw(st.integers(1, 4))
    weights = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=projections,
                                     max_size=projections)))
        weights = tuple(raw / raw.sum())
    params = KrrParams(
        rank=draw(st.integers(1, n)), projections=projections,
        error_dim=draw(st.integers(1, 3)),
        rho=draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5])),
        refresh_period=draw(st.integers(1, 6)),
        step_size=draw(st.floats(0.0, 2.0)),
        forgetting=draw(st.floats(0.5, 0.999)), weights=weights)
    runs = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 3 * n + 8))
    seed = draw(st.integers(0, 2 ** 16))
    ring = params.projections + params.error_dim - 1
    makers = {
        "ordinary": lambda s: sysid_stream(n, steps, s),
        "passthrough": lambda s: passthrough_stream(n, steps, s, zero_until=2 * n),
        "subspace": lambda s: subspace_stream(n, steps, s, until=steps // 2),
        "repeated": lambda s: repeated_regressor_stream(
            n, max(steps, n), s, at=n - 1, ring=min(ring, n))[:steps],
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=runs, max_size=runs))
    streams = [makers[kind](seed + i) for i, kind in enumerate(kinds)]
    mode = draw(st.sampled_from(["toeplitz", "fullsym"]))
    h0 = np.random.default_rng(seed).standard_normal((runs, n)) if draw(st.booleans()) else None
    return params, streams, mode, h0


@settings(max_examples=60, deadline=None)
@given(batch_setups())
def test_batch_matches_scalar_property(setup):
    params, streams, mode, h0 = setup
    lockstep(params, streams, mode=mode, h0=h0)
