"""The lockstep batches against R independent frozen scalar filters."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krrapsp
import krrapsp.linalg
import oracles
from krrapsp import HalfSpace, KrrParams, project_half_space
from krrapsp.filters import (CgrrfBatch, KrrApspBatch, NlmsBatch, _basis_build_charge,
                              lockstep_families)
from krrapsp.linalg import SymMatrix, cg_solve_stack, krylov_basis_stack

from conftest import random_spd
from oracles import (
    Cgrrf,
    KrrApsp,
    Nlms,
    SetLoopKrrApspBatch,
    cg_solve,
    krylov_basis,
    reference_parallel_update,
)
from streams import (
    cancelled_p_stream,
    exact_fit_stream,
    passthrough_stream,
    repeated_regressor_stream,
    silenced_stream,
    subspace_stream,
    sysid_stream,
    unit_stream,
    zero_regressor_stream,
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
            assert scalars[0].basis is not None and k >= ring - 1
            newest = [streams[0][k - age] for age in range(ring)]
            s_mat = batch.basis[0][:, :batch.rank_eff[0]]
            cols = [s_mat.T @ uu for uu, _ in newest]
            dvals = [dd for _, dd in newest]
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
    assert not np.any(batch.stats.p[1])
    assert batch.has_basis[1] and batch.build_count[1] == 2 < batch.build_count[0]


def test_underflowing_cross_correlation_keeps_rebuilding():
    # zero outputs from 2N on halve p every step: p.p underflows from about
    # step 540 on, but p itself stays nonzero (until about step 1100), so
    # every refresh still builds a basis, from the direction of p
    params = KrrParams(rank=3, refresh_period=10, forgetting=0.5)
    steps = 620
    batch = lockstep(params, [silenced_stream(N, steps, seed, silent_from=2 * N)
                              for seed in (1, 2)])
    assert np.all(np.max(np.abs(batch.stats.p), axis=1) < 1e-170)
    assert np.all(np.any(batch.stats.p, axis=1))
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


def same_bits(got, want) -> bool:
    """Equal arrays, NaN where NaN and with the same sign on every zero."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@st.composite
def family_setups(draw):
    n = draw(st.integers(2, 12))
    refresh_period = draw(st.integers(1, 6))
    forgetting = draw(st.floats(0.5, 0.999))
    # two (q, r) keys for three specs: a family of several members, and often two families
    keys = [(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(2)]
    specs = []
    for _ in range(3):
        projections, error_dim = draw(st.sampled_from(keys))
        weights = None
        if draw(st.booleans()):
            raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=projections,
                                         max_size=projections)))
            weights = tuple(raw / raw.sum())
        specs.append(KrrParams(
            rank=draw(st.integers(1, n)), projections=projections, error_dim=error_dim,
            rho=draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5, 1e6])),
            refresh_period=refresh_period, step_size=draw(st.floats(0.0, 2.0)),
            forgetting=forgetting, weights=weights))
    runs = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 3 * n + 8))
    seed = draw(st.integers(0, 2 ** 16))
    makers = {
        "ordinary": lambda s: sysid_stream(n, steps, s),
        "cancel": lambda s: repeated_regressor_stream(n, max(steps, n), s, at=n - 1,
                                                      ring=min(4, n))[:steps],
        "passthrough": lambda s: passthrough_stream(n, steps, s, zero_until=2 * n),
        "subspace": lambda s: subspace_stream(n, steps, s),
        "rank_change": lambda s: subspace_stream(n, steps, s, until=steps // 2),
        # a zero reduced regressor once the basis is built: a skipped set
        "zero_regressor": lambda s: zero_regressor_stream(n, steps, s,
                                                          at=min(steps - 1, n + 2)),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=runs, max_size=runs))
    streams = [makers[kind](seed + i) for i, kind in enumerate(kinds)]
    mode = draw(st.sampled_from(["toeplitz", "fullsym"]))
    h0 = np.random.default_rng(seed).standard_normal((runs, n)) if draw(st.booleans()) else None
    return specs, streams, mode, h0


# N = 3 below q + r - 1 = 6: sets reach past the ring until it has filled
SHORT_RING = (
    [KrrParams(rank=3, projections=4, error_dim=3, rho=0.0, refresh_period=2,
               forgetting=0.9),
     KrrParams(rank=2, projections=2, error_dim=2, rho=1e-3, refresh_period=2,
               step_size=0.5, forgetting=0.9),
     KrrParams(rank=1, projections=3, error_dim=1, rho=0.0, refresh_period=2,
               forgetting=0.9)],
    [sysid_stream(3, 16, seed) for seed in (3, 4)], "toeplitz", None)


@settings(max_examples=80, deadline=None)
@given(family_setups())
@example(SHORT_RING)
def test_reduced_step_equals_the_set_loop_bit_for_bit(setup):
    fused_against_set_loop(*setup)


def families_step(families, u, d) -> dict:
    """Step every family on one sample; returns each member's output."""
    return {m: out for family in families for m, out in zip(family.members, family.step(u, d))}


def fused_against_set_loop(specs, streams, mode, h0=None):
    """Step the batches of ``specs`` as families and as set-loop families; assert they agree."""
    n, runs = len(streams[0][0][0]), len(streams)
    fused, loop = ([kind(p, n, runs, mode=mode, h0=h0) for p in specs]
                   for kind in (KrrApspBatch, SetLoopKrrApspBatch))
    families = [lockstep_families(fused), lockstep_families(loop)]
    for k in range(len(streams[0])):
        u = np.stack([s[k][0] for s in streams])
        d = np.array([s[k][1] for s in streams])
        outs = [families_step(f, u, d) for f in families]
        for got, want in ((outs[0][a], outs[1][b]) for a, b in zip(fused, loop)):
            assert same_bits(got.y, want.y) and same_bits(got.h_full, want.h_full), k
            assert np.array_equal(got.updated, want.updated), k
            assert np.array_equal(got.mults, want.mults), k
        for got, want in zip(fused, loop):
            assert same_bits(got.h_tilde, want.h_tilde), k
            assert same_bits(got.last_relaxation, want.last_relaxation), k
    # the reference ran its own set loop at every step, member by member
    assert [batch.loop_steps for batch in loop] == [len(streams[0])] * len(loop)
    for got, want in zip(fused, loop):
        for name in ("skipped_zero_direction", "cancelled_updates", "update_count"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for cat, totals in want.mult_totals.items():
            assert np.array_equal(got.mult_totals[cat], totals), cat


# -- CGRRF and NLMS ----------------------------------------------------------


def lockstep_filters(batch, scalars, streams):
    """Drive a batch and one scalar filter per stream; assert they agree."""
    held = None
    for k in range(len(streams[0])):
        u = np.stack([s[k][0] for s in streams])
        d = np.array([s[k][1] for s in streams])
        out = batch.step(u, d)
        if held is not None:  # a returned h_full is never written afterwards
            assert np.array_equal(*held), k
        held = (out.h_full, out.h_full.copy())
        for i, filt in enumerate(scalars):
            ref = filt.step(u[i], d[i])
            assert out.updated[i] == ref.updated, (k, i)
            assert out.mults[i] == ref.mults, (k, i)
            assert close(out.y[i], ref.y), (k, i)
            assert close(out.h_full[i], ref.h_full), (k, i)
    for i, filt in enumerate(scalars):
        assert batch.steps[i] == filt.steps
        assert batch.update_count[i] == filt.update_count
        assert {c: int(v[i]) for c, v in batch.mult_totals.items()} == filt.mult_totals
        assert close(batch.h[i], filt.h)
        if isinstance(filt, Cgrrf):
            assert batch.solved[i] == filt._solved_once
    return batch


@pytest.fixture
def early_cg_exits(monkeypatch):
    """Count the scalar CGRRF solves that stop before their last iteration."""
    exits = []

    def spy(matrix, b, x0=None, iters=None, residual_tol=0.0):
        x = cg_solve(matrix, b, x0=x0, iters=iters, residual_tol=residual_tol)
        exits.append(np.array_equal(x, cg_solve(matrix, b, x0=x0, iters=iters - 1)))
        return x

    monkeypatch.setattr(oracles, "cg_solve", spy)
    return exits


# trial indices of the corner streams in every CGRRF batch
CG_ORDINARY, CG_ZERO_P, CG_ZERO_P_INIT, CG_SUBSPACE, CG_UNIT, CG_CANCELLED = range(6)

CG_CASES = {
    "cumulative_toeplitz": dict(rank=3, refresh_period=5),
    "cumulative_fullsym_init": dict(rank=4, refresh_period=7, mode="fullsym", init=True),
    "forgetting_toeplitz_init": dict(rank=3, refresh_period=4, forgetting=0.95, init=True),
    "forgetting_fullsym": dict(rank=5, refresh_period=3, mode="fullsym", forgetting=0.99),
    "refresh1": dict(rank=2, refresh_period=1, mode="fullsym"),
}


@pytest.mark.parametrize("case", sorted(CG_CASES))
def test_cgrrf_batch_matches_scalar_on_corner_streams(case, early_cg_exits):
    opts = dict(CG_CASES[case])
    use_init = opts.pop("init", False)
    streams = [
        sysid_stream(N, STEPS, seed=1),
        passthrough_stream(N, STEPS, seed=2, zero_until=2 * N + 3),
        passthrough_stream(N, STEPS, seed=3, zero_until=2 * N + 3),
        subspace_stream(N, STEPS, seed=4),
        unit_stream(N, STEPS),
        cancelled_p_stream(N, STEPS, opts.get("forgetting", 1.0), at=N + 4),
    ]
    init = None
    if use_init:
        init = np.random.default_rng(7).standard_normal((len(streams), N))
        # zero p and a zero initial vector: no solve
        init[[CG_ZERO_P, CG_CANCELLED]] = 0.0
    batch = CgrrfBatch(N, len(streams), init_vector=init, **opts)
    scalars = [Cgrrf(N, init_vector=None if init is None else init[i], **opts)
               for i in range(len(streams))]
    lockstep_filters(batch, scalars, streams)

    # the corners were reached
    solves = batch.mult_totals["basis"] // _basis_build_charge(batch.rank, N)
    assert solves[CG_ORDINARY] > solves[CG_ZERO_P] > 0
    assert solves[CG_CANCELLED] < solves[CG_ORDINARY]
    if use_init:
        assert solves[CG_ZERO_P_INIT] == solves[CG_ORDINARY]
    assert any(early_cg_exits)


def test_cgrrf_underflowing_p_counts_as_zero():
    # zero outputs from 2N on halve p every step: p . p underflows from
    # about step 540 on while p stays nonzero, and from then on Cgrrf's
    # norm test skips the refresh solves, as a zero p would
    steps = 620
    streams = [silenced_stream(N, steps, seed, silent_from=2 * N) for seed in (1, 2)]
    batch = CgrrfBatch(N, 2, rank=3, refresh_period=10, forgetting=0.5)
    scalars = [Cgrrf(N, rank=3, refresh_period=10, forgetting=0.5) for _ in streams]
    lockstep_filters(batch, scalars, streams)
    assert np.all(np.any(batch.stats.p, axis=1))
    solves = batch.mult_totals["basis"] // _basis_build_charge(3, N)
    assert np.all(solves < 1 + len(range(11, steps, 10)))


def test_cg_solve_stack_matches_cg_solve():
    rng = np.random.default_rng(9)
    mats = [SymMatrix(random_spd(N, rng)).dense() for _ in range(3)]
    singular = np.zeros((N, N))
    singular[0, 0] = 2.0
    rhs = [rng.standard_normal(N) for _ in range(3)]
    x0 = [np.zeros(N), rng.standard_normal(N), np.zeros(N)]
    # a zero initial residual, a right-hand side outside the range (zero
    # curvature at once), a rank-one system solved in one step, and a
    # residual whose r . r underflows while its curvature does not
    mats += [mats[0], singular, singular, 1e300 * np.eye(N)]
    rhs += [mats[0] @ x0[1], np.eye(N)[1], 2.0 * np.eye(N)[0], 1e-170 * np.eye(N)[0]]
    x0 += [x0[1], np.zeros(N), np.zeros(N), np.zeros(N)]
    for iters in (1, 2, 5, N):
        got = cg_solve_stack(np.stack(mats), np.stack(rhs), np.stack(x0), iters)
        for i in range(len(mats)):
            assert close(got[i], cg_solve(SymMatrix(mats[i]), rhs[i], x0=x0[i], iters=iters))


NLMS_STEP = 0.4


def test_nlms_batch_matches_scalar_on_corner_streams():
    streams = [
        sysid_stream(N, STEPS, seed=1),
        zero_regressor_stream(N, STEPS, seed=2, at=7),
        exact_fit_stream(N, STEPS, seed=3, at=9, step_size=NLMS_STEP),
        passthrough_stream(N, STEPS, seed=4, zero_until=5),
    ]
    batch = lockstep_filters(NlmsBatch(N, len(streams), step_size=NLMS_STEP),
                             [Nlms(N, step_size=NLMS_STEP) for _ in streams], streams)
    # the zero-regressor, exact-fit and zero-output steps did not update
    assert batch.update_count.tolist() == [STEPS, STEPS - 1, STEPS - 1, STEPS - 5]


# -- families: KRR-APSP batches sharing statistics, sample ring and builds ---

FAMILY = (
    KrrParams(rank=2, projections=3, error_dim=1, rho=0.05, refresh_period=5, step_size=0.7),
    KrrParams(rank=3, projections=2, error_dim=3, rho=0.05, refresh_period=5, step_size=0.7),
    KrrParams(rank=5, projections=2, error_dim=2, rho=0.02, refresh_period=5, step_size=1.2),
    KrrParams(rank=4, projections=3, error_dim=1, rho=0.05, refresh_period=5, step_size=0.7),
)


def family_against_alone(specs, streams, mode, h0=None):
    """Step the batches of ``specs`` as one pass's families and each alone; assert they agree.

    Returns the families' members, in the order of ``specs``.
    """
    n, runs = len(streams[0][0][0]), len(streams)
    members = [KrrApspBatch(p, n, runs, mode=mode, h0=h0) for p in specs]
    families = lockstep_families(members)
    alone = [KrrApspBatch(p, n, runs, mode=mode, h0=h0) for p in specs]
    for k in range(len(streams[0])):
        u = np.stack([s[k][0] for s in streams])
        d = np.array([s[k][1] for s in streams])
        outs = families_step(families, u, d)
        for out, batch in zip((outs[m] for m in members), alone):
            ref = batch.step(u, d)
            assert same_bits(out.y, ref.y) and same_bits(out.h_full, ref.h_full), k
            for name in ("updated", "mults"):
                assert np.array_equal(getattr(out, name), getattr(ref, name)), (k, name)
    for got, want in zip(members, alone):
        for name in ("steps", "update_count", "build_count", "rank_eff", "has_basis",
                     "skipped_zero_direction", "cancelled_updates", "basis"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        for name in ("h_tilde", "last_relaxation"):
            assert same_bits(getattr(got, name), getattr(want, name)), name
        for cat, totals in want.mult_totals.items():
            assert np.array_equal(got.mult_totals[cat], totals), cat
    return members


def test_family_matches_batches_alone_on_corner_streams():
    streams = [
        sysid_stream(N, STEPS, seed=1),
        sysid_stream(N, STEPS, seed=2, snr_db=5.0),
        passthrough_stream(N, STEPS, seed=3, zero_until=2 * N + 3),
        subspace_stream(N, STEPS, seed=4),
        subspace_stream(N, STEPS, seed=5, until=N + 12),
        repeated_regressor_stream(N, STEPS, seed=6, at=N - 1, ring=4),
    ]
    members = family_against_alone(FAMILY, streams, "toeplitz")
    # one family per (q, r), each with a ring of its own q + r - 1
    assert members[0].family.members == [members[0], members[3]]
    assert [batch.family.us.shape[1] for batch in members] == [3, 4, 3, 3]
    # the corners were reached in every member
    for batch in members:
        assert batch.build_count[PASSTHROUGH] >= 1
        assert batch.rank_eff[SUBSPACE] == 1
        assert batch.mult_totals["rebase"][RANK_CHANGE] > 0
    assert members[1].skipped_zero_direction[REPEATED] > 0


def test_family_of_several_members_per_sets_matches_alone_and_the_set_loop():
    # four members of (q, r) = (4, 1) and two of (2, 3) make two families
    # of several members each, with rows at D_eff = 1 (a rank-1
    # member, and the subspace streams), an effective rank that rises and
    # one that falls, trials without a basis (one of them with outputs but
    # no input), cancelled updates and a zero reduced regressor
    steps = 90
    specs = [KrrParams(rank=d, projections=4, rho=0.05, refresh_period=5, step_size=0.7,
                       forgetting=0.5) for d in (1, 2, 3, 5)]
    specs += [KrrParams(rank=d, projections=2, error_dim=3, rho=0.02, refresh_period=5,
                        step_size=1.2, forgetting=0.5) for d in (2, 4)]
    streams = [
        passthrough_stream(N, steps, seed=3, zero_until=2 * N + 3),
        subspace_stream(N, steps, seed=4),
        subspace_stream(N, steps, seed=5, until=N + 12),
        subspace_stream(N, steps, seed=6, since=2 * N),
        repeated_regressor_stream(N, steps, seed=7, at=N - 1, ring=4),
        zero_regressor_stream(N, steps, seed=8, at=N + 2),
        [(np.zeros(N), 1.0)] * steps,
    ]
    members = family_against_alone(specs, streams, "toeplitz")
    assert [len(batch.family.members) for batch in members] == [4, 4, 4, 4, 2, 2]
    assert all(batch.rank_eff[1] == batch.rank_eff[3] == 1 for batch in members)
    assert all(batch.mult_totals["rebase"][3] > 0 for batch in members[1:])  # D_eff fell
    assert not members[0].has_basis[6]
    assert sum(int(batch.cancelled_updates.sum()) for batch in members) > 0
    fused_against_set_loop(specs, streams, "toeplitz")


def test_cdma_family_matches_batches_alone():
    runs, steps = 3, 90
    scenarios = [krrapsp.CdmaScenario(krrapsp.CdmaConfig(
        users=3, snr_db=10.0, change_at=50, users_post=2, seed=s)) for s in range(runs)]
    streams = [[(s.u, s.d) for s in sc.samples(steps)] for sc in scenarios]
    h0 = np.stack([sc.signature for sc in scenarios])
    members = family_against_alone(FAMILY, streams, "fullsym", h0=h0)
    assert all(batch.build_count.min() > 1 for batch in members)


def test_family_joins_only_unstepped_batches_of_its_key():
    leader = KrrApspBatch(FAMILY[0], N, 2)
    for other in (KrrApspBatch(replace(FAMILY[0], forgetting=0.99), N, 2),
                  KrrApspBatch(replace(FAMILY[0], refresh_period=4), N, 2),
                  KrrApspBatch(FAMILY[0], N, 2, mode="fullsym"),
                  KrrApspBatch(FAMILY[0], N, 3),
                  KrrApspBatch(FAMILY[1], N, 2),  # another (q, r)
                  KrrApspBatch(replace(FAMILY[0], error_dim=2), N, 2)):
        with pytest.raises(ValueError):
            leader.family.join(other)
    stepped = KrrApspBatch(FAMILY[3], N, 2)
    stepped.step(np.ones((2, N)), np.ones(2))
    with pytest.raises(ValueError):
        leader.family.join(stepped)
    member = KrrApspBatch(FAMILY[3], N, 2)
    leader.family.join(member)
    with pytest.raises(ValueError):
        leader.family.join(member)
    # a member of a family of several steps only with its family, in join order
    with pytest.raises(ValueError):
        leader.step(np.ones((2, N)), np.ones(2))
    assert leader.family.members == [leader, member]
    assert len(leader.family.step(np.ones((2, N)), np.ones(2))) == 2
    with pytest.raises(ValueError):
        leader.family.join(KrrApspBatch(FAMILY[3], N, 2))


def test_build_chunk_changes_no_output(monkeypatch):
    # the rank-sweep family (D = 3, 5, 8 at N = 50, R = 100) through its first
    # build and two refreshes, built in chunks of 13 trials and at its own size
    runs, n, steps = 100, 50, 62
    rng = np.random.default_rng(7)
    x = np.convolve(rng.standard_normal(runs * (steps + n)), [1.0, 0.6, 0.3], "same")
    x = x.reshape(runs, steps + n)
    us = [np.ascontiguousarray(x[:, k:k + n][:, ::-1]) for k in range(steps)]
    h = rng.standard_normal((runs, n)) / n
    ds = [np.einsum("rn,rn->r", u, h) + 0.1 * rng.standard_normal(runs) for u in us]
    calls = []

    def counted(*args):
        calls[-1] += 1
        return krylov_basis_stack(*args)

    monkeypatch.setattr(krrapsp.filters, "krylov_basis_stack", counted)
    runs_of = []
    for chunk in (13, None):
        members = [KrrApspBatch(KrrParams(rank=d, rho=0.15, step_size=0.03), n, runs)
                   for d in (3, 5, 8)]
        lockstep_families(members)
        if chunk is not None:
            monkeypatch.setattr(members[0].family, "chunk", chunk)
        calls.append(0)
        outs = [members[0].family.step(u, d) for u, d in zip(us, ds)]
        runs_of.append((members, outs))
    (small, small_outs), (own, own_outs) = runs_of
    assert own[0].family.chunk == 52
    assert calls == [3 * 8, 3 * 2]  # a first build and two refreshes
    assert all(batch.build_count.min() == 3 for batch in small + own)
    for got, want in zip(small, own):
        assert got.h_tilde.tobytes() == want.h_tilde.tobytes()
        assert got.basis.tobytes() == want.basis.tobytes()
    for got_step, want_step in zip(small_outs, own_outs):
        for got, want in zip(got_step, want_step):
            for name in ("y", "updated", "h_full", "mults"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_non_finite_statistics_install_no_basis():
    # trial 60 lies in the second 52-trial chunk of the first build: the build
    # must raise before the first chunk's bases are installed
    runs, n = 100, 50
    rng = np.random.default_rng(12)
    batch = KrrApspBatch(KrrParams(rank=3), n, runs)
    assert batch.family.chunk == 52
    for _ in range(n - 1):
        batch.step(rng.standard_normal((runs, n)), rng.standard_normal(runs))
    names = ("basis", "rank_eff", "h_tilde", "build_count", "has_basis")
    before = {name: getattr(batch, name).copy() for name in names}
    batch.stats.r[60, 0] = np.inf
    with pytest.raises(ValueError, match="statistics estimates must be finite"):
        batch.step(rng.standard_normal((runs, n)), rng.standard_normal(runs))
    for name in names:
        assert getattr(batch, name).tobytes() == before[name].tobytes(), name


def test_non_finite_statistics_solve_nothing():
    # trial 60 lies in the fifth 13-trial chunk of the first solve: the solve
    # must raise before the first chunk's coefficients are written
    runs, n = 100, 50
    rng = np.random.default_rng(12)
    batch = CgrrfBatch(n, runs, rank=3)
    assert batch.stats.chunk == 13
    for _ in range(n - 1):
        batch.step(rng.standard_normal((runs, n)), rng.standard_normal(runs))
    before = {name: getattr(batch, name).copy() for name in ("h", "solved")}
    batch.stats.r[60, 0] = np.inf
    with pytest.raises(ValueError, match="statistics estimates must be finite"):
        batch.step(rng.standard_normal((runs, n)), rng.standard_normal(runs))
    for name, value in before.items():
        assert getattr(batch, name).tobytes() == value.tobytes(), name


def test_full_matrix_statistics_match_the_row_loop():
    # the chunked outer products add what one row at a time would
    rng = np.random.default_rng(10)
    runs, n = 45, 40  # chunks of 20, 20 and 5 trials
    batch = KrrApspBatch(KrrParams(rank=3), n, runs, mode="fullsym")
    assert batch.stats.chunk == 20
    ref = np.zeros((runs, n, n))
    for _ in range(5):
        u = rng.standard_normal((runs, n))
        batch.step(u, rng.standard_normal(runs))
        ref *= batch.params.forgetting
        for i in range(n):
            ref[:, i] += u[:, i:i + 1] * u
    assert np.array_equal(batch.stats.r, ref)


@pytest.mark.parametrize("bad", ["u_nan", "d_inf", "u_shape", "d_shape"])
@pytest.mark.parametrize("kind", ["cgrrf", "nlms"])
def test_rejected_samples_leave_batches_unchanged(kind, bad):
    streams = [sysid_stream(N, N + 4, seed=s) for s in (1, 2)]
    batch = (CgrrfBatch(N, 2, rank=3, refresh_period=3) if kind == "cgrrf"
             else NlmsBatch(N, 2))
    for k in range(N + 3):
        batch.step(np.stack([s[k][0] for s in streams]), [s[k][1] for s in streams])
    u = np.stack([s[N + 3][0] for s in streams])
    d = np.array([s[N + 3][1] for s in streams])
    if bad == "u_nan":
        u[1, 2] = np.nan
    elif bad == "d_inf":
        d[0] = np.inf
    elif bad == "u_shape":
        u = u[:, :-1]
    else:
        d = d[:1]
    before = pickle.dumps(batch)
    with pytest.raises(ValueError):
        batch.step(u, d)
    assert pickle.dumps(batch) == before


@pytest.mark.parametrize("kind", ["krr", "cgrrf", "nlms"])
def test_batches_check_samples_with_as_vector(kind, monkeypatch):
    # the scalar filters' validator, looked up on krrapsp.linalg at each step
    calls = []
    as_vector = krrapsp.linalg.as_vector

    def spy(x, n=None):
        calls.append((np.shape(x), n))
        return as_vector(x, n)

    monkeypatch.setattr(krrapsp.linalg, "as_vector", spy)
    batch = {"krr": lambda: KrrApspBatch(KrrParams(rank=3), N, 2),
             "cgrrf": lambda: CgrrfBatch(N, 2, rank=3),
             "nlms": lambda: NlmsBatch(N, 2)}[kind]()
    streams = [sysid_stream(N, 1, seed=s) for s in (1, 2)]
    batch.step(np.stack([s[0][0] for s in streams]), [s[0][1] for s in streams])
    assert calls == [((2 * N,), None), ((2,), 2)]


@pytest.mark.parametrize("kwargs", [
    dict(rank=0), dict(rank=N + 1), dict(rank=3, refresh_period=0),
    dict(rank=3, forgetting=1.0), dict(rank=3, mode="banded"),
    dict(rank=3, init_vector=np.zeros((3, N))), dict(rank=3, init_vector=np.zeros(N)),
    dict(rank=3, init_vector=np.full((2, N), np.nan)),
])
def test_cgrrf_batch_construction_checks(kwargs):
    with pytest.raises(ValueError):
        CgrrfBatch(N, 2, **kwargs)


def test_batches_need_a_trial():
    with pytest.raises(ValueError):
        CgrrfBatch(N, 0, rank=3)
    with pytest.raises(ValueError):
        NlmsBatch(N, 0)


@st.composite
def baseline_setups(draw):
    n = draw(st.integers(2, 12))
    runs = draw(st.integers(1, 5))
    steps = draw(st.integers(1, 3 * n + 8))
    seed = draw(st.integers(0, 2 ** 16))
    step_size = draw(st.floats(0.05, 1.5))
    makers = {
        "ordinary": lambda s: sysid_stream(n, steps, s),
        "passthrough": lambda s: passthrough_stream(n, steps, s, zero_until=2 * n),
        "subspace": lambda s: subspace_stream(n, steps, s, until=steps // 2),
        "unit": lambda s: unit_stream(n, steps),
        "zero_regressor": lambda s: zero_regressor_stream(n, steps, s, at=steps // 2),
        "exact_fit": lambda s: exact_fit_stream(n, steps, s, at=steps // 2,
                                                step_size=step_size),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(makers)), min_size=runs, max_size=runs))
    streams = [makers[kind](seed + i) for i, kind in enumerate(kinds)]
    cg_opts = dict(rank=draw(st.integers(1, n)), refresh_period=draw(st.integers(1, 6)),
                   forgetting=draw(st.one_of(st.none(), st.floats(0.5, 0.999))),
                   mode=draw(st.sampled_from(["toeplitz", "fullsym"])))
    init = None
    if draw(st.booleans()):
        init = np.random.default_rng(seed).standard_normal((runs, n))
        init[draw(st.lists(st.booleans(), min_size=runs, max_size=runs))] = 0.0
    return n, streams, step_size, cg_opts, init


@settings(max_examples=60, deadline=None)
@given(baseline_setups())
def test_baseline_batches_match_scalar_property(setup):
    n, streams, step_size, cg_opts, init = setup
    runs = len(streams)
    lockstep_filters(CgrrfBatch(n, runs, init_vector=init, **cg_opts),
                     [Cgrrf(n, init_vector=None if init is None else init[i], **cg_opts)
                      for i in range(runs)], streams)
    lockstep_filters(NlmsBatch(n, runs, step_size=step_size),
                     [Nlms(n, step_size=step_size) for _ in range(runs)], streams)


# -- the one-trial views against the frozen filters --------------------------


def assert_same_step(got, want):
    assert type(got.y) is float and type(got.updated) is bool and type(got.mults) is int
    assert (got.y, got.updated, got.mults) == (want.y, want.updated, want.mults)
    assert np.array_equal(got.h_full, want.h_full)
    assert not got.h_full.flags.writeable  # it may be the filter's live state


def assert_same_state(filt, frozen):
    for name in ("steps", "update_count"):
        assert type(getattr(filt, name)) is int
        assert getattr(filt, name) == getattr(frozen, name), name
    assert filt.update_rate == frozen.update_rate
    assert filt.mult_totals == frozen.mult_totals
    assert all(type(v) is int for v in filt.mult_totals.values())
    assert np.array_equal(filt.coefficients, frozen.coefficients)
    if isinstance(filt, krrapsp.KrrApsp):
        for name in ("build_count", "skipped_zero_direction", "cancelled_updates"):
            assert type(getattr(filt, name)) is int
            assert getattr(filt, name) == getattr(frozen, name), name
        assert filt.last_relaxation == frozen.last_relaxation
        if frozen.basis is None:
            assert filt.basis is None and filt.h_tilde is None
        else:
            assert np.array_equal(filt.basis.matrix, frozen.basis.matrix)
            assert np.array_equal(filt.h_tilde, frozen.h_tilde)


@st.composite
def single_setups(draw):
    n = draw(st.integers(2, 12))
    steps = draw(st.integers(1, 3 * n + 8))
    seed = draw(st.integers(0, 2 ** 16))
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
    cg_opts = dict(rank=draw(st.integers(1, n)), refresh_period=draw(st.integers(1, 6)),
                   forgetting=draw(st.one_of(st.none(), st.floats(0.5, 0.999))))
    step_size = draw(st.floats(0.0, 2.0))
    ring = params.projections + params.error_dim - 1
    makers = {
        "ordinary": lambda: sysid_stream(n, steps, seed),
        "passthrough": lambda: passthrough_stream(n, steps, seed, zero_until=2 * n),
        "silenced": lambda: silenced_stream(n, steps, seed, silent_from=n + 1),
        "cancelled_p": lambda: cancelled_p_stream(n, steps, params.forgetting, at=n + 2),
        "subspace": lambda: subspace_stream(n, steps, seed, until=steps // 2),
        "repeated": lambda: repeated_regressor_stream(
            n, max(steps, n), seed, at=n - 1, ring=min(ring, n))[:steps],
        "unit": lambda: unit_stream(n, steps),
        "zero_regressor": lambda: zero_regressor_stream(n, steps, seed, at=steps // 2),
        "exact_fit": lambda: exact_fit_stream(n, steps, seed, at=steps // 2,
                                              step_size=step_size),
    }
    stream = makers[draw(st.sampled_from(sorted(makers)))]()
    mode = draw(st.sampled_from(["toeplitz", "fullsym"]))
    rng = np.random.default_rng(seed)
    init = rng.standard_normal(n) if draw(st.booleans()) else None
    return (stream, mode, init, params, cg_opts, step_size)


@settings(max_examples=80, deadline=None)
@given(single_setups())
def test_one_trial_views_equal_the_frozen_filters(setup):
    stream, mode, init, params, cg_opts, step_size = setup
    n = len(stream[0][0])
    pairs = [
        (krrapsp.KrrApsp(params, n, mode=mode, h0=init),
         KrrApsp(params, n, mode=mode, h0=init)),
        (krrapsp.Cgrrf(n, mode=mode, init_vector=init, **cg_opts),
         Cgrrf(n, mode=mode, init_vector=init, **cg_opts)),
        (krrapsp.Nlms(n, step_size), Nlms(n, step_size)),
    ]
    held = [None] * len(pairs)
    for u, d in stream:
        for i, (filt, frozen) in enumerate(pairs):
            if held[i] is not None:  # a returned h_full is never written afterwards
                assert np.array_equal(*held[i])
            out = filt.step(u, d)
            assert_same_step(out, frozen.step(u, d))
            held[i] = (out.h_full, out.h_full.copy())
            assert_same_state(filt, frozen)
