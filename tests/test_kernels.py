"""Exactness of the stacked kernels against the calls they replace.

Every byte-identity gate of the package rests on stacked kernels that
round each entry as the unstacked call does: each row of ``np.vecdot(x,
y)`` and ``np.matvec(a, x)`` is the unstacked ``x[i] @ y[i]`` or ``a[i] @
x[i]`` (``linalg``'s rule). This module asserts it for each kernel and
every layout the code passes:

* ``np.vecdot`` and ``np.matvec`` themselves, against one ``a @ x`` per
  row, bytes and signed zeros alike: square ``(R, N, N)`` stacks at
  N = 200 (a CG solve's one-trial chunks) and N = 50 (a 52-trial Krylov
  chunk) and for R in {1, 2, 100} at odd N, also the trial subsets a CG
  run gathers; leading-column slices of ``(R, N, 8)`` bases, their
  transposed views and contiguous copies, one 2-D basis or its transpose
  broadcast over the stack, and one broadcast vector; a family's
  ``(R, q, D, r)`` windows with their ``(R, q, r)`` errors, its ring's
  inner products with ``(R, 1, D)`` filters and a ``(k, 1, D, N)`` basis
  stack broadcast over the ring's slots, for D up to 8 and r in {1, 2, 3}.
  Not asserted, but measured when this rule was written (numpy 2.4,
  OpenBLAS 0.3.31): ``np.matvec`` over a matrix with a negative row
  stride, a rows-reversed ``sliding_window_view``, rounds differently
  from the matmul form ``np.matmul(a, x[..., None])[..., 0]``. Of 200
  draws of 8 or N rows each it differed in 364 of 1600 entries at
  N = 2, 710 of 1600 at N = 7, 4180 of 6200 at N = 31, 7903 of 10 000 at
  N = 50 and 35 066 of 40 000 at N = 200. Column-reversed views matched.
  So no call site may pass a rows-reversed matrix. Nor the strided
  ``(R, q, D, r)`` window view itself: ``np.matvec`` over it differed from
  the product over its contiguous copy in 2432 of 14 400 entries (R = 100,
  q = 4, D in {2, 3, 5, 8}, r in {2, 3}), so a family's pass copies the
  windows;
* full-symmetric outer product (``_StatsStack._fold``):
  ``np.einsum("ri,rj->rij", part, part, out=buf[:len(part)])`` equals the
  broadcast ``np.multiply(part[:, :, None], part[:, None, :])`` and the
  ``np.outer`` of each row, for R in {1, 2, 100}, odd N and row slices of a
  chunked trial stack;
* the dense statistics of a chunk (``_StatsStack.dense``, Toeplitz and
  full-symmetric), their ``np.matvec`` and the ``krylov_basis_stack``
  bases and ranks built from them: each row is the same whatever chunk of
  trials it comes in, for chunks of 1, 13, 52 and 100 trials at N in
  {31, 50}, so a family build may size its chunks freely;
* the set sums of a KRR-APSP step (``filters._sum_sets``): slice by slice
  adds equal ``np.add.accumulate(x, axis=1)[:, -1]``, signed zeros
  included, and ``+ 0.0`` after them gives the sum from a zero start;
* prefixes, for N = 2..10: the ``d``-step ``cg_solve_stack`` iterates are
  entry ``d`` of the iterates an N-step run keeps (a zero residual, zero
  curvature on a semidefinite matrix and a zero right-hand side
  included), and a rank-``d`` ``krylov_basis_stack`` build is the leading
  ``d`` columns of the rank-N one, with ranks ``min(rank_N, d)``. The MSE
  chain of ``verify`` serves every rank from one run and one build;
* the bounded-error sets of a ``verify`` static step
  (``verify._error_bound_instance``): over ``(q, N, r)`` blocks, each set's
  ``U`` laid out as ``np.column_stack`` lays it out, ``np.matvec`` of the
  transposed blocks and a broadcast anchor, ``np.matvec`` of the blocks
  and ``e`` and ``np.vecdot(e, e)`` equal the per-set ``U.T @ h``, ``U @ e``
  and ``e @ e`` for r in {1, 2, 3}, odd N, zero and signed-zero regressor
  entries and zero errors. With r = 1 both sides take numpy's loop for a
  one-column product, which adds each product to a zero (a -0 product
  reads +0). A C-contiguous copy of the transposed blocks rounds
  differently for r > 1;
* the padded rank axis of a family's reduced pass (``filters._KrrFamily``):
  for D in {1, 2, 3, 5, 7} zero-padded to 8 and R in {1, 2, 100},
  ``np.vecdot`` of the ``(R, q, D)`` regressors with ``(R, 1, D)``
  filters, of the subgradients and of their set sums, and
  ``np.matvec`` of the ``(R, q, D, r)`` windows with ``(R, q, r)``
  errors (r = 3) equal the unpadded calls, signed zeros included. The
  one exception, a one-column window (D = 1, r > 1), takes numpy's dot
  where the padded product takes a matrix-vector call, and rounds
  differently, so the pass makes it apart. A sum of squares over the
  rank axis equals the unpadded one over the member's own columns of the
  padded rows; over the whole padded axis it does not once eight entries
  are summed (numpy changes its order), so it is never taken there;
* the stacked loops of ``verify`` (random trials, fixed vectors, ranks and
  half-spaces): for odd N and stacks of 1, 2 and 59 rows, ``np.matvec``
  of one 2-D basis, its transpose or a dense matrix broadcast over the
  stack, and ``np.vecdot`` of the rows with one broadcast vector, equal
  the per-row products, also over the strided column blocks of a wider
  draw; ``np.sum(z ** 2, axis=1)`` equals the per-row ``np.sum``; and a
  ``(k, N + D)`` ``standard_normal`` block draw is ``k`` pairs of
  consecutive ``N`` and ``D`` draws, values and generator state alike.
  Pure-Python float sums of products do not match BLAS dots (small-N dots
  use FMA), so checks that compare dots with bounds, like the feasibility
  oracle's, keep their per-set ``nr @ z``;
* the CDMA chip product (``CdmaScenario.chunks``): for 1, 2, 4 and 33 users
  with amplitudes from 0.1 to 4.0 (and a subnormal one, whose table
  entries are signed zeros), ``np.matmul(signs, table)`` of the ``(m, 2J)``
  previous and current bits and the ``(2J, 31)`` table of ``_chip_table``
  equals the per-user accumulation ``u += A (b' tail + b head)`` from zero,
  bytes and sign bits alike, for m in {2, 3, 36, 64}, and so does the
  first row of the two-row padded product for m = 1. The unpadded one-row
  product is not asserted: numpy makes it with gemv, which adds in another
  order, and differed from the accumulation in 43 265 of 93 000 entries
  (3000 random user sets of 1-33 users, OpenBLAS 0.3.31 Haswell kernels);
  that depends on the BLAS build (ROADMAP item 15);
* the dense Toeplitz expansion (``linalg.toeplitz_dense``, the statistics
  stacks' dense matrices, a copy through a strided view of the mirrored
  rows): for R in {1, 2, 100} and odd N, and for R in {1, 2, 52} at N in
  {1, 9, 50, 200}, into a fresh array or the leading rows of a larger one,
  from C-ordered, column-major or strided rows, it equals the gather
  ``rows[:, |i - j|]`` and ``oracles.toeplitz_gather`` per row, signed
  zeros, subnormals and NaN payloads alike (it copies, with no
  arithmetic); no trials give no chunks and no rows an empty stack;
* a family's weight table (``filters._KrrFamily._ring_tables``): one
  ``np.add.reduce(w, axis=1)`` over M members' newest q_eff weights gives
  each row its member's own 1-D sum, for M in {1, 2, 3, 100} and q up to
  17, past the eight terms where numpy's pairwise sum changes its order;
* the Gram check of a Krylov build: the identity subtracted in place on
  each row's leading ``ranks[i]`` diagonal entries gives the defect of the
  masked-identity form ``max |S^T S - I_masked|`` bit for bit, truncated
  rows included;
* the RLS rank-one correction (``filters.Rls``): ``np.dot(gain[:, None],
  pi[None, :], out=...)`` into a cache-aligned buffer equals ``np.outer``
  and the per-entry products ``gain[i] * pi[j]``, for odd N and N = 200.

Each output entry of the outer product is one rounded product
``u_i * u_j`` with no sum, so any call that forms it once agrees. The
einsum is the faster one: 69 against 129 us for a ``(100, 31)`` stack
(one BLAS thread, 2-core x86-64). The chunked Krylov builds agree because
each row of a stacked product makes the BLAS call of a one-row stack. A
Toeplitz build of 100 trials at N = 50 and rank 8 (dense matrices and
bases) took 2.78 ms in chunks of 13 trials, 1.47 ms in chunks of 52 and
1.55 ms in one chunk (same machine).
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import krrapsp.linalg
from krrapsp import gold_family
from krrapsp.estimation import _StatsStack
from krrapsp.filters import _cache_aligned, _sum_sets
from krrapsp.linalg import (
    cg_solve_stack,
    krylov_basis_stack,
    toeplitz_dense,
)
from krrapsp.scenarios import GOLD_LENGTH, _CdmaUser, _chip_table
from oracles import toeplitz_gather


@pytest.mark.parametrize("runs", [1, 2, 100])
@pytest.mark.parametrize("n", [1, 7, 31])
def test_einsum_outer_product_equals_the_broadcast_product(runs, n):
    rng = np.random.default_rng(runs * 100 + n)
    # magnitudes over 20 decades, so products round at every exponent
    u = rng.standard_normal((runs, n)) * 10.0 ** rng.uniform(-10, 10, (runs, n))
    chunk = _StatsStack("fullsym", n, runs, None).chunk
    for size in sorted({chunk, 3}):  # the stack's chunks, and short odd ones
        buffer = np.empty((size, n, n))
        for lo in range(0, runs, size):
            part = u[lo:lo + size]
            got = np.einsum("ri,rj->rij", part, part, out=buffer[:len(part)])
            want = np.multiply(part[:, :, None], part[:, None, :])
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == np.stack([np.outer(row, row) for row in part]).tobytes()


def row_by_row(op, a, x):
    """``op(a, x)`` for ``op`` ``np.matvec`` or ``np.vecdot``, as one unstacked ``a @ x`` a row."""
    lead = a.ndim - (2 if op is np.matvec else 1)
    shape = np.broadcast_shapes(a.shape[:lead], x.shape[:-1])
    a, x = np.broadcast_to(a, shape + a.shape[lead:]), np.broadcast_to(x, shape + x.shape[-1:])
    rows = [a[i] @ x[i] for i in np.ndindex(shape)]
    return np.array(rows).reshape(shape + np.shape(rows[0]))


def assert_per_row(op, a, x):
    got = op(a, x)
    assert got.tobytes() == row_by_row(op, a, x).tobytes(), (op.__name__, a.shape, a.strides)


def signed_normal(rng, shape):
    """Normal entries over 16 decades with signed zeros; the first of several rows is all -0."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.05] = 0.0
    if len(x) > 1:
        x[0] = -0.0
    return x


@pytest.mark.parametrize("runs, n", [(1, 200), (2, 200), (52, 50), (1, 7), (2, 7), (100, 7),
                                     (1, 31), (2, 31), (100, 31)])
def test_gufuncs_on_square_stacks_equal_the_per_row_products(runs, n):
    # the CG solves (one-trial chunks at N = 200) and the Krylov chunks of 52
    # trials at N = 50
    rng = np.random.default_rng(runs * 1000 + n)
    mats = signed_normal(rng, (runs, n, n))
    x, y = signed_normal(rng, (runs, n)), signed_normal(rng, (runs, n))
    keep = rng.random(runs) < 0.6  # the rows a CG run keeps, a copy as it makes them
    keep[-1] = True
    for a, v, w in ((mats, x, y), (mats[keep], x[keep], y[keep])):
        assert_per_row(np.matvec, a, v)
        assert_per_row(np.vecdot, v, w)
        assert_per_row(np.vecdot, v, v)


@pytest.mark.parametrize("runs", [1, 2, 100])
@pytest.mark.parametrize("n", [7, 31, 50])
def test_gufuncs_on_basis_views_equal_the_per_row_products(runs, n):
    # a Krylov build's leading columns and their transposes, a family member's
    # bases, and both against broadcast 2-D matrices and vectors
    rng = np.random.default_rng(runs * 100 + n)
    width = 8
    bases = signed_normal(rng, (runs, n, width))
    x = signed_normal(rng, (runs, n))
    draw = signed_normal(rng, (runs, n + width))  # strided column blocks of a wider draw
    for d in (1, 2, 5, width):
        built = bases[:, :, :d]
        coords = signed_normal(rng, (runs, d))
        assert_per_row(np.matvec, built, coords)
        assert_per_row(np.matvec, built.transpose(0, 2, 1), x)
        assert_per_row(np.matvec, np.ascontiguousarray(built), coords)
        assert_per_row(np.matvec, bases[0, :, :d], draw[:, n:n + d])  # a broadcast matrix
        assert_per_row(np.matvec, bases[0, :, :d].T, draw[:, :n])
        assert_per_row(np.vecdot, draw[:, :n], x[0])  # a broadcast vector
        assert_per_row(np.vecdot, draw[:, n:n + d], coords)


@pytest.mark.parametrize("runs", [1, 2, 100])
@pytest.mark.parametrize("error_dim", [1, 2, 3])
def test_gufuncs_on_ring_windows_equal_the_per_row_products(runs, error_dim):
    # a family's reduced pass: the (R, q, D, r) windows with their (R, q, r)
    # errors, the ring's inner products with (R, 1, D) filters, and the
    # transform of every stale ring slot through a (k, 1, D, N) basis stack
    projections, n = 4, 13
    slots = projections + error_dim - 1
    rng = np.random.default_rng(10 * runs + error_dim)
    for rank in (1, 2, 3, 5, 8):
        ut = signed_normal(rng, (runs, slots + 2, rank))  # a longer ring, read in its slots
        h = signed_normal(rng, (runs, rank))
        assert_per_row(np.vecdot, ut[:, :slots], h[:, None, :])
        e = signed_normal(rng, (runs, slots))
        e_win = sliding_window_view(e, error_dim, axis=1)
        u_win = np.ascontiguousarray(sliding_window_view(ut[:, :slots], error_dim, axis=1))
        assert_per_row(np.matvec, u_win, e_win)
        assert_per_row(np.vecdot, e_win, e_win)
        g = np.matvec(u_win, e_win)
        assert_per_row(np.vecdot, g, g)
        basis_t = signed_normal(rng, (runs, n, rank)).transpose(0, 2, 1)
        us = signed_normal(rng, (runs, slots, n))
        assert_per_row(np.matvec, basis_t[:, None], us[:, 1:])


def statistics_stack(mode, n, runs, rng):
    """A stack of ``runs`` estimates: sample statistics, and every fourth an exact rank-2 one."""
    stats = _StatsStack(mode, n, runs, 0.999)
    x = rng.standard_normal((runs, 3 * n))
    rows = np.stack([np.correlate(row, row, "full")[3 * n - 1:4 * n - 1] for row in x])
    rows[::4] = np.cos(rng.uniform(0.1, 3.0, (len(rows[::4]), 1)) * np.arange(n))
    if mode == "toeplitz":
        stats.r = rows
    else:  # plus an outer product each: symmetric, not Toeplitz
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        stats.r = rows[:, lags] + np.einsum("ri,rj->rij", x[:, :n], x[:, :n])
    stats.p = rng.standard_normal((runs, n))
    return stats


@pytest.mark.parametrize("mode", ["toeplitz", "fullsym"])
@pytest.mark.parametrize("n", [31, 50])
def test_chunked_builds_equal_one_build(mode, n):
    runs, rank = 100, 8
    rng = np.random.default_rng(n)
    stats = statistics_stack(mode, n, runs, rng)
    x = rng.standard_normal((runs, n))
    pos = np.arange(runs)
    (_, whole), = stats.dense(pos, runs)
    products = np.matvec(whole, x)
    bases, ranks = krylov_basis_stack(whole, stats.p, rank)
    assert ranks.min() < rank  # the rank-2 rows truncate
    for chunk in (1, 13, 52, 100):
        parts = list(stats.dense(pos, chunk))
        assert [part.size for part, _ in parts] == [
            min(chunk, runs - lo) for lo in range(0, runs, chunk)]
        if mode == "fullsym":  # chunks of consecutive trials are views
            assert all(np.shares_memory(mats, stats.r) for _, mats in parts)
        for part, mats in stats.dense(pos, chunk):  # a Toeplitz chunk is overwritten
            assert np.matvec(mats, x[part]).tobytes() == products[part].tobytes()
            got_bases, got_ranks = krylov_basis_stack(mats, stats.p[part], rank)
            assert got_bases.tobytes() == bases[part].tobytes()
            assert np.array_equal(got_ranks, ranks[part])


@pytest.mark.parametrize("shape", [(100, 1), (100, 2), (100, 4), (7, 5, 8), (100, 4, 3)])
def test_set_sums_equal_the_accumulated_sums(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    # signed zeros, alone and among values: -0 + -0 stays -0, -0 + +0 is +0
    x[rng.random(shape) < 0.4] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    x[:3] = -0.0
    got = _sum_sets(x)
    assert got.tobytes() == np.add.accumulate(x, axis=1)[:, -1].tobytes()
    assert np.signbit(got[:3]).all()
    # from a zero start, as a zero slot in front of the sets adds
    padded = np.concatenate((np.zeros_like(x[:, :1]), x), axis=1)
    assert (got + 0.0).tobytes() == np.add.accumulate(padded, axis=1)[:, -1].tobytes()


def prefix_systems(n, rng):
    """Four ``n x n`` systems for CG from zero: SPD, ``2 I`` (a zero residual after one
    step), ``diag(1, 0, ...)`` with ``b = e0 + e1`` (zero curvature at step two) and
    SPD with ``b = 0``."""
    a = rng.standard_normal((n, n))
    semidefinite = np.zeros((n, n))
    semidefinite[0, 0] = 1.0
    mats = np.stack([a @ a.T + np.eye(n), 2.0 * np.eye(n), semidefinite, a @ a.T + np.eye(n)])
    rhs = rng.standard_normal((4, n))
    rhs[2] = 0.0
    rhs[2, :2] = 1.0
    rhs[3] = 0.0
    return mats, rhs


@pytest.mark.parametrize("n", range(2, 11))
def test_cg_steps_are_a_prefix_of_a_longer_run(n):
    # verify's MSE chain reads every rank d <= n off one n-step run
    mats, rhs = prefix_systems(n, np.random.default_rng(n))
    for rows in ([0, 1, 2, 3], [0], [1], [2], [3]):
        x0 = np.zeros((len(rows), n))
        iterates = []
        last = cg_solve_stack(mats[rows], rhs[rows], x0, n, iterates)
        assert iterates[-1].tobytes() == last.tobytes()
        for d in range(1, n + 1):
            got = cg_solve_stack(mats[rows], rhs[rows], x0, d)
            assert got.tobytes() == iterates[min(d, len(iterates) - 1)].tobytes()
    # the identity row stops after one step, the semidefinite one after one
    # update, the zero right-hand side at once
    for row, steps in ((1, 1), (2, 1), (3, 0)):
        iterates = []
        cg_solve_stack(mats[[row]], rhs[[row]], np.zeros((1, n)), n, iterates)
        assert len(iterates) == 1 + steps
    assert np.array_equal(iterates[0], np.zeros((1, n)))


@pytest.mark.parametrize("n", range(2, 11))
def test_krylov_builds_are_a_prefix_of_the_full_rank_build(n):
    # verify's MSE chain reads every rank d <= n off one rank-n build
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + np.eye(n)
    eigvecs = np.linalg.eigh(spd)[1]
    mats = np.stack([spd, spd, 2.0 * np.eye(n)])
    seeds = np.stack([rng.standard_normal(n), eigvecs[:, -2:] @ rng.standard_normal(2),
                      rng.standard_normal(n)])
    bases, ranks = krylov_basis_stack(mats, seeds, n)
    assert ranks[2] == 1 and (n == 2 or ranks[1] < n)  # truncated builds
    for d in range(1, n + 1):
        got, got_ranks = krylov_basis_stack(mats, seeds, d)
        assert got.tobytes() == np.ascontiguousarray(bases[:, :, :d]).tobytes()
        assert np.array_equal(got_ranks, np.minimum(ranks, d))


@pytest.mark.parametrize("error_dim", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 16])
@pytest.mark.parametrize("count", [1, 3, 6])
def test_bounded_error_sets_equal_the_per_set_products(count, error_dim, n):
    rng = np.random.default_rng(100 * count + 10 * error_dim + n)
    for draw in range(20):
        u = rng.standard_normal((count + error_dim - 1, n)) * 10.0 ** rng.uniform(-8, 8, n)
        u[rng.random(u.shape) < 0.2] = 0.0
        u[rng.random(u.shape) < 0.1] = -0.0
        h = rng.standard_normal(n)
        d = rng.standard_normal(len(u))
        if draw % 4 == 0:  # zero errors
            d = np.array([row @ h for row in u])
        windows = np.arange(count)[:, None] + np.arange(error_dim)
        blocks = np.ascontiguousarray(u[windows].transpose(0, 2, 1))
        e = np.matvec(blocks.transpose(0, 2, 1), h) - d[windows]
        normals = np.matvec(blocks, e)
        squares = np.vecdot(e, e)
        for j in range(count):
            u_block = np.column_stack(list(u[j:j + error_dim]))
            e_j = u_block.T @ h - d[j:j + error_dim]
            assert e[j].tobytes() == e_j.tobytes()
            assert normals[j].tobytes() == (u_block @ e_j).tobytes()
            assert squares[j].tobytes() == np.float64(e_j @ e_j).tobytes()


def padded(x, axis, width):
    """``x`` zero-padded to ``width`` entries along its rank ``axis``."""
    pad = [(0, 0)] * x.ndim
    pad[axis] = (0, width - x.shape[axis])
    return np.pad(x, pad)


def reduced_regressors(rng, runs, slots, rank):
    """``(runs, slots, rank)`` reduced regressors over 16 decades, with signed zeros."""
    ut = rng.standard_normal((runs, slots, rank)) * 10.0 ** rng.uniform(-8, 8, (runs, 1, rank))
    ut[rng.random(ut.shape) < 0.15] = -0.0
    ut[rng.random(ut.shape) < 0.1] = 0.0
    ut[0, :, :] = -0.0  # a zero regressor: zero products and sums
    return ut


@pytest.mark.parametrize("runs", [1, 2, 100])
@pytest.mark.parametrize("error_dim", [1, 3])
def test_padded_rank_products_equal_the_unpadded_ones(runs, error_dim):
    # a family's D-space pass runs every member's reduced rows over the
    # rank axis zero-padded to its widest member; each product must round
    # as the member's own unpadded product, and a sum over the rank axis
    # must run over the member's own columns of the padded array
    projections, width = 4, 8
    slots = projections + error_dim - 1
    rng = np.random.default_rng(10 * runs + error_dim)
    for rank in (1, 2, 3, 5, 7):
        ut = reduced_regressors(rng, runs, slots, rank)
        h = rng.standard_normal((runs, rank))
        h[-1] = -0.0
        d = rng.standard_normal((runs, slots))
        ut_p, h_p = padded(ut, 2, width), padded(h, 1, width)
        ips = np.vecdot(ut, h[:, None, :])
        assert np.vecdot(ut_p, h_p[:, None, :]).tobytes() == ips.tobytes()
        e = ips - d
        if error_dim == 1:
            g = ut[:, :projections] * e[..., None]
            g_p = ut_p[:, :projections] * e[..., None]
            squares = ut[:, :projections] * ut[:, :projections]
            squares_p, axes = ut_p[:, :projections] * ut_p[:, :projections], 2
        else:
            e_win = sliding_window_view(e, error_dim, axis=1)
            u_win = np.ascontiguousarray(sliding_window_view(ut, error_dim, axis=1))
            u_win_p = np.ascontiguousarray(sliding_window_view(ut_p, error_dim, axis=1))
            g, g_p = np.matvec(u_win, e_win), np.matvec(u_win_p, e_win)
            if rank == 1:  # made apart: numpy's dot, not the padded gemv
                g_p[..., :1] = np.matvec(np.ascontiguousarray(u_win_p[:, :, :1]), e_win)
            squares, squares_p, axes = u_win * u_win, u_win_p * u_win_p, (2, 3)
        assert g_p[..., :rank].tobytes() == g.tobytes()
        assert np.vecdot(g_p, g_p).tobytes() == np.vecdot(g, g).tobytes()
        f = _sum_sets(g) + 0.0
        f_p = _sum_sets(g_p) + 0.0
        assert np.vecdot(f_p, f_p).tobytes() == np.vecdot(f, f).tobytes()
        # block_sq: the member's rows and own columns of a stack of members
        stack = np.concatenate((np.ones_like(squares_p), squares_p, np.ones_like(squares_p)))
        own = stack[runs:2 * runs, :, :rank].sum(axis=axes)
        assert own.tobytes() == squares.sum(axis=axes).tobytes()


@pytest.mark.parametrize("count", [1, 2, 59])
@pytest.mark.parametrize("n", [3, 7, 13])
def test_broadcast_operands_equal_the_per_row_products(count, n):
    rng = np.random.default_rng(1000 * count + n)
    dense = rng.standard_normal((n, n))
    for d in sorted({1, 2, n // 2 + 1, n}):
        basis = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, d)))[0])
        draw = rng.standard_normal((count, n + d)) * 10.0 ** rng.uniform(-6, 6, (count, 1))
        x, z = draw[:, :n], draw[:, n:]  # strided column blocks, as a split block draw
        for a, v in ((basis.T, x), (basis, z), (dense, x), (basis.T, x.copy())):
            got = np.matvec(a, v)
            assert got.tobytes() == np.stack([a @ row for row in v]).tobytes()
        y = rng.standard_normal(n)
        assert np.vecdot(x, y).tobytes() == np.array([row @ y for row in x]).tobytes()
        sq = (x - np.matvec(basis, np.matvec(basis.T, x))) ** 2
        assert np.sum(sq, axis=1).tobytes() == np.array([np.sum(row) for row in sq]).tobytes()


@pytest.mark.parametrize("count", [1, 2, 59])
def test_a_block_draw_is_consecutive_draws(count):
    for n, d in ((3, 1), (7, 4), (13, 13)):
        block, pairs = np.random.default_rng(count), np.random.default_rng(count)
        got = block.standard_normal((count, n + d))
        want = [np.concatenate((pairs.standard_normal(n), pairs.standard_normal(d)))
                for _ in range(count)]
        assert got.tobytes() == np.stack(want).tobytes()
        assert block.bit_generator.state == pairs.bit_generator.state


@pytest.mark.parametrize("users", [1, 2, 4, 33])
def test_chip_product_equals_the_per_user_accumulation(users):
    rng = np.random.default_rng(users)
    family = gold_family()
    for amplitudes in (rng.uniform(0.1, 4.0, users), np.full(users, 0.1), np.full(users, 4.0),
                       np.full(users, 1e-323)):  # A tail and A head round to signed zeros
        picks = rng.choice(len(family), users, replace=False)
        delays = [0] + list(rng.integers(1, GOLD_LENGTH, users - 1))
        group = [_CdmaUser.from_code(family[p], d, a, 1)
                 for p, d, a in zip(picks, delays, amplitudes)]
        table = _chip_table(group)
        for m in (1, 2, 3, 36, 64):
            before, bits = rng.choice([-1, 1], (2, m, users))
            want = np.zeros((m, GOLD_LENGTH))
            for j, user in enumerate(group):
                want += user.amplitude * (before[:, j, None] * user.tail
                                          + bits[:, j, None] * user.head)
            signs = np.zeros((max(m, 2), users, 2))  # a one-row chunk padded to two rows
            signs[:m, :, 0], signs[:m, :, 1] = before, bits
            got = np.matmul(signs.reshape(len(signs), -1), table)[:m]
            assert got.tobytes() == want.tobytes(), (amplitudes[0], m)


@pytest.mark.parametrize("runs", [1, 2, 100])
@pytest.mark.parametrize("n", [1, 7, 31])
def test_toeplitz_expansion_equals_the_gather(runs, n):
    assert_toeplitz_expansion(runs, n)


@pytest.mark.parametrize("runs, n", [(52, 1), (1, 9), (2, 9), (52, 9), (1, 50), (2, 50),
                                     (52, 50), (1, 200), (2, 200), (52, 200)])
def test_toeplitz_expansion_at_build_sizes(runs, n):
    # one-trial views, a CG solve's one-trial chunks at N = 200, 52-trial Krylov chunks
    assert_toeplitz_expansion(runs, n)


def assert_toeplitz_expansion(runs, n):
    """``toeplitz_dense`` of awkward rows equals the gather, into fresh or given memory."""
    rng = np.random.default_rng(runs * 1000 + n)
    rows = rng.standard_normal((runs, n)) * 10.0 ** rng.uniform(-300, 300, (runs, n))
    rows[rng.random((runs, n)) < 0.1] = -0.0
    rows[rng.random((runs, n)) < 0.05] = 5e-324
    rows[rng.random((runs, n)) < 0.05] = np.nan
    want = np.stack([toeplitz_gather(row) for row in rows]).tobytes()
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    assert rows[:, lags].tobytes() == want
    assert toeplitz_dense(rows).tobytes() == want
    # into the leading rows of a larger buffer, which keeps the rest
    out = np.full((runs + 3, n, n), 7.0)
    view = out[:runs]
    got = toeplitz_dense(rows, out=view)
    assert got is view and got.tobytes() == want and not np.any(out[runs:] != 7.0)
    # rows laid out column-major, or strided, expand alike
    assert toeplitz_dense(np.asfortranarray(rows)).tobytes() == want
    wide = np.zeros((runs, 2 * n))
    wide[:, ::2] = rows
    assert toeplitz_dense(wide[:, ::2]).tobytes() == want


@pytest.mark.parametrize("mode", ["toeplitz", "fullsym"])
def test_no_trials_expand_to_nothing(mode):
    stats = _StatsStack(mode, 9, 4, 0.999)
    assert list(stats.dense(np.array([], dtype=np.int64), 2)) == []
    assert toeplitz_dense(np.empty((0, 9))).shape == (0, 9, 9)


@pytest.mark.parametrize("members", [1, 2, 3, 100])
def test_weight_sums_equal_the_per_member_sums(members):
    # a family normalizes every member's newest q_eff weights in one reduction
    # over the rows; each row's sum is its member's own, also past eight terms
    rng = np.random.default_rng(members)
    for q in (1, 2, 3, 7, 8, 9, 17):
        w = rng.uniform(0.01, 1.0, (members, q))
        for q_eff in range(1, q + 1):
            got = w[:, :q_eff] / np.add.reduce(w[:, :q_eff], axis=1, keepdims=True)
            want = np.array([row[:q_eff] / float(row[:q_eff].sum()) for row in w])
            assert got.tobytes() == want.tobytes(), (q, q_eff)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_gram_defect_equals_the_masked_identity_form(n, monkeypatch):
    # the build subtracts the identity on each row's diagonal in place; the defect
    # it checks is max |S^T S - I_masked| over the returned bases, bit for bit
    defects = []
    monkeypatch.setattr(krrapsp.linalg, "_check_orthonormal", defects.append)
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    mats = np.stack([a @ a.T + np.eye(n), 2.0 * np.eye(n), a @ a.T + np.eye(n)])
    seeds = rng.standard_normal((3, n))
    for rank in range(1, n + 1):
        bases, ranks = krylov_basis_stack(mats, seeds, rank)
        eye = np.eye(rank) * (np.arange(rank) < ranks[:, None])[:, None, :]
        want = float(np.max(np.abs(np.matmul(bases.transpose(0, 2, 1), bases) - eye)))
        assert defects.pop() == want
    assert ranks[1] == 1 < n  # a truncated row


@pytest.mark.parametrize("n", [1, 7, 31, 200])
def test_rls_correction_equals_the_outer_product(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        gain, pi = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-150, 150, (2, n))
        got = np.dot(gain[:, None], pi[None, :], out=_cache_aligned(n))
        assert got.tobytes() == np.outer(gain, pi).tobytes()
        assert got.tobytes() == np.array([[g * p for p in pi] for g in gain]).tobytes()
