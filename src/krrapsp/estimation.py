"""Recursive second-order statistics with exponential forgetting.

Tracks the input autocorrelation matrix and the input/output
cross-correlation vector from streaming samples. Toeplitz mode estimates
only the first autocorrelation row (stationary scalar-input convolution
model); full symmetric mode estimates the whole matrix (vector-observation
models where the autocorrelation is not Toeplitz).

The update is written once, in ``_StatsStack``, which keeps the statistics
of R trials stepped in lockstep; ``CorrelationEstimator`` is its one-trial
view.
"""

from __future__ import annotations

import numpy as np

from .linalg import SymMatrix, as_vector, toeplitz_dense

MODES = ("toeplitz", "fullsym")

# bytes of the dense matrices one chunk of trials may hold
_BUILD_CHUNK_BYTES = 1 << 18


class _StatsStack:
    """Second-order statistics of R trials, updated in place.

    ``r`` holds ``(R, N)`` Toeplitz first rows or ``(R, N, N)`` matrices and
    ``p`` the ``(R, N)`` cross-correlations. With a ``forgetting`` factor
    every update is ``r <- gamma*r + u[0]*u`` (Toeplitz) or
    ``R <- gamma*R + u u^T`` (full) and ``p <- gamma*p + d*u``; without one
    the estimates are plain sample sums. Dense matrices exist a chunk of
    trials at a time, at most ``_BUILD_CHUNK_BYTES`` of them: the outer
    products of a full-matrix update in a buffer the stack keeps (a fresh
    one every step would be faulted in again each time), the Toeplitz
    matrices in one buffer per :meth:`dense` call.
    """

    def __init__(self, mode: str, n: int, trials: int, forgetting: float | None):
        self.mode = mode
        self.forgetting = forgetting
        self.chunk = min(trials, max(1, _BUILD_CHUNK_BYTES // (8 * n * n)))
        self.r = np.zeros((trials, n) if mode == "toeplitz" else (trials, n, n))
        self.p = np.zeros((trials, n))
        self._outer = np.empty((self.chunk, n, n)) if mode == "fullsym" else None

    def update(self, u: np.ndarray, d: np.ndarray) -> None:
        """Fold one sample of every trial into the estimates, in place."""
        g = self.forgetting
        if g is not None:
            self.r *= g
            self.p *= g
        if self.mode == "toeplitz":
            self.r += u[:, :1] * u
        else:
            for lo in range(0, len(u), self.chunk):
                part = u[lo:lo + self.chunk]
                outer = np.multiply(part[:, :, None], part[:, None, :],
                                    out=self._outer[:len(part)])
                self.r[lo:lo + len(part)] += outer
        self.p += d[:, None] * u

    def dense(self, pos: np.ndarray):
        """Yield ``(part, matrices)`` over the trials ``pos``, a chunk at a time.

        ``matrices`` holds the dense statistics of the trials ``part``; a
        Toeplitz chunk is overwritten by the next one.
        """
        n = self.p.shape[1]
        if self.mode == "toeplitz":
            buffer = np.empty((min(self.chunk, pos.size), n, n))
        for lo in range(0, pos.size, self.chunk):
            part = pos[lo:lo + self.chunk]
            if self.mode == "toeplitz":
                mats = toeplitz_dense(self.r[part], out=buffer[:part.size])
            else:
                # chunks of consecutive trials are views, others copies
                mats = self.r[part[0]:part[-1] + 1]
                if mats.shape[0] != part.size:
                    mats = self.r[part]
            yield part, mats


class CorrelationEstimator:
    """Exponentially weighted estimates of R and p, the one-trial view of ``_StatsStack``.

    Updates follow
    ``r <- gamma*r + u[0]*u`` (Toeplitz) or ``R <- gamma*R + u u^T`` (full),
    and ``p <- gamma*p + d*u``, starting from zero. No ``1 - gamma``
    normalization is applied: Krylov bases and Wiener solutions are
    invariant to a common positive scaling of (R, p).

    Parameters
    ----------
    mode : {"toeplitz", "fullsym"}
    n : int
        Regressor length.
    gamma : float
        Forgetting factor, strictly inside (0, 1); fixed for the lifetime
        of the estimator.
    """

    def __init__(self, mode: str, n: int, gamma: float):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"forgetting factor must lie in (0, 1), got {gamma}")
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        self.mode = mode
        self.n = int(n)
        self.gamma = float(gamma)
        self._stats = _StatsStack(mode, self.n, 1, self.gamma)

    def update(self, u, d: float) -> None:
        """Fold one sample pair into the running estimates."""
        self._stats.update(as_vector(u, self.n)[None], np.array([float(d)]))

    def r_matrix(self) -> SymMatrix:
        """Immutable snapshot of the autocorrelation estimate."""
        if self.mode == "toeplitz":
            return SymMatrix(toeplitz_dense(self._stats.r[:1])[0])
        return SymMatrix(self._stats.r[0])

    def p_vector(self) -> np.ndarray:
        """Immutable snapshot of the cross-correlation estimate."""
        p = self._stats.p[0].copy()
        p.flags.writeable = False
        return p

    def __repr__(self) -> str:
        return f"CorrelationEstimator(mode={self.mode!r}, n={self.n}, gamma={self.gamma})"
