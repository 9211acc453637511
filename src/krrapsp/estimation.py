"""Recursive second-order statistics with exponential forgetting.

Tracks the input autocorrelation matrix and the input/output
cross-correlation vector from streaming samples. Toeplitz mode estimates
only the first autocorrelation row (stationary scalar-input convolution
model); full symmetric mode estimates the whole matrix (vector-observation
models where the autocorrelation is not Toeplitz).

The update is written once, in ``_StatsStack``, which keeps the statistics
of R trials stepped in lockstep; ``CorrelationEstimator`` is its one-trial
view. Full-symmetric stacks of one shape fed the same stream can be joined
into a statistics group, which forms each step's outer products once for
all of them.
"""

from __future__ import annotations

import numbers

import numpy as np

from .linalg import SymMatrix, as_vector, check_int, toeplitz_dense

MODES = ("toeplitz", "fullsym")

# bytes of the dense matrices one chunk of trials may hold in a full-symmetric
# fold and a CG solve; a Krylov build sizes its own chunks (filters._KrrFamily)
_BUILD_CHUNK_BYTES = 1 << 18


def check_forgetting(gamma) -> float:
    """``gamma`` as a float if it is a real forgetting factor in (0, 1); else ``ValueError``."""
    if not (isinstance(gamma, numbers.Real) and 0.0 < gamma < 1.0):  # NaN fails the range
        raise ValueError(f"forgetting factor must lie in (0, 1), got {gamma!r}")
    return float(gamma)


def _chunk_trials(nbytes: int, n: int, trials: int) -> int:
    """How many of ``trials`` dense ``(N, N)`` matrices fit in ``nbytes``; at least one."""
    return min(trials, max(1, nbytes // (8 * n * n)))


class _StatsStack:
    """Second-order statistics of R trials, updated in place.

    ``r`` holds ``(R, N)`` Toeplitz first rows or ``(R, N, N)`` matrices and
    ``p`` the ``(R, N)`` cross-correlations. With a ``forgetting`` factor
    every update is ``r <- gamma*r + u[0]*u`` (Toeplitz) or
    ``R <- gamma*R + u u^T`` (full) and ``p <- gamma*p + d*u``; without one
    the estimates are plain sample sums. Dense matrices exist a chunk of
    trials at a time: the outer products of a full-matrix update in a
    buffer of ``chunk`` trials (at most ``_BUILD_CHUNK_BYTES``) kept across
    steps (a fresh one every step would be faulted in again each time), the
    Toeplitz matrices in one buffer per :meth:`dense` call, whose caller
    sizes the chunks.

    Full-symmetric stacks of one ``(N, R)`` fed the same stream form a
    statistics group (:meth:`join`; a stack starts as a group of one). The
    first member updated in a step folds the sample into every member's
    ``r``, each with its own forgetting factor, forming each chunk's outer
    products once in the group's one buffer; every member updates its own
    ``p``. Each entry still gets ``r*gamma`` and then ``+ u_i*u_j``, so a
    member's estimates are those it would reach alone.
    """

    def __init__(self, mode: str, n: int, trials: int, forgetting: float | None):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if forgetting is not None:
            check_forgetting(forgetting)
        self.mode = mode
        self.forgetting = forgetting
        self.chunk = _chunk_trials(_BUILD_CHUNK_BYTES, n, trials)
        self.r = np.zeros((trials, n) if mode == "toeplitz" else (trials, n, n))
        self.p = np.zeros((trials, n))
        self._outer = np.empty((self.chunk, n, n)) if mode == "fullsym" else None
        self.steps = 0
        self.group = [self]

    def join(self, other: "_StatsStack") -> None:
        """Merge ``other``'s group into this one's.

        Both must be full-symmetric stacks of one ``(N, R)``, fed the same
        stream, and neither group may have been updated yet.
        """
        if self.mode != "fullsym" or (other.mode, other.r.shape) != (self.mode, self.r.shape):
            raise ValueError("a statistics group joins full-symmetric stacks of one (N, R)")
        if any(s.steps for s in self.group + other.group):
            raise ValueError("a statistics group joins stacks before their first update")
        if other.group is self.group:
            raise ValueError("the stack is already in this statistics group")
        self.group += other.group
        for s in other.group:
            s.group, s._outer = self.group, self._outer

    def update(self, u: np.ndarray, d: np.ndarray) -> None:
        """Fold one sample of every trial into the estimates, in place.

        In a group, the first member updated in a step folds ``u`` into
        every member's ``r``; a member updated a second time before the
        others have had this step raises ``ValueError``.
        """
        steps = [s.steps for s in self.group]
        if min(steps) == max(steps):
            self._fold(u)
        elif self.steps != min(steps):
            raise ValueError("each stack of a statistics group is updated once per step")
        self.steps += 1
        if self.forgetting is not None:
            self.p *= self.forgetting
        self.p += d[:, None] * u

    def _fold(self, u: np.ndarray) -> None:
        # forget, then add u u^T: one einsum per chunk of trials for the group
        for s in self.group:
            if s.forgetting is not None:
                s.r *= s.forgetting
        if self.mode == "toeplitz":
            self.r += u[:, :1] * u
            return
        for lo in range(0, len(u), self.chunk):
            part = u[lo:lo + self.chunk]
            outer = np.einsum("ri,rj->rij", part, part, out=self._outer[:len(part)])
            for s in self.group:
                s.r[lo:lo + len(part)] += outer

    def dense(self, pos: np.ndarray, chunk: int):
        """Yield ``(part, matrices)`` over the trials ``pos``, ``chunk`` trials at a time.

        ``matrices`` holds the dense statistics of the trials ``part``; a
        Toeplitz chunk is overwritten by the next one. A non-finite estimate
        of any trial of ``pos`` raises ``ValueError`` before the first chunk.
        """
        r, p = self.r, self.p
        if not (np.isfinite(r.reshape(len(r), -1)).all(axis=1)[pos].all()
                and np.isfinite(p[pos]).all()):
            raise ValueError("statistics estimates must be finite")
        n = p.shape[1]
        if self.mode == "toeplitz":
            buffer = np.empty((min(chunk, pos.size), n, n))
        for lo in range(0, pos.size, chunk):
            part = pos[lo:lo + chunk]
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
        self.n = check_int(n, "dimension")
        self.gamma = check_forgetting(gamma)
        self._stats = _StatsStack(mode, self.n, 1, self.gamma)
        self.mode = mode

    def update(self, u, d: float) -> None:
        """Fold one sample pair into the estimates; a non-finite one raises ``ValueError``."""
        self._stats.update(as_vector(u, self.n)[None], as_vector([d], 1))

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
