"""Dense real linear algebra kernels.

Symmetric (optionally Toeplitz) matrices, the energy norm they induce,
orthonormal Krylov subspace bases, and the projections onto half-spaces
and column spaces that the adaptive filters and their analysis rely on.

All values are immutable after construction and safe to share across
threads; every function here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL


class DegenerateCrossCorrelationError(ValueError):
    """Krylov basis requested for a (near-)zero seed vector."""


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D float array of length ``n``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected length {n}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class SymMatrix:
    """Symmetric n x n real matrix, dense or Toeplitz.

    Symmetry is exact by construction: the dense form is materialized by
    mirroring the upper triangle (or by expanding the stored first row in
    Toeplitz mode). Instances are immutable.

    Parameters
    ----------
    dense : array_like, optional
        Square matrix whose upper triangle defines the symmetric matrix.
    first_row : array_like, optional
        First row of a symmetric Toeplitz matrix. Exactly one of ``dense``
        and ``first_row`` must be given.
    """

    def __init__(self, dense=None, *, first_row=None):
        if (dense is None) == (first_row is None):
            raise ValueError("provide exactly one of dense or first_row")
        if first_row is not None:
            row = as_vector(first_row)
            if row.size == 0:
                raise ValueError("first_row must be nonempty")
            self._first_row = row.copy()
            self._first_row.flags.writeable = False
            self._n = row.shape[0]
            self._dense = None
        else:
            a = np.asarray(dense, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {a.shape}")
            if not np.all(np.isfinite(a)):
                raise ValueError("matrix entries must be finite")
            upper = np.triu(a)
            full = upper + np.triu(a, 1).T
            full.flags.writeable = False
            self._dense = full
            self._first_row = None
            self._n = a.shape[0]

    @property
    def n(self) -> int:
        return self._n

    @property
    def is_toeplitz(self) -> bool:
        return self._first_row is not None

    @property
    def first_row(self) -> np.ndarray:
        if self._first_row is None:
            raise ValueError("not a Toeplitz matrix")
        return self._first_row

    def dense(self) -> np.ndarray:
        """Full symmetric matrix (read-only view, cached)."""
        if self._dense is None:
            idx = np.abs(np.arange(self._n)[:, None] - np.arange(self._n)[None, :])
            full = self._first_row[idx]
            full.flags.writeable = False
            self._dense = full
        return self._dense

    def matvec(self, x) -> np.ndarray:
        v = as_vector(x, self._n)
        return self.dense() @ v

    def __repr__(self) -> str:
        kind = "toeplitz" if self.is_toeplitz else "dense"
        return f"SymMatrix(n={self._n}, {kind})"


@dataclass(frozen=True)
class BasisMatrix:
    """Column-orthonormal N x D_eff matrix spanning a filter subspace.

    ``build_tag`` identifies the iteration (or event) that produced the
    basis, which lets consumers detect refreshes.
    """

    matrix: np.ndarray
    build_tag: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {m.shape}")
        n, d = m.shape
        if d < 1 or d > n:
            raise ValueError(f"basis rank must satisfy 1 <= D_eff <= N, got {d} for N={n}")
        gram_defect = np.max(np.abs(m.T @ m - np.eye(d)))
        if gram_defect > TOL.orthonormality:
            raise ValueError(f"basis columns not orthonormal: max |S^T S - I| = {gram_defect:.3e}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space ``{x : <x - anchor, normal> + offset <= 0}``.

    ``anchor`` is the point at which a convex constraint was linearized and
    ``offset`` the constraint value there; ``offset > 0`` means the anchor
    itself violates the half-space.
    """

    normal: np.ndarray
    offset: float
    anchor: np.ndarray

    def __post_init__(self):
        normal = as_vector(self.normal)
        anchor = as_vector(self.anchor, normal.shape[0])
        normal = normal.copy()
        anchor = anchor.copy()
        normal.flags.writeable = False
        anchor.flags.writeable = False
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def n(self) -> int:
        return self.normal.shape[0]

    def violation(self, x) -> float:
        """Constraint value at ``x``; positive means ``x`` is outside."""
        v = as_vector(x, self.n)
        return float((v - self.anchor) @ self.normal + self.offset)


def r_norm(x, matrix: SymMatrix) -> float:
    """Energy norm ``sqrt(x^T R x)`` induced by a symmetric PSD matrix."""
    v = as_vector(x, matrix.n)
    quad = float(v @ matrix.matvec(v))
    scale = max(1.0, float(v @ v) * max(1.0, float(np.max(np.abs(matrix.dense()), initial=0.0))))
    if quad < -TOL.quadform_negative * scale:
        raise ValueError(f"negative quadratic form ({quad:.3e}): matrix is not PSD")
    return float(np.sqrt(max(quad, 0.0)))


def condition_number(matrix: SymMatrix) -> float:
    """Ratio of extreme eigenvalues of a symmetric positive definite matrix.

    Diagnostic-path helper; not used by the streaming filters.
    """
    eigs = np.linalg.eigvalsh(matrix.dense())
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {lo:.3e})")
    return hi / lo


def krylov_basis(matrix: SymMatrix, p, rank: int, tol: float | None = None,
                 build_tag: int = 0) -> BasisMatrix:
    """Orthonormal basis of ``span{p, Rp, ..., R^(D_eff-1) p}``.

    Built by the symmetric Arnoldi (Lanczos) recurrence with full
    reorthogonalization: each new direction is orthogonalized against all
    previous columns twice by classical Gram-Schmidt. The effective rank
    ``D_eff`` falls short of ``rank`` only when the Krylov sequence becomes
    numerically dependent (new direction norm <= ``tol`` after
    reorthogonalization).

    Parameters
    ----------
    matrix : SymMatrix
        Symmetric PSD matrix generating the subspace.
    p : array_like
        Seed vector; must have norm greater than ``tol``. With the default
        ``tol`` any nonzero seed qualifies: one so small that ``p.p``
        underflows is normalized through ``p / max|p|``.
    rank : int
        Requested dimension D, ``1 <= rank <= N``.
    tol : float, optional
        Truncation tolerance. Defaults to ``1e-10 * ||p||``.

    Raises
    ------
    DegenerateCrossCorrelationError
        If ``||p|| <= tol`` (callers handle warm-up).
    """
    seed = as_vector(p, matrix.n)
    norm_p = float(np.linalg.norm(seed))
    divisor = norm_p
    if norm_p < TOL.seed_rescale_below and np.any(seed):
        # p.p underflows: normalize p / max|p| and scale its norm back
        scale = float(np.max(np.abs(seed)))
        seed = seed / scale
        divisor = float(np.linalg.norm(seed))
        norm_p = scale * divisor
    if tol is None:
        tol = TOL.basis_truncation_rel * norm_p
    if norm_p == 0.0 or norm_p <= tol:
        raise DegenerateCrossCorrelationError(
            f"degenerate cross-correlation: ||p|| = {norm_p:.3e} <= tol = {tol:.3e}")
    if not 1 <= rank <= matrix.n:
        raise ValueError(f"requested rank {rank} outside 1..{matrix.n}")

    cols = np.empty((matrix.n, rank))
    cols[:, 0] = seed / divisor
    d_eff = 1
    for _ in range(rank - 1):
        w = matrix.matvec(cols[:, d_eff - 1])
        built = cols[:, :d_eff]
        w = w - built @ (built.T @ w)
        w = w - built @ (built.T @ w)
        nw = float(np.linalg.norm(w))
        if nw <= tol:
            break
        cols[:, d_eff] = w / nw
        d_eff += 1
    return BasisMatrix(cols[:, :d_eff], build_tag=build_tag)


def project_half_space(x, half_space: HalfSpace) -> np.ndarray:
    """Metric projection of ``x`` onto a half-space.

    Returns ``x`` unchanged when it already satisfies the constraint;
    otherwise the unique boundary point along the normal direction.
    """
    v = as_vector(x, half_space.n)
    g = half_space.violation(v)
    if g <= 0.0:
        return v.copy()
    nn = float(half_space.normal @ half_space.normal)
    if nn == 0.0:
        raise ValueError("inconsistent half-space: zero normal with positive violation")
    return v - (g / nn) * half_space.normal


def project_subspace(x, basis: BasisMatrix) -> np.ndarray:
    """Orthogonal projection ``S (S^T x)`` onto the basis column space."""
    v = as_vector(x, basis.n)
    return basis.matrix @ (basis.matrix.T @ v)


def cg_solve(matrix: SymMatrix, b, x0=None, iters: int | None = None,
             residual_tol: float = 0.0) -> np.ndarray:
    """Conjugate gradient iterations on ``R h = b``.

    Runs at most ``iters`` steps from ``x0`` (zero by default). Stops early
    on a vanishing residual or a non-positive curvature direction
    (breakdown on semidefinite systems), returning the current iterate.
    With exact arithmetic and ``x0 = 0`` the ``D``-step iterate is the best
    approximation of the solution in the energy norm over the Krylov
    subspace of dimension ``D``.
    """
    rhs = as_vector(b, matrix.n)
    x = np.zeros(matrix.n) if x0 is None else as_vector(x0, matrix.n).copy()
    if iters is None:
        iters = matrix.n
    r = rhs - matrix.matvec(x)
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(rhs))
    stop = max(residual_tol * b_norm, 0.0) ** 2
    for _ in range(iters):
        if rs <= stop or rs == 0.0:
            break
        ap = matrix.matvec(p)
        curvature = float(p @ ap)
        if curvature <= 0.0:
            break
        alpha = rs / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rs_next = float(r @ r)
        p = r + (rs_next / rs) * p
        rs = rs_next
    return x
