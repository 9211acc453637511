"""Dense real linear algebra kernels.

Symmetric matrices, the energy norm, orthonormal Krylov bases and the
projections onto half-spaces and column spaces that the filters and their
analysis rely on. The Krylov basis, the conjugate gradient solve and the
Toeplitz expansion are written once, for a stack of R systems;
``krylov_basis`` and ``cg_solve`` are one-row calls. Stacked products are
numpy's gufuncs (numpy >= 2.2): each row of ``np.vecdot(x, y)`` and
``np.matvec(a, x)`` makes the BLAS call of the unstacked ``x[i] @ y[i]``
or ``a[i] @ x[i]``, so its bits do not depend on the stack. That holds for
every layout passed here (``tests/test_kernels.py``). No call site passes
a layout of this table, measured to round otherwise (entries that differed;
numpy 2.4, OpenBLAS 0.3.31, x86-64; not asserted, as it depends on the BLAS):

* ``np.matvec`` over a rows-reversed window view: 4180 of 6200 at N = 31;
* ``np.matvec`` over the strided ``(R, q, D, r)`` window view, against its
  contiguous copy: 2432 of 14 400;
* a one-row ``(1, K)`` chip product, made with gemv: 43 265 of 93 000;
* ``.sum`` over a rank axis zero-padded to 8 or more: 14 637 of 160 000;
* ``(S_8^T u)[:D]`` against ``S_D^T u``: 22 544 of 30 000 at D = 3;
* a one-column ``(1, r) @ (r,)`` window padded to ``(D_max, r)``: about 23%;
* a Python float loop against a small BLAS dot (FMA): 3646 of 20 000 at n = 2.

Values are immutable; functions are pure apart from writing into a given
``out`` or ``iterates``.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .tolerances import TOL


class DegenerateCrossCorrelationError(ValueError):
    """Krylov basis requested for a (near-)zero seed vector."""


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, by a count (cheaper than ``.all()``)."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_vector(x, n: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a 1-D float array of length ``n``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"dimension mismatch: expected length {n}, got {v.shape[0]}")
    if not all_finite(v):
        raise ValueError("vector entries must be finite")
    return v


def check_int(x, name: str, low: int = 1) -> int:
    """``x`` as an int (``operator.index``); a count must be an integer of at least ``low``.

    Configs call it to validate only, so a field keeps the value it was given.
    """
    try:
        value = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    return value


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``."""
    a = a.copy()
    a.flags.writeable = False
    return a


def _unchecked(cls, **fields):
    """The record ``cls`` of fields its caller has checked, without its validation.

    ``cls`` is a ``NamedTuple`` type; its fields are taken by name and any
    other keyword (a derived value such as ``ThetaInstance._geometry``) goes
    into the instance's ``__dict__``. This is the one sanctioned bypass of a
    validating ``__new__``: ``_replace`` and ``_make`` skip it too, so nothing
    may call them on ``BasisMatrix``, ``HalfSpace``, ``verify.PhiMap`` or
    ``verify.ThetaInstance``.
    """
    obj = tuple.__new__(cls, [fields.pop(name) for name in cls._fields])
    if fields:
        obj.__dict__.update(fields)
    return obj


def _check_orthonormal(gram_defect: float) -> None:
    """Raise unless ``max |S^T S - I|`` is within tolerance (so not NaN)."""
    if not gram_defect <= TOL.orthonormality:
        raise ValueError(f"basis columns not orthonormal: max |S^T S - I| = {gram_defect:.3e}")


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float array, by its own formula without the wrapper."""
    v = x.ravel(order="K")
    return math.sqrt(float(v.dot(v)))


class SymMatrix:
    """Symmetric n x n real matrix.

    Exactly symmetric: the given square array's upper triangle, mirrored.
    Immutable; the eigenvalues and ``max |R_ij|`` are computed on first use.
    """

    def __init__(self, dense):
        a = np.asarray(dense, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not all_finite(a):
            raise ValueError("matrix entries must be finite")
        full = np.triu(a) + np.triu(a, 1).T
        full.flags.writeable = False
        self._dense = full
        self._n = a.shape[0]

    @property
    def n(self) -> int:
        return self._n

    def dense(self) -> np.ndarray:
        """Full symmetric matrix (read-only view)."""
        return self._dense

    def matvec(self, x) -> np.ndarray:
        v = as_vector(x, self._n)
        return self._dense @ v

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only)."""
        eigs = np.linalg.eigvalsh(self._dense)
        eigs.flags.writeable = False
        return eigs

    @cached_property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self._dense), initial=0.0))

    def __repr__(self) -> str:
        return f"SymMatrix(n={self._n})"


class BasisMatrix(NamedTuple("BasisMatrix", [("matrix", np.ndarray)])):
    """Column-orthonormal N x D_eff matrix spanning a filter subspace."""

    __slots__ = ()

    def __new__(cls, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {m.shape}")
        n, d = m.shape
        if d < 1 or d > n:
            raise ValueError(f"basis rank must satisfy 1 <= D_eff <= N, got {d} for N={n}")
        _check_orthonormal(float(np.max(np.abs(m.T @ m - np.eye(d)))))
        return super().__new__(cls, _frozen(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        return self.matrix.shape[1]


class HalfSpace(NamedTuple("HalfSpace", [("normal", np.ndarray), ("offset", float),
                                          ("anchor", np.ndarray)])):
    """Closed half-space ``{x : <x - anchor, normal> + offset <= 0}``.

    A convex constraint linearized at ``anchor``, where its value is
    ``offset`` (``> 0``: the anchor violates it). All three are finite.
    """

    __slots__ = ()

    def __new__(cls, normal, offset, anchor):
        normal = as_vector(normal)
        anchor = as_vector(anchor, normal.shape[0])
        if not math.isfinite(offset := float(offset)):
            raise ValueError("offset must be finite")
        return super().__new__(cls, _frozen(normal), offset, _frozen(anchor))

    @property
    def n(self) -> int:
        return self.normal.shape[0]

    def violation(self, x) -> float:
        """Constraint value at ``x``; positive means ``x`` is outside."""
        return self._violation(as_vector(x, self.n))

    def _violation(self, v: np.ndarray) -> float:
        return float((v - self.anchor) @ self.normal + self.offset)


def r_norm(x, matrix: SymMatrix) -> float:
    """Energy norm ``sqrt(x^T R x)`` induced by a symmetric PSD matrix."""
    return _r_norms(as_vector(x, matrix.n)[None], matrix)[0]


def _r_norms(rows: np.ndarray, matrix: SymMatrix) -> list:
    """:func:`r_norm` of each row of ``rows``, from one stacked quadratic form."""
    quads = np.vecdot(rows, np.matvec(matrix.dense(), rows)).tolist()
    norms = []
    for quad, sq in zip(quads, np.vecdot(rows, rows).tolist()):
        if quad < -TOL.quadform_negative * max(1.0, sq * max(1.0, matrix.max_abs)):
            raise ValueError(f"negative quadratic form ({quad:.3e}): matrix is not PSD")
        norms.append(math.sqrt(max(quad, 0.0)))
    return norms


def condition_number(matrix: SymMatrix) -> float:
    """Ratio of extreme eigenvalues of a symmetric positive definite matrix."""
    eigs = matrix.eigenvalues
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {lo:.3e})")
    return hi / lo


def krylov_basis(matrix: SymMatrix, p, rank: int) -> BasisMatrix:
    """Orthonormal basis of ``span{p, Rp, ..., R^(D_eff-1) p}``.

    ``p`` is the seed, of length N; ``rank`` the requested dimension D,
    ``1 <= rank <= N``, which ``D_eff`` falls short of only when the Krylov
    sequence becomes numerically dependent. Raises
    ``DegenerateCrossCorrelationError`` if ``p`` is zero (callers handle warm-up).
    """
    seed = as_vector(p, matrix.n)
    bases, ranks = krylov_basis_stack(matrix.dense()[None], seed[None], rank)
    return _unchecked(BasisMatrix, matrix=_frozen(bases[0, :, :ranks[0]]))  # the build checks it


def project_half_space(x, half_space: HalfSpace) -> np.ndarray:
    """Metric projection of ``x`` onto a half-space: ``x`` if inside, else the
    boundary point along the normal."""
    v = as_vector(x, half_space.n)
    g = half_space._violation(v)
    if g <= 0.0:
        return v.copy()
    nn = float(half_space.normal @ half_space.normal)
    if nn == 0.0:
        raise ValueError("inconsistent half-space: zero normal with positive violation")
    return v - (g / nn) * half_space.normal


def project_subspace(x, basis: BasisMatrix) -> np.ndarray:
    """Orthogonal projection ``S (S^T x)`` onto the basis column space."""
    return _project(as_vector(x, basis.n), basis)


def _project(v: np.ndarray, basis: BasisMatrix) -> np.ndarray:
    return basis.matrix @ (basis.matrix.T @ v)


def cg_solve(matrix: SymMatrix, b, x0=None, iters: int | None = None) -> np.ndarray:
    """Conjugate gradient iterations on ``R h = b``.

    At most ``iters`` steps (N by default) from ``x0`` (zero by default).
    With exact arithmetic and ``x0 = 0`` the ``D``-step iterate is the
    energy-norm best approximation of the solution in the ``D``-dimensional
    Krylov subspace.
    """
    rhs = as_vector(b, matrix.n)
    x = np.zeros(matrix.n) if x0 is None else as_vector(x0, matrix.n)
    return cg_solve_stack(matrix.dense()[None], rhs[None], x[None],
                          matrix.n if iters is None else iters)[0]


def toeplitz_dense(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The ``(R, N, N)`` symmetric Toeplitz matrices of ``(R, N)`` first rows.

    Entry ``(k, i, j)`` is ``rows[k, |i - j|]``: entry ``N - 1 - i + j`` of
    the row mirrored in front of itself. Written into ``out`` when given.
    """
    count, n = rows.shape
    mirrored = np.concatenate((rows[:, :0:-1], rows), axis=1, out=np.empty((count, 2 * n - 1)))
    # windows[k, s] is mirrored[k, s:s + n]; row i of the matrix is window n - 1 - i
    windows = np.ndarray((count, n, n), float, mirrored, 0, mirrored.strides + mirrored.strides[1:])
    out = np.empty((count, n, n)) if out is None else out
    np.copyto(out, windows[:, ::-1])
    return out


def krylov_basis_stack(matrices: np.ndarray, seeds: np.ndarray, rank: int):
    """Orthonormal Krylov bases of a stack of ``(matrix, seed)`` pairs.

    ``matrices`` is ``(R, N, N)`` (symmetric), ``seeds`` ``(R, N)`` with no
    zero row. Each row runs the Lanczos recurrence, orthogonalizing each new
    ``R q`` twice against the columns so far (classical Gram-Schmidt), and
    stops growing once that leaves at most ``TOL.basis_truncation_rel *
    ||R q||``, which scales with R, not with the seed. A seed whose ``p . p``
    under- or overflows is replaced by ``p / max|p|`` (same basis). Returns
    ``(bases, ranks)``: ``(R, N, rank)`` bases, row ``i``'s effective rank
    ``ranks[i]`` in its leading columns, zeros after; a rank-``d`` build
    gives their leading ``d`` columns and ranks ``min(ranks, d)``. Raises
    ``ValueError`` on a non-finite seed or matrix entry, and as
    ``BasisMatrix`` does if a basis is not orthonormal.
    """
    count, n = seeds.shape
    if not 1 <= check_int(rank, "rank") <= n:
        raise ValueError(f"requested rank {rank} outside 1..{n}")
    if not all_finite(seeds):
        raise ValueError("Krylov seeds must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # p . p may overflow; R q meets inf * 0
        norms = np.sqrt(np.vecdot(seeds, seeds))
        if not (np.minimum.reduce(norms) >= TOL.seed_rescale_below
                and np.maximum.reduce(norms) < math.inf):
            rescale = ((norms < TOL.seed_rescale_below) | np.isinf(norms)) & np.any(seeds, axis=1)
            seeds = seeds / np.where(rescale, np.max(np.abs(seeds), axis=1), 1.0)[:, None]
            norms = np.sqrt(np.vecdot(seeds, seeds))
            if not np.all(norms > 0.0):
                raise DegenerateCrossCorrelationError("degenerate cross-correlation: ||p|| = 0")
        cols = np.zeros((count, n, rank))
        cols[:, :, 0] = seeds / norms[:, None]
        w = np.matvec(matrices, cols[:, :, 0])
    if not all_finite(w):  # R q carries every non-finite entry of R: NaN * 0 is NaN
        raise ValueError("Krylov matrices must be finite")
    ranks = np.ones(count, dtype=np.int64)
    growing = np.ones(count, dtype=bool)
    for i in range(1, rank):
        if i > 1:
            w = np.matvec(matrices, col)
        tol = TOL.basis_truncation_rel * np.sqrt(np.vecdot(w, w))
        built = cols[:, :, :i]
        built_t = built.transpose(0, 2, 1)
        w = w - np.matvec(built, np.matvec(built_t, w))
        w = w - np.matvec(built, np.matvec(built_t, w))
        nw = np.sqrt(np.vecdot(w, w))
        growing &= nw > tol
        if not np.count_nonzero(growing):
            break
        col = np.divide(w, nw[:, None], out=cols[:, :, i], where=growing[:, None])
        ranks += growing
    # S^T S less the identity on each row's leading ranks[i] columns (zeros after them)
    gram = np.matmul(cols.transpose(0, 2, 1), cols)
    gram.reshape(count, -1)[:, ::rank + 1] -= np.arange(rank) < ranks[:, None]
    _check_orthonormal(float(np.maximum.reduce(np.abs(gram), axis=None)))
    return cols, ranks


def cg_solve_stack(matrices: np.ndarray, rhs: np.ndarray, x0: np.ndarray,
                   iters: int, iterates: list | None = None) -> np.ndarray:
    """Conjugate gradient iterations on a stack of systems ``R h = b``.

    ``matrices`` is ``(R, N, N)`` (symmetric), ``rhs`` and ``x0`` ``(R, N)``.
    Each row runs at most ``iters`` steps from its ``x0``, stopping early on
    a zero residual or non-positive curvature (semidefinite breakdown) with
    its current iterate. Returns the ``(R, N)`` iterates. A list ``iterates``
    gets copies of ``x0`` and of each step's: ``d`` steps give
    ``iterates[min(d, len - 1)]``. ``iters`` must be an integer of at least 0.
    """
    check_int(iters, "iters", 0)
    x = x0.copy()
    if iterates is not None:
        iterates.append(x.copy())
    r = rhs - np.matvec(matrices, x)
    p = r.copy()
    rs = np.vecdot(r, r)
    live = np.arange(len(x))  # rows still iterating; the arrays below hold only these
    for _ in range(iters):
        # the stop conditions as they read, so a row with a NaN residual keeps iterating
        if np.count_nonzero(stop := rs <= 0.0):
            live, matrices, r, p, rs = (a[~stop] for a in (live, matrices, r, p, rs))
        if live.size == 0:
            break
        ap = np.matvec(matrices, p)
        curvature = np.vecdot(p, ap)
        if np.count_nonzero(stop := curvature <= 0.0):
            live, matrices, r, p, rs, ap, curvature = (
                a[~stop] for a in (live, matrices, r, p, rs, ap, curvature))
            if live.size == 0:
                break
        alpha = (rs / curvature)[:, None]
        if live.size == len(x):
            x += alpha * p
        else:
            x[live] = x[live] + alpha * p
        if iterates is not None:
            iterates.append(x.copy())
        r = r - alpha * ap
        rs_next = np.vecdot(r, r)
        p = r + (rs_next / rs)[:, None] * p
        rs = rs_next
    return x
