"""Dense small-matrix primitives (symmetric eigen extremes, PSD square roots,
certified lifted-map spectral radii, a positive-definiteness test, the Riccati
stall detector) and the input rules of rates, counts and state vectors.

All routines target small dense matrices (state dimension <= 10, lifted maps
<= 100 x 100) and fix the numerical tolerances used across the package.
"""

import math
import operator
import warnings

import numpy as np

from .errors import InvalidInputError, NotPSDError, NumericalFailureError

# Relative tolerance for treating a matrix as symmetric.
SYM_RTOL = 1e-10
# Half-width, relative to 1 + rho, of the bracket that certifies a lifted
# map's dense spectral radius.
DUAL_AGREE_RTOL = 1e-7


def _as_matrix(M, stack: bool = False) -> np.ndarray:
    """M as a finite float matrix; with stack=True a (k, r, c) stack of them is
    accepted as well."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2 and not (stack and M.ndim == 3):
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={M.ndim}")
    if not M.size and 0 in M.shape[-2:]:
        raise InvalidInputError(f"expected a non-empty matrix, got shape {M.shape}")
    return _finite(M)


def _finite(M: np.ndarray) -> np.ndarray:
    """M itself, when all its entries are finite; else InvalidInputError."""
    if not np.isfinite(M).all():
        raise InvalidInputError("matrix has non-finite entries")
    return M


def _check_rate(q, name: str = "loss rate") -> None:
    if not 0.0 <= q < 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1), got {q}")


def _check_lifted_rate(q) -> None:
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1], got {q}")


def _as_int(value, name: str, least: int | None = None) -> int:
    """value as a Python int, at least `least` when given; a float or a string is refused."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    return value


def _finite_vector(x, size: int, name: str) -> np.ndarray:
    """The entries of x as a flat float array; raises InvalidInputError unless
    there are `size` of them, all finite."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != size:
        raise InvalidInputError(f"{name} has length {x.size}, expected {size}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return x


def _fro(X: np.ndarray):
    """Euclidean norm of a vector, Frobenius norm of a matrix, or that of each
    matrix of a (k, r, c) stack.  A vector or matrix takes the BLAS dot of its
    entries in memory order, and a stack the same dot of each flattened matrix
    (np.vecdot): what np.linalg.norm computes, so the same bits, without its
    per-call overhead."""
    if X.ndim <= 2:
        v = X.ravel(order="K")
        return math.sqrt(v.dot(v))
    v = X.reshape(len(X), X.shape[1] * X.shape[2])
    return np.sqrt(np.vecdot(v, v))


def symmetrize(M, rtol: float = SYM_RTOL) -> np.ndarray:
    """Return (M + M^T)/2, refusing inputs whose asymmetry exceeds rtol * (1 + ||M||).
    A (k, n, n) stack is symmetrized member by member, and refused when one
    member is (the message names the first)."""
    M = _as_matrix(M, stack=True)
    if M.shape[-2] != M.shape[-1]:
        raise InvalidInputError(f"cannot symmetrize a {M.shape} matrix")
    skew = _fro(M - M.mT)
    asymmetric = skew > 2.0 * rtol * (1.0 + _fro(M))
    if asymmetric if M.ndim == 2 else np.count_nonzero(asymmetric):
        skew = skew if M.ndim == 2 else skew[asymmetric][0]
        raise InvalidInputError(
            f"matrix is not symmetric: asymmetry {skew:.3e} exceeds tolerance"
        )
    return 0.5 * (M + M.mT)


def sym_eig_extremes(M):
    """Extreme eigenvalues (lambda_min, lambda_max) of a symmetric matrix, or
    two arrays of those of each member of a (k, n, n) stack."""
    S = symmetrize(M)
    w = np.linalg.eigvalsh(S)
    if S.ndim == 2:
        return float(w[0]), float(w[-1])
    return w[:, 0], w[:, -1]


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root of a PSD matrix, or of each member of a
    (k, n, n) stack.

    Eigenvalues in [-1e-10 * ||M||, 0) are clamped to zero; anything more
    negative raises NotPSDError (for a stack, naming the first such member).
    """
    S = symmetrize(M)
    w, V = np.linalg.eigh(S)
    lowest = w[..., 0]
    # w ascends, so max |w| = max(|w[0]|, |w[-1]|).
    below = lowest < -1e-10 * np.abs(w).max(axis=-1)
    if np.count_nonzero(below):
        raise NotPSDError(f"matrix has eigenvalue {lowest[below].flat[0]:.3e} below the PSD tolerance")
    w = np.clip(w, 0.0, None)
    root = (V * np.sqrt(w)[..., None, :]) @ V.mT
    return 0.5 * (root + root.mT)


def _dense_spectral_radius(M: np.ndarray):
    """Largest eigenvalue modulus of a square matrix, or an array of those of
    each matrix in a (k, d, d) stack (one batched eigvals call)."""
    rho = np.max(np.abs(np.linalg.eigvals(M)), axis=-1)
    return float(rho) if rho.ndim == 0 else rho


class StallDetector:
    """Shortcut for iterations that cannot reach their tolerance within a cap.

    Reaching a tolerance of about 1e-12 within 10^5 steps needs the per-step
    change to shrink by >= 13% per 500-step window, so two consecutive
    windows without 10% improvement (after the first 2000 steps) prove the
    cap would be hit anyway.  Used by the Riccati fixed-point iteration; one
    detector can follow several runs in lock-step, given one change per run.
    """

    WINDOW = 500
    START = 2000

    def __init__(self):
        self.best_prev, self.best_cur, self.stalls = np.inf, np.inf, 0

    def stalled(self, it: int, delta):
        """Record the changes of step `it`, an array with one per run: False
        within a window, and at its end an array of verdicts, True for each
        run that has stalled."""
        self.best_cur = np.minimum(self.best_cur, delta)
        if it % self.WINDOW:
            return False
        worse = (it >= self.START) & (self.best_cur > 0.9 * self.best_prev)
        self.stalls = np.where(worse, self.stalls + 1, 0)
        self.best_prev, self.best_cur = self.best_cur, np.inf
        return self.stalls >= 2


def _has_cholesky(X: np.ndarray):
    """Whether X, or each matrix of a (k, n, n) stack, has a Cholesky factor,
    which says nothing of a matrix with a non-finite entry.  numpy fails a
    whole stacked call for one member, so a failed stack is tested again
    member by member."""
    try:
        np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return False if X.ndim == 2 else np.array([_has_cholesky(M) for M in X])
    return True if X.ndim == 2 else np.ones(len(X), dtype=bool)


def _positive_definite(X: np.ndarray):
    """Whether X, or each matrix of a (k, n, n) stack, is finite and has a
    Cholesky factor."""
    factored = _has_cholesky(X)
    finite = np.isfinite(X).all(axis=(-2, -1))
    return bool(factored and finite) if X.ndim == 2 else factored & finite


def _lyapunov_solve(M: np.ndarray, s: float, n: int):
    """The system I - M/s of X - Phi(X)/s = I, where Phi acts on n x n
    matrices by vec(Phi(X)) = M vec(X), and its solution X symmetrized; None
    when the system is singular."""
    system = np.eye(n * n) - M / s
    try:
        X = np.linalg.solve(system, np.eye(n).reshape(-1)).reshape(n, n)
    except np.linalg.LinAlgError:
        return None
    return system, 0.5 * (X + X.T)


def spectral_radius(M, *, cone: bool = False) -> float:
    """Spectral radius of a dense matrix, from its eigenvalues.

    `cone=True` asserts that M is the n^2 x n^2 matrix of a map Phi on n x n
    matrices that preserves the PSD cone, as every lifted second-moment map
    does.  The dense value rho is then checked by the Lyapunov
    characterization of mean-square stability (Costa, Fragoso & Marques,
    *Discrete-Time Markov Jump Linear Systems*, 2005): for such a Phi and any
    s > 0, the solution X of X - Phi(X)/s = I is positive definite iff
    rho(Phi) < s.  With tol = DUAL_AGREE_RTOL * (1 + rho):

    - At s = rho + tol, X positive definite proves rho(Phi) < rho + tol.
      Otherwise rho may understate rho(Phi), and NumericalFailureError is
      raised, unless rounding in that solve could have flipped its outcome:
      by Weyl's inequality it cannot when the smallest eigenvalue of X
      exceeds in magnitude the forward error bound
      eps * cond(I - M/s) * ||X||_2.
    - At s = rho - tol, X not positive definite (or a singular system)
      proves rho(Phi) >= rho - tol; nothing is solved when rho - tol <= 0.
      Otherwise rho may overstate rho(Phi), the safe side for a stability
      verdict.

    Short of a decided failure above, a side fails only on near-defective
    maps, where dense eigenvalues err by up to about eps^(1/k) for a Jordan
    block of size k and solves near s = rho lose their digits.  There rho is
    returned as it is, with a RuntimeWarning.  Without `cone` the matrix
    need not preserve any cone, and the dense value is returned unchecked.
    """
    return _spectral_radius(M, cone=cone)[0]


def _spectral_radius(M, cone: bool) -> tuple[float, bool]:
    """`spectral_radius`, and whether its bracket certified the value (which
    it then returns with no warning)."""
    M = _as_matrix(M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise InvalidInputError(f"spectral_radius needs a square matrix, got {M.shape}")

    rho_dense = _dense_spectral_radius(M)
    if not cone:
        return rho_dense, False

    dim = math.isqrt(n)
    if dim**2 != n:
        raise InvalidInputError(f"a {n}-dimensional matrix is not a lifted map of square matrices")
    tol = DUAL_AGREE_RTOL * (1.0 + rho_dense)
    upper = _lyapunov_solve(M, rho_dense + tol, dim)
    if upper is None or not _positive_definite(upper[1]):
        if upper is not None:
            system, X = upper
            w = np.linalg.eigvalsh(X)
            if abs(w[0]) > np.finfo(float).eps * np.linalg.cond(system) * np.max(np.abs(w)):
                raise NumericalFailureError(
                    f"a Lyapunov solve at rho + {DUAL_AGREE_RTOL:.0e} * (1 + rho) does not "
                    f"bound the dense spectral radius {rho_dense:.12e} from above"
                )
        side = "above (the solve is too ill-conditioned to tell)"
    else:
        lower = rho_dense - tol
        solved = None if lower <= 0.0 else _lyapunov_solve(M, lower, dim)
        if solved is None or not _positive_definite(solved[1]):
            return rho_dense, True
        side = "below (it may overstate rho)"
    warnings.warn(
        f"Lyapunov solves at rho -/+ {DUAL_AGREE_RTOL:.0e} * (1 + rho) do not bound the "
        f"dense spectral radius {rho_dense:.12e} from {side}",
        RuntimeWarning,
        stacklevel=3,
    )
    return rho_dense, False
