"""Dense small-matrix primitives (symmetric eigen extremes, PSD square roots,
certified lifted-map spectral radii, a positive-definiteness test) and the
input rules of rates, counts and state vectors.

All routines target small dense matrices (state dimension <= 10, lifted maps
<= 100 x 100) and fix the numerical tolerances used across the package.

A thin LAPACK layer serves every solve, Cholesky factor and eigenvalue call
of the package: `_solve`, `_cholesky`, `_eigvals`, `_eigvalsh` and `_eigh`,
and `_solve_each` and `_has_cholesky`.  Each calls the compiled gufunc of
`numpy.linalg._umath_linalg` that the public numpy function calls (solve /
solve1, cholesky_lo, eigvals, eigvalsh_lo, eigh_lo), with the same float64
signature ('dd->d', 'd->d', 'd->D', 'd->dd').  So every result has the
public function's bits, without its per-call argument handling (its type
promotion, shape checks and result wrapping), which takes 1.5 to 6 us on
matrices of at most 16 x 16, often longer than LAPACK itself.  The callers
pass float64 arrays of square matrices, the checks the layer leaves out.

A gufunc fills the result of each matrix that fails, alone or in a stack,
with NaN and raises the invalid flag; every other matrix of a stack gets
the bits of its own call.  The layer has two failure rules.  The first five
run in the error state that numpy.linalg enters, whose `call` handler
raises numpy's LinAlgError with numpy's message on a singular,
non-positive-definite or non-converging input.  `_solve_each` and
`_has_cholesky` ignore the flag and read the NaN marks of one call: a
singular system gets a NaN solution, and a matrix without a Cholesky
factor the verdict False, with no retry.

These error states, three raising and one ignoring every flag (which
`_ignored` enters for the Riccati solver), are built once at import with
numpy's private `_make_extobj`, as `np.errstate` builds its own.  A call
sets its state in numpy's per-thread context variable and resets it on
return or raise: about 0.3 us, against 2.3 us for an `np.errstate`
(timeit, numpy 2.4.6), and the caller's state is left as it was.

`_eigvals` keeps numpy's finite-input check and always returns complex
eigenvalues, where numpy returns a real array when every imaginary part is
zero: its callers take moduli, real and imaginary parts, and |x + 0j| =
hypot(x, 0) = |x| exactly.  The gufunc and error-state names are those
of numpy 2.4.6; a numpy without one of them fails at import with an error
that names it.
The rest of numpy.linalg is called as it is: `svd` (the rank test of B
in `riccati`, once per q_c or invertible-B check) and `cond` (the rare
warning path of `_spectral_radius`), and `norm` has `_fro`.
"""

import math
import operator
import warnings

import numpy as np
from numpy._core import umath
from numpy.linalg import _umath_linalg

from .errors import InvalidInputError, NotPSDError, NumericalFailureError


def _numpy_private(module, name: str):
    """The private attribute `name` of a numpy module; ImportError naming it
    when this numpy has none."""
    try:
        return getattr(module, name)
    except AttributeError:
        raise ImportError(
            f"numpy {np.__version__} has no {module.__name__}.{name}, which lossylqr's LAPACK layer calls"
        ) from None


def _gufunc(name: str):
    """The gufunc `name` of numpy.linalg._umath_linalg; ImportError naming it
    when this numpy has none."""
    return _numpy_private(_umath_linalg, name)


_SOLVE, _SOLVE1, _CHOLESKY_LO = _gufunc("solve"), _gufunc("solve1"), _gufunc("cholesky_lo")
_EIGVALS, _EIGVALSH_LO, _EIGH_LO = _gufunc("eigvals"), _gufunc("eigvalsh_lo"), _gufunc("eigh_lo")
# np.errstate builds an error state on entry and sets it in this context
# variable; the layer builds each of its states once.
_make_extobj = _numpy_private(umath, "_make_extobj")
_ERRSTATE = _numpy_private(umath, "_extobj_contextvar")


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _not_positive_definite(err, flag):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def _not_converged(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _lapack_errors(handler):
    """numpy.linalg's error state around a gufunc: LAPACK's failure flag
    calls `handler`, and floating-point flags are ignored."""
    return _make_extobj(call=handler, invalid="call", over="ignore", divide="ignore", under="ignore")


_SINGULAR = _lapack_errors(_singular)
_NOT_POSITIVE_DEFINITE = _lapack_errors(_not_positive_definite)
_NOT_CONVERGED = _lapack_errors(_not_converged)
_IGNORED = _make_extobj(all="ignore")


class _ignored:
    """A context in which numpy ignores every floating-point flag, entered
    from the prebuilt state instead of a new np.errstate."""

    __slots__ = ("_token",)

    def __enter__(self):
        self._token = _ERRSTATE.set(_IGNORED)

    def __exit__(self, *exc_info):
        _ERRSTATE.reset(self._token)


# Each call below sets and resets its error state itself: a shared helper
# would add about 0.25 us to every call.


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b): a (d,) right-hand side, or a (d, c) one, or
    stacks of both against a (k, d, d) stack of a."""
    token = _ERRSTATE.set(_SINGULAR)
    try:
        return (_SOLVE1 if b.ndim == 1 else _SOLVE)(a, b, signature="dd->d")
    finally:
        _ERRSTATE.reset(token)


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_solve` with a (d, c) right-hand side, where a singular matrix, alone
    or in a stack, gives NaN in place of its solution instead of raising."""
    token = _ERRSTATE.set(_IGNORED)
    try:
        return _SOLVE(a, b, signature="dd->d")
    finally:
        _ERRSTATE.reset(token)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky(a): the lower factor of a matrix or of each of a stack."""
    token = _ERRSTATE.set(_NOT_POSITIVE_DEFINITE)
    try:
        return _CHOLESKY_LO(a, signature="d->d")
    finally:
        _ERRSTATE.reset(token)


def _eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a) as complex numbers, also where all are real."""
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    token = _ERRSTATE.set(_NOT_CONVERGED)
    try:
        return _EIGVALS(a, signature="d->D")
    finally:
        _ERRSTATE.reset(token)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(a): ascending eigenvalues from the lower triangle."""
    token = _ERRSTATE.set(_NOT_CONVERGED)
    try:
        return _EIGVALSH_LO(a, signature="d->d")
    finally:
        _ERRSTATE.reset(token)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(a): ascending eigenvalues and eigenvectors from the lower triangle."""
    token = _ERRSTATE.set(_NOT_CONVERGED)
    try:
        return _EIGH_LO(a, signature="d->dd")
    finally:
        _ERRSTATE.reset(token)


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
    w = _eigvalsh(S)
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
    w, V = _eigh(S)
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
    rho = np.max(np.abs(_eigvals(M)), axis=-1)
    return float(rho) if rho.ndim == 0 else rho


def _has_cholesky(X: np.ndarray):
    """Whether X, or each matrix of a (k, n, n) stack, has a Cholesky factor,
    which says nothing of a matrix with a non-finite entry.  One call factors
    the stack; numpy fills the factor of a failed member with NaN, which its
    last entry shows."""
    token = _ERRSTATE.set(_IGNORED)
    try:
        factor = _CHOLESKY_LO(X, signature="d->d")
    finally:
        _ERRSTATE.reset(token)
    last = factor[..., -1, -1][()]  # [()]: one matrix gives a scalar
    return last == last


def _positive_definite(X: np.ndarray):
    """Whether X, or each matrix of a (k, n, n) stack, is finite and has a
    Cholesky factor."""
    return _has_cholesky(X) & np.isfinite(X).all(axis=(-2, -1))


def _lyapunov_solve(M: np.ndarray, s: float, n: int):
    """The system I - M/s of X - Phi(X)/s = I, where Phi acts on n x n
    matrices by vec(Phi(X)) = M vec(X), and its solution X symmetrized; None
    when the system is singular."""
    system = np.eye(n * n) - M / s
    try:
        X = _solve(system, np.eye(n).reshape(-1)).reshape(n, n)
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
            w = _eigvalsh(X)
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
