"""Dense small-matrix primitives: symmetric eigen extremes, PSD square roots,
spectral radii of lifted second-moment maps, and Kronecker products.

All routines target small dense matrices (state dimension <= 10, lifted maps
<= 100 x 100) and fix the numerical tolerances used across the package.
"""

import math

import numpy as np

from .errors import InvalidInputError, NotPSDError, NumericalFailureError

# Relative tolerance for treating a matrix as symmetric.
SYM_RTOL = 1e-10
# Power iteration on lifted maps: cap and Rayleigh convergence tolerance.
POWER_ITER_CAP = 10**5
POWER_RTOL = 1e-12
# Required agreement between the power-iteration and dense eigenvalue routes.
DUAL_AGREE_RTOL = 1e-7


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2:
        raise InvalidInputError(f"expected a 2-d matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError("matrix has non-finite entries")
    return M


def symmetrize(M, rtol: float = SYM_RTOL) -> np.ndarray:
    """Return (M + M^T)/2, refusing inputs whose asymmetry exceeds rtol * (1 + ||M||)."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"cannot symmetrize a {M.shape} matrix")
    norm = np.linalg.norm(M)
    skew = np.linalg.norm(M - M.T)
    if skew > rtol * (1.0 + norm) * 2.0:
        raise InvalidInputError(
            f"matrix is not symmetric: asymmetry {skew:.3e} exceeds tolerance"
        )
    return 0.5 * (M + M.T)


def sym_eig_extremes(M) -> tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of a symmetric matrix."""
    S = symmetrize(M)
    w = np.linalg.eigvalsh(S)
    return float(w[0]), float(w[-1])


def psd_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root of a PSD matrix.

    Eigenvalues in [-1e-10 * ||M||, 0) are clamped to zero; anything more
    negative raises NotPSDError.
    """
    S = symmetrize(M)
    w, V = np.linalg.eigh(S)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 0.0)
    if w[0] < -1e-10 * scale:
        raise NotPSDError(f"matrix has eigenvalue {w[0]:.3e} below the PSD tolerance")
    w = np.clip(w, 0.0, None)
    root = (V * np.sqrt(w)) @ V.T
    return 0.5 * (root + root.T)


def kron(M1, M2) -> np.ndarray:
    """Kronecker product with block layout (M1)_ij * M2."""
    A = np.asarray(M1, dtype=float)
    B = np.asarray(M2, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise InvalidInputError("kron inputs must be finite")
    return np.kron(A, B)


def _dense_spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


class StallDetector:
    """Shortcut for iterations that cannot reach their tolerance within a cap.

    Reaching a tolerance of about 1e-12 within 10^5 steps needs the per-step
    change to shrink by >= 13% per 500-step window, so two consecutive
    windows without 10% improvement (after the first 2000 steps) prove the
    cap would be hit anyway.  Shared by the Riccati fixed-point iteration and
    the power iteration on lifted maps.
    """

    WINDOW = 500
    START = 2000

    def __init__(self):
        self.best_prev, self.best_cur, self.stalls = np.inf, np.inf, 0

    def stalled(self, it: int, delta: float) -> bool:
        """Record the change of step `it`; True once the run has stalled."""
        self.best_cur = min(self.best_cur, delta)
        if it % self.WINDOW == 0:
            if it >= self.START and self.best_cur > 0.9 * self.best_prev:
                self.stalls += 1
                if self.stalls >= 2:
                    return True
            else:
                self.stalls = 0
            self.best_prev, self.best_cur = self.best_cur, np.inf
        return False


def _power_iteration(M: np.ndarray, v0: np.ndarray) -> tuple[float, bool]:
    """Rayleigh-quotient power iteration; returns (estimate, converged).

    Converged means two consecutive steps each moved the Rayleigh quotient by
    at most POWER_RTOL relative: on a non-normal map the quotient can overshoot
    rho and turn back, and the single step at the turn is small while the
    estimate is still off.  A `StallDetector` shortcuts hopeless runs
    (oscillating Rayleigh sequences, complex dominant pairs).
    """
    v = v0 / np.linalg.norm(v0)
    est = 0.0
    small_steps = 0
    stall = StallDetector()
    for it in range(1, POWER_ITER_CAP + 1):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True
        new_est = float(v @ w)
        delta = abs(new_est - est) / (1.0 + abs(new_est))
        small_steps = small_steps + 1 if delta <= POWER_RTOL else 0
        if small_steps == 2:
            return new_est, True
        est = new_est
        v = w / nw
        if stall.stalled(it, delta):
            return est, False
    return est, False


def spectral_radius(M, cone_seed=None) -> float:
    """Spectral radius of a dense matrix.

    For matrices acting on vectorized symmetric matrices (second-moment maps,
    which preserve the PSD cone) the dominant eigenvalue is real and
    nonnegative, and power iteration seeded with a vectorized PSD matrix
    converges to it.  Such maps are recognised either by an explicit
    `cone_seed` or by a perfect-square dimension, and the power-iteration
    estimate is cross-checked against the dense eigenvalue route; the two must
    agree to 1e-7 relative.  Every other matrix goes through the dense route
    alone.
    """
    M = _as_matrix(M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise InvalidInputError(f"spectral_radius needs a square matrix, got {M.shape}")

    rho_dense = _dense_spectral_radius(M)

    explicit = cone_seed is not None
    if explicit:
        C = symmetrize(cone_seed)
        if C.shape[0] ** 2 != n:
            raise InvalidInputError(
                f"cone seed of shape {C.shape} does not match a {n}-dimensional lifted map"
            )
        seed = C.reshape(-1)
    elif math.isqrt(n) ** 2 == n:
        seed = np.eye(math.isqrt(n)).reshape(-1)
    else:
        return rho_dense

    est, converged = _power_iteration(M, seed)
    agree = abs(abs(est) - rho_dense) <= DUAL_AGREE_RTOL * (1.0 + rho_dense)
    if converged and not agree:
        raise NumericalFailureError(
            f"power iteration ({est:.12e}) and dense eigenvalues ({rho_dense:.12e}) disagree"
        )
    if not converged and explicit and not agree:
        # The caller asserted a cone-preserving map, so the failure is real.
        # Without that assertion the matrix may simply have a complex
        # dominant pair, and the dense route is authoritative.
        raise NumericalFailureError(
            "power iteration on the lifted map did not converge "
            f"(last estimate {est:.12e}, dense {rho_dense:.12e})"
        )
    return rho_dense
