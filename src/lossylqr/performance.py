"""Analytic sub-optimality of the certainty-equivalence controller.

When the controller designed at q_hat stabilizes the true system, its cost
exceeds the optimum by

    gap = (q - q_hat) * tr(W S) + tr((P_hat - P) X0),

where W is the gain weight matrix of the design, S = E[sum_t x_t x_t^T] the
closed-loop second-moment sum, P_hat / P the Riccati solutions at the design
and true rates and X0 = E[x0 x0^T].  S is obtained from a linear solve on
the lifted second-moment map and verified against a truncated series.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NoSolutionError, NumericalFailureError, UnstableError
from .numerics import _finite, _finite_vector, _fro, sym_eig_extremes, symmetrize
from .riccati import Gain, SystemSpec, _feedback_gain, _mare_solve_rates, _ms_stable, mare_solve
from .stability import _design, _lifted_rho, gain_weight_matrix

# Required agreement between the linear-solve and series routes for S.
SERIES_AGREE_RTOL = 1e-8
SERIES_STOP_RTOL = 1e-12
SERIES_MAX_DOUBLINGS = 64

BOUND_GRAMIAN_TRACE = "gramian_trace"
BOUND_RICCATI_DIFF = "riccati_diff"


@dataclass(frozen=True)
class GapReport:
    """Exact optimality-gap decomposition for one (q, q_hat) pair."""

    q: float
    q_hat: float
    J_ce: float
    J_star: float
    gap: float
    X_K_term: float  # (q - q_hat) * tr(W S)
    P_diff_term: float  # tr((P_hat - P) X0)
    S: np.ndarray  # closed-loop second-moment sum E[sum_t x_t x_t^T]
    P_hat: np.ndarray
    P_true: np.ndarray
    X0: np.ndarray
    gramian_trace: float  # tr(W S)


@dataclass(frozen=True)
class GapCurvePoint:
    q_hat: float
    gap: float | None
    stable: bool


def initial_second_moment(x0, n: int) -> np.ndarray:
    """Normalize an initial condition to X0 = E[x0 x0^T].

    Accepts a deterministic vector of n finite entries, else InvalidInputError as in the
    simulator (outer product is taken), or an n x n covariance/second-moment matrix.
    """
    arr = np.asarray(x0, dtype=float)
    if arr.ndim <= 1:
        arr = _finite_vector(arr, n, "initial state")
        with np.errstate(over="ignore"):
            X0 = np.outer(arr, arr)
        if not np.isfinite(X0).all():
            raise InvalidInputError("outer product of the initial state overflows")
        return X0
    if arr.shape != (n, n):
        raise DimensionError(f"initial second moment must be {n}x{n}, got {arr.shape}")
    X0 = symmetrize(arr)
    # X0 is exactly symmetric; only an overflow of arr + arr^T can make it non-finite.
    w = np.linalg.eigvalsh(_finite(X0))
    lmin, lmax = float(w[0]), float(w[-1])
    if lmin < -1e-10 * (1.0 + abs(lmax)):
        raise InvalidInputError(f"initial second moment must be PSD (lambda_min={lmin:.3e})")
    return X0


def second_moment_sum(sys: SystemSpec, K, q: float, X0) -> np.ndarray:
    """Closed-loop second-moment sum S = E[sum_{t>=0} x_t x_t^T].

    Solves vec(S) = (I - Phi)^{-1} vec(X0) on the lifted map Phi and
    verifies the result against a truncated geometric series accumulated on
    the vector: after k doublings acc = sum_{t < 2^k} Phi^t vec(X0), and the
    next block Phi^(2^k) acc is added until it falls below 1e-12 relative to
    1 + ||acc||; the two routes must agree to 1e-8 relative.
    """
    return _second_moment_sum(sys, K, q, initial_second_moment(X0, sys.n))


def _second_moment_sum(sys: SystemSpec, K, q: float, X0: np.ndarray) -> np.ndarray:
    """`second_moment_sum` for an X0 that `initial_second_moment` has normalized."""
    Phi, rho = _lifted_rho(sys, K, q)
    if not _ms_stable(rho):
        raise UnstableError(f"closed loop is not mean-square stable (rho = {rho:.6f})")
    n = sys.n
    v0 = X0.reshape(-1)

    vec_s = np.linalg.solve(np.eye(n * n) - Phi, v0)
    S_solve = symmetrize(vec_s.reshape(n, n))

    # Independent route: partial sums of sum_t Phi^t v0 by binary doubling,
    # acc = sum_{t < 2^k} Phi^t v0 and power = Phi^(2^k) after k doublings.
    acc, power = v0, Phi
    for _ in range(SERIES_MAX_DOUBLINGS):
        block = power @ acc
        acc = acc + block
        if _fro(block) <= SERIES_STOP_RTOL * (1.0 + _fro(acc)):
            break
        power = power @ power
    else:
        raise NumericalFailureError("second-moment series did not converge")
    S_series = acc.reshape(n, n)

    err = _fro(S_series - S_solve)
    if err > SERIES_AGREE_RTOL * (1.0 + _fro(S_solve)):
        raise NumericalFailureError(
            f"second-moment solve and series disagree by {err:.3e}"
        )
    return S_solve


def gap(sys: SystemSpec, q: float, q_hat: float, X0) -> GapReport:
    """Exact optimality gap of the controller designed at q_hat, run at true rate q."""
    gain, sol_hat, W = _design(sys, q_hat)
    return _gap_report(sys, q, gain, sol_hat, W, mare_solve(sys, q), initial_second_moment(X0, sys.n))


def _gap_report(sys: SystemSpec, q: float, gain, sol_hat, W: np.ndarray, sol_true, X0: np.ndarray) -> GapReport:
    """`gap` from the design, its gain weight matrix W, the true-rate Riccati
    solution and the normalized X0."""
    q_hat = gain.q_design
    S = _second_moment_sum(sys, gain, q, X0)  # raises UnstableError if rho >= 1

    gramian_trace = float(np.trace(W @ S))
    x_k_term = (q - q_hat) * gramian_trace
    p_diff_term = float(np.trace((sol_hat.P - sol_true.P) @ X0))
    gap_value = x_k_term + p_diff_term
    j_star = float(np.trace(sol_true.P @ X0))
    return GapReport(
        q=q,
        q_hat=q_hat,
        J_ce=j_star + gap_value,
        J_star=j_star,
        gap=gap_value,
        X_K_term=x_k_term,
        P_diff_term=p_diff_term,
        S=S,
        P_hat=sol_hat.P,
        P_true=sol_true.P,
        X0=X0,
        gramian_trace=gramian_trace,
    )


def gap_bounds(report: GapReport) -> tuple[float, str]:
    """Simple upper bound on the gap from one side of the decomposition.

    For q_hat <= q the Riccati-difference term is nonpositive, so the gap is
    at most (q - q_hat) * tr(W S) (the X_K term itself).  For q_hat > q the
    estimation-error term is nonpositive and the gap is at most
    tr(X0) * lambda_max(P_hat - P).
    """
    if report.q_hat <= report.q:
        return report.X_K_term, BOUND_GRAMIAN_TRACE
    _, lmax = sym_eig_extremes(report.P_hat - report.P_true)
    return float(np.trace(report.X0) * lmax), BOUND_RICCATI_DIFF


def gap_curve(sys: SystemSpec, q: float, X0, q_hat_grid) -> list[GapCurvePoint]:
    """`gap` at each design rate, solving the true rate once and the grid in
    lock-step; unstable designs are flagged, and the first rate without a
    Riccati solution raises the NoSolutionError of `ce_gain`."""
    sol_true = mare_solve(sys, q)
    X0 = initial_second_moment(X0, sys.n)
    q_hats = np.asarray(q_hat_grid, dtype=float).tolist()
    points = []
    for q_hat, sol_hat in zip(q_hats, _mare_solve_rates(sys, q_hats)):
        if isinstance(sol_hat, NoSolutionError):
            raise sol_hat
        gain = Gain(K=_feedback_gain(sys, sol_hat.P), q_design=q_hat)
        try:
            report = _gap_report(sys, q, gain, sol_hat, gain_weight_matrix(sys, sol_hat.P), sol_true, X0)
            points.append(GapCurvePoint(q_hat=q_hat, gap=report.gap, stable=True))
        except UnstableError:
            points.append(GapCurvePoint(q_hat=q_hat, gap=None, stable=False))
    return points
