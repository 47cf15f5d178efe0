"""Modified and standard discrete algebraic Riccati equations, critical loss
probability, certainty-equivalence gain synthesis, and optimal cost.

The plant is x_{t+1} = A x_t + lam_t B u_t with i.i.d. Bernoulli lam_t
(drop probability q).  The optimal infinite-horizon controller for a known q
is u_t = K x_t with K = -(R + B^T P B)^{-1} B^T P A, where P solves the
modified Riccati equation

    P = Q + A^T P A - (1 - q) A^T P B (R + B^T P B)^{-1} B^T P A.

A positive definite solution exists iff q is below a critical probability
q_c that depends on the unstable eigenvalues of A, i.e. iff some gain K is
mean-square stabilizing at q: the lifted second-moment map
(1-q) (A+BK)(x)(A+BK) + q A(x)A has spectral radius below one.

`mare_solve` runs value iteration from X = Q until the gain of its iterate
is mean-square stabilizing, which certifies that q is feasible, and then
Hewer's policy iteration (IEEE TAC 1971), which converges quadratically
from any stabilizing gain.  Close to q_c this takes far fewer steps than
value iteration alone, whose step count grows like 1/(q_c - q).

The lifted map (`_lifted_pairs`, `_lifted_at`), its verdict (`_ms_stable`)
and the scalar iff value are kept here once; the solver, the exact oracle in
`stability`, `performance` and every grid sweep evaluate these kernels.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInputError, NoSolutionError
from .numerics import StallDetector, _dense_spectral_radius, sym_eig_extremes, symmetrize

# Fixed-point iteration controls for the (modified) Riccati equation.
MAX_ITERATIONS = 10**5
RESIDUAL_TOL = 1e-10
STEP_TOL = 1e-12
DIVERGENCE_NORM = 1e12
# A gain is mean-square stabilizing when rho of its lifted map is below
# 1 - RHO_MARGIN (the exact oracle in `stability` uses the same margin);
# value iteration tests its gain after steps 1, 2, 4, ... and then every
# POLICY_CHECK_EVERY steps.
RHO_MARGIN = 1e-9
POLICY_CHECK_EVERY = 256

# Eigenvalues of A with modulus above this count as unstable.
UNSTABLE_MODULUS = 1.0 + 1e-9
# Relative singular-value threshold for rank decisions on B.
RANK_RTOL = 1e-10
# Absolute tolerance of the critical-probability bisection.
QC_BISECT_TOL = 1e-6


def _as_2d(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise InvalidInputError(f"{name} must be a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return M


@dataclass(frozen=True)
class SystemSpec:
    """Plant and cost data (A, B, Q, R).

    Q and R must be symmetric positive definite.  Stabilizability of (A, B)
    is not checked eagerly; it is certified operationally by `dare_solve`
    converging (a non-stabilizable pair makes the iteration diverge and
    raises NoSolutionError).
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    name: str = ""

    def __post_init__(self):
        A = _as_2d(self.A, "A")
        B = _as_2d(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        if B.shape[0] != n:
            raise DimensionError(f"B has {B.shape[0]} rows, expected {n}")
        m = B.shape[1]
        Q = symmetrize(_as_2d(self.Q, "Q"))
        R = symmetrize(_as_2d(self.R, "R"))
        if Q.shape != (n, n):
            raise DimensionError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (m, m):
            raise DimensionError(f"R must be {m}x{m}, got {R.shape}")
        for label, M in (("Q", Q), ("R", R)):
            lmin, _ = sym_eig_extremes(M)
            if lmin <= 0.0:
                raise InvalidInputError(f"{label} must be positive definite (lambda_min={lmin:.3e})")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def is_scalar(self) -> bool:
        return self.n == 1 and self.m == 1


@dataclass(frozen=True)
class RiccatiSolution:
    """Positive definite Riccati fixed point with solver diagnostics.

    `iterations` counts value-iteration steps plus policy-iteration steps
    (one lifted Lyapunov solve each, including those of abandoned policy
    phases); `residual` is the relative Frobenius residual of one Riccati
    step at P.
    """

    P: np.ndarray
    q_used: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class Gain:
    """State-feedback gain and the loss-rate estimate it was designed for."""

    K: np.ndarray
    q_design: float


@dataclass(frozen=True)
class CriticalProbability:
    """Critical loss probability q_c, exact or bracketed.

    `exact` is set when a closed form applies (invertible or rank-one B) or
    when A is Schur stable (then q_c imposes no constraint and is reported
    as 1 by convention).  Otherwise `lower`/`upper` bracket q_c; `bisection`
    narrows the bracket to QC_BISECT_TOL using `mare_solve` as the
    feasibility test: a rate is feasible when the solver returns, which near
    q_c it does once it has found a mean-square stabilizing gain, and
    infeasible when it diverges, stalls or hits its cap.
    """

    lower: float
    upper: float
    exact: float | None
    method: str  # invertible_B | rank_one_B | bracket_only | bisection
    unstable_moduli: tuple[float, ...] = field(default=())


def _gain_weight(sys: SystemSpec, X: np.ndarray) -> np.ndarray:
    """A^T X B (R + B^T X B)^{-1} B^T X A, unsymmetrized."""
    XB = X @ sys.B
    AtXB = sys.A.T @ XB
    return AtXB @ np.linalg.solve(sys.R + sys.B.T @ XB, AtXB.T)


def _mare_step(X: np.ndarray, sys: SystemSpec, one_minus_q: float) -> np.ndarray:
    step = sys.Q + sys.A.T @ X @ sys.A - one_minus_q * _gain_weight(sys, X)
    return 0.5 * (step + step.T)


def _feedback_gain(sys: SystemSpec, P: np.ndarray) -> np.ndarray:
    """K = -(R + B^T P B)^{-1} B^T P A, the optimal gain for cost-to-go P."""
    PB = P @ sys.B
    return -np.linalg.solve(sys.R + sys.B.T @ PB, PB.T @ sys.A)


def _lifted_pairs(sys: SystemSpec, gains):
    """Yield (M(x)M, A(x)A) with M = A + BK for each gain K, building A(x)A once."""
    kron_A = np.kron(sys.A, sys.A)
    for K in gains:
        M = sys.A + sys.B @ K
        yield np.kron(M, M), kron_A


def _lifted_at(pair: tuple[np.ndarray, np.ndarray], q: float) -> np.ndarray:
    """Lifted second-moment map (1-q) M(x)M + q A(x)A of a pair at loss rate q."""
    kron_M, kron_A = pair
    return (1.0 - q) * kron_M + q * kron_A


def _ms_stable(rho: float) -> bool:
    """Mean-square verdict on the spectral radius of a lifted map."""
    return rho < 1.0 - RHO_MARGIN


def _scalar_iff_value(sys: SystemSpec, q: float, q_hat: float, k: float, p: float) -> float:
    """n = m = 1: the design (k, p) at q_hat is mean-square stable at q iff this is positive."""
    a, b, r = sys.A[0, 0], sys.B[0, 0], sys.R[0, 0]
    return sys.Q[0, 0] + (1.0 - q) * r * k**2 + (q_hat - q) * a**2 * b**2 * p**2 / (r + b**2 * p)


def _policy_due(it: int) -> bool:
    """Value-iteration steps after which the gain is tested: 1, 2, 4, ..., then every POLICY_CHECK_EVERY."""
    if it < POLICY_CHECK_EVERY:
        return it & (it - 1) == 0
    return it % POLICY_CHECK_EVERY == 0


def _policy_iteration(sys: SystemSpec, q: float, X: np.ndarray) -> tuple[np.ndarray | None, int, float]:
    """Hewer's policy iteration from the gain of the value iterate X.

    Each step evaluates the current gain exactly, by the n^2-sized lifted
    Lyapunov equation (I - L^T) vec P = vec(Q + (1-q) K^T R K), and then
    improves the gain.  It stops once the update is below STEP_TOL, or keeps
    the previous P once the Riccati residual no longer falls (its rounding
    floor).  Returns (P, steps, residual); P is None when some gain was not
    mean-square stabilizing or P fails the residual gate of `mare_solve`.
    """
    n = sys.n
    eye = np.eye(n * n)
    K = _feedback_gain(sys, X)
    P, steps, residual = X, 0, np.inf
    while True:
        L = _lifted_at(next(_lifted_pairs(sys, [K])), q)
        if not _ms_stable(_dense_spectral_radius(L)):
            return None, steps, residual
        cost = sys.Q + (1.0 - q) * (K.T @ sys.R @ K)
        Pn = np.linalg.solve(eye - L.T, cost.reshape(-1)).reshape(n, n)
        Pn = 0.5 * (Pn + Pn.T)
        steps += 1
        norm = np.linalg.norm(Pn)
        new_residual = float(np.linalg.norm(_mare_step(Pn, sys, 1.0 - q) - Pn) / (1.0 + norm))
        if not new_residual < residual:
            break
        change = np.linalg.norm(Pn - P) / (1.0 + norm)
        P, residual = Pn, new_residual
        if change <= STEP_TOL:
            break
        K = _feedback_gain(sys, P)
    return (P if residual <= RESIDUAL_TOL else None), steps, residual


def mare_solve(sys: SystemSpec, q: float) -> RiccatiSolution:
    """Solve the modified Riccati equation for loss rate q.

    Value iteration starts from X = Q.  After steps 1, 2, 4, ... and then
    every POLICY_CHECK_EVERY steps, the gain of the current iterate is tested
    for mean-square stability at q (dense spectral radius of its lifted map
    below 1 - RHO_MARGIN).  A stabilizing gain certifies that q is
    feasible and starts Hewer's policy iteration, which converges
    quadratically.  Its result is returned only when the relative Frobenius
    residual of one Riccati step is below RESIDUAL_TOL; otherwise value
    iteration resumes where it left off, and returns once its own change is
    below STEP_TOL and its residual below RESIDUAL_TOL.
    Iterate blow-up, a stalled iteration or the iteration cap raises
    NoSolutionError, which signals that q is at or above the critical
    probability (no gain is then mean-square stabilizing).
    """
    if not 0.0 <= q < 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1), got {q}")
    one_minus_q = 1.0 - q
    X = sys.Q.copy()
    stall = StallDetector()
    policy_steps = 0
    for it in range(1, MAX_ITERATIONS + 1):
        Xn = _mare_step(X, sys, one_minus_q)
        norm = np.linalg.norm(Xn)
        if not np.isfinite(norm) or norm > DIVERGENCE_NORM:
            raise NoSolutionError(
                f"Riccati iterate diverged at q={q:.6g}; no positive definite solution "
                "(loss rate at or above critical, or (A, B) not stabilizable)"
            )
        rel_change = np.linalg.norm(Xn - X) / (1.0 + norm)
        X = Xn
        if rel_change <= STEP_TOL:
            residual = np.linalg.norm(_mare_step(X, sys, one_minus_q) - X) / (1.0 + norm)
            if residual <= RESIDUAL_TOL:
                return RiccatiSolution(P=X, q_used=q, iterations=it + policy_steps, residual=float(residual))
        if _policy_due(it):
            P, steps, residual = _policy_iteration(sys, q, X)
            policy_steps += steps
            if P is not None:
                return RiccatiSolution(P=P, q_used=q, iterations=it + policy_steps, residual=residual)
        if stall.stalled(it, rel_change):
            break
    raise NoSolutionError(
        f"Riccati iteration cannot reach tolerance within {MAX_ITERATIONS} steps at q={q:.6g} "
        "(loss rate at or above critical, or (A, B) not stabilizable)"
    )


def dare_solve(sys: SystemSpec) -> RiccatiSolution:
    """Standard discrete algebraic Riccati equation (lossless channel, q = 0)."""
    return mare_solve(sys, 0.0)


def _mare_feasible(sys: SystemSpec, q: float) -> bool:
    try:
        mare_solve(sys, q)
        return True
    except NoSolutionError:
        return False


def critical_probability(sys: SystemSpec, refine: bool = True) -> CriticalProbability:
    """Critical loss probability of (A, B).

    Closed forms: 1/max|lam_u(A)|^2 for invertible B, 1/prod|lam_u(A)|^2 for
    rank-one B, where lam_u ranges over eigenvalues of A with modulus above 1.
    Otherwise the product/max expressions bracket q_c; with refine=True the
    bracket is narrowed by bisection on solver feasibility (see
    `CriticalProbability`).
    """
    eigs = np.linalg.eigvals(sys.A)
    unstable = np.abs(eigs[np.abs(eigs) > UNSTABLE_MODULUS])
    unstable_t = tuple(sorted(float(u) for u in unstable))

    if unstable.size == 0:
        prod_sq = 1.0
        max_sq = 1.0
    else:
        prod_sq = float(np.prod(unstable**2))
        max_sq = float(np.max(unstable) ** 2)
    lower = min(1.0, 1.0 / prod_sq)
    upper = min(1.0, 1.0 / max_sq)

    sv = np.linalg.svd(sys.B, compute_uv=False)
    b_invertible = sys.B.shape[0] == sys.B.shape[1] and sv[-1] > RANK_RTOL * sv[0]
    b_rank = int(np.sum(sv > RANK_RTOL * sv[0]))

    if b_invertible:
        return CriticalProbability(upper, upper, upper, "invertible_B", unstable_t)
    if b_rank == 1:
        return CriticalProbability(lower, lower, lower, "rank_one_B", unstable_t)
    if unstable.size == 0:
        return CriticalProbability(1.0, 1.0, 1.0, "bracket_only", unstable_t)
    if not refine or upper - lower <= QC_BISECT_TOL:
        return CriticalProbability(lower, upper, None, "bracket_only", unstable_t)

    lo, hi = lower, upper
    if not _mare_feasible(sys, lo):
        # q_c sits at the bracket's lower end (within solver accuracy).
        return CriticalProbability(lo, lo, None, "bisection", unstable_t)
    while hi - lo > QC_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _mare_feasible(sys, mid):
            lo = mid
        else:
            hi = mid
    return CriticalProbability(lo, hi, None, "bisection", unstable_t)


def ce_gain(sys: SystemSpec, q_hat: float) -> tuple[Gain, RiccatiSolution]:
    """Certainty-equivalence optimal gain designed as if q_hat were the true loss rate."""
    sol = mare_solve(sys, q_hat)
    return Gain(K=_feedback_gain(sys, sol.P), q_design=q_hat), sol


def optimal_cost(P, X0) -> float:
    """Expected optimal cost tr(P X0) for initial second moment X0 = E[x0 x0^T]."""
    P = symmetrize(P)
    X0 = symmetrize(X0)
    if P.shape != X0.shape:
        raise DimensionError(f"P is {P.shape} but X0 is {X0.shape}")
    lmin_p, lmax_p = sym_eig_extremes(P)
    if lmin_p <= 0.0:
        raise InvalidInputError(f"P must be positive definite (lambda_min={lmin_p:.3e})")
    lmin_x, lmax_x = sym_eig_extremes(X0)
    if lmin_x < -1e-10 * (1.0 + lmax_x):
        raise InvalidInputError(f"X0 must be positive semi-definite (lambda_min={lmin_x:.3e})")
    return max(0.0, float(np.trace(P @ X0)))
