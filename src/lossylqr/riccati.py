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
value iteration alone, whose step count grows like 1/(q_c - q).  The first
gain of a policy phase must pass the dense spectral-radius test; each later
gain is certified by the Lyapunov solve that evaluates it (Costa, Fragoso &
Marques, Discrete-Time Markov Jump Linear Systems, 2005), and the dense test
decides only where that certificate proves nothing (`_solve_certifies`).

A plant keeps its own results: `SystemSpec` holds read-only matrices and a
private memo, so repeated calls with the same plant and rate return the
same read-only solution.  The memo keeps every standard (q = 0) solution
and the four other rates returned last, with the gain of each that
`ce_gain` was asked for and its gain weight (`stability._design`), and the
threshold-bound evaluators and last certified lifted radius of `stability`.
The estimate, the true rate and q = 0 of one design are each solved once
however many functions ask for them, and the standard solution, which the
sample-complexity bound of each design asks for, outlives the other rates
of designs in between.

One driver runs this iteration, `_lockstep`, and a single rate is a stack
of one: `mare_solve` (hence every design) passes one rate, and
`_mare_solve_rates` a list of rates, which it steps in lock-step on one
(k, n, n) stack.  Each step costs one set of numpy calls for the whole
stack instead of one per rate, a rate leaves the stack where it stops, and
it gets the same bits (P, iteration count, residual, or the error and its
reason) in any stack.  The step formulas (`_gain_solve` with `_mare_step`,
`_mare_step_gain` and `_feedback_gain`, then `_lifted_map` and
`_solve_certifies`) take one matrix or a stack.  One solve
S = (R + B^T X B)^{-1} (A^T X B)^T serves a whole step: the gain weight is
(A^T X B) S and the gain of X is -S, so a Hewer step solves with R + B^T P B
once for its residual and its next gain.  Hewer's iteration has two forms,
picked by the rows due at a policy phase: one row runs the 2-d
`_policy_iteration`, several rows the stacked `_policy_iteration_rates`.
Both are kept because each is the faster on its own workload: the stacked
one on every one-row phase makes the benchmark's `design` pass about 30 %
slower, and the 2-d one on every row makes its `regions` pass about four
times slower (seed 1, one BLAS thread).  The grid
of `region_map`, of the threshold curve and of `gap_curve`, and the probes
of both bisections (`_bisect_rates`: the q_c refinement of
`critical_probability` and `zero_sample_safe_q`), are solved in lock-step.
A bisection solves its midpoints in batches ahead of the steps that take
them: the q_c refinement, whose verdict is feasible or not, a tree of the
next four steps per batch; the safe rate, whose score bound(q) - q is
graded, the path predicted by interpolating its scores, which on a smooth
bound takes two batches.

The lifted map (`_lifted_map`), its verdict (`_ms_stable`), the scalar iff
value, the gain check (`_gain`) and the invertibility test of B
(`_invertible_B`) are kept here once; the solver, the exact oracle in
`stability`, `performance`, the simulator and every grid sweep use them.
`_kron_self` forms X (x) X as one broadcast product, with the single
products of np.kron.  The lifted map, the verdict and the scalar iff value
also take arrays of rates, so `region_map` evaluates a whole column of its
(q, q_hat) grid at once; where it needs only some cells of a column, it
repeats the lifted map's elementwise formula on the Kronecker squares it
formed once, for the same bits.
"""

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidInputError, LossyLqrError, NoSolutionError
from .numerics import StallDetector, _dense_spectral_radius, _fro, _has_cholesky, sym_eig_extremes, symmetrize
from .numerics import _check_rate

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
# Absolute tolerance of the critical-probability bisection, and the number
# of bisection steps whose possible midpoints are solved in one lock-step call.
QC_BISECT_TOL = 1e-6
BISECT_LOOKAHEAD = 4
# A bisection with graded scores solves next every midpoint that it can probe
# while its root lies within BISECT_BAND * tol of the interpolated root.
BISECT_BAND = 4

# Lifted-map entries per stacked array (2 MB of float64), in the lock-step
# stacks of `_mare_solve_rates` and the batched calls of `region_map`'s
# oracle: 3236 maps at n = 3, 26 at n = 10.
LOCKSTEP_ENTRIES = 1 << 18

# A plant's memo (`SystemSpec._memo`) keeps its solutions at q = 0 and the
# _MEMO_SIZE solutions at other rates that `mare_solve` returned last, and
# the plant's constants A (x) A and lambda_min(Q) under these keys.  One
# lock guards every change of any plant's memo, since an insert during the
# eviction's pass over the keys would break it; a lookup needs none.
_MEMO_SIZE = 4
_KRON_A_KEY = ("A(x)A",)
_Q_FLOOR_KEY = ("lambda_min(Q)",)
_memo_lock = threading.Lock()


def _as_2d(M, name: str) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise InvalidInputError(f"{name} must be a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return M


@dataclass(frozen=True, eq=False)
class SystemSpec:
    """Plant and cost data (A, B, Q, R).

    Q and R must be symmetric positive definite.  Stabilizability of (A, B)
    is not checked eagerly; it is certified operationally by `dare_solve`
    converging (a non-stabilizable pair makes the iteration diverge and
    raises NoSolutionError).  The plant keeps read-only copies of its
    matrices and, in a private memo, the results derived from them; a
    pickled or copied plant is checked again and starts with an empty memo.
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
        if n == 0 or m == 0:
            raise DimensionError(f"a plant needs at least one state and one input, got n={n}, m={m}")
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
        for label, M in (("A", A), ("B", B), ("Q", Q), ("R", R)):
            M.flags.writeable = False
            object.__setattr__(self, label, M)
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        return type(self), (self.A, self.B, self.Q, self.R, self.name)

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
    narrows the bracket to QC_BISECT_TOL using the Riccati solver as the
    feasibility test: a rate is feasible when the solver returns, which near
    q_c it does once it has found a mean-square stabilizing gain, and
    infeasible when it diverges, stalls or hits its cap.  One `mare_solve`
    tests the lower end; `_bisect_rates` solves the probes in lock-step.
    """

    lower: float
    upper: float
    exact: float | None
    method: str  # invertible_B | rank_one_B | bracket_only | bisection
    unstable_moduli: tuple[float, ...] = field(default=())


# The step formulas below take one matrix or a (k, n, n) stack, with one rate
# per member as a (k, 1, 1) array.  Stacked matmul, solve, eigvals and
# cholesky round each member exactly as the 2-d call does.


def _gain_solve(sys: SystemSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A^T X B, S) with S = (R + B^T X B)^{-1} (A^T X B)^T: the one solve
    behind the gain weight (A^T X B) S and the feedback gain -S of X."""
    XB = X @ sys.B
    AtXB = sys.A.T @ XB
    return AtXB, np.linalg.solve(sys.R + sys.B.T @ XB, AtXB.mT)


def _mare_step_gain(X: np.ndarray, sys: SystemSpec, one_minus_q) -> tuple[np.ndarray, np.ndarray]:
    """One Riccati step from X and the feedback gain of X, from one solve."""
    AtXB, S = _gain_solve(sys, X)
    step = sys.Q + sys.A.T @ X @ sys.A - one_minus_q * (AtXB @ S)
    return 0.5 * (step + step.mT), -S


def _mare_step(X: np.ndarray, sys: SystemSpec, one_minus_q) -> np.ndarray:
    return _mare_step_gain(X, sys, one_minus_q)[0]


def _feedback_gain(sys: SystemSpec, P: np.ndarray) -> np.ndarray:
    """K = -(R + B^T P B)^{-1} B^T P A, the optimal gain for cost-to-go P."""
    return -_gain_solve(sys, P)[1]


def _gain(sys: SystemSpec, K) -> np.ndarray:
    """The m x n matrix of a Gain or of an array K; raises DimensionError on
    another shape and InvalidInputError on a non-finite entry."""
    K = np.asarray(K.K if isinstance(K, Gain) else K, dtype=float)
    if K.ndim == 0:
        K = K.reshape(1, 1)
    if K.shape != (sys.m, sys.n):
        raise DimensionError(f"gain must be {sys.m}x{sys.n}, got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise InvalidInputError("gain has non-finite entries")
    return K


def _invertible_B(sys: SystemSpec) -> bool:
    """Whether B is square with its smallest singular value above RANK_RTOL
    times its largest: the condition of the closed form for q_c and of the
    invertible-B threshold variant."""
    if sys.m != sys.n:
        return False
    sv = np.linalg.svd(sys.B, compute_uv=False)
    return bool(sv[-1] > RANK_RTOL * sv[0])


def _kron_self(X: np.ndarray) -> np.ndarray:
    """np.kron(X, X): entry (i n + k, j n + l) is X[i, j] X[k, l]."""
    n = X.shape[-1]
    return (X[..., :, None, :, None] * X[..., None, :, None, :]).reshape(X.shape[:-2] + (n * n, n * n))


def _kept(sys: SystemSpec, key: tuple, make):
    """make(), a result of the plant alone, kept in its memo under key."""
    value = sys._memo.get(key)
    if value is None:
        value = make()
        with _memo_lock:
            sys._memo[key] = value
    return value


def _kron_A(sys: SystemSpec) -> np.ndarray:
    """The plant's A (x) A, formed once and kept read-only in its memo."""

    def make():
        AA = _kron_self(sys.A)
        AA.flags.writeable = False
        return AA

    return _kept(sys, _KRON_A_KEY, make)


def _q_floor(sys: SystemSpec) -> np.float64:
    """lambda_min(Q), the floor of `_solve_certifies`, kept in the plant's memo."""
    return _kept(sys, _Q_FLOOR_KEY, lambda: np.linalg.eigvalsh(0.5 * (sys.Q + sys.Q.T))[0])


def _lifted_map(sys: SystemSpec, K: np.ndarray, q, q_AA=None) -> np.ndarray:
    """Lifted second-moment map (1-q) (A+BK)(x)(A+BK) + q A(x)A of the gain K
    at loss rate q.  A (k, m, n) stack of gains or a (k, 1, 1) array of rates
    gives the stack of the k maps.  A loop over gains at fixed rates passes
    q_AA = q * _kron_A(sys), formed once."""
    if q_AA is None:
        q_AA = q * _kron_A(sys)
    return (1.0 - q) * _kron_self(sys.A + sys.B @ K) + q_AA


def _ms_stable(rho):
    """Mean-square verdict on the spectral radius of a lifted map (elementwise on arrays)."""
    return rho < 1.0 - RHO_MARGIN


def _scalar_iff_value(sys: SystemSpec, q, q_hat, k, p):
    """n = m = 1: the design (k, p) at q_hat is mean-square stable at q iff this
    is positive.  Each argument is a float or an array; arrays broadcast, so a
    column of rates q against a row of designs (q_hat, k, p) gives a grid."""
    a, b, r = sys.A[0, 0], sys.B[0, 0], sys.R[0, 0]
    return sys.Q[0, 0] + (1.0 - q) * r * k**2 + (q_hat - q) * a**2 * b**2 * p**2 / (r + b**2 * p)


def _policy_due(it: int) -> bool:
    """Value-iteration steps after which the gain is tested: 1, 2, 4, ..., then every POLICY_CHECK_EVERY."""
    if it < POLICY_CHECK_EVERY:
        return it & (it - 1) == 0
    return it % POLICY_CHECK_EVERY == 0


def _solve_certifies(L: np.ndarray, P: np.ndarray, cost: np.ndarray, q_floor: float):
    """Whether the symmetric solution P of the lifted Lyapunov equation
    (I - L^T) vec P = vec cost, cost >= Q, proves rho(L) < 1 - RHO_MARGIN.

    With the residual E = P - L^T(P) - cost and c = q_floor - ||E||_F, where
    q_floor = lambda_min(Q): L^T(P) <= P - c I <= (1 - c / lambda_max(P)) P
    once P > 0 (Cholesky), and L^T preserves the PSD cone, so rho(L) <=
    1 - c / lambda_max(P).  ||P||_F * RHO_MARGIN < c then gives the dense
    test's inequality.  That comparison is false when P or E has a non-finite
    entry, so the Cholesky test runs only on finite members.  False means not
    proven, not unstable.  Stacks of maps, solutions and costs give one
    verdict per member.
    """
    n = P.shape[-1]
    E = P - (L.mT @ P.reshape(P.shape[:-2] + (n * n, 1))).reshape(P.shape) - cost
    certified = _fro(P) * RHO_MARGIN < q_floor - _fro(E)
    if P.ndim == 2:
        return bool(certified) and _has_cholesky(P)
    if certified.any():
        certified[certified] = _has_cholesky(P[certified])
    return certified


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve over a (k, d, d) stack and a (k, d, 1) or (k, d, d)
    stack of right-hand sides; a singular member gets NaN instead of failing
    the whole stack."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


def _policy_iteration(
    sys: SystemSpec, q: float, X: np.ndarray, q_floor: float
) -> tuple[np.ndarray | None, int, float]:
    """Hewer's policy iteration from the gain of the value iterate X.

    Each step evaluates the current gain exactly, by the n^2-sized lifted
    Lyapunov equation (I - L^T) vec P = vec(Q + (1-q) K^T R K), and then
    improves the gain; the Riccati step that gives the residual of P and the
    next gain share one solve (`_mare_step_gain`), and q A(x)A is formed once
    per call.  The first gain must pass the dense test; each later
    one is certified by its own solve (`_solve_certifies`, q_floor =
    lambda_min(Q)), and by the dense test only when that proves nothing.
    It stops once the update is below STEP_TOL, or keeps the previous P once
    the Riccati residual no longer falls (its rounding floor).  Returns
    (P, steps, residual); P is None when some gain was not mean-square
    stabilizing or P fails the residual gate of `mare_solve`.
    """
    n = sys.n
    eye = np.eye(n * n)
    one_minus_q = 1.0 - q
    q_AA = q * _kron_A(sys)
    K = _feedback_gain(sys, X)
    P, steps, residual = X, 0, np.inf
    while True:
        L = _lifted_map(sys, K, q, q_AA)
        if steps == 0 and not _ms_stable(_dense_spectral_radius(L)):
            return None, steps, residual
        cost = sys.Q + one_minus_q * (K.T @ sys.R @ K)
        try:
            Pn = np.linalg.solve(eye - L.T, cost.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError:  # L has eigenvalue 1: no certificate, the dense test fails
            Pn = np.full((n, n), np.nan)
        Pn = 0.5 * (Pn + Pn.T)
        if steps and not _solve_certifies(L, Pn, cost, q_floor) and not _ms_stable(_dense_spectral_radius(L)):
            return None, steps, residual
        steps += 1
        norm = _fro(Pn)
        step, Kn = _mare_step_gain(Pn, sys, one_minus_q)
        new_residual = _fro(step - Pn) / (1.0 + norm)
        if not new_residual < residual:
            break
        change = _fro(Pn - P) / (1.0 + norm)
        P, K, residual = Pn, Kn, new_residual
        if change <= STEP_TOL:
            break
    return (P if residual <= RESIDUAL_TOL else None), steps, residual


def _diverged(q) -> NoSolutionError:
    return NoSolutionError(
        f"Riccati iterate diverged at q={q:.6g}; no positive definite solution "
        "(loss rate at or above critical, or (A, B) not stabilizable)",
        reason="diverged",
    )


def _stalled(it: int, q) -> NoSolutionError:
    return NoSolutionError(
        f"Riccati iteration stalled at step {it} at q={q:.6g}, short of tolerance "
        "(loss rate at or above critical, or (A, B) not stabilizable)",
        reason="stalled",
    )


def _capped(q) -> NoSolutionError:
    return NoSolutionError(
        f"Riccati iteration cannot reach tolerance within {MAX_ITERATIONS} steps at q={q:.6g} "
        "(loss rate at or above critical, or (A, B) not stabilizable)",
        reason="cap",
    )


def _policy_iteration_rates(
    sys: SystemSpec, q: np.ndarray, one_minus_q: np.ndarray, X: np.ndarray, q_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_policy_iteration` in lock-step from a (p, n, n) stack X of value
    iterates at rates q, given with 1 - q as (p, 1, 1) arrays.  A member whose
    first gain fails the dense test leaves before the loop, and one that stops
    or whose next gain (evaluated at the end of the step) is not certified
    leaves at the end of the step.  Returns (P, steps, residual, solved) with
    one entry per member; P[j] is the solution where solved[j] holds."""
    p, n = X.shape[:2]
    eye = np.eye(n * n)
    out = np.empty_like(X)
    steps = np.zeros(p, dtype=int)
    residual = np.full(p, np.inf)
    solved = np.zeros(p, dtype=bool)

    def evaluate(K, L, one_minus_q):  # cost Q + (1-q) K^T R K and solution P of each gain
        cost = sys.Q + one_minus_q * (K.mT @ sys.R @ K)
        Pn = _solve_each(eye - L.mT, cost.reshape(len(L), n * n, 1)).reshape(len(L), n, n)
        return cost, 0.5 * (Pn + Pn.mT)

    K = _feedback_gain(sys, X)
    q_AA = q * _kron_A(sys)
    L = _lifted_map(sys, K, q, q_AA)
    live = np.flatnonzero(_ms_stable(_dense_spectral_radius(L)))  # member index of each row of P, Pn and q_AA
    if not len(live):
        return out, steps, residual, solved
    P, q_AA = X[live], q_AA[live]
    Pn = evaluate(K[live], L[live], one_minus_q[live])[1]
    while len(live):
        steps[live] += 1
        norm = _fro(Pn)
        step, K = _mare_step_gain(Pn, sys, one_minus_q[live])
        new_residual = _fro(step - Pn) / (1.0 + norm)
        better = new_residual < residual[live]
        stop = ~better
        if better.any():
            change = _fro(Pn[better] - P[better]) / (1.0 + norm[better])
            P[better] = Pn[better]
            residual[live[better]] = new_residual[better]
            stop[better] = change <= STEP_TOL
        leave, leaving = stop, stop.any()
        if not leaving or not stop.all():  # some rows go on: evaluate their next gains (stopped rows ride along)
            L = _lifted_map(sys, K, q[live], q_AA)
            cost, Pn = evaluate(K, L, one_minus_q[live])
            certified = _solve_certifies(L, Pn, cost, q_floor)
            if not certified.all():
                unproven = ~stop & ~certified
                certified[unproven] = _ms_stable(_dense_spectral_radius(L[unproven]))
                leave = stop | ~certified
                leaving = leave.any()
        if leaving:
            done = live[stop]
            out[done] = P[stop]
            solved[done] = residual[done] <= RESIDUAL_TOL
            keep = ~leave
            live, P, Pn, q_AA = live[keep], P[keep], Pn[keep], q_AA[keep]
    return out, steps, residual, solved


def _mare_solve_rates(sys: SystemSpec, qs) -> list:
    """The solve of `mare_solve`, without its memo, at every rate of qs: one
    entry per rate, the RiccatiSolution or the NoSolutionError that
    `mare_solve` gives it, with the same bits (P, iterations, residual, error
    reason and message).

    The rates run in lock-step through `_lockstep`, in stacks of at most
    LOCKSTEP_ENTRIES lifted-map entries, so one call pays numpy's per-call
    overhead once per step for all rates instead of once per rate.  A rate's
    result does not depend on the other rates of its stack.
    """
    qs = list(qs)
    for q in qs:
        _check_rate(q)
    size = max(1, LOCKSTEP_ENTRIES // sys.n**4)
    return [r for i in range(0, len(qs), size) for r in _lockstep(sys, qs[i : i + size])]


def _lockstep(sys: SystemSpec, qs: list) -> list:
    """The Riccati driver: the solve of each valid rate of qs on one (k, n, n)
    stack, one result per rate (see `_mare_solve_rates`); `mare_solve` passes
    a stack of one.

    Value iteration, the policy-test schedule, the residual floor, the stall
    detector and the step cap run once for the whole stack, and each rate
    keeps its own stop decisions.  Every exit but the cap goes through
    `finish`, and the rows it marks leave together at the end of the step.
    A policy phase with one row due runs the 2-d `_policy_iteration` on that
    row's matrix, and one with several rows due runs `_policy_iteration_rates`
    on their stack: the two give a row the same bits, and each is the faster
    on its own workload (the 2-d one on the single rate of every design, the
    stacked one on a grid's rows)."""
    results = [None] * len(qs)
    live = np.arange(len(qs))  # rate index of each row of the stack
    q = np.array(qs, dtype=float).reshape(-1, 1, 1)
    one_minus_q = 1.0 - q
    q_floor = _q_floor(sys)
    X = np.repeat(sys.Q[None], len(qs), axis=0)
    stall = StallDetector()
    changes = np.full(len(qs), np.inf)  # by rate index; finished rates' entries are ignored
    policy_steps = np.zeros(len(qs), dtype=int)

    def finish(j, outcome):
        """Give the rate of stack row j its result; the row leaves at the end of this step."""
        results[live[j]] = outcome
        done[j] = True

    def solution(j, P, residual):
        """The solution of stack row j, found at step `it`."""
        i = live[j]
        return RiccatiSolution(P=P.copy(), q_used=qs[i], iterations=it + int(policy_steps[i]), residual=float(residual))

    for it in range(1, MAX_ITERATIONS + 1):
        if not len(live):
            return results
        Xn = _mare_step(X, sys, one_minus_q)
        norm = _fro(Xn)
        done = ~(norm <= DIVERGENCE_NORM)  # NaN and inf included
        if done.any():
            for j in np.flatnonzero(done):
                finish(j, _diverged(qs[live[j]]))
        rel_change = _fro(Xn - X) / (1.0 + norm)
        X = Xn
        small = (rel_change <= STEP_TOL) & ~done
        if small.any():
            small = np.flatnonzero(small)
            Xs = X[small]
            residual = _fro(_mare_step(Xs, sys, one_minus_q[small]) - Xs) / (1.0 + norm[small])
            for j, r in zip(small, residual):
                if r <= RESIDUAL_TOL:
                    finish(j, solution(j, X[j], r))
        if _policy_due(it):
            todo = np.flatnonzero(~done)
            if len(todo) == 1:
                j = todo[0]
                P, steps, residual = _policy_iteration(sys, float(q[j, 0, 0]), X[j], q_floor)
                policy_steps[live[j]] += steps
                if P is not None:
                    finish(j, solution(j, P, residual))
            elif len(todo):
                P, steps, residual, solved = _policy_iteration_rates(sys, q[todo], one_minus_q[todo], X[todo], q_floor)
                policy_steps[live[todo]] += steps
                for j, Pj, r in zip(todo[solved], P[solved], residual[solved]):
                    finish(j, solution(j, Pj, r))
        changes[live] = rel_change
        stalled = stall.stalled(it, changes)
        if stalled is not False:  # a window ended: one verdict per rate
            for j in np.flatnonzero(stalled[live] & ~done):
                finish(j, _stalled(it, qs[live[j]]))
        if done.any():
            keep = ~done
            live, q, one_minus_q, X = live[keep], q[keep], one_minus_q[keep], X[keep]
    for i in live:
        results[i] = _capped(qs[i])
    return results


def _rate_key(q) -> tuple:
    """The key of rate q in a plant's memo: standard (q = 0) or not, and q
    with its type (each can change the result's bits)."""
    return ("standard" if float(q) == 0.0 else "rate", type(q), float(q).hex())


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
    Iterate blow-up, a stalled iteration (the message gives the step at
    which it stopped) or the iteration cap raises NoSolutionError, with
    `reason` "diverged", "stalled" or "cap", which signals that q is at or
    above the critical probability (no gain is then mean-square stabilizing).
    The solve is the lock-step driver `_lockstep` on a stack of one rate, so
    a rate gets the same bits here as in any grid or bisection.

    The plant's memo keeps every standard (q = 0) solution, which the
    sample-complexity bounds of each design ask for again, and the
    _MEMO_SIZE solutions at other rates returned last, keyed by q with its
    type: the same problem again returns the same object, whose P is
    read-only.  Failures are not kept.
    """
    _check_rate(q)
    key = _rate_key(q)
    with _memo_lock:
        entry = sys._memo.pop(key, None)
    if entry is None:
        (sol,) = _lockstep(sys, [q])
        if isinstance(sol, NoSolutionError):
            raise sol
        sol.P.flags.writeable = False
        entry = [sol, None, None]  # the gain and its weight, once asked for
    with _memo_lock:
        sys._memo[key] = entry
        for k in [k for k in sys._memo if k[0] == "rate"][:-_MEMO_SIZE]:
            del sys._memo[k]
    return entry[0]


def dare_solve(sys: SystemSpec) -> RiccatiSolution:
    """Standard discrete algebraic Riccati equation (lossless channel, q = 0)."""
    return mare_solve(sys, 0.0)


def _bisect_rates(
    sys: SystemSpec, lo: float, hi: float, tol: float, score, graded=None, ahead_max: float = math.inf
) -> tuple[float, float]:
    """Bisect [lo, hi] to width tol.  score(qs, outcomes) gives one score per
    rate of the list qs from its outcome, its RiccatiSolution or
    NoSolutionError; a midpoint becomes lo where its score is positive and hi
    otherwise.

    Midpoints are solved in batches ahead of the steps that take them, one
    `_mare_solve_rates` call per batch (the bits of one `mare_solve` per
    rate), and each batch is scored in one call.  Should that call raise,
    each midpoint taken is scored alone, so only a midpoint taken can raise.
    Every decision is taken from its own midpoint's outcome and score, so
    (lo, hi) is the plain bisection's to the last bit; the batches decide
    only how many lock-step calls that takes.

    A batch holds every midpoint that the next BISECT_LOOKAHEAD steps can
    probe.  When the scores are graded (one root, positive below it), the
    caller passes `graded`, a dict of scores known in advance by rate, which
    gains each batch's finite scores.  Where the quadratic through the three
    of them nearest [lo, hi] has its one zero r in [lo, hi] (interpolation
    guiding a bisection, as in Brent, *Algorithms for Minimization without
    Derivatives*, 1973), the next batch holds instead every midpoint that
    the bisection can probe, all the way to width tol, while the root lies
    within BISECT_BAND * tol of r.

    A batch holds no midpoint above `ahead_max` but the one the bisection
    takes next: a caller that knows the rates above it to be slow to solve,
    or infeasible, has each such midpoint solved only when it is taken.
    """
    known = None if graded is None else dict(graded)
    outcomes, scores = {}, {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in outcomes:
            r = None if known is None else _interpolated_root(known, lo, hi)
            if r is None:
                probes = _bisection_midpoints(lo, hi, tol, BISECT_LOOKAHEAD)
            else:
                w = BISECT_BAND * tol
                probes = _bisection_midpoints(lo, hi, tol, math.inf, (r - w, r + w))
            probes = [p for p in probes if p <= ahead_max or p == mid]
            outcomes = dict(zip(probes, _mare_solve_rates(sys, probes)))
            try:
                scores = dict(zip(probes, score(probes, list(outcomes.values()))))
            except (LossyLqrError, np.linalg.LinAlgError):
                scores = {}
            if known is not None:
                known.update((q, v) for q, v in scores.items() if math.isfinite(v))
        s = scores[mid] if mid in scores else score([mid], [outcomes[mid]])[0]
        if s > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _interpolated_root(known: dict, lo: float, hi: float) -> float | None:
    """The zero in [lo, hi] of the quadratic through the three (rate, score)
    points of `known` nearest [lo, hi], if it has exactly one there."""
    if len(known) < 3:
        return None
    (x0, y0), (x1, y1), (x2, y2) = sorted(known.items(), key=lambda item: max(lo - item[0], item[0] - hi))[:3]
    d01 = (y1 - y0) / (x1 - x0)
    a = ((y2 - y1) / (x2 - x1) - d01) / (x2 - x0)
    # y0 + d01 (x - x0) + a (x - x0) (x - x1) = a t^2 + b t + y0 with t = x - x0
    b = d01 - a * (x1 - x0)
    disc = b * b - 4.0 * a * y0
    if a == 0.0:
        ts = [-y0 / b] if b != 0.0 else []
    elif disc < 0.0:
        ts = []
    else:  # the two roots without cancellation
        half = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        ts = [half / a, y0 / half] if half != 0.0 else [0.0]
    inside = [x0 + t for t in ts if lo <= x0 + t <= hi]
    return inside[0] if len(inside) == 1 else None


def _bisection_midpoints(lo: float, hi: float, tol: float, levels, band=(-math.inf, math.inf)) -> list[float]:
    """Every midpoint that the next `levels` steps of `_bisect_rates` on
    [lo, hi] can probe while the root lies in `band` (a midpoint becomes lo
    only below the root), computed as the bisection computes it."""
    if levels == 0 or not hi - lo > tol:
        return []
    mid = 0.5 * (lo + hi)
    below = _bisection_midpoints(lo, mid, tol, levels - 1, band) if mid >= band[0] else []
    above = _bisection_midpoints(mid, hi, tol, levels - 1, band) if mid < band[1] else []
    return [mid, *below, *above]


def critical_probability(sys: SystemSpec, refine: bool = True) -> CriticalProbability:
    """Critical loss probability of (A, B).

    Closed forms: 1/max|lam_u(A)|^2 for invertible B, 1/prod|lam_u(A)|^2 for
    rank-one B, where lam_u ranges over eigenvalues of A with modulus above 1.
    Otherwise the product/max expressions bracket q_c; with refine=True the
    bracket is narrowed by bisection on solver feasibility (see
    `CriticalProbability`), whose probes, a list of rates, are solved in
    lock-step by `_bisect_rates`; the lower end alone is one `mare_solve`.
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

    if _invertible_B(sys):
        return CriticalProbability(upper, upper, upper, "invertible_B", unstable_t)
    sv = np.linalg.svd(sys.B, compute_uv=False)
    if np.sum(sv > RANK_RTOL * sv[0]) == 1:
        return CriticalProbability(lower, lower, lower, "rank_one_B", unstable_t)
    if unstable.size == 0:
        return CriticalProbability(1.0, 1.0, 1.0, "bracket_only", unstable_t)
    if not refine or upper - lower <= QC_BISECT_TOL:
        return CriticalProbability(lower, upper, None, "bracket_only", unstable_t)

    try:
        mare_solve(sys, lower)
    except NoSolutionError:
        # q_c sits at the bracket's lower end (within solver accuracy).
        return CriticalProbability(lower, lower, None, "bisection", unstable_t)

    def feasible(qs: list, outcomes: list) -> list[float]:
        return [1.0 if isinstance(sol, RiccatiSolution) else -1.0 for sol in outcomes]

    lo, hi = _bisect_rates(sys, lower, upper, QC_BISECT_TOL, feasible)
    return CriticalProbability(lo, hi, None, "bisection", unstable_t)


def ce_gain(sys: SystemSpec, q_hat: float) -> tuple[Gain, RiccatiSolution]:
    """Certainty-equivalence optimal gain designed as if q_hat were the true loss rate.

    The gain is kept with its solution in the plant's memo (see
    `mare_solve`), so the three calls of one design solve for it once.  Each
    call gets its own writable copy, with the bytes and C layout of the
    first."""
    sol = mare_solve(sys, q_hat)
    entry = sys._memo.get(_rate_key(q_hat)) or [sol, None, None]
    K = entry[1]
    if K is None:
        K = _feedback_gain(sys, sol.P)
        K.flags.writeable = False
        entry[1] = K
    return Gain(K=K.copy(), q_design=q_hat), sol


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
