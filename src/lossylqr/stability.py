"""Mean-square stability tests for the certainty-equivalence controller.

Three layers of certification are provided, from cheapest to sharpest:

* a Lyapunov-type sufficient condition for n-dimensional systems (positive
  definiteness of a condition matrix in the true rate q and the design rate
  q_hat), which is necessary and sufficient in the scalar case;
* explicit lower bounds on the stability threshold, i.e. the largest
  estimation error q - q_hat below which the controller provably stabilizes
  (a general bound plus sharper variants for scalar systems and systems with
  invertible input matrix);
* the exact oracle: the closed-loop second-moment map is linear, and the
  controller stabilizes in mean square iff the spectral radius of its
  n^2 x n^2 lifting is below one.

The lifted map, its verdict and the scalar iff value are the private kernels
of `riccati`, shared with the Riccati solver.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NoSolutionError
from .numerics import _dense_spectral_radius, psd_sqrt, spectral_radius, sym_eig_extremes, symmetrize
from .riccati import (
    RHO_MARGIN,
    CriticalProbability,
    Gain,
    SystemSpec,
    _feedback_gain,
    _gain_weight,
    _lifted_at,
    _lifted_pairs,
    _ms_stable,
    _scalar_iff_value,
    ce_gain,
    critical_probability,
    dare_solve,
    mare_solve,
)

VARIANT_GENERAL = "general"
VARIANT_SCALAR = "scalar"
VARIANT_INVERTIBLE_B = "invertible_B"
THRESHOLD_VARIANTS = (VARIANT_GENERAL, VARIANT_SCALAR, VARIANT_INVERTIBLE_B)

# Strict matrix inequalities "M > 0" are decided as lambda_min > this margin.
STRICT_MARGIN = 1e-9
# Absolute tolerance of the zero-sample safe-rate bisection.
SAFE_Q_BISECT_TOL = 1e-6

CELL_BLUE = 0
CELL_RED = 1
CELL_GRAY = 2
CELL_LABELS = {
    CELL_BLUE: "blue_stabilizing",
    CELL_RED: "red_unstable",
    CELL_GRAY: "gray_undecided",
}


@dataclass(frozen=True)
class StabilityVerdict:
    criterion: str  # scalar_iff | lyapunov_sufficient | exact_lifted
    certificate: float
    stable: bool
    margin_note: str


@dataclass(frozen=True)
class ThresholdReport:
    """Lower bound on the stability threshold at a fixed true loss rate."""

    variant: str
    bound: float
    constituents: dict[str, float]


@dataclass(frozen=True)
class RegionMap:
    """Classification of the (q, q_hat) square below the critical probability.

    cells[i, j] classifies (q_grid[i], q_hat_grid[j]): blue when the chosen
    sufficient test certifies stability, red when the exact lifted oracle
    reports instability, gray otherwise.  exact_stable[i, j] records the
    oracle verdict for every cell.
    """

    q_grid: np.ndarray
    q_hat_grid: np.ndarray
    cells: np.ndarray  # int8, CELL_* codes
    exact_stable: np.ndarray  # bool
    variant: str
    step: float

    def rows(self):
        """Yield (q, q_hat, label) for every cell, row-major."""
        for i, q in enumerate(self.q_grid):
            for j, qh in enumerate(self.q_hat_grid):
                yield float(q), float(qh), CELL_LABELS[int(self.cells[i, j])]

    def counts(self) -> dict[str, int]:
        return {
            label: int(np.sum(self.cells == code)) for code, label in CELL_LABELS.items()
        }


def _strict_margin(sys: SystemSpec) -> float:
    return float(STRICT_MARGIN * (1.0 + np.linalg.norm(sys.Q)))


def _gain_matrix(K) -> np.ndarray:
    if isinstance(K, Gain):
        return K.K
    K = np.asarray(K, dtype=float)
    if K.ndim == 0:
        K = K.reshape(1, 1)
    return K


def gain_weight_matrix(sys: SystemSpec, P: np.ndarray) -> np.ndarray:
    """A^T P B (R + B^T P B)^{-1} B^T P A, the weight on the estimation error."""
    W = _gain_weight(sys, P)
    return 0.5 * (W + W.T)


def condition_matrix(sys: SystemSpec, q: float, q_hat: float) -> np.ndarray:
    """Sufficient-condition matrix Q + (1-q) K^T R K - (q - q_hat) W.

    Positive definiteness certifies mean-square stability of the controller
    designed at q_hat and run at the true rate q.  W is the gain weight
    matrix computed from the design Riccati solution.
    """
    gain, sol = ce_gain(sys, q_hat)
    if not 0.0 <= q < 1.0:
        raise InvalidInputError(f"true loss rate must lie in [0, 1), got {q}")
    C = sys.Q + (1.0 - q) * (gain.K.T @ sys.R @ gain.K) - (q - q_hat) * gain_weight_matrix(sys, sol.P)
    return symmetrize(C)


def lyapunov_sufficient_stable(sys: SystemSpec, q: float, q_hat: float) -> StabilityVerdict:
    """Sufficient test: stable when the condition matrix is positive definite."""
    lmin, _ = sym_eig_extremes(condition_matrix(sys, q, q_hat))
    margin = _strict_margin(sys)
    return StabilityVerdict(
        criterion="lyapunov_sufficient",
        certificate=lmin,
        stable=bool(lmin > margin),
        margin_note=f"lambda_min compared against strict margin {margin:.3e}",
    )


def scalar_iff_stable(sys: SystemSpec, q: float, q_hat: float) -> StabilityVerdict:
    """Necessary and sufficient scalar test.

    For n = m = 1 the controller designed at q_hat stabilizes at true rate q
    iff  Q + (1-q) R K^2 + (q_hat - q) (R + B^2 P)^{-1} A^2 B^2 P^2 > 0,
    with P the design Riccati solution.
    """
    if not sys.is_scalar:
        raise DimensionError("the iff test applies to scalar systems only")
    if not 0.0 <= q < 1.0:
        raise InvalidInputError(f"true loss rate must lie in [0, 1), got {q}")
    gain, sol = ce_gain(sys, q_hat)
    value = _scalar_iff_value(sys, q, q_hat, gain.K[0, 0], sol.P[0, 0])
    margin = _strict_margin(sys)
    return StabilityVerdict(
        criterion="scalar_iff",
        certificate=float(value),
        stable=bool(value > margin),
        margin_note=f"condition value compared against strict margin {margin:.3e}",
    )


def lifted_matrix(sys: SystemSpec, K, q: float) -> np.ndarray:
    """n^2 x n^2 lifting of the closed-loop second-moment recursion.

    Phi = (1-q) (A+BK) (x) (A+BK) + q A (x) A, computed in this affine form by
    the kernel that the Riccati solver and `region_map` also evaluate, and
    vec(E[x_{t+1} x_{t+1}^T]) = Phi vec(E[x_t x_t^T]).
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1], got {q}")
    K = _gain_matrix(K)
    if K.shape != (sys.m, sys.n):
        raise DimensionError(f"gain must be {sys.m}x{sys.n}, got {K.shape}")
    return _lifted_at(next(_lifted_pairs(sys, [K])), q)


def exact_ms_stable(sys: SystemSpec, K, q: float) -> StabilityVerdict:
    """Exact oracle: mean-square stable iff rho(Phi) < 1."""
    rho = spectral_radius(lifted_matrix(sys, K, q))
    return StabilityVerdict(
        criterion="exact_lifted",
        certificate=rho,
        stable=_ms_stable(rho),
        margin_note=f"spectral radius compared against 1 - {RHO_MARGIN:.0e}",
    )


def _qc_clamp(cp: CriticalProbability) -> float:
    return cp.exact if cp.exact is not None else cp.upper


def _congruence_max_eig(S_root: np.ndarray, M: np.ndarray) -> float:
    """lambda_max of S_root^{-1} M S_root^{-1} for symmetric PD S_root."""
    half = np.linalg.solve(S_root, M)
    T = np.linalg.solve(S_root, half.T).T
    _, lmax = sym_eig_extremes(0.5 * (T + T.T))
    return lmax


def st_lower_bound(sys: SystemSpec, q: float, variant: str) -> ThresholdReport:
    """Explicit lower bound on the stability threshold at true loss rate q.

    Every q_hat with 0 <= q - q_hat < bound yields a provably stabilizing
    controller.  Variants:

    * "general":      lambda_min{Q^(1/2) (A^T P^2 A)^{-1} Q^(1/2)} / c1 with
                      c1 = lambda_max(B B^T) / lambda_min(R + B^T P0 B);
    * "scalar":       Q (R + B^2 P) / (A^2 B^2 P^2) + (1-q) R / (R + B^2 P);
    * "invertible_B": lambda_min{Xi (A^T P A)^{-1} Xi} with
                      Xi = (Q + (1-q) c2 A^T P0^2 A)^(1/2) and
                      c2 = lambda_min(R) lambda_min(B B^T) / lambda_max(R + B^T P B)^2.

    P solves the modified Riccati equation at q, P0 the standard one.  The
    middle factors are evaluated in congruence form (1 / lambda_max of the
    inverse-transformed matrix), which is algebraically identical when the
    inverses exist and remains defined when A is singular; a vanishing
    transformed matrix means the formula imposes no constraint and the bound
    is clamped at the critical probability.  Reported bounds are capped at
    the critical probability, the width of the admissible square.
    """
    _check_threshold_variant(sys, variant)
    P = mare_solve(sys, q).P
    qc = _qc_clamp(critical_probability(sys, refine=False))
    P0 = None if variant == VARIANT_SCALAR else dare_solve(sys).P
    return _threshold_bound(sys, q, variant, P, P0, qc)


def _check_threshold_variant(sys: SystemSpec, variant: str) -> None:
    if variant not in THRESHOLD_VARIANTS:
        raise InvalidInputError(f"unknown threshold variant {variant!r}")
    if variant == VARIANT_SCALAR and not sys.is_scalar:
        raise DimensionError("the scalar threshold variant requires n = m = 1")
    if variant == VARIANT_INVERTIBLE_B:
        if sys.B.shape[0] != sys.B.shape[1]:
            raise DimensionError("the invertible-B threshold variant requires a square B")
        sv = np.linalg.svd(sys.B, compute_uv=False)
        if sv[-1] <= 1e-10 * sv[0]:
            raise DimensionError("the invertible-B threshold variant requires a well-conditioned B")


def _threshold_bound(
    sys: SystemSpec, q: float, variant: str, P: np.ndarray, P0: np.ndarray | None, qc: float
) -> ThresholdReport:
    """`st_lower_bound` from the modified Riccati solution P at q, the standard
    one P0 (unused by the scalar variant) and the clamp qc."""
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R

    if variant == VARIANT_SCALAR:
        a, b, qq, r, p = A[0, 0], B[0, 0], Q[0, 0], R[0, 0], P[0, 0]
        denom = a**2 * b**2 * p**2
        if denom <= 0.0:
            return ThresholdReport(variant, qc, {"clamped_to_qc": 1.0})
        first = qq * (r + b**2 * p) / denom
        second = (1.0 - q) * r / (r + b**2 * p)
        bound = min(first + second, qc)
        return ThresholdReport(
            variant, float(bound), {"first_term": float(first), "second_term": float(second)}
        )

    if variant == VARIANT_GENERAL:
        _, lmax_bbt = sym_eig_extremes(B @ B.T)
        lmin_rp0, _ = sym_eig_extremes(R + B.T @ P0 @ B)
        c1 = lmax_bbt / lmin_rp0
        M = symmetrize(A.T @ P @ P @ A)
        lam = _congruence_max_eig(psd_sqrt(Q), M)
        if lam <= 0.0:
            return ThresholdReport(variant, qc, {"c1": float(c1), "clamped_to_qc": 1.0})
        lam_min_term = 1.0 / lam
        bound = min(lam_min_term / c1, qc)
        return ThresholdReport(
            variant,
            float(bound),
            {"c1": float(c1), "lambda_min_term": float(lam_min_term)},
        )

    # invertible_B
    lmin_r, _ = sym_eig_extremes(R)
    lmin_bbt, _ = sym_eig_extremes(B @ B.T)
    _, lmax_rpb = sym_eig_extremes(R + B.T @ P @ B)
    c2 = lmin_r * lmin_bbt / lmax_rpb**2
    Xi = psd_sqrt(Q + (1.0 - q) * c2 * symmetrize(A.T @ P0 @ P0 @ A))
    M = symmetrize(A.T @ P @ A)
    lam = _congruence_max_eig(Xi, M)
    if lam <= 0.0:
        return ThresholdReport(variant, qc, {"c2": float(c2), "clamped_to_qc": 1.0})
    bound = min(1.0 / lam, qc)
    return ThresholdReport(
        variant, float(bound), {"c2": float(c2), "lambda_min_term": float(1.0 / lam)}
    )


def _threshold_curve(sys: SystemSpec, variant: str, q_min: float, q_max: float | None, step: float):
    """Yield (q, st_lower_bound(sys, q, variant)) on the grid [q_min, q_max or q_c)
    up to the first rate without a Riccati solution, solving once per row; q_c
    and the standard solution (the q = 0 row's, if any) are found once."""
    _check_threshold_variant(sys, variant)
    qc = _qc_clamp(critical_probability(sys, refine=False))
    P0 = None
    for q in np.arange(q_min, qc if q_max is None else q_max, step).tolist():
        try:
            P = mare_solve(sys, q).P
            if P0 is None:
                P0 = P if q == 0.0 else dare_solve(sys).P
        except NoSolutionError:
            return
        yield q, _threshold_bound(sys, q, variant, P, P0, qc)


def zero_sample_safe_q(sys: SystemSpec, variant: str) -> float:
    """Largest loss rate below which the controller stabilizes for every design rate.

    Solves the fixed point q* = st_lower_bound(sys, q*, variant) by bisection;
    for q < q* the certainty-equivalence controller is stabilizing for any
    q_hat in [0, q_c), i.e. even with zero channel samples.  Returns 0 (with a
    warning) when the threshold bound sits below q already at q = 0.
    """
    _check_threshold_variant(sys, variant)
    qc = _qc_clamp(critical_probability(sys, refine=False))
    try:
        # The standard Riccati solution is also the one at q = 0.
        P0 = dare_solve(sys).P
    except NoSolutionError:
        P0 = None
    if P0 is None or _threshold_bound(sys, 0.0, variant, P0, P0, qc).bound <= 0.0:
        warnings.warn(
            "threshold bound does not exceed the loss rate anywhere; no zero-sample safe range",
            stacklevel=2,
        )
        return 0.0

    def excess(q: float) -> float:
        try:
            P = mare_solve(sys, q).P
        except NoSolutionError:
            return -np.inf
        return _threshold_bound(sys, q, variant, P, P0, qc).bound - q

    lo, hi = 0.0, qc
    while hi - lo > SAFE_Q_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def region_map(sys: SystemSpec, step: float = 0.005, sufficient_variant: str = VARIANT_GENERAL) -> RegionMap:
    """Classify the (q, q_hat) grid below the critical probability.

    The grid spans [0, q_c) at the given step (q_c taken as the guaranteed
    lower end of its bracket when no closed form exists, so every design rate
    is feasible).  A cell turns blue when the chosen sufficient test
    certifies it: for the threshold variants that is q_hat >= q or
    q - q_hat < st_lower_bound(q); "scalar_iff" uses the scalar test and
    "exact" the lifted oracle itself.  Non-blue cells are red when the exact
    oracle reports instability and gray otherwise.  The oracle verdict per
    cell uses the dense eigenvalue route on the lifted map.
    """
    if not 0.0 < step <= 0.01:
        raise InvalidInputError(f"step must lie in (0, 0.01], got {step}")
    allowed = THRESHOLD_VARIANTS + ("scalar_iff", "exact")
    if sufficient_variant not in allowed:
        raise InvalidInputError(f"unknown sufficient variant {sufficient_variant!r}")
    if sufficient_variant in (VARIANT_SCALAR, "scalar_iff") and not sys.is_scalar:
        raise DimensionError(f"variant {sufficient_variant!r} requires a scalar system")
    if sufficient_variant in THRESHOLD_VARIANTS:
        _check_threshold_variant(sys, sufficient_variant)

    cp = critical_probability(sys, refine=False)
    qc = cp.exact if cp.exact is not None else cp.lower
    grid = np.arange(0.0, qc, step)

    # One Riccati solve per grid value serves both its column (design data)
    # and its row (threshold bound); grid values whose solve fails are
    # excluded as columns and get a zero bound as rows.
    solutions = {}
    for i, q in enumerate(grid):
        try:
            solutions[i] = mare_solve(sys, float(q)).P
        except NoSolutionError:
            pass
    kept = list(solutions)
    gains = [_feedback_gain(sys, solutions[i]) for i in kept]
    q_hat_grid = grid[kept]
    q_grid = grid.copy()

    bounds = None
    if sufficient_variant in THRESHOLD_VARIANTS:
        # grid[0] = 0, so its solution is the standard one; without it no
        # rate is feasible and every bound stays zero.
        bounds = np.zeros(len(q_grid))
        if 0 in solutions:
            for i in kept:
                bounds[i] = _threshold_bound(
                    sys, float(q_grid[i]), sufficient_variant, solutions[i], solutions[0], _qc_clamp(cp)
                ).bound

    margin = _strict_margin(sys)
    n_q, n_qh = len(q_grid), len(q_hat_grid)
    cells = np.full((n_q, n_qh), CELL_GRAY, dtype=np.int8)
    exact_stable = np.zeros((n_q, n_qh), dtype=bool)

    for j, pair in enumerate(_lifted_pairs(sys, gains)):
        qh = float(q_hat_grid[j])
        for i in range(n_q):
            q = float(q_grid[i])
            stable = _ms_stable(_dense_spectral_radius(_lifted_at(pair, q)))
            exact_stable[i, j] = stable

            if sufficient_variant in THRESHOLD_VARIANTS:
                certified = qh >= q or (q - qh) < bounds[i]
            elif sufficient_variant == "scalar_iff":
                certified = _scalar_iff_value(sys, q, qh, gains[j][0, 0], solutions[kept[j]][0, 0]) > margin
            else:  # exact
                certified = stable

            if certified:
                cells[i, j] = CELL_BLUE
            elif not stable:
                cells[i, j] = CELL_RED
    return RegionMap(
        q_grid=q_grid,
        q_hat_grid=q_hat_grid,
        cells=cells,
        exact_stable=exact_stable,
        variant=sufficient_variant,
        step=step,
    )
