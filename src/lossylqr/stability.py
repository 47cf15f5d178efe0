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

import bisect
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, NoSolutionError, NotPSDError
from .numerics import _dense_spectral_radius, _finite, _fro, _spectral_radius, psd_sqrt, sym_eig_extremes, symmetrize
from .numerics import _check_lifted_rate, _check_rate, _eigvals, _eigvalsh, _solve, _solve_each
from .riccati import (
    LOCKSTEP_ENTRIES,
    RHO_MARGIN,
    SystemSpec,
    _bisect_rates,
    _design,
    _feedback_gain,
    _gain,
    _kept,
    _kron_self,
    _lifted_map,
    _ms_stable,
    _mare_solve_rates,
    _memo_lock,
    _rank_form,
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
# An eigenvalue mu of `region_map`'s pencil gives the candidate rate 1/Re(mu)
# when |Im mu| is below this fraction of |mu|.  A real eigenvalue comes out of
# LAPACK real unless it is (nearly) multiple, where it may split into a pair
# with |Im mu| / |mu| near eps^(1/k) for a block of size k; a spare candidate
# costs two dense radii, a missed one a dense column.
CANDIDATE_IMAG_RTOL = 1e-3

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
    return float(STRICT_MARGIN * (1.0 + _fro(sys.Q)))


def condition_matrix(sys: SystemSpec, q: float, q_hat: float) -> np.ndarray:
    """Sufficient-condition matrix Q + (1-q) K^T R K - (q - q_hat) W.

    Positive definiteness certifies mean-square stability of the controller
    designed at q_hat and run at the true rate q.  W is the gain weight
    matrix computed from the design Riccati solution.
    """
    _check_rate(q, "true loss rate")
    _, K, W = _design(sys, q_hat)
    C = sys.Q + (1.0 - q) * (K.T @ sys.R @ K) - (q - q_hat) * W
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
    _check_rate(q, "true loss rate")
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
    _check_lifted_rate(q)
    return _lifted_map(sys, _gain(sys, K), q)


def _lifted_rho(sys: SystemSpec, K, q: float) -> tuple[np.ndarray, float]:
    """The lifted map of `lifted_matrix` and its spectral radius, certified as
    that of a PSD-cone-preserving map (see `numerics.spectral_radius`).

    The plant's memo keeps its last result whose radius the bracket
    certified, with its map made read-only, so that the oracle and the
    second-moment sum of one design share it.  The key is q with its type
    and the layout and bytes of the checked gain: each can change the
    result's bits.  A radius that raised or warned is not kept, so every
    caller meets its error or warning."""
    _check_lifted_rate(q)
    K = _gain(sys, K)
    key = (type(q), float(q).hex(), K.shape, K.strides, K.tobytes())
    kept = sys._memo.get(("lifted_rho",))
    if kept is not None and kept[0] == key:
        return kept[1:]
    Phi = _lifted_map(sys, K, q)
    rho, certified = _spectral_radius(Phi, cone=True)
    if certified:
        Phi.flags.writeable = False
        with _memo_lock:
            sys._memo[("lifted_rho",)] = key, Phi, rho
    return Phi, rho


def exact_ms_stable(sys: SystemSpec, K, q: float) -> StabilityVerdict:
    """Exact oracle: mean-square stable iff rho(Phi) < 1."""
    _, rho = _lifted_rho(sys, K, q)
    return StabilityVerdict(
        criterion="exact_lifted",
        certificate=rho,
        stable=_ms_stable(rho),
        margin_note=f"spectral radius compared against 1 - {RHO_MARGIN:.0e}",
    )


def _congruence_max_eig(S_root: np.ndarray, M: np.ndarray) -> np.ndarray:
    """lambda_max of S_root^{-1} M S_root^{-1} for symmetric PD S_root, for
    each member of a (k, n, n) stack M (and of S_root, if it is one too).
    0.5 (T + T^T) is exactly symmetric, so `symmetrize` would return it
    unchanged: its eigenvalues are taken directly, once its entries are
    checked finite (an S_root near singular can overflow T)."""
    half = _solve(S_root, M)
    T = _solve(S_root, half.mT).mT
    return _eigvalsh(_finite(0.5 * (T + T.mT)))[..., -1]


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
    the critical probability, the width of the admissible square.  The
    formulas are those of `_threshold_bounds`, here on a stack of one.
    """
    _check_threshold_variant(sys, variant)
    P = mare_solve(sys, q).P
    bound, constituents = _plant_bounds(sys, variant)(np.array([q], dtype=float), P[None])
    return ThresholdReport(variant, bound.item(), constituents[0])


def _plant_bounds(sys: SystemSpec, variant: str):
    """`_threshold_bounds` of the plant and variant, with the clamp at the
    upper end of q_c's unrefined bracket and the standard solution P0, kept in
    the plant's memo, which keeps P0 too."""

    def make():
        P0 = None if variant == VARIANT_SCALAR else dare_solve(sys).P
        return _threshold_bounds(sys, variant, P0, critical_probability(sys, refine=False).upper)

    return _kept(sys, ("bounds", variant), make)


def _check_threshold_variant(sys: SystemSpec, variant: str) -> None:
    if variant not in THRESHOLD_VARIANTS:
        raise InvalidInputError(f"unknown threshold variant {variant!r}")
    if variant == VARIANT_SCALAR and not sys.is_scalar:
        raise DimensionError("the scalar threshold variant requires n = m = 1")
    if variant == VARIANT_INVERTIBLE_B:
        if sys.B.shape[0] != sys.B.shape[1]:
            raise DimensionError("the invertible-B threshold variant requires a square B")
        if _rank_form(sys) != "invertible_B":
            raise DimensionError("the invertible-B threshold variant requires a well-conditioned B")


def _threshold_bounds(sys: SystemSpec, variant: str, P0: np.ndarray | None, qc: float):
    """`st_lower_bound` over stacks, as bounds(q, P) -> (bound, constituents):
    from a (k,) array of rates q and the (k, n, n) stack P of their modified
    Riccati solutions, the (k,) array of bounds and the list of each row's
    constituents, given the standard solution P0 (unused by the scalar
    variant) and the clamp qc.  The rate-independent parts are formed here
    once, so every rate of a grid or bisection shares them.

    Each row gets the bits of the formula evaluated on its own.  The matrix
    steps run on the whole stack (stacked matmul, solve and eigh round each
    member as the 2-d call does), and the scalar steps per row in Python
    floats, where a square is `**` (libm pow; an array's `**2` multiplies,
    which rounds differently on about 1 double in 1000).  Every check of the
    formulas (symmetry, the PSD tolerance of the square root, the clamp at a
    vanishing transformed matrix) runs on each member.  When a check fails,
    the rows are evaluated one at a time, so the first failing row raises.
    """
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R

    if variant == VARIANT_SCALAR:
        a, b, qq, r = (float(M[0, 0]) for M in (A, B, Q, R))

        def evaluate(q, P):
            bound, constituents = [], []
            for q_i, p in zip(q.tolist(), P[:, 0, 0].tolist()):
                denom = a**2 * b**2 * p**2
                if denom <= 0.0:
                    bound.append(qc)
                    constituents.append({"clamped_to_qc": 1.0})
                    continue
                first = qq * (r + b**2 * p) / denom
                second = (1.0 - q_i) * r / (r + b**2 * p)
                bound.append(min(first + second, qc))
                constituents.append({"first_term": first, "second_term": second})
            return np.array(bound), constituents

    elif variant == VARIANT_GENERAL:
        _, lmax_bbt = sym_eig_extremes(B @ B.T)
        lmin_rp0, _ = sym_eig_extremes(R + B.T @ P0 @ B)
        c1, Q_root = lmax_bbt / lmin_rp0, psd_sqrt(Q)

        def evaluate(q, P):
            lam = _congruence_max_eig(Q_root, symmetrize(A.T @ P @ P @ A)).tolist()
            bound = [qc if x <= 0.0 else min(1.0 / x / c1, qc) for x in lam]
            constituents = [
                {"c1": c1, "clamped_to_qc": 1.0} if x <= 0.0 else {"c1": c1, "lambda_min_term": 1.0 / x} for x in lam
            ]
            return np.array(bound), constituents

    else:  # invertible_B
        lmin_r, _ = sym_eig_extremes(R)
        lmin_bbt, _ = sym_eig_extremes(B @ B.T)
        lmin_r_bbt, AP0P0A = lmin_r * lmin_bbt, symmetrize(A.T @ P0 @ P0 @ A)

        def evaluate(q, P):
            _, lmax_rpb = sym_eig_extremes(R + B.T @ P @ B)
            c2 = [lmin_r_bbt / x**2 for x in lmax_rpb.tolist()]
            Xi = psd_sqrt(Q + ((1.0 - q) * c2)[:, None, None] * AP0P0A)
            lam = _congruence_max_eig(Xi, symmetrize(A.T @ P @ A)).tolist()
            bound = [qc if x <= 0.0 else min(1.0 / x, qc) for x in lam]
            constituents = [
                {"c2": c, "clamped_to_qc": 1.0} if x <= 0.0 else {"c2": c, "lambda_min_term": 1.0 / x}
                for c, x in zip(c2, lam)
            ]
            return np.array(bound), constituents

    def bounds(q: np.ndarray, P: np.ndarray):
        try:
            return evaluate(q, P)
        except (InvalidInputError, NotPSDError, np.linalg.LinAlgError):
            for i in range(len(q)):
                evaluate(q[i : i + 1], P[i : i + 1])
            raise

    return bounds


def _threshold_curve(sys: SystemSpec, variant: str, q_min: float, q_max: float | None, step: float):
    """Yield (q, st_lower_bound(sys, q, variant)) on the grid from q_min in
    steps of `step`, below q_max and the upper end of the unrefined q_c
    bracket, for the rows before the first rate without a Riccati solution.
    The grid is solved in one lock-step call (`riccati._mare_solve_rates`,
    equal bit for bit to one `mare_solve` per rate) and its bounds come from
    one stacked `_threshold_bounds` call; no rate at or above q_c has a
    solution, so the clamp at the upper end drops no row.  The bracket and
    the standard solution (the q = 0 row's, if any) are found once."""
    _check_threshold_variant(sys, variant)
    qc = critical_probability(sys, refine=False).upper
    grid = np.arange(q_min, qc if q_max is None else min(q_max, qc), step).tolist()
    solved = _mare_solve_rates(sys, grid)
    rows = next((i for i, sol in enumerate(solved) if isinstance(sol, NoSolutionError)), len(grid))
    if not rows:
        return
    P = np.array([sol.P for sol in solved[:rows]])
    bounds = _threshold_bounds(sys, variant, P[0] if grid[0] == 0.0 else dare_solve(sys).P, qc)
    bound, constituents = bounds(np.array(grid[:rows]), P)
    for q, b, c in zip(grid, bound.tolist(), constituents):
        yield q, ThresholdReport(variant, b, c)


def zero_sample_safe_q(sys: SystemSpec, variant: str) -> float:
    """Largest loss rate below which the controller stabilizes for every design rate.

    Solves the fixed point q* = st_lower_bound(sys, q*, variant) by bisection;
    for q < q* the certainty-equivalence controller is stabilizing for any
    q_hat in [0, q_c), i.e. even with zero channel samples.  Returns 0 (with a
    warning) when the threshold bound sits below q already at q = 0.

    The bisection is `riccati._bisect_rates`, scored by bound(q) - q, which
    the plant's kept evaluator (`_plant_bounds`, shared with `st_lower_bound`)
    gives in one stacked call for every solved probe of a batch.  From those
    scores and the one at q = 0 it predicts the rest of its path, so on a
    smooth bound the path takes two lock-step batches, and it still decides
    one midpoint at a time from that midpoint's own score, so the result is
    the plain bisection's to the last bit.  The standard solution is one
    `dare_solve`, a stack of one rate.  When q_c is only bracketed, the
    bisection runs up to the bracket's upper end, but its batches hold no
    midpoint above the lower end that it does not take: where q_c lies at
    the lower end, such a midpoint has no solution and its solve runs for
    thousands of steps before it stalls.
    """
    _check_threshold_variant(sys, variant)
    cp = critical_probability(sys, refine=False)
    try:
        # The standard Riccati solution is also the one at q = 0.
        P0 = dare_solve(sys).P
        bounds = _plant_bounds(sys, variant)
        at_zero = bounds(np.zeros(1), P0[None])[0].item()
        safe_at_zero = at_zero > 0.0
    except NoSolutionError:
        safe_at_zero = False
    if not safe_at_zero:
        warnings.warn(
            "threshold bound does not exceed the loss rate anywhere; no zero-sample safe range",
            stacklevel=2,
        )
        return 0.0

    def excess(qs: list, outcomes: list) -> np.ndarray:
        """bound(q) - q at each rate of qs, and -inf where it has no solution."""
        q = np.array(qs)
        solved = [i for i, sol in enumerate(outcomes) if not isinstance(sol, NoSolutionError)]
        P = np.array([outcomes[i].P for i in solved]).reshape(-1, sys.n, sys.n)
        scores = np.full(len(q), -np.inf)
        scores[solved] = bounds(q[solved], P)[0] - q[solved]
        return scores

    lo, hi = _bisect_rates(sys, 0.0, cp.upper, SAFE_Q_BISECT_TOL, excess, {0.0: at_zero}, cp.lower)
    return 0.5 * (lo + hi)


def _dense_cells(MM: np.ndarray, AA: np.ndarray, q_grid: np.ndarray, checked: dict) -> list:
    """The oracle verdicts at rows checked[j] of each column j, in that order:
    the dense spectral radius of (1-q) MM[j] + q AA at q = q_grid[row], with
    MM a stack of M(x)M and AA = A(x)A, from batched eigvals calls of at most
    LOCKSTEP_ENTRIES entries (each member is computed alone, so the batching
    keeps its bits)."""
    rows = [i for col_rows in checked.values() for i in col_rows]
    cols = [j for j, col_rows in checked.items() for _ in col_rows]
    chunk = max(1, LOCKSTEP_ENTRIES // AA.size)
    stable = []
    for c in range(0, len(rows), chunk):
        q = q_grid[rows[c : c + chunk], None, None]
        stable += _ms_stable(_dense_spectral_radius((1.0 - q) * MM[cols[c : c + chunk]] + q * AA)).tolist()
    return stable


def _oracle_verdicts(sys: SystemSpec, gains, q_grid: np.ndarray) -> np.ndarray:
    """exact_stable[i, j]: the oracle verdict on gains[j] (a list or a
    (k, m, n) stack of gains) at q_grid[i], with the bits of a dense radius
    per cell but dense radii only where a verdict can change (see
    `region_map`).  Columns go `chunk` at a time through one batched solve
    and one batched eigvals call for their pencils."""
    n_q = len(q_grid)
    exact_stable = np.zeros((n_q, len(gains)), dtype=bool)
    s = 1.0 - RHO_MARGIN
    N = sys.n**2
    chunk = max(1, LOCKSTEP_ENTRIES // N**2)
    AA = sys._AA
    rates = q_grid.tolist()
    every_row = list(range(n_q))
    for start in range(0, len(gains), chunk):
        MM = _kron_self(np.stack([sys.A + sys.B @ K for K in gains[start : start + chunk]]))
        # NaN marks a singular s I - M(x)M; such a column is checked at every row.
        G = _solve_each(s * np.eye(N) - MM, AA - MM)
        usable = np.flatnonzero(np.isfinite(G).all(axis=(1, 2))).tolist()
        checked = {j: every_row for j in range(len(MM))}

        # A usable column is checked at both ends and at the two rows around
        # each candidate rate inside the grid.
        if usable:
            mu = _eigvals(G[usable])
            # Rates lie in (0, 1], so only mu with Re(mu) >= 1 can give one.
            real = (np.abs(mu.imag) < CANDIDATE_IMAG_RTOL * np.abs(mu)) & (mu.real >= 1.0)
            for j, candidates in zip(usable, (1.0 / np.where(real, mu.real, np.inf)).tolist()):
                rows = {0, n_q - 1}
                for q in candidates:
                    if rates[0] < q <= rates[-1]:
                        i = bisect.bisect_left(rates, q)
                        rows.update((i - 1, i))
                checked[j] = sorted(rows)

        # Unchecked cells take the common verdict of the checked ones around
        # them; a column whose checked cells disagree across unchecked ones is
        # checked again at every row, which always fills it.
        while checked:
            stable = _dense_cells(MM, AA, q_grid, checked)
            again, offset = {}, 0
            for j, rows in checked.items():
                v = stable[offset : offset + len(rows)]
                offset += len(rows)
                spans = list(zip(rows, rows[1:], v, v[1:]))
                if all(b == a + 1 or va == vb for a, b, va, vb in spans):
                    for a, b, va, _ in spans:
                        exact_stable[a:b, start + j] = va
                    exact_stable[n_q - 1, start + j] = v[-1]
                else:
                    again[j] = every_row
            checked = again
    return exact_stable


def region_map(sys: SystemSpec, step: float = 0.005, sufficient_variant: str = VARIANT_GENERAL) -> RegionMap:
    """Classify the (q, q_hat) grid below the critical probability.

    The grid spans [0, q_c) at the given step (q_c taken as the guaranteed
    lower end of its bracket when no closed form exists, so every design rate
    is feasible).  A cell turns blue when the chosen sufficient test
    certifies it: for the threshold variants that is q_hat >= q or
    q - q_hat < st_lower_bound(q); "scalar_iff" uses the scalar test and
    "exact" the lifted oracle itself.  Non-blue cells are red when the exact
    oracle reports instability and gray otherwise.  The Riccati solutions of
    all grid values come from one lock-step call
    (`riccati._mare_solve_rates`), which gives each the bits of its own
    `mare_solve`; the column gains from one stacked `_feedback_gain` call and
    the threshold bounds of the rows from one stacked `_threshold_bounds`
    call, each row and column with the bits of its own 2-d evaluation.

    The oracle verdict of a cell is rho(Phi(q)) < s = 1 - RHO_MARGIN, with
    rho the dense spectral radius of the lifted map
    Phi(q) = M(x)M + q (A(x)A - M(x)M), M = A + BK.  Phi(q) preserves the PSD
    cone, so rho(Phi(q)) is an eigenvalue of it (Krein-Rutman; Costa, Fragoso
    & Marques, 2005) and continuous in q: a column's verdict can change only
    where 1/q is an eigenvalue mu of G = (sI - M(x)M)^{-1} (A(x)A - M(x)M).
    One batched solve and one batched eigvals call give every column's mu;
    dense radii are taken at both ends of the column and at the two grid
    rates around each candidate 1/Re(mu) (|Im mu| < CANDIDATE_IMAG_RTOL |mu|),
    and the cells between two checked ones take their common verdict.  A
    column is checked at every row instead when sI - M(x)M is singular or G
    is not finite, and again at every row when two checked cells with
    unchecked ones between them disagree; all checked cells go through the
    same batched dense step.  Every verdict has the per-cell route's bits.
    """
    if not 0.0 < step <= 0.01:
        raise InvalidInputError(f"step must lie in (0, 0.01], got {step}")
    if sufficient_variant not in THRESHOLD_VARIANTS + ("scalar_iff", "exact"):
        raise InvalidInputError(f"unknown sufficient variant {sufficient_variant!r}")
    if sufficient_variant == "scalar_iff" and not sys.is_scalar:
        raise DimensionError("variant 'scalar_iff' requires a scalar system")
    if sufficient_variant in THRESHOLD_VARIANTS:
        _check_threshold_variant(sys, sufficient_variant)

    cp = critical_probability(sys, refine=False)
    q_grid = np.arange(0.0, cp.lower, step)

    # One Riccati solve per grid value serves both its column (design data)
    # and its row (threshold bound); grid values whose solve fails are
    # excluded as columns and get a zero bound as rows.
    solved = _mare_solve_rates(sys, q_grid.tolist())
    kept = [i for i, sol in enumerate(solved) if not isinstance(sol, NoSolutionError)]
    P = np.array([solved[i].P for i in kept]).reshape(-1, sys.n, sys.n)
    gains = _feedback_gain(sys, P)
    q_hat_grid = q_grid[kept]

    exact_stable = _oracle_verdicts(sys, gains, q_grid)
    q, q_hat = q_grid[:, None], q_hat_grid[None, :]
    if sufficient_variant in THRESHOLD_VARIANTS:
        # q_grid[0] = 0, so its solution is the standard one; without it no
        # rate is feasible and every bound stays zero.
        bounds = np.zeros(len(q_grid))
        if kept and kept[0] == 0:
            bounds[kept] = _threshold_bounds(sys, sufficient_variant, P[0], cp.upper)(q_hat_grid, P)[0]
        certified = (q_hat >= q) | (q - q_hat < bounds[:, None])
    elif sufficient_variant == "scalar_iff":
        certified = _scalar_iff_value(sys, q, q_hat, gains[:, 0, 0], P[:, 0, 0]) > _strict_margin(sys)
    else:  # exact
        certified = exact_stable
    cells = np.where(certified, CELL_BLUE, np.where(exact_stable, CELL_GRAY, CELL_RED)).astype(np.int8)
    return RegionMap(
        q_grid=q_grid,
        q_hat_grid=q_hat_grid,
        cells=cells,
        exact_stable=exact_stable,
        variant=sufficient_variant,
        step=step,
    )
