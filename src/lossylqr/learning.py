"""Finite-sample estimation of the loss rate and what it buys.

Given N_q i.i.d. channel bits, the empirical drop fraction q_hat deviates
from the true rate q by at most Delta(N_q, beta) = sqrt(log(2/beta)/(2 N_q))
with probability at least 1 - beta.  Combining that radius with the
stability-threshold bounds yields sample-complexity bounds for the
certainty-equivalence controller to be stabilizing, and a practical
certificate that tests stability without knowing q: the largest rate the
design provably tolerates (a one-dimensional semidefinite feasibility
problem whose smallest eigenvalue never rises with the rate, solved here in
closed form and confirmed by one eigenvalue probe on each side) must exceed
q_hat + Delta.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .numerics import _as_int, _eigh, _eigvalsh, sym_eig_extremes, symmetrize
from .riccati import SystemSpec, _design
from .stability import (
    VARIANT_GENERAL,
    VARIANT_INVERTIBLE_B,
    VARIANT_SCALAR,
    _strict_margin,
    _threshold_curve,
    st_lower_bound,
)

VARIANT_FROM_THRESHOLD = "from_threshold"
COMPLEXITY_VARIANTS = (
    VARIANT_FROM_THRESHOLD,
    VARIANT_GENERAL,
    VARIANT_SCALAR,
    VARIANT_INVERTIBLE_B,
)

# Distance from the closed-form certificate rate of the two probes that confirm it.
QBAR_PROBE_OFFSET = 1e-6


@dataclass(frozen=True)
class ChannelSamples:
    """A finite record of Bernoulli channel bits (1 = delivered, 0 = dropped)."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise InvalidInputError(f"channel samples must be a 1-d bit array, got ndim={bits.ndim}")
        if not ((bits == 0) | (bits == 1)).all():
            raise InvalidInputError("channel samples must contain only 0/1 bits")
        object.__setattr__(self, "bits", bits.astype(np.int8))

    @property
    def count(self) -> int:
        return int(self.bits.size)


def _channel_samples(bits: np.ndarray) -> ChannelSamples:
    """ChannelSamples of a 1-d int8 array of 0/1 bits made by the library,
    without the constructor's checks and copy."""
    samples = object.__new__(ChannelSamples)
    object.__setattr__(samples, "bits", bits)
    return samples


@dataclass(frozen=True)
class Certificate:
    """Outcome of the data-driven stability check for a designed controller.

    passed means q_bar >= q_hat + delta: every loss rate compatible with the
    samples (at confidence 1 - beta) is provably tolerated by the design.
    """

    q_hat: float
    N_q: int
    beta: float
    delta: float
    q_bar: float
    passed: bool


@dataclass(frozen=True)
class ComplexityReport:
    """Sample-size bound for the controller to be stabilizing w.p. >= 1 - beta."""

    variant: str
    bound: float
    min_N: int
    infinite: bool = False


def estimate_loss_rate(samples: ChannelSamples) -> float:
    """Empirical drop fraction (1/N) * sum(1 - bit_i)."""
    n = samples.count
    if n < 1:
        raise InvalidInputError("cannot estimate a loss rate from zero samples")
    drops = n - int(samples.bits.sum())
    return drops / n


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise InvalidInputError(f"confidence level beta must lie in (0, 1), got {beta}")


def hoeffding_delta(N_q: int, beta: float) -> float:
    """Confidence radius sqrt(log(2/beta) / (2 N_q)) of the empirical rate, for
    an integer N_q >= 1 (a numpy integer counts as its Python int)."""
    N_q = _as_int(N_q, "sample count N_q", least=1)
    _check_beta(beta)
    return math.sqrt(math.log(2.0 / beta) / (2.0 * N_q))


def min_samples(
    sys: SystemSpec | None,
    q: float | None,
    beta: float,
    variant: str,
    delta_bar: float | None = None,
) -> ComplexityReport:
    """Sample-complexity bound N_q for the controller to stabilize w.p. >= 1 - beta.

    Variants and the bounds they evaluate (delta is the matching
    stability-threshold lower bound at the true rate q):

    * "from_threshold": log(2/beta) / (2 delta_bar^2) for a caller-supplied
      threshold, finite and positive;
    * "general":        log(2/beta) / (2 delta^2), delta from the general
      threshold bound (equivalently c1^2 log(2/beta) / (2 lambda_min{...}^2));
    * "scalar" and "invertible_B": log(2/beta) / delta^2 with the tailored
      thresholds -- these two carry no factor 2, matching their published
      form; the discrepancy with the factor-2 variants is deliberate and
      surfaced in the report values.

    min_N = floor(bound) + 1 respects the strict inequality.  A zero
    threshold makes the requirement unbounded: the report is flagged
    infinite.
    """
    _check_beta(beta)
    if variant not in COMPLEXITY_VARIANTS:
        raise InvalidInputError(f"unknown sample-complexity variant {variant!r}")

    if variant == VARIANT_FROM_THRESHOLD:
        if delta_bar is None or not 0.0 < delta_bar < math.inf:
            raise InvalidInputError(f"from_threshold requires a finite positive delta_bar, got {delta_bar}")
        delta = float(delta_bar)
    else:
        if sys is None or q is None:
            raise InvalidInputError(f"variant {variant!r} requires a system and a loss rate")
        delta = st_lower_bound(sys, q, variant).bound
    return _complexity_from_threshold(variant, delta, beta)


def _complexity_from_threshold(variant: str, delta: float, beta: float) -> ComplexityReport:
    """`min_samples`'s report from the stability threshold delta of its variant."""
    if delta <= 0.0:
        return ComplexityReport(variant=variant, bound=math.inf, min_N=0, infinite=True)
    factor = 2.0 if variant in (VARIANT_FROM_THRESHOLD, VARIANT_GENERAL) else 1.0
    bound = math.log(2.0 / beta) / (factor * delta * delta)
    return ComplexityReport(variant=variant, bound=bound, min_N=int(math.floor(bound)) + 1)


def _complexity_curve(
    sys: SystemSpec, variant: str, beta: float, q_min: float, q_max: float | None, step: float
):
    """Yield the finite (q, bound, min_N) of `min_samples` on the grid of `_threshold_curve`."""
    _check_beta(beta)
    for q, threshold in _threshold_curve(sys, variant, q_min, q_max, step):
        report = _complexity_from_threshold(variant, threshold.bound, beta)
        if not report.infinite:
            yield q, report.bound, report.min_N


def _tolerated_rate_sup(sys: SystemSpec, q_hat: float) -> float:
    """sup{x : Q + (1-x) K^T R K - (x - q_hat) W > 0} for the design at q_hat.

    The constraint is C0 - x C1 with C0 its value at x = 0 and C1 = K^T R K + W
    its PSD slope, so the supremum is 1/lambda_max(C0^{-1/2} C1 C0^{-1/2}), and
    lambda_min(C0 - x C1) never rises with x.  Two probes therefore prove the
    sign change within QBAR_PROBE_OFFSET of the closed form: the constraint
    must hold at min(sup, 1) - QBAR_PROBE_OFFSET and, when sup +
    QBAR_PROBE_OFFSET < 1, fail there; otherwise NumericalFailureError.

    Q, K^T R K (symmetrized) and W are exactly symmetric, so C0, C1 and each
    C0 - x C1 are too, and `symmetrize` would return them unchanged: their
    eigenvalues are taken directly.  A non-finite C0 or C1 fails the check
    of the congruence's `sym_eig_extremes`.
    """
    _, K, W = _design(sys, q_hat)
    KtRK = symmetrize(K.T @ sys.R @ K)
    C0 = sys.Q + KtRK + q_hat * W
    C1 = KtRK + W

    w0, V0 = _eigh(C0)
    root_inv = (V0 / np.sqrt(w0)) @ V0.T
    _, lam_max = sym_eig_extremes(root_inv @ C1 @ root_inv)
    if lam_max <= _strict_margin(sys):
        return math.inf
    x_sup = 1.0 / lam_max

    def holds(x: float) -> bool:
        return _eigvalsh(C0 - x * C1)[0] > 0.0

    above = x_sup + QBAR_PROBE_OFFSET
    if not holds(min(x_sup, 1.0) - QBAR_PROBE_OFFSET) or (above < 1.0 and holds(above)):
        raise NumericalFailureError(
            f"sufficient condition does not change sign within {QBAR_PROBE_OFFSET:g} "
            f"of the closed-form tolerated rate {x_sup:.9f}"
        )
    return x_sup


def certify_ce_controller(sys: SystemSpec, q_hat: float, N_q: int, beta: float) -> Certificate:
    """Data-driven stability certificate for the controller designed at q_hat.

    q_bar is the largest loss rate (capped at 1) the design provably
    tolerates by the sufficient condition; the certificate passes when
    q_bar >= q_hat + Delta(N_q, beta), in which case the controller
    stabilizes the true system with probability at least 1 - beta.
    N_q is an integer >= 1, reported as a Python int.
    """
    N_q = _as_int(N_q, "sample count N_q", least=1)
    delta = hoeffding_delta(N_q, beta)
    q_bar = min(1.0, _tolerated_rate_sup(sys, q_hat))
    q_bar = max(q_bar, q_hat)
    return Certificate(
        q_hat=q_hat,
        N_q=N_q,
        beta=beta,
        delta=delta,
        q_bar=float(q_bar),
        passed=bool(q_bar >= q_hat + delta),
    )
