"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from lossylqr import (
    SimConfig,
    ce_gain,
    certify_ce_controller,
    condition_matrix,
    estimate_loss_rate,
    exact_ms_stable,
    gap,
    gap_curve,
    hoeffding_delta,
    lyapunov_sufficient_stable,
    mare_solve,
    min_samples,
    monte_carlo_cost,
    sample_channel,
    scalar_iff_stable,
    st_lower_bound,
    zero_sample_safe_q,
)
from lossylqr.riccati import _gain_and_weight
from lossylqr.stability import RHO_MARGIN, _strict_margin
from conftest import feasible_rate_ceiling, random_stabilizable_system

QC_EX1 = 4.0 / 9.0


def report(name: str, passed: bool, detail: str):
    print(f"\n[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_certificate_reproduction(example2):
    t0 = time.perf_counter()
    cert = certify_ce_controller(example2, 0.1633, 300, 0.01)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(cert.q_bar - 0.4181) <= 2e-3
        and abs(cert.delta - 0.0940) <= 1e-4
        and cert.passed
        and elapsed < 1.0
    )
    report(
        "criterion 1 (certificate reproduction)",
        ok,
        f"q_bar={cert.q_bar:.4f} (0.4181±2e-3), delta={cert.delta:.5f} (0.0940±1e-4), "
        f"passed={cert.passed}, {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_zero_sample_safe_thresholds(example1, example2):
    t0 = time.perf_counter()
    values = {
        "example1/general": (zero_sample_safe_q(example1, "general"), 0.128),
        "example1/scalar": (zero_sample_safe_q(example1, "scalar"), 0.231),
        "example2/general": (zero_sample_safe_q(example2, "general"), 0.104),
        "example2/invertible_B": (zero_sample_safe_q(example2, "invertible_B"), 0.167),
    }
    elapsed = time.perf_counter() - t0
    ok = all(abs(got - want) <= 2e-3 for got, want in values.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}={got:.4f} ({want}±0.002)" for k, (got, want) in values.items())
    report("criterion 2 (zero-sample safe thresholds)", ok, f"{detail}, {elapsed:.1f}s (<10s)")


def test_criterion_3_motivating_instability(example1):
    verdict = scalar_iff_stable(example1, 0.4, 0.0)
    gain, _ = ce_gain(example1, 0.0)
    oracle = exact_ms_stable(example1, gain, 0.4)
    ok = (
        abs(verdict.certificate - (-0.0064)) <= 5e-4
        and verdict.certificate < 0.0
        and abs(oracle.certificate - 1.00244) <= 1e-4
        and oracle.certificate > 1.0
    )
    report(
        "criterion 3 (motivating instability)",
        ok,
        f"condition={verdict.certificate:.5f} (-0.0064±5e-4, negative), "
        f"rho={oracle.certificate:.5f} (1.00244±1e-4, >1)",
    )


def test_criterion_4_gap_vs_monte_carlo(example1):
    t0 = time.perf_counter()
    analytic = gap(example1, 0.2, 0.0, np.array([1.0]))
    gain, _ = ce_gain(example1, 0.0)
    cfg = SimConfig(seed=0, horizon=200, trajectories=100_000)
    mean, std_err = monte_carlo_cost(example1, gain, 0.2, np.array([1.0]), cfg)
    elapsed = time.perf_counter() - t0
    z = abs(mean - 4.7045) / std_err
    ok = abs(analytic.gap - 0.2092) <= 1e-3 and z <= 3.0 and elapsed < 60.0
    report(
        "criterion 4 (gap closed form vs Monte Carlo)",
        ok,
        f"gap={analytic.gap:.5f} (0.2092±1e-3), MC mean={mean:.4f} vs 4.7045 at "
        f"{z:.2f} standard errors (<=3), {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_oracle_soundness_sweep(example1):
    t0 = time.perf_counter()
    grid = np.arange(0.0, QC_EX1, 0.005)
    margin = _strict_margin(example1)
    a = example1.A[0, 0]

    gains, weights = [], []
    for q_hat in grid:
        g, sol = ce_gain(example1, float(q_hat))
        gains.append(g.K[0, 0])
        weights.append(_gain_and_weight(example1, sol.P)[1][0, 0])
    bounds = {
        v: np.array([st_lower_bound(example1, float(q), v).bound for q in grid])
        for v in ("general", "scalar", "invertible_B")
    }

    violations = 0
    certified_cells = 0
    for i, q in enumerate(grid):
        q = float(q)
        for j, q_hat in enumerate(grid):
            q_hat = float(q_hat)
            k, w = gains[j], weights[j]
            condition = 1.0 + (1.0 - q) * k * k + (q_hat - q) * w
            rho = (a + (1.0 - q) * k) ** 2 + q * (1.0 - q) * k * k
            stable = rho < 1.0 - RHO_MARGIN
            threshold_certified = any(
                q_hat >= q or (q - q_hat) < bounds[v][i] for v in bounds
            )
            if condition > margin or threshold_certified:
                certified_cells += 1
                if not stable:
                    violations += 1

    # The cached per-cell quantities must reproduce the public operations.
    rng = np.random.default_rng(17)
    for _ in range(60):
        i, j = int(rng.integers(grid.size)), int(rng.integers(grid.size))
        q, q_hat = float(grid[i]), float(grid[j])
        k, w = gains[j], weights[j]
        condition = 1.0 + (1.0 - q) * k * k + (q_hat - q) * w
        assert scalar_iff_stable(example1, q, q_hat).certificate == pytest.approx(condition, rel=1e-9)
        assert lyapunov_sufficient_stable(example1, q, q_hat).stable == (condition > margin)
        rho = (a + (1.0 - q) * k) ** 2 + q * (1.0 - q) * k * k
        g, _ = ce_gain(example1, q_hat)
        assert exact_ms_stable(example1, g, q).certificate == pytest.approx(rho, rel=1e-9)

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report(
        "criterion 5 (oracle soundness sweep)",
        ok,
        f"{grid.size}x{grid.size} grid, {certified_cells} certified cells, "
        f"{violations} violations (=0), {elapsed:.1f}s (<60s)",
    )


def test_criterion_6_ordering_properties(example1, example2):
    t0 = time.perf_counter()
    grid = np.arange(0.0, QC_EX1, 0.005)
    threshold_viol = 0
    complexity_viol = 0
    for q in grid:
        q = float(q)
        g1 = st_lower_bound(example1, q, "general").bound
        s1 = st_lower_bound(example1, q, "scalar").bound
        g2 = st_lower_bound(example2, q, "general").bound
        i2 = st_lower_bound(example2, q, "invertible_B").bound
        if s1 < g1 - 1e-9 or i2 < g2 - 1e-9:
            threshold_viol += 1
        if (
            min_samples(example1, q, 0.1, "scalar").bound
            > min_samples(example1, q, 0.1, "general").bound + 1e-9
            or min_samples(example2, q, 0.1, "invertible_B").bound
            > min_samples(example2, q, 0.1, "general").bound + 1e-9
        ):
            complexity_viol += 1
    elapsed = time.perf_counter() - t0
    ok = threshold_viol == 0 and complexity_viol == 0
    report(
        "criterion 6 (ordering properties)",
        ok,
        f"threshold violations={threshold_viol} (=0), inverse complexity "
        f"violations={complexity_viol} (=0) over {grid.size}-point grids, {elapsed:.1f}s",
    )


def test_criterion_7_monotonicity_and_gap_continuity(example2):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    monotone_failures = 0
    for _ in range(50):
        sys = random_stabilizable_system(rng)
        rates = np.linspace(0.0, 0.9 * feasible_rate_ceiling(sys), 20)
        solutions = [mare_solve(sys, float(q)).P for q in rates]
        for lower, higher in zip(solutions, solutions[1:]):
            if np.linalg.eigvalsh(higher - lower)[0] < -1e-8:
                monotone_failures += 1

    grid = np.round(np.arange(0.0, 0.444, 0.005), 10)
    points = gap_curve(example2, 0.2, np.array([5.0, 5.0]), grid)
    stable = [p for p in points if p.stable]
    best = min(stable, key=lambda p: p.gap)
    nearest = float(grid[np.argmin(np.abs(grid - 0.2))])
    min_at_true_rate = abs(best.q_hat - nearest) < 1e-12 and best.gap <= 1e-9

    elapsed = time.perf_counter() - t0
    ok = monotone_failures == 0 and min_at_true_rate
    report(
        "criterion 7 (monotonicity and gap continuity)",
        ok,
        f"Loewner failures={monotone_failures} (=0) over 50 systems x 20 rates; "
        f"gap minimum at q_hat={best.q_hat:.3f} (grid point nearest q=0.2) with "
        f"gap={best.gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_hoeffding_coverage():
    t0 = time.perf_counter()
    q, n, beta, batches = 0.2, 300, 0.05, 10_000
    delta = hoeffding_delta(n, beta)
    hits = sum(
        abs(q - estimate_loss_rate(sample_channel(q, n, seed=k))) <= delta
        for k in range(batches)
    )
    coverage = hits / batches
    elapsed = time.perf_counter() - t0
    ok = coverage >= 1.0 - beta - 0.01
    report(
        "criterion 8 (Hoeffding coverage)",
        ok,
        f"empirical coverage={coverage:.4f} (>= {1.0 - beta - 0.01:.2f}) over "
        f"{batches} batches, {elapsed:.1f}s",
    )
