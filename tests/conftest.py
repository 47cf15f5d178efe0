import copy
import sys

import numpy as np
import pytest

from lossylqr import NoSolutionError, SystemSpec, critical_probability, dare_solve, riccati


@pytest.fixture(scope="session")
def example1() -> SystemSpec:
    """Scalar unstable plant A=1.5 with unit input, cost, and penalty."""
    return SystemSpec(A=1.5, B=1.0, Q=1.0, R=1.0, name="example1")


@pytest.fixture(scope="session")
def example2() -> SystemSpec:
    """Two-state plant with one unstable mode and identity B, Q, R."""
    return SystemSpec(
        A=np.array([[1.5, 0.1], [0.0, 1.0]]),
        B=np.eye(2),
        Q=np.eye(2),
        R=np.eye(2),
        name="example2",
    )


@pytest.fixture(scope="session")
def plant3() -> SystemSpec:
    """B of rank 2 on three states; q_c = 1/1.3^2 since each unstable mode has its own input."""
    return SystemSpec(
        A=np.diag([1.3, 1.2, 0.4]),
        B=np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]]),
        Q=np.eye(3),
        R=np.eye(2),
        name="plant3",
    )


def fresh(plant: SystemSpec) -> SystemSpec:
    """A copy of the plant, which starts with an empty memo: every result of
    the copy is computed afresh."""
    return copy.copy(plant)


def report_bits(report) -> tuple:
    """A ThresholdReport with each float as its hex string."""
    return report.variant, report.bound.hex(), {k: v.hex() for k, v in report.constituents.items()}


def scalar_mare_root(q: float, a: float = 1.5) -> float:
    """Independent oracle for the scalar modified Riccati equation with B=Q=R=1.

    Clearing denominators turns the fixed-point equation into the quadratic
    (1 - a^2 q) P^2 - a^2 P - 1 = 0; the positive root is the solution.
    """
    roots = np.roots([1.0 - a * a * q, -(a * a), -1.0])
    real = roots[np.abs(roots.imag) < 1e-12].real
    positive = real[real > 0]
    assert positive.size == 1
    return float(positive[0])


def random_stabilizable_system(rng: np.random.Generator, n_max: int = 4) -> SystemSpec:
    """Random stabilizable (A, B) with PD costs; retries until the DARE converges."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, n + 1))
        A = rng.normal(size=(n, n))
        rho = max(np.abs(np.linalg.eigvals(A)))
        A *= rng.uniform(0.3, 1.6) / max(rho, 1e-9)
        B = rng.normal(size=(n, m))
        GQ = rng.normal(size=(n, n))
        GR = rng.normal(size=(m, m))
        sys = SystemSpec(
            A=A,
            B=B,
            Q=GQ @ GQ.T + 0.5 * np.eye(n),
            R=GR @ GR.T + 0.5 * np.eye(m),
        )
        try:
            dare_solve(sys)
        except NoSolutionError:
            continue
        return sys


def feasible_rate_ceiling(sys: SystemSpec) -> float:
    """A loss rate strictly below the critical probability for any B."""
    return critical_probability(sys, refine=False).lower


@pytest.fixture
def batches(monkeypatch) -> list:
    """The number of rates of each lock-step `_mare_solve_rates` call, in order."""
    sizes = []
    solve = riccati._mare_solve_rates
    monkeypatch.setattr(riccati, "_mare_solve_rates", lambda sys, qs: sizes.append(len(qs)) or solve(sys, qs))
    return sizes


def record_solves_alone(monkeypatch, record):
    """Call record(q) for each rate that `mare_solve` really solves: its
    one-rate `_lockstep` call, not those of `_mare_solve_rates`.  Plants from
    `fresh` start with an empty memo."""
    inner = riccati._lockstep

    def recorded(plant, qs):
        if sys._getframe(1).f_code is riccati.mare_solve.__code__:
            record(qs[0])
        return inner(plant, qs)

    monkeypatch.setattr(riccati, "_lockstep", recorded)


@pytest.fixture
def solve_count(monkeypatch):
    """Count the solves that `mare_solve` really runs."""
    count = [0]

    def counted(q):
        count[0] += 1

    record_solves_alone(monkeypatch, counted)
    return count


def gain_solves_outside_the_driver(monkeypatch) -> list:
    """The X of each `riccati._gain_solve` call made outside the Riccati
    driver `riccati._lockstep`; only `riccati` calls it."""
    calls, inner, driver = [], riccati._gain_solve, riccati._lockstep.__code__

    def recorded(plant, X):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not driver:
            frame = frame.f_back
        if frame is None:
            calls.append(X)
        return inner(plant, X)

    monkeypatch.setattr(riccati, "_gain_solve", recorded)
    return calls
