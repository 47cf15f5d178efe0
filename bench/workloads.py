"""The benchmark's three workloads: design, regions and montecarlo.

Each workload builds its inputs from the seed, runs one pass of library
calls (`run_pass`), and checks a pass's outputs against values the
benchmark computes itself (`check`).  Library functions are always looked
up on the package object at call time, so the traced run sees the wrappers
it installs.  A library error inside one operation is kept as that
operation's result and counted as a failed operation; it is not re-raised.
The one exception is `known_fault`: a design that hits it in the warm-up
pass is left out of the run (see `Design.leave_out_known_faults`).
"""

import math
from dataclasses import dataclass

import numpy as np

BETA = 0.05
# Cells whose own spectral radius is this close to the oracle's threshold
# 1 - RHO_MARGIN are not compared: there the verdict turns on rounding.
BOUNDARY_SKIP = 1e-7
RHO_MARGIN = 1e-9
# Agreement between the library and the benchmark's own linear algebra.
RHO_RTOL = 1e-8
COST_RTOL = 1e-6
# A Monte Carlo mean agrees with the analytic cost when it lies within Z_MAX
# reported standard errors of it, or within REL_MAX of it.  The per-trajectory
# costs are heavy tailed (at q = 0.2 the fourth moment of x_t grows, tail
# index about 1.9), so the reported standard error understates the spread:
# over 2000 seeds at this workload's sizes, the example1 mean fell more than
# 3 standard errors below J_CE on 43 seeds (lowest -6.65), yet never more
# than 11 % below it.  Large relative excursions come only from rare huge
# trajectories, which inflate the standard error with them (largest z 2.5).
Z_MAX = 3.0
REL_MAX = 0.2


def known_fault(L, result) -> bool:
    """Whether `result` is the seed-dependent fault of `numerics.spectral_radius`.

    Its power iteration stops when one step changes the Rayleigh quotient by
    less than 1e-12 relative.  On a non-normal lifted map the quotient can
    overshoot rho and turn back, and a step at the turn passes that test while
    the estimate is still about 2e-7 off, so the cross-check against the dense
    eigenvalues raises.  Whether a design meets such a turn depends on its
    estimate q_hat, hence on the channel sample and the seed: 9 of 1331
    seeds tried meet it (94 and 223 among them), each time in the same design
    (plant3, q = 0.2465, N = 1000, q_hat = 0.274).  A failure that comes and
    goes with the seed cannot be counted in `failed`, whose share of
    `attempted` must be the same in every run.
    """
    return isinstance(result, L.NumericalFailureError) and "disagree" in str(result)


def mean_agrees(mean, std_err, expected):
    return abs(mean - expected) <= max(Z_MAX * std_err, REL_MAX * abs(expected))


class Refused:
    """An estimate at or above the feasible ceiling: the design is skipped, not failed."""

    def __init__(self, q_hat):
        self.q_hat = q_hat


def fixed_plants(L):
    return {
        "example1": L.SystemSpec(A=1.5, B=1.0, Q=1.0, R=1.0, name="example1"),
        "example2": L.SystemSpec(
            A=[[1.5, 0.1], [0.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2), name="example2"
        ),
        "plant3": L.SystemSpec(
            A=np.diag([1.3, 1.2, 0.4]),
            B=[[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]],
            Q=np.eye(3),
            R=np.eye(2),
            name="plant3",
        ),
    }


def _orthogonal(rng, n):
    Z, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Z * np.sign(np.diag(R))


# Seed of the Gaussian plants that the design workload presents in random
# coordinates.  Drawing the plants themselves from --seed would make the work
# per pass depend on the seed: about one draw in seven gives a lifted map
# whose second eigenvalue nearly ties the first, which multiplies the power
# iteration's cost by ten or more.
RANDOM_PLANT_SEED = 2025


def random_plant(L, rng, n, m, name):
    """Gaussian (A, B) with A scaled to spectral radius in [1.1, 1.3], Q = I, R = I.

    Redrawn until the standard Riccati equation converges (stabilizable).
    """
    while True:
        A = rng.normal(size=(n, n))
        A *= rng.uniform(1.1, 1.3) / np.max(np.abs(np.linalg.eigvals(A)))
        sys = L.SystemSpec(A=A, B=rng.normal(size=(n, m)), Q=np.eye(n), R=np.eye(m), name=name)
        try:
            L.dare_solve(sys)
        except L.NoSolutionError:
            continue
        return sys


def rotated(L, sys, rng):
    """The same plant in random orthogonal state and input coordinates.

    With Q = I and R = I the design problem is unchanged: gains, Riccati
    iterates and lifted spectra transform exactly, so only rounding differs.
    """
    T, U = _orthogonal(rng, sys.n), _orthogonal(rng, sys.m)
    return L.SystemSpec(A=T @ sys.A @ T.T, B=T @ sys.B @ U, Q=sys.Q, R=sys.R, name=sys.name)


def pair_plant(L, rng, name):
    """4 states, 2 inputs, whose lifted map has a near-(+/-) leading eigenvalue pair.

    An unstable controllable 2-state block is coupled to an uncontrollable
    stable block with eigenvalues 0.95 and -0.95 * 0.998.  The lifted map then
    has eigenvalues 0.9025 and -0.9007 whatever the gain, and they lead as
    long as the controllable block's own lifted radius stays below 0.9 (true
    at up to half the critical rate).  The stable block is non-normal so that
    the identity seed of a power iteration excites the negative eigenvalue.
    A random orthogonal change of state and input coordinates hides the
    block structure without changing the problem.
    """
    A = np.zeros((4, 4))
    A[:2, :2] = [[rng.uniform(1.15, 1.3), rng.uniform(-0.5, 0.5)], [0.0, rng.uniform(0.2, 0.6)]]
    A[2:, 2:] = [[0.95, rng.uniform(0.5, 1.0)], [0.0, -0.95 * 0.998]]
    A[:2, 2:] = rng.uniform(-0.3, 0.3, size=(2, 2))
    B = np.zeros((4, 2))
    B[:2] = np.eye(2)
    T, U = _orthogonal(rng, 4), _orthogonal(rng, 2)
    return L.SystemSpec(A=T @ A @ T.T, B=T @ B @ U, Q=np.eye(4), R=np.eye(2), name=name)


def feasible_ceiling(L, sys):
    """q_c when known in closed form, else the guaranteed-feasible lower end of its bracket."""
    cp = L.critical_probability(sys, refine=False)
    return cp.exact if cp.exact is not None else cp.lower


def lifted(A, B, K, q):
    M = A + B @ K
    return (1.0 - q) * np.kron(M, M) + q * np.kron(A, A)


def own_rho(A, B, K, q):
    return float(np.max(np.abs(np.linalg.eigvals(lifted(A, B, K, q)))))


def own_cost(sys, K, q, X0):
    """tr((Q + (1-q) K^T R K) S) with S from the benchmark's own lifted solve."""
    n = sys.n
    Phi = lifted(sys.A, sys.B, K, q)
    S = np.linalg.solve(np.eye(n * n) - Phi, X0.reshape(-1)).reshape(n, n)
    return float(np.trace((sys.Q + (1.0 - q) * K.T @ sys.R @ K) @ S))


def own_mare_gain(sys, q, cap=200_000):
    """CE gain from the benchmark's own fixed-point solve of the modified Riccati equation."""
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    P = Q.copy()
    for _ in range(cap):
        BtPA = B.T @ P @ A
        P_next = Q + A.T @ P @ A - (1.0 - q) * BtPA.T @ np.linalg.solve(R + B.T @ P @ B, BtPA)
        P_next = 0.5 * (P_next + P_next.T)
        done = np.max(np.abs(P_next - P)) <= 1e-14 * (1.0 + np.max(np.abs(P_next)))
        P = P_next
        if done:
            return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    raise RuntimeError(f"own Riccati iteration did not settle at q={q}")


def scalar_example1_rho(q, q_hat, a=1.5):
    """Closed-form lifted radius for example1 (b = Q = R = 1).

    P is the positive root of (1 - a^2 q_hat) P^2 - a^2 P - 1 = 0, the gain is
    k = -a P / (1 + P), and rho = (1 - q)(a + k)^2 + q a^2.
    """
    c = 1.0 - a * a * q_hat
    P = (a * a + math.sqrt(a**4 + 4.0 * c)) / (2.0 * c)
    k = -a * P / (1.0 + P)
    return (1.0 - q) * (a + k) ** 2 + q * a * a, k


def _near_boundary(rho):
    return abs(rho - (1.0 - RHO_MARGIN)) < BOUNDARY_SKIP


class Workload:
    """Inputs for one seed, one pass of operations, and the checks on its outputs."""

    name = ""
    unit = ""

    def __init__(self, L, seed: int, smoke: bool):
        self.L = L
        self.rng = np.random.default_rng(seed)
        self.ops = []  # (label, zero-argument callable)

    def run_pass(self, between=None) -> list:
        """One pass over every operation; `between` runs before each one and after the last."""
        results = []
        for _, op in self.ops:
            if between is not None:
                between()
            try:
                results.append(op())
            except self.L.LossyLqrError as exc:
                results.append(exc)
        if between is not None:
            between()
        return results

    def leave_out_known_faults(self, results) -> list:
        """Drop the operations whose warm-up result is a `known_fault`; return the kept results."""
        return results

    def failures(self, results) -> list[str]:
        return [
            f"{label}: {type(r).__name__}: {r}"
            for (label, _), r in zip(self.ops, results)
            if isinstance(r, Exception)
        ]

    def units(self, results) -> int:
        raise NotImplementedError

    def fingerprint(self, results) -> tuple:
        raise NotImplementedError

    def check(self, results) -> list[str]:
        raise NotImplementedError

    def notes(self, results) -> str:
        return ""


@dataclass(frozen=True)
class DesignInput:
    plant: str
    sys: object
    ceiling: float
    q: float
    N: int
    channel_seed: int


@dataclass(frozen=True)
class DesignResult:
    q_hat: float
    K: np.ndarray
    cert: object
    verdict: object
    report: object
    complexity: object


class Design(Workload):
    """The paper's online loop, one design per (plant, true rate, sample count)."""

    name = "design"
    unit = "design"
    # (fraction of the feasible ceiling, channel samples N)
    GRID = ((0.2, 100), (0.2, 3000), (0.4, 300), (0.4, 1000), (0.6, 1000), (0.6, 3000))
    PAIR_GRID = ((0.3, 300), (0.5, 1000))
    SMOKE_GRID = ((0.2, 100), (0.6, 3000))
    SMOKE_PAIR_GRID = ((0.3, 300),)
    # (states, inputs) of the Gaussian plants
    RANDOM_SHAPES = ((2, 1), (3, 2), (4, 2))
    SMOKE_RANDOM_SHAPES = ((3, 2),)

    def __init__(self, L, seed, smoke):
        super().__init__(L, seed, smoke)
        rng = self.rng
        plants = dict(fixed_plants(L))
        shapes = self.SMOKE_RANDOM_SHAPES if smoke else self.RANDOM_SHAPES
        drawn = np.random.default_rng(RANDOM_PLANT_SEED)
        for n, m in shapes:
            plants[f"random{n}"] = rotated(L, random_plant(L, drawn, n, m, f"random{n}"), rng)
        plants["pair4"] = pair_plant(L, rng, "pair4")

        grid, pair_grid = (self.SMOKE_GRID, self.SMOKE_PAIR_GRID) if smoke else (self.GRID, self.PAIR_GRID)
        self.inputs = []
        for name, sys in plants.items():
            ceiling = feasible_ceiling(L, sys)
            for fraction, N in pair_grid if name == "pair4" else grid:
                seed_ch = int(rng.integers(0, 2**62))
                self.inputs.append(DesignInput(name, sys, ceiling, fraction * ceiling, N, seed_ch))
        order = rng.permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]
        self.ops = [(f"{d.plant} q={d.q:.4f} N={d.N}", self._op(d)) for d in self.inputs]
        self.left_out = []

    def _op(self, d):
        L = self.L
        X0 = np.eye(d.sys.n)

        def design():
            q_hat = L.estimate_loss_rate(L.sample_channel(d.q, d.N, d.channel_seed))
            if q_hat >= d.ceiling:
                return Refused(q_hat)
            gain, _ = L.ce_gain(d.sys, q_hat)
            cert = L.certify_ce_controller(d.sys, q_hat, d.N, BETA)
            verdict = L.exact_ms_stable(d.sys, gain, d.q)
            report = L.gap(d.sys, d.q, q_hat, X0) if verdict.stable else None
            complexity = L.min_samples(d.sys, d.q, BETA, "general")
            return DesignResult(q_hat, gain.K, cert, verdict, report, complexity)

        return design

    def leave_out_known_faults(self, results):
        keep = [i for i, r in enumerate(results) if not known_fault(self.L, r)]
        self.left_out = [f"{self.ops[i][0]}: {results[i]}" for i in range(len(results)) if i not in keep]
        self.inputs = [self.inputs[i] for i in keep]
        self.ops = [self.ops[i] for i in keep]
        return [results[i] for i in keep]

    def units(self, results):
        return len(results)

    def fingerprint(self, results):
        out = []
        for r in results:
            if isinstance(r, DesignResult):
                out += [r.q_hat, r.cert.q_bar, r.verdict.certificate, r.complexity.bound]
                out.append(r.report.J_ce if r.report is not None else None)
            else:
                out.append(repr(r) if isinstance(r, Exception) else r.q_hat)
        return tuple(out)

    def notes(self, results):
        refused = sum(isinstance(r, Refused) for r in results)
        unstable = sum(isinstance(r, DesignResult) and r.report is None for r in results)
        left_out = "".join(f"; left out (known fault): {x}" for x in self.left_out)
        return f"{refused} refused (estimate at or above the ceiling), {unstable} unstable at the true rate{left_out}"

    def check(self, results):
        problems = []
        for d, r in zip(self.inputs, results):
            if not isinstance(r, DesignResult):
                continue
            where = f"{d.plant} q={d.q:.6f} q_hat={r.q_hat:.6f}"
            sys, q = d.sys, d.q
            rho = own_rho(sys.A, sys.B, r.K, q)
            if abs(rho - r.verdict.certificate) > RHO_RTOL * (1.0 + rho):
                problems.append(f"{where}: oracle rho {r.verdict.certificate!r} != own {rho!r}")
            if q < r.cert.q_bar * (1.0 - 1e-9) and not r.verdict.stable:
                problems.append(f"{where}: q below certified q_bar={r.cert.q_bar} but oracle says unstable")
            if r.report is not None:
                J = own_cost(sys, r.K, q, np.eye(sys.n))
                if abs(J - r.report.J_ce) > COST_RTOL * (1.0 + abs(J)):
                    problems.append(f"{where}: J_CE {r.report.J_ce!r} != own {J!r}")
                if r.report.gap < -1e-9 * (1.0 + abs(r.report.J_star)):
                    problems.append(f"{where}: negative gap {r.report.gap!r}")
            if not (r.complexity.infinite or r.complexity.min_N > r.complexity.bound > 0.0):
                problems.append(f"{where}: inconsistent sample bound {r.complexity}")
        return problems


class Regions(Workload):
    """Offline (q, q_hat) region maps and zero-sample safe rates."""

    name = "regions"
    unit = "cell"
    # (plant, sufficient variant, grid step).  The scalar_iff step puts the
    # last grid value at 0.444, 4.4e-4 below q_c = 4/9, where the Riccati
    # fixed point needs about 20k iterations.
    MAPS = (
        ("example1", "general", 0.01),
        ("example1", "scalar_iff", 0.00888),
        ("example2", "invertible_B", 0.01),
        ("plant3", "general", 0.01),
    )
    SMOKE_MAPS = (("example1", "scalar_iff", 0.01), ("plant3", "general", 0.01))
    # (plant, threshold variant, the paper's zero-sample safe rate)
    SAFE = (
        ("example1", "general", 0.128),
        ("example1", "scalar", 0.231),
        ("example2", "general", 0.104),
        ("example2", "invertible_B", 0.167),
    )
    SAFE_TOL = 2e-3
    # Columns per map checked against the benchmark's own Riccati gains.
    OWN_GAIN_COLUMNS = 3

    def __init__(self, L, seed, smoke):
        super().__init__(L, seed, smoke)
        self.plants = fixed_plants(L)
        maps = [("region_map", plant, variant, step) for plant, variant, step in (self.SMOKE_MAPS if smoke else self.MAPS)]
        safe = [("zero_sample_safe_q", plant, variant, paper) for plant, variant, paper in self.SAFE]
        self.specs = [(maps + safe)[i] for i in self.rng.permutation(len(maps) + len(safe))]
        self.ops = [(" ".join(map(str, spec)), self._op(*spec)) for spec in self.specs]

    def _op(self, func, plant, variant, step):
        L, sys = self.L, self.plants[plant]
        if func == "region_map":
            return lambda: L.region_map(sys, step, variant)
        return lambda: L.zero_sample_safe_q(sys, variant)

    def units(self, results):
        return sum(r.cells.size for (func, *_), r in zip(self.specs, results) if func == "region_map")

    def fingerprint(self, results):
        return tuple(
            r.cells.tobytes() + r.exact_stable.tobytes() if func == "region_map" and not isinstance(r, Exception) else repr(r)
            for (func, *_), r in zip(self.specs, results)
        )

    def check(self, results):
        problems = []
        codes = self.L.stability
        for (func, plant, variant, extra), r in zip(self.specs, results):
            if isinstance(r, Exception):
                continue
            if func == "zero_sample_safe_q":
                if abs(r - extra) > self.SAFE_TOL:
                    problems.append(f"safe rate {plant}/{variant} = {r:.6f}, paper {extra}")
                continue
            tag = f"region_map {plant}/{variant}"
            blue, red = r.cells == codes.CELL_BLUE, r.cells == codes.CELL_RED
            if np.any(blue & ~r.exact_stable):
                problems.append(f"{tag}: {int(np.sum(blue & ~r.exact_stable))} blue cells are unstable")
            if np.any(red & r.exact_stable):
                problems.append(f"{tag}: {int(np.sum(red & r.exact_stable))} red cells are stable")
            if variant == "scalar_iff" and np.any(r.cells == codes.CELL_GRAY):
                problems.append(f"{tag}: {int(np.sum(r.cells == codes.CELL_GRAY))} gray cells under the iff test")
            if plant == "example1":
                problems += self._check_example1(tag, r)
            else:
                problems += self._check_own_gains(tag, self.plants[plant], r)
        return problems

    def _check_example1(self, tag, rm):
        mismatches = 0
        for j, q_hat in enumerate(rm.q_hat_grid):
            for i, q in enumerate(rm.q_grid):
                rho, _ = scalar_example1_rho(float(q), float(q_hat))
                if not _near_boundary(rho) and (rho < 1.0 - RHO_MARGIN) != rm.exact_stable[i, j]:
                    mismatches += 1
        return [f"{tag}: {mismatches} oracle verdicts differ from the closed form"] if mismatches else []

    def _check_own_gains(self, tag, sys, rm):
        columns = self.rng.choice(len(rm.q_hat_grid), size=min(self.OWN_GAIN_COLUMNS, len(rm.q_hat_grid)), replace=False)
        mismatches = 0
        for j in columns:
            K = own_mare_gain(sys, float(rm.q_hat_grid[j]))
            for i, q in enumerate(rm.q_grid):
                rho = own_rho(sys.A, sys.B, K, float(q))
                if not _near_boundary(rho) and (rho < 1.0 - RHO_MARGIN) != rm.exact_stable[i, j]:
                    mismatches += 1
        return [f"{tag}: {mismatches} sampled verdicts differ from own gains"] if mismatches else []


@dataclass(frozen=True)
class MonteCarloRun:
    label: str
    plant: str
    kind: str  # cost | decay
    q: float
    q_hat: float
    x0: object  # state vector, or (mean, covariance) for Gaussian initial states
    horizon: int
    trajectories: int
    paper_value: float | None = None  # J_CE for a cost run, rho for a decay run


class MonteCarlo(Workload):
    """Seeded closed-loop rollouts: Monte Carlo costs and empirical decay checks."""

    name = "montecarlo"
    unit = "trajectory"
    RUNS = (
        MonteCarloRun("cost example1", "example1", "cost", 0.2, 0.0, (1.0,), 200, 4000, 4.7045),
        MonteCarloRun("decay example2", "example2", "decay", 0.2, 0.1633, (0.9325, 1.1616), 8, 8000),
        MonteCarloRun("decay example1", "example1", "decay", 0.4, 0.0, (1.0,), 10, 8000, 1.00244),
        MonteCarloRun(
            "cost example2 gaussian x0", "example2", "cost", 0.2, 0.1633, ((0.0, 0.0), ((1.0, 0.0), (0.0, 4.0))), 50, 2000
        ),
    )
    SMOKE_SCALE = 10
    # Trajectories compared one by one against the batched rollout.
    ORDER_CHECK_COUNT = 8

    def __init__(self, L, seed, smoke):
        super().__init__(L, seed, smoke)
        self.plants = fixed_plants(L)
        self.cases = []
        for i in self.rng.permutation(len(self.RUNS)):
            run = self.RUNS[i]
            sys = self.plants[run.plant]
            K = L.ce_gain(sys, run.q_hat)[0].K
            count = max(run.trajectories // self.SMOKE_SCALE, 100) if smoke else run.trajectories
            cfg = L.SimConfig(seed=int(self.rng.integers(0, 2**62)), horizon=run.horizon, trajectories=count)
            if isinstance(run.x0[0], tuple):
                x0 = (np.array(run.x0[0]), np.array(run.x0[1]))
            else:
                x0 = np.array(run.x0)
            self.cases.append((run, sys, K, x0, cfg))
        self.ops = [(run.label, self._op(run, sys, K, x0, cfg)) for run, sys, K, x0, cfg in self.cases]

    def _op(self, run, sys, K, x0, cfg):
        L = self.L
        if run.kind == "cost":
            return lambda: L.monte_carlo_cost(sys, K, run.q, x0, cfg)
        return lambda: L.empirical_ms_decay(sys, K, run.q, x0, cfg)

    def units(self, results):
        return sum(cfg.trajectories for _, _, _, _, cfg in self.cases)

    def fingerprint(self, results):
        return tuple(repr(r) for r in results)

    def check(self, results):
        L = self.L
        problems = []
        for (run, sys, K, x0, cfg), r in zip(self.cases, results):
            if isinstance(r, Exception):
                continue
            rho = own_rho(sys.A, sys.B, K, run.q)
            if run.plant == "example1":
                rho_closed, k = scalar_example1_rho(run.q, run.q_hat)
                if abs(k - K[0, 0]) > 1e-9 * (1.0 + abs(k)):
                    problems.append(f"{run.label}: gain {K[0, 0]!r} != closed form {k!r}")
                if abs(rho - rho_closed) > RHO_RTOL:
                    problems.append(f"{run.label}: lifted rho {rho!r} != closed form {rho_closed!r}")
            if run.kind == "decay":
                if abs(r.log_rho - math.log(rho)) > 1e-9:
                    problems.append(f"{run.label}: log_rho {r.log_rho!r} != own {math.log(rho)!r}")
                if r.window != (run.horizon // 2, run.horizon) or not math.isfinite(r.slope):
                    problems.append(f"{run.label}: bad fit window {r.window} or slope {r.slope}")
                if run.paper_value is not None and abs(rho - run.paper_value) > 1e-5:
                    problems.append(f"{run.label}: rho {rho} is not the paper's {run.paper_value}")
                continue
            mean, std_err = r
            X0 = x0[1] + np.outer(x0[0], x0[0]) if isinstance(x0, tuple) else np.outer(x0, x0)
            J = own_cost(sys, K, run.q, X0)
            if run.paper_value is not None and abs(J - run.paper_value) > 1e-4:
                problems.append(f"{run.label}: own J_CE {J} is not the paper's {run.paper_value}")
            if not mean_agrees(mean, std_err, J):
                problems.append(f"{run.label}: mean {mean:.5f} +- {std_err:.5f} disagrees with J_CE {J:.5f}")
            small = L.SimConfig(seed=cfg.seed, horizon=cfg.horizon, trajectories=self.ORDER_CHECK_COUNT)
            batched, _ = L.monte_carlo_cost(sys, K, run.q, x0, small)
            single = np.mean(
                [
                    L.simulate_trajectory(sys, K, run.q, x0, small, trajectory_index=k).realized_cost
                    for k in range(self.ORDER_CHECK_COUNT)
                ]
            )
            if abs(batched - single) > 1e-12 * (1.0 + abs(single)):
                problems.append(f"{run.label}: batched mean {batched!r} != one-by-one mean {single!r}")
        return problems

    def notes(self, results):
        return "; ".join(
            f"{run.label}: " + (f"slope {r.slope:.4f} vs log rho {r.log_rho:.4f}" if run.kind == "decay" else f"mean {r[0]:.4f} +- {r[1]:.4f}")
            for (run, *_), r in zip(self.cases, results)
            if not isinstance(r, Exception)
        )


WORKLOADS = {cls.name: cls for cls in (Design, Regions, MonteCarlo)}
