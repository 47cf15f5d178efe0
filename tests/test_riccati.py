import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lossylqr import (
    DimensionError,
    InvalidInputError,
    NoSolutionError,
    SystemSpec,
    ce_gain,
    certify_ce_controller,
    critical_probability,
    dare_solve,
    exact_ms_stable,
    gap,
    gap_curve,
    mare_solve,
    min_samples,
    optimal_cost,
    region_map,
    zero_sample_safe_q,
)
from lossylqr import riccati
from lossylqr.riccati import CriticalProbability
from lossylqr.stability import _threshold_curve
from conftest import feasible_rate_ceiling, random_stabilizable_system, scalar_mare_root


class TestSystemSpec:
    def test_scalar_coercion(self, example1):
        assert example1.n == 1 and example1.m == 1 and example1.is_scalar

    def test_rejects_indefinite_q(self):
        with pytest.raises(InvalidInputError):
            SystemSpec(A=np.eye(2), B=np.eye(2), Q=np.diag([1.0, 0.0]), R=np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            SystemSpec(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=1.0)

    def test_non_stabilizable_detected_by_solver(self):
        # Unstable mode unreachable from the input.
        sys = SystemSpec(A=np.diag([2.0, 0.5]), B=np.array([[0.0], [1.0]]), Q=np.eye(2), R=1.0)
        with pytest.raises(NoSolutionError):
            dare_solve(sys)


class TestMareSolve:
    @pytest.mark.parametrize("q,expected", [(0.0, 2.63020), (0.2, 4.49537)])
    def test_scalar_against_quadratic_root(self, example1, q, expected):
        sol = mare_solve(example1, q)
        assert sol.P[0, 0] == pytest.approx(scalar_mare_root(q), rel=1e-10)
        assert sol.P[0, 0] == pytest.approx(expected, abs=5e-6)
        assert sol.residual <= 1e-10

    def test_zero_state_matrix_gives_q(self):
        sys = SystemSpec(A=np.zeros((2, 2)), B=np.array([[1.0], [0.5]]), Q=np.diag([2.0, 3.0]), R=2.0)
        for q in (0.0, 0.3, 0.9):
            np.testing.assert_allclose(mare_solve(sys, q).P, sys.Q, atol=1e-12)

    def test_diverges_above_critical(self, example1):
        with pytest.raises(NoSolutionError):
            mare_solve(example1, 0.5)

    @pytest.mark.parametrize("dq, step", [(1e-3, 2500), (1e-5, 5500)])
    def test_stall_reports_its_step(self, example1, dq, step):
        with pytest.raises(NoSolutionError, match=f"stalled at step {step} at q=") as info:
            mare_solve(example1, 4.0 / 9.0 + dq)
        assert "within" not in str(info.value)

    def test_non_stabilizable_pair_diverges(self):
        sys = SystemSpec(A=2.0, B=0.0, Q=1.0, R=1.0)
        with pytest.raises(NoSolutionError, match="diverged"):
            mare_solve(sys, 0.0)

    def test_rejects_out_of_range_rate(self, example1):
        with pytest.raises(InvalidInputError):
            mare_solve(example1, 1.0)
        with pytest.raises(InvalidInputError):
            mare_solve(example1, -0.1)

    def test_dare_equals_rate_zero(self, example2):
        np.testing.assert_array_equal(dare_solve(example2).P, mare_solve(example2, 0.0).P)

    def test_residuals_below_tolerance(self, example2):
        for q in np.linspace(0.0, 0.4, 9):
            assert mare_solve(example2, float(q)).residual <= 1e-10

    def test_loewner_monotone_in_rate(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            sys = random_stabilizable_system(rng)
            ceiling = 0.9 * feasible_rate_ceiling(sys)
            rates = np.linspace(0.0, ceiling, 8)
            solutions = [mare_solve(sys, float(q)).P for q in rates]
            for lower, higher in zip(solutions, solutions[1:]):
                diff_min = np.linalg.eigvalsh(higher - lower)[0]
                assert diff_min >= -1e-8

    def test_continuity_in_rate(self, example1, example2):
        for sys, q in ((example1, 0.2), (example2, 0.25)):
            P = mare_solve(sys, q).P
            for dq in (1e-4, -1e-4):
                P_near = mare_solve(sys, q + dq).P
                assert np.linalg.norm(P_near - P) <= 1e-2 * (1.0 + np.linalg.norm(P))


class TestCriticalProbability:
    def test_scalar_invertible(self, example1):
        cp = critical_probability(example1)
        assert cp.method == "invertible_B"
        assert cp.exact == pytest.approx(1.0 / 1.5**2, rel=1e-12)
        assert cp.exact == pytest.approx(0.44444, abs=5e-6)

    def test_rank_one_input(self):
        sys = SystemSpec(A=np.diag([1.5, 2.0]), B=np.array([[1.0], [1.0]]), Q=np.eye(2), R=1.0)
        cp = critical_probability(sys)
        assert cp.method == "rank_one_B"
        assert cp.exact == pytest.approx(1.0 / (2.25 * 4.0), rel=1e-12)
        assert cp.exact == pytest.approx(0.11111, abs=5e-6)

    def test_marginal_eigenvalue_not_unstable(self, example2):
        cp = critical_probability(example2)
        assert cp.exact == pytest.approx(1.0 / 2.25, rel=1e-12)
        assert cp.unstable_moduli == (1.5,)

    def test_schur_stable_unconstrained(self):
        sys = SystemSpec(A=0.5, B=1.0, Q=1.0, R=1.0)
        cp = critical_probability(sys)
        assert cp.exact == 1.0
        for q in (0.0, 0.5, 0.95):
            mare_solve(sys, q)

    def test_solver_feasibility_matches_exact_value(self, example1, example2):
        for sys in (example1, example2):
            qc = critical_probability(sys).exact
            mare_solve(sys, qc * (1.0 - 1e-3))
            with pytest.raises(NoSolutionError):
                mare_solve(sys, qc * (1.0 + 1e-2))

    def test_bisection_for_general_input(self):
        # B of rank 2 that is neither square-invertible nor rank one.
        sys = SystemSpec(
            A=np.diag([1.3, 1.2, 0.4]),
            B=np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]]),
            Q=np.eye(3),
            R=np.eye(2),
        )
        bracket = critical_probability(sys, refine=False)
        assert bracket.method == "bracket_only"
        assert bracket.lower <= bracket.upper
        refined = critical_probability(sys)
        assert refined.method == "bisection"
        assert bracket.lower - 1e-12 <= refined.lower <= refined.upper <= bracket.upper + 1e-12
        assert refined.upper - refined.lower <= 1e-6
        mare_solve(sys, refined.lower - 1e-3)
        with pytest.raises(NoSolutionError):
            mare_solve(sys, min(refined.upper + 1e-2, 0.999))


class TestNearCritical:
    @pytest.mark.parametrize("q", [0.5916, 0.5917])
    def test_feasible_rate_just_below_critical_is_solved(self, plant3, q):
        sol = mare_solve(plant3, q)
        assert sol.residual <= 1e-10
        gain, _ = ce_gain(plant3, q)
        assert exact_ms_stable(plant3, gain, q).stable

    def test_bisection_bracket_contains_critical(self, plant3):
        cp = critical_probability(plant3)
        # The bracket's upper end is evaluated as 1 / 1.3**2, which rounds
        # just below 1 / 1.69.
        assert cp.lower <= 1.0 / 1.69 <= cp.upper + 1e-12

    @pytest.mark.parametrize("q", [0.444, 0.4444])
    def test_scalar_close_to_critical(self, example1, q):
        sol = mare_solve(example1, q)
        assert sol.P[0, 0] == pytest.approx(scalar_mare_root(q), rel=1e-10)
        assert sol.iterations <= 200

    def test_rate_stabilized_by_some_gain_is_solved(self):
        # A mean-square stabilizing gain at q2 proves q2 feasible, so the
        # solver must not declare it infeasible.
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(40):
            sys = random_stabilizable_system(rng)
            cp = critical_probability(sys, refine=False)
            q1 = float(feasible_rate_ceiling(sys) * rng.uniform(0.9, 0.9999))
            q2 = float(rng.uniform(q1, min(cp.upper, 0.9999)))
            gain, _ = ce_gain(sys, q1)
            if exact_ms_stable(sys, gain, q2).stable:
                checked += 1
                mare_solve(sys, q2)
        assert checked >= 10


def plain_critical_probability(sys: SystemSpec) -> CriticalProbability:
    """Reference for `critical_probability` on a bracketed q_c: the plain
    bisection, with one `mare_solve` per probe."""
    bracket = critical_probability(sys, refine=False)
    assert bracket.method == "bracket_only" and bracket.upper - bracket.lower > riccati.QC_BISECT_TOL

    def feasible(q: float) -> bool:
        try:
            mare_solve(sys, q)
            return True
        except NoSolutionError:
            return False

    lo, hi = bracket.lower, bracket.upper
    if not feasible(lo):
        return CriticalProbability(lo, lo, None, "bisection", bracket.unstable_moduli)
    while hi - lo > riccati.QC_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return CriticalProbability(lo, hi, None, "bisection", bracket.unstable_moduli)


def qc_bits(cp: CriticalProbability) -> tuple:
    return cp.lower.hex(), cp.upper.hex(), cp.exact, cp.method, cp.unstable_moduli


class TestCriticalProbabilityBisection:
    """`critical_probability` solves its probes in lock-step and returns the plain bisection's bracket."""

    def test_plant3(self, plant3):
        assert qc_bits(critical_probability(plant3)) == qc_bits(plain_critical_probability(plant3))

    def test_infeasible_lower_end(self):
        # Both unstable modes are driven by the same input, so q_c is the
        # bracket's lower end, where the solver gives up.
        sys = SystemSpec(
            A=np.diag([1.2, 1.1, 0.0]), B=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), Q=np.eye(3), R=np.eye(2)
        )
        cp = critical_probability(sys)
        assert cp.lower == cp.upper == critical_probability(sys, refine=False).lower
        assert qc_bits(cp) == qc_bits(plain_critical_probability(sys))

    def test_random_plants(self):
        # The bracketed plants among the first 19 draws (2 has an infeasible
        # lower end), but for draw 14, whose probes stall for over a second.
        rng = np.random.default_rng(7)
        plants = [random_stabilizable_system(rng, 5) for _ in range(19)]
        for i in (2, 13, 18):
            assert qc_bits(critical_probability(plants[i])) == qc_bits(plain_critical_probability(plants[i])), i


def plain_bisection(lo: float, hi: float, tol: float, root: float) -> tuple[list[float], tuple[float, float]]:
    """The midpoints that the plain bisection of [lo, hi] to width tol probes
    when the root is `root` (a midpoint below it becomes lo), and its bracket."""
    path = []
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        path.append(mid)
        lo, hi = (mid, hi) if mid < root else (lo, mid)
    return path, (lo, hi)


class TestBisectionLookahead:
    """`_bisect_rates` batches: the look-ahead tree for a binary verdict, and the
    path predicted from graded scores; either way the plain bisection's bracket."""

    def test_qc_refinement_keeps_the_tree(self, plant3, batches):
        # 18 steps from the bracket [0.4109, 0.5917] to width 1e-6: four trees of
        # 4 steps and one of 2, as without graded scores.
        assert critical_probability(plant3).method == "bisection"
        assert batches == [15, 15, 15, 15, 3]

    def test_band_batch_holds_every_path(self):
        lo, hi, tol, r = 0.1, 0.2, 1e-6, 0.1234567
        w = riccati.BISECT_BAND * tol
        probes = set(riccati._bisection_midpoints(lo, hi, tol, math.inf, (r - w, r + w)))
        for root in np.linspace(r - w, r + w, 101).tolist() + [r - w, r + w]:
            assert set(plain_bisection(lo, hi, tol, root)[0]) <= probes
        assert len(probes) < 40

    def test_lying_scores_still_give_the_plain_bracket(self, example1, batches):
        # The signs are true but the grades mislead the interpolation.
        root = 0.2345678

        def lying(qs, outcomes):
            return [(1.0 if q < root else -1.0) * (1.0 + 50.0 * abs(q - 0.3)) for q in qs]

        bracket = riccati._bisect_rates(example1, 0.0, 0.4, 1e-6, lying, {})
        assert [x.hex() for x in bracket] == [x.hex() for x in plain_bisection(0.0, 0.4, 1e-6, root)[1]]
        assert len(batches) > 2

    def test_linear_scores_take_two_batches(self, example1, batches):
        root = 0.2345678
        bracket = riccati._bisect_rates(example1, 0.0, 0.4, 1e-6, lambda qs, outcomes: [root - q for q in qs], {})
        assert [x.hex() for x in bracket] == [x.hex() for x in plain_bisection(0.0, 0.4, 1e-6, root)[1]]
        assert len(batches) == 2 and batches[0] == 15


class TestPolicyPhaseWithoutMembers:
    def test_no_first_gain_passes(self, example1, monkeypatch):
        # From X = Q = 1 the gain is -0.75, and rho = 0.5625 (1 - q) + 2.25 q > 1 at each rate.
        solves = []
        monkeypatch.setattr(riccati, "_solve_each", lambda a, b: solves.append(len(a)))
        q = np.array([0.3, 0.4, 0.44]).reshape(-1, 1, 1)
        _, steps, residual, solved = riccati._policy_iteration_rates(example1, q, 1.0 - q, np.ones((3, 1, 1)), 1.0)
        assert solves == []
        assert steps.tolist() == [0, 0, 0] and np.isinf(residual).all() and not solved.any()


class TestCeGain:
    @pytest.mark.parametrize("q_hat,expected", [(0.0, -1.08680), (0.2, -1.22704)])
    def test_scalar_values(self, example1, q_hat, expected):
        gain, sol = ce_gain(example1, q_hat)
        p = scalar_mare_root(q_hat)
        assert gain.K[0, 0] == pytest.approx(-1.5 * p / (1.0 + p), rel=1e-10)
        assert gain.K[0, 0] == pytest.approx(expected, abs=5e-6)
        assert sol.q_used == q_hat

    def test_zero_state_matrix_gives_zero_gain(self):
        sys = SystemSpec(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        gain, _ = ce_gain(sys, 0.3)
        np.testing.assert_allclose(gain.K, np.zeros((2, 2)), atol=1e-14)

    def test_propagates_no_solution(self, example1):
        with pytest.raises(NoSolutionError):
            ce_gain(example1, 0.48)


class TestOptimalCost:
    def test_trace_identity(self):
        assert optimal_cost(np.eye(2), np.diag([2.0, 3.0])) == pytest.approx(5.0)

    def test_scalar_example(self, example1):
        P = mare_solve(example1, 0.2).P
        assert optimal_cost(P, np.array([[1.0]])) == pytest.approx(4.49537, abs=5e-6)

    def test_zero_initial_moment(self):
        assert optimal_cost(np.eye(3), np.zeros((3, 3))) == 0.0

    def test_rejects_indefinite_p(self):
        with pytest.raises(InvalidInputError):
            optimal_cost(np.diag([1.0, -1.0]), np.eye(2))


class TestNoSolutionReason:
    def test_non_stabilizable_pair_diverged(self):
        with pytest.raises(NoSolutionError) as info:
            mare_solve(SystemSpec(A=2.0, B=0.0, Q=1.0, R=1.0), 0.0)
        assert info.value.reason == "diverged"

    def test_above_critical_stalled(self, example1):
        with pytest.raises(NoSolutionError) as info:
            mare_solve(example1, 4.0 / 9.0 + 1e-3)
        assert info.value.reason == "stalled"

    def test_step_cap(self, example1, monkeypatch):
        monkeypatch.setattr(riccati, "MAX_ITERATIONS", 5)
        with pytest.raises(NoSolutionError, match="within 5 steps") as info:
            mare_solve(example1, 0.45)
        assert info.value.reason == "cap"


@pytest.fixture
def solve_count(monkeypatch):
    """Start `mare_solve` with an empty memo and count the solves it really runs."""
    monkeypatch.setattr(riccati, "_memo", {})
    count = [0]
    inner = riccati._mare_solve

    def counted(sys, q):
        count[0] += 1
        return inner(sys, q)

    monkeypatch.setattr(riccati, "_mare_solve", counted)
    return count


class TestMareMemo:
    def test_returned_solution_is_shared_and_read_only(self, example1, solve_count):
        sol = mare_solve(example1, 0.2)
        assert mare_solve(example1, 0.2) is sol
        assert solve_count[0] == 1
        with pytest.raises(ValueError):
            sol.P[0, 0] = 0.0

    def test_in_place_change_of_plant_solves_again(self, solve_count):
        sys = SystemSpec(A=1.5, B=1.0, Q=1.0, R=1.0)
        before = mare_solve(sys, 0.2).P[0, 0]
        sys.A[0, 0] = 1.2
        after = mare_solve(sys, 0.2)
        assert solve_count[0] == 2
        np.testing.assert_array_equal(after.P, mare_solve(SystemSpec(A=1.2, B=1.0, Q=1.0, R=1.0), 0.2).P)
        assert after.P[0, 0] == pytest.approx(scalar_mare_root(0.2, a=1.2), rel=1e-10)
        assert after.P[0, 0] != before

    def test_oldest_problem_is_evicted(self, example2, solve_count):
        rates = [0.05 * (i + 1) for i in range(riccati._MEMO_SIZE + 1)]
        first = [mare_solve(example2, q) for q in rates]
        assert solve_count[0] == riccati._MEMO_SIZE + 1
        assert mare_solve(example2, rates[-1]) is first[-1]
        assert solve_count[0] == riccati._MEMO_SIZE + 1
        again = mare_solve(example2, rates[0])
        assert solve_count[0] == riccati._MEMO_SIZE + 2
        assert again is not first[0]
        np.testing.assert_array_equal(again.P, first[0].P)

    def test_standard_solution_outlives_other_rates(self, example2, solve_count):
        standard = dare_solve(example2)
        for i in range(2 * riccati._MEMO_SIZE):
            mare_solve(example2, 0.02 * (i + 1))
        assert solve_count[0] == 2 * riccati._MEMO_SIZE + 1
        assert dare_solve(example2) is standard
        assert mare_solve(example2, 0.0) is standard
        assert solve_count[0] == 2 * riccati._MEMO_SIZE + 1

    def test_oldest_standard_solution_is_evicted(self, solve_count):
        plants = [SystemSpec(A=1.5 + 0.01 * i, B=1.0, Q=1.0, R=1.0) for i in range(riccati._STANDARD_MEMO_SIZE + 1)]
        first = [dare_solve(sys) for sys in plants]
        assert solve_count[0] == len(plants)
        assert dare_solve(plants[-1]) is first[-1]
        assert dare_solve(plants[1]) is first[1]
        assert solve_count[0] == len(plants)
        again = dare_solve(plants[0])
        assert solve_count[0] == len(plants) + 1
        assert again is not first[0]
        np.testing.assert_array_equal(again.P, first[0].P)

    def test_two_lru_tiers(self, solve_count):
        # A random call sequence against a model: one least-recently-returned
        # list per tier, of _MEMO_SIZE rates other than 0 and
        # _STANDARD_MEMO_SIZE standard solutions.
        rng = np.random.default_rng(3)
        plants = [SystemSpec(A=1.2 + 0.05 * i, B=1.0, Q=1.0, R=1.0) for i in range(12)]
        tiers = {True: [], False: []}
        limits = {True: riccati._STANDARD_MEMO_SIZE, False: riccati._MEMO_SIZE}
        solves = 0
        for _ in range(400):
            problem = (int(rng.integers(len(plants))), float(rng.choice([0.0, 0.0, 0.1, 0.2, 0.3])))
            tier = tiers[problem[1] == 0.0]
            if problem in tier:
                tier.remove(problem)
            else:
                solves += 1
            tier.append(problem)
            del tier[: -limits[problem[1] == 0.0]]
            mare_solve(plants[problem[0]], problem[1])
            assert solve_count[0] == solves

    def test_failure_is_solved_on_every_call(self, example1, solve_count):
        for calls in (1, 2, 3):
            with pytest.raises(NoSolutionError):
                mare_solve(example1, 0.5)
            assert solve_count[0] == calls

    def test_rate_type_is_part_of_the_problem(self, example1, solve_count):
        assert type(mare_solve(example1, 0).q_used) is int
        assert type(mare_solve(example1, 0.0).q_used) is float
        assert solve_count[0] == 2

    def test_concurrent_callers_share_the_memo(self, example1, solve_count):
        # Rates other than 0 of one plant, and the standard solutions of more
        # plants than either tier holds.
        plants = [SystemSpec(A=1.5 + 0.01 * i, B=1.0, Q=1.0, R=1.0) for i in range(riccati._STANDARD_MEMO_SIZE + 2)]
        problems = [(example1, 0.02 * i) for i in range(2 * riccati._MEMO_SIZE)] + [(p, 0.0) for p in plants]
        expected = [riccati._mare_solve(p, q).P.tobytes() for p, q in problems]
        errors = []

        def caller(offset):
            try:
                for i in range(60):
                    k = (i * 3 + offset) % len(problems)
                    p, q = problems[k]
                    if mare_solve(p, q).P.tobytes() != expected[k]:
                        errors.append(f"wrong solution of problem {k} at q={q}")
            except Exception as exc:  # collected and reported by the main thread
                errors.append(repr(exc))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        standard = sum(sol.q_used == 0 for sol in riccati._memo.values())
        assert standard <= riccati._STANDARD_MEMO_SIZE
        assert len(riccati._memo) - standard <= riccati._MEMO_SIZE

    def test_design_loop_solves_each_rate_once(self, example2, solve_count, monkeypatch):
        X0 = np.eye(2)
        for q, q_hat, N in ((0.1, 0.12, 300), (0.2, 0.1633, 1000), (0.3, 0.28, 3000)):
            monkeypatch.setattr(riccati, "_memo", {})
            solve_count[0] = 0
            gain, _ = ce_gain(example2, q_hat)
            certify_ce_controller(example2, q_hat, N, 0.05)
            assert exact_ms_stable(example2, gain, q).stable
            gap(example2, q, q_hat, X0)
            min_samples(example2, q, 0.05, "general")
            assert solve_count[0] == 3


class TestHewerCertificate:
    """Later Hewer steps are certified by their own Lyapunov solve."""

    @staticmethod
    def scalar_case(rho: float, P: float | None = None) -> bool:
        # 1x1 map L^T = rho with cost = Q = 1, solved exactly by P = 1 / (1 - rho).
        P = 1.0 / (1.0 - rho) if P is None else P
        return riccati._solve_certifies(np.array([[rho]]), np.array([[P]]), np.array([[1.0]]), 1.0)

    def test_stable_map_is_certified(self):
        assert self.scalar_case(0.5)

    def test_radius_inside_margin_is_not_certified(self):
        assert not self.scalar_case(1.0 - 1e-10)

    def test_negative_solution_is_not_certified(self):
        # rho = 1.5 gives P = -2 with zero residual; only P > 0 rules it out.
        assert not self.scalar_case(1.5)

    def test_large_residual_is_not_certified(self):
        # P = 5 instead of 2: E = 5 - 2.5 - 1 = 1.5 exceeds lambda_min(Q) = 1.
        assert not self.scalar_case(0.5, P=5.0)

    @pytest.mark.parametrize(
        "Q, certified",
        [(np.eye(2), True), (np.diag([1.0, 1e-12]), False)],
        ids=["bound_passes", "bound_fails"],
    )
    def test_dense_route_gives_the_same_solution(self, monkeypatch, Q, certified):
        sys = SystemSpec(A=[[1.5, 0.1], [0.0, 1.0]], B=np.eye(2), Q=Q, R=np.eye(2))
        outcomes = []
        bound = riccati._solve_certifies

        def recorded(*args):
            outcomes.append(bound(*args))
            return outcomes[-1]

        monkeypatch.setattr(riccati, "_solve_certifies", recorded)
        solutions = [riccati._mare_solve(sys, q) for q in (0.1, 0.3, 0.44)]
        assert outcomes and set(outcomes) == {certified}
        monkeypatch.setattr(riccati, "_solve_certifies", lambda *args: False)
        for q, sol in zip((0.1, 0.3, 0.44), solutions):
            dense = riccati._mare_solve(sys, q)
            np.testing.assert_array_equal(sol.P, dense.P)
            assert (sol.iterations, sol.residual) == (dense.iterations, dense.residual)

    @pytest.mark.parametrize(
        "q, P, iterations, residual",
        [
            (0.40, 22.93599589252026, 7, 1.4842556352170354e-16),
            (0.44, 225.44356998076535, 13, 0.0),
            (0.444, 2250.444356687519, 21, 0.0),
        ],
    )
    def test_pinned_near_critical(self, example1, q, P, iterations, residual):
        sol = riccati._mare_solve(example1, q)
        assert (sol.P[0, 0], sol.iterations, sol.residual) == (P, iterations, residual)


def solve_outcome(result) -> tuple:
    """Everything a solve reports: the bytes of P, the step count, the residual
    and the rate's repr, or the error's type, reason and message."""
    if isinstance(result, Exception):
        return type(result).__name__, result.reason, str(result)
    return result.P.tobytes(), result.iterations, result.residual, repr(result.q_used)


def solve_each_rate(sys, qs) -> list:
    """Reference for `_mare_solve_rates`: one `_mare_solve` per rate."""
    outcomes = []
    for q in qs:
        try:
            outcomes.append(riccati._mare_solve(sys, q))
        except NoSolutionError as exc:
            outcomes.append(exc)
    return outcomes


def lockstep_test_rates(sys) -> list[float]:
    """0 up to 0.9995 of the feasible ceiling, and two rates above the upper end
    of the q_c bracket when it lies below 1."""
    ceiling = feasible_rate_ceiling(sys)
    rates = [f * ceiling for f in (0.0, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999, 0.9995)]
    upper = critical_probability(sys, refine=False).upper
    return rates + [upper + f * (1.0 - upper) for f in (1e-3, 0.3) if upper < 1.0]


class TestLockstepSolve:
    """`_mare_solve_rates` gives every rate the bits of its own `_mare_solve`."""

    def assert_same_as_each_rate(self, sys, qs):
        solved = riccati._mare_solve_rates(sys, qs)
        assert len(solved) == len(qs)
        for q, expected, got in zip(qs, solve_each_rate(sys, qs), solved):
            assert solve_outcome(got) == solve_outcome(expected), q
        return solved

    def test_paper_plants_and_random_plants(self, example1, example2, plant3):
        rng = np.random.default_rng(11)
        plants = [example1, example2, plant3] + [random_stabilizable_system(rng, 5) for _ in range(40)]
        reasons = set()
        for sys in plants:
            solved = self.assert_same_as_each_rate(sys, lockstep_test_rates(sys))
            reasons.update(r.reason for r in solved if isinstance(r, NoSolutionError))
        assert {"diverged", "stalled"} <= reasons

    def test_grid_of_a_fine_region_map(self, example1):
        self.assert_same_as_each_rate(example1, np.arange(0.0, 4.0 / 9.0, 0.001).tolist())

    def test_one_rate_and_no_rate(self, example2):
        self.assert_same_as_each_rate(example2, [0.3])
        self.assert_same_as_each_rate(example2, [0])
        assert riccati._mare_solve_rates(example2, []) == []

    def test_step_cap(self, example1, monkeypatch):
        monkeypatch.setattr(riccati, "MAX_ITERATIONS", 5)
        solved = self.assert_same_as_each_rate(example1, [0.1, 0.45, 0.2, 0.5])
        assert [getattr(r, "reason", None) for r in solved] == [None, "cap", None, "cap"]

    @pytest.mark.parametrize("bound", [4.4, 5.0])
    def test_divergence_beside_other_exits(self, example1, monkeypatch, bound):
        # Solution norms 3.3, 7.3, 22.9, 225 and 2250: policy phases solve the
        # first three rates before their iterates pass the bound, and the last
        # two diverge.  Under 4.4 both diverge at step 2, the step whose policy
        # phase solves 0.4.
        monkeypatch.setattr(riccati, "DIVERGENCE_NORM", bound)
        solved = self.assert_same_as_each_rate(example1, [0.1, 0.3, 0.4, 0.44, 0.444])
        assert [getattr(r, "reason", None) for r in solved] == [None, None, None, "diverged", "diverged"]

    def test_later_gains_refused(self, example2, plant3, monkeypatch):
        # No solve certifies a gain, and the dense test also refuses every map
        # with rho < 0.6.  Each policy phase's gains have falling rho, so at
        # q = 0.2 on example2 and q = 0.3 on plant3 the first gain passes and
        # the second is refused, while other rates solve or fail at once.
        dense = riccati._dense_spectral_radius
        monkeypatch.setattr(riccati, "_solve_certifies", lambda L, P, cost, q_floor: np.zeros(P.shape[:-2], dtype=bool))
        monkeypatch.setattr(riccati, "_dense_spectral_radius", lambda M: np.where(dense(M) < 0.6, 2.0, dense(M)))
        for sys in (example2, plant3):
            self.assert_same_as_each_rate(sys, [0.0, 0.1, 0.2, 0.3, 0.4, 0.44])

    def test_several_stacks(self, example2, monkeypatch):
        # Two rates per stack at n = 2.
        monkeypatch.setattr(riccati, "LOCKSTEP_ENTRIES", 2 * 2**4)
        self.assert_same_as_each_rate(example2, [0.05 * i for i in range(9)] + [0.7])

    def test_rates_are_validated(self, example1):
        with pytest.raises(InvalidInputError):
            riccati._mare_solve_rates(example1, [0.1, 1.0])


class TestStackMemberFailure:
    """numpy fails a whole stacked solve or Cholesky factorization for one
    failing member; every other member must keep its own result."""

    def test_non_positive_definite_member(self):
        # 1x1 maps L^T = rho with cost = Q = 1, solved exactly by P = 1 / (1 - rho);
        # rho = 1.5 gives P = -2 with zero residual, which only Cholesky rejects.
        rho = np.array([0.5, 1.5, 0.25, 1.0 - 1e-10])
        P = 1.0 / (1.0 - rho)
        L, Ps, cost = rho.reshape(-1, 1, 1), P.reshape(-1, 1, 1), np.ones((4, 1, 1))
        stacked = riccati._solve_certifies(L, Ps, cost, 1.0)
        alone = [riccati._solve_certifies(L[i], Ps[i], cost[i], 1.0) for i in range(4)]
        assert stacked.tolist() == alone == [True, False, True, False]

    def test_singular_member(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4, 4)) + 4.0 * np.eye(4)
        a[1, :, 0] = 0.0
        # Column right-hand sides (the Hewer step) and square ones (region_map's pencil).
        for b in (rng.normal(size=(3, 4, 1)), rng.normal(size=(3, 4, 4))):
            x = riccati._solve_each(a, b)
            assert np.isnan(x[1]).all()
            for i in (0, 2):
                assert x[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


@pytest.fixture
def solved_alone(solve_count, monkeypatch):
    """The rates that `mare_solve` solves alone, starting from an empty memo."""
    rates = []
    counted = riccati._mare_solve

    def recorded(sys, q):
        rates.append(q)
        return counted(sys, q)

    monkeypatch.setattr(riccati, "_mare_solve", recorded)
    return rates


class TestLockstepCallers:
    """The grids of `region_map`, `_threshold_curve` and `gap_curve` and the
    probes of both bisections are solved in lock-step; only the standard
    Riccati solution, the true rate of a gap curve and the lower end of the
    q_c bracket are solved alone."""

    def test_region_map_solves_no_rate_alone(self, example2, solve_count):
        rm = region_map(example2, 0.01, "invertible_B")
        assert len(rm.q_hat_grid) == len(rm.q_grid) > 1
        assert solve_count[0] == 0

    def test_safe_rate_solves_only_the_dare_alone(self, example2, solved_alone):
        assert 0.0 < zero_sample_safe_q(example2, "invertible_B") < 1.0
        assert solved_alone == [0.0]

    def test_gap_curve_solves_only_the_true_rate_alone(self, example2, solved_alone):
        points = gap_curve(example2, 0.2, np.array([5.0, 5.0]), np.arange(0.0, 0.44, 0.01))
        assert len(points) == 44
        assert solved_alone == [0.2]

    def test_qc_bisection_solves_only_the_lower_end_alone(self, plant3, solve_count):
        assert critical_probability(plant3).method == "bisection"
        assert solve_count[0] == 1

    def test_threshold_curve_from_zero_solves_no_rate_alone(self, example2, solve_count):
        rows = list(_threshold_curve(example2, "general", 0.0, None, 0.01))
        assert len(rows) > 10
        assert solve_count[0] == 0


PINNED_GENERAL_B = Path(__file__).parent / "data" / "pinned_general_b.json"


def general_b_plants() -> list[SystemSpec]:
    """Three plants with a tall B of rank above one (q_c only bracketed), n = 3, 4, 5."""
    rng = np.random.default_rng(1515)
    plants = []
    for n, m in ((3, 2), (4, 2), (5, 3)):
        A = rng.normal(size=(n, n))
        A *= 1.2 / np.max(np.abs(np.linalg.eigvals(A)))
        B = rng.normal(size=(n, m))
        GQ, GR = rng.normal(size=(n, n)), rng.normal(size=(m, m))
        plants.append(SystemSpec(A=A, B=B, Q=GQ @ GQ.T + 0.5 * np.eye(n), R=GR @ GR.T + 0.5 * np.eye(m)))
    return plants


def pinned_rates(sys) -> list[float]:
    ceiling = feasible_rate_ceiling(sys)
    return [0.0, 0.5 * ceiling, 0.95 * ceiling]


class TestPinnedGeneralB:
    """`_mare_solve` and `ce_gain` on general-B plants, pinned to the last bit
    (float.hex of every entry of P and K, the step count and the residual)."""

    def test_solutions_and_gains(self):
        pinned = json.loads(PINNED_GENERAL_B.read_text())
        cases = [(sys, q) for sys in general_b_plants() for q in pinned_rates(sys)]
        assert len(cases) == len(pinned) == 9
        for (sys, q), want in zip(cases, pinned):
            assert (sys.n, sys.m, float(q).hex()) == (want["n"], want["m"], want["q"])
            sol = riccati._mare_solve(sys, q)
            gain, _ = ce_gain(sys, q)
            assert [x.hex() for x in sol.P.ravel().tolist()] == want["P"]
            assert (sol.iterations, float(sol.residual).hex()) == (want["iterations"], want["residual"])
            assert [x.hex() for x in gain.K.ravel().tolist()] == want["K"]


def reference_mare_step(X, sys, one_minus_q):
    """One Riccati step, written as two separate solves with (PB)^T A."""
    XB = X @ sys.B
    AtXB = sys.A.T @ XB
    step = sys.Q + sys.A.T @ X @ sys.A - one_minus_q * (AtXB @ np.linalg.solve(sys.R + sys.B.T @ XB, AtXB.mT))
    return 0.5 * (step + step.mT)


def reference_feedback_gain(sys, P):
    PB = P @ sys.B
    return -np.linalg.solve(sys.R + sys.B.T @ PB, PB.mT @ sys.A)


class TestFusedStepAndGain:
    """One solve of R + B^T X B gives both the Riccati step and the gain of X,
    with the bits of the two-solve formulas."""

    def test_matrix_and_stack(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            sys = random_stabilizable_system(rng, 6)
            k, n = int(rng.integers(1, 6)), sys.n
            G = rng.normal(size=(k, n, n))
            X = G @ G.mT + 0.1 * np.eye(n)
            one_minus_q = rng.uniform(0.2, 1.0, size=(k, 1, 1))
            stacked = riccati._mare_step_gain(X, sys, one_minus_q)
            assert stacked[0].tobytes() == reference_mare_step(X, sys, one_minus_q).tobytes()
            assert stacked[1].tobytes() == reference_feedback_gain(sys, X).tobytes()
            assert riccati._feedback_gain(sys, X).tobytes() == stacked[1].tobytes()
            for i in range(k):
                step, K = riccati._mare_step_gain(X[i], sys, float(one_minus_q[i, 0, 0]))
                assert step.tobytes() == reference_mare_step(X[i], sys, float(one_minus_q[i, 0, 0])).tobytes()
                assert K.tobytes() == reference_feedback_gain(sys, X[i]).tobytes() == stacked[1][i].tobytes()
                assert riccati._mare_step(X[i], sys, float(one_minus_q[i, 0, 0])).tobytes() == step.tobytes()
