import copy
import json
import math
import pickle
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
    st_lower_bound,
    zero_sample_safe_q,
)
from lossylqr import riccati
from lossylqr.riccati import CriticalProbability
from lossylqr.stability import _threshold_curve
from conftest import (
    feasible_rate_ceiling,
    fresh,
    random_stabilizable_system,
    record_solves_alone,
    report_bits,
    scalar_mare_root,
)


def pickle_round_trip(plant):
    return pickle.loads(pickle.dumps(plant))


class TestSystemSpec:
    def test_scalar_coercion(self, example1):
        assert example1.n == 1 and example1.m == 1 and example1.is_scalar

    def test_rejects_indefinite_q(self):
        with pytest.raises(InvalidInputError):
            SystemSpec(A=np.eye(2), B=np.eye(2), Q=np.diag([1.0, 0.0]), R=np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionError):
            SystemSpec(A=np.eye(2), B=np.ones((3, 1)), Q=np.eye(2), R=1.0)

    @pytest.mark.parametrize(
        "A, B, Q, R",
        [(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((0, 0)), 1.0), (1.0, np.zeros((1, 0)), 1.0, np.zeros((0, 0)))],
        ids=["no_state", "no_input"],
    )
    def test_rejects_an_empty_plant(self, A, B, Q, R):
        with pytest.raises(DimensionError, match="at least one state and one input"):
            SystemSpec(A=A, B=B, Q=Q, R=R)

    def test_rejects_an_empty_cost(self):
        with pytest.raises(InvalidInputError):
            SystemSpec(A=1.0, B=1.0, Q=np.zeros((0, 0)), R=1.0)

    @pytest.mark.parametrize("clone", [pickle_round_trip, copy.deepcopy, copy.copy])
    def test_plant_copies_without_its_memo(self, example2, clone):
        plant = fresh(example2)
        bound = st_lower_bound(plant, 0.2, "general")
        exact_ms_stable(plant, ce_gain(plant, 0.1633)[0], 0.2)
        assert plant._memo
        twin = clone(plant)
        assert twin._memo == {} and plant._memo
        for name in "ABQR":
            M, N = getattr(plant, name), getattr(twin, name)
            assert M.tobytes() == N.tobytes() and M.strides == N.strides and not N.flags.writeable
        assert twin.name == plant.name
        assert report_bits(st_lower_bound(twin, 0.2, "general")) == report_bits(bound)

    def test_plants_compare_by_identity(self, example2):
        plant = fresh(example2)
        twin = SystemSpec(A=plant.A, B=plant.B, Q=plant.Q, R=plant.R, name=plant.name)
        assert plant == plant and twin != plant and not twin == plant
        assert copy.copy(plant) != plant
        keyed = {plant: "plant", twin: "twin"}
        assert keyed[plant] == "plant" and keyed[twin] == "twin"
        assert len({plant, twin, plant}) == 2
        sol = mare_solve(plant, 0.2)
        assert mare_solve(plant, 0.2) is sol and mare_solve(twin, 0.2) is not sol
        assert keyed[plant] == "plant" and plant in {plant}

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


class TestLookaheadCap:
    """`_bisect_rates(..., ahead_max)`: a batch holds a midpoint above ahead_max
    only when the bisection takes it, and the bracket stays the plain one."""

    @pytest.mark.parametrize("root", [0.0345678, 0.2345678, 0.3456789])
    @pytest.mark.parametrize("graded", [None, {}])
    def test_only_midpoints_taken_above_the_cap(self, example1, monkeypatch, root, graded):
        cap, probes = 0.2, []
        solve = riccati._mare_solve_rates
        monkeypatch.setattr(riccati, "_mare_solve_rates", lambda sys, qs: probes.extend(qs) or solve(sys, qs))
        score = lambda qs, outcomes: [root - q for q in qs]  # noqa: E731
        bracket = riccati._bisect_rates(example1, 0.0, 0.4, 1e-6, score, graded, cap)
        path, plain = plain_bisection(0.0, 0.4, 1e-6, root)
        assert [x.hex() for x in bracket] == [x.hex() for x in plain]
        assert {q for q in probes if q > cap} == {q for q in path if q > cap}


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

    def test_repeat_gives_a_fresh_copy_of_the_same_gain(self, plant3):
        gain, sol = ce_gain(plant3, 0.2)
        again, sol_again = ce_gain(plant3, 0.2)
        assert sol_again is sol
        assert again.K is not gain.K and not np.shares_memory(again.K, gain.K)
        assert again.K.tobytes() == gain.K.tobytes() == riccati._feedback_gain(plant3, sol.P).tobytes()
        assert again.K.strides == gain.K.strides and again.K.flags.c_contiguous and again.K.flags.writeable

    def test_mutated_gain_does_not_reach_the_next_call(self, plant3):
        gain, _ = ce_gain(plant3, 0.2)
        expected = gain.K.tobytes()
        gain.K[...] = 0.0
        assert ce_gain(plant3, 0.2)[0].K.tobytes() == expected

    def test_gain_is_kept_with_its_solution(self, example2, monkeypatch):
        plant, solves = fresh(example2), []
        inner = riccati._feedback_gain

        def recorded(plant, P):
            if sys._getframe(1).f_code is riccati.ce_gain.__code__:
                solves.append(P)
            return inner(plant, P)

        monkeypatch.setattr(riccati, "_feedback_gain", recorded)
        first = ce_gain(plant, 0.2)[0].K.tobytes()
        assert ce_gain(plant, 0.2)[0].K.tobytes() == first and len(solves) == 1
        for i in range(riccati._MEMO_SIZE):
            mare_solve(plant, 0.01 * (i + 1))
        # The rate left the memo with its gain: both are computed again.
        assert ce_gain(plant, 0.2)[0].K.tobytes() == first and len(solves) == 2
        assert solves[1] is not solves[0]


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


@pytest.mark.xfail(
    raises=NoSolutionError, strict=True, reason="value iteration stalls at step 3000 before any policy test passes"
)
def test_dare_with_nearly_uncontrollable_unstable_modes():
    # Stabilizable: the optimal gain has rho = 0.99894 at q = 0 (lambda_max(P) = 1.1e5).
    plant = SystemSpec(
        A=np.diag([1.001, 1.0005, 0.0]), B=[[1.0, 0.0], [0.2, 0.0], [0.0, 1.0]], Q=np.eye(3), R=np.eye(2)
    )
    P = dare_solve(plant).P
    assert exact_ms_stable(plant, riccati._feedback_gain(plant, P), 0.0).stable


def rates_kept(plant) -> int:
    return sum(key[0] == "rate" for key in plant._memo)


class TestMareMemo:
    def test_returned_solution_is_shared_and_read_only(self, example1, solve_count):
        plant = fresh(example1)
        sol = mare_solve(plant, 0.2)
        assert mare_solve(plant, 0.2) is sol
        assert solve_count[0] == 1
        with pytest.raises(ValueError):
            sol.P[0, 0] = 0.0

    def test_plant_is_read_only_and_a_new_plant_solves_afresh(self, solve_count):
        A = np.array([[1.5]])
        plant = SystemSpec(A=A, B=1.0, Q=1.0, R=1.0)
        before = mare_solve(plant, 0.2)
        for M in (plant.A, plant.B, plant.Q, plant.R):
            with pytest.raises(ValueError):
                M[0, 0] = 1.2
        A[0, 0] = 1.2  # the plant holds a copy of its input
        assert mare_solve(plant, 0.2) is before and plant.A[0, 0] == 1.5
        after = mare_solve(SystemSpec(A=A, B=1.0, Q=1.0, R=1.0), 0.2)
        assert solve_count[0] == 2
        assert after.P[0, 0] == pytest.approx(scalar_mare_root(0.2, a=1.2), rel=1e-10)
        np.testing.assert_array_equal(mare_solve(fresh(plant), 0.2).P, before.P)
        assert solve_count[0] == 3

    def test_plant_keeps_its_input_layout(self, example2):
        # np.array keeps a Fortran input's layout, so BLAS sees the same operands.
        A = np.asfortranarray([[1.5, 0.1], [0.0, 1.0]])
        plant = SystemSpec(A=A, B=example2.B, Q=example2.Q, R=example2.R)
        assert plant.A.strides == A.strides and not np.shares_memory(plant.A, A)

    def test_oldest_problem_is_evicted(self, example2, solve_count):
        plant = fresh(example2)
        rates = [0.05 * (i + 1) for i in range(riccati._MEMO_SIZE + 1)]
        first = [mare_solve(plant, q) for q in rates]
        assert solve_count[0] == riccati._MEMO_SIZE + 1
        assert mare_solve(plant, rates[-1]) is first[-1]
        assert solve_count[0] == riccati._MEMO_SIZE + 1
        again = mare_solve(plant, rates[0])
        assert solve_count[0] == riccati._MEMO_SIZE + 2
        assert again is not first[0]
        np.testing.assert_array_equal(again.P, first[0].P)

    def test_standard_solution_outlives_other_rates(self, example2, solve_count):
        plant = fresh(example2)
        standard = dare_solve(plant)
        for i in range(2 * riccati._MEMO_SIZE):
            mare_solve(plant, 0.02 * (i + 1))
        assert solve_count[0] == 2 * riccati._MEMO_SIZE + 1
        assert dare_solve(plant) is standard
        assert mare_solve(plant, 0.0) is standard
        assert solve_count[0] == 2 * riccati._MEMO_SIZE + 1

    def test_each_plant_keeps_its_own_rates(self, solve_count):
        # A random call sequence against a model: per plant, a
        # least-recently-returned list of _MEMO_SIZE rates other than 0, and
        # every standard solution.
        rng = np.random.default_rng(3)
        plants = [SystemSpec(A=1.2 + 0.05 * i, B=1.0, Q=1.0, R=1.0) for i in range(4)]
        kept = [[] for _ in plants]
        solves = 0
        for _ in range(400):
            i, q = int(rng.integers(len(plants))), float(rng.choice([0.0, 0.0, 0.1, 0.2, 0.3, 0.35, 0.4]))
            if q in kept[i]:
                kept[i].remove(q)
            else:
                solves += 1
            kept[i].append(q)
            kept[i] = [r for r in kept[i] if r == 0.0] + [r for r in kept[i] if r != 0.0][-riccati._MEMO_SIZE :]
            mare_solve(plants[i], q)
            assert solve_count[0] == solves
        assert [rates_kept(p) for p in plants] == [riccati._MEMO_SIZE] * len(plants)

    def test_failure_is_solved_on_every_call(self, example1, solve_count):
        plant = fresh(example1)
        for calls in (1, 2, 3):
            with pytest.raises(NoSolutionError):
                mare_solve(plant, 0.5)
            assert solve_count[0] == calls
        # The plant keeps only its constants, which every solve reads.
        assert set(plant._memo) == {riccati._KRON_A_KEY, riccati._Q_FLOOR_KEY}

    def test_rate_type_is_part_of_the_problem(self, example1, solve_count):
        plant = fresh(example1)
        assert type(mare_solve(plant, 0).q_used) is int
        assert type(mare_solve(plant, 0.0).q_used) is float
        assert type(mare_solve(plant, np.float64(0.2)).q_used) is np.float64
        assert type(mare_solve(plant, 0.2).q_used) is float
        assert solve_count[0] == 4

    def test_concurrent_callers_share_the_memo(self, example2, solve_count):
        # Twice as many rates other than 0 as a plant keeps, the standard
        # solution, and the threshold bounds and lifted radii that the same
        # plant's memo keeps, from eight threads.
        plant = fresh(example2)
        rates = [0.0] + [0.02 * (i + 1) for i in range(2 * riccati._MEMO_SIZE)]
        gains = {q: ce_gain(example2, q)[0] for q in (0.1, 0.2)}
        expected = {
            "solve": [solve_alone(example2, q).P.tobytes() for q in rates],
            "bound": [st_lower_bound(fresh(example2), q, "general").bound for q in rates],
            "radius": {q: exact_ms_stable(fresh(example2), K, 0.3).certificate for q, K in gains.items()},
        }
        errors = []

        def caller(offset):
            try:
                for i in range(60):
                    k = (i * 3 + offset) % len(rates)
                    if mare_solve(plant, rates[k]).P.tobytes() != expected["solve"][k]:
                        errors.append(f"wrong solution at q={rates[k]}")
                    if i % 3 == 0 and st_lower_bound(plant, rates[k], "general").bound != expected["bound"][k]:
                        errors.append(f"wrong bound at q={rates[k]}")
                    q_hat = (0.1, 0.2)[(i + offset) % 2]
                    if exact_ms_stable(plant, gains[q_hat], 0.3).certificate != expected["radius"][q_hat]:
                        errors.append(f"wrong radius of the design at {q_hat}")
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
        assert rates_kept(plant) == riccati._MEMO_SIZE
        assert ("standard", float, "0x0.0p+0") in plant._memo and ("bounds", "general") in plant._memo

    def test_design_loop_solves_each_rate_once(self, example2, solve_count):
        X0 = np.eye(2)
        for q, q_hat, N in ((0.1, 0.12, 300), (0.2, 0.1633, 1000), (0.3, 0.28, 3000)):
            plant = fresh(example2)
            solve_count[0] = 0
            gain, _ = ce_gain(plant, q_hat)
            certify_ce_controller(plant, q_hat, N, 0.05)
            assert exact_ms_stable(plant, gain, q).stable
            gap(plant, q, q_hat, X0)
            min_samples(plant, q, 0.05, "general")
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
        solutions = [solve_alone(sys, q) for q in (0.1, 0.3, 0.44)]
        assert outcomes and set(outcomes) == {certified}
        monkeypatch.setattr(riccati, "_solve_certifies", lambda *args: False)
        for q, sol in zip((0.1, 0.3, 0.44), solutions):
            dense = solve_alone(sys, q)
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
        sol = solve_alone(example1, q)
        assert (sol.P[0, 0], sol.iterations, sol.residual) == (P, iterations, residual)


def solve_outcome(result) -> tuple:
    """Everything a solve reports: the bytes of P, the step count, the residual
    and the rate's repr, or the error's type, reason and message."""
    if isinstance(result, Exception):
        return type(result).__name__, result.reason, str(result)
    return result.P.tobytes(), result.iterations, result.residual, repr(result.q_used)


def solve_each_rate(plant, qs) -> list:
    """Reference for `_mare_solve_rates`: each rate alone, a stack of one."""
    return [riccati._mare_solve_rates(plant, [q])[0] for q in qs]


def solve_alone(plant, q):
    """The solve that `mare_solve` runs for one rate, without its memo."""
    (result,) = riccati._mare_solve_rates(plant, [q])
    if isinstance(result, NoSolutionError):
        raise result
    return result


def lockstep_test_rates(sys) -> list[float]:
    """0 up to 0.9995 of the feasible ceiling, and two rates above the upper end
    of the q_c bracket when it lies below 1."""
    ceiling = feasible_rate_ceiling(sys)
    rates = [f * ceiling for f in (0.0, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999, 0.9995)]
    upper = critical_probability(sys, refine=False).upper
    return rates + [upper + f * (1.0 - upper) for f in (1e-3, 0.3) if upper < 1.0]


class TestLockstepSolve:
    """`_mare_solve_rates` gives every rate the bits of its own one-rate solve."""

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

    def test_policy_phase_form_follows_the_rows_due(self, example1, monkeypatch):
        # The rates leave the stack at steps 6, 6, 7, 13 and 21: the phases
        # at steps 1, 2, 4 and 8 have several rows due, the one at 16 only 0.444.
        rows = []
        alone, stacked = riccati._policy_iteration, riccati._policy_iteration_rates

        def one(plant, q, X, q_floor):
            rows.append(1)
            return alone(plant, q, X, q_floor)

        def several(plant, q, one_minus_q, X, q_floor):
            rows.append(len(X))
            assert len(X) > 1
            return stacked(plant, q, one_minus_q, X, q_floor)

        monkeypatch.setattr(riccati, "_policy_iteration", one)
        monkeypatch.setattr(riccati, "_policy_iteration_rates", several)
        expected = [solve_outcome(r) for r in solve_each_rate(example1, [0.1, 0.3, 0.4, 0.44, 0.444])]
        assert set(rows) == {1}
        rows.clear()
        solved = riccati._mare_solve_rates(example1, [0.1, 0.3, 0.4, 0.44, 0.444])
        assert rows == [5, 3, 2, 2, 1]
        assert [solve_outcome(r) for r in solved] == expected

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
def solved_alone(monkeypatch):
    """The rates that `mare_solve` solves alone."""
    rates = []
    record_solves_alone(monkeypatch, rates.append)
    return rates


class TestLockstepCallers:
    """The grids of `region_map`, `_threshold_curve` and `gap_curve` and the
    probes of both bisections are solved in lock-step; only the standard
    Riccati solution, the true rate of a gap curve and the lower end of the
    q_c bracket are solved alone."""

    def test_region_map_solves_no_rate_alone(self, example2, solve_count):
        rm = region_map(fresh(example2), 0.01, "invertible_B")
        assert len(rm.q_hat_grid) == len(rm.q_grid) > 1
        assert solve_count[0] == 0

    def test_safe_rate_solves_only_the_dare_alone(self, example2, solved_alone):
        assert 0.0 < zero_sample_safe_q(fresh(example2), "invertible_B") < 1.0
        assert solved_alone == [0.0]

    def test_gap_curve_solves_only_the_true_rate_alone(self, example2, solved_alone):
        points = gap_curve(fresh(example2), 0.2, np.array([5.0, 5.0]), np.arange(0.0, 0.44, 0.01))
        assert len(points) == 44
        assert solved_alone == [0.2]

    def test_qc_bisection_solves_only_the_lower_end_alone(self, plant3, solve_count):
        assert critical_probability(fresh(plant3)).method == "bisection"
        assert solve_count[0] == 1

    def test_threshold_curve_from_zero_solves_no_rate_alone(self, example2, solve_count):
        rows = list(_threshold_curve(fresh(example2), "general", 0.0, None, 0.01))
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
    """The one-rate solve and `ce_gain` on general-B plants, pinned to the last bit
    (float.hex of every entry of P and K, the step count and the residual)."""

    def test_solutions_and_gains(self):
        pinned = json.loads(PINNED_GENERAL_B.read_text())
        cases = [(sys, q) for sys in general_b_plants() for q in pinned_rates(sys)]
        assert len(cases) == len(pinned) == 9
        for (sys, q), want in zip(cases, pinned):
            assert (sys.n, sys.m, float(q).hex()) == (want["n"], want["m"], want["q"])
            sol = solve_alone(sys, q)
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
