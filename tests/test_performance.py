import warnings

import numpy as np
import pytest

from lossylqr import (
    DimensionError,
    InvalidInputError,
    NoSolutionError,
    NumericalFailureError,
    SimConfig,
    SystemSpec,
    UnstableError,
    ce_gain,
    gap,
    gap_bounds,
    gap_curve,
    initial_second_moment,
    lifted_matrix,
    monte_carlo_cost,
    second_moment_sum,
    symmetrize,
)
from lossylqr import performance
from conftest import feasible_rate_ceiling, random_stabilizable_system, scalar_mare_root


def scalar_gramian(q: float, q_hat: float) -> float:
    """Independent oracle: geometric sum 1/(1 - phi) for the scalar loop."""
    p = scalar_mare_root(q_hat)
    k = -1.5 * p / (1.0 + p)
    phi = (1.5 + (1.0 - q) * k) ** 2 + q * (1.0 - q) * k**2
    return 1.0 / (1.0 - phi)


class TestSecondMomentSum:
    def test_scalar_geometric(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        S = second_moment_sum(example1, gain, 0.2, np.array([1.0]))
        assert S[0, 0] == pytest.approx(scalar_gramian(0.2, 0.0), rel=1e-10)
        assert S[0, 0] == pytest.approx(2.41889, abs=5e-6)

    def test_zero_initial_moment(self, example2):
        gain, _ = ce_gain(example2, 0.2)
        S = second_moment_sum(example2, gain, 0.2, np.zeros((2, 2)))
        np.testing.assert_allclose(S, np.zeros((2, 2)), atol=1e-14)

    def test_nilpotent_closed_loop_series(self, example2):
        # K = -A zeroes the delivered branch; only the open-loop term remains
        # and the sum reduces to sum_t q^t A^t X0 (A^T)^t.
        K = -example2.A
        q = 0.3
        X0 = np.diag([1.0, 2.0])
        S = second_moment_sum(example2, K, q, X0)
        expected = np.zeros((2, 2))
        term = X0.astype(float)
        for _ in range(200):
            expected += term
            term = q * example2.A @ term @ example2.A.T
        np.testing.assert_allclose(S, expected, rtol=1e-10)

    def test_rejects_unstable_loop(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        with pytest.raises(UnstableError):
            second_moment_sum(example1, gain, 0.4, np.array([1.0]))

    @pytest.mark.parametrize(
        "X0",
        [np.array([np.nan, 1.0]), np.array([[1.0, 0.0], [0.0, -1.0]]), np.ones(3)],
        ids=["non_finite_state", "indefinite_moment", "wrong_length"],
    )
    def test_checks_its_initial_condition(self, example2, X0):
        gain, _ = ce_gain(example2, 0.2)
        with pytest.raises((InvalidInputError, DimensionError)):
            second_moment_sum(example2, gain, 0.2, X0)

    def test_solves_fixed_point(self, example2):
        gain, _ = ce_gain(example2, 0.15)
        X0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        S = second_moment_sum(example2, gain, 0.2, X0)
        Phi = lifted_matrix(example2, gain, 0.2)
        lhs = S.reshape(-1) - Phi @ S.reshape(-1)
        np.testing.assert_allclose(lhs, X0.reshape(-1), rtol=1e-9)


class TestSeriesCrossCheck:
    """The series route of `second_moment_sum` is an independent check: S is
    the linear-solve route's to the last bit, and the check's two failures
    raise."""

    def test_returns_the_solve_route(self, example1, example2, plant3):
        rng = np.random.default_rng(5)
        plants = [example1, example2, plant3] + [random_stabilizable_system(rng, 5) for _ in range(6)]
        for sys in plants:
            ceiling = feasible_rate_ceiling(sys)
            for q, q_hat in ((0.5 * ceiling, 0.4 * ceiling), (0.9 * ceiling, 0.6 * ceiling)):
                gain, _ = ce_gain(sys, q_hat)
                X0 = np.eye(sys.n) + 0.25
                # The solve route as written before the series moved to the vector.
                n = sys.n
                vec_s = np.linalg.solve(np.eye(n * n) - lifted_matrix(sys, gain, q), X0.reshape(-1))
                expected = symmetrize(vec_s.reshape(n, n))
                assert second_moment_sum(sys, gain, q, X0).tobytes() == expected.tobytes()

    def test_series_that_does_not_converge_raises(self, monkeypatch):
        # rho = 0.98^2: the series needs about 680 terms, and one doubling sums two.
        sys = SystemSpec(A=1.5, B=1.0, Q=1.0, R=1.0)
        K = np.array([[-0.52]])
        assert second_moment_sum(sys, K, 0.0, np.ones(1))[0, 0] == pytest.approx(1.0 / (1.0 - 0.98**2), rel=1e-9)
        monkeypatch.setattr(performance, "SERIES_MAX_DOUBLINGS", 1)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            second_moment_sum(sys, K, 0.0, np.ones(1))

    def test_series_that_disagrees_raises(self, example2, monkeypatch):
        gain, _ = ce_gain(example2, 0.1633)
        monkeypatch.setattr(performance, "SERIES_AGREE_RTOL", -1.0)
        with pytest.raises(NumericalFailureError, match="disagree"):
            second_moment_sum(example2, gain, 0.2, np.eye(2))


class TestGap:
    def test_scalar_reference(self, example1):
        report = gap(example1, 0.2, 0.0, np.array([1.0]))
        p_hat = scalar_mare_root(0.0)
        w = 2.25 * p_hat * p_hat / (1.0 + p_hat)
        expected_gap = 0.2 * w * scalar_gramian(0.2, 0.0) + (p_hat - scalar_mare_root(0.2))
        assert report.gap == pytest.approx(expected_gap, rel=1e-9)
        assert report.gap == pytest.approx(0.20915, abs=2e-5)
        assert report.J_ce == pytest.approx(4.70452, abs=2e-5)
        assert report.J_star == pytest.approx(4.49537, abs=2e-5)

    def test_zero_at_matched_design(self, example1, example2):
        for sys, x0 in ((example1, np.array([1.0])), (example2, np.array([5.0, 5.0]))):
            report = gap(sys, 0.2, 0.2, x0)
            assert report.gap == pytest.approx(0.0, abs=1e-9)

    def test_decomposition_identity(self, example2):
        for q_hat in (0.05, 0.2, 0.3):
            report = gap(example2, 0.2, q_hat, np.array([5.0, 5.0]))
            assert report.gap == pytest.approx(report.X_K_term + report.P_diff_term, rel=1e-9, abs=1e-12)
            assert report.J_ce == pytest.approx(report.J_star + report.gap, rel=1e-9)
            # direct cost form: (q - q_hat) tr(W S) + tr(P_hat X0)
            direct = report.X_K_term + float(np.trace(report.P_hat @ report.X0))
            assert report.J_ce == pytest.approx(direct, rel=1e-9)

    def test_never_beats_optimal(self, example2):
        for q_hat in np.linspace(0.0, 0.42, 12):
            report = gap(example2, 0.2, float(q_hat), np.array([5.0, 5.0]))
            assert report.gap >= -1e-8 * (1.0 + report.J_star)

    def test_unstable_design_raises(self, example1):
        with pytest.raises(UnstableError):
            gap(example1, 0.4, 0.0, np.array([1.0]))

    def test_non_finite_state_raises(self, example2):
        with pytest.raises(InvalidInputError, match="non-finite"):
            gap(example2, 0.2, 0.1633, np.array([np.nan, 1.0]))

    def test_matches_monte_carlo(self, example1):
        report = gap(example1, 0.2, 0.0, np.array([1.0]))
        gain, _ = ce_gain(example1, 0.0)
        mean, se = monte_carlo_cost(
            example1, gain, 0.2, np.array([1.0]), SimConfig(seed=3, horizon=200, trajectories=20_000)
        )
        assert abs(mean - report.J_ce) <= 3.0 * se


class TestGapBounds:
    def test_underestimated_rate(self, example1):
        report = gap(example1, 0.2, 0.0, np.array([1.0]))
        bound, kind = gap_bounds(report)
        assert kind == "gramian_trace"
        assert bound == pytest.approx(0.2 * scalar_gramian(0.2, 0.0) * 4.28775, abs=1e-4)
        assert bound >= report.gap - 1e-9 * (1.0 + report.gap)

    def test_matched_rate_zero(self, example1):
        report = gap(example1, 0.2, 0.2, np.array([1.0]))
        bound, _ = gap_bounds(report)
        assert bound == pytest.approx(0.0, abs=1e-9)

    def test_overestimated_rate(self, example1):
        for q_hat in (0.25, 0.3, 0.35, 0.4):
            report = gap(example1, 0.2, q_hat, np.array([1.0]))
            bound, kind = gap_bounds(report)
            assert kind == "riccati_diff"
            assert bound >= report.gap - 1e-9 * (1.0 + abs(report.gap))


@pytest.fixture(scope="module")
def curve(example2):
    grid = np.round(np.arange(0.0, 0.444, 0.02), 10)
    return grid, gap_curve(example2, 0.2, np.array([5.0, 5.0]), grid)


class TestGapCurve:
    def test_zero_at_true_rate(self, curve):
        grid, points = curve
        at_q = [p for p in points if abs(p.q_hat - 0.2) < 1e-12]
        assert at_q and at_q[0].gap == pytest.approx(0.0, abs=1e-9)

    def test_minimum_at_grid_point_nearest_true_rate(self, curve):
        grid, points = curve
        stable = [p for p in points if p.stable]
        best = min(stable, key=lambda p: p.gap)
        nearest = grid[np.argmin(np.abs(grid - 0.2))]
        assert best.q_hat == pytest.approx(nearest, abs=1e-12)

    def test_v_shape(self, curve):
        _, points = curve
        gaps = [p.gap for p in points if p.stable]
        q_hats = [p.q_hat for p in points if p.stable]
        pivot = int(np.argmin(gaps))
        assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gaps[:pivot], gaps[1 : pivot + 1]))
        assert all(g2 >= g1 - 1e-9 for g1, g2 in zip(gaps[pivot:], gaps[pivot + 1 :]))
        assert q_hats == sorted(q_hats)

    def test_overestimation_costs_more_than_reference(self, curve):
        _, points = curve
        by_rate = {round(p.q_hat, 3): p for p in points}
        assert by_rate[0.4].gap > by_rate[0.0].gap

    def test_grid_past_qc_raises_the_error_of_ce_gain(self, example2):
        # q_c = 1/1.5^2 for invertible B; 0.45 is the first rate of the grid above it.
        with pytest.raises(NoSolutionError) as curve_error:
            gap_curve(example2, 0.2, np.array([5.0, 5.0]), np.arange(0.0, 0.6, 0.05))
        with pytest.raises(NoSolutionError) as design_error:
            ce_gain(example2, 0.45)
        assert "q=0.45;" in str(curve_error.value)
        assert (curve_error.value.reason, str(curve_error.value)) == (design_error.value.reason, str(design_error.value))

    def test_continuity_toward_true_rate(self, example2):
        near = gap(example2, 0.2, 0.199, np.array([5.0, 5.0])).gap
        far = gap(example2, 0.2, 0.1, np.array([5.0, 5.0])).gap
        assert near < 1e-2 * far


class TestInitialSecondMoment:
    def test_vector_becomes_outer_product(self):
        X0 = initial_second_moment(np.array([1.0, 2.0]), 2)
        np.testing.assert_array_equal(X0, [[1.0, 2.0], [2.0, 4.0]])

    def test_matrix_passthrough(self):
        C = np.array([[2.0, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(initial_second_moment(C, 2), C)

    def test_rejects_indefinite(self):
        with pytest.raises(InvalidInputError):
            initial_second_moment(np.diag([1.0, -1.0]), 2)

    def test_scalar_state_of_a_scalar_plant(self):
        np.testing.assert_array_equal(initial_second_moment(2.0, 1), [[4.0]])

    def test_rejects_a_matrix_of_another_shape(self):
        with pytest.raises(DimensionError, match="must be 2x2"):
            initial_second_moment(np.eye(3), 2)

    @pytest.mark.parametrize(
        "x0, message",
        [(np.ones(3), "initial state has length 3, expected 2"), (2.0, "initial state has length 1, expected 2"),
         ([np.nan, 1.0], "initial state has non-finite")],
        ids=["long", "scalar", "nan"],
    )
    def test_refuses_a_state_vector_as_the_simulator_does(self, example2, x0, message):
        with pytest.raises(InvalidInputError, match=message):
            initial_second_moment(x0, 2)
        gain, _ = ce_gain(example2, 0.2)
        with pytest.raises(InvalidInputError, match=message):
            monte_carlo_cost(example2, gain, 0.2, x0, SimConfig(horizon=5, trajectories=2))

    @pytest.mark.parametrize(
        "x0, message",
        [([np.nan, 1.0], "non-finite"), ([np.inf, 0.0], "non-finite"), ([1e200, 1.0], "overflows")],
        ids=["nan", "inf", "overflow"],
    )
    def test_rejects_non_finite_states(self, x0, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=message):
                initial_second_moment(np.array(x0), 2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestSymmetrizedSecondMomentOverflow:
    def test_matrix_whose_symmetrization_overflows_is_refused(self):
        # Each entry is finite, but X0 + X0^T is not: the eigenvalues of the
        # symmetrized X0 are taken only after its finiteness check.
        with pytest.raises(InvalidInputError, match="non-finite"):
            initial_second_moment(np.diag([1e308, 1.0]), 2)

    def test_largest_finite_symmetrization_passes(self):
        X0 = np.diag([8e307, 1.0])
        np.testing.assert_array_equal(initial_second_moment(X0, 2), X0)
