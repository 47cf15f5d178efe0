import numpy as np
import pytest

from lossylqr import (
    DimensionError,
    SystemSpec,
    ce_gain,
    condition_matrix,
    critical_probability,
    dare_solve,
    exact_ms_stable,
    lifted_matrix,
    lyapunov_sufficient_stable,
    mare_solve,
    region_map,
    scalar_iff_stable,
    st_lower_bound,
    zero_sample_safe_q,
)
from lossylqr.stability import CELL_BLUE, CELL_GRAY, CELL_RED
from conftest import feasible_rate_ceiling, random_stabilizable_system, scalar_mare_root


def scalar_condition_value(q: float, q_hat: float, a: float = 1.5) -> float:
    """Independent scalar oracle for the stabilization condition (B=Q=R=1)."""
    p = scalar_mare_root(q_hat, a)
    k = -a * p / (1.0 + p)
    return 1.0 + (1.0 - q) * k**2 + (q_hat - q) * a**2 * p**2 / (1.0 + p)


def scalar_rho(q: float, q_hat: float, a: float = 1.5) -> float:
    """Independent scalar oracle for the lifted spectral radius (B=1)."""
    p = scalar_mare_root(q_hat, a)
    k = -a * p / (1.0 + p)
    return (a + (1.0 - q) * k) ** 2 + q * (1.0 - q) * k**2


class TestConditionMatrix:
    def test_motivating_negative_value(self, example1):
        C = condition_matrix(example1, 0.4, 0.0)
        assert C[0, 0] == pytest.approx(scalar_condition_value(0.4, 0.0), rel=1e-9)
        assert C[0, 0] == pytest.approx(-0.0064, abs=5e-4)

    def test_positive_when_design_matches(self, example1, example2):
        for sys in (example1, example2):
            for q in (0.0, 0.2, 0.4):
                C = condition_matrix(sys, q, q)
                assert np.linalg.eigvalsh(C)[0] > 0.0

    def test_positive_when_overestimating(self, example2):
        C = condition_matrix(example2, 0.0, 0.1)
        assert np.linalg.eigvalsh(C)[0] > 0.0

    def test_overestimation_always_certifies(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            sys = random_stabilizable_system(rng)
            ceiling = 0.9 * feasible_rate_ceiling(sys)
            for q_hat in np.linspace(0.0, ceiling, 4):
                for q in np.linspace(0.0, q_hat, 3):
                    verdict = lyapunov_sufficient_stable(sys, float(q), float(q_hat))
                    assert verdict.stable, (q, q_hat)


class TestScalarIff:
    def test_unstable_at_large_error(self, example1):
        verdict = scalar_iff_stable(example1, 0.4, 0.0)
        assert not verdict.stable
        assert verdict.certificate == pytest.approx(-0.0064, abs=5e-4)

    def test_stable_at_zero_error(self, example1):
        assert scalar_iff_stable(example1, 0.2, 0.2).stable

    def test_stable_plant_always_stable(self):
        sys = SystemSpec(A=0.5, B=1.0, Q=1.0, R=1.0)
        for q in np.linspace(0.0, 0.8, 5):
            for q_hat in np.linspace(0.0, 0.8, 5):
                verdict = scalar_iff_stable(sys, float(q), float(q_hat))
                assert verdict.stable
                assert verdict.certificate > 0.0

    def test_rejects_multivariable(self, example2):
        with pytest.raises(DimensionError):
            scalar_iff_stable(example2, 0.1, 0.1)


class TestLiftedMatrix:
    def test_deterministic_channel(self, example2):
        gain, _ = ce_gain(example2, 0.0)
        M = example2.A + example2.B @ gain.K
        np.testing.assert_allclose(lifted_matrix(example2, gain, 0.0), np.kron(M, M), atol=1e-14)

    def test_all_packets_lost(self, example2):
        gain, _ = ce_gain(example2, 0.1)
        A = example2.A
        np.testing.assert_allclose(lifted_matrix(example2, gain, 1.0), np.kron(A, A), atol=1e-14)

    def test_scalar_closed_form(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        phi = lifted_matrix(example1, gain, 0.4)
        assert phi[0, 0] == pytest.approx(scalar_rho(0.4, 0.0), rel=1e-10)
        assert phi[0, 0] == pytest.approx(1.00244, abs=1e-4)

    def test_two_expansions_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys = random_stabilizable_system(rng)
            gain, _ = ce_gain(sys, 0.05)
            for q in (0.0, 0.3, 0.7, 1.0):
                BK = sys.B @ gain.K
                closed = sys.A + BK
                alt = (1.0 - q) * np.kron(closed, closed) + q * np.kron(sys.A, sys.A)
                err = np.linalg.norm(lifted_matrix(sys, gain, q) - alt)
                assert err <= 1e-12 * (1.0 + np.linalg.norm(alt))

    def test_same_map_as_solver_and_region_map(self):
        # region_map and the solver's stabilizing test evaluate the affine
        # form (1-q) M(x)M + q A(x)A; the oracle must compute the same bits.
        from lossylqr.riccati import _lifted_at, _lifted_pairs

        rng = np.random.default_rng(11)
        for _ in range(10):
            sys = random_stabilizable_system(rng)
            gain, _ = ce_gain(sys, 0.05)
            random_K = rng.normal(size=(sys.m, sys.n))
            for K in (gain.K, random_K):
                closed = sys.A + sys.B @ K
                pair = next(_lifted_pairs(sys, [K]))
                for q in (0.0, 0.3, 0.7, 1.0):
                    affine = (1.0 - q) * np.kron(closed, closed) + q * np.kron(sys.A, sys.A)
                    np.testing.assert_array_equal(lifted_matrix(sys, K, q), affine)
                    np.testing.assert_array_equal(lifted_matrix(sys, K, q), _lifted_at(pair, q))


class TestExactOracle:
    def test_deadbeat(self, example1):
        verdict = exact_ms_stable(example1, np.array([[-1.5]]), 0.0)
        assert verdict.certificate == pytest.approx(0.0, abs=1e-12)
        assert verdict.stable

    def test_motivating_instability(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        verdict = exact_ms_stable(example1, gain, 0.4)
        assert verdict.certificate == pytest.approx(1.00244, abs=1e-4)
        assert not verdict.stable

    def test_matched_design_is_stable(self, example1):
        gain, _ = ce_gain(example1, 0.2)
        verdict = exact_ms_stable(example1, gain, 0.2)
        assert verdict.stable
        assert verdict.certificate == pytest.approx(scalar_rho(0.2, 0.2), rel=1e-9)


class TestThresholdBounds:
    def test_general_scalar_closed_form(self, example1):
        report = st_lower_bound(example1, 0.2, "general")
        p = scalar_mare_root(0.2)
        p0 = scalar_mare_root(0.0)
        c1 = 1.0 / (1.0 + p0)
        assert report.bound == pytest.approx((1.0 / (2.25 * p * p)) / c1, rel=1e-9)
        assert report.bound == pytest.approx(0.07984, abs=5e-5)
        assert report.constituents["c1"] == pytest.approx(c1, rel=1e-9)

    def test_scalar_variant_closed_form(self, example1):
        report = st_lower_bound(example1, 0.2, "scalar")
        p = scalar_mare_root(0.2)
        expected = (1.0 + p) / (2.25 * p * p) + 0.8 / (1.0 + p)
        assert report.bound == pytest.approx(expected, rel=1e-9)
        assert report.bound == pytest.approx(0.26644, abs=5e-5)

    def test_constituents_recombine(self, example1, example2):
        rep = st_lower_bound(example1, 0.2, "general")
        assert rep.bound == pytest.approx(rep.constituents["lambda_min_term"] / rep.constituents["c1"], rel=1e-12)
        rep = st_lower_bound(example2, 0.2, "invertible_B")
        assert rep.bound == pytest.approx(rep.constituents["lambda_min_term"], rel=1e-12)

    def test_variant_ordering(self, example1, example2):
        for q in np.linspace(0.0, 0.42, 22):
            q = float(q)
            general = st_lower_bound(example1, q, "general").bound
            scalar = st_lower_bound(example1, q, "scalar").bound
            inv = st_lower_bound(example1, q, "invertible_B").bound
            assert scalar >= general - 1e-9
            assert inv >= general - 1e-9
            assert scalar >= inv - 1e-9
            assert st_lower_bound(example2, q, "invertible_B").bound >= st_lower_bound(example2, q, "general").bound - 1e-9

    def test_monotone_shrinkage(self, example1, example2):
        for sys, variants in ((example1, ("general", "scalar")), (example2, ("general", "invertible_B"))):
            for variant in variants:
                bounds = [st_lower_bound(sys, float(q), variant).bound for q in np.linspace(0.0, 0.43, 20)]
                for earlier, later in zip(bounds, bounds[1:]):
                    assert later <= earlier + 1e-9

    def test_bound_certifies_condition(self, example1, example2):
        # Every design rate within the bound must make the condition matrix PD.
        for sys in (example1, example2):
            for q in (0.1, 0.25, 0.4):
                bound = st_lower_bound(sys, q, "general").bound
                for frac in (0.0, 0.5, 0.99):
                    q_hat = q - frac * min(bound, q)
                    C = condition_matrix(sys, q, float(q_hat))
                    assert np.linalg.eigvalsh(C)[0] > 0.0

    def test_shape_guards(self, example1, example2):
        with pytest.raises(DimensionError):
            st_lower_bound(example2, 0.1, "scalar")
        wide = SystemSpec(A=np.diag([1.2, 0.5]), B=np.array([[1.0, 0.0, 0.1], [0.0, 1.0, 0.0]]), Q=np.eye(2), R=np.eye(3))
        with pytest.raises(DimensionError):
            st_lower_bound(wide, 0.1, "invertible_B")

    def test_singular_state_matrix_clamps(self):
        sys = SystemSpec(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        report = st_lower_bound(sys, 0.2, "general")
        assert report.bound == 1.0
        assert "clamped_to_qc" in report.constituents


class TestZeroSampleSafeQ:
    def test_example1(self, example1):
        assert zero_sample_safe_q(example1, "general") == pytest.approx(0.128, abs=2e-3)
        assert zero_sample_safe_q(example1, "scalar") == pytest.approx(0.231, abs=2e-3)

    def test_example2(self, example2):
        assert zero_sample_safe_q(example2, "general") == pytest.approx(0.104, abs=2e-3)
        assert zero_sample_safe_q(example2, "invertible_B") == pytest.approx(0.167, abs=2e-3)

    def test_is_fixed_point(self, example1):
        q_star = zero_sample_safe_q(example1, "scalar")
        assert st_lower_bound(example1, q_star, "scalar").bound == pytest.approx(q_star, abs=2e-6)

    def test_below_safe_rate_any_design_works(self, example1):
        q = zero_sample_safe_q(example1, "general") - 5e-3
        qc = critical_probability(example1).exact
        for q_hat in np.linspace(0.0, qc * 0.99, 15):
            gain, _ = ce_gain(example1, float(q_hat))
            assert exact_ms_stable(example1, gain, q).stable


@pytest.fixture(scope="module")
def coarse_map(example1):
    return region_map(example1, step=0.005, sufficient_variant="general")


class TestRegionMap:
    def test_matched_design_is_blue(self, coarse_map):
        i = int(np.argmin(np.abs(coarse_map.q_grid - 0.2)))
        j = int(np.argmin(np.abs(coarse_map.q_hat_grid - 0.2)))
        assert coarse_map.cells[i, j] == CELL_BLUE

    def test_motivating_cell_is_red(self, coarse_map):
        i = int(np.argmin(np.abs(coarse_map.q_grid - 0.4)))
        j = int(np.argmin(np.abs(coarse_map.q_hat_grid - 0.0)))
        assert coarse_map.cells[i, j] == CELL_RED

    def test_gray_cells_exist(self, coarse_map):
        assert int(np.sum(coarse_map.cells == CELL_GRAY)) > 0

    def test_soundness(self, coarse_map):
        blue = coarse_map.cells == CELL_BLUE
        assert coarse_map.exact_stable[blue].all()

    def test_red_cells_match_oracle(self, coarse_map):
        red = coarse_map.cells == CELL_RED
        assert (~coarse_map.exact_stable[red]).all()

    def test_deterministic(self, example1):
        again = region_map(example1, step=0.005, sufficient_variant="general")
        np.testing.assert_array_equal(again.cells, region_map(example1, step=0.005, sufficient_variant="general").cells)

    def test_exact_variant_has_no_gray(self, example1):
        rm = region_map(example1, step=0.01, sufficient_variant="exact")
        assert int(np.sum(rm.cells == CELL_GRAY)) == 0

    def test_soundness_example2_both_variants(self, example2):
        for variant in ("general", "invertible_B"):
            rm = region_map(example2, step=0.005, sufficient_variant=variant)
            blue = rm.cells == CELL_BLUE
            assert rm.exact_stable[blue].all(), variant

    def test_scalar_iff_variant(self, example1):
        rm = region_map(example1, step=0.01, sufficient_variant="scalar_iff")
        # the iff test is exact up to the boundary margin: essentially no gray
        assert int(np.sum(rm.cells == CELL_GRAY)) <= 2
        blue = rm.cells == CELL_BLUE
        assert rm.exact_stable[blue].all()

    def test_rows_labels(self, coarse_map):
        q, q_hat, label = next(iter(coarse_map.rows()))
        assert (q, q_hat) == (0.0, 0.0)
        assert label == "blue_stabilizing"


class TestScalarEquivalenceGrid:
    def test_sign_agreement_full_grid(self, example1):
        # Dense oracle sweep at the fine step, vectorized through the
        # closed-form Riccati solution; condition sign must match the
        # lifted-radius verdict away from the rho = 1 boundary.
        a = 1.5
        qc = 1.0 / a**2
        rates = np.arange(0.0, qc, 0.001)
        p = np.array([scalar_mare_root(float(qh), a) for qh in rates])
        k = -a * p / (1.0 + p)
        q_col = rates[:, None]
        cond = 1.0 + (1.0 - q_col) * k[None, :] ** 2 + (rates[None, :] - q_col) * a**2 * p[None, :] ** 2 / (1.0 + p[None, :])
        rho = (a + (1.0 - q_col) * k[None, :]) ** 2 + q_col * (1.0 - q_col) * k[None, :] ** 2
        decidable = np.abs(rho - 1.0) > 1e-6
        assert np.array_equal((cond > 0.0)[decidable], (rho < 1.0)[decidable])

        # Spot-check that the module reproduces the vectorized oracle.
        rng = np.random.default_rng(31)
        for _ in range(40):
            i = int(rng.integers(rates.size))
            j = int(rng.integers(rates.size))
            verdict = scalar_iff_stable(example1, float(rates[i]), float(rates[j]))
            assert verdict.certificate == pytest.approx(cond[i, j], rel=1e-8, abs=1e-10)
            gain, _ = ce_gain(example1, float(rates[j]))
            oracle = exact_ms_stable(example1, gain, float(rates[i]))
            assert oracle.certificate == pytest.approx(rho[i, j], rel=1e-8)
