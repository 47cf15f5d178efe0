import sys
import threading
import warnings

import numpy as np
import pytest

from lossylqr import (
    DimensionError,
    InvalidInputError,
    NoSolutionError,
    NotPSDError,
    NumericalFailureError,
    SystemSpec,
    ce_gain,
    certify_ce_controller,
    condition_matrix,
    critical_probability,
    exact_ms_stable,
    gap,
    gap_curve,
    lifted_matrix,
    lyapunov_sufficient_stable,
    mare_solve,
    psd_sqrt,
    region_map,
    scalar_iff_stable,
    second_moment_sum,
    spectral_radius,
    st_lower_bound,
    sym_eig_extremes,
    symmetrize,
    zero_sample_safe_q,
)
from lossylqr import numerics, riccati, stability
from lossylqr.riccati import RHO_MARGIN, _feedback_gain, _ms_stable, _scalar_iff_value
from lossylqr.stability import (
    CELL_BLUE,
    CELL_GRAY,
    CELL_RED,
    THRESHOLD_VARIANTS,
    ThresholdReport,
    _check_threshold_variant,
    _strict_margin,
    _threshold_curve,
)
from conftest import (
    feasible_rate_ceiling,
    fresh,
    gain_solves_outside_the_driver,
    random_stabilizable_system,
    report_bits,
    scalar_mare_root,
)


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

    def test_gain_is_checked(self, example2):
        gain, _ = ce_gain(example2, 0.1)
        for K in (np.ones((1, 2)), np.ones((2, 3)), np.ones(4)):
            with pytest.raises(DimensionError):
                lifted_matrix(example2, K, 0.2)
        for bad in (np.nan, np.inf):
            K = gain.K.copy()
            K[1, 0] = bad
            with pytest.raises(InvalidInputError, match="gain has non-finite entries"):
                lifted_matrix(example2, K, 0.2)
            with pytest.raises(InvalidInputError, match="gain has non-finite entries"):
                exact_ms_stable(example2, K, 0.2)
        np.testing.assert_array_equal(lifted_matrix(example2, gain, 0.2), lifted_matrix(example2, gain.K, 0.2))

    def test_same_map_as_solver_and_region_map(self):
        # region_map and the solver's stabilizing test evaluate the affine
        # form (1-q) M(x)M + q A(x)A; the oracle must compute the same bits.
        from lossylqr.riccati import _lifted_map

        rng = np.random.default_rng(11)
        for _ in range(10):
            sys = random_stabilizable_system(rng)
            gain, _ = ce_gain(sys, 0.05)
            random_K = rng.normal(size=(sys.m, sys.n))
            for K in (gain.K, random_K):
                closed = sys.A + sys.B @ K
                for q in (0.0, 0.3, 0.7, 1.0):
                    affine = (1.0 - q) * np.kron(closed, closed) + q * np.kron(sys.A, sys.A)
                    np.testing.assert_array_equal(lifted_matrix(sys, K, q), affine)
                    np.testing.assert_array_equal(lifted_matrix(sys, K, q), _lifted_map(sys, K, q))


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

    def test_invertible_b_variant_iff_closed_form_for_qc(self):
        # One test decides both: the closed form q_c = 1 / max|lambda_u|^2 and
        # the admissibility of the invertible-B variant, on either side of
        # the relative singular-value threshold 1e-10.
        for smallest in (1e-10 * (1 - 2e-16), 1e-10, 1e-10 * (1 + 2e-16), 1e-9, 0.0):
            sys = SystemSpec(A=np.diag([1.2, 1.1]), B=np.diag([1.0, smallest]), Q=np.eye(2), R=np.eye(2))
            closed_form = critical_probability(sys, refine=False).method == "invertible_B"
            try:
                _check_threshold_variant(sys, "invertible_B")
                admissible = True
            except DimensionError:
                admissible = False
            assert closed_form == admissible == (smallest > 1e-10)

    def test_singular_state_matrix_clamps(self):
        sys = SystemSpec(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        report = st_lower_bound(sys, 0.2, "general")
        assert report.bound == 1.0
        assert "clamped_to_qc" in report.constituents


class TestThresholdBoundMemo:
    """A plant keeps its q_c and bound evaluator of each variant, with the
    bits of a plant that builds them afresh."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the evaluators really built."""
        count = [0]
        inner = stability._threshold_bounds

        def counted(*args):
            count[0] += 1
            return inner(*args)

        monkeypatch.setattr(stability, "_threshold_bounds", counted)
        return count

    @pytest.mark.parametrize(
        "plant, variants",
        [("example1", ("general", "scalar", "invertible_B")), ("example2", ("general", "invertible_B"))],
    )
    def test_repeated_calls_build_once_with_the_same_bits(self, request, builds, plant, variants):
        sys = fresh(request.getfixturevalue(plant))
        for variant in variants:
            expected = [st_lower_bound(fresh(sys), q, variant) for q in (0.0, 0.1, 0.3)]
            before = builds[0]
            got = [st_lower_bound(sys, q, variant) for q in (0.0, 0.1, 0.3)]
            assert builds[0] == before + 1
            assert [report_bits(a) for a in got] == [report_bits(b) for b in expected]
        assert builds[0] == 4 * len(variants)

    def test_each_plant_builds_its_own(self, builds):
        plants = [SystemSpec(A=a, B=1.0, Q=1.0, R=1.0) for a in (1.5, 1.5, 1.2)]
        bounds = [st_lower_bound(sys, 0.2, "general").bound for sys in plants for _ in range(2)]
        assert builds[0] == 3
        assert bounds[0] == bounds[2] != bounds[4]
        assert bounds[4] == st_lower_bound(fresh(plants[2]), 0.2, "general").bound

    def test_evaluator_outlives_other_rates(self, example2, builds, solve_count):
        sys = fresh(example2)
        rates = [0.02 * (i + 1) for i in range(2 * riccati._MEMO_SIZE)]
        for q in rates:
            st_lower_bound(sys, q, "general")
        # One evaluator, and the standard solution it was built on solved once.
        assert builds[0] == 1 and solve_count[0] == len(rates) + 1


def fresh_radius(sys, K, q) -> float:
    """The certified radius of the lifted map, computed with no memo."""
    return spectral_radius(lifted_matrix(sys, K, q), cone=True)


RHO_KEY = ("lifted_rho",)


class TestLiftedRhoMemo:
    """A plant keeps the last radius that its bracket certified, so the
    oracle and the second-moment sum of one design share one radius, with the
    bits of a fresh computation; any change of the rate, the gain's bytes or
    layout, or the plant computes afresh."""

    @pytest.fixture
    def radii(self, monkeypatch):
        """Count the radii really computed."""
        count = [0]
        inner = stability._spectral_radius

        def counted(M, **kwargs):
            count[0] += 1
            return inner(M, **kwargs)

        monkeypatch.setattr(stability, "_spectral_radius", counted)
        return count

    @pytest.mark.parametrize("plant, q, q_hat", [("example1", 0.2, 0.15), ("example2", 0.2, 0.1633), ("plant3", 0.3, 0.25)])
    def test_oracle_and_gap_share_one_radius(self, request, radii, plant, q, q_hat):
        sys = fresh(request.getfixturevalue(plant))
        gain, _ = ce_gain(sys, q_hat)
        verdict = exact_ms_stable(sys, gain, q)
        report = gap(sys, q, q_hat, np.eye(sys.n))
        assert radii[0] == 1
        assert verdict.stable and verdict.certificate.hex() == fresh_radius(sys, gain, q).hex()
        again = gap(fresh(sys), q, q_hat, np.eye(sys.n))
        assert radii[0] == 2
        assert again.S.tobytes() == report.S.tobytes() and again.J_ce.hex() == report.J_ce.hex()

    def test_kept_map_is_read_only(self, example2, radii):
        sys = fresh(example2)
        gain, _ = ce_gain(sys, 0.1633)
        Phi, rho = stability._lifted_rho(sys, gain, 0.2)
        assert stability._lifted_rho(sys, gain, 0.2) == (Phi, rho)
        assert radii[0] == 1
        with pytest.raises(ValueError):
            Phi[0, 0] = 0.0
        assert lifted_matrix(sys, gain, 0.2).flags.writeable

    @pytest.mark.parametrize("change", ["rate", "gain_one_ulp", "fortran_gain", "new_plant"])
    def test_changed_problem_computes_afresh(self, radii, change):
        sys = SystemSpec(A=[[1.5, 0.1], [0.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        K, q = np.ascontiguousarray(ce_gain(sys, 0.1633)[0].K), 0.2
        exact_ms_stable(sys, K, q)
        if change == "rate":
            q = 0.21
        elif change == "gain_one_ulp":
            K = K.copy()
            K[0, 0] = np.nextafter(K[0, 0], np.inf)
        elif change == "fortran_gain":
            K = np.asfortranarray(K)
            assert K.strides != np.ascontiguousarray(K).strides
        else:
            sys = SystemSpec(A=[[1.4, 0.1], [0.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        rho = exact_ms_stable(sys, K, q).certificate
        assert radii[0] == 2
        assert rho.hex() == fresh_radius(sys, K, q).hex()
        exact_ms_stable(sys, K, q)
        assert radii[0] == 2

    def test_warning_reaches_every_caller(self, example2, radii, monkeypatch):
        sys = fresh(example2)
        gain, _ = ce_gain(sys, 0.1633)
        dense = numerics._dense_spectral_radius
        # An overstated dense radius is returned with a warning, and not kept.
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: dense(M) + 2e-7)
        for calls in (2, 4):
            with pytest.warns(RuntimeWarning, match="from below"):
                exact_ms_stable(sys, gain, 0.2)
            with pytest.warns(RuntimeWarning, match="from below"):
                gap(sys, 0.2, 0.1633, np.eye(2))
            assert radii[0] == calls
        assert RHO_KEY not in sys._memo

    def test_error_reaches_every_caller(self, example2, radii, monkeypatch):
        sys = fresh(example2)
        gain, _ = ce_gain(sys, 0.1633)
        dense = numerics._dense_spectral_radius
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: dense(M) - 2e-7)
        for calls in (2, 4):
            with pytest.raises(NumericalFailureError, match="from above"):
                exact_ms_stable(sys, gain, 0.2)
            with pytest.raises(NumericalFailureError, match="from above"):
                gap(sys, 0.2, 0.1633, np.eye(2))
            assert radii[0] == calls
        assert RHO_KEY not in sys._memo

    def test_concurrent_callers(self, example2):
        plant = fresh(example2)
        problems = [(ce_gain(example2, q_hat)[0], q) for q_hat, q in ((0.1, 0.2), (0.1633, 0.2), (0.2, 0.3), (0.1, 0.3))]
        expected = [(lifted_matrix(example2, g, q).tobytes(), fresh_radius(example2, g, q)) for g, q in problems]
        errors = []

        def caller(offset):
            try:
                for i in range(60):
                    k = (i + offset) % len(problems)
                    Phi, rho = stability._lifted_rho(plant, *problems[k])
                    if (Phi.tobytes(), rho) != expected[k]:
                        errors.append(f"wrong map or radius of problem {k}")
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
        assert set(plant._memo) == {RHO_KEY}


class TestThresholdCurveRows:
    """Each `_threshold_curve` row is the report `st_lower_bound` gives at its
    rate, bound and constituents to the last bit, from q = 0 (whose row's
    solution is the standard one) and from above it."""

    @pytest.mark.parametrize(
        "plant, variant",
        [
            ("example1", "general"),
            ("example1", "scalar"),
            ("example1", "invertible_B"),
            ("example2", "general"),
            ("example2", "invertible_B"),
            ("plant3", "general"),
        ],
    )
    @pytest.mark.parametrize("q_min", [0.0, 0.005])
    def test_rows_equal_pointwise_reports(self, request, plant, variant, q_min):
        sys = request.getfixturevalue(plant)
        rows = list(_threshold_curve(sys, variant, q_min, None, 0.01))
        assert len(rows) > 30
        for q, report in rows:
            assert report_bits(report) == report_bits(st_lower_bound(sys, q, variant))


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


def per_cell_verdicts(sys: SystemSpec, gains, grid: np.ndarray) -> np.ndarray:
    """Reference oracle: stable[i, j] from one np.kron lifted map and one
    eigvals call per (grid[i], gains[j]) cell."""
    kron_A = np.kron(sys.A, sys.A)
    stable = np.zeros((len(grid), len(gains)), dtype=bool)
    for j, K in enumerate(gains):
        M = sys.A + sys.B @ K
        kron_M = np.kron(M, M)
        for i, q in enumerate(grid.tolist()):
            stable[i, j] = _ms_stable(float(np.max(np.abs(np.linalg.eigvals((1.0 - q) * kron_M + q * kron_A)))))
    return stable


def per_cell_region_map(sys: SystemSpec, step: float, variant: str):
    """Reference for `region_map`: one np.kron lifted map, one eigvals call and
    one scalar classification per cell.  Returns (q_grid, q_hat_grid, cells,
    exact_stable)."""
    grid = np.arange(0.0, critical_probability(sys, refine=False).lower, step)
    solutions = {}
    for i, q in enumerate(grid):
        try:
            solutions[i] = mare_solve(sys, float(q)).P
        except NoSolutionError:
            pass
    kept = list(solutions)
    gains = [_feedback_gain(sys, solutions[i]) for i in kept]
    bounds = np.zeros(len(grid))
    if variant in THRESHOLD_VARIANTS and 0 in solutions:
        for i in kept:
            bounds[i] = st_lower_bound(sys, float(grid[i]), variant).bound
    margin = _strict_margin(sys)
    cells = np.full((len(grid), len(kept)), CELL_GRAY, dtype=np.int8)
    exact_stable = per_cell_verdicts(sys, gains, grid)
    for j, K in enumerate(gains):
        qh = float(grid[kept[j]])
        for i in range(len(grid)):
            q = float(grid[i])
            stable = exact_stable[i, j]
            if variant in THRESHOLD_VARIANTS:
                certified = qh >= q or (q - qh) < bounds[i]
            elif variant == "scalar_iff":
                certified = _scalar_iff_value(sys, q, qh, K[0, 0], solutions[kept[j]][0, 0]) > margin
            else:  # exact
                certified = stable
            if certified:
                cells[i, j] = CELL_BLUE
            elif not stable:
                cells[i, j] = CELL_RED
    return grid, grid[kept], cells, exact_stable


def admitted_variants(sys: SystemSpec) -> list[str]:
    variants = ["exact"] + (["scalar_iff"] if sys.is_scalar else [])
    for variant in THRESHOLD_VARIANTS:
        try:
            _check_threshold_variant(sys, variant)
        except DimensionError:
            continue
        variants.append(variant)
    return variants


@pytest.fixture(scope="module")
def reference_plants() -> dict[str, SystemSpec]:
    """The benchmark's plant3 and the first plants with n = 2..5 that
    `random_stabilizable_system` draws from default_rng(42)."""
    plants = {
        "plant3": SystemSpec(
            A=np.diag([1.3, 1.2, 0.4]), B=[[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]], Q=np.eye(3), R=np.eye(2)
        )
    }
    rng = np.random.default_rng(42)
    while len(plants) < 5:
        sys = random_stabilizable_system(rng, n_max=5)
        if sys.n >= 2:
            plants.setdefault(f"random-n{sys.n}", sys)
    return plants


def assert_map_equals_per_cell(sys: SystemSpec, step: float, variant: str):
    q_grid, q_hat_grid, cells, exact_stable = per_cell_region_map(sys, step, variant)
    rm = region_map(sys, step=step, sufficient_variant=variant)
    np.testing.assert_array_equal(rm.q_grid, q_grid)
    np.testing.assert_array_equal(rm.q_hat_grid, q_hat_grid)
    np.testing.assert_array_equal(rm.cells, cells)
    np.testing.assert_array_equal(rm.exact_stable, exact_stable)
    return rm


def count_fallbacks(monkeypatch) -> list:
    """Record the index, within its stack of columns, of each column that
    `_oracle_verdicts` checks at every row (a pencil it cannot use, or checked
    cells that disagree across unchecked ones)."""
    columns = []
    dense = stability._dense_cells

    def spy(MM, AA, q_grid, checked):
        columns.extend(j for j, rows in checked.items() if len(rows) == len(q_grid))
        return dense(MM, AA, q_grid, checked)

    monkeypatch.setattr(stability, "_dense_cells", spy)
    return columns


# An unstable eigenvalue with 1 / MARGIN_A^2 = 0.4 + 1e-12.
MARGIN_A = (0.4 + 1e-12) ** -0.5


class TestBatchedOracle:
    """`region_map`'s batched, column-wise oracle equals the per-cell reference bit for bit."""

    @pytest.mark.parametrize("variant", ["general", "scalar", "scalar_iff", "exact"])
    def test_example1(self, example1, variant):
        assert_map_equals_per_cell(example1, 0.005, variant)

    @pytest.mark.parametrize("variant", ["general", "invertible_B", "exact"])
    def test_example2(self, example2, variant):
        assert_map_equals_per_cell(example2, 0.005, variant)

    @pytest.mark.parametrize("name", ["plant3", "random-n2", "random-n3", "random-n4", "random-n5"])
    def test_plant3_and_random_plants(self, reference_plants, name):
        sys = reference_plants[name]
        variants = admitted_variants(sys)
        assert len(variants) >= 2
        colours = set()
        for variant in variants:
            rm = assert_map_equals_per_cell(sys, 0.01, variant)
            colours |= set(np.unique(rm.cells).tolist())
        # the plant's maps hold more than one colour, so classification is exercised
        assert len(colours) >= 2

    @pytest.mark.parametrize("variant", ["general", "invertible_B", "exact"])
    def test_three_row_chunks(self, example2, monkeypatch, variant):
        # 89 grid rows and 3 maps per call: the pencil of 3 columns at a time,
        # and their checked cells (at least 6) split across eigvals calls.
        monkeypatch.setattr(stability, "LOCKSTEP_ENTRIES", 3 * example2.n**4)
        sizes = []
        dense = stability._dense_spectral_radius
        monkeypatch.setattr(stability, "_dense_spectral_radius", lambda M: sizes.append(len(M)) or dense(M))
        fallbacks = count_fallbacks(monkeypatch)
        rm = assert_map_equals_per_cell(example2, 0.005, variant)
        assert fallbacks == []  # no column is checked at every row
        assert len(rm.q_grid) == 89
        blocks = -(-len(rm.q_hat_grid) // 3)
        assert max(sizes) == 3 and len(sizes) > 2 * blocks
        assert sum(sizes) < rm.cells.size // 10

    def test_three_row_chunks_random_plant(self, reference_plants, monkeypatch):
        sys = reference_plants["random-n3"]
        monkeypatch.setattr(stability, "LOCKSTEP_ENTRIES", 3 * sys.n**4)
        for variant in admitted_variants(sys):
            rm = assert_map_equals_per_cell(sys, 0.01, variant)
            assert len(rm.q_grid) % 3 != 0

    @pytest.mark.parametrize("name", ["example1", "example2", "not-stabilizable"])
    def test_grid_rates_without_a_solution(self, request, name):
        # Grid rates without a Riccati solution are left out as columns and
        # get a zero bound as rows.  example1 and example2 have their unstable
        # eigenvalue 1.5 moved to MARGIN_A, so that q_c = 0.4 + 1e-12 and the
        # last grid rate, 0.40, admits no gain with rho below 1 - RHO_MARGIN;
        # with the unstable mode out of reach of B, no rate of the grid does.
        if name == "not-stabilizable":
            sys, rows, columns = SystemSpec(A=np.diag([2.0, 0.5]), B=[[0.0], [1.0]], Q=np.eye(2), R=1.0), 25, 0
        else:
            plant = request.getfixturevalue(name)
            A = np.where(plant.A == 1.5, MARGIN_A, plant.A)
            sys, rows, columns = SystemSpec(A=A, B=plant.B, Q=plant.Q, R=plant.R), 41, 40
        for variant in admitted_variants(sys):
            rm = assert_map_equals_per_cell(sys, 0.01, variant)
            assert (len(rm.q_grid), len(rm.q_hat_grid)) == (rows, columns)


FLIP_GRID = np.arange(0.0, 1.0, 0.01)


def flipping_plants(count: int):
    """The first `count` 2 x 2 plants with arbitrary 2 x 2 gains, drawn as (A, B, K)
    from default_rng(3), whose reference verdict on FLIP_GRID changes at least
    twice; found in the first 39 draws."""
    rng = np.random.default_rng(3)
    found = []
    while len(found) < count:
        A, B, K = (rng.normal(size=(2, 2)) for _ in range(3))
        sys = SystemSpec(A=A, B=B, Q=np.eye(2), R=np.eye(2))
        stable = per_cell_verdicts(sys, [K], FLIP_GRID)[:, 0]
        if np.sum(stable[1:] != stable[:-1]) >= 2:
            found.append((sys, K, stable))
    return found


class TestPencilOracle:
    """`_oracle_verdicts` computes dense radii only next to the pencil's candidate
    rates, and checks a column at every row where that cannot be trusted; either
    way each verdict equals the per-cell reference."""

    def test_verdict_flipping_twice(self, monkeypatch):
        fallbacks = count_fallbacks(monkeypatch)
        for sys, K, stable in flipping_plants(2):
            np.testing.assert_array_equal(stability._oracle_verdicts(sys, [K], FLIP_GRID)[:, 0], stable)
        assert fallbacks == []

    def test_singular_pencil_falls_back(self, monkeypatch):
        # No double x has fl(x * x) = 1 - RHO_MARGIN, but the closed-loop modes
        # 1 and s = 1 - RHO_MARGIN multiply to s exactly, so s I - M(x)M has a
        # zero on its diagonal and the batched solve raises for the stack.
        s = 1.0 - RHO_MARGIN
        sys = SystemSpec(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        singular, regular = np.diag([0.5, s - 0.5]), np.diag([-0.2, 0.4])
        M = sys.A + sys.B @ singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(s * np.eye(4) - np.kron(M, M), np.eye(4))
        fallbacks = count_fallbacks(monkeypatch)
        gains = [regular, singular, regular]
        stable = per_cell_verdicts(sys, gains, FLIP_GRID)
        np.testing.assert_array_equal(stability._oracle_verdicts(sys, gains, FLIP_GRID), stable)
        assert len(fallbacks) == 1 and gains[fallbacks[0]] is singular
        assert not stable[0, 1] and stable[1:, 1].all()

    def test_non_finite_pencil_falls_back(self, example2, monkeypatch):
        monkeypatch.setattr(stability, "_solve_each", lambda a, b: np.full(b.shape, np.inf))
        fallbacks = count_fallbacks(monkeypatch)
        gains = [ce_gain(example2, q_hat)[0].K for q_hat in (0.0, 0.1, 0.3)]
        grid = np.arange(0.0, 0.44, 0.01)
        np.testing.assert_array_equal(stability._oracle_verdicts(example2, gains, grid), per_cell_verdicts(example2, gains, grid))
        assert len(fallbacks) == 3

    def test_missed_crossing_falls_back(self, example2, monkeypatch):
        # Without candidate rates only both ends are checked: a column whose
        # ends disagree falls back, one whose verdict never changes is filled.
        monkeypatch.setattr(stability, "CANDIDATE_IMAG_RTOL", 0.0)
        fallbacks = count_fallbacks(monkeypatch)
        gains = [ce_gain(example2, q_hat)[0].K for q_hat in (0.0, 0.1, 0.4)]
        grid = np.arange(0.0, 0.44, 0.01)
        stable = per_cell_verdicts(example2, gains, grid)
        np.testing.assert_array_equal(stability._oracle_verdicts(example2, gains, grid), stable)
        flips = np.sum(stable[1:] != stable[:-1], axis=0)
        assert flips.tolist() == [1, 1, 0] and len(fallbacks) == 2


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


class TestRegionMapMargin:
    """The oracle reads a spectral radius inside the margin below 1 as unstable."""

    def test_cell_inside_margin_is_red(self):
        # Scalar plant A = 1.5, B = Q = 1 with R tuned (to about 0.96468569526)
        # so that the design q_hat = 0 has rho = 1 - 5e-10 at q = 0.40.
        q, target = 0.40, 1.0 - 5e-10

        def plant(R: float) -> SystemSpec:
            return SystemSpec(A=1.5, B=1.0, Q=1.0, R=R)

        def rho(R: float) -> float:
            gain, _ = ce_gain(plant(R), 0.0)
            return exact_ms_stable(plant(R), gain, q).certificate

        lo, hi = 0.9, 1.0
        assert rho(lo) < target < rho(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if rho(mid) < target else (lo, mid)
        assert rho(hi) == pytest.approx(target, abs=1e-12)
        assert 1.0 - RHO_MARGIN < rho(hi) < 1.0

        rm = region_map(plant(hi), step=0.01, sufficient_variant="exact")
        i = int(np.flatnonzero(rm.q_grid == q)[0])
        assert rm.q_hat_grid[0] == 0.0
        assert not rm.exact_stable[i, 0]
        assert rm.cells[i, 0] == CELL_RED


class TestRateValidationOrder:
    """An invalid true rate is refused before the design rate is solved."""

    @pytest.mark.parametrize("test", [lyapunov_sufficient_stable, scalar_iff_stable])
    def test_invalid_rate_beats_infeasible_design(self, example1, test):
        # q_hat = 0.9 is above q_c = 4/9, so solving it first would raise NoSolutionError.
        with pytest.raises(InvalidInputError, match="true loss rate"):
            test(example1, 1.5, 0.9)

    def test_condition_matrix_checks_rate_first(self, example1):
        with pytest.raises(InvalidInputError, match="true loss rate"):
            condition_matrix(example1, -0.1, 0.9)


def plain_safe_rate(sys: SystemSpec, variant: str) -> float:
    """Reference for `zero_sample_safe_q`: the plain bisection, with one
    `st_lower_bound` per probe."""

    def excess(q: float) -> float:
        try:
            return st_lower_bound(sys, q, variant).bound - q
        except NoSolutionError:
            return -np.inf

    if excess(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, critical_probability(sys, refine=False).upper
    while hi - lo > stability.SAFE_Q_BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSafeRateBisection:
    """`zero_sample_safe_q` solves its probes in lock-step and returns the plain bisection's float."""

    @staticmethod
    def assert_same_as_plain(sys: SystemSpec, variant: str) -> float:
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            q_star = zero_sample_safe_q(sys, variant)
        assert float(q_star).hex() == float(plain_safe_rate(sys, variant)).hex()
        return q_star

    @pytest.mark.parametrize(
        "plant, variant",
        [("example1", "general"), ("example1", "scalar"), ("example2", "general"), ("example2", "invertible_B")],
    )
    def test_paper_cases(self, request, plant, variant):
        assert self.assert_same_as_plain(request.getfixturevalue(plant), variant) > 0.0

    def test_random_plants(self):
        rng = np.random.default_rng(31)
        safe = []
        for _ in range(10):
            sys = random_stabilizable_system(rng, n_max=4)
            for variant in THRESHOLD_VARIANTS:
                try:
                    _check_threshold_variant(sys, variant)
                except DimensionError:
                    continue
                safe.append(self.assert_same_as_plain(sys, variant))
        assert len(safe) > 10 and any(q > 0.0 for q in safe)


def per_row_congruence_max_eig(S_root: np.ndarray, M: np.ndarray) -> float:
    half = np.linalg.solve(S_root, M)
    T = np.linalg.solve(S_root, half.T).T
    _, lmax = sym_eig_extremes(0.5 * (T + T.T))
    return lmax


def per_row_threshold_bound(sys: SystemSpec, variant: str, P0, qc: float):
    """Reference for `stability._threshold_bounds`: bound(q, P) -> ThresholdReport
    for one rate and one 2-d solution, as the threshold bounds were evaluated
    one row at a time."""
    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R

    if variant == "scalar":
        a, b, qq, r = A[0, 0], B[0, 0], Q[0, 0], R[0, 0]

        def bound(q: float, P: np.ndarray) -> ThresholdReport:
            p = P[0, 0]
            denom = a**2 * b**2 * p**2
            if denom <= 0.0:
                return ThresholdReport(variant, qc, {"clamped_to_qc": 1.0})
            first = qq * (r + b**2 * p) / denom
            second = (1.0 - q) * r / (r + b**2 * p)
            return ThresholdReport(
                variant, float(min(first + second, qc)), {"first_term": float(first), "second_term": float(second)}
            )

    elif variant == "general":
        _, lmax_bbt = sym_eig_extremes(B @ B.T)
        lmin_rp0, _ = sym_eig_extremes(R + B.T @ P0 @ B)
        c1, Q_root = lmax_bbt / lmin_rp0, psd_sqrt(Q)

        def bound(q: float, P: np.ndarray) -> ThresholdReport:
            lam = per_row_congruence_max_eig(Q_root, symmetrize(A.T @ P @ P @ A))
            if lam <= 0.0:
                return ThresholdReport(variant, qc, {"c1": float(c1), "clamped_to_qc": 1.0})
            lam_min_term = 1.0 / lam
            return ThresholdReport(
                variant, float(min(lam_min_term / c1, qc)), {"c1": float(c1), "lambda_min_term": float(lam_min_term)}
            )

    else:  # invertible_B
        lmin_r, _ = sym_eig_extremes(R)
        lmin_bbt, _ = sym_eig_extremes(B @ B.T)
        lmin_r_bbt, AP0P0A = lmin_r * lmin_bbt, symmetrize(A.T @ P0 @ P0 @ A)

        def bound(q: float, P: np.ndarray) -> ThresholdReport:
            _, lmax_rpb = sym_eig_extremes(R + B.T @ P @ B)
            c2 = lmin_r_bbt / lmax_rpb**2
            lam = per_row_congruence_max_eig(psd_sqrt(Q + (1.0 - q) * c2 * AP0P0A), symmetrize(A.T @ P @ A))
            if lam <= 0.0:
                return ThresholdReport(variant, qc, {"c2": float(c2), "clamped_to_qc": 1.0})
            return ThresholdReport(
                variant, float(min(1.0 / lam, qc)), {"c2": float(c2), "lambda_min_term": float(1.0 / lam)}
            )

    return bound


def threshold_cases() -> list:
    """(plant, variant, rows) for random plants in every admitted threshold
    variant and for the paper's plants, A = 0 and a rank-deficient A.  The
    variants that square one float per row (scalar, invertible_B) get most
    of the rows: a slip from Python's `**` (libm pow) to an array's x * x
    changes about 1 square in 1000."""
    rng = np.random.default_rng(2020)
    plants = [
        SystemSpec(A=1.5, B=1.0, Q=1.0, R=1.0),
        SystemSpec(A=0.0, B=1.0, Q=1.0, R=1.0),
        SystemSpec(A=np.array([[1.5, 0.1], [0.0, 1.0]]), B=np.eye(2), Q=np.eye(2), R=np.eye(2)),
        SystemSpec(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2)),
        SystemSpec(A=np.array([[1.2, 1.0], [0.0, 0.0]]), B=np.eye(2), Q=np.eye(2), R=np.eye(2)),
        SystemSpec(A=np.diag([1.3, 1.2, 0.4]), B=[[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]], Q=np.eye(3), R=np.eye(2)),
    ]
    while sum(sys.is_scalar for sys in plants) < 5 or len(plants) < 16:
        sys = random_stabilizable_system(rng, n_max=4)
        if sys.is_scalar or len(plants) < 16:
            plants.append(sys)
    rows = {"general": 150, "scalar": 1500, "invertible_B": 600}
    return [(sys, variant, rows[variant]) for sys in plants for variant in admitted_variants(sys) if variant in rows]


class TestStackedThresholdBounds:
    """The stacked `_threshold_bounds` gives each row the bits, bound and
    constituents, of the per-row formulas, and raises where they raise."""

    def test_rows_equal_per_row_reference(self):
        rng = np.random.default_rng(7)
        compared, clamped, variants = 0, 0, set()
        for sys, variant, k in threshold_cases():
            n = sys.n
            qc = critical_probability(sys, refine=False).upper
            P0 = riccati.dare_solve(sys).P
            G = rng.normal(size=(k, n, n))
            P = (G @ G.mT + 0.1 * np.eye(n)) * 10.0 ** rng.uniform(-1.0, 3.0, size=(k, 1, 1))
            q = rng.uniform(0.0, qc, size=k)
            q[0] = 0.0
            bound, constituents = stability._threshold_bounds(sys, variant, P0, qc)(q, P)
            reference = per_row_threshold_bound(sys, variant, P0, qc)
            for i in range(k):
                expected = reference(float(q[i]), P[i])
                assert report_bits(ThresholdReport(variant, bound[i].item(), constituents[i])) == report_bits(expected)
                clamped += "clamped_to_qc" in expected.constituents
            compared += k
            variants.add(variant)
        assert compared >= 10_000 and clamped > 0 and variants == set(THRESHOLD_VARIANTS)

    def test_empty_stack(self, example2):
        P0 = riccati.dare_solve(example2).P
        for variant in ("general", "invertible_B"):
            bound, constituents = stability._threshold_bounds(example2, variant, P0, 0.44)(np.empty(0), np.empty((0, 2, 2)))
            assert bound.shape == (0,) and constituents == []

    def test_first_failing_row_raises(self, example2):
        # Row 0 fails the PSD test of its square root (a rate far above 1 makes
        # Q + (1 - q) c2 A^T P0^2 A indefinite); row 1 fails the earlier
        # finiteness test of R + B^T P B.  Row by row, row 0 raises first.
        P0 = riccati.dare_solve(example2).P
        bounds = stability._threshold_bounds(example2, "invertible_B", P0, 0.44)
        P = np.stack([P0, np.full((2, 2), np.nan)])
        with pytest.raises(NotPSDError):
            bounds(np.array([50.0, 0.1]), P)
        with pytest.raises(InvalidInputError, match="non-finite"):
            bounds(np.array([0.1, 50.0]), P[::-1])


def failing_bounds(monkeypatch, above: float):
    """Make every threshold-bound evaluation raise NotPSDError on a stack that
    holds a rate above `above`.  Only plants that build their evaluators
    after this call, such as those from `fresh`, use it in `st_lower_bound`."""
    real = stability._threshold_bounds

    def patched(*args):
        bounds = real(*args)

        def checked(q, P):
            if (q > above).any():
                raise NotPSDError("test failure")
            return bounds(q, P)

        return checked

    monkeypatch.setattr(stability, "_threshold_bounds", patched)


BENCH_SAFE_CASES = [("example1", "general"), ("example1", "scalar"), ("example2", "general"), ("example2", "invertible_B")]


class TestSafeRateLookahead:
    """The safe-rate bisection predicts its path from the scores of its first
    batch and of q = 0; a wrong prediction costs batches, never bits."""

    @pytest.mark.parametrize("plant, variant", BENCH_SAFE_CASES)
    def test_two_batches(self, request, batches, plant, variant):
        sys = request.getfixturevalue(plant)
        expected = plain_safe_rate(sys, variant)
        assert zero_sample_safe_q(sys, variant).hex() == expected.hex()
        assert len(batches) <= 2

    @pytest.mark.parametrize("plant", ["example1", "example2"])
    def test_forced_miss(self, request, monkeypatch, batches, plant):
        # With no band the predicted path is a single one, which the
        # interpolated root misses for the general variant on both plants.
        sys = request.getfixturevalue(plant)
        expected = plain_safe_rate(sys, "general")
        monkeypatch.setattr(riccati, "BISECT_BAND", 0)
        assert zero_sample_safe_q(sys, "general").hex() == expected.hex()
        assert len(batches) > 2

    def test_failure_at_a_probe_never_taken(self, example1, monkeypatch):
        # The first batch holds 0.4167, which the path to 0.128 never takes.
        expected = plain_safe_rate(example1, "general")
        failing_bounds(monkeypatch, 0.4)
        assert plain_safe_rate(fresh(example1), "general").hex() == expected.hex()
        assert zero_sample_safe_q(example1, "general").hex() == expected.hex()

    def test_failure_at_a_midpoint_taken(self, example1, monkeypatch):
        # The first midpoint, 0.2222, is taken by every path.
        failing_bounds(monkeypatch, 0.2)
        with pytest.raises(NotPSDError):
            plain_safe_rate(fresh(example1), "general")
        with pytest.raises(NotPSDError):
            zero_sample_safe_q(fresh(example1), "general")


def reference_q_bar(plant: SystemSpec, q_hat: float) -> float:
    """The certificate's q_bar from a gain weight formed anew
    (`riccati._gain_and_weight`), with every matrix of the constraint
    symmetrized and checked."""
    gain, sol = ce_gain(plant, q_hat)
    W = riccati._gain_and_weight(plant, sol.P)[1]
    KtRK = symmetrize(gain.K.T @ plant.R @ gain.K)
    C0 = symmetrize(plant.Q + KtRK + q_hat * W)
    C1 = symmetrize(KtRK + W)
    w0, V0 = np.linalg.eigh(C0)
    root_inv = (V0 / np.sqrt(w0)) @ V0.T
    _, lam_max = sym_eig_extremes(root_inv @ C1 @ root_inv)
    x_sup = np.inf if lam_max <= _strict_margin(plant) else 1.0 / lam_max
    return float(max(min(1.0, x_sup), q_hat))


def reference_j_ce(plant: SystemSpec, q: float, q_hat: float, X0: np.ndarray) -> float:
    """The gap report's J_ce from a gain weight formed anew (`riccati._gain_and_weight`)."""
    gain, sol_hat = ce_gain(plant, q_hat)
    sol = mare_solve(plant, q)
    S = second_moment_sum(plant, gain, q, X0)
    gramian_trace = float(np.trace(riccati._gain_and_weight(plant, sol_hat.P)[1] @ S))
    gap_value = (q - q_hat) * gramian_trace + float(np.trace((sol_hat.P - sol.P) @ X0))
    return float(np.trace(sol.P @ X0)) + gap_value


class TestSharedGainWeight:
    """One design forms its gain weight W once: the certificate, the sufficient
    condition and the gap share the W kept with the gain in the plant's memo
    entry for q_hat (`riccati._design`), with the bits of `_gain_and_weight`."""

    def test_certificate_and_gap_form_it_once(self, example2, monkeypatch):
        plant, calls = fresh(example2), gain_solves_outside_the_driver(monkeypatch)
        certify_ce_controller(plant, 0.1633, 300, 0.01)
        gap(plant, 0.2, 0.1633, np.eye(2))
        condition_matrix(plant, 0.2, 0.1633)
        lyapunov_sufficient_stable(plant, 0.25, 0.1633)
        assert len(calls) == 1 and calls[0] is mare_solve(plant, 0.1633).P

    @pytest.mark.parametrize(
        "plant, q, q_hat",
        [("example1", 0.2, 0.15), ("example2", 0.2, 0.1633), ("plant3", 0.25, 0.3), ("plant3", 0.3, 0.2)],
    )
    def test_q_bar_and_j_ce_keep_their_bits(self, request, plant, q, q_hat):
        sys_ = request.getfixturevalue(plant)
        X0 = np.eye(sys_.n) + 0.25
        shared = fresh(sys_)
        cert = certify_ce_controller(shared, q_hat, 500, 0.05)
        report = gap(shared, q, q_hat, X0)
        assert cert.q_bar.hex() == reference_q_bar(fresh(sys_), q_hat).hex()
        assert report.J_ce.hex() == reference_j_ce(fresh(sys_), q, q_hat, X0).hex()

    def test_random_plants_keep_their_bits(self):
        rng = np.random.default_rng(28)
        for _ in range(12):
            sys_ = random_stabilizable_system(rng, n_max=4)
            ceiling = feasible_rate_ceiling(sys_)
            q_hat, q = 0.3 * ceiling, 0.35 * ceiling
            shared = fresh(sys_)
            q_bar = certify_ce_controller(shared, q_hat, 100, 0.1).q_bar
            assert q_bar.hex() == reference_q_bar(fresh(sys_), q_hat).hex()
            if exact_ms_stable(shared, ce_gain(shared, q_hat)[0], q).stable:
                X0 = np.eye(sys_.n)
                assert gap(shared, q, q_hat, X0).J_ce.hex() == reference_j_ce(fresh(sys_), q, q_hat, X0).hex()

    def test_weight_is_read_only(self, example2):
        _, K, W = riccati._design(fresh(example2), 0.1633)
        for M in (K, W):
            with pytest.raises(ValueError):
                M[0, 0] = 0.0

    def test_evicted_design_forms_it_again_with_the_same_bits(self, example2, monkeypatch):
        plant, calls = fresh(example2), gain_solves_outside_the_driver(monkeypatch)
        first = riccati._design(plant, 0.1633)[2]
        q_bar = certify_ce_controller(plant, 0.1633, 300, 0.01).q_bar
        assert len(calls) == 1
        for i in range(riccati._MEMO_SIZE + 1):
            mare_solve(plant, 0.01 * (i + 1))
        again = riccati._design(plant, 0.1633)[2]
        assert len(calls) == 2 and again is not first
        assert again.tobytes() == first.tobytes()
        assert certify_ce_controller(plant, 0.1633, 300, 0.01).q_bar.hex() == q_bar.hex()
        assert len(calls) == 2

    def test_concurrent_designs_keep_their_bits(self, example2):
        # Twice as many design rates as a plant keeps, from eight threads: each
        # gain, certificate and gap has the bits of a fresh plant's.
        plant, X0 = fresh(example2), np.eye(2)
        designs = [(0.04 * (i + 1), 0.2) for i in range(2 * riccati._MEMO_SIZE)]
        expected = [
            (
                ce_gain(fresh(example2), q_hat)[0].K.tobytes(),
                certify_ce_controller(fresh(example2), q_hat, 300, 0.01).q_bar.hex(),
                gap(fresh(example2), q, q_hat, X0).J_ce.hex(),
            )
            for q_hat, q in designs
        ]
        errors = []

        def caller(offset):
            try:
                for i in range(30):
                    k = (i * 3 + offset) % len(designs)
                    q_hat, q = designs[k]
                    got = (
                        ce_gain(plant, q_hat)[0].K.tobytes(),
                        certify_ce_controller(plant, q_hat, 300, 0.01).q_bar.hex(),
                        gap(plant, q, q_hat, X0).J_ce.hex(),
                    )
                    if got != expected[k]:
                        errors.append(f"wrong design at q_hat={q_hat}")
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


class TestOneGainSolvePerDesign:
    """A design's gain K = -S and gain weight (A^T P B) S come from one solve S."""

    def test_gain_certificate_and_gap_solve_once(self, example2, monkeypatch):
        plant, calls = fresh(example2), gain_solves_outside_the_driver(monkeypatch)
        ce_gain(plant, 0.1633)
        certify_ce_controller(plant, 0.1633, 300, 0.01)
        gap(plant, 0.2, 0.1633, np.eye(2))
        assert len(calls) == 1 and calls[0] is mare_solve(plant, 0.1633).P

    def test_gap_curve_solves_once_per_rate(self, example2, monkeypatch):
        calls = gain_solves_outside_the_driver(monkeypatch)
        points = gap_curve(fresh(example2), 0.2, np.array([5.0, 5.0]), np.linspace(0.0, 0.4, 41))
        assert len(points) == 41 and len(calls) == 41

    def test_gap_curve_keeps_the_bits_of_gap(self, example2):
        X0, grid = np.array([5.0, 5.0]), np.linspace(0.0, 0.4, 9)
        points = gap_curve(fresh(example2), 0.2, X0, grid)
        assert sum(p.stable for p in points) > 5
        for point in points:
            if point.stable:
                assert point.gap.hex() == gap(fresh(example2), 0.2, point.q_hat, X0).gap.hex()

    def test_weight_of_a_kept_gain_has_the_bits_of_a_solve(self, example1, example2, plant3, monkeypatch):
        rng = np.random.default_rng(29)
        plants = [example1, example2, plant3] + [random_stabilizable_system(rng, n_max=5) for _ in range(12)]
        calls = gain_solves_outside_the_driver(monkeypatch)
        for plant in map(fresh, plants):
            for share in (0.0, 0.3, 0.9):
                q_hat = share * feasible_rate_ceiling(plant)
                gain, sol = ce_gain(plant, q_hat)
                del calls[:]
                kept, K, W = riccati._design(plant, q_hat)
                assert kept is sol and calls == []
                P = sol.P.copy()
                assert K.tobytes() == gain.K.tobytes() == riccati._feedback_gain(plant, P).tobytes()
                assert W.tobytes() == riccati._gain_and_weight(plant, P)[1].tobytes()


# q_c = 1/(1.2^2 1.1^2) = 0.5739, the lower end of its bracket [0.5739, 0.6944]:
# B's first column drives both unstable modes alike.
QC_AT_LOWER = SystemSpec(A=np.diag([1.2, 1.1, 0.0]), B=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], Q=np.eye(3), R=np.eye(2))


class TestSafeRateBelowBracketedQc:
    """When q_c is only bracketed and lies at the bracket's lower end, the safe
    rate bisects up to the upper end and keeps the plain bisection's bits."""

    def test_plain_bits(self):
        cp = critical_probability(QC_AT_LOWER, refine=False)
        assert cp.exact is None and cp.lower < 0.5740 < 0.6944 < cp.upper
        refined = critical_probability(fresh(QC_AT_LOWER))
        assert refined.lower == refined.upper == cp.lower
        expected = plain_safe_rate(fresh(QC_AT_LOWER), "general")
        q_star = zero_sample_safe_q(fresh(QC_AT_LOWER), "general")
        assert q_star.hex() == expected.hex() == (1.8874804178873696e-05).hex()


class TestCongruenceFiniteness:
    """The congruence takes eigenvalues without `symmetrize`, but still refuses
    a non-finite transformed matrix with its error."""

    def test_overflowing_transform_is_refused(self):
        # S_root^{-1} M S_root^{-1} overflows in its first entry.
        S_root = np.diag([1e-160, 1.0])[None]
        with pytest.raises(InvalidInputError, match="non-finite"):
            stability._congruence_max_eig(S_root, np.eye(2)[None])
