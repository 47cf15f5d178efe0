import warnings

import numpy as np
import pytest

from lossylqr import (
    InvalidInputError,
    NotPSDError,
    NumericalFailureError,
    SimConfig,
    SystemSpec,
    ce_gain,
    empirical_ms_decay,
    exact_ms_stable,
    kron,
    lifted_matrix,
    psd_sqrt,
    second_moment_sum,
    spectral_radius,
    sym_eig_extremes,
    symmetrize,
)
from lossylqr import numerics


class TestSymEigExtremes:
    def test_identity(self):
        assert sym_eig_extremes(np.eye(2)) == (1.0, 1.0)

    def test_diagonal(self):
        lmin, lmax = sym_eig_extremes(np.diag([1.5**2, 1.0]))
        assert lmin == pytest.approx(1.0, abs=1e-12)
        assert lmax == pytest.approx(2.25, abs=1e-12)

    def test_two_by_two_against_characteristic_polynomial(self):
        # [[2,1],[1,2]]: det(M - x I) = x^2 - 4x + 3
        expected = np.sort(np.roots([1.0, -4.0, 3.0])).real
        lmin, lmax = sym_eig_extremes(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lmin == pytest.approx(expected[0], abs=1e-10)
        assert lmax == pytest.approx(expected[1], abs=1e-10)

    def test_bounds_rayleigh_quotients(self):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(5, 5))
        M = G + G.T
        lmin, lmax = sym_eig_extremes(M)
        for _ in range(100):
            v = rng.normal(size=5)
            ray = v @ M @ v / (v @ v)
            assert lmin - 1e-10 <= ray <= lmax + 1e-10

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            sym_eig_extremes(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_two_by_two_eigendecomposition_oracle(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        S = psd_sqrt(M)
        np.testing.assert_allclose(S @ S, M, atol=1e-10)
        np.testing.assert_allclose(np.linalg.eigvalsh(S), [1.0, np.sqrt(3.0)], atol=1e-10)

    def test_random_psd_reconstruction(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            G = rng.normal(size=(n, n))
            M = G @ G.T
            S = psd_sqrt(M)
            err = np.linalg.norm(S @ S - M)
            assert err <= 1e-8 * (1.0 + np.linalg.norm(M))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        M = np.diag([1.0, -1e-14])
        S = psd_sqrt(M)
        assert S[1, 1] == 0.0


class TestKron:
    def test_identities(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        np.testing.assert_array_equal(kron([[2.0]], [[3.0]]), [[6.0]])

    def test_block_layout(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = kron(np.diag([1.0, 2.0]), P)
        np.testing.assert_array_equal(out[:2, :2], P)
        np.testing.assert_array_equal(out[2:, 2:], 2.0 * P)
        np.testing.assert_array_equal(out[:2, 2:], np.zeros((2, 2)))


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9, rel=1e-9)

    def test_scalar_lifted_closed_form(self):
        # second-moment multiplier for a=1.5, k=-1.0868, q=0.4
        a, k, q = 1.5, -1.0868, 0.4
        expected = (a + (1 - q) * k) ** 2 + q * (1 - q) * k**2
        assert spectral_radius([[expected]]) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.00244, abs=5e-5)

    def test_kron_square_property(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            for _ in range(10):
                M = rng.normal(size=(n, n))
                rho = spectral_radius(M)
                rho_lifted = spectral_radius(kron(M, M))
                assert rho_lifted == pytest.approx(rho**2, rel=1e-7, abs=1e-12)

    def test_cone_seed_path(self):
        M = np.array([[0.9, 0.2], [0.0, 0.5]])
        lifted = kron(M, M)
        rho = spectral_radius(lifted, cone_seed=np.diag([1.0, 2.0]))
        assert rho == pytest.approx(0.81, rel=1e-9)

    def test_rejects_mismatched_cone_seed(self):
        with pytest.raises(InvalidInputError):
            spectral_radius(np.eye(4), cone_seed=np.eye(3))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            spectral_radius(np.ones((2, 3)))

    def test_power_iteration_does_not_stop_at_a_turn(self):
        # The Rayleigh quotient of this non-normal lifted map overshoots rho
        # and turns back; one small step at the turn is not convergence.
        plant3 = SystemSpec(
            A=np.diag([1.3, 1.2, 0.4]),
            B=np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]]),
            Q=np.eye(3),
            R=np.eye(2),
        )
        gain, _ = ce_gain(plant3, 0.274)
        Phi = lifted_matrix(plant3, gain, 0.24655)
        assert spectral_radius(Phi) == pytest.approx(0.4771610023, abs=1e-10)


def plant3() -> SystemSpec:
    return SystemSpec(
        A=np.diag([1.3, 1.2, 0.4]),
        B=np.array([[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]]),
        Q=np.eye(3),
        R=np.eye(2),
    )


def pair_plant() -> SystemSpec:
    """4 states: an unstable controllable block coupled to an uncontrollable,
    non-normal stable block with eigenvalues 0.95 and -0.95 * 0.998, shown in
    rotated coordinates.  Every lifted map of it has the eigenvalues 0.9025
    and -0.9025 * 0.998."""
    A = np.zeros((4, 4))
    A[:2, :2] = [[1.2, 0.3], [0.0, 0.4]]
    A[2:, 2:] = [[0.95, 0.7], [0.0, -0.95 * 0.998]]
    A[:2, 2:] = [[0.1, -0.2], [0.25, 0.05]]
    B = np.zeros((4, 2))
    B[:2] = np.eye(2)
    T, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
    return SystemSpec(A=T @ A @ T.T, B=T @ B, Q=np.eye(4), R=np.eye(2))


def turn_map():
    plant = plant3()
    gain, _ = ce_gain(plant, 0.274)
    return lifted_matrix(plant, gain, 0.24655), 3


def pair_map():
    plant = pair_plant()
    gain, _ = ce_gain(plant, 0.1)
    return lifted_matrix(plant, gain, 0.15), 4


def example2_map():
    example2 = SystemSpec(A=[[1.5, 0.1], [0.0, 1.0]], B=np.eye(2), Q=np.eye(2), R=np.eye(2))
    gain, _ = ce_gain(example2, 0.1633)
    return lifted_matrix(example2, gain, 0.2), 2


LIFTED_MAPS = {"turn": turn_map, "pair": pair_map, "example2": example2_map}


def brackets(M, rho, n) -> bool:
    """Whether two Lyapunov solves prove rho - tol <= rho(Phi) < rho + tol."""
    return numerics._bounded_above(M, rho, n) and numerics._bounded_below(M, rho, n)


class TestLyapunovBracket:
    """Two Lyapunov solves certify the dense spectral radius of a lifted map."""

    @pytest.mark.parametrize("shift", [2e-7, -2e-7])
    @pytest.mark.parametrize("name", sorted(LIFTED_MAPS))
    def test_shifted_rho_fails_the_bracket(self, monkeypatch, name, shift):
        Phi, n = LIFTED_MAPS[name]()
        rho = numerics._dense_spectral_radius(Phi)
        # Below 1 the bracket's half-width 1e-7 * (1 + rho) is less than 2e-7.
        assert rho < 1.0
        assert brackets(Phi, rho, n)
        assert not brackets(Phi, rho + shift, n)
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: rho + shift)
        if shift < 0:
            # An understated rho is caught by a solve that rounding cannot decide.
            assert numerics._lyapunov_decided(Phi, rho + shift + 1e-7 * (1 + rho + shift), n)
            with pytest.raises(NumericalFailureError, match="from above"):
                spectral_radius(Phi, cone_seed=np.eye(n))
        else:
            # An overstated rho is the safe side of every verdict: returned, with a warning.
            with pytest.warns(RuntimeWarning, match="from below"):
                assert spectral_radius(Phi, cone_seed=np.eye(n)) == rho + shift
        assert spectral_radius(Phi) == rho + shift

    def test_lifted_map_callers_assert_the_cone(self, monkeypatch, example2):
        gain, _ = ce_gain(example2, 0.1633)
        dense = numerics._dense_spectral_radius
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: dense(M) - 2e-7)
        cfg = SimConfig(seed=0, horizon=4, trajectories=2)
        calls = [
            lambda: exact_ms_stable(example2, gain, 0.2),
            lambda: second_moment_sum(example2, gain, 0.2, np.eye(2)),
            lambda: empirical_ms_decay(example2, gain, 0.2, np.ones(2), cfg),
        ]
        for call in calls:
            with pytest.raises(NumericalFailureError, match="bound"):
                call()

    def test_cone_seed_is_a_flag(self):
        Phi, n = turn_map()
        rho = numerics._dense_spectral_radius(Phi)
        assert spectral_radius(Phi, cone_seed=True) == rho
        assert spectral_radius(Phi, cone_seed=np.arange(n * n).reshape(n, n)) == rho
        with pytest.raises(InvalidInputError):
            spectral_radius(np.eye(5), cone_seed=True)

    @pytest.mark.parametrize("n", [3, 4])
    def test_rotated_defective_maps_keep_the_dense_verdict(self, n):
        # N = Q U Q^T with U strictly upper triangular: the lifted map N (x) N
        # of the open loop (K = 0) is nilpotent, but dense eigenvalues put its
        # rho up to 1e-4 above 0 and the Lyapunov solves near s = rho lose
        # every digit.  Rotated Jordan blocks at 0.5 do the same at rho = 0.25.
        rng = np.random.default_rng(0)
        for i in range(20):
            U = np.triu(rng.normal(size=(n, n)), 1)
            if i % 2:
                U += 0.5 * np.eye(n)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            plant = SystemSpec(A=Q @ U @ Q.T, B=np.eye(n), Q=np.eye(n), R=np.eye(n))
            K = np.zeros((n, n))
            dense = numerics._dense_spectral_radius(lifted_matrix(plant, K, 0.3))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                verdict = exact_ms_stable(plant, K, 0.3)
                second_moment_sum(plant, K, 0.3, np.eye(n))
            assert all(issubclass(w.category, RuntimeWarning) for w in caught)
            assert verdict.certificate == dense
            assert verdict.stable

    def test_zero_and_nilpotent_maps(self):
        assert spectral_radius(np.zeros((4, 4)), cone_seed=np.eye(2)) == 0.0
        # A deadbeat gain on the double integrator: (A + BK)^2 = 0, so the
        # lifted map at q = 0 is nilpotent and rho - tol <= 0.
        plant = SystemSpec(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.0], [1.0]], Q=np.eye(2), R=np.eye(1))
        verdict = exact_ms_stable(plant, np.array([[-1.0, -2.0]]), 0.0)
        assert verdict.stable
        assert verdict.certificate <= numerics.DUAL_AGREE_RTOL * (1.0 + verdict.certificate)

    def test_scalar_map(self):
        a, k, q = 1.5, -1.0868, 0.4
        expected = (a + (1 - q) * k) ** 2 + q * (1 - q) * k**2
        for value in (expected, 0.0, 0.25, 1.0, 3.0):
            assert spectral_radius([[value]], cone_seed=[[1.0]]) == value
        assert not brackets(np.array([[0.25]]), 0.25 + 2e-7, 1)
        assert not brackets(np.array([[0.25]]), 0.25 - 2e-7, 1)

    def test_near_plus_minus_pair(self):
        Phi, n = pair_map()
        eig = np.linalg.eigvals(Phi)
        rho = spectral_radius(Phi, cone_seed=np.eye(n))
        assert rho == pytest.approx(0.95**2, rel=1e-9)
        assert np.min(eig.real) == pytest.approx(-(0.95**2) * 0.998, rel=1e-9)

    def test_turn_map(self):
        Phi, n = turn_map()
        assert spectral_radius(Phi, cone_seed=np.eye(n)) == pytest.approx(0.4771610023, abs=1e-10)

    def test_non_cone_matrix_returns_dense_value(self):
        rng = np.random.default_rng(3)
        unbracketed = 0
        for n in (2, 3):
            for _ in range(10):
                M = rng.normal(size=(n * n, n * n))
                rho = numerics._dense_spectral_radius(M)
                assert spectral_radius(M) == rho
                unbracketed += not brackets(M, rho, n)
        # Such matrices need not preserve the cone, and the bracket fails on some.
        assert unbracketed > 0
