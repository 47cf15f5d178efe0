import numpy as np
import pytest

from lossylqr import (
    InvalidInputError,
    NotPSDError,
    SystemSpec,
    ce_gain,
    kron,
    lifted_matrix,
    psd_sqrt,
    spectral_radius,
    sym_eig_extremes,
    symmetrize,
)


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
