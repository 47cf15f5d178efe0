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
    lifted_matrix,
    psd_sqrt,
    second_moment_sum,
    spectral_radius,
    sym_eig_extremes,
    symmetrize,
)
from lossylqr import numerics
from lossylqr.numerics import StallDetector
from conftest import fresh


class TestEmptyMatrix:
    @pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 0), (3, 0, 0)])
    @pytest.mark.parametrize("routine", [sym_eig_extremes, psd_sqrt, symmetrize, spectral_radius])
    def test_is_refused(self, routine, shape):
        with pytest.raises(InvalidInputError):
            routine(np.zeros(shape))

    def test_empty_stack_of_matrices_is_not_a_matrix_of_zero_size(self):
        assert symmetrize(np.zeros((0, 2, 2))).shape == (0, 2, 2)


class TestStallDetector:
    """Windows of StallDetector.WINDOW steps: from START on, a window whose
    smallest change is not 10 % below the last window's counts as a stall,
    and two in a row stop the run."""

    @staticmethod
    def verdicts(runs) -> dict:
        """The array of verdicts at the end of each window, by step."""
        stall, out = StallDetector(), {}
        for it in range(1, 4 * StallDetector.START):
            verdict = stall.stalled(it, np.array([run(it) for run in runs]))
            if it % StallDetector.WINDOW:
                assert verdict is False
            else:
                out[it] = verdict.tolist()
        return out

    def test_windowed_verdicts(self):
        w, start = StallDetector.WINDOW, StallDetector.START
        # A flat run, one 15 % lower each window, and one that is flat from
        # two windows after START on.  Nothing stalls before START; the flat
        # run's windows from START on are both stalls by START + WINDOW, the
        # late run's two windows after it flattens.
        out = self.verdicts(
            [lambda it: 1.0, lambda it: 0.85 ** (it // w), lambda it: 0.85 ** min(it // w, start // w + 2)]
        )
        assert all(v == [False] * 3 for it, v in out.items() if it < start + w)
        assert out[start + w] == [True, False, False]
        assert out[start + 3 * w] == [True, False, False]
        assert out[start + 4 * w] == [True, False, True]
        assert all(v[1] is False for v in out.values())

    def test_one_improving_window_resets_the_count(self):
        w, start = StallDetector.WINDOW, StallDetector.START
        # Flat, but 20 % lower from START on: the window that ends at
        # START + WINDOW improves, so the first stall there does not count.
        out = self.verdicts([lambda it: 0.8 if it > start else 1.0])
        assert [it for it, v in out.items() if v == [True]][0] == start + 3 * w


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


class TestPositiveDefinite:
    def test_matrix_and_stack(self):
        # Cholesky reads the lower triangle only, so this NaN passes it.
        upper_nan = np.array([[1.0, np.nan], [0.0, 1.0]])
        members = [np.eye(2), np.diag([1.0, -1.0]), upper_nan, 2.0 * np.eye(2)]
        expected = [True, False, False, True]
        assert [numerics._positive_definite(M) for M in members] == expected
        # One stacked call gives each member its own verdict, with a failing member in it or not.
        np.testing.assert_array_equal(numerics._positive_definite(np.stack(members)), expected)
        np.testing.assert_array_equal(numerics._positive_definite(np.stack([np.eye(2), upper_nan])), [True, False])
        np.testing.assert_array_equal(numerics._positive_definite(np.stack([np.eye(2), 2.0 * np.eye(2)])), [True, True])
        # Every member failing, and 1 x 1 members.
        failing = np.stack([np.diag([1.0, -1.0]), -np.eye(2), np.zeros((2, 2))])
        np.testing.assert_array_equal(numerics._positive_definite(failing), [False, False, False])
        assert not numerics._positive_definite(np.array([[-1.0]]))
        np.testing.assert_array_equal(numerics._positive_definite(np.array([[[2.0]], [[-1.0]], [[0.0]]])), [True, False, False])


def psd_stack(k: int = 6, n: int = 3) -> np.ndarray:
    """k random PSD n x n matrices, each with an asymmetry of 1e-14 (within tolerance)."""
    G = np.random.default_rng(19).normal(size=(k, n, n))
    M = G @ G.mT
    M[:, 0, 1] += 1e-14
    return M


class TestStacks:
    """symmetrize, sym_eig_extremes and psd_sqrt give each member of a (k, n, n)
    stack the bits of the 2-d call, and run every check on every member."""

    def test_members_equal_2d_calls(self):
        M = psd_stack()
        for f in (symmetrize, psd_sqrt):
            stacked = f(M)
            assert [S.tobytes() for S in stacked] == [f(m).tobytes() for m in M]
        lmin, lmax = sym_eig_extremes(M)
        assert list(zip(lmin.tolist(), lmax.tolist())) == [sym_eig_extremes(m) for m in M]

    def test_every_member_is_checked(self):
        M = psd_stack()
        asymmetric, nan, indefinite = M.copy(), M.copy(), M.copy()
        asymmetric[4, 0, 1] += 1.0
        nan[2, 1, 1] = np.nan
        indefinite[3], indefinite[5] = np.diag([1.0, -0.5, 1.0]), np.diag([1.0, -0.25, 1.0])
        for f in (symmetrize, sym_eig_extremes, psd_sqrt):
            with pytest.raises(InvalidInputError, match="not symmetric"):
                f(asymmetric)
            with pytest.raises(InvalidInputError, match="non-finite"):
                f(nan)
        # The message names the first member below the tolerance.
        with pytest.raises(NotPSDError, match="-5.000e-01"):
            psd_sqrt(indefinite)

    def test_tiny_negative_eigenvalue_clipped_per_member(self):
        M = psd_stack()
        M[5] = np.diag([1.0, -1e-14, 4.0])
        S = psd_sqrt(M)
        assert S[5, 1, 1] == 0.0 and S[5].tobytes() == psd_sqrt(M[5]).tobytes()

    def test_empty_stack(self):
        empty = np.empty((0, 2, 2))
        assert numerics._fro(empty).shape == (0,)
        assert symmetrize(empty).shape == psd_sqrt(empty).shape == (0, 2, 2)
        assert [v.shape for v in sym_eig_extremes(empty)] == [(0,), (0,)]

    def test_other_ranks_refused(self):
        for M in (np.ones(3), np.ones((2, 2, 2, 2))):
            with pytest.raises(InvalidInputError):
                symmetrize(M)
        with pytest.raises(InvalidInputError):
            spectral_radius(np.ones((2, 2, 2)))


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
                rho_lifted = spectral_radius(np.kron(M, M))
                assert rho_lifted == pytest.approx(rho**2, rel=1e-7, abs=1e-12)

    def test_cone_seed_path(self):
        M = np.array([[0.9, 0.2], [0.0, 0.5]])
        lifted = np.kron(M, M)
        rho = spectral_radius(lifted, cone=True)
        assert rho == pytest.approx(0.81, rel=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            spectral_radius(np.ones((2, 3)))

    def test_non_normal_map_with_a_rayleigh_turn(self):
        # In a power iteration on this non-normal lifted map, the Rayleigh
        # quotient overshoots rho and turns back, so a test for small steps
        # can stop about 2e-7 from rho.  The dense eigenvalues do not iterate.
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


def proves_below(M, s, n) -> bool:
    """Whether the Lyapunov solve at s proves rho(Phi) < s."""
    solved = numerics._lyapunov_solve(M, s, n)
    return solved is not None and numerics._positive_definite(solved[1])


def brackets(M, rho, n) -> bool:
    """Whether two Lyapunov solves prove rho - tol <= rho(Phi) < rho + tol."""
    tol = numerics.DUAL_AGREE_RTOL * (1.0 + rho)
    return proves_below(M, rho + tol, n) and (rho - tol <= 0.0 or not proves_below(M, rho - tol, n))


def rounding_decides(M, s, n) -> bool:
    """Whether rounding in the solve at s cannot have moved X across the
    boundary of the PSD cone (Weyl: |lambda_min(X)| > eps cond ||X||_2)."""
    system, X = numerics._lyapunov_solve(M, s, n)
    w = np.linalg.eigvalsh(X)
    return bool(abs(w[0]) > np.finfo(float).eps * np.linalg.cond(system) * np.max(np.abs(w)))


def two_solve_bracket(M, rho, n):
    """The certification of `spectral_radius(M, cone=True)` as an independent
    route: one solve for each positive-definiteness test and another for the
    rounding test.  Returns ("value", rho), ("warn", rho, message) or
    ("raise", message), with rho as float.hex."""
    rtol = numerics.DUAL_AGREE_RTOL
    tol = rtol * (1.0 + rho)

    def positive_definite(s):
        try:
            X = np.linalg.solve(np.eye(n * n) - M / s, np.eye(n).reshape(-1)).reshape(n, n)
            np.linalg.cholesky(0.5 * (X + X.T))
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(np.isfinite(X)))

    def decided(s):
        system = np.eye(n * n) - M / s
        try:
            X = np.linalg.solve(system, np.eye(n).reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError:
            return False
        w = np.linalg.eigvalsh(0.5 * (X + X.T))
        return bool(abs(w[0]) > np.finfo(float).eps * np.linalg.cond(system) * np.max(np.abs(w)))

    if not positive_definite(rho + tol):
        if decided(rho + tol):
            return (
                "raise",
                f"a Lyapunov solve at rho + {rtol:.0e} * (1 + rho) does not "
                f"bound the dense spectral radius {rho:.12e} from above",
            )
        side = "above (the solve is too ill-conditioned to tell)"
    elif rho - tol > 0.0 and positive_definite(rho - tol):
        side = "below (it may overstate rho)"
    else:
        return ("value", rho.hex())
    return (
        "warn",
        rho.hex(),
        f"Lyapunov solves at rho -/+ {rtol:.0e} * (1 + rho) do not bound the dense spectral radius {rho:.12e} from {side}",
    )


def cone_outcome(M):
    """`spectral_radius(M, cone=True)` in the form of `two_solve_bracket`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rho = spectral_radius(M, cone=True)
        except NumericalFailureError as exc:
            return ("raise", str(exc))
    if not caught:
        return ("value", rho.hex())
    (warning,) = caught
    assert warning.category is RuntimeWarning
    return ("warn", rho.hex(), str(warning.message))


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
            assert rounding_decides(Phi, rho + shift + 1e-7 * (1 + rho + shift), n)
            with pytest.raises(NumericalFailureError, match="from above"):
                spectral_radius(Phi, cone=True)
        else:
            # An overstated rho is the safe side of every verdict: returned, with a warning.
            with pytest.warns(RuntimeWarning, match="from below"):
                assert spectral_radius(Phi, cone=True) == rho + shift
        assert spectral_radius(Phi) == rho + shift

    def test_lifted_map_callers_assert_the_cone(self, monkeypatch, example2):
        # A fresh plant keeps no radius that would not reach the patched kernel.
        plant = fresh(example2)
        gain, _ = ce_gain(plant, 0.1633)
        dense = numerics._dense_spectral_radius
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: dense(M) - 2e-7)
        cfg = SimConfig(seed=0, horizon=4, trajectories=2)
        calls = [
            lambda: exact_ms_stable(plant, gain, 0.2),
            lambda: second_moment_sum(plant, gain, 0.2, np.eye(2)),
            lambda: empirical_ms_decay(plant, gain, 0.2, np.ones(2), cfg),
        ]
        for call in calls:
            with pytest.raises(NumericalFailureError, match="bound"):
                call()

    def test_one_solve_per_side_matches_the_two_solve_route(self, monkeypatch):
        # Random lifted maps, n <= 4, among them rotated Jordan blocks and
        # nilpotent maps, with the dense rho shifted to either side of both
        # bracket edges: the same value bits, warnings and errors as solving
        # each side's system again for the rounding test.
        rng = np.random.default_rng(2024)
        dense = numerics._dense_spectral_radius
        kinds = []
        for t in range(400):
            n = int(rng.integers(1, 5))
            if t % 4 == 0:
                A = 0.6 * rng.normal(size=(n, n))
            elif t % 4 == 1:
                U = np.triu(rng.normal(size=(n, n)), 1) + 0.5 * np.eye(n) * (t % 8 == 1)
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                A = Q @ U @ Q.T
            elif t % 4 == 2:
                A = rng.normal(size=(n, n))
            else:
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                A = Q @ np.diag(rng.uniform(-1.0, 1.0, size=n)) @ Q.T
            B = rng.normal(size=(n, n))
            K = 0.3 * rng.normal(size=(n, n))
            q = float(rng.uniform())
            closed = A + B @ K
            M = (1.0 - q) * np.kron(closed, closed) + q * np.kron(A, A)
            rho = dense(M)
            for shift in (0.0, 5e-8, -5e-8, 2e-7, -2e-7):
                monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda X: rho + shift)
                expected = two_solve_bracket(M, rho + shift, n)
                assert cone_outcome(M) == expected
                kinds.append(expected[0])
        monkeypatch.undo()
        # Every outcome is exercised (1552, 224 and 224 of the 2000 with numpy 2.4.6).
        assert min(kinds.count(kind) for kind in ("value", "warn", "raise")) >= 100

    def test_cone_seed_is_a_flag(self):
        Phi, n = turn_map()
        rho = numerics._dense_spectral_radius(Phi)
        assert spectral_radius(Phi, cone=True) == rho
        with pytest.raises(InvalidInputError):
            spectral_radius(np.eye(5), cone=True)
        # The flag is keyword-only: a seed matrix passed by position fails loudly.
        with pytest.raises(TypeError):
            spectral_radius(Phi, np.eye(n))

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
        assert spectral_radius(np.zeros((4, 4)), cone=True) == 0.0
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
            assert spectral_radius([[value]], cone=True) == value
        assert not brackets(np.array([[0.25]]), 0.25 + 2e-7, 1)
        assert not brackets(np.array([[0.25]]), 0.25 - 2e-7, 1)

    def test_near_plus_minus_pair(self):
        Phi, n = pair_map()
        eig = np.linalg.eigvals(Phi)
        rho = spectral_radius(Phi, cone=True)
        assert rho == pytest.approx(0.95**2, rel=1e-9)
        assert np.min(eig.real) == pytest.approx(-(0.95**2) * 0.998, rel=1e-9)

    def test_turn_map(self):
        Phi, n = turn_map()
        assert spectral_radius(Phi, cone=True) == pytest.approx(0.4771610023, abs=1e-10)

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


def layer_outcome(f, *args):
    """The bytes, shape and dtype of each array f returns, or its error's type and message."""
    try:
        out = f(*args)
    except Exception as error:  # noqa: BLE001 - the type is part of the outcome
        return type(error), str(error)
    return [(x.tobytes(), x.shape, x.dtype) for x in (out if isinstance(out, tuple) else (out,))]


def public_eigh(a: np.ndarray) -> tuple:
    return tuple(np.linalg.eigh(a))


def spectrum_views(w: np.ndarray) -> tuple:
    """The bytes of |w|, Re w and Im w: equal for real w and for w held as complex."""
    return np.abs(w).tobytes(), np.real(w).tobytes(), np.imag(w).tobytes(), w.shape


class TestLapackLayer:
    """The private layer of numerics calls numpy.linalg's gufuncs without the
    public functions' argument handling, and gives their bits and errors."""

    rng = np.random.default_rng(29)
    square = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
    stack = rng.normal(size=(5, 3, 3)) + 3.0 * np.eye(3)
    spd = square @ square.T
    spd_stack = stack @ stack.mT
    # A^T X B is formed transposed by the gain solve: a strided right-hand side.
    strided = rng.normal(size=(5, 2, 3)).mT

    SOLVES = {
        "1-d": (square, rng.normal(size=4)),
        "2-d": (square, rng.normal(size=(4, 3))),
        "stack, (k, d, 1)": (stack, rng.normal(size=(5, 3, 1))),
        "stack, (k, d, d)": (stack, rng.normal(size=(5, 3, 3))),
        "stack, strided": (stack, strided),
        "one matrix, stacked right-hand sides": (square, rng.normal(size=(2, 4, 4))),
    }

    @pytest.mark.parametrize("case", list(SOLVES))
    def test_solve_bits(self, case):
        a, b = self.SOLVES[case]
        assert layer_outcome(numerics._solve, a, b) == layer_outcome(np.linalg.solve, a, b)

    @pytest.mark.parametrize(
        "layer, public",
        [
            (numerics._cholesky, np.linalg.cholesky),
            (numerics._eigvalsh, np.linalg.eigvalsh),
            (numerics._eigh, public_eigh),
        ],
    )
    @pytest.mark.parametrize("which", ["2-d", "stack"])
    def test_symmetric_kernel_bits(self, layer, public, which):
        a = self.spd if which == "2-d" else self.spd_stack
        assert layer_outcome(layer, a) == layer_outcome(public, a)

    @pytest.mark.parametrize(
        "case",
        ["real 2-d", "complex 2-d", "real stack", "mixed stack", "triangular"],
    )
    def test_eigvals_bits(self, case):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        a = {
            "real 2-d": self.spd,
            "complex 2-d": self.square,
            "real stack": self.spd_stack,
            "mixed stack": np.stack([np.kron(rotation, np.eye(2)), self.spd]),
            "triangular": np.triu(self.square),
        }[case]
        w, public = numerics._eigvals(a), np.linalg.eigvals(a)
        assert w.dtype == np.complex128
        assert spectrum_views(w) == spectrum_views(public)
        if np.iscomplexobj(public):
            assert w.tobytes() == public.tobytes()
        rho = np.asarray(numerics._dense_spectral_radius(a))
        assert rho.tobytes() == np.max(np.abs(public), axis=-1).tobytes()

    def test_all_real_spectra_are_the_public_real_arrays(self):
        for a in (self.spd, self.spd_stack, np.triu(self.square)):
            public = np.linalg.eigvals(a)
            assert not np.iscomplexobj(public)
            assert numerics._eigvals(a).real.tobytes() == public.tobytes()

    SINGULAR_STACK = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    NOT_PD = np.diag([1.0, -1.0, 2.0])

    @pytest.mark.parametrize(
        "layer, public, args",
        [
            (numerics._solve, np.linalg.solve, (SINGULAR_STACK, np.ones((3, 3, 1)))),
            (numerics._solve, np.linalg.solve, (np.ones((3, 3)), np.ones(3))),
            (numerics._cholesky, np.linalg.cholesky, (NOT_PD,)),
            (numerics._cholesky, np.linalg.cholesky, (np.stack([np.eye(3), NOT_PD]),)),
            (numerics._eigvals, np.linalg.eigvals, (np.array([[1.0, np.nan], [0.0, 1.0]]),)),
            (numerics._eigvals, np.linalg.eigvals, (np.stack([np.eye(2), np.full((2, 2), np.inf)]),)),
        ],
        ids=["singular member", "singular matrix", "not PD", "not PD member", "NaN", "inf member"],
    )
    def test_same_error(self, layer, public, args):
        expected = layer_outcome(public, *args)
        assert expected[0] is np.linalg.LinAlgError
        assert layer_outcome(layer, *args) == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "layer, public",
        [
            (numerics._solve, np.linalg.solve),
            (numerics._cholesky, np.linalg.cholesky),
            (numerics._eigvalsh, np.linalg.eigvalsh),
            (numerics._eigh, public_eigh),
        ],
    )
    def test_non_finite_input_gives_the_public_outcome(self, layer, public, value):
        a = self.spd.copy()
        a[1, 2] = a[2, 1] = value
        args = (a, np.ones(4)) if layer is numerics._solve else (a,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert layer_outcome(layer, *args) == layer_outcome(public, *args)

    def test_a_missing_gufunc_is_named(self):
        with pytest.raises(ImportError, match=r"numpy\.linalg\._umath_linalg\.no_such_kernel"):
            numerics._gufunc("no_such_kernel")

    def test_no_public_call_outside_the_layer(self):
        """No module of the package calls numpy.linalg's solve, cholesky,
        eigvals, eigvalsh or eigh, nor imports them, outside the layer."""
        import ast
        from pathlib import Path

        import lossylqr

        kernels = {"solve", "cholesky", "eigvals", "eigvalsh", "eigh"}
        found = []
        for path in sorted(Path(lossylqr.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr in kernels:
                    owner = ast.unparse(node.value)
                    if owner in ("np.linalg", "numpy.linalg", "linalg"):
                        found.append(f"{path.name}:{node.lineno}: {owner}.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "numpy.linalg._linalg"):
                    found += [f"{path.name}:{node.lineno}: import {a.name}" for a in node.names if a.name in kernels]
        assert found == []
