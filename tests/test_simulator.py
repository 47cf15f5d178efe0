import itertools
import os
import random

import numpy as np
import pytest

from lossylqr import (
    DimensionError,
    InvalidInputError,
    SimConfig,
    SystemSpec,
    UnstableError,
    ce_gain,
    empirical_ms_decay,
    estimate_loss_rate,
    lifted_matrix,
    monte_carlo_cost,
    sample_channel,
    simulate_trajectory,
)
from lossylqr import simulator
from lossylqr.simulator import (
    _FAMILY_TRAJECTORY,
    DIVERGENCE_NORM,
    _batched_rollout,
    _gaussian_draw,
    _mix64_array,
    _philox_words,
    _quadratic_form,
    _stream,
    _stream_key,
    _trajectory_draws,
)

PLANT3 = SystemSpec(
    A=np.diag([1.3, 1.2, 0.4]), B=[[1.0, 0.0], [0.0, 1.0], [0.2, 0.1]], Q=np.eye(3), R=np.eye(2)
)
PLANT5 = SystemSpec(
    A=np.diag([1.2, 0.9, 0.5, 1.1, 0.3]) + np.diag([0.1, 0.2, 0.0, 0.1], k=1),
    B=[[1.0, 0.0], [0.0, 1.0], [0.3, 0.0], [0.0, 0.5], [0.1, 0.1]],
    Q=np.eye(5),
    R=np.eye(2),
)


def gaussian_law(n: int):
    """A fixed (mean, covariance) pair of size n with a dense covariance."""
    rng = np.random.default_rng(100 + n)
    G = rng.normal(size=(n, n))
    return rng.normal(size=n), G @ G.T + 0.1 * np.eye(n)


class TestSampleChannel:
    def test_bit_reproducible(self):
        first = sample_channel(0.2, 50, seed=7)
        second = sample_channel(0.2, 50, seed=7)
        np.testing.assert_array_equal(first.bits, second.bits)

    def test_seeds_give_distinct_streams(self):
        a = sample_channel(0.2, 200, seed=0)
        b = sample_channel(0.2, 200, seed=1)
        assert not np.array_equal(a.bits, b.bits)

    def test_law_of_large_numbers(self):
        samples = sample_channel(0.2, 10**6, seed=0)
        assert abs(estimate_loss_rate(samples) - 0.2) <= 0.002

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            sample_channel(0.0, 10, seed=0)
        with pytest.raises(InvalidInputError):
            sample_channel(1.0, 10, seed=0)
        with pytest.raises(InvalidInputError):
            sample_channel(0.5, 0, seed=0)


class TestSimulateTrajectory:
    def test_deadbeat_with_delivered_packets(self, example1):
        cfg = SimConfig(seed=0, horizon=10, trajectories=1)
        traj = simulate_trajectory(example1, np.array([[-1.5]]), 0.0, np.array([1.0]), cfg)
        np.testing.assert_array_equal(traj.drops, np.ones(10, dtype=np.int8))
        np.testing.assert_allclose(traj.states[1:], np.zeros((10, 1)), atol=1e-15)

    def test_open_loop_is_exact_power(self, example2):
        cfg = SimConfig(seed=5, horizon=12, trajectories=1)
        x0 = np.array([1.0, -2.0])
        traj = simulate_trajectory(example2, np.zeros((2, 2)), 0.3, x0, cfg)
        x = x0.copy()
        for t in range(13):
            np.testing.assert_allclose(traj.states[t], x, rtol=1e-13)
            x = example2.A @ x

    def test_states_obey_recursion(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=11, horizon=30, trajectories=1)
        traj = simulate_trajectory(example2, gain, 0.2, np.array([0.9325, 1.1616]), cfg)
        for t in range(30):
            u = gain.K @ traj.states[t]
            expected = example2.A @ traj.states[t] + traj.drops[t] * (example2.B @ u)
            np.testing.assert_allclose(traj.states[t + 1], expected, rtol=1e-13)

    def test_reference_design_decays_on_average(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        x0 = np.array([0.9325, 1.1616])
        cfg = SimConfig(seed=0, horizon=200, trajectories=400)
        final_norms = [
            np.linalg.norm(
                simulate_trajectory(example2, gain, 0.2, x0, cfg, trajectory_index=k).states[-1]
            )
            for k in range(cfg.trajectories)
        ]
        assert np.mean(final_norms) < 1e-3 * np.linalg.norm(x0)

    def test_divergence_flag(self):
        sys = SystemSpec(A=100.0, B=1.0, Q=1.0, R=1.0)
        cfg = SimConfig(seed=0, horizon=120, trajectories=1)
        traj = simulate_trajectory(sys, np.zeros((1, 1)), 0.0, np.array([1.0]), cfg)
        assert traj.divergent
        assert len(traj.states) < 121

    def test_bit_identical_rerun(self, example1):
        gain, _ = ce_gain(example1, 0.1)
        cfg = SimConfig(seed=42, horizon=50, trajectories=1)
        a = simulate_trajectory(example1, gain, 0.3, np.array([1.0]), cfg)
        b = simulate_trajectory(example1, gain, 0.3, np.array([1.0]), cfg)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.drops, b.drops)
        assert a.realized_cost == b.realized_cost

    def test_gaussian_initial_state(self, example2):
        gain, _ = ce_gain(example2, 0.1)
        cfg = SimConfig(seed=9, horizon=5, trajectories=1)
        mean, cov = np.zeros(2), np.diag([1.0, 4.0])
        a = simulate_trajectory(example2, gain, 0.2, (mean, cov), cfg)
        b = simulate_trajectory(example2, gain, 0.2, (mean, cov), cfg)
        np.testing.assert_array_equal(a.states[0], b.states[0])
        assert not np.array_equal(a.states[0], mean)


class TestBatchedConsistency:
    def test_batch_matches_single_trajectories(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        cfg = SimConfig(seed=0, horizon=60, trajectories=8)
        costs, divergent, _ = _batched_rollout(example1, gain, 0.2, np.array([1.0]), cfg)
        assert not divergent.any()
        for k in range(8):
            traj = simulate_trajectory(example1, gain, 0.2, np.array([1.0]), cfg, trajectory_index=k)
            assert traj.realized_cost == pytest.approx(costs[k], rel=1e-12)


class TestTrajectoryDraws:
    """The batched draws equal simulate_trajectory's per-trajectory streams bit for bit."""

    SEEDS = (0, 1, -7, 2**63 + 5, 2**64 - 1)
    # The last three horizons straddle the switch from the lock-step route of
    # a deterministic x0 to the re-keyed one.
    HORIZONS = (1, 3, 4, 5, 9, 200) + tuple(simulator._REKEYED_HORIZON + d for d in (-1, 0, 1))
    RATES = (0.0, 0.3, 1.0)
    GAUSSIAN = (np.zeros(2), np.diag([1.0, 4.0]))
    FIXED = np.array([0.9325, 1.1616])

    @staticmethod
    def assert_rows_match(sys, x0, q, cfg, start, X0, lam, rows):
        gain, _ = ce_gain(sys, 0.1633)
        assert lam.dtype == np.int8
        for row in rows:
            traj = simulate_trajectory(sys, gain, q, x0, cfg, trajectory_index=start + row)
            assert not traj.divergent
            np.testing.assert_array_equal(X0[row], traj.states[0])
            np.testing.assert_array_equal(lam[row], traj.drops)

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fixed_x0_across_a_chunk_boundary(self, example2, seed, horizon):
        per_chunk = simulator._CHUNK_BLOCKS // -(-horizon // 4)
        start, count = 3, per_chunk + 2
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=start + count)
        rows = [0, 1, per_chunk - 2, per_chunk - 1, per_chunk, per_chunk + 1]
        for q in self.RATES:
            X0, lam = _trajectory_draws(example2, self.FIXED, q, cfg, start, start + count)
            assert X0.shape == (count, 2) and lam.shape == (count, horizon)
            self.assert_rows_match(example2, self.FIXED, q, cfg, start, X0, lam, rows)

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("plant", ["example1", "example2", "plant3", "plant5"])
    def test_gaussian_x0(self, request, plant, seed, horizon):
        sys = {"plant3": PLANT3, "plant5": PLANT5}.get(plant) or request.getfixturevalue(plant)
        x0 = self.GAUSSIAN if sys.n == 2 else gaussian_law(sys.n)
        start, count = 5, 6
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=start + count)
        for q in self.RATES:
            X0, lam = _trajectory_draws(sys, x0, q, cfg, start, start + count)
            assert X0.shape == (count, sys.n)
            self.assert_rows_match(sys, x0, q, cfg, start, X0, lam, range(count))

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_every_row_with_small_chunks(self, example2, monkeypatch, horizon):
        # Three blocks per chunk: many boundaries, and trajectories longer
        # than a chunk.
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 3)
        cfg = SimConfig(seed=1, horizon=horizon, trajectories=20)
        X0, lam = _trajectory_draws(example2, self.FIXED, 0.3, cfg, 2, 20)
        self.assert_rows_match(example2, self.FIXED, 0.3, cfg, 2, X0, lam, range(18))

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_lockstep_route_at_every_horizon(self, example2, monkeypatch, seed, horizon):
        # With the switch moved past every horizon, long horizons take the
        # lock-step route too, in chunks of three blocks.
        monkeypatch.setattr(simulator, "_REKEYED_HORIZON", 10**9)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", 3)
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=8)
        for q in self.RATES:
            X0, lam = _trajectory_draws(example2, self.FIXED, q, cfg, 1, 8)
            self.assert_rows_match(example2, self.FIXED, q, cfg, 1, X0, lam, range(7))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_equal_random_raw(self, seed):
        index = np.array([0, 1, 2, 2**40 + 3, 2**64 - 1], dtype=np.uint64)
        keys = np.uint64(seed & (2**64 - 1)) ^ _mix64_array(index)
        for blocks, rows in itertools.product(range(1, 8), (1, index.size)):
            words = np.stack(_philox_words(keys[:rows], _FAMILY_TRAJECTORY, blocks), axis=2).reshape(rows, -1)
            for row, k in enumerate(index[:rows]):
                key = np.array([_stream_key(seed, int(k)), _FAMILY_TRAJECTORY], dtype=np.uint64)
                np.testing.assert_array_equal(words[row], np.random.Philox(key=key).random_raw(4 * blocks))
                # The same words are the uniforms of the trajectory's stream.
                uniforms = (words[row] >> np.uint64(11)) * 2.0**-53
                expected = _stream(seed, int(k), _FAMILY_TRAJECTORY).random(4 * blocks)
                np.testing.assert_array_equal(uniforms, expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer_threshold_equals_random_compare(self, example1, seed):
        # At q equal to a drawn uniform, and one ulp to either side of it, the
        # channel bit flips exactly where Generator.random(T) >= q does.
        T, count = 28, 3
        cfg = SimConfig(seed=seed, horizon=T, trajectories=count)
        uniforms = [_stream(seed, k, _FAMILY_TRAJECTORY).random(T) for k in range(count)]
        drawn = np.concatenate(uniforms)
        rates = np.concatenate(
            [[0.0, 1.0, 5e-324, 2.0**-53, np.nextafter(1.0, 0.0)], drawn,
             np.nextafter(drawn, 2.0), np.nextafter(drawn, -1.0)]
        )
        for q in rates:
            q = float(min(max(q, 0.0), 1.0))
            _, lam = _trajectory_draws(example1, np.array([1.0]), q, cfg, 0, count)
            for k in range(count):
                np.testing.assert_array_equal(lam[k], uniforms[k] >= q, err_msg=f"q = {q!r}")


    @pytest.mark.parametrize("seed", SEEDS)
    def test_integer_threshold_on_the_rekeyed_route(self, example1, seed):
        # As above, on the re-keyed route: a deterministic x0 at the first
        # horizon that takes it, and a Gaussian x0, whose words follow its
        # normals.
        T, count = simulator._REKEYED_HORIZON, 2
        cfg = SimConfig(seed=seed, horizon=T, trajectories=count)
        for x0 in (np.array([1.0]), (np.zeros(1), np.eye(1))):
            uniforms = []
            for k in range(count):
                rng = _stream(seed, k, _FAMILY_TRAJECTORY)
                if isinstance(x0, tuple):
                    rng.standard_normal((1, 1))
                uniforms.append(rng.random(T))
            drawn = np.concatenate(uniforms)
            rates = np.concatenate(
                [[0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)], drawn, np.nextafter(drawn, 2.0), np.nextafter(drawn, -1.0)]
            )
            for q in rates:
                q = float(min(max(q, 0.0), 1.0))
                _, lam = _trajectory_draws(example1, x0, q, cfg, 0, count)
                for k in range(count):
                    np.testing.assert_array_equal(lam[k], uniforms[k] >= q, err_msg=f"q = {q!r}")


class TestQuadraticForm:
    """The column sum equals the three-operand einsum it replaces, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equal_to_einsum(self, n):
        rng = np.random.default_rng(n)
        G = rng.normal(size=(n, n))
        W = G @ G.T + 0.1 * np.eye(n)
        X = rng.normal(size=(400, n)) * np.exp(rng.normal(size=(400, 1)) * 5.0)
        X[:20] = 0.0
        X[20:40, 0] = -0.0
        # Rows of norm just below and just above DIVERGENCE_NORM (forms near
        # 1e300), and rows whose forms overflow to inf.
        direction = rng.normal(size=(60, n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        X[40:60] = direction[:20] * np.nextafter(DIVERGENCE_NORM, 0.0)
        X[60:80] = direction[20:40] * DIVERGENCE_NORM * 1.01
        X[80:100] = direction[40:] * 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.einsum("ij,jk,ik->i", X, W, X)
            np.testing.assert_array_equal(_quadratic_form(X, W), expected)
        assert np.signbit(expected[:40]).sum() == 0


class TestOuterProducts:
    """Where a product of the rollout has an inner dimension of 1, the rollout
    forms it without BLAS; every output keeps the matmul's bits."""

    RANK_ONE_B = SystemSpec(A=[[1.1, 0.2], [0.0, 0.9]], B=[[1.0], [0.0]], Q=np.eye(2), R=[[1.0]])

    @staticmethod
    def initial_states(n: int, count: int) -> np.ndarray:
        """Rows of +0.0 and -0.0 (also mixed), subnormal rows, large rows and
        rows that pass DIVERGENCE_NORM within a few steps."""
        rng = np.random.default_rng(n)
        X0 = rng.normal(size=(count, n)) * np.exp(rng.normal(size=(count, 1)) * 3.0)
        X0[:10] = 0.0
        X0[10:20] = -0.0
        X0[20:25, 0] = -0.0
        X0[25:30] = 5e-324 * rng.integers(-3, 4, size=(5, n))
        X0[30:40] *= 1e300 / np.abs(X0[30:40]).max()
        X0[40:50] = DIVERGENCE_NORM * rng.uniform(0.6, 0.99, size=(10, n))
        return X0

    @pytest.mark.parametrize(
        "plant, K",
        [
            ("example1", [[0.0]]),
            ("example1", [[-0.0]]),
            ("example1", [[-1.2]]),
            ("example1", [[0.3]]),
            ("rank_one_B", [[-0.5, 0.0]]),
            ("rank_one_B", [[0.0, -0.0]]),
            ("rank_one_B", [[0.7, -1e-300]]),
        ],
    )
    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("track_msq", [False, True])
    def test_rollout_equals_matmul_rollout(self, request, monkeypatch, plant, K, q, track_msq):
        sys = self.RANK_ONE_B if plant == "rank_one_B" else request.getfixturevalue(plant)
        cfg = SimConfig(seed=9, horizon=30, trajectories=200)
        X0 = self.initial_states(sys.n, cfg.trajectories)
        draws = simulator._trajectory_draws
        monkeypatch.setattr(simulator, "_trajectory_draws", lambda *args: (X0.copy(), draws(*args)[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            outer = _batched_rollout(sys, np.array(K), q, np.zeros(sys.n), cfg, track_msq)
            monkeypatch.setattr(simulator, "_times_transpose", lambda X, W: X @ W.T)
            reference = _batched_rollout(sys, np.array(K), q, np.zeros(sys.n), cfg, track_msq)
        assert 0 < reference[1].sum() < cfg.trajectories
        for got, expected in zip(outer, reference):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, columns", [(1, 1), (7, 1), (400, 1), (400, 2), (400, 3)])
    def test_product_equals_matmul(self, rows, columns):
        rng = np.random.default_rng(rows * columns)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1e-300, 1.0]
        X = rng.choice(special + list(rng.normal(size=9)), size=(rows, 1))
        W = rng.choice(special + list(rng.normal(size=9)), size=(columns, 1))
        with np.errstate(over="ignore"):
            assert simulator._times_transpose(X, W).tobytes() == (X @ W.T).tobytes()
        assert not np.signbit(simulator._times_transpose(np.array([[-0.0]]), np.array([[1.0]]))).any()


class TestPinnedOutputs:
    """Monte Carlo outputs, pinned as float.hex, unchanged since they were recorded
    (numpy 2.4.6, OpenBLAS, x86-64).  Fixed and Gaussian x0, horizons 8 to 200,
    plants with one, two and three states."""

    DENSE3 = SystemSpec(
        A=[[1.1, 0.2, 0.0], [0.0, 0.9, 0.3], [0.1, 0.0, 1.05]],
        B=[[1.0, 0.0], [0.5, 1.0], [0.0, 0.3]],
        Q=[[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]],
        R=[[1.0, 0.2], [0.2, 0.7]],
    )
    G2 = ((0.0, 0.0), ((1.0, 0.0), (0.0, 4.0)))
    G3 = ((1.0, -1.0, 0.5), ((2.0, 0.5, 0.1), (0.5, 1.0, 0.3), (0.1, 0.3, 0.8)))
    # kind, plant, q_hat, q, x0, seed, horizon, trajectories, expected
    CASES = [
        ("cost", "example1", 0.0, 0.2, (1.0,), 11, 200, 500, ("0x1.2f8cf0ff27668p+2", "0x1.0d31eef8bce83p-2")),
        ("cost", "example2", 0.1633, 0.2, G2, 12, 50, 300, ("0x1.c6a629ddd9c33p+3", "0x1.97a95a695860ap+0")),
        ("decay", "example2", 0.1633, 0.2, (0.9325, 1.1616), 13, 8, 3000, (True, "-0x1.c8a8cd1529e1bp-1")),
        ("decay", "example1", 0.0, 0.4, (1.0,), 14, 10, 3000, (True, "-0x1.0d9100f089c8bp-5")),
        ("cost", "dense3", 0.1, 0.1, G3, 15, 10, 400, ("0x1.ca0039a5675cdp+4", "0x1.6f88099e5f5b7p+0")),
        ("decay", "dense3", 0.1, 0.1, (1.0, -2.0, 0.5), 16, 50, 400, (True, "-0x1.d5e84fbfa928ap-3")),
        ("decay", "example2", 0.1633, 0.2, G2, 17, 200, 200, (True, "-0x1.9b979595c2b77p+0")),
        ("cost", "dense3", 0.1, 0.15, (0.3, 0.2, -1.0), 18, 8, 700, ("0x1.f39f5bb4bfeedp+2", "0x1.5f715c7078165p-6")),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-T{c[6]}-seed{c[5]}")
    def test_outputs(self, request, case):
        kind, plant, q_hat, q, x0, seed, horizon, trajectories, expected = case
        sys = self.DENSE3 if plant == "dense3" else request.getfixturevalue(plant)
        gain, _ = ce_gain(sys, q_hat)
        x0 = (np.array(x0[0]), np.array(x0[1])) if isinstance(x0[0], tuple) else np.array(x0)
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=trajectories)
        if kind == "cost":
            mean, std_err = monte_carlo_cost(sys, gain, q, x0, cfg)
            assert (mean.hex(), std_err.hex()) == expected
        else:
            verdict = empirical_ms_decay(sys, gain, q, x0, cfg)
            assert (verdict.stable, verdict.slope.hex()) == expected


class TestGaussianDraws:
    """One Cholesky factor per rollout reproduces multivariate_normal bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_equal_to_multivariate_normal(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            G = rng.normal(size=(n, n))
            cov = G @ G.T + 0.1 * np.eye(n)
            mean = rng.normal(size=n)
            factor = np.linalg.cholesky(cov)
            for seed in range(40):
                reference = np.random.Generator(np.random.Philox(seed))
                drawn = np.random.Generator(np.random.Philox(seed))
                expected = reference.multivariate_normal(mean, cov, method="cholesky")
                np.testing.assert_array_equal(_gaussian_draw(drawn, mean, factor), expected)
                # The same words were consumed: the streams continue in step.
                np.testing.assert_array_equal(drawn.random(3), reference.random(3))

    def test_non_positive_definite_covariance_raises(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=0, horizon=4, trajectories=3)
        x0 = (np.zeros(2), np.diag([1.0, -1.0]))
        with pytest.raises(np.linalg.LinAlgError):
            simulate_trajectory(example2, gain, 0.2, x0, cfg)
        with pytest.raises(np.linalg.LinAlgError):
            monte_carlo_cost(example2, gain, 0.2, x0, cfg)


class TestInputChecks:
    """Gains, initial states and Gaussian laws are checked before any draw."""

    CFG = SimConfig(seed=0, horizon=6, trajectories=4)

    @staticmethod
    def runs(sys, K, x0):
        cfg = TestInputChecks.CFG
        return [
            lambda: simulate_trajectory(sys, K, 0.2, x0, cfg),
            lambda: monte_carlo_cost(sys, K, 0.2, x0, cfg),
            lambda: empirical_ms_decay(sys, K, 0.2, x0, cfg),
        ]

    @pytest.mark.parametrize("shape", [(1, 2), (2, 3), (2,), (4,)])
    def test_gain_of_wrong_shape(self, example2, shape):
        for run in self.runs(example2, np.ones(shape), np.ones(2)):
            with pytest.raises(DimensionError, match="gain must be 2x2"):
                run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gain(self, example2, bad):
        gain, _ = ce_gain(example2, 0.1633)
        K = gain.K.copy()
        K[0, 1] = bad
        for run in self.runs(example2, K, np.ones(2)):
            with pytest.raises(InvalidInputError, match="gain has non-finite entries"):
                run()

    @pytest.mark.parametrize(
        "x0, message",
        [
            (np.array([1.0, np.nan]), "initial state has non-finite"),
            (np.array([np.inf, 1.0]), "initial state has non-finite"),
            (np.ones(3), "initial state has length 3"),
            ((np.array([np.nan, 0.0]), np.eye(2)), "initial-state mean has non-finite"),
            ((np.zeros(3), np.eye(2)), "initial-state mean has length 3"),
            ((np.zeros(2), np.diag([1.0, np.nan])), "initial-state covariance has non-finite"),
            ((np.zeros(2), np.eye(3)), "initial-state covariance has length 9"),
        ],
    )
    def test_bad_initial_state(self, example2, x0, message):
        gain, _ = ce_gain(example2, 0.1633)
        for run in self.runs(example2, gain, x0):
            with pytest.raises(InvalidInputError, match=message):
                run()

    def test_scalar_plant_takes_scalar_gain_and_state(self, example1):
        gain, _ = ce_gain(example1, 0.1)
        cfg = self.CFG
        k = float(gain.K[0, 0])
        assert monte_carlo_cost(example1, k, 0.2, 1.0, cfg) == monte_carlo_cost(example1, gain, 0.2, [1.0], cfg)
        law = (0.0, 1.0)
        assert monte_carlo_cost(example1, k, 0.2, law, cfg) == monte_carlo_cost(example1, gain, 0.2, law, cfg)


class TestNoEntropyReads:
    def test_streams_read_no_os_entropy(self, example2, monkeypatch):
        reads = []

        def counting(urandom):
            def read(size):
                reads.append(size)
                return urandom(size)

            return read

        monkeypatch.setattr(os, "urandom", counting(os.urandom))
        monkeypatch.setattr(random, "_urandom", counting(random._urandom))
        np.random.SeedSequence()
        assert reads, "an unseeded SeedSequence must register as an entropy read"
        reads.clear()

        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=3, horizon=20, trajectories=50)
        for x0 in (np.array([1.0, -1.0]), (np.zeros(2), np.eye(2))):
            simulate_trajectory(example2, gain, 0.2, x0, cfg)
            _batched_rollout(example2, gain, 0.2, x0, cfg)
        sample_channel(0.2, 100, seed=3)
        assert reads == []


class TestMonteCarloCost:
    def test_lossless_channel_recovers_riccati_cost(self, example1):
        gain, sol = ce_gain(example1, 0.0)
        cfg = SimConfig(seed=1, horizon=200, trajectories=50)
        mean, std_err = monte_carlo_cost(example1, gain, 0.0, np.array([1.0]), cfg)
        assert std_err == pytest.approx(0.0, abs=1e-12)  # deterministic loop
        assert mean == pytest.approx(sol.P[0, 0], rel=1e-9)

    def test_single_trajectory_reproducible(self, example1):
        gain, _ = ce_gain(example1, 0.0)
        cfg = SimConfig(seed=123, horizon=80, trajectories=1)
        first = monte_carlo_cost(example1, gain, 0.2, np.array([1.0]), cfg)
        second = monte_carlo_cost(example1, gain, 0.2, np.array([1.0]), cfg)
        assert first == second

    def test_all_divergent_raises(self):
        sys = SystemSpec(A=100.0, B=1.0, Q=1.0, R=1.0)
        cfg = SimConfig(seed=0, horizon=150, trajectories=3)
        with pytest.raises(UnstableError):
            monte_carlo_cost(sys, np.zeros((1, 1)), 0.0, np.array([1.0]), cfg)


class TestEmpiricalSecondMoment:
    def test_matches_lifted_recursion(self, example1):
        # Ensemble mean square vs the analytic second-moment recursion for
        # t <= 10; the tolerance is 4/sqrt(M) at the initial-state scale
        # (the estimator's relative error grows with t for multiplicative
        # noise, so the comparison is anchored to the trajectory scale).
        gain, _ = ce_gain(example1, 0.0)
        q, M = 0.2, 100_000
        cfg = SimConfig(seed=0, horizon=10, trajectories=M)
        _, _, msq = _batched_rollout(example1, gain, q, np.array([1.0]), cfg, track_msq=True)
        Phi = lifted_matrix(example1, gain, q)
        v = np.array([1.0])
        tol = 4.0 / np.sqrt(M)
        for t in range(11):
            analytic = float(v[0])
            assert abs(msq[t] - analytic) <= tol * (1.0 + analytic)
            v = Phi @ v


class TestEmpiricalDecay:
    def test_stable_reference_design(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=1, horizon=8, trajectories=400_000)
        verdict = empirical_ms_decay(example2, gain, 0.2, np.array([0.9325, 1.1616]), cfg)
        assert verdict.stable
        assert abs(verdict.slope - verdict.log_rho) <= 0.2 * abs(verdict.log_rho)

    def test_marginally_unstable_does_not_decay(self, example1):
        # rho = 1.00244: the mean square creeps upward, so the fitted slope
        # must not clear the decay threshold.
        gain, _ = ce_gain(example1, 0.0)
        cfg = SimConfig(seed=0, horizon=10, trajectories=300_000)
        verdict = empirical_ms_decay(example1, gain, 0.4, np.array([1.0]), cfg)
        assert verdict.log_rho == pytest.approx(np.log(1.00244), abs=1e-4)
        assert not verdict.stable

    @pytest.mark.parametrize("horizon", [1000, 3000])
    def test_divergent_open_loop_is_unstable(self, example1, horizon):
        # Open loop, rho = 2.25: every state passes DIVERGENCE_NORM at step 852
        # and is zeroed, so the mean square over the tail window falls.
        cfg = SimConfig(seed=0, horizon=horizon, trajectories=50)
        verdict = empirical_ms_decay(example1, np.zeros((1, 1)), 0.0, np.array([1.0]), cfg)
        assert not verdict.stable
        assert verdict.slope == np.inf
        assert verdict.log_rho == pytest.approx(np.log(2.25))
        assert verdict.window == (horizon // 2, horizon)

    def test_growth_before_divergence_is_fitted(self, example1):
        cfg = SimConfig(seed=0, horizon=400, trajectories=50)
        verdict = empirical_ms_decay(example1, np.zeros((1, 1)), 0.0, np.array([1.0]), cfg)
        assert not verdict.stable
        assert verdict.slope == pytest.approx(np.log(2.25), rel=1e-12)

    def test_one_divergent_trajectory_makes_it_unstable(self, example1):
        # Deadbeat gain: a delivered packet zeroes the state.  Initial states
        # of scale 1e150 leave DIVERGENCE_NORM on a lost first packet, so
        # some trajectories diverge while the others floor at zero.
        x0 = (np.zeros(1), np.array([[1e300]]))
        cfg = SimConfig(seed=2, horizon=20, trajectories=40)
        _, divergent, _ = _batched_rollout(example1, np.array([[-1.5]]), 0.5, x0, cfg)
        assert 0 < divergent.sum() < cfg.trajectories
        # A decay run computes no costs and marks the same trajectories.
        costs, tracked, _ = _batched_rollout(example1, np.array([[-1.5]]), 0.5, x0, cfg, track_msq=True)
        assert costs is None
        np.testing.assert_array_equal(tracked, divergent)
        verdict = empirical_ms_decay(example1, np.array([[-1.5]]), 0.5, x0, cfg)
        assert not verdict.stable
        assert verdict.slope == np.inf

    def test_deadbeat_floors_at_zero(self, example1):
        cfg = SimConfig(seed=0, horizon=50, trajectories=100)
        verdict = empirical_ms_decay(example1, np.array([[-1.5]]), 0.0, np.array([1.0]), cfg)
        assert verdict.stable
        assert verdict.slope == -np.inf
