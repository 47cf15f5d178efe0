import copy
import itertools
import math
import os
import random
import warnings

import numpy as np
import pytest

from lossylqr import (
    ChannelSamples,
    DimensionError,
    InvalidInputError,
    NumericalFailureError,
    SimConfig,
    SystemSpec,
    UnstableError,
    ce_gain,
    empirical_ms_decay,
    estimate_loss_rate,
    exact_ms_stable,
    lifted_matrix,
    monte_carlo_cost,
    sample_channel,
    simulate_trajectory,
)
from lossylqr import numerics, simulator
from lossylqr.simulator import (
    _FAMILY_CHANNEL,
    _FAMILY_TRAJECTORY,
    DIVERGENCE_NORM,
    _batched_rollout,
    _gaussian_draw,
    _mix64,
    _mix64_array,
    _philox_words,
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
        with pytest.raises(InvalidInputError, match="sample count N must be >= 1, got 0"):
            sample_channel(0.5, 0, seed=0)

    @pytest.mark.parametrize(
        "arg, message", [("N", "sample count N must be an integer"), ("seed", "seed must be an integer")]
    )
    @pytest.mark.parametrize("value", [10.7, math.inf, math.nan, "10", 10.0])
    def test_refuses_a_non_integer(self, arg, message, value):
        with pytest.raises(InvalidInputError, match=message):
            sample_channel(0.2, **{"N": 10, "seed": 3, arg: value})

    @pytest.mark.parametrize(
        "seed, same", [(np.int64(0), 0), (np.int64(3), 3), (np.uint64(2**63 + 5), 2**63 + 5), (np.int32(-1), -1)]
    )
    def test_numpy_integers_draw_the_same_bits(self, seed, same):
        bits = sample_channel(0.2, 300, same).bits
        np.testing.assert_array_equal(sample_channel(0.2, 300, seed).bits, bits)
        np.testing.assert_array_equal(sample_channel(0.2, np.int64(300), seed).bits, bits)


def float_route_bits(q: float, N: int, seed: int) -> np.ndarray:
    """Reference for `sample_channel`: the channel stream's floats compared with q."""
    return (_stream(seed, 0, _FAMILY_CHANNEL).random(N) >= q).astype(np.int8)


class TestRawWordChannel:
    """`sample_channel` compares raw words with `_delivery_threshold`; its bits
    are those of `Generator.random(N) >= q` on the same stream."""

    @staticmethod
    def assert_float_route(q: float, N: int, seed: int) -> np.ndarray:
        samples = sample_channel(q, N, seed)
        expected = float_route_bits(q, N, seed)
        assert type(samples) is ChannelSamples and samples.count == N
        assert samples.bits.dtype == np.int8 and samples.bits.shape == (N,) and samples.bits.flags.c_contiguous
        assert samples.bits.tobytes() == expected.tobytes()
        return samples.bits

    @pytest.mark.parametrize("seed", [0, 11, -1, -(2**70) - 3, 2**64, 2**64 + 12345, 3 * 2**80 + 7])
    def test_rates_at_and_next_to_the_stream_values(self, seed):
        # Each stream value u = k 2^-53 is a rate on its own: the bit of u is 1
        # at q = u and at the float below it, and 0 at the float above it.
        N = 40
        values = _stream(seed, 0, _FAMILY_CHANNEL).random(N).tolist()
        for i, u in enumerate(values[:8]):
            assert (u * 2.0**53).is_integer()
            for q, bit in ((math.nextafter(u, 0.0), 1), (u, 1), (math.nextafter(u, 1.0), 0)):
                if 0.0 < q < 1.0:
                    assert self.assert_float_route(q, N, seed)[i] == bit

    @pytest.mark.parametrize("seed", [1, -7, 2**64 + 3])
    def test_words_equal_to_the_threshold(self, seed):
        # A word w with zero low 11 bits is the threshold of q = (w >> 11) 2^-53
        # itself, and its bit is 1; about 1 word in 2048 is one.
        N = 1 << 14
        words = _stream(seed, 0, _FAMILY_CHANNEL).bit_generator.random_raw(N)
        exact = np.flatnonzero(words & np.uint64(2047) == 0).tolist()
        assert len(exact) >= 2
        for i in exact[:4]:
            q = int(words[i] >> np.uint64(11)) * 2.0**-53
            assert simulator._delivery_threshold(q) == int(words[i])
            assert self.assert_float_route(q, N, seed)[i] == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 2**20 + 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1])
    def test_multiples_of_the_float_step(self, k):
        u = k * 2.0**-53
        for q in (math.nextafter(u, 0.0), u, math.nextafter(u, 1.0)):
            if 0.0 < q < 1.0:
                self.assert_float_route(q, 2000, k)

    @pytest.mark.parametrize(
        "q", [5e-324, 2.0**-1074 * 3, 1e-300, 2.0**-60, 1e-17, 1 - 1e-16, 1 - 2.0**-52, math.nextafter(1.0, 0.0)]
    )
    def test_rates_near_0_and_1(self, q):
        bits = self.assert_float_route(q, 5000, 2)
        assert bits.all() if q < 0.5 else not bits.any()

    @pytest.mark.parametrize("seed", [-5, 0, 2**64 + 1])
    @pytest.mark.parametrize("q", [1e-9, 0.2, 0.5, 0.999999])
    def test_one_sample(self, q, seed):
        self.assert_float_route(q, 1, seed)

    def test_random_rates_counts_and_seeds(self):
        rng = random.Random(28)
        for _ in range(200):
            q = rng.random() or 0.5
            seed = rng.randrange(-(2**80), 2**80)
            self.assert_float_route(q, rng.randrange(1, 3000), seed)

    @pytest.mark.parametrize(
        "bits, message",
        [
            (np.array([0, 2, 1], dtype=np.int8), "only 0/1 bits"),
            (np.array(1, dtype=np.int8), "1-d bit array"),
            (np.zeros((2, 2, 2), dtype=np.int8), "1-d bit array"),
        ],
    )
    def test_public_constructor_still_checks(self, bits, message):
        # The samples of `sample_channel` skip these checks; ChannelSamples(bits=...) keeps them.
        with pytest.raises(InvalidInputError, match=message):
            ChannelSamples(bits=bits)


class TestSimConfig:
    @pytest.mark.parametrize("field", ["seed", "horizon", "trajectories"])
    @pytest.mark.parametrize("value", [10.0, np.float64(10.0), "10", None, 10.7, math.inf, math.nan])
    def test_refuses_a_non_integer(self, field, value):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            SimConfig(**{field: value})

    def test_refuses_non_positive_counts(self):
        with pytest.raises(InvalidInputError, match="horizon must be >= 1, got 0"):
            SimConfig(horizon=0)
        with pytest.raises(InvalidInputError, match="trajectories must be >= 1, got 0"):
            SimConfig(trajectories=0)

    def test_numpy_integers_run_as_python_ints(self, example1):
        cfg = SimConfig(seed=np.uint64(7), horizon=np.int32(30), trajectories=np.int64(40))
        assert (cfg.seed, cfg.horizon, cfg.trajectories) == (7, 30, 40)
        assert all(type(v) is int for v in (cfg.seed, cfg.horizon, cfg.trajectories))
        K = ce_gain(example1, 0.1)[0]
        got = monte_carlo_cost(example1, K, 0.2, np.ones(1), cfg)
        assert got == monte_carlo_cost(example1, K, 0.2, np.ones(1), SimConfig(seed=7, horizon=30, trajectories=40))


class TestSimulateTrajectory:
    def test_trajectory_index_is_an_integer(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=4, horizon=20, trajectories=1)
        states = simulate_trajectory(example2, gain, 0.2, np.ones(2), cfg, trajectory_index=3).states
        got = simulate_trajectory(example2, gain, 0.2, np.ones(2), cfg, trajectory_index=np.int64(3)).states
        assert got.tobytes() == states.tobytes()
        for index, message in ((3.0, "trajectory_index must be an integer"), (-1, "trajectory_index must be >= 0")):
            with pytest.raises(InvalidInputError, match=message):
                simulate_trajectory(example2, gain, 0.2, np.ones(2), cfg, trajectory_index=index)

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
        # Rows per chunk: the lock-step route holds _CHUNK_BLOCKS blocks of
        # every row's words, the re-keyed one 4 * _CHUNK_BLOCKS words.
        if horizon < simulator._REKEYED_HORIZON:
            per_chunk = simulator._CHUNK_BLOCKS // -(-horizon // 4)
        else:
            per_chunk = 4 * simulator._CHUNK_BLOCKS // horizon
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
        # Every block count of the lock-step route: horizons below _REKEYED_HORIZON words.
        for blocks, rows in itertools.product(range(1, 14), (1, index.size)):
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


class TestRekeyedDraws:
    """The re-keyed route against numpy's own Philox for each trajectory key."""

    FIXED = np.array([0.9325, 1.1616])
    GAUSSIAN = (np.zeros(2), np.diag([1.0, 4.0]))
    START, COUNT = 3, 29

    @staticmethod
    def reference_words(key: int, T: int) -> np.ndarray:
        # The key goes in as a uint64 array: numpy reads a list holding a key
        # with the top bit set as another key.
        return np.random.Philox(key=np.array([key, _FAMILY_TRAJECTORY], dtype=np.uint64)).random_raw(T)

    @pytest.mark.parametrize("chunk_blocks", [3, 50])
    @pytest.mark.parametrize("horizon", [1, 7, 200])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_fixed_x0(self, example2, monkeypatch, chunk_blocks, horizon, q):
        # Every horizon takes the re-keyed route.  A chunk holds 12 or 200
        # words: 12 or 200 rows at T = 1, one or 28 at T = 7 and one at
        # T = 200, so the 29 rows end in a partial chunk in three cases.
        monkeypatch.setattr(simulator, "_REKEYED_HORIZON", 1)
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", chunk_blocks)
        # The key of trajectory START is 0; the others are spread over 64 bits.
        seed = _mix64(self.START)
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=self.START + self.COUNT)
        keys = [_stream_key(seed, self.START + row) for row in range(self.COUNT)]
        assert keys[0] == 0 and any(k >> 63 for k in keys)
        X0, lam = _trajectory_draws(example2, self.FIXED, q, cfg, self.START, self.START + self.COUNT)
        assert lam.shape == (self.COUNT, horizon) and lam.dtype == np.int8
        for row, key in enumerate(keys):
            uniforms = (self.reference_words(key, horizon) >> np.uint64(11)) * 2.0**-53
            np.testing.assert_array_equal(lam[row], uniforms >= q)
            np.testing.assert_array_equal(X0[row], self.FIXED)

    @pytest.mark.parametrize("chunk_blocks", [3, 50])
    @pytest.mark.parametrize("horizon", [1, 7, 200])
    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    def test_gaussian_x0(self, example2, monkeypatch, chunk_blocks, horizon, q):
        monkeypatch.setattr(simulator, "_CHUNK_BLOCKS", chunk_blocks)
        # The key of trajectory START is 2^63.
        seed = _mix64(self.START) ^ (1 << 63)
        cfg = SimConfig(seed=seed, horizon=horizon, trajectories=self.START + self.COUNT)
        X0, lam = _trajectory_draws(example2, self.GAUSSIAN, q, cfg, self.START, self.START + self.COUNT)
        gain, _ = ce_gain(example2, 0.1633)
        for row in range(self.COUNT):
            traj = simulate_trajectory(example2, gain, q, self.GAUSSIAN, cfg, trajectory_index=self.START + row)
            np.testing.assert_array_equal(X0[row], traj.states[0])
            np.testing.assert_array_equal(lam[row], traj.drops)

    @pytest.mark.parametrize("key", [0, 1, 2**63, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("family", [_FAMILY_CHANNEL, _FAMILY_TRAJECTORY])
    def test_keyed_state_equals_array_state(self, key, family):
        bitgen = np.random.Philox(np.random.SeedSequence(1))
        bitgen.state = simulator._keyed_state(key, family)
        from_ints = bitgen.state
        words = bitgen.random_raw(9)
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.array([key, family], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        np.testing.assert_array_equal(bitgen.state["state"]["key"], from_ints["state"]["key"])
        np.testing.assert_array_equal(bitgen.random_raw(9), words)
        np.testing.assert_array_equal(
            np.random.Philox(key=np.array([key, family], dtype=np.uint64)).random_raw(9), words
        )


def reference_quadratic_form(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x^T W x of every row x of X as the rollout formed it before its step
    was planned: einsum's order of terms, from zero."""
    out = np.zeros(len(X))
    term = np.empty(len(X))
    for j in range(W.shape[0]):
        for k in range(W.shape[0]):
            np.multiply(X[:, j], W[j, k], out=term)
            term *= X[:, k]
            out += term
    return out


def reference_times_transpose(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T as the rollout formed it before its step was planned: an outer
    product without BLAS, its zeros made +0.0 as the matmul's are."""
    if W.shape[1] != 1:
        return X @ W.T
    P = np.empty((len(X), len(W)))
    x = X[:, 0]
    for j, w in enumerate(W[:, 0].tolist()):
        np.multiply(x, w, out=P[:, j])
    P += 0.0
    return P


def reference_row_squares(X: np.ndarray) -> np.ndarray:
    """np.sum(X * X, axis=1) as the decay rollout formed it before its step
    was planned."""
    if X.shape[1] >= 8:
        return np.sum(X * X, axis=1)
    out = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        out += X[:, j] * X[:, j]
    return out


def planned_form(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """x^T W x of every row x of X, by the rollout's planned calls."""
    out, term = np.empty(len(X)), np.empty(len(X))
    simulator._run(simulator._form_calls(X, W, out, term))
    return out


def planned_product(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """X @ W.T, by the rollout's planned calls."""
    out = np.empty((len(X), len(W)))
    simulator._run(simulator._product_calls(X, W, out))
    return out


def planned_row_squares(X: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, by the rollout's planned calls."""
    out, term = np.empty(len(X)), np.empty(len(X))
    simulator._run(simulator._row_square_calls(X, out, term))
    return out


def sum_of_squares(X: np.ndarray, out: np.ndarray) -> None:
    np.copyto(out, np.sum(X * X, axis=1))


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
            np.testing.assert_array_equal(planned_form(X, W), expected)
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
            monkeypatch.setattr(simulator, "_product_calls", lambda X, W, out: [(np.matmul, (X, W.T, out))])
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
            product = planned_product(X, W)
            # Equal bits but for the sign of a zero: adding 0.0 makes every zero +0.0.
            assert (product + 0.0).tobytes() == (X @ W.T).tobytes()
        # The matmul's sum from zero gives +0.0 here; the outer product keeps
        # -0.0, which test_rollout_equals_matmul_rollout shows no output sees.
        assert np.signbit(planned_product(np.array([[-0.0]]), np.array([[1.0]]))).all()


class TestRowSquares:
    """The mean square's running column sum keeps np.sum's bits."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equal_to_sum(self, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(300, n)) * np.exp(rng.normal(size=(300, n)) * 8.0)
        X[:10] = 0.0
        X[10:20] = -0.0
        X[20:30] = rng.choice([0.0, -0.0], size=(10, n))
        X[30:40] = 5e-324 * rng.integers(-3, 4, size=(10, n))
        X[40:50] = 2.2e-308 * rng.normal(size=(10, n))
        X[50:60] = 1e150 * rng.choice([-1.0, 1.0], size=(10, n))
        X[60:65, 0] = np.inf
        X[65:70, -1] = -np.inf
        X[70:75, 0] = np.nan
        X[75:80, -1] = -np.nan
        X[80:85, 0], X[80:85, -1] = np.nan, -np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            assert planned_row_squares(X).tobytes() == np.sum(X * X, axis=1).tobytes()

    @pytest.mark.parametrize("plant", ["example1", "example2", "plant3", "plant5"])
    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    def test_rollout_equals_sum_rollout(self, request, monkeypatch, plant, q):
        sys = {"plant3": PLANT3, "plant5": PLANT5}.get(plant) or request.getfixturevalue(plant)
        gain, _ = ce_gain(sys, 0.1)
        cfg = SimConfig(seed=4, horizon=30, trajectories=200)
        X0 = TestOuterProducts.initial_states(sys.n, cfg.trajectories)
        draws = simulator._trajectory_draws
        monkeypatch.setattr(simulator, "_trajectory_draws", lambda *args: (X0.copy(), draws(*args)[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _batched_rollout(sys, gain, q, np.zeros(sys.n), cfg, track_msq=True)
            monkeypatch.setattr(simulator, "_row_square_calls", lambda X, out, term: [(sum_of_squares, (X, out))])
            expected = _batched_rollout(sys, gain, q, np.zeros(sys.n), cfg, track_msq=True)
        assert expected[1].any()
        assert got[1].tobytes() == expected[1].tobytes()
        assert got[2].tobytes() == expected[2].tobytes()


class TestCostMask:
    """The cost rollout adds every row's step cost without a divergence mask:
    a row that overflowed is zero, and its step costs +0.0, so masking every
    step gives the same bits."""

    @staticmethod
    def always_masked(sys, K, X, lam):
        """The cost rollout with the divergence mask applied at every step,
        and the first step at which a row overflows."""
        costs = np.zeros(len(X))
        active = np.ones(len(X), dtype=bool)
        first = None
        for t in range(lam.shape[1]):
            U = reference_times_transpose(X, K)
            step_cost = reference_quadratic_form(X, sys.Q) + lam[:, t] * reference_quadratic_form(U, sys.R)
            costs += np.where(active, step_cost, 0.0)
            X = reference_times_transpose(X, sys.A) + lam[:, t, None] * reference_times_transpose(U, sys.B)
            overflow = np.einsum("ij,ij->i", X, X) > DIVERGENCE_NORM**2
            if first is None and overflow.any():
                first = t
            X[overflow] = 0.0
            active &= ~overflow
        return costs, ~active, first

    @pytest.mark.parametrize("plant", ["example1", "example2", "plant3"])
    @pytest.mark.parametrize("q", [0.0, 0.4, 1.0])
    def test_costs_equal_always_masked(self, request, monkeypatch, plant, q):
        sys = {"plant3": PLANT3}.get(plant) or request.getfixturevalue(plant)
        # A weak gain leaves the first state's mode growing by 1.3 to 1.5 per
        # step, so rows started at DIVERGENCE_NORM / 1.6^k along it overflow
        # at different steps, the first of them well after the start.
        K = np.full((sys.m, sys.n), -0.1)
        cfg = SimConfig(seed=6, horizon=40, trajectories=200)
        X0 = np.random.default_rng(sys.n).normal(size=(cfg.trajectories, sys.n))
        X0[150:, 0] = DIVERGENCE_NORM * 1.6 ** -np.arange(5, 55)
        _, lam = simulator._trajectory_draws(sys, np.zeros(sys.n), q, cfg, 0, cfg.trajectories)
        draws = simulator._trajectory_draws
        monkeypatch.setattr(simulator, "_trajectory_draws", lambda *args: (X0.copy(), draws(*args)[1]))
        costs, divergent, _ = _batched_rollout(sys, K, q, np.zeros(sys.n), cfg)
        expected_costs, expected_divergent, first = self.always_masked(sys, K, X0.copy(), lam)
        assert 0 < divergent.sum() < cfg.trajectories
        assert 3 <= first < cfg.horizon - 3
        assert costs.tobytes() == expected_costs.tobytes()
        assert divergent.tobytes() == expected_divergent.tobytes()


def reference_rollout(sys, K, q, x0, cfg, track_msq=False):
    """The batched rollout before its step was planned: one allocating numpy
    call per operation, with the kernels above."""
    K = simulator._gain(sys, K)
    M, T = cfg.trajectories, cfg.horizon
    X, lam = simulator._trajectory_draws(sys, x0, q, cfg, 0, M)

    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    costs = None if track_msq else np.zeros(M)
    active = np.ones(M, dtype=bool)
    msq = np.empty(T + 1) if track_msq else None
    if track_msq:
        msq[0] = np.mean(reference_row_squares(X))
    for t in range(T):
        U = reference_times_transpose(X, K)
        if costs is not None:
            costs += reference_quadratic_form(X, Q) + lam[:, t] * reference_quadratic_form(U, R)
        X = reference_times_transpose(X, A) + lam[:, t, None] * reference_times_transpose(U, B)
        overflow = np.einsum("ij,ij->i", X, X) > DIVERGENCE_NORM**2
        if overflow.any():
            X[overflow] = 0.0
            active &= ~overflow
        if track_msq:
            msq[t + 1] = np.mean(reference_row_squares(X))
    return costs, ~active, msq


class TestBatchedRollout:
    """The planned rollout gives the costs, the divergence mask and the mean
    square of the unplanned one, byte for byte, for every shape of plant."""

    GROWTH = 1.3  # spectral radius of A, and about that of A + BK under the weak gain

    @classmethod
    def plant(cls, n: int, m: int):
        """A plant with A of spectral radius GROWTH, Q and R with negative
        off-diagonal entries, and a weak gain that leaves the loop unstable."""
        rng = np.random.default_rng(10 * n + m)
        A = rng.normal(size=(n, n))
        A *= cls.GROWTH / np.max(np.abs(np.linalg.eigvals(A)))

        def weight(size):  # diagonally dominant, with entries of both signs off the diagonal
            S = rng.uniform(-0.25, 0.25, size=(size, size))
            if size > 1:
                S[0, 1] = S[1, 0] = -0.4
            return S + S.T + size * np.eye(size)

        sys = SystemSpec(A=A, B=rng.normal(size=(n, m)), Q=weight(n), R=weight(m))
        return sys, 0.05 * rng.normal(size=(m, n))

    @classmethod
    def initial_states(cls, n: int, count: int) -> np.ndarray:
        """Rows of +0.0, -0.0 and mixed zeros, subnormal rows (whose products
        underflow to zeros of either sign), ordinary rows, and rows that pass
        DIVERGENCE_NORM after 1, 2, 3, ... steps."""
        rng = np.random.default_rng(count + n)
        X0 = rng.normal(size=(count, n)) * np.exp(rng.normal(size=(count, 1)) * 2.0)
        z, half = count // 12, count // 2
        X0[:z] = 0.0
        X0[z : 2 * z] = -0.0
        X0[2 * z : 3 * z] = rng.choice([0.0, -0.0], size=(z, n))
        X0[3 * z : 4 * z] = 5e-324 * rng.integers(-3, 4, size=(z, n))
        far = X0[half:] / np.linalg.norm(X0[half:], axis=1, keepdims=True)
        X0[half:] = far * DIVERGENCE_NORM * cls.GROWTH ** -np.arange(count - half)[:, None]
        return X0

    @staticmethod
    def both(monkeypatch, sys, K, q, cfg, X0, track_msq):
        """(planned, reference) rollouts of cfg from the initial states X0."""
        draws = simulator._trajectory_draws
        monkeypatch.setattr(simulator, "_trajectory_draws", lambda *args: (X0.copy(), draws(*args)[1]))
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            planned = _batched_rollout(sys, K, q, np.zeros(sys.n), cfg, track_msq)
            reference = reference_rollout(sys, K, q, np.zeros(sys.n), cfg, track_msq)
        return planned, reference

    @staticmethod
    def assert_equal(planned, reference):
        for got, expected in zip(planned, reference, strict=True):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.0, 0.35, 1.0])
    @pytest.mark.parametrize("track_msq", [False, True])
    def test_equal_to_reference(self, monkeypatch, n, m, q, track_msq):
        sys, K = self.plant(n, m)
        if n > 1:
            assert (sys.Q < 0.0).any()
        if m > 1:
            assert (sys.R < 0.0).any()
        # An odd horizon: the last step writes the second state buffer.
        cfg = SimConfig(seed=n + m, horizon=11, trajectories=60)
        planned, reference = self.both(monkeypatch, sys, K, q, cfg, self.initial_states(n, 60), track_msq)
        assert 0 < reference[1].sum() < cfg.trajectories
        self.assert_equal(planned, reference)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2)])
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_rows_diverge_at_different_steps(self, monkeypatch, n, m, q):
        sys, K = self.plant(n, m)
        X0 = self.initial_states(n, 60)
        counts = []
        for horizon in range(1, 9):
            cfg = SimConfig(seed=3, horizon=horizon, trajectories=60)
            planned, reference = self.both(monkeypatch, sys, K, q, cfg, X0, False)
            self.assert_equal(planned, reference)
            counts.append(int(reference[1].sum()))
        assert len(set(counts)) >= 4

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4, 16, 17])
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (9, 3)])
    @pytest.mark.parametrize("track_msq", [False, True])
    def test_every_horizon(self, monkeypatch, horizon, n, m, track_msq):
        sys, K = self.plant(n, m)
        cfg = SimConfig(seed=horizon, horizon=horizon, trajectories=40)
        self.assert_equal(*self.both(monkeypatch, sys, K, 0.35, cfg, self.initial_states(n, 40), track_msq))

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 1), (8, 2)])
    # +0.0, -0.0, mixed zeros, subnormal, ordinary and far rows of initial_states(n, 40)
    @pytest.mark.parametrize("row", [0, 3, 7, 10, 15, 20, 24])
    @pytest.mark.parametrize("track_msq", [False, True])
    def test_one_trajectory(self, monkeypatch, n, m, row, track_msq):
        sys, K = self.plant(n, m)
        cfg = SimConfig(seed=row, horizon=13, trajectories=1)
        X0 = self.initial_states(n, 40)[row : row + 1]
        self.assert_equal(*self.both(monkeypatch, sys, K, 0.35, cfg, X0, track_msq))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("w00", [0.0, -0.0, -1.0, 5e-324])
    def test_form_whose_first_weight_is_not_positive(self, n, w00):
        # No plant has such a form: a Q or R with W[0, 0] <= 0 is not positive
        # definite, so every form of the rollout starts from its first term.  A
        # positive first weight, even the least, keeps the bits of the sum from zero.
        rng = np.random.default_rng(n)
        W = rng.normal(size=(n, n))
        W[0, 0] = w00
        if w00 <= 0.0:
            S = W + W.T
            S[0, 0] = w00
            for weights in ({"Q": S, "R": np.eye(n)}, {"Q": np.eye(n), "R": S}):
                with pytest.raises(InvalidInputError, match="positive definite"):
                    SystemSpec(A=np.eye(n), B=np.eye(n), **weights)
            return
        X = rng.normal(size=(60, n))
        X[:20] = rng.choice([0.0, -0.0], size=(20, n))
        X[20:30, 0] = -0.0
        assert planned_form(X, W).tobytes() == reference_quadratic_form(X, W).tobytes()

    @pytest.mark.parametrize("plant", ["example1", "example2", "plant3"])
    @pytest.mark.parametrize("x0", ["fixed", "gaussian"])
    @pytest.mark.parametrize("track_msq", [False, True])
    def test_drawn_initial_states(self, request, plant, x0, track_msq):
        sys = {"plant3": PLANT3}.get(plant) or request.getfixturevalue(plant)
        gain, _ = ce_gain(sys, 0.1)
        x0 = gaussian_law(sys.n) if x0 == "gaussian" else np.linspace(-1.0, 1.0, sys.n)
        cfg = SimConfig(seed=5, horizon=60, trajectories=300)
        planned = _batched_rollout(sys, gain, 0.2, x0, cfg, track_msq)
        self.assert_equal(planned, reference_rollout(sys, gain, 0.2, x0, cfg, track_msq))


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

    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_rate_outside_the_closed_unit_interval(self, example2, q):
        gain, _ = ce_gain(example2, 0.1633)
        message = r"loss rate must lie in \[0, 1\], got"
        for run in (simulate_trajectory, monte_carlo_cost, empirical_ms_decay):
            with pytest.raises(InvalidInputError, match=message):
                run(example2, gain, q, np.ones(2), self.CFG)
        for run in (lifted_matrix, exact_ms_stable):
            with pytest.raises(InvalidInputError, match=message):
                run(example2, gain, q)

    def test_a_channel_that_drops_every_packet(self, example2):
        gain, _ = ce_gain(example2, 0.1633)
        traj = simulate_trajectory(example2, gain, 1.0, np.ones(2), self.CFG)
        assert not traj.drops.any()
        with pytest.warns(RuntimeWarning, match=r"not mean-square stable \(rho = 2\.25"):
            mean, _ = monte_carlo_cost(example2, gain, 1.0, np.ones(2), self.CFG)
        assert mean == pytest.approx(traj.realized_cost, rel=1e-12)
        np.testing.assert_array_equal(lifted_matrix(example2, gain, 1.0), np.kron(example2.A, example2.A))

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
        with pytest.warns(RuntimeWarning, match=r"rho = 10000\.0 "), pytest.raises(UnstableError):
            monte_carlo_cost(sys, np.zeros((1, 1)), 0.0, np.array([1.0]), cfg)

    @pytest.mark.parametrize("q, rho", [(0.45, "1.10640403733738"), (0.6, "1.41829384533628")])
    def test_unstable_loop_warns_with_the_same_result(self, example1, q, rho):
        # No trajectory passes DIVERGENCE_NORM, yet the mean grows with the horizon.
        gain, _ = ce_gain(example1, 0.0)
        cfg = SimConfig(seed=1, horizon=300, trajectories=200)
        costs, divergent, _ = _batched_rollout(example1, gain, q, np.array([1.0]), cfg)
        assert not divergent.any()
        with pytest.warns(RuntimeWarning, match=f"not mean-square stable \\(rho = {rho}"):
            mean, std_err = monte_carlo_cost(example1, gain, q, np.array([1.0]), cfg)
        assert mean == float(np.mean(costs))
        assert std_err == float(np.std(costs, ddof=1) / math.sqrt(cfg.trajectories))

    def test_marginal_loop_warns(self, example1):
        # a + b k = 1: rho = 1 at q = 0, and the cost grows linearly with the horizon.
        cfg = SimConfig(seed=2, horizon=50, trajectories=4)
        with pytest.warns(RuntimeWarning, match=r"rho = 1\.0 >= 1 - 1e-09"):
            mean, _ = monte_carlo_cost(example1, np.array([[-0.5]]), 0.0, np.array([1.0]), cfg)
        assert mean == pytest.approx(50 * 1.25)

    def test_overflowing_lifted_map_still_ends_unstable(self, example1):
        # (a + b k)^2 overflows, so the lifted map has no radius and there is
        # no notice; every trajectory diverges, as it did before the notice.
        cfg = SimConfig(seed=0, horizon=20, trajectories=5)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableError):
                monte_carlo_cost(example1, np.array([[-1e160]]), 0.3, np.array([1.0]), cfg)

    def test_near_defective_map_gets_the_notice_alone(self):
        # Rotated Jordan blocks at 1: dense eigenvalues put rho a little above
        # 1, and the Lyapunov solves of the certificate lose their digits, so
        # exact_ms_stable mostly warns.  The notice takes no certificate.
        rng = np.random.default_rng(0)
        uncertified = 0
        for _ in range(10):
            U = np.triu(rng.normal(size=(3, 3)), 1) + np.eye(3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            plant = SystemSpec(A=Q @ U @ Q.T, B=np.eye(3), Q=np.eye(3), R=np.eye(3))
            K = np.zeros((3, 3))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                exact_ms_stable(plant, K, 0.0)
            uncertified += len(caught)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                monte_carlo_cost(plant, K, 0.0, np.ones(3), SimConfig(seed=1, horizon=10, trajectories=3))
            assert [w.category for w in caught] == [RuntimeWarning]
            assert str(caught[0].message).startswith("the closed loop is not mean-square stable (rho = 1.000")
        assert uncertified >= 5

    def test_failed_certificate_does_not_stop_the_estimate(self, example2, monkeypatch):
        gain, _ = ce_gain(example2, 0.1633)
        cfg = SimConfig(seed=4, horizon=30, trajectories=20)
        expected = monte_carlo_cost(example2, gain, 0.2, np.ones(2), cfg)
        # An understated dense radius fails the certificate's upper side.
        dense = numerics._dense_spectral_radius
        monkeypatch.setattr(numerics, "_dense_spectral_radius", lambda M: dense(M) - 2e-7)
        plant = copy.copy(example2)
        with pytest.raises(NumericalFailureError, match="from above"):
            exact_ms_stable(plant, gain, 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert monte_carlo_cost(plant, gain, 0.2, np.ones(2), cfg) == expected

    @pytest.mark.parametrize("q", [0.0, 0.2, 0.3])
    def test_stable_loop_does_not_warn(self, example1, q):
        gain, _ = ce_gain(example1, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monte_carlo_cost(example1, gain, q, np.array([1.0]), SimConfig(seed=3, horizon=40, trajectories=50))


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
