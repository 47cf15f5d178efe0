"""Seeded Monte-Carlo engine for the packet-loss closed loop.

Randomness is pinned to numpy's Philox counter-based generator.  Every
logical stream gets its own 128-bit key: the first word is the user seed
XOR-mixed with the stream index through a splitmix64 finalizer, the second
word tags the stream family (channel sampling vs. trajectory rollout).
Per-trajectory substreams make results bit-reproducible and independent of
evaluation order: batched and one-at-a-time rollouts draw identical initial
states and channel bits.

Philox4x64-10 is a pure function of (counter, key) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so the batched rollout evaluates
it directly on numpy uint64 arrays, every trajectory's key in lock-step,
instead of building one Generator per trajectory.  `_stream` stays the
reference those draws are tested against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnstableError
from .learning import ChannelSamples
from .riccati import SystemSpec
from .stability import _gain_matrix, _lifted_rho

_MASK64 = (1 << 64) - 1
# Second Philox key word per stream family.
_FAMILY_CHANNEL = 0x6368616E6E656C00  # "channel\0"
_FAMILY_TRAJECTORY = 0x74726A73747265  # "trjstre"

# States beyond this norm are declared divergent and the rollout truncated.
DIVERGENCE_NORM = 1e150
# Slope threshold (per step) for the empirical mean-square decay verdict.
DECAY_SLOPE_TOL = -1e-3


# Philox4x64-10 multipliers and key increments (Random123, philox.h).
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox blocks (4 words each) evaluated at once by the batched draws; bounds
# their working memory independently of the trajectory count.
_CHUNK_BLOCKS = 4096
# Seeds the Philox that `_stream` then re-keys.  Philox(key=...) alone would
# read OS entropy for a SeedSequence it then discards.
_FIXED_SEED = np.random.SeedSequence(0)


def _mix64(x: int) -> int:
    """splitmix64 finalizer; bijective 64-bit hash."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """`_mix64` on a uint64 array (arithmetic wraps modulo 2^64)."""
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, index: int) -> int:
    return (seed ^ _mix64(index)) & _MASK64


def _keyed_state(key: int, family: int) -> dict:
    """Philox state with the given key, a zero counter and an empty buffer,
    the state Philox(key=[key, family]) starts from."""
    return {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key, family], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _stream(seed: int, index: int, family: int) -> np.random.Generator:
    bitgen = np.random.Philox(_FIXED_SEED)
    bitgen.state = _keyed_state(_stream_key(seed, index), family)
    return np.random.Generator(bitgen)


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo = x_lo * m_lo
    hi_lo = x_hi * m_lo
    lo_hi = x_lo * m_hi
    carry = ((lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> _SHIFT32
    hi = x_hi * m_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry
    return hi, x * m


def _philox_uniforms(keys: np.ndarray, family: int, blocks: int) -> np.ndarray:
    """The first 4 * blocks `Generator.random()` values of Philox(key=[k, family])
    for every k in keys, one row per key.

    numpy increments the counter before it fills its buffer, so block j is
    Philox4x64-10 of the counter (j + 1, 0, 0, 0).  `random()` is
    (word >> 11) * 2^-53.  The words broadcast between a column of keys and a
    row of counters: the first two rounds mix them on the small shapes.
    """
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    k0 = keys[:, None]
    k1 = np.full((1, 1), family, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = k0 + _PHILOX_W[0]
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(keys.size, 4 * blocks)
    words >>= np.uint64(11)
    uniforms = words.astype(np.float64)
    uniforms *= 1.0 / 9007199254740992.0
    return uniforms


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run parameters.

    The default horizon suffices for the worked examples: once the closed
    loop is mean-square stable, the truncated-cost bias rho(Phi)^T * tr(S)
    is far below 1e-4 of the mean well before T = 200.
    """

    seed: int = 0
    horizon: int = 200
    trajectories: int = 10_000

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidInputError(f"horizon must be >= 1, got {self.horizon}")
        if self.trajectories < 1:
            raise InvalidInputError(f"trajectory count must be >= 1, got {self.trajectories}")


@dataclass(frozen=True)
class Trajectory:
    """One closed-loop rollout x_{t+1} = A x_t + lambda_t B u_t, u_t = K x_t."""

    states: np.ndarray  # (T+1) x n
    drops: np.ndarray  # length T, the channel bits lambda_t (1 = delivered)
    realized_cost: float  # sum_{t<T} x_t^T Q x_t + lambda_t u_t^T R u_t
    divergent: bool = False


@dataclass(frozen=True)
class DecayVerdict:
    """Empirical mean-square decay check against the lifted-map prediction."""

    stable: bool
    slope: float  # fitted slope of log E||x_t||^2 over the tail window
    log_rho: float  # log rho(Phi), the predicted asymptotic slope
    window: tuple[int, int]


def sample_channel(q: float, N: int, seed: int) -> ChannelSamples:
    """Draw N i.i.d. channel bits, 1 with probability 1 - q."""
    if not 0.0 < q < 1.0:
        raise InvalidInputError(f"channel loss rate must lie in (0, 1), got {q}")
    if N < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {N}")
    rng = _stream(seed, 0, _FAMILY_CHANNEL)
    bits = (rng.random(N) >= q).astype(np.int8)
    return ChannelSamples(bits=bits)


def _gaussian_law(sys: SystemSpec, x0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and lower Cholesky factor of a (mean, cov) initial-state law;
    raises numpy's LinAlgError when cov is not positive definite."""
    mean, cov = x0
    mean = np.asarray(mean, dtype=float).reshape(sys.n)
    cov = np.asarray(cov, dtype=float).reshape(sys.n, sys.n)
    return mean, np.linalg.cholesky(cov)


def _gaussian_draw(rng: np.random.Generator, mean: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """One draw of N(mean, factor factor^T).  multivariate_normal(...,
    method="cholesky") computes the same product after factoring the
    covariance on every call, so the draws are equal bit for bit."""
    return (rng.standard_normal((1, mean.size)) @ factor.T + mean).reshape(mean.size)


def _initial_state(sys: SystemSpec, x0, rng: np.random.Generator | None) -> np.ndarray:
    """Deterministic x0, or a Gaussian draw when given as a (mean, cov) pair."""
    if isinstance(x0, tuple):
        if rng is None:
            raise InvalidInputError("random initial states need a trajectory stream")
        return _gaussian_draw(rng, *_gaussian_law(sys, x0))
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size != sys.n:
        raise InvalidInputError(f"initial state has length {x.size}, expected {sys.n}")
    return x


def simulate_trajectory(
    sys: SystemSpec,
    K,
    q: float,
    x0,
    cfg: SimConfig,
    trajectory_index: int = 0,
) -> Trajectory:
    """Roll out one trajectory from its dedicated substream.

    x0 is a deterministic state vector or a (mean, covariance) pair for a
    Gaussian draw (consumed from the substream before the channel bits).
    Rollouts exceeding DIVERGENCE_NORM are truncated and flagged divergent.
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1], got {q}")
    K = _gain_matrix(K)
    rng = _stream(cfg.seed, trajectory_index, _FAMILY_TRAJECTORY)
    x = _initial_state(sys, x0, rng)
    T = cfg.horizon
    lam = (rng.random(T) >= q).astype(np.int8)

    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    states = np.empty((T + 1, sys.n))
    states[0] = x
    cost = 0.0
    divergent = False
    steps = T
    for t in range(T):
        u = K @ x
        cost += float(x @ Q @ x) + float(lam[t]) * float(u @ R @ u)
        x = A @ x + float(lam[t]) * (B @ u)
        states[t + 1] = x
        if np.linalg.norm(x) > DIVERGENCE_NORM:
            divergent = True
            steps = t + 1
            break
    return Trajectory(
        states=states[: steps + 1],
        drops=lam[:steps],
        realized_cost=cost,
        divergent=divergent,
    )


def _trajectory_draws(sys: SystemSpec, x0, q: float, cfg: SimConfig, start: int, stop: int):
    """Initial states and channel bits of trajectories start..stop-1.

    Returns (X0, lam), X0 of shape (stop - start, n) and lam of shape
    (stop - start, cfg.horizon), equal bit for bit to what
    `simulate_trajectory` draws from each trajectory's substream.  A
    deterministic x0 leaves the whole substream to the channel bits, which are
    computed by the lock-step Philox in chunks of about _CHUNK_BLOCKS blocks.
    Gaussian initial states take a variable number of words (ziggurat
    normals), so they are drawn one trajectory at a time from a single Philox
    re-keyed per trajectory, with the covariance factored once.
    """
    T, n = cfg.horizon, sys.n
    count = stop - start
    lam = np.empty((count, T), dtype=np.int8)
    if isinstance(x0, tuple):
        mean, factor = _gaussian_law(sys, x0)
        X0 = np.empty((count, n))
        bitgen = np.random.Philox(_FIXED_SEED)
        rng = np.random.Generator(bitgen)
        for row, k in enumerate(range(start, stop)):
            bitgen.state = _keyed_state(_stream_key(cfg.seed, k), _FAMILY_TRAJECTORY)
            X0[row] = _gaussian_draw(rng, mean, factor)
            lam[row] = rng.random(T) >= q
        return X0, lam

    X0 = np.tile(_initial_state(sys, x0, None), (count, 1))
    blocks = -(-T // 4)
    per_chunk = max(1, _CHUNK_BLOCKS // blocks)
    seed_word = np.uint64(cfg.seed & _MASK64)
    for lo in range(0, count, per_chunk):
        hi = min(lo + per_chunk, count)
        index = np.arange(start + lo, start + hi, dtype=np.uint64)
        uniforms = _philox_uniforms(seed_word ^ _mix64_array(index), _FAMILY_TRAJECTORY, blocks)
        lam[lo:hi] = uniforms[:, :T] >= q
    return X0, lam


def _batched_rollout(sys: SystemSpec, K, q, x0, cfg, track_msq: bool = False):
    """Vectorized rollout of cfg.trajectories substreams.

    Returns (costs, divergent mask, mean-square history).  Initial states and
    channel bits are bit-identical to simulate_trajectory's on every
    substream; the costs agree with it to rounding, because the batched sums
    are evaluated in another order.
    """
    K = _gain_matrix(K)
    M, T = cfg.trajectories, cfg.horizon
    X, lam = _trajectory_draws(sys, x0, q, cfg, 0, M)

    A, B, Q, R = sys.A, sys.B, sys.Q, sys.R
    costs = np.zeros(M)
    active = np.ones(M, dtype=bool)
    msq = np.empty(T + 1) if track_msq else None
    if track_msq:
        msq[0] = np.mean(np.sum(X * X, axis=1))
    for t in range(T):
        U = X @ K.T
        step_cost = np.einsum("ij,jk,ik->i", X, Q, X) + lam[:, t] * np.einsum(
            "ij,jk,ik->i", U, R, U
        )
        costs += np.where(active, step_cost, 0.0)
        X = X @ A.T + lam[:, t, None] * (U @ B.T)
        overflow = np.einsum("ij,ij->i", X, X) > DIVERGENCE_NORM**2
        if overflow.any():
            X[overflow] = 0.0
            active &= ~overflow
        if track_msq:
            msq[t + 1] = np.mean(np.sum(X * X, axis=1))
    return costs, ~active, msq


def monte_carlo_cost(sys: SystemSpec, K, q: float, x0, cfg: SimConfig) -> tuple[float, float]:
    """Sample mean and standard error of the realized cost over cfg.trajectories rollouts."""
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1], got {q}")
    costs, divergent, _ = _batched_rollout(sys, K, q, x0, cfg)
    if divergent.all():
        raise UnstableError("every trajectory diverged; the closed loop is unstable")
    mean = float(np.mean(costs))
    if cfg.trajectories == 1:
        return mean, 0.0
    std_err = float(np.std(costs, ddof=1) / math.sqrt(cfg.trajectories))
    return mean, std_err


def empirical_ms_decay(sys: SystemSpec, K, q: float, x0, cfg: SimConfig) -> DecayVerdict:
    """Fit the decay rate of the ensemble mean square over the tail half-window.

    The fitted slope of log E||x_t||^2 over t in [T/2, T] is compared with
    log rho(Phi), the asymptotic rate predicted by the lifted map.  States
    numerically at zero floor the fit; the slope is then -inf (stable).
    """
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"loss rate must lie in [0, 1], got {q}")
    _, _, msq = _batched_rollout(sys, K, q, x0, cfg, track_msq=True)
    _, rho = _lifted_rho(sys, K, q)
    log_rho = math.log(rho) if rho > 0.0 else -math.inf

    T = cfg.horizon
    lo = T // 2
    window = msq[lo : T + 1]
    if np.max(window) < 1e-280:
        return DecayVerdict(stable=True, slope=-math.inf, log_rho=log_rho, window=(lo, T))
    t = np.arange(lo, T + 1, dtype=float)
    y = np.log(np.maximum(window, 1e-300))
    slope = float(np.polyfit(t, y, 1)[0])
    return DecayVerdict(
        stable=bool(slope < DECAY_SLOPE_TOL),
        slope=slope,
        log_rho=log_rho,
        window=(lo, T),
    )
