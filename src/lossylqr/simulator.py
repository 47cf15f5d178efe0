"""Seeded Monte-Carlo engine for the packet-loss closed loop.

Randomness is pinned to numpy's Philox counter-based generator.  Every
logical stream gets its own 128-bit key: the first word is the user seed
XOR-mixed with the stream index through a splitmix64 finalizer, the second
word tags the stream family (channel sampling vs. trajectory rollout).
Per-trajectory substreams make results bit-reproducible and independent of
evaluation order: batched and one-at-a-time rollouts draw identical initial
states and channel bits.

The batched rollout never builds one Generator per trajectory.  Its draws
take one of two routes, both equal bit for bit to the trajectory's stream:

* Philox4x64-10 is a pure function of (counter, key) (Salmon et al.,
  "Parallel random numbers: as easy as 1, 2, 3", SC'11).  For a
  deterministic x0 and a horizon below _REKEYED_HORIZON words, it is
  evaluated directly on numpy uint64 arrays, every trajectory's key in
  lock-step, one plain loop over the ten rounds.
* Otherwise one C Philox is re-keyed per trajectory and yields the
  trajectory's Gaussian initial state, if any, and then its raw words, which
  are compared a chunk of rows at a time, at most 4 * _CHUNK_BLOCKS words.
  Its cost per word is about a fifth of the lock-step one, which wins while
  the fixed cost per trajectory (about 0.7 us) dominates: below about 65
  words.

A channel bit is 1 when `Generator.random()` of its word is at least q; both
routes decide that on the word itself, against the integer threshold of
`_delivery_threshold`, without forming the float.  `_stream` stays the
reference those draws are tested against.

The rollout plans its step once per call (`_step_plans`): a list of numpy
calls, each writing into a buffer allocated once, on 1-D views of the state
and input columns.  It forms the products X @ W.T with BLAS, except where
the inner dimension is 1 (K or A when n = 1, B when m = 1): those are outer
products, one multiply per column (`_product_calls`).  The quadratic forms
of the cost keep einsum's order of terms (`_form_calls`), and the mean
square of a decay run sums each row's squares column by column, with
np.sum's bits (`_row_square_calls`).  Each step copies its channel bits
into one float64 row.  A cost step of 4000 scalar trajectories makes 16
numpy calls, that copy included, and takes about 13 us (AMD EPYC, numpy
2.4.6, one BLAS thread).  Every output keeps the bits of one allocating call
per operation (see `_batched_rollout`).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UnstableError
from .learning import ChannelSamples, _channel_samples
from .numerics import _as_int, _check_lifted_rate, _cholesky, _dense_spectral_radius, _finite_vector, _fro
from .riccati import RHO_MARGIN, SystemSpec, _gain, _lifted_map, _ms_stable
from .stability import _lifted_rho

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
_PHILOX_M_HALVES = tuple((m & _LOW32, m >> _SHIFT32) for m in _PHILOX_M)
# Philox blocks (4 words each) evaluated at once by the batched draws; bounds
# their working memory independently of the trajectory count.
_CHUNK_BLOCKS = 6144
# Horizon from which a deterministic x0's channel bits come from the re-keyed
# C Philox instead of the lock-step one.  Per trajectory, in runs of 4000
# (AMD EPYC, 2 shared cores, numpy 2.4.6, one BLAS thread, best of 5), the
# lock-step route costs about 12 ns per word; the re-keyed one costs about
# 0.71 us (rewriting the key, one `random_raw` and its share of a chunk's
# compare) plus 2.6 ns per word.  They meet at about 65 words; at 50 words
# they take about 0.69 and 0.84 us, at 200 about 2.5 and 1.2 us.  Both give
# the same bits, and no benchmark run of a fixed x0 has a horizon between 50
# and 65, so a move here could neither change an output nor be measured.
_REKEYED_HORIZON = 50
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


def _trajectory_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """`_stream_key(seed, k)` for k in start..stop-1, as uint64."""
    index = np.arange(start, stop, dtype=np.uint64)
    return np.uint64(seed & _MASK64) ^ _mix64_array(index)


def _keyed_state(key: int, family: int) -> dict:
    """Philox state with the key words (key, family), a zero counter and an
    empty buffer: the state a Philox built with that key starts from.  Its
    words are plain ints in lists: the state setter reads each entry by index
    and casts it to uint64, so they set the same state as uint64 arrays, in
    less time."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key, family]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _keyed_philox(seed: int, index: int, family: int) -> np.random.Philox:
    bitgen = np.random.Philox(_FIXED_SEED)
    bitgen.state = _keyed_state(_stream_key(seed, index), family)
    return bitgen


def _stream(seed: int, index: int, family: int) -> np.random.Generator:
    return np.random.Generator(_keyed_philox(seed, index, family))


def _mulhilo(i: int, x: np.ndarray) -> np.ndarray:
    """Philox multiply by _PHILOX_M[i]: returns the high words of the 128-bit
    products and leaves the low words in `x`, in place.  The high word comes
    from 32-bit halves: with the partial products lo_lo, hi_lo, lo_hi of
    (x_lo, x_hi) and (m_lo, m_hi), t = hi_lo + (lo_lo >> 32) and
    u = lo_hi + (t & LOW), it is x_hi * m_hi + (t >> 32) + (u >> 32), and no
    sum overflows 64 bits."""
    m_lo, m_hi = _PHILOX_M_HALVES[i]
    a = x & _LOW32  # x_lo
    hi = x >> _SHIFT32  # x_hi
    b = a * m_lo  # lo_lo
    c = hi * m_lo  # hi_lo
    a *= m_hi  # lo_hi
    b >>= _SHIFT32
    c += b  # t
    np.bitwise_and(c, _LOW32, out=b)
    a += b  # u
    hi *= m_hi
    c >>= _SHIFT32
    hi += c
    a >>= _SHIFT32
    hi += a
    x *= _PHILOX_M[i]
    return hi


def _philox_words(keys: np.ndarray, family: int, blocks: int) -> list[np.ndarray]:
    """The first 4 * blocks words of the Philox keyed (k, family) for every k
    in keys, as four (keys.size, blocks) arrays: word w of block j of key row
    r is words[w][r, j].

    numpy increments the counter before it fills its buffer, so block j is
    Philox4x64-10 of the counter (j + 1, 0, 0, 0).  The rounds broadcast a
    column of keys against a row of counters, so the first two run on the
    small shapes and every word is full size from the third on.  The zero
    words are distinct arrays because `_mulhilo` writes into its argument.
    """
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1, c2, c3 = (np.zeros((1, 1), dtype=np.uint64) for _ in range(3))
    k0, k1 = keys[:, None], np.full((1, 1), family, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, hi1 = _mulhilo(0, c0), _mulhilo(1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, c2, hi0 ^ c3 ^ k1, c0
    return [c0, c1, c2, c3]


def _delivery_threshold(q: float) -> int:
    """Least 64-bit word w with (w >> 11) * 2^-53 >= q.

    `Generator.random()` turns a word w into (w >> 11) * 2^-53, and
    (w >> 11) >= ceil(q * 2^53) exactly when w >= ceil(q * 2^53) << 11, so a
    channel bit is 1 exactly when its word reaches this threshold.  At q = 1
    it is 2^64, which no word reaches: numpy 2 compares a uint64 array with a
    Python int exactly, even out of the array's range, so the comparisons
    take the threshold as it is and give 0 there.
    """
    return math.ceil(q * 2.0**53) << 11


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo run parameters.

    The default horizon suffices for the worked examples: once the closed
    loop is mean-square stable, the truncated-cost bias rho(Phi)^T * tr(S)
    is far below 1e-4 of the mean well before T = 200.  Each field is an
    integer, a numpy one kept as a Python int; horizon and trajectories >= 1.
    """

    seed: int = 0
    horizon: int = 200
    trajectories: int = 10_000

    def __post_init__(self):
        for name, least in (("seed", None), ("horizon", 1), ("trajectories", 1)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, least))


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
    """Draw N i.i.d. channel bits, 1 with probability 1 - q, for q in (0, 1), an
    integer N >= 1 and any integer seed (a numpy integer counts as its Python int).

    Bit i is `Generator.random()` >= q on word i of the channel stream, decided
    on the raw word against the integer threshold of `_delivery_threshold`
    without forming the float.  The bits are 0/1 by construction, so the
    samples skip the checks of the `ChannelSamples` constructor."""
    if not 0.0 < q < 1.0:
        raise InvalidInputError(f"channel loss rate must lie in (0, 1), got {q}")
    N = _as_int(N, "sample count N", least=1)
    seed = _as_int(seed, "seed")
    words = _keyed_philox(seed, 0, _FAMILY_CHANNEL).random_raw(N)
    return _channel_samples((words >= _delivery_threshold(q)).view(np.int8))


def _gaussian_law(sys: SystemSpec, x0) -> tuple[np.ndarray, np.ndarray]:
    """Mean and lower Cholesky factor of a (mean, cov) initial-state law;
    raises numpy's LinAlgError when cov is not positive definite."""
    mean, cov = x0
    mean = _finite_vector(mean, sys.n, "initial-state mean")
    cov = _finite_vector(cov, sys.n**2, "initial-state covariance").reshape(sys.n, sys.n)
    return mean, _cholesky(cov)


def _gaussian_draw(rng: np.random.Generator, mean: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """One draw of N(mean, factor factor^T).  multivariate_normal(...,
    method="cholesky") computes the same product after factoring the
    covariance on every call, so the draws are equal bit for bit."""
    return (rng.standard_normal((1, mean.size)) @ factor.T + mean).reshape(mean.size)


def _initial_state(sys: SystemSpec, x0, rng: np.random.Generator) -> np.ndarray:
    """Deterministic x0, or a Gaussian draw from rng when given as a (mean, cov) pair."""
    if isinstance(x0, tuple):
        return _gaussian_draw(rng, *_gaussian_law(sys, x0))
    return _finite_vector(x0, sys.n, "initial state")


def simulate_trajectory(
    sys: SystemSpec,
    K,
    q: float,
    x0,
    cfg: SimConfig,
    trajectory_index: int = 0,
) -> Trajectory:
    """Roll out trajectory `trajectory_index` (an integer >= 0) from its dedicated substream.

    x0 is a deterministic state vector or a (mean, covariance) pair for a
    Gaussian draw (consumed from the substream before the channel bits).
    Rollouts exceeding DIVERGENCE_NORM are truncated and flagged divergent.
    """
    _check_lifted_rate(q)
    K = _gain(sys, K)
    rng = _stream(cfg.seed, _as_int(trajectory_index, "trajectory_index", least=0), _FAMILY_TRAJECTORY)
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
        if _fro(x) > DIVERGENCE_NORM:
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
    `simulate_trajectory` draws from each trajectory's substream.  Each word
    is compared with the integer `_delivery_threshold` instead of being
    turned into a float, at q = 1 too, where no word reaches it.  The words
    come by one of two routes:

    * a deterministic x0 with a horizon below _REKEYED_HORIZON leaves the
      whole substream to the channel bits, and the lock-step Philox computes
      them for all keys at once, in chunks of about _CHUNK_BLOCKS blocks;
    * every other trajectory is drawn alone, from a single C Philox whose key
      is rewritten per trajectory: first the initial state of a Gaussian x0
      (ziggurat normals take a variable number of words), then its horizon
      of raw words, as `random_raw` returns them, kept in a list of at most
      4 * _CHUNK_BLOCKS words (or one row); the chunk of rows is compared at
      once.  The covariance is factored once and all initial states are
      formed by one stacked product.

    The re-keyed route has a fixed cost per trajectory that the lock-step
    route does not, and a lower cost per word (measurements at
    `_REKEYED_HORIZON`).
    """
    T, n = cfg.horizon, sys.n
    count = stop - start
    threshold = _delivery_threshold(q)
    gaussian = isinstance(x0, tuple)
    if gaussian:
        mean, factor = _gaussian_law(sys, x0)
        Z = np.empty((count, 1, n))
    else:
        X0 = np.tile(_finite_vector(x0, n, "initial state"), (count, 1))
        if T < _REKEYED_HORIZON:
            return X0, _lockstep_bits(cfg.seed, start, stop, T, threshold)

    lam = np.zeros((count, T), dtype=np.int8)
    delivered = lam.view(np.bool_)  # the same bytes; comparisons write it without a cast
    bitgen = np.random.Philox(_FIXED_SEED)
    normal = np.random.Generator(bitgen).standard_normal
    state = _keyed_state(0, _FAMILY_TRAJECTORY)
    key = state["state"]["key"]
    keys = _trajectory_keys(cfg.seed, start, stop)
    per_chunk = max(1, 4 * _CHUNK_BLOCKS // T)
    for lo in range(0, count, per_chunk):
        hi = min(lo + per_chunk, count)
        words = []  # the chunk's rows, as random_raw returns them
        for row, k in enumerate(keys[lo:hi].tolist(), lo):
            key[0] = k
            bitgen.state = state
            if gaussian:
                normal(out=Z[row, 0])
            words.append(bitgen.random_raw(T))
        np.greater_equal(words, threshold, out=delivered[lo:hi])
    if gaussian:
        return (Z @ factor.T + mean).reshape(count, n), lam
    return X0, lam


def _lockstep_bits(seed: int, start: int, stop: int, T: int, threshold: int) -> np.ndarray:
    """The (stop - start, T) channel bits of trajectories start..stop-1 for a
    deterministic x0, from the lock-step Philox."""
    count = stop - start
    blocks = -(-T // 4)
    # Word w of block j is column 4 j + w; the columns past T are never read.
    bits = np.empty((count, blocks, 4), dtype=np.int8)
    delivered = bits.view(np.bool_)
    per_chunk = max(1, _CHUNK_BLOCKS // blocks)
    for lo in range(0, count, per_chunk):
        hi = min(lo + per_chunk, count)
        words = _philox_words(_trajectory_keys(seed, start + lo, start + hi), _FAMILY_TRAJECTORY, blocks)
        for w in range(4):
            np.greater_equal(words[w], threshold, out=delivered[lo:hi, :, w])
        del words  # before the next chunk allocates its own buffers
    return bits.reshape(count, 4 * blocks)[:, :T]


def _run(calls: list) -> None:
    """Make each planned call: a (function, arguments) pair."""
    for function, args in calls:
        function(*args)


def _product_calls(X: np.ndarray, W: np.ndarray, out: np.ndarray) -> list:
    """The calls that write X @ W.T into out, for a batch of rows X.

    With an inner dimension of 1 the product is an outer product: one
    multiply of X's column per column of out, a 1-D view each (a broadcast
    multiply runs slower than BLAS once the result has two columns).  Its
    entries are the matmul's bits, except that a zero may be -0.0 where the
    matmul's sum from zero gives +0.0; `_batched_rollout` shows why no
    output sees that sign."""
    if W.shape[1] != 1:
        return [(np.matmul, (X, W.T, out))]
    x = X[:, 0]
    return [(np.multiply, (x, w, out[:, j])) for j, w in enumerate(W[:, 0].tolist())]


def _form_calls(X: np.ndarray, W: np.ndarray, out: np.ndarray, term: np.ndarray) -> list:
    """The calls that write x^T W x of every row x of X into out, as
    einsum("ij,jk,ik->i", X, W, X) sums it on a batch of rows: term by term, j
    outer and k inner, each term rounded as (x_j * W[j, k]) * x_k, from zero.
    (On one or two rows of width 2, numpy 2.4's einsum adds the k terms of
    each j first, which can differ in the last bit.)

    The sum starts from its first term instead of from zero.  W is a plant's
    Q or R, positive definite, so W[0, 0] > 0 and that term has its sign (x_0
    enters it twice): it is never -0.0, and 0.0 + term is the term, NaN
    included."""
    cols = [X[:, j] for j in range(len(W))]
    (x, w, y), *terms = [(cols[j], w, cols[k]) for j, row in enumerate(W.tolist()) for k, w in enumerate(row)]
    calls = [(np.multiply, (x, w, out)), (np.multiply, (out, y, out))]
    for x, w, y in terms:
        calls += [(np.multiply, (x, w, term)), (np.multiply, (term, y, term)), (np.add, (out, term, out))]
    return calls


def _row_square_calls(X: np.ndarray, out: np.ndarray, term: np.ndarray) -> list:
    """The calls that write np.sum(X * X, axis=1) into out, bit for bit.
    Below 8 columns numpy adds each row's squares in order, from zero; a
    running sum over the columns does the same without the per-row cost of
    the reduction, and starts from the first square, which is never -0.0.
    From 8 columns on numpy sums pairwise, and the calls are np.sum's own
    multiply and reduction, into a buffer of X's shape."""
    if X.shape[1] >= 8:
        squares = np.empty(X.shape)
        return [(np.multiply, (X, X, squares)), (np.add.reduce, (squares, 1, None, out))]
    cols = [X[:, j] for j in range(X.shape[1])]
    calls = [(np.multiply, (cols[0], cols[0], out))]
    for x in cols[1:]:
        calls += [(np.multiply, (x, x, term)), (np.add, (out, term, out))]
    return calls


def _batched_rollout(sys: SystemSpec, K, q, x0, cfg, track_msq: bool = False):
    """Vectorized rollout of cfg.trajectories substreams.

    Returns (costs, divergent mask, mean-square history).  Initial states and
    channel bits are bit-identical to simulate_trajectory's on every
    substream; the costs agree with it to rounding, because the batched sums
    are evaluated in another order.  A run that tracks the mean square is a
    decay run, which reads no costs: they are not computed and come back None.

    The step is planned once per call (`_step_plans`) and writes every
    result into buffers allocated once, so it allocates nothing.  Each step
    first copies its channel bits into one float64 row, which both plans
    read.  The planned step makes the operations of the rollout

        U = X K^T;  costs += x^T Q x + lam * u^T R u;
        X = X A^T + lam * (U B^T);  rows past DIVERGENCE_NORM become 0,

    in that order; the only ones it leaves out are the 0.0 added after an
    outer product and the zero that a quadratic form's sum starts from,
    neither of which can reach an output bit:

    * A state or input enters the outputs only through the quadratic forms,
      the squares of the divergence test and the mean square, and the
      products that form the next state and input.  A zero's sign changes
      none of these but the sign of a zero sum: a square of +-0.0 is +0.0; a
      quadratic form's sum never is -0.0 once its first term is not (adding
      +-0.0 to anything else leaves it); and a product or sum whose result is
      not zero is the same for either sign of a zero operand.  So a -0.0
      where the matmul gives +0.0 changes no output.
    * A quadratic form starts from its first term, which a positive definite
      Q or R keeps from being -0.0 (see `_form_calls`): the same bits.
    """
    K = _gain(sys, K)
    M, T = cfg.trajectories, cfg.horizon
    X0, lam = _trajectory_draws(sys, x0, q, cfg, 0, M)
    states = (np.ascontiguousarray(X0, dtype=float), np.empty((M, sys.n)))
    costs = None if track_msq else np.zeros(M)
    divergent = np.zeros(M, dtype=bool)
    over = np.empty(M, dtype=bool)
    work = np.empty(M)
    bits = np.empty(M)
    plans = _step_plans(sys, K, states, bits, costs, work)
    if track_msq:
        msq, squares = np.empty(T + 1), np.empty(M)
        square_calls = [_row_square_calls(X, squares, work) for X in states]
        _run(square_calls[0])
        msq[0] = np.add.reduce(squares)
    limit = DIVERGENCE_NORM**2
    for t in range(1, T + 1):
        np.copyto(bits, lam[:, t - 1])
        _run(plans[t & 1])
        X = states[t & 1]
        # The test keeps einsum's sums of squares: its decisions are bits of the output.
        np.einsum("ij,ij->i", X, X, out=work)
        if np.greater(work, limit, out=over).any():
            X[over] = 0.0
            divergent |= over
        if track_msq:
            _run(square_calls[t & 1])
            msq[t] = np.add.reduce(squares)
    if track_msq:
        # np.mean divides the same sum by the row count.
        msq /= M
    return costs, divergent, msq if track_msq else None


def _step_plans(sys: SystemSpec, K: np.ndarray, states: tuple, bits: np.ndarray, costs, work: np.ndarray) -> list:
    """The calls of a step, one plan per state buffer.

    plans[p] reads the state in states[1 - p] and the channel bits in the
    row `bits`, writes the next state into states[p] and, unless costs is
    None, adds its step costs to costs.  `work` is scratch that the step may
    overwrite."""
    M = len(work)
    U, UB = np.empty((M, sys.m)), np.empty((M, sys.n))
    if costs is not None:
        qx, qu = np.empty(M), np.empty(M)
    plans = []
    for X, Xn in (states[::-1], states):
        calls = _product_calls(X, K, U)
        if costs is not None:
            calls += _form_calls(X, sys.Q, qx, work) + _form_calls(U, sys.R, qu, work)
            # A row that overflowed is zero from then on, and so are its step
            # costs: the sum needs no mask to stop at its divergence.
            calls += [(np.multiply, (qu, bits, qu)), (np.add, (qx, qu, qx)), (np.add, (costs, qx, costs))]
        calls += _product_calls(X, sys.A, Xn) + _product_calls(U, sys.B, UB)
        plans.append(calls + [(np.multiply, (column, bits, column)) for column in UB.T] + [(np.add, (Xn, UB, Xn))])
    return plans


def monte_carlo_cost(sys: SystemSpec, K, q: float, x0, cfg: SimConfig) -> tuple[float, float]:
    """Sample mean and standard error of the realized cost over cfg.trajectories rollouts.

    The mean estimates the infinite-horizon cost only for a mean-square
    stable loop.  When the spectral radius rho of the lifted map (see
    `exact_ms_stable`) is at least 1 - RHO_MARGIN, the truncated cost grows
    with the horizon, and a RuntimeWarning that names rho goes with the same
    result.  Trajectories often stay below DIVERGENCE_NORM there, so the
    divergence mask alone does not show it.

    rho is the dense radius that `exact_ms_stable` certifies, taken here
    without the certificate: the notice needs no proof, and a certificate
    that fails must not stop the estimate.  A gain whose lifted map
    overflows gets no notice; its rollout shows the divergence."""
    _check_lifted_rate(q)
    with np.errstate(over="ignore", invalid="ignore"):
        Phi = _lifted_map(sys, _gain(sys, K), q)
    rho = _dense_spectral_radius(Phi) if np.isfinite(Phi).all() else None
    if rho is not None and not _ms_stable(rho):
        warnings.warn(
            f"the closed loop is not mean-square stable (rho = {rho!r} >= 1 - {RHO_MARGIN:.0e}); "
            "the Monte Carlo mean grows with the horizon and estimates no finite cost",
            RuntimeWarning,
            stacklevel=2,
        )
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
    numerically at zero floor the fit; the slope is then -inf (stable).  A
    trajectory that passes DIVERGENCE_NORM is truncated to zero by the
    rollout, which would make the mean square fall; so if any trajectory
    diverged, the verdict is unstable with slope +inf and no fit is made.
    """
    _check_lifted_rate(q)
    _, divergent, msq = _batched_rollout(sys, K, q, x0, cfg, track_msq=True)
    _, rho = _lifted_rho(sys, K, q)
    log_rho = math.log(rho) if rho > 0.0 else -math.inf

    T = cfg.horizon
    lo = T // 2
    if divergent.any():
        return DecayVerdict(stable=False, slope=math.inf, log_rho=log_rho, window=(lo, T))
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
