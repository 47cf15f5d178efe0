import math

import numpy as np
import pytest

from lossylqr import (
    ChannelSamples,
    InvalidInputError,
    NumericalFailureError,
    SystemSpec,
    certify_ce_controller,
    condition_matrix,
    estimate_loss_rate,
    hoeffding_delta,
    min_samples,
    sample_channel,
    st_lower_bound,
)
from lossylqr import learning
from conftest import scalar_mare_root

# Counts that are not integers, each refused with a message naming the argument.
NOT_COUNTS = [10.7, math.inf, math.nan, "10", 10.0]


class TestEstimateLossRate:
    def test_direct_count(self):
        assert estimate_loss_rate(ChannelSamples(np.array([1, 0, 1, 1]))) == 0.25

    def test_all_delivered(self):
        assert estimate_loss_rate(ChannelSamples(np.ones(10, dtype=int))) == 0.0

    def test_all_dropped(self):
        assert estimate_loss_rate(ChannelSamples(np.zeros(7, dtype=int))) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_loss_rate(ChannelSamples(np.array([], dtype=int)))

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidInputError):
            ChannelSamples(np.array([0, 2, 1]))

    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    @pytest.mark.parametrize(
        "bits",
        [
            pytest.param(np.array(["0", "1"]), id="str"),
            pytest.param(np.array([0j, 1 + 0j]), id="complex-real"),
            pytest.param(np.array([1j]), id="complex-imaginary"),
            pytest.param(np.array([True, False]), id="bool"),
            pytest.param(np.array([0.0, np.nan]), id="float-nan"),
            pytest.param(np.array([0.5, 1.0]), id="float-half"),
            pytest.param(np.array([0.0, 1.0]), id="float-bits"),
            pytest.param(np.array([0, 1, None], dtype=object), id="object-none"),
            pytest.param(np.array([0, 1], dtype=object), id="object-bits"),
            pytest.param(np.array([0, 1, 2**63], dtype=np.uint64), id="uint64-large"),
            pytest.param(np.array([0, 1], dtype=np.uint64), id="uint64-bits"),
            pytest.param(np.array([0, -1], dtype=np.int8), id="int8-negative"),
            pytest.param(np.array([1, 0], dtype=np.int8), id="int8-bits"),
            pytest.param(np.array([]), id="empty-float"),
            pytest.param(np.array([], dtype=int), id="empty-int"),
            pytest.param(np.array([[0, 1]]), id="2d"),
            pytest.param(np.array([0, 2, 1]), id="two"),
        ],
    )
    def test_accepts_what_isin_accepts(self, bits):
        # The bits test is (bits == 0) | (bits == 1), once np.isin(bits, (0, 1)).
        if bits.ndim == 1 and np.isin(bits, (0, 1)).all():
            np.testing.assert_array_equal(ChannelSamples(bits).bits, bits.astype(np.int8))
        else:
            with pytest.raises(InvalidInputError):
                ChannelSamples(bits)


class TestHoeffdingDelta:
    def test_reference_values(self):
        assert hoeffding_delta(300, 0.01) == pytest.approx(math.sqrt(math.log(200.0) / 600.0), rel=1e-14)
        assert hoeffding_delta(300, 0.01) == pytest.approx(0.09397, abs=5e-6)
        assert hoeffding_delta(450, 0.1) == pytest.approx(math.sqrt(math.log(20.0) / 900.0), rel=1e-14)
        assert hoeffding_delta(450, 0.1) == pytest.approx(0.05769, abs=5e-6)

    def test_quadrupling_halves_radius(self):
        assert hoeffding_delta(4 * 123, 0.05) == pytest.approx(hoeffding_delta(123, 0.05) / 2.0, rel=1e-14)

    def test_domain_checks(self):
        with pytest.raises(InvalidInputError, match="N_q must be >= 1, got 0"):
            hoeffding_delta(0, 0.1)
        with pytest.raises(InvalidInputError):
            hoeffding_delta(10, 1.0)
        with pytest.raises(InvalidInputError):
            hoeffding_delta(10, 0.0)

    @pytest.mark.parametrize("N_q", NOT_COUNTS)
    def test_refuses_a_non_integer_count(self, N_q):
        with pytest.raises(InvalidInputError, match="N_q must be an integer"):
            hoeffding_delta(N_q, 0.1)

    @pytest.mark.parametrize("N_q", [np.int64(300), np.int32(300), np.uint16(300)])
    def test_numpy_integer_count(self, N_q):
        assert hoeffding_delta(N_q, 0.01).hex() == hoeffding_delta(300, 0.01).hex()


class TestMinSamples:
    def test_scalar_variant(self, example1):
        report = min_samples(example1, 0.2, 0.1, "scalar")
        # log(2/beta) / delta_scalar^2, no factor 2 in the tailored bound
        p = scalar_mare_root(0.2)
        delta = (1.0 + p) / (2.25 * p * p) + 0.8 / (1.0 + p)
        assert report.bound == pytest.approx(math.log(20.0) / delta**2, rel=1e-9)
        assert report.bound == pytest.approx(42.20, abs=5e-3)
        assert report.min_N == 43

    def test_from_threshold(self, example1):
        report = min_samples(None, None, 0.1, "from_threshold", delta_bar=0.26644)
        assert report.bound == pytest.approx(21.10, abs=5e-3)
        assert report.min_N == 22

    def test_general_variant(self, example1):
        report = min_samples(example1, 0.2, 0.1, "general")
        assert report.bound == pytest.approx(234.98, abs=0.02)
        assert report.min_N == 235

    def test_general_equals_threshold_composition(self, example1, example2):
        for sys in (example1, example2):
            for q in np.linspace(0.0, 0.4, 9):
                delta = st_lower_bound(sys, float(q), "general").bound
                direct = min_samples(sys, float(q), 0.1, "general")
                composed = min_samples(None, None, 0.1, "from_threshold", delta_bar=delta)
                assert direct.bound == composed.bound
                assert direct.min_N == composed.min_N

    def test_min_n_respects_strict_inequality(self, example1):
        for q in (0.05, 0.2, 0.35):
            for variant in ("general", "scalar", "invertible_B"):
                report = min_samples(example1, q, 0.1, variant)
                assert report.min_N > report.bound

    def test_requires_positive_threshold(self):
        with pytest.raises(InvalidInputError, match="positive delta_bar"):
            min_samples(None, None, 0.1, "from_threshold", delta_bar=0.0)

    @pytest.mark.parametrize("delta_bar", [math.inf, math.nan, None])
    def test_requires_a_finite_threshold(self, delta_bar):
        with pytest.raises(InvalidInputError, match="finite positive delta_bar"):
            min_samples(None, None, 0.1, "from_threshold", delta_bar=delta_bar)

    def test_unknown_variant(self, example1):
        with pytest.raises(InvalidInputError):
            min_samples(example1, 0.1, 0.1, "bogus")


class TestCertify:
    def test_example2_reference(self, example2):
        cert = certify_ce_controller(example2, 0.1633, 300, 0.01)
        assert cert.q_bar == pytest.approx(0.4181, abs=2e-3)
        assert cert.delta == pytest.approx(0.0940, abs=1e-4)
        assert cert.q_hat + cert.delta <= cert.q_bar
        assert cert.passed

    def test_example1_closed_form(self, example1):
        p = scalar_mare_root(0.0)
        k = -1.5 * p / (1.0 + p)
        w = 2.25 * p * p / (1.0 + p)
        expected = (1.0 + k * k) / (k * k + w)
        cert = certify_ce_controller(example1, 0.0, 300, 0.01)
        assert cert.q_bar == pytest.approx(expected, rel=1e-9)
        assert cert.q_bar == pytest.approx(0.39883, abs=5e-5)

    def test_unconstrained_design_reaches_one(self):
        # A = 0 makes the gain zero, so no loss rate can destabilize.
        sys = SystemSpec(A=np.zeros((2, 2)), B=np.eye(2), Q=np.eye(2), R=np.eye(2))
        cert = certify_ce_controller(sys, 0.1, 50, 0.05)
        assert cert.q_bar == 1.0

    def test_tolerated_rate_is_boundary(self, example1, example2):
        for sys, q_hat in ((example1, 0.0), (example2, 0.1633)):
            q_bar = certify_ce_controller(sys, q_hat, 300, 0.01).q_bar
            assert q_bar < 1.0
            below = np.linalg.eigvalsh(condition_matrix(sys, q_bar - 1e-7, q_hat))[0]
            above = np.linalg.eigvalsh(condition_matrix(sys, q_bar + 1e-7, q_hat))[0]
            assert below > 0.0
            assert above < 0.0

    def test_passed_certificate_is_sound(self, example2):
        cert = certify_ce_controller(example2, 0.1633, 300, 0.01)
        assert cert.passed
        for q in np.linspace(max(0.0, cert.q_hat - cert.delta), cert.q_hat + cert.delta, 25):
            C = condition_matrix(example2, float(q), cert.q_hat)
            assert np.linalg.eigvalsh(C)[0] > 0.0

    @pytest.mark.parametrize("N_q", NOT_COUNTS)
    def test_refuses_a_non_integer_count(self, example2, N_q):
        with pytest.raises(InvalidInputError, match="N_q must be an integer"):
            certify_ce_controller(example2, 0.1633, N_q, 0.01)

    def test_refuses_a_count_below_one(self, example2):
        with pytest.raises(InvalidInputError, match="N_q must be >= 1, got 0"):
            certify_ce_controller(example2, 0.1633, 0, 0.01)

    @pytest.mark.parametrize("N_q", [np.int64(300), np.uint32(300)])
    def test_numpy_integer_count(self, example2, N_q):
        cert = certify_ce_controller(example2, 0.1633, 300, 0.01)
        got = certify_ce_controller(example2, 0.1633, N_q, 0.01)
        assert type(got.N_q) is int and got == cert
        assert (got.delta.hex(), got.q_bar.hex()) == (cert.delta.hex(), cert.q_bar.hex())

    def test_failing_certificate(self, example1):
        # Tiny sample: the radius swamps the tolerated range.
        cert = certify_ce_controller(example1, 0.0, 10, 0.01)
        assert cert.delta > cert.q_bar
        assert not cert.passed


# (fixture name, q_hat, q_bar) of `test_tolerated_rate_is_boundary`'s designs.
BOUNDARY_DESIGNS = [("example1", 0.0, 0.3988261392604885), ("example2", 0.1633, 0.4181453999749257)]


def shift_closed_form(monkeypatch, shift: float) -> None:
    """Move the closed-form tolerated rate 1/lambda_max by `shift`, leaving the probes' lambda_min exact."""
    exact = learning.sym_eig_extremes

    def shifted(M):
        lmin, lmax = exact(M)
        return lmin, lmax / (1.0 + shift * lmax)

    monkeypatch.setattr(learning, "sym_eig_extremes", shifted)


class TestToleratedRateProbes:
    @pytest.mark.parametrize("name, q_hat, q_bar", BOUNDARY_DESIGNS, ids=["example1", "example2"])
    def test_unshifted_certificate_is_unchanged(self, request, name, q_hat, q_bar):
        assert certify_ce_controller(request.getfixturevalue(name), q_hat, 300, 0.01).q_bar == q_bar

    @pytest.mark.parametrize("shift", [2e-6, -2e-6], ids=["above", "below"])
    @pytest.mark.parametrize("name, q_hat, q_bar", BOUNDARY_DESIGNS, ids=["example1", "example2"])
    def test_shift_beyond_probe_offset_raises(self, request, monkeypatch, name, q_hat, q_bar, shift):
        sys = request.getfixturevalue(name)
        shift_closed_form(monkeypatch, shift)
        with pytest.raises(NumericalFailureError, match="does not change sign"):
            certify_ce_controller(sys, q_hat, 300, 0.01)

    @pytest.mark.parametrize("shift", [5e-7, -5e-7], ids=["above", "below"])
    @pytest.mark.parametrize("name, q_hat, q_bar", BOUNDARY_DESIGNS, ids=["example1", "example2"])
    def test_shift_within_probe_offset_passes(self, request, monkeypatch, name, q_hat, q_bar, shift):
        sys = request.getfixturevalue(name)
        shift_closed_form(monkeypatch, shift)
        assert certify_ce_controller(sys, q_hat, 300, 0.01).q_bar == pytest.approx(q_bar + shift, abs=1e-12)


class TestHoeffdingCoverage:
    def test_empirical_coverage(self):
        # 10^4 independent batches of 300 bits at q = 0.2, beta = 0.05.
        q, n, beta, batches = 0.2, 300, 0.05, 10_000
        delta = hoeffding_delta(n, beta)
        hits = 0
        for k in range(batches):
            q_hat = estimate_loss_rate(sample_channel(q, n, seed=k))
            hits += abs(q - q_hat) <= delta
        assert hits / batches >= 1.0 - beta - 0.01
