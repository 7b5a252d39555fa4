import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regcal.calibrate import apply_calibration, fit_sigma
from regcal.likelihood import HALF_LOG_2PI, batch_nll
from regcal.metrics import uncertainty_records

from conftest import calibrated, make_record, make_set, random_set

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def one_record_nll(y, y_hat, log_var, kind="gaussian"):
    """batch_nll of one N=1 record: MC mean y_hat, total variance exp(log_var)."""
    return batch_nll(uncertainty_records(make_set([make_record("a", [y], [[y_hat]], [log_var])])), kind)


class TestGaussianNll:
    """batch_nll's Gaussian term: 1/2 log(2 pi) + 1/2 log_var + e^2 / (2 exp(log_var))."""

    def test_zero_error_unit_variance(self):
        assert one_record_nll(0.5, 0.5, 0.0) == HALF_LOG_2PI

    def test_unit_error_unit_variance(self):
        assert one_record_nll(0.0, 1.0, 0.0) == pytest.approx(HALF_LOG_2PI + 0.5, abs=1e-15)

    def test_hand_evaluated_term(self):
        # (0.2^2 / 0.5 + ln 0.5) / 2 = (0.08 - 0.6931471805599453) / 2
        assert one_record_nll(0.0, 0.2, math.log(0.5)) == pytest.approx(
            HALF_LOG_2PI - 0.6131471805599453 / 2, abs=1e-12
        )

    def test_minimized_at_log_squared_error(self):
        # For fixed error e^2 the term bottoms out at variance e^2 with
        # value 1/2 log(2 pi) + (1 + log e^2) / 2.
        err_sq = 0.3**2
        grid = np.linspace(math.log(err_sq) - 2, math.log(err_sq) + 2, 2001)
        values = [one_record_nll(0.0, 0.3, lv) for lv in grid]
        best = grid[int(np.argmin(values))]
        assert best == pytest.approx(math.log(err_sq), abs=2e-3)
        assert min(values) == pytest.approx(HALF_LOG_2PI + (1 + math.log(err_sq)) / 2, abs=1e-5)

    @given(y=finite, y_hat=finite, shift=finite, log_var=st.floats(-5, 5))
    def test_translation_invariant(self, y, y_hat, shift, log_var):
        a = one_record_nll(y + shift, y_hat + shift, log_var)
        b = one_record_nll(y, y_hat, log_var)
        assert a == pytest.approx(b, abs=1e-9)


class TestLaplaceNll:
    """batch_nll's Laplace term with scale b = sqrt(total): log(2 b) + |e| / b."""

    def test_zero_error(self):
        assert one_record_nll(0.5, 0.5, 0.0, "laplace") == math.log(2.0)

    def test_unit_error_unit_scale(self):
        assert one_record_nll(0.0, 1.0, 0.0, "laplace") == pytest.approx(
            math.log(2.0) + 1.0, abs=1e-15
        )

    def test_hand_evaluated_term(self):
        # b = 2: ln 4 + 0.5/2 = 1.3862943611198906 + 0.25
        assert one_record_nll(0.0, 0.5, 2 * math.log(2.0), "laplace") == pytest.approx(
            1.6362943611198906, abs=1e-12
        )

    @given(y=finite, y_hat=finite, shift=finite, log_sigma=st.floats(-5, 5))
    def test_translation_invariant(self, y, y_hat, shift, log_sigma):
        a = one_record_nll(y + shift, y_hat + shift, 2 * log_sigma, "laplace")
        b = one_record_nll(y, y_hat, 2 * log_sigma, "laplace")
        assert a == pytest.approx(b, abs=1e-9)


class TestBatchNll:
    def test_single_record_constant(self):
        # y == MC mean and total uncertainty 1 leaves only 0.5*log(2*pi).
        rec = make_record("a", [0.3], [[0.3]], [0.0])
        # epistemic 0, aleatoric exp(0)=1
        value = batch_nll(uncertainty_records(make_set([rec])))
        assert value == pytest.approx(0.9189385332046727, abs=1e-15)

    def test_identity_calibration_matches_none(self, rng):
        from regcal.core import identity_artifact

        pset = random_set(rng, m=30, n=4)
        assert batch_nll(calibrated(pset, identity_artifact())) == batch_nll(calibrated(pset, None))

    def test_unit_scale_matches_none(self, rng):
        from regcal.core import CalibrationArtifact

        pset = random_set(rng, m=30, n=4)
        unit = CalibrationArtifact(method="sigma", s=1.0)
        assert batch_nll(calibrated(pset, unit)) == batch_nll(calibrated(pset, None))

    def test_matches_independent_density_oracle(self, rng):
        pset = random_set(rng, m=40, n=6, d=2)
        # Brute-force re-derivation of the Gaussian density from raw samples.
        total = 0.0
        for i in range(pset.m):
            means = pset.means[i]
            y_mean = means.mean(axis=0)
            epi = np.mean((means - y_mean) ** 2)
            alea = np.mean([math.exp(lv) for lv in pset.log_vars[i]])
            s2 = epi + alea
            err_sq = float(np.mean((pset.y[i] - y_mean) ** 2))
            total += 0.5 * math.log(2 * math.pi) + 0.5 * math.log(s2) + err_sq / (2 * s2)
        assert batch_nll(uncertainty_records(pset)) == pytest.approx(total / pset.m, abs=1e-12)

    def test_fitted_sigma_never_worse_than_identity(self, rng):
        for trial in range(5):
            unc = uncertainty_records(random_set(np.random.default_rng(trial), m=60, n=5))
            calib = fit_sigma(unc, likelihood="gaussian", target="predictive")
            assert batch_nll(apply_calibration(unc, calib)) <= batch_nll(unc)

    def test_degenerate_uncertainty_raises(self):
        # log_var low enough that exp underflows to exactly zero.
        rec = make_record("a", [0.0], [[0.5]], [-800.0])
        with pytest.raises(ValueError, match="degenerate uncertainty"):
            batch_nll(uncertainty_records(make_set([rec])))

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown likelihood"):
            batch_nll(uncertainty_records(random_set(rng)), kind="student-t")

    def test_laplace_kind_runs(self, rng):
        value = batch_nll(uncertainty_records(random_set(rng, m=20, n=3)), kind="laplace")
        assert math.isfinite(value)
