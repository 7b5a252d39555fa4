import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regcal.core import CalibrationArtifact
from regcal.intervals import coverage
from regcal.likelihood import probit

from conftest import calibrated, make_record, make_set, make_uncertainties


def bisection_erfinv(p, tol=1e-13):
    """Independent oracle: invert math.erf by bisection on [0, 10)."""
    lo, hi = 0.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def probit_oracle(p):
    return math.sqrt(2.0) * bisection_erfinv(p)


class TestProbit:
    def test_zero_is_exact(self):
        assert probit(0.0) == 0.0

    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.5, 0.674490),
            (0.9, 1.644854),
            (0.95, 1.959964),
            (0.99, 2.575829),
        ],
    )
    def test_reference_quantiles(self, p, expected):
        assert probit(p) == pytest.approx(expected, abs=1e-4)
        assert probit(p) == pytest.approx(probit_oracle(p), abs=1e-9)

    def test_accuracy_against_bisection_oracle(self):
        for p in np.linspace(0.0, 0.999, 201):
            assert abs(probit(float(p)) - probit_oracle(float(p))) <= 1e-9

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="unbounded quantile"):
            probit(1.0)
        with pytest.raises(ValueError, match="unbounded quantile"):
            probit(1.5)
        with pytest.raises(ValueError):
            probit(-0.1)

    def test_finite_and_monotone_up_to_one_ulp_below_one(self):
        ps = [0.9, 0.99, 0.9999, 0.99999999, 0.9999999999999999]
        values = [probit(p) for p in ps]
        assert all(math.isfinite(v) for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(p=st.floats(min_value=0.0, max_value=0.9999))
    def test_erf_round_trip(self, p):
        assert math.erf(probit(p) / math.sqrt(2.0)) == pytest.approx(p, abs=1e-8)


def _record(y, y_mean, total, rid="a"):
    return (rid, y, y_mean, total)


class TestCoverage:
    def test_huge_uncertainty_covers_everything(self):
        records = [_record(i, 0.0, 1e6, rid=f"r{i}") for i in range(5)]
        table = coverage(make_uncertainties(records), [0.5, 0.9, 0.99])
        assert table.observed == [1.0, 1.0, 1.0]

    def test_zero_uncertainty_covers_nothing(self):
        records = [_record(1.0, 0.0, 0.0)]
        table = coverage(make_uncertainties(records), [0.5, 0.99])
        assert table.observed == [0.0, 0.0]

    def test_boundary_is_inclusive(self):
        z = probit(0.5)
        records = [_record(z, 0.0, 1.0)]  # |y - mean| == z * sqrt(1)
        assert coverage(make_uncertainties(records), [0.5]).observed == [1.0]

    def test_monotone_in_level(self, rng):
        records = [
            _record(rng.normal(), rng.normal(), float(rng.uniform(0.01, 2.0)), rid=f"r{i}")
            for i in range(200)
        ]
        table = coverage(make_uncertainties(records), [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
        assert all(a <= b for a, b in zip(table.observed, table.observed[1:]))
        assert all(a < b for a, b in zip(table.z_values, table.z_values[1:]))

    def test_calibrated_gaussian_simulation(self):
        gen = np.random.default_rng(7)
        records = []
        for i in range(10_000):
            mu = gen.uniform(-1, 1)
            total = gen.uniform(0.01, 0.09)
            y = gen.normal(mu, math.sqrt(total))
            records.append(_record(y, mu, total, rid=f"r{i}"))
        table = coverage(make_uncertainties(records), [0.5, 0.9, 0.95, 0.99])
        for level, obs in zip(table.levels, table.observed):
            assert obs == pytest.approx(level, abs=0.02)

    def test_calibrated_laplace_simulation(self):
        # Residuals drawn from a Laplacian with scale b = sqrt(total).
        gen = np.random.default_rng(7)
        records = []
        for i in range(10_000):
            mu = gen.uniform(-1, 1)
            total = gen.uniform(0.01, 0.09)
            y = gen.laplace(mu, math.sqrt(total))
            records.append(_record(y, mu, total, rid=f"r{i}"))
        table = coverage(make_uncertainties(records), [0.5, 0.9, 0.95, 0.99], "laplace")
        for level, obs in zip(table.levels, table.observed):
            assert obs == pytest.approx(level, abs=0.02)

    def test_widening_by_sigma_scaling(self, rng):
        records = [
            make_record(f"r{i}", [rng.normal()], [[rng.normal()]], [math.log(0.05)])
            for i in range(100)
        ]
        pset = make_set(records)
        wide = CalibrationArtifact(method="sigma", s=2.5)
        base = coverage(calibrated(pset), [0.5, 0.9, 0.99]).observed
        after = coverage(calibrated(pset, wide), [0.5, 0.9, 0.99]).observed
        assert all(b >= a for a, b in zip(base, after))

    def test_joint_membership_for_d2(self):
        # One component inside, the other outside: not covered.
        rec = ("a", np.array([0.0, 5.0]), np.array([0.0, 0.0]), 1.0)
        table = coverage(make_uncertainties([rec]), [0.9])
        assert table.observed == [0.0]
        assert table.membership == "joint"

    def test_level_validation(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            coverage(make_uncertainties([_record(0.0, 0.0, 1.0)]), [1.0])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            coverage(make_uncertainties([_record(0.0, 0.0, 1.0)]), [0.0])
