import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regcal.analysis import _quantiles, ood_compare, rejection_curve
from regcal.core import CalibrationArtifact
from regcal.metrics import mse

from conftest import calibrated, make_record, make_set, make_uncertainties


def _record(rid, err, total):
    return (rid, 0.0, err, total)


def brute_force_auroc(neg, pos):
    """O(n^2) pairwise comparison; ties count half."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestRejectionCurve:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from([0.0, 1.0, 2.5])), min_size=1, max_size=300),
           zero=st.sampled_from([0.0, -0.0]), steps=st.integers(2, 100))
    def test_quantiles_are_numpys_bit_for_bit(self, values, zero, steps):
        # Every zero takes one sign: 0.0 and -0.0 compare equal, so np.sort and
        # np.quantile's partition may order them differently.
        values = np.where(np.array(values) == 0, zero, values)
        q = np.arange(1, steps + 1) / steps
        assert _quantiles(values, q).tobytes() == np.quantile(values, q).tobytes()

    def test_full_quantile_reproduces_plain_mse(self, rng):
        records = [
            _record(f"r{i}", float(rng.normal()), float(rng.uniform(0.01, 1.0)))
            for i in range(57)
        ]
        unc = make_uncertainties(records)
        curve = rejection_curve(unc, steps=10)
        assert curve.frac_rejected[-1] == 0.0
        assert curve.mse_kept[-1] == mse(unc)
        # rejected fraction shrinks as the threshold grows
        assert all(
            a >= b for a, b in zip(curve.frac_rejected, curve.frac_rejected[1:])
        )

    def test_informative_uncertainty_monotone(self, rng):
        # total_i == squared error_i exactly: tightening the threshold can
        # only remove the largest errors, so kept MSE is non-increasing as
        # the threshold decreases.
        records = []
        for i in range(101):
            err = float(rng.uniform(0.0, 2.0))
            records.append(_record(f"r{i}", err, err * err))
        curve = rejection_curve(make_uncertainties(records), steps=50)
        mse_by_threshold = curve.mse_kept  # thresholds ascending
        assert all(
            a <= b or math.isnan(a)
            for a, b in zip(mse_by_threshold, mse_by_threshold[1:])
        )

    def test_identical_uncertainties_degenerate(self):
        records = [_record(f"r{i}", 0.1 * i, 0.5) for i in range(8)]
        curve = rejection_curve(make_uncertainties(records), steps=5)
        assert np.all(curve.thresholds == 0.5)
        assert np.all(curve.frac_rejected == 0.0)
        assert np.all(curve.mse_kept == curve.mse_kept[0])

    def test_membership_invariant_under_sigma_scaling(self, rng):
        records = [
            make_record(f"r{i}", [rng.normal()], [[rng.normal()]], [float(rng.normal(-3, 0.5))])
            for i in range(100)
        ]
        pset = make_set(records)
        base = rejection_curve(calibrated(pset), steps=20)
        art = CalibrationArtifact(method="sigma", s=2.0)
        scaled = rejection_curve(calibrated(pset, art), steps=20)
        assert np.array_equal(base.frac_rejected, scaled.frac_rejected)
        assert np.allclose(base.mse_kept, scaled.mse_kept, rtol=0, atol=0)

    def test_absolute_thresholds_flag_undefined_entries(self):
        records = [_record("a", 0.5, 1.0)]
        curve = rejection_curve(make_uncertainties(records), thresholds=[0.5, 2.0])
        assert curve.sweep == "absolute"
        assert math.isnan(curve.mse_kept[0])  # nothing kept below 0.5
        assert curve.frac_rejected[0] == 1.0
        assert curve.mse_kept[1] == 0.25

    def test_rejected_fraction_is_rounded_once(self):
        # 1.0 - 7/10 would give 0.30000000000000004.
        records = [_record(f"r{i}", 0.1, float(i + 1)) for i in range(10)]
        curve = rejection_curve(make_uncertainties(records), thresholds=[7.0])
        assert curve.frac_rejected[0] == 0.3

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 2"):
            rejection_curve(make_uncertainties([_record("a", 0.1, 1.0)]), steps=1)


class TestOodCompare:
    def test_identical_sets_are_indistinguishable(self, rng):
        records = [
            _record(f"r{i}", 0.0, float(rng.uniform(0.1, 1.0))) for i in range(40)
        ]
        unc = make_uncertainties(records)
        cmp = ood_compare(unc, unc, k=10)
        assert np.array_equal(cmp.in_dist.counts, cmp.shifted.counts)
        assert cmp.auroc == 0.5
        assert cmp.mean_diff == 0.0

    def test_disjoint_supports_give_auroc_one(self, rng):
        in_dist = [_record(f"i{i}", 0.0, float(rng.uniform(0.1, 1.0))) for i in range(30)]
        shifted = [
            _record(f"s{i}", 0.0, total + 1.0) for i, (*_, total) in enumerate(in_dist)
        ]
        cmp = ood_compare(make_uncertainties(in_dist), make_uncertainties(shifted), k=10)
        assert cmp.auroc == 1.0
        assert cmp.mean_diff == pytest.approx(1.0, rel=1e-12)

    def test_auroc_matches_pairwise_oracle(self, rng):
        in_dist = [_record(f"i{i}", 0.0, float(rng.uniform(0.1, 1.0))) for i in range(80)]
        shifted = [_record(f"s{i}", 0.0, float(rng.uniform(0.1, 2.0))) for i in range(60)]
        cmp = ood_compare(make_uncertainties(in_dist), make_uncertainties(shifted), k=20)
        want = brute_force_auroc(
            make_uncertainties(in_dist).total, make_uncertainties(shifted).total
        )
        assert cmp.auroc == pytest.approx(want, abs=1e-12)

    def test_ties_handled_like_pairwise_oracle(self):
        in_dist = [_record(f"i{i}", 0.0, t) for i, t in enumerate([0.1, 0.2, 0.2, 0.3])]
        shifted = [_record(f"s{i}", 0.0, t) for i, t in enumerate([0.2, 0.3, 0.4])]
        cmp = ood_compare(make_uncertainties(in_dist), make_uncertainties(shifted), k=5)
        want = brute_force_auroc([0.1, 0.2, 0.2, 0.3], [0.2, 0.3, 0.4])
        assert cmp.auroc == pytest.approx(want, abs=1e-12)

    def test_counts_total_m_on_shared_edges(self, rng):
        in_dist = [_record(f"i{i}", 0.0, float(rng.uniform(0.1, 1.0))) for i in range(33)]
        shifted = [_record(f"s{i}", 0.0, float(rng.uniform(0.5, 3.0))) for i in range(21)]
        cmp = ood_compare(make_uncertainties(in_dist), make_uncertainties(shifted), k=12)
        assert cmp.in_dist.counts.sum() == 33
        assert cmp.shifted.counts.sum() == 21
        assert np.array_equal(cmp.in_dist.edges, cmp.shifted.edges)
        assert len(cmp.in_dist.edges) == 13

    def test_summary_stats(self, rng):
        totals = [0.1, 0.2, 0.3, 0.4]
        unc = make_uncertainties([_record(f"r{i}", 0.0, t) for i, t in enumerate(totals)])
        cmp = ood_compare(unc, unc, k=4)
        assert cmp.in_dist.mean == pytest.approx(0.25)

    def test_degenerate_identical_values(self):
        unc = make_uncertainties([_record(f"r{i}", 0.0, 0.7) for i in range(5)])
        cmp = ood_compare(unc, unc, k=4)
        assert cmp.in_dist.counts.sum() == 5

    def test_validation(self):
        unc = make_uncertainties([_record("a", 0.0, 1.0)])
        with pytest.raises(ValueError, match="bin count must be >= 1"):
            ood_compare(unc, unc, k=0)
