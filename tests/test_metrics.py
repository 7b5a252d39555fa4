import math

import numpy as np
import pytest

from regcal.core import CalibrationArtifact, McPredictionSet, identity_artifact
from regcal.metrics import calibration_diagram, mse, uce, uncertainty_records

from conftest import calibrated, make_record, make_set, make_uncertainties, random_set


def brute_force_uce(pset, k, mode, calib=identity_artifact()):
    """Independent reimplementation: explicit double loop over bins/records.

    Shares only the documented bin rule (see :func:`brute_force_binned_uce`);
    every aggregate is accumulated scalar-by-scalar.
    """
    summary = calibrated(pset, calib)
    u, obs = [], []
    for i in range(pset.m):
        u.append(summary.total[i] if mode == "predictive" else summary.aleatoric[i])
        acc = 0.0
        for n in range(pset.n_samples):
            if mode == "predictive":
                diff = [(mv - yv) ** 2 for mv, yv in zip(pset.means[i, n], pset.y[i])]
                acc += sum(diff) / len(diff)
        if mode == "predictive":
            obs.append(acc / pset.n_samples)
        else:
            d = pset.d
            y_mean = [
                sum(pset.means[i, n, j] for n in range(pset.n_samples)) / pset.n_samples
                for j in range(d)
            ]
            obs.append(sum((ym - yv) ** 2 for ym, yv in zip(y_mean, pset.y[i])) / d)
    return brute_force_binned_uce(u, obs, k)


def brute_force_binned_uce(u, obs, k):
    """UCE in percent of uncertainties ``u`` against observed variances ``obs``.

    A record's bin comes from a scalar scan of the edges
    ``np.linspace(min, max, k + 1)``: the first bin whose upper edge lies
    above the value, so a tie at an interior edge goes to the higher bin, and
    the last bin includes its upper edge. An all-equal range is one bin.
    """
    lo, hi = min(u), max(u)
    m = len(u)
    edges = np.linspace(lo, hi, k + 1)

    def bin_of(value):
        if hi == lo:
            return 0
        for b in range(k - 1):
            if value < edges[b + 1]:
                return b
        return k - 1

    total = 0.0
    for b in range(k):
        count = 0
        sum_obs = 0.0
        sum_u = 0.0
        for i in range(m):
            if bin_of(u[i]) == b:
                count += 1
                sum_obs += obs[i]
                sum_u += u[i]
        if count:
            total += (count / m) * abs(sum_obs / count - sum_u / count)
    return 100.0 * total


def on_edge_uncertainties(totals, errs):
    """Uncertainties with these exact totals (all aleatoric) and errors."""
    return make_uncertainties(
        [(f"r{i}", 0.0, e, t) for i, (t, e) in enumerate(zip(totals, errs))]
    )


class TestPredictiveVariance:
    def test_no_spread(self):
        rec = make_record("a", [0.5], [[0.5], [0.5], [0.5]], [math.log(0.04)] * 3)
        u = uncertainty_records(make_set([rec]))
        assert u.epistemic[0] == 0.0
        assert u.aleatoric[0] == pytest.approx(0.04, rel=1e-12)
        assert u.total[0] == u.epistemic[0] + u.aleatoric[0]

    def test_population_variance_of_means(self):
        # exp(-800) underflows to exactly zero aleatoric variance.
        rec = make_record("a", [1.0], [[0.0], [2.0]], [-800.0, -800.0])
        u = uncertainty_records(make_set([rec]))
        assert u.epistemic[0] == 1.0
        assert u.aleatoric[0] == 0.0
        assert u.total[0] == 1.0

    def test_hand_evaluated_decomposition(self):
        rec = make_record(
            "a", [2.0], [[1.0], [2.0], [3.0]],
            [math.log(0.1), math.log(0.2), math.log(0.3)],
        )
        u = uncertainty_records(make_set([rec]))
        assert u.epistemic[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert u.aleatoric[0] == pytest.approx(0.2, rel=1e-12)
        assert u.total[0] == pytest.approx(0.8666666666666667, rel=1e-12)
        assert np.array_equal(u.y_mean[0], np.array([2.0]))

    def test_multi_output_averages_across_d(self):
        rec = make_record("a", [0.0, 0.0], [[1.0, 3.0], [-1.0, -3.0]], [-800.0, -800.0])
        u = uncertainty_records(make_set([rec]))
        # per-output population variances 1 and 9, averaged
        assert u.epistemic[0] == pytest.approx(5.0, rel=1e-12)


class TestUce:
    def test_perfectly_calibrated_degenerate_bin_is_zero(self):
        # log_var 0 makes aleatoric exactly 1.0; squared error exactly 1.0.
        records = [make_record(f"r{i}", [0.0], [[1.0]], [0.0]) for i in range(4)]
        report = uce(uncertainty_records(make_set(records)), k=10)
        assert report.uce == 0.0
        assert len(report.bins) == 1
        assert report.bins[0].count == 4

    def test_single_bin_hand_case(self):
        # var(B1)=0.3, uncert(B1)=0.1 -> UCE = 0.2 * 100 = 20.
        err = math.sqrt(0.3)
        records = [make_record(f"r{i}", [0.0], [[err]], [math.log(0.1)]) for i in range(4)]
        report = uce(uncertainty_records(make_set(records)), k=1)
        assert report.uce == pytest.approx(20.0, abs=1e-9)

    def test_matches_brute_force(self):
        for trial in range(6):
            gen = np.random.default_rng(trial)
            pset = random_set(gen, m=int(gen.integers(5, 200)), n=4, d=int(gen.integers(1, 3)))
            for k in (1, 5, 10):
                for mode in ("predictive", "aleatoric_only"):
                    got = uce(uncertainty_records(pset), k=k, mode=mode).uce
                    want = brute_force_uce(pset, k, mode)
                    assert got == pytest.approx(want, abs=1e-12)

    def test_records_on_interior_edges_go_to_the_bin_above(self):
        totals = [0.0, 0.7, 1.4, 2.1, 2.8, 3.5]
        errs = [0.1, 0.5, 0.2, 1.1, 0.9, 1.6]
        unc = on_edge_uncertainties(totals, errs)
        report = uce(unc, k=5)
        assert [b.count for b in report.bins] == [1, 1, 1, 1, 2]
        for b in report.bins:
            inside = [u for u in totals if b.lower <= u < b.upper or (b.k == 4 and u == b.upper)]
            assert b.count == len(inside)
        want = brute_force_binned_uce(totals, list(unc.pass_err_sq), 5)
        assert report.uce == pytest.approx(want, abs=1e-12)

    def test_bins_hold_exactly_their_edge_range(self):
        # Half of each set's records sit exactly on a bin edge.
        for trial in range(40):
            gen = np.random.default_rng(trial)
            k = int(gen.integers(2, 12))
            lo, hi = sorted(gen.uniform(0.0, 2.0, size=2))
            edges = np.linspace(lo, hi, k + 1)
            totals = np.concatenate([gen.choice(edges, size=20), gen.uniform(lo, hi, size=20)])
            totals[:2] = lo, hi
            errs = gen.uniform(0.0, 1.5, size=40)
            unc = on_edge_uncertainties(totals, errs)
            report = uce(unc, k=k)
            assert [b.lower for b in report.bins] + [hi] == list(edges)
            for b in report.bins:
                inside = (totals >= b.lower) & ((totals < b.upper) | (b.k == k - 1))
                assert b.count == int(inside.sum())
            want = brute_force_binned_uce(list(totals), list(unc.pass_err_sq), k)
            assert report.uce == pytest.approx(want, abs=1e-12)

    def test_report_dict_key_order(self, rng):
        doc = uce(uncertainty_records(random_set(rng, m=20, n=3)), k=4).to_dict()
        assert list(doc) == ["uce", "num_bins", "mode", "m", "bins"]
        assert [list(b) for b in doc["bins"]] == [
            ["k", "lower", "upper", "count", "var_obs", "uncert_mean"]
        ] * 4

    def test_report_self_consistency_and_counts(self, rng):
        pset = random_set(rng, m=120, n=4)
        report = uce(uncertainty_records(pset), k=7)
        assert sum(b.count for b in report.bins) == report.m == 120
        recomputed = 100.0 * sum(
            (b.count / report.m) * abs(b.var_obs - b.uncert_mean)
            for b in report.bins if b.count
        )
        assert report.uce == pytest.approx(recomputed, abs=1e-12)

    def test_permutation_invariance(self, rng):
        pset = random_set(rng, m=60, n=4)
        perm = rng.permutation(60)
        shuffled = McPredictionSet(
            [pset.ids[i] for i in perm], pset.y[perm], pset.means[perm], pset.log_vars[perm]
        )
        assert uce(uncertainty_records(shuffled), k=10).uce == pytest.approx(
            uce(uncertainty_records(pset), k=10).uce, abs=1e-12
        )

    def test_k1_exact_weighted_mean_gap(self, rng):
        pset = random_set(rng, m=80, n=5)
        u = uncertainty_records(pset).total
        obs = np.array([
            np.mean([np.mean((pset.means[i, n] - pset.y[i]) ** 2) for n in range(pset.n_samples)])
            for i in range(pset.m)
        ])
        assert uce(uncertainty_records(pset), k=1).uce == pytest.approx(100 * abs(obs.mean() - u.mean()), abs=1e-12)

    def test_scaling_artifact_keeps_bin_membership(self, rng):
        pset = random_set(rng, m=100, n=4)
        art = CalibrationArtifact(method="sigma", s=1.8)
        base = uce(uncertainty_records(pset), k=10)
        scaled = uce(calibrated(pset, art), k=10)
        assert [b.count for b in base.bins] == [b.count for b in scaled.bins]

    def test_mode_and_k_validation(self, rng):
        unc = uncertainty_records(random_set(rng, m=5, n=2))
        with pytest.raises(ValueError, match="mode"):
            uce(unc, mode="epistemic_only")
        with pytest.raises(ValueError, match=">= 1"):
            uce(unc, k=0)


class TestCalibrationDiagram:
    def test_underestimated_uncertainty_sits_above_diagonal(self, rng):
        # total = true squared error / 4 for every record.
        records = []
        for i in range(200):
            y = float(rng.normal())
            err = float(rng.uniform(0.2, 1.0))
            records.append(make_record(f"r{i}", [y], [[y + err]], [math.log(err * err / 4)]))
        points = calibration_diagram(uce(uncertainty_records(make_set(records)), k=10))
        assert points, "expected nonempty bins"
        for b in points:
            assert b.var_obs > b.uncert_mean

    def test_empty_bins_omitted(self):
        # Two tight clusters of uncertainty leave the middle bins empty.
        records = [
            make_record("a", [0.0], [[0.1]], [math.log(0.01)]),
            make_record("b", [0.0], [[0.1]], [math.log(0.011)]),
            make_record("c", [0.0], [[0.1]], [math.log(1.0)]),
        ]
        points = calibration_diagram(uce(uncertainty_records(make_set(records)), k=10))
        assert len(points) == 2
        assert all(b.count > 0 for b in points)

    def test_simulated_calibrated_dump_hugs_diagonal(self):
        # y drawn exactly from N(mc_mean, total). The per-MC-sample second
        # moment double-counts epistemic spread (its expectation is
        # total + epistemic*(1+1/N)), so a clean diagonal check needs the
        # epistemic part negligible; miscalibration then shows up only as
        # sampling noise.
        gen = np.random.default_rng(99)
        records = []
        for i in range(5000):
            mu = float(gen.uniform(-1, 1))
            delta = 1e-4
            log_var = float(np.log(gen.uniform(0.01, 0.05)))
            total = delta * delta + math.exp(log_var)
            y = gen.normal(mu, math.sqrt(total))
            records.append(
                make_record(f"r{i}", [y], [[mu - delta], [mu + delta]], [log_var, log_var])
            )
        pset = make_set(records)
        report = uce(uncertainty_records(pset), k=10, mode="predictive")
        assert report.uce < 0.5
        for b in calibration_diagram(uce(uncertainty_records(pset), k=10)):
            if b.count >= 100:
                assert b.var_obs == pytest.approx(b.uncert_mean, rel=0.25)


class TestMse:
    def test_zero_when_means_match(self, rng):
        records = [make_record(f"r{i}", [0.3], [[0.3]], [0.0]) for i in range(3)]
        assert mse(uncertainty_records(make_set(records))) == 0.0

    def test_single_record_value(self):
        records = [make_record("a", [0.0], [[0.1]], [0.0])]
        assert mse(uncertainty_records(make_set(records))) == pytest.approx(0.01, rel=1e-12)

    def test_matches_brute_force(self, rng):
        pset = random_set(rng, m=50, n=4, d=3)
        records = uncertainty_records(pset)
        want = 0.0
        for i in range(pset.m):
            y_mean = np.mean([pset.means[i, n] for n in range(pset.n_samples)], axis=0)
            want += float(np.mean((pset.y[i] - y_mean) ** 2))
        assert mse(records) == pytest.approx(want / 50, abs=1e-15)
