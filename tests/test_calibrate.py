import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regcal.calibrate import (
    AuxConfig,
    CalibrationError,
    apply_calibration,
    aux_fit,
    aux_forward,
    fit_sigma,
    sigma_closed_form,
    sigma_fit_gd,
)
from regcal.core import (
    CALIBRATION_TARGETS,
    CalibrationArtifact,
    McPredictionSet,
    identity_artifact,
)
from regcal.analysis import rejection_curve
from regcal.intervals import coverage
from regcal.likelihood import FAMILIES, GAUSSIAN, batch_nll, family
from regcal.metrics import mse, uce, uncertainty_records

from conftest import calibrated, make_record, make_set, random_set


class TestClosedForms:
    def test_gaussian_calibrated_input_gives_exactly_one(self):
        e = np.array([0.3, 1.7, 0.02])
        assert sigma_closed_form(e, e)[0] == 1.0

    def test_gaussian_uniform_scale(self):
        assert sigma_closed_form([4.0, 4.0], [1.0, 1.0])[0] == 2.0

    def test_gaussian_hand_evaluated(self):
        # mean(1/1, 1/4) = 0.625, sqrt = 0.7905694150420949
        s = sigma_closed_form([1.0, 1.0], [1.0, 4.0])[0]
        assert s == pytest.approx(0.7905694150420949, abs=1e-15)

    def test_laplace_unit_ratios(self):
        assert sigma_closed_form([1.0, 1.0], [1.0, 1.0], "laplace")[0] == 1.0

    def test_laplace_mean_of_ratios(self):
        assert sigma_closed_form([1.0, 3.0], [1.0, 1.0], "laplace")[0] == 2.0

    def test_laplace_hand_evaluated(self):
        # (0.2/1 + 0.4/2 + 0.9/3)/3 = 0.7/3
        s = sigma_closed_form([0.2, 0.4, 0.9], [1.0, 2.0, 3.0], "laplace")[0]
        assert s == pytest.approx(0.2333333333333333, abs=1e-15)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_fit_meta_is_the_objective_at_s(self, kind):
        errors, scales = [0.2, 0.4, 0.9], [1.0, 2.0, 3.0]
        s, meta = sigma_closed_form(errors, scales, kind)
        ratio_sum = float(np.sum(np.divide(errors, scales)))
        assert meta == {"iterations": 0,
                        "final_objective": FAMILIES[kind].objective(s, 3, ratio_sum)}

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_error_on_nonpositive_scales(self, kind):
        with pytest.raises(ValueError, match="> 0"):
            sigma_closed_form([1.0], [0.0], kind)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_error_on_empty_input(self, kind):
        with pytest.raises(ValueError, match="empty"):
            sigma_closed_form([], [], kind)

    def test_error_on_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sigma_closed_form([1.0, 2.0], [1.0])

    # One ratio overflows (a subnormal scale), or two finite ratios overflow
    # their sum; no finite s fits either.
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("fn", [sigma_closed_form, sigma_fit_gd])
    @pytest.mark.parametrize("errors, scales", [([0.01, 0.5], [4e-322, 1.0]),
                                                ([1e8, 1e8], [1e-300, 1e-300])])
    def test_error_on_non_finite_ratio_sum(self, fn, kind, errors, scales):
        with pytest.raises(CalibrationError, match="finite sum"):
            fn(errors, scales, kind)

    # Every error 0 (or ratios whose mean underflows to 0): no s > 0 fits.
    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("fn", [sigma_closed_form, sigma_fit_gd])
    @pytest.mark.parametrize("errors", [[0.0, 0.0], [5e-324, 0.0]])
    def test_error_on_zero_ratio_mean(self, fn, kind, errors):
        with pytest.raises(CalibrationError, match="mean 0"):
            fn(errors, [1.0, 1.0], kind)

    @given(c=st.floats(min_value=0.1, max_value=10))
    def test_gaussian_scale_equivariance(self, c):
        e = np.array([0.5, 2.0, 0.9])
        v = np.array([1.0, 0.5, 2.0])
        scaled, _ = sigma_closed_form(c * c * e, v)
        assert scaled == pytest.approx(c * sigma_closed_form(e, v)[0], rel=1e-12)


class TestSigmaFitGd:
    def test_calibrated_input_converges_to_one(self):
        e = np.array([0.4, 0.1, 2.0, 0.8])
        s, meta = sigma_fit_gd(e, e, kind="gaussian")
        assert s == pytest.approx(1.0, abs=1e-6)
        assert meta["converged"]

    def test_matches_gaussian_closed_form(self):
        s, _ = sigma_fit_gd([1.0, 1.0], [1.0, 4.0], kind="gaussian")
        assert s == pytest.approx(0.7905694150420949, abs=1e-4)

    def test_matches_laplace_closed_form(self):
        s, _ = sigma_fit_gd([0.2, 0.4, 0.9], [1.0, 2.0, 3.0], kind="laplace")
        assert s == pytest.approx(0.2333333333333333, abs=1e-4)

    def test_objective_never_above_init(self, rng):
        for trial in range(5):
            gen = np.random.default_rng(trial)
            e = gen.uniform(0.01, 2.0, size=200)
            v = gen.uniform(0.05, 1.0, size=200)
            s, meta = sigma_fit_gd(e, v, kind="gaussian")
            at_one = GAUSSIAN.objective(1.0, 200, float(np.sum(e / v)))
            assert meta["final_objective"] <= at_one

    def test_closed_form_is_stationary_point(self, rng):
        # Numeric derivative of the objective vanishes at the closed form.
        e = rng.uniform(0.01, 1.0, size=100)
        v = rng.uniform(0.1, 2.0, size=100)
        m = len(e)
        ratio = float(np.sum(e / v))
        s_star = sigma_closed_form(e, v)[0]
        eps = 1e-6
        up = GAUSSIAN.objective(s_star + eps, m, ratio)
        down = GAUSSIAN.objective(s_star - eps, m, ratio)
        here = GAUSSIAN.objective(s_star, m, ratio)
        assert (up - down) / (2 * eps) == pytest.approx(0.0, abs=1e-4)
        assert here <= min(up, down)

    def test_tiny_ratios_converge_to_closed_form(self):
        # A stop on |delta s| instead of |delta rho| ends at s = 3.2e-8.
        e, v = [1e-320] * 5, [1.0] * 5
        s, meta = sigma_fit_gd(e, v)
        assert meta["converged"]
        assert s == pytest.approx(sigma_closed_form(e, v)[0], rel=1e-6, abs=0)

    # One Laplace ratio of 1.76e308, next to the largest double.
    NEAR_MAX = ([1.3e154], [math.exp(-354.9)])

    def test_near_max_scale_converges_to_closed_form(self):
        s, meta = sigma_fit_gd(*self.NEAR_MAX, kind="laplace")
        assert meta["converged"]
        assert s == pytest.approx(sigma_closed_form(*self.NEAR_MAX, "laplace")[0], rel=1e-6)

    def test_overflowing_scale_refused(self, monkeypatch):
        # A loose tolerance stops the fit of the largest double's ratio just
        # above log(max double), where exp(rho) overflows.
        monkeypatch.setattr("regcal.calibrate.SIGMA_GD_TOLERANCE", 1e-3)
        with pytest.raises(CalibrationError, match="non-finite scale"):
            sigma_fit_gd([1.7976931348623157e308], [1.0], kind="laplace")

    def test_too_few_iterations_raise(self):
        with pytest.raises(CalibrationError, match="did not converge in 2 iterations"):
            sigma_fit_gd([1.0, 2.0], [1.0, 1.0], max_iters=2)

    # The default cap reaches the fit from s = 1 at both ends of the float range.
    @pytest.mark.parametrize("kind", ["gaussian", "laplace"])
    @pytest.mark.parametrize("ratio", [5e-324, 1.7976931348623157e308], ids=["min", "max"])
    def test_float_range_ends_converge_at_default(self, kind, ratio):
        s, meta = sigma_fit_gd([ratio], [1.0], kind=kind)
        assert meta["converged"]
        assert s == pytest.approx(sigma_closed_form([ratio], [1.0], kind)[0], rel=1e-12, abs=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown likelihood"):
            sigma_fit_gd([1.0], [1.0], kind="cauchy")

    def test_invalid_options_rejected(self):
        for max_iters in (0, -5):
            with pytest.raises(ValueError, match="^max_iters must be positive$"):
                sigma_fit_gd([1.0, 2.0], [1.0, 1.0], max_iters=max_iters)


class TestFitSigmaOnSets:
    def test_gd_route_agrees_with_closed_form_route(self, rng):
        unc = uncertainty_records(random_set(rng, m=80, n=5))
        closed = fit_sigma(unc)
        gd = fit_sigma(unc, use_gd=True, max_iters=5000)
        assert gd.s == pytest.approx(closed.s, abs=1e-4)
        assert closed.fit_meta["fit"] == "closed_form"
        assert gd.fit_meta["fit"] == "gd"

    def test_set_fit_is_the_raw_array_fit(self, rng):
        unc = uncertainty_records(random_set(rng, m=40, n=5, d=2))
        for lik, target, gd in SIGMA_FITS:
            art = fit_sigma(unc, lik, target, use_gd=gd)
            errors, scales = unc.errors_and_scales(lik, target)
            s, meta = (sigma_fit_gd if gd else sigma_closed_form)(errors, scales, lik)
            assert (art.method, art.likelihood, art.target) == ("sigma", lik, target)
            assert art.s == s
            assert art.fit_meta == {"fit": "gd" if gd else "closed_form", **meta, "m": 40}

    def test_laplace_target_aleatoric(self, rng):
        unc = uncertainty_records(random_set(rng, m=40, n=5))
        art = fit_sigma(unc, likelihood="laplace", target="aleatoric_only")
        assert art.s > 0
        assert art.likelihood == "laplace"
        assert art.target == "aleatoric_only"


@st.composite
def small_sets(draw):
    """A random set of m <= 8 records, N <= 5 passes and d <= 3 outputs whose
    variances sit about e^-5 to e^5 off the squared errors, at scales e^-20 to e^20."""
    m, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    log_scale, offset = draw(st.floats(-20, 20)), draw(st.floats(-5, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = gen.normal(size=(m, d))
    means = y[:, None, :] + gen.normal(0.0, math.exp(log_scale / 2), size=(m, n, d))
    log_vars = gen.normal(log_scale + offset, 1.0, size=(m, n))
    return McPredictionSet([f"r{i}" for i in range(m)], y, means, log_vars)


# (likelihood, target, use_gd) of every sigma fit
SIGMA_FITS = [(lik, target, gd) for lik in FAMILIES
              for target in CALIBRATION_TARGETS for gd in (False, True)]


class TestSigmaProperties:
    """Invariants of sigma scaling, closed form and GD, on small random sets.

    The tolerances are about four times the worst of 20,000 generated sets
    (idempotence 8.9e-16, equivariance 1.1e-15) and of 4,500 for record
    order (s 8.9e-16); UCE under record order and under a change of units,
    and s under pass duplication, are bounded by their conditioning (see
    there)."""

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets())
    def test_refit_on_own_recalibration_gives_one(self, pset):
        unc = uncertainty_records(pset)
        for lik, target, gd in SIGMA_FITS:
            art = fit_sigma(unc, lik, target, use_gd=gd)
            refit = fit_sigma(apply_calibration(unc, art), lik, target, use_gd=gd)
            assert abs(refit.s - 1.0) <= 4e-15

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets())
    def test_s_is_unit_free(self, pset):
        # y and means times 4 (exact) and variances times 16: the same set in other units
        scaled = McPredictionSet(pset.ids, 4.0 * pset.y, 4.0 * pset.means,
                                 pset.log_vars + 2 * math.log(4.0))
        unc, unc_scaled = uncertainty_records(pset), uncertainty_records(scaled)
        for lik, target, gd in SIGMA_FITS:
            s = fit_sigma(unc, lik, target, use_gd=gd).s
            assert fit_sigma(unc_scaled, lik, target, use_gd=gd).s == pytest.approx(
                s, rel=4e-15, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets(), data=st.data())
    def test_record_order_leaves_s_and_uce(self, pset, data):
        order = data.draw(st.permutations(range(pset.m)))
        shuffled = McPredictionSet([pset.ids[i] for i in order], pset.y[order],
                                   pset.means[order], pset.log_vars[order])
        unc, unc_shuffled = uncertainty_records(pset), uncertainty_records(shuffled)
        for lik, target, gd in SIGMA_FITS:
            s = fit_sigma(unc, lik, target, use_gd=gd).s
            assert fit_sigma(unc_shuffled, lik, target, use_gd=gd).s == pytest.approx(
                s, rel=4e-15, abs=0)
        for mode in CALIBRATION_TARGETS:
            # Summing a bin in another order moves its two means by a few ulps,
            # which |var_obs - uncert_mean| can magnify: relative to UCE the
            # move reached 5.0e-15, relative to the bins' scale 2.2 eps.
            report = uce(unc, mode=mode)
            scale = 100 * sum(b.count / report.m * (b.var_obs + b.uncert_mean)
                              for b in report.bins)
            assert abs(uce(unc_shuffled, mode=mode).uce - report.uce) <= (
                8 * np.finfo(float).eps * scale)

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets(), k=st.integers(-8, 8))
    def test_change_of_units_scales_uce_by_c_squared(self, pset, k):
        # y and means times c = 2^k (exact) and variances times c^2. The
        # epistemic part scales exactly; exp(log_var + 2 ln c) is c^2 exp(log_var)
        # only to about eps |log_var| relative, which |var_obs - uncert_mean|
        # can magnify: relative to c^2 UCE the gap reached 6.9e-13, relative
        # to the bins' scale times (1 + max |log_var|) 2.3 eps.
        c = 2.0**k
        scaled = McPredictionSet(pset.ids, c * pset.y, c * pset.means,
                                 pset.log_vars + 2 * math.log(c))
        unc, unc_scaled = uncertainty_records(pset), uncertainty_records(scaled)
        cond = 1 + np.max(np.abs(scaled.log_vars))
        for mode in CALIBRATION_TARGETS:
            report = uce(unc, mode=mode)
            scale = 100 * c * c * sum(b.count / report.m * (b.var_obs + b.uncert_mean)
                                      for b in report.bins)
            assert abs(uce(unc_scaled, mode=mode).uce - c * c * report.uce) <= (
                9 * np.finfo(float).eps * scale * cond)

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets())
    def test_pass_duplication_leaves_s(self, pset):
        doubled = McPredictionSet(pset.ids, pset.y, np.concatenate([pset.means] * 2, axis=1),
                                  np.concatenate([pset.log_vars] * 2, axis=1))
        unc, unc_doubled = uncertainty_records(pset), uncertainty_records(doubled)
        # s is fitted to y - y_mean. Summing 2N passes moves y_mean by rounding,
        # which that difference magnifies by cond = |y_mean| / |y - y_mean|: up
        # to 1e5 at the smallest scales, where s moved by up to 1.9e-11 over
        # 12,500 sets. Over 5,000 of them it never moved by more than
        # 4e-14 + 0.94 eps cond.
        cond = np.max(np.max(np.abs(unc.y_mean), axis=1)
                      / np.mean(np.abs(unc.y - unc.y_mean), axis=1))
        rel = 4e-14 + 4 * np.finfo(float).eps * cond
        for lik, target, gd in SIGMA_FITS:
            s = fit_sigma(unc, lik, target, use_gd=gd).s
            assert fit_sigma(unc_doubled, lik, target, use_gd=gd).s == pytest.approx(
                s, rel=rel, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets())
    def test_mse_bit_identical_under_every_artifact(self, pset):
        unc = uncertainty_records(pset)
        arts = [fit_sigma(unc, lik, target, use_gd=gd) for lik, target, gd in SIGMA_FITS]
        arts += [aux_fit(unc, AuxConfig(epochs=5), target) for target in CALIBRATION_TARGETS]
        for art in [identity_artifact(), *arts]:
            assert mse(apply_calibration(unc, art)) == mse(unc)


def _mean_abs_nll_term(unc, kind):
    return np.mean(np.abs(family(kind).nll_terms(*unc.errors_and_scales(kind, "predictive"))))


class TestEvaluationProperties:
    """NLL, coverage and the rejection curve under a change of units and of
    record order, for both likelihood families. Each bound is about four times
    the worst of 20,000 generated sets; coverage never moved."""

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets(), k=st.integers(-8, 8))
    def test_change_of_units_shifts_nll_by_log_c(self, pset, k):
        # y and means times c = 2^k (exact) and variances times c^2
        c = 2.0**k
        scaled = McPredictionSet(pset.ids, c * pset.y, c * pset.means,
                                 pset.log_vars + 2 * math.log(c))
        unc, unc_scaled = uncertainty_records(pset), uncertainty_records(scaled)
        # exp(log_var + 2 ln c) is c^2 exp(log_var) only to about eps |log_var|
        # relative, so the shift misses ln c by up to that times the terms'
        # size: at worst 2.2 eps (mean |term| + |ln c|) (1 + max |log_var|).
        cond = 1 + np.max(np.abs(scaled.log_vars))
        for kind in FAMILIES:
            size = _mean_abs_nll_term(unc, kind) + abs(math.log(c))
            shift = batch_nll(unc_scaled, kind) - batch_nll(unc, kind)
            assert abs(shift - math.log(c)) <= 9 * np.finfo(float).eps * size * cond
            assert coverage(unc_scaled, kind=kind).observed == coverage(unc, kind=kind).observed

    @settings(max_examples=100, deadline=None)
    @given(pset=small_sets(), data=st.data())
    def test_record_order_leaves_nll_coverage_and_rejection(self, pset, data):
        order = data.draw(st.permutations(range(pset.m)))
        shuffled = McPredictionSet([pset.ids[i] for i in order], pset.y[order],
                                   pset.means[order], pset.log_vars[order])
        unc, unc_shuffled = uncertainty_records(pset), uncertainty_records(shuffled)
        for kind in FAMILIES:
            # Summing the terms in another order: at worst 2.5 eps mean |term|.
            move = abs(batch_nll(unc_shuffled, kind) - batch_nll(unc, kind))
            assert move <= 10 * np.finfo(float).eps * _mean_abs_nll_term(unc, kind)
            assert coverage(unc_shuffled, kind=kind).observed == coverage(unc, kind=kind).observed
        # The same records are kept at every threshold; their mean moved by at worst 2.2 eps.
        np.testing.assert_allclose(rejection_curve(unc_shuffled).mse_kept,
                                   rejection_curve(unc).mse_kept, rtol=9 * np.finfo(float).eps, atol=0)


def _constant_uncertainty_set(rng, m, err_scale, total_factor):
    """Records whose per-record squared error of the MC mean is known and
    whose total uncertainty is err_sq * total_factor (built from N=1 dumps,
    so total == exp(log_var))."""
    records = []
    for i in range(m):
        y = rng.normal(0.0, 1.0)
        err = err_scale * rng.uniform(0.5, 1.5)
        target = err * err * total_factor
        records.append(make_record(f"c{i}", [y], [[y + err]], [math.log(target)]))
    return make_set(records)


class TestAuxFit:
    def test_already_calibrated_set_stays_near_identity(self, rng):
        pset = _constant_uncertainty_set(rng, 60, 0.1, 1.0)
        art = aux_fit(uncertainty_records(pset), AuxConfig(seed=0))
        nll_aux = batch_nll(calibrated(pset, art))
        nll_id = batch_nll(calibrated(pset, identity_artifact()))
        assert nll_aux == pytest.approx(nll_id, abs=1e-3)

    def test_h2_shapes(self, rng):
        pset = random_set(rng, m=30, n=3)
        art = aux_fit(uncertainty_records(pset), AuxConfig(hidden_width=2, seed=1))
        assert art.hidden_width == 2
        shapes = {name: layer.shape for name, layer in art.aux.items()}
        assert shapes == {"w1": (2,), "b1": (2,), "w2": (2,), "b2": (1,)}

    def test_artifact_applies_to_its_own_set(self):
        # Five steps from an error 2500x its variance overshoot to log-variances
        # near 1000, where the NLL is finite and lower but exp overflows.
        pset = make_set([make_record("r0", [1.05311575], [[2.82960706]], [-7.55329184])])
        unc = uncertainty_records(pset)
        for target in CALIBRATION_TARGETS:
            art = aux_fit(unc, AuxConfig(epochs=5), target)
            assert mse(apply_calibration(unc, art)) == mse(unc)

    def test_underestimated_set_improves(self, rng):
        # Uncertainties uniformly 4x too small.
        pset = _constant_uncertainty_set(rng, 80, 0.1, 0.25)
        art = aux_fit(uncertainty_records(pset), AuxConfig(seed=0))
        assert batch_nll(calibrated(pset, art)) < batch_nll(calibrated(pset))
        assert art.fit_meta["final_objective"] <= art.fit_meta["initial_objective"]

    def test_aux_reduces_uce_on_its_calibration_set(self, rng):
        pset = _constant_uncertainty_set(rng, 80, 0.1, 0.25)
        art = aux_fit(uncertainty_records(pset), AuxConfig(seed=0))
        before = uce(calibrated(pset), k=10, mode="predictive").uce
        after = uce(calibrated(pset, art), k=10, mode="predictive").uce
        assert after < before

    def test_non_finite_loss_reports_epoch(self, rng):
        # An absurd step size blows the parameters up within a few epochs.
        pset = _constant_uncertainty_set(rng, 20, 0.1, 0.25)
        with np.errstate(over="ignore"):
            with pytest.raises(CalibrationError, match="epoch"):
                aux_fit(uncertainty_records(pset), AuxConfig(seed=0, step_size=1e12, epochs=50))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AuxConfig(hidden_width=0)


def _reference_aux_fit(unc, cfg, target):
    """The aux training loop written out with a second network evaluation
    after every update; returns (best layers, initial loss, best loss, best
    epoch), raising CalibrationError like aux_fit on a non-finite loss."""
    err_sq = unc.err_sq
    x = np.log(unc.total if target == "predictive" else unc.aleatoric)
    m = len(x)
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_width
    p = {
        "w1": rng.standard_normal(h),
        "b1": np.zeros(h),
        "w2": rng.standard_normal(h) * 0.01,
        "b2": np.zeros(1),
    }

    def net():
        z = np.outer(x, p["w1"]) + p["b1"]
        a = np.maximum(z, 0.0)
        return z, a, x + a @ p["w2"] + p["b2"][0]

    def loss_of(g):
        return float(np.mean(np.exp(-g) * err_sq + g))

    best = {k: v.copy() for k, v in p.items()}
    best_loss = init_loss = loss_of(net()[2])
    best_epoch = 0
    for epoch in range(1, cfg.epochs + 1):
        z, a, g = net()
        if not math.isfinite(loss_of(g)):
            raise CalibrationError(f"non-finite aux training loss at epoch {epoch}")
        dg = (1.0 - np.exp(-g) * err_sq) / m
        dz = np.outer(dg, p["w2"]) * (z > 0.0)
        grads = {"w1": x @ dz, "b1": dz.sum(axis=0), "w2": a.T @ dg, "b2": np.array([dg.sum()])}
        for name in ("w1", "b1", "w2", "b2"):
            p[name] -= cfg.step_size * grads[name]
        loss = loss_of(net()[2])
        if math.isfinite(loss) and loss < best_loss:
            best, best_loss, best_epoch = {k: v.copy() for k, v in p.items()}, loss, epoch
    return best, init_loss, best_loss, best_epoch


class TestAuxFitMatchesReferenceLoop:
    # (hidden_width, epochs, step_size, target, best epoch is the last one)
    CASES = [
        (16, 500, 3e-4, "predictive", True),
        (4, 1, 1e-3, "aleatoric_only", True),
        (3, 60, 0.3, "predictive", False),
        (8, 60, 0.1, "aleatoric_only", False),
        (5, 40, 0.01, "aleatoric_only", True),
    ]

    @pytest.mark.parametrize("h, epochs, step_size, target, best_is_last", CASES)
    def test_bit_identical(self, rng, h, epochs, step_size, target, best_is_last):
        unc = uncertainty_records(random_set(rng, m=40, n=4))
        cfg = AuxConfig(hidden_width=h, epochs=epochs, step_size=step_size, seed=2)
        art = aux_fit(unc, cfg, target=target)
        best, init_loss, best_loss, best_epoch = _reference_aux_fit(unc, cfg, target)
        assert (best_epoch == epochs) == best_is_last
        assert set(art.aux) == set(best)
        for name, layer in best.items():
            assert np.array_equal(art.aux[name], layer)
        assert art.fit_meta["initial_objective"] == init_loss
        assert art.fit_meta["final_objective"] == best_loss

    def test_diverging_fit_raises_at_the_same_epoch(self, rng):
        unc = uncertainty_records(_constant_uncertainty_set(rng, 20, 0.1, 0.25))
        cfg = AuxConfig(seed=0, step_size=1e12, epochs=50)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(CalibrationError) as expected:
                _reference_aux_fit(unc, cfg, "predictive")
            with pytest.raises(CalibrationError) as got:
                aux_fit(unc, cfg)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("epochs", [1, 7])
    def test_one_network_evaluation_per_epoch(self, monkeypatch, rng, epochs):
        import regcal.calibrate as calibrate

        calls = []
        real = calibrate._aux_pass
        monkeypatch.setattr(calibrate, "_aux_pass", lambda *a: calls.append(1) or real(*a))
        aux_fit(uncertainty_records(random_set(rng, m=10, n=3)), AuxConfig(epochs=epochs))
        assert len(calls) == epochs + 1


class TestApply:
    def test_identity_is_noop(self, rng):
        base = uncertainty_records(random_set(rng, m=20, n=4))
        out = apply_calibration(base, identity_artifact())
        for i in range(base.m):
            assert base.total[i] == out.total[i] and base.epistemic[i] == out.epistemic[i]

    def test_total_past_largest_double_is_refused(self):
        # Both scaled parts are finite (1.44e308 each); their total is not.
        rec = make_record("a", [1.0], [[0.0], [2.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="record 'a': non-finite uncertainty"):
            calibrated(make_set([rec]), CalibrationArtifact(method="sigma", s=1.2e154))

    def test_sigma_squares_the_scale(self):
        rec = make_record("a", [0.0], [[0.1]], [math.log(0.01)])
        art = CalibrationArtifact(method="sigma", s=2.0)
        out = calibrated(make_set([rec]), art)
        assert out.total[0] == pytest.approx(0.04, rel=1e-12)
        assert out.total[0] == out.epistemic[0] + out.aleatoric[0]

    def test_sigma_aleatoric_only_leaves_epistemic(self, rng):
        base = uncertainty_records(random_set(rng, m=10, n=4))
        art = CalibrationArtifact(method="sigma", s=3.0, target="aleatoric_only")
        out = apply_calibration(base, art)
        for i in range(base.m):
            assert out.epistemic[i] == base.epistemic[i]
            assert out.aleatoric[i] == pytest.approx(9.0 * base.aleatoric[i], rel=1e-12)

    def test_means_bit_identical(self, rng):
        base = uncertainty_records(random_set(rng, m=15, n=4))
        art = CalibrationArtifact(method="sigma", s=1.7)
        out = apply_calibration(base, art)
        for i in range(base.m):
            assert np.array_equal(base.y_mean[i], out.y_mean[i])
            assert np.array_equal(base.y[i], out.y[i])

    def test_sigma_preserves_uncertainty_ordering(self, rng):
        pset = random_set(rng, m=50, n=4)
        base = uncertainty_records(pset).total
        art = CalibrationArtifact(method="sigma", s=0.3)
        out = calibrated(pset, art).total
        assert np.array_equal(np.argsort(base), np.argsort(out))

    def test_aux_total_matches_network_output(self, rng):
        base = uncertainty_records(random_set(rng, m=25, n=4))
        art = aux_fit(base, AuxConfig(seed=3, epochs=50))
        out = apply_calibration(base, art)
        expect = np.exp(aux_forward(np.log(base.total), art.aux))
        for i, e in enumerate(expect):
            assert out.total[i] == pytest.approx(e, rel=1e-12)
            assert out.total[i] == out.epistemic[i] + out.aleatoric[i]

    def test_aux_aleatoric_only_moves_only_aleatoric(self, rng):
        base = uncertainty_records(random_set(rng, m=25, n=4))
        art = aux_fit(base, AuxConfig(seed=3, epochs=50), target="aleatoric_only")
        out = apply_calibration(base, art)
        assert np.array_equal(out.epistemic, base.epistemic)
        assert np.array_equal(out.y_mean, base.y_mean)
        expect = np.exp(aux_forward(np.log(base.aleatoric), art.aux))
        assert np.array_equal(out.aleatoric, expect)
        assert not np.array_equal(out.aleatoric, base.aleatoric)

    def test_set_level_s_is_one_when_calibrated(self, rng):
        pset = _constant_uncertainty_set(rng, 60, 0.1, 1.0)
        art = fit_sigma(uncertainty_records(pset))
        assert art.s == pytest.approx(1.0, abs=1e-8)
