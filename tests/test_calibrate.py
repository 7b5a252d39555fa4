import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from regcal.calibrate import (
    AuxConfig,
    CalibrationError,
    SigmaFitOptions,
    apply_calibration,
    aux_fit,
    aux_forward,
    fit_sigma,
    sigma_closed_form_gaussian,
    sigma_closed_form_laplace,
    sigma_fit_gd,
)
from regcal.core import CalibrationArtifact, identity_artifact
from regcal.likelihood import batch_nll
from regcal.metrics import uce, uncertainty_records

from conftest import calibrated, make_record, make_set, random_set


class TestClosedForms:
    def test_gaussian_calibrated_input_gives_exactly_one(self):
        e = np.array([0.3, 1.7, 0.02])
        assert sigma_closed_form_gaussian(e, e) == 1.0

    def test_gaussian_uniform_scale(self):
        assert sigma_closed_form_gaussian([4.0, 4.0], [1.0, 1.0]) == 2.0

    def test_gaussian_hand_evaluated(self):
        # mean(1/1, 1/4) = 0.625, sqrt = 0.7905694150420949
        s = sigma_closed_form_gaussian([1.0, 1.0], [1.0, 4.0])
        assert s == pytest.approx(0.7905694150420949, abs=1e-15)

    def test_laplace_unit_ratios(self):
        assert sigma_closed_form_laplace([1.0, 1.0], [1.0, 1.0]) == 1.0

    def test_laplace_mean_of_ratios(self):
        assert sigma_closed_form_laplace([1.0, 3.0], [1.0, 1.0]) == 2.0

    def test_laplace_hand_evaluated(self):
        # (0.2/1 + 0.4/2 + 0.9/3)/3 = 0.7/3
        s = sigma_closed_form_laplace([0.2, 0.4, 0.9], [1.0, 2.0, 3.0])
        assert s == pytest.approx(0.2333333333333333, abs=1e-15)

    @pytest.mark.parametrize("fn", [sigma_closed_form_gaussian, sigma_closed_form_laplace])
    def test_error_on_nonpositive_scales(self, fn):
        with pytest.raises(ValueError, match="> 0"):
            fn([1.0], [0.0])

    @pytest.mark.parametrize("fn", [sigma_closed_form_gaussian, sigma_closed_form_laplace])
    def test_error_on_empty_input(self, fn):
        with pytest.raises(ValueError, match="empty"):
            fn([], [])

    def test_error_on_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            sigma_closed_form_gaussian([1.0, 2.0], [1.0])

    # One ratio overflows (a subnormal scale), or two finite ratios overflow
    # their sum; no finite s fits either.
    @pytest.mark.parametrize("fn", [sigma_closed_form_gaussian, sigma_closed_form_laplace,
                                    sigma_fit_gd])
    @pytest.mark.parametrize("errors, scales", [([0.01, 0.5], [4e-322, 1.0]),
                                                ([1e8, 1e8], [1e-300, 1e-300])])
    def test_error_on_non_finite_ratio_sum(self, fn, errors, scales):
        with pytest.raises(CalibrationError, match="finite sum"):
            fn(errors, scales)

    @given(c=st.floats(min_value=0.1, max_value=10))
    def test_gaussian_scale_equivariance(self, c):
        e = np.array([0.5, 2.0, 0.9])
        v = np.array([1.0, 0.5, 2.0])
        scaled = sigma_closed_form_gaussian(c * c * e, v)
        assert scaled == pytest.approx(c * sigma_closed_form_gaussian(e, v), rel=1e-12)


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
        from regcal.calibrate import _sigma_objective

        for trial in range(5):
            gen = np.random.default_rng(trial)
            e = gen.uniform(0.01, 2.0, size=200)
            v = gen.uniform(0.05, 1.0, size=200)
            s, meta = sigma_fit_gd(e, v, kind="gaussian")
            at_one = _sigma_objective(1.0, 200, float(np.sum(e / v)), "gaussian")
            assert meta["final_objective"] <= at_one

    def test_closed_form_is_stationary_point(self, rng):
        # Numeric derivative of the objective vanishes at the closed form.
        from regcal.calibrate import _sigma_objective

        e = rng.uniform(0.01, 1.0, size=100)
        v = rng.uniform(0.1, 2.0, size=100)
        m = len(e)
        ratio = float(np.sum(e / v))
        s_star = sigma_closed_form_gaussian(e, v)
        eps = 1e-6
        up = _sigma_objective(s_star + eps, m, ratio, "gaussian")
        down = _sigma_objective(s_star - eps, m, ratio, "gaussian")
        here = _sigma_objective(s_star, m, ratio, "gaussian")
        assert (up - down) / (2 * eps) == pytest.approx(0.0, abs=1e-4)
        assert here <= min(up, down)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown likelihood"):
            sigma_fit_gd([1.0], [1.0], kind="cauchy")

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SigmaFitOptions(step_size=-1.0)


class TestFitSigmaOnSets:
    def test_gd_route_agrees_with_closed_form_route(self, rng):
        unc = uncertainty_records(random_set(rng, m=80, n=5))
        closed = fit_sigma(unc)
        gd = fit_sigma(unc, use_gd=True, opts=SigmaFitOptions(max_iters=5000))
        assert gd.s == pytest.approx(closed.s, abs=1e-4)
        assert closed.fit_meta["fit"] == "closed_form"
        assert gd.fit_meta["fit"] == "gd"

    def test_laplace_target_aleatoric(self, rng):
        unc = uncertainty_records(random_set(rng, m=40, n=5))
        art = fit_sigma(unc, likelihood="laplace", target="aleatoric_only")
        assert art.s > 0
        assert art.likelihood == "laplace"
        assert art.target == "aleatoric_only"


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

    def test_underestimated_set_improves(self, rng):
        # Uncertainties uniformly 4x too small.
        pset = _constant_uncertainty_set(rng, 80, 0.1, 0.25)
        art = aux_fit(uncertainty_records(pset), AuxConfig(seed=0))
        assert batch_nll(calibrated(pset, art)) < batch_nll(calibrated(pset, None))
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

    def test_set_level_s_is_one_when_calibrated(self, rng):
        pset = _constant_uncertainty_set(rng, 60, 0.1, 1.0)
        art = fit_sigma(uncertainty_records(pset))
        assert art.s == pytest.approx(1.0, abs=1e-8)
