import dataclasses

import numpy as np
import pytest

from regcal.calibrate import sigma_closed_form_gaussian
from regcal.io import dump_lines
from regcal.metrics import uncertainty_records
from regcal.toymodel import (
    SyntheticSpec,
    ToyModel,
    ToyModelConfig,
    draw_masks,
    generate,
    init_params,
    loss_and_grads,
    mc_predict,
    simulate_unbiasedness,
    train,
)

QUICK = ToyModelConfig(epochs=60, seed=0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(SyntheticSpec(seed=5))
        b = generate(SyntheticSpec(seed=5))
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.y, b.test.y)

    def test_homoscedastic_when_slope_zero(self):
        data = generate(SyntheticSpec(seed=0, noise_slope=0.0))
        assert np.all(data.train.noise_sd == 0.05)

    def test_split_sizes(self):
        data = generate(SyntheticSpec(seed=0, m_train=10, m_val=20, m_test=30))
        assert len(data.train.x) == 10
        assert len(data.val.x) == 20
        assert len(data.test.x) == 30

    def test_empirical_noise_matches_spec(self):
        # Residual variance about the true conditional mean, binned in x,
        # tracks (a + b x)^2 within 10% at 1e5 points.
        from regcal.toymodel import true_mean

        spec = SyntheticSpec(seed=3, m_train=100_000, m_val=1, m_test=1)
        data = generate(spec)
        resid = data.train.y - true_mean(data.train.x)
        for lo in np.arange(0.0, 1.0, 0.1):
            mask = (data.train.x >= lo) & (data.train.x < lo + 0.1)
            mid = lo + 0.05
            want = (spec.noise_floor + spec.noise_slope * mid) ** 2
            got = float(np.mean(resid[mask] ** 2))
            assert got == pytest.approx(want, rel=0.10)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(m_train=0)
        with pytest.raises(ValueError):
            SyntheticSpec(noise_floor=0.0)


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        hidden = (5, 4)
        params = init_params(hidden, rng)
        x = rng.uniform(0, 1, size=6)
        y = rng.normal(0, 1, size=6)
        masks = draw_masks(rng, 6, hidden, 0.3)
        wd = 1e-3
        _, grads = loss_and_grads(params, x, y, masks, 0.3, wd)
        h = 1e-6
        for _ in range(20):
            name = rng.choice(list(params))
            flat_idx = int(rng.integers(params[name].size))
            idx = np.unravel_index(flat_idx, params[name].shape)
            orig = params[name][idx]
            params[name][idx] = orig + h
            up, _ = loss_and_grads(params, x, y, masks, 0.3, wd)
            params[name][idx] = orig - h
            down, _ = loss_and_grads(params, x, y, masks, 0.3, wd)
            params[name][idx] = orig
            fd = (up - down) / (2 * h)
            scale = max(abs(fd), abs(grads[name][idx]), 1e-8)
            assert abs(fd - grads[name][idx]) / scale <= 1e-4

    def test_weight_decay_gradient_term(self):
        rng = np.random.default_rng(0)
        params = init_params((4, 3), rng)
        x = rng.uniform(0, 1, size=4)
        y = rng.normal(0, 1, size=4)
        masks = draw_masks(rng, 4, (4, 3), 0.0)
        wd = 0.01
        _, with_decay = loss_and_grads(params, x, y, masks, 0.0, wd)
        _, without = loss_and_grads(params, x, y, masks, 0.0, 0.0)
        for name in params:
            assert with_decay[name] == pytest.approx(
                without[name] + 2 * wd * params[name], abs=1e-12
            )

    def test_pure_decay_shrinks_weights(self):
        rng = np.random.default_rng(0)
        params = init_params((4, 3), rng)
        wd = 0.1
        lr = 0.05
        norms_before = {k: np.linalg.norm(v) for k, v in params.items()}
        for name, value in params.items():
            value -= lr * (2 * wd * value)  # plain step along the decay term
        for name, value in params.items():
            if norms_before[name] > 0:
                assert np.linalg.norm(value) < norms_before[name]


class TestTrain:
    def test_deterministic_weights(self):
        data = generate(SyntheticSpec(seed=0))
        m1, _ = train(data, QUICK)
        m2, _ = train(data, QUICK)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_beats_constant_predictor(self):
        data = generate(SyntheticSpec(seed=0))
        cfg = ToyModelConfig(epochs=300, seed=0)
        _, trace = train(data, cfg)
        target_var = float(np.var(data.test.y))
        assert trace.test_mse[-1] < target_var

    def test_trace_lengths(self):
        data = generate(SyntheticSpec(seed=0))
        _, trace = train(data, QUICK)
        assert trace.n_epochs == QUICK.epochs
        for f in dataclasses.fields(trace):
            values = getattr(trace, f.name)
            assert isinstance(values, list), f.name
            assert len(values) == QUICK.epochs, f.name
            assert all(type(v) is float for v in values), f.name

    def test_non_finite_loss_raises_with_epoch(self):
        data = generate(SyntheticSpec(seed=0))
        data.train.y[:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="epoch"):
                train(data, QUICK)


class TestMcPredict:
    def test_no_dropout_gives_zero_epistemic(self):
        data = generate(SyntheticSpec(seed=0))
        cfg = ToyModelConfig(epochs=30, seed=0, dropout_p=0.0)
        model, _ = train(data, cfg)
        pset = mc_predict(model, data.test, n_passes=5, seed=0)
        for epistemic in uncertainty_records(pset).epistemic:
            # identical passes; only the ulp of the mean survives squaring
            assert epistemic <= 1e-30

    def test_single_pass_gives_zero_epistemic(self):
        data = generate(SyntheticSpec(seed=0))
        model, _ = train(data, QUICK)
        pset = mc_predict(model, data.test, n_passes=1, seed=0)
        for epistemic in uncertainty_records(pset).epistemic:
            assert epistemic == 0.0

    def test_deterministic_given_seed(self):
        data = generate(SyntheticSpec(seed=0))
        model, _ = train(data, QUICK)
        a = mc_predict(model, data.val, n_passes=4, seed=9)
        b = mc_predict(model, data.val, n_passes=4, seed=9)
        assert list(dump_lines(a)) == list(dump_lines(b))

    def test_hidden_widths_read_off_the_weights(self, rng):
        model = ToyModel(params=init_params((5, 4), rng), dropout_p=0.3)
        assert model.hidden == (5, 4)
        data = generate(SyntheticSpec(seed=0, m_test=7))
        pset = mc_predict(model, data.test, n_passes=3, seed=0)
        assert (pset.m, pset.n_samples, pset.d) == (7, 3, 1)
        assert np.all(np.isfinite(pset.means)) and np.all(np.isfinite(pset.log_vars))
        assert uncertainty_records(pset).m == 7

    def test_output_validates_and_feeds_pipeline(self):
        from regcal.calibrate import apply_calibration, fit_sigma
        from regcal.intervals import coverage
        from regcal.metrics import uce

        data = generate(SyntheticSpec(seed=0))
        model, _ = train(data, QUICK)
        pset = mc_predict(model, data.test, n_passes=25, seed=3)
        unc = uncertainty_records(pset)
        art = fit_sigma(unc)
        report = uce(apply_calibration(unc, art), k=10)
        table = coverage(unc, [0.5, 0.99])
        assert report.m == pset.m
        assert len(table.observed) == 2


class TestSimulateUnbiasedness:
    def test_zero_tau_is_exact_per_trial(self):
        res = simulate_unbiasedness(mu=0.3, tau=0.0, y=0.1, n_passes=10, trials=100, seed=0)
        # every trial equals (mu - y)^2 exactly; averaging the identical
        # trials costs at most an ulp
        assert res.relative_bias <= 1e-15

    def test_centered_large_run(self):
        res = simulate_unbiasedness(mu=0.0, tau=1.0, y=0.0, n_passes=25, trials=100_000, seed=1)
        assert res.relative_bias <= 0.01

    def test_single_pass_is_unbiased_by_construction(self):
        res = simulate_unbiasedness(mu=0.4, tau=0.5, y=0.1, n_passes=1, trials=50, seed=2)
        # epistemic term is identically zero; every trial equals the truth
        assert res.relative_bias <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_unbiasedness(0.0, 1.0, 0.0, n_passes=0, trials=10)


class TestIntraTrainingCalibrate:
    """train refits sigma on the validation split after every epoch."""

    def test_final_epoch_matches_final_model(self):
        data = generate(SyntheticSpec(seed=1))
        model, trace = train(data, QUICK)
        mu, lv = model.predict(data.val.x)
        s = sigma_closed_form_gaussian((data.val.y - mu) ** 2, np.exp(lv))
        assert trace.s[-1] == s
        mu, lv = model.predict(data.test.x)
        scaled = np.exp(lv) * (s * s)
        nll_cal = float(np.mean((data.test.y - mu) ** 2 / scaled + np.log(scaled)))
        assert trace.test_nll_calibrated[-1] == nll_cal

    def test_fit_on_test_itself_minimizes_test_nll(self):
        data = generate(SyntheticSpec(seed=1))
        model, _ = train(data, QUICK)
        mu, lv = model.predict(data.test.x)
        te_err, te_s2 = (data.test.y - mu) ** 2, np.exp(lv)
        s = sigma_closed_form_gaussian(te_err, te_s2)
        scaled = te_s2 * s * s
        nll_cal = float(np.mean(te_err / scaled + np.log(scaled)))
        nll_raw = float(np.mean(te_err / te_s2 + np.log(te_s2)))
        assert nll_cal <= nll_raw

    def test_appends_per_epoch_sequences(self):
        data = generate(SyntheticSpec(seed=0))
        _, trace = train(data, QUICK)
        assert len(trace.s) == trace.n_epochs
        assert len(trace.test_nll_calibrated) == trace.n_epochs
        assert all(s > 0 for s in trace.s)
