import dataclasses
import json
import math

import numpy as np
import pytest

from regcal.calibrate import sigma_closed_form
from regcal.cli import main
from regcal.io import dump_lines, load_dump
from regcal.metrics import uncertainty_records
from regcal.toymodel import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    BATCH_SIZE,
    HIDDEN,
    M_TEST,
    M_TRAIN,
    M_VAL,
    NOISE_FLOOR,
    NOISE_SLOPE,
    PARAM_NAMES,
    STEP_SIZE,
    WEIGHT_DECAY,
    ToyModel,
    ToyModelConfig,
    TrainingTrace,
    draw_masks,
    experiment,
    forward,
    generate,
    init_params,
    loss_and_grads,
    mc_predict,
    simulate_unbiasedness,
    train,
    true_mean,
)

QUICK = ToyModelConfig(epochs=60, seed=0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(5)
        b = generate(5)
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.y, b.test.y)

    def test_split_sizes(self):
        data = generate(0)
        assert (M_TRAIN, M_VAL, M_TEST) == (32, 256, 512)
        assert len(data.train.x) == M_TRAIN
        assert len(data.val.x) == M_VAL
        assert len(data.test.x) == M_TEST

    def test_empirical_noise_matches_spec(self):
        # Residual variance about the true conditional mean, binned in x,
        # tracks (a + b x)^2 within 10% at 1e5 points: the three splits of
        # 125 seeds, pooled.
        splits = [split for seed in range(125) for split in vars(generate(seed)).values()]
        x = np.concatenate([split.x for split in splits])
        y = np.concatenate([split.y for split in splits])
        assert len(x) == 100_000
        resid = y - true_mean(x)
        for lo in np.arange(0.0, 1.0, 0.1):
            mask = (x >= lo) & (x < lo + 0.1)
            mid = lo + 0.05
            want = (NOISE_FLOOR + NOISE_SLOPE * mid) ** 2
            got = float(np.mean(resid[mask] ** 2))
            assert got == pytest.approx(want, rel=0.10)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            generate(-1)


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

    def test_decay_loss_term(self):
        rng = np.random.default_rng(0)
        params = init_params((4, 3), rng)
        x = rng.uniform(0, 1, size=4)
        y = rng.normal(0, 1, size=4)
        masks = draw_masks(rng, 4, (4, 3), 0.0)
        with_decay, _ = loss_and_grads(params, x, y, masks, 0.0, 1.0)
        without, _ = loss_and_grads(params, x, y, masks, 0.0, 0.0)
        squares = sum(float(np.sum(value**2)) for value in params.values())
        assert with_decay - without == pytest.approx(squares, rel=1e-12, abs=0)
        # a weight no input reaches (its hidden unit is dropped) leaves the
        # forward pass finite; its square alone overflows the loss
        masks[0][:, 0] = 0.0
        params["W2"][0, 0] = 1e200
        mu, lv, _ = forward(params, x, masks=masks, p=0.0)
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(lv))
        with np.errstate(over="ignore", invalid="ignore"):
            loss, _ = loss_and_grads(params, x, y, masks, 0.0, 1e-7)
        assert not math.isfinite(loss)


class TestTrain:
    def test_deterministic_weights(self):
        data = generate(0)
        m1, _ = train(data, QUICK)
        m2, _ = train(data, QUICK)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])

    def test_beats_constant_predictor(self):
        data = generate(0)
        cfg = ToyModelConfig(epochs=300, seed=0)
        _, trace = train(data, cfg)
        target_var = float(np.var(data.test.y))
        assert trace.test_mse[-1] < target_var

    def test_trace_lengths(self):
        data = generate(0)
        _, trace = train(data, QUICK)
        assert trace.n_epochs == QUICK.epochs
        for f in dataclasses.fields(trace):
            values = getattr(trace, f.name)
            assert isinstance(values, list), f.name
            assert len(values) == QUICK.epochs, f.name
            assert all(type(v) is float for v in values), f.name

    def test_non_finite_loss_raises_with_epoch(self):
        data = generate(0)
        data.train.y[:] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="epoch"):
                train(data, QUICK)


def _reference_masks(rng, batch, hidden, p):
    """draw_masks as one draw per layer."""
    keep = 1.0 - p
    return (
        (rng.random((batch, hidden[0])) < keep).astype(float),
        (rng.random((batch, hidden[1])) < keep).astype(float),
    )


def _reference_loss_and_grads(params, x, y, masks, p, weight_decay):
    """loss_and_grads as plain expressions: fresh arrays, one dict entry each."""
    mu, lv, (X, z1, d1, z2, d2) = forward(params, x, masks=masks, p=p)
    batch = len(y)
    inv_var = np.exp(-lv)
    resid = mu - y
    loss = float(np.mean(inv_var * resid**2 + lv))
    loss += weight_decay * sum(float(np.sum(w**2)) for w in params.values())
    dmu = (2.0 * inv_var * resid / batch)[:, None]
    dlv = ((1.0 - inv_var * resid**2) / batch)[:, None]
    grads = {"Wm": d2.T @ dmu, "bm": dmu.sum(axis=0), "Wv": d2.T @ dlv, "bv": dlv.sum(axis=0)}
    dd2 = dmu @ params["Wm"].T + dlv @ params["Wv"].T
    dz2 = dd2 * masks[1] / (1.0 - p) * (z2 > 0.0)
    grads["W2"] = d1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dd1 = dz2 @ params["W2"].T
    dz1 = dd1 * masks[0] / (1.0 - p) * (z1 > 0.0)
    grads["W1"] = X.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    for name in PARAM_NAMES:
        grads[name] = grads[name] + 2.0 * weight_decay * params[name]
    return loss, grads


def _reference_train(data, cfg):
    """train with the step above, np.concatenate of the gradients and Adam
    out of place; the evaluation through forward."""
    rng = np.random.default_rng(cfg.seed)
    init = init_params(HIDDEN, rng)
    theta = np.concatenate([value.ravel() for value in init.values()])
    ends = np.cumsum([value.size for value in init.values()])
    params = {name: part.reshape(init[name].shape)
              for name, part in zip(init, np.split(theta, ends[:-1]))}
    adam_m, adam_v = np.zeros_like(theta), np.zeros_like(theta)
    trace, step = TrainingTrace(), 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(len(data.train.x))
        for start in range(0, len(perm), BATCH_SIZE):
            idx = perm[start : start + BATCH_SIZE]
            masks = _reference_masks(rng, len(idx), HIDDEN, cfg.dropout_p)
            _, grads = _reference_loss_and_grads(params, data.train.x[idx], data.train.y[idx],
                                                 masks, cfg.dropout_p, WEIGHT_DECAY)
            g = np.concatenate([grads[name].ravel() for name in params])
            step += 1
            adam_m = ADAM_BETA1 * adam_m + (1.0 - ADAM_BETA1) * g
            adam_v = ADAM_BETA2 * adam_v + (1.0 - ADAM_BETA2) * g * g
            m_hat = adam_m / (1.0 - ADAM_BETA1**step)
            v_hat = adam_v / (1.0 - ADAM_BETA2**step)
            theta -= STEP_SIZE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for name, split in (("train", data.train), ("test", data.test), ("val", data.val)):
            mu, lv, _ = forward(params, split.x)
            err_sq, sigma2 = (split.y - mu) ** 2, np.exp(lv)
            if name == "val":
                trace.s.append(sigma_closed_form(err_sq, sigma2)[0])
                continue
            getattr(trace, f"{name}_mse").append(float(err_sq.mean()))
            getattr(trace, f"{name}_sigma2").append(float(sigma2.mean()))
            getattr(trace, f"{name}_nll").append(float(np.mean(err_sq / sigma2 + lv)))
    return params, trace


class TestTrainStep:
    """train's step computes into buffers made once per call; weights and
    trace equal the plain-expression reference above, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("p", [0.05, 0.3])
    def test_train_matches_reference(self, seed, p):
        cfg = ToyModelConfig(seed=seed, epochs=15, dropout_p=p)
        model, trace = train(generate(seed), cfg)
        params, expected = _reference_train(generate(seed), cfg)
        for name in PARAM_NAMES:
            assert np.array_equal(model.params[name], params[name]), name
        for f in dataclasses.fields(trace):
            assert getattr(trace, f.name) == getattr(expected, f.name), f.name

    def test_masks_match_one_draw_per_layer(self):
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        masks = draw_masks(rng, 5, (4, 3), 0.3)
        for got, want in zip(masks, _reference_masks(ref_rng, 5, (4, 3), 0.3)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # the stream is left in the same place

    def test_gradients_are_fresh_arrays(self, rng):
        params = init_params((4, 3), rng)
        x, y = rng.uniform(0, 1, size=4), rng.normal(0, 1, size=4)
        masks = draw_masks(rng, 4, (4, 3), 0.3)
        _, first = loss_and_grads(params, x, y, masks, 0.3, 1e-3)
        _, second = loss_and_grads(params, x, y, masks, 0.3, 1e-3)
        for grad in second.values():
            for other in [*params.values(), *first.values()]:
                assert not np.shares_memory(grad, other)


class TestMcPredict:
    def test_no_dropout_gives_zero_epistemic(self):
        data = generate(0)
        cfg = ToyModelConfig(epochs=30, seed=0, dropout_p=0.0)
        model, _ = train(data, cfg)
        pset = mc_predict(model, data.test, n_passes=5, seed=0)
        for epistemic in uncertainty_records(pset).epistemic:
            # identical passes; only the ulp of the mean survives squaring
            assert epistemic <= 1e-30

    def test_single_pass_gives_zero_epistemic(self):
        data = generate(0)
        model, _ = train(data, QUICK)
        pset = mc_predict(model, data.test, n_passes=1, seed=0)
        for epistemic in uncertainty_records(pset).epistemic:
            assert epistemic == 0.0

    def test_deterministic_given_seed(self):
        data = generate(0)
        model, _ = train(data, QUICK)
        a = mc_predict(model, data.val, n_passes=4, seed=9)
        b = mc_predict(model, data.val, n_passes=4, seed=9)
        assert list(dump_lines(a)) == list(dump_lines(b))

    def test_hidden_widths_read_off_the_weights(self, rng):
        model = ToyModel(params=init_params((5, 4), rng), dropout_p=0.3)
        assert model.hidden == (5, 4)
        data = generate(0)
        pset = mc_predict(model, data.test, n_passes=3, seed=0)
        assert (pset.m, pset.n_samples, pset.d) == (M_TEST, 3, 1)
        assert np.all(np.isfinite(pset.means)) and np.all(np.isfinite(pset.log_vars))
        assert uncertainty_records(pset).m == M_TEST

    def test_output_validates_and_feeds_pipeline(self):
        from regcal.calibrate import apply_calibration, fit_sigma
        from regcal.intervals import coverage
        from regcal.metrics import uce

        data = generate(0)
        model, _ = train(data, QUICK)
        pset = mc_predict(model, data.test, n_passes=25, seed=3)
        unc = uncertainty_records(pset)
        art = fit_sigma(unc)
        report = uce(apply_calibration(unc, art), k=10)
        table = coverage(unc, [0.5, 0.99])
        assert report.m == pset.m
        assert len(table.observed) == 2


class TestExperiment:
    def test_toy_command_writes_what_experiment_returns(self, tmp_path):
        result = experiment(ToyModelConfig(seed=1, epochs=5, mc_passes=3))
        out = tmp_path / "run"
        argv = ["toy", "--seed", "1", "--epochs", "5", "--mc-passes", "3", "--out-dir", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "summary.json").read_text()) == result.summary
        assert list(result.dumps) == ["train", "val", "test"]
        for split, pset in result.dumps.items():
            loaded = load_dump(out / f"{split}.jsonl")
            assert loaded.ids == pset.ids, split
            for name in ("y", "means", "log_vars"):
                assert getattr(loaded, name).tobytes() == getattr(pset, name).tobytes(), (split, name)


class TestWorkspacePath:
    """train's evaluation passes and mc_predict compute into reused buffers;
    every number they give equals the reference ``forward``, bit for bit."""

    def test_forward_matches_plain_expressions(self, rng):
        params = init_params((64, 64), rng)
        x = rng.uniform(0.0, 1.0, size=40)
        masks = draw_masks(rng, 40, (64, 64), 0.2)
        for mask, p in ((None, 0.0), (masks, 0.2)):
            X = x.reshape(-1, 1)
            a1 = np.maximum(X @ params["W1"] + params["b1"], 0.0)
            d1 = a1 if mask is None else a1 * mask[0] / (1.0 - p)
            a2 = np.maximum(d1 @ params["W2"] + params["b2"], 0.0)
            d2 = a2 if mask is None else a2 * mask[1] / (1.0 - p)
            mu, lv, _ = forward(params, x, masks=mask, p=p)
            assert np.array_equal(mu, (d2 @ params["Wm"] + params["bm"])[:, 0])
            assert np.array_equal(lv, (d2 @ params["Wv"] + params["bv"])[:, 0])

    def test_last_trace_entries_match_forward(self):
        data = generate(0)
        model, trace = train(data, ToyModelConfig(epochs=3, seed=0))
        expected = {}
        for name, split in (("train", data.train), ("test", data.test)):
            mu, lv, _ = forward(model.params, split.x)
            err_sq, sigma2 = (split.y - mu) ** 2, np.exp(lv)
            expected[f"{name}_mse"] = float(err_sq.mean())
            expected[f"{name}_sigma2"] = float(sigma2.mean())
            expected[f"{name}_nll"] = float(np.mean(err_sq / sigma2 + lv))
        mu, lv, _ = forward(model.params, data.val.x)
        expected["s"], _ = sigma_closed_form((data.val.y - mu) ** 2, np.exp(lv))
        for key, value in expected.items():
            assert np.array_equal(getattr(trace, key)[-1], value), key

    def test_mc_predict_matches_forward_loop(self):
        data = generate(0)
        model, _ = train(data, ToyModelConfig(epochs=3, seed=0))
        pset = mc_predict(model, data.test, n_passes=3, seed=5)
        rng = np.random.default_rng(5)
        for n in range(3):
            masks = draw_masks(rng, M_TEST, model.hidden, model.dropout_p)
            mu, lv, _ = forward(model.params, data.test.x, masks=masks, p=model.dropout_p)
            assert np.array_equal(pset.means[:, n, 0], mu), n
            assert np.array_equal(pset.log_vars[:, n], lv), n


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
        data = generate(1)
        model, trace = train(data, QUICK)
        mu, lv, _ = forward(model.params, data.val.x)
        s, _ = sigma_closed_form((data.val.y - mu) ** 2, np.exp(lv))
        assert trace.s[-1] == s

    def test_fit_on_test_itself_minimizes_test_nll(self):
        data = generate(1)
        model, _ = train(data, QUICK)
        mu, lv, _ = forward(model.params, data.test.x)
        te_err, te_s2 = (data.test.y - mu) ** 2, np.exp(lv)
        s, _ = sigma_closed_form(te_err, te_s2)
        scaled = te_s2 * s * s
        nll_cal = float(np.mean(te_err / scaled + np.log(scaled)))
        nll_raw = float(np.mean(te_err / te_s2 + np.log(te_s2)))
        assert nll_cal <= nll_raw

    def test_appends_per_epoch_sequences(self):
        data = generate(0)
        _, trace = train(data, QUICK)
        assert len(trace.s) == trace.n_epochs
        assert all(s > 0 for s in trace.s)
