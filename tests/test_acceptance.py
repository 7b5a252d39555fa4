"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The toy experiment runs once per seed (5 seeds) through
`regcal.toymodel.experiment`, the function `regcal toy` runs, and its results
are shared by the criteria that consume them.
"""

import math
import time

import numpy as np
import pytest

from regcal.calibrate import AuxConfig, aux_fit, fit_sigma, sigma_closed_form, sigma_fit_gd
from regcal.cli import main
from regcal.core import McPredictionSet, identity_artifact
from regcal.intervals import coverage
from regcal.likelihood import batch_nll, probit
from regcal.metrics import uce, uncertainty_records
from regcal.calibrate import apply_calibration
from regcal.io import load_dump, save_dump
from regcal.toymodel import (
    ToyModelConfig,
    draw_masks,
    experiment,
    init_params,
    loss_and_grads,
    simulate_unbiasedness,
)

from conftest import calibrated, make_record, make_set, make_uncertainties, random_set
from test_metrics import brute_force_uce


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def toy_runs():
    """The toy experiment of `regcal toy` at seeds 0-4, and the seconds it took."""
    t0 = time.perf_counter()
    runs = [experiment(ToyModelConfig(seed=seed)) for seed in range(5)]
    return runs, time.perf_counter() - t0


def scores(run, calib):
    """The test-dump entry of a run's summary under ``calib`` (none, sigma or aux)."""
    return run.summary["test"][calib]


def test_criterion_1_closed_form_gd_agreement():
    gen = np.random.default_rng(2024)
    worst = 0.0
    slowest = 0.0
    for trial in range(100):
        m = int(gen.integers(1, 10_001))
        target = float(gen.uniform(0.2, 5.0))
        variances = gen.uniform(0.05, 2.0, size=m)
        noise = gen.standard_normal(m)
        errors_sq = variances * (target * noise) ** 2
        errors_sq[errors_sq == 0.0] = 1e-12
        abs_errors = np.sqrt(variances) * np.abs(target * noise) + 1e-12

        t0 = time.perf_counter()
        s_gd, _ = sigma_fit_gd(errors_sq, variances, kind="gaussian", max_iters=20_000)
        slowest = max(slowest, time.perf_counter() - t0)
        s_closed, _ = sigma_closed_form(errors_sq, variances, kind="gaussian")
        worst = max(worst, abs(s_gd - s_closed))

        t0 = time.perf_counter()
        s_gd, _ = sigma_fit_gd(abs_errors, np.sqrt(variances), kind="laplace", max_iters=20_000)
        slowest = max(slowest, time.perf_counter() - t0)
        s_closed, _ = sigma_closed_form(abs_errors, np.sqrt(variances), kind="laplace")
        worst = max(worst, abs(s_gd - s_closed))
    ok = worst <= 1e-4 and slowest < 1.0
    assert report(1, ok, f"max |gd - closed| = {worst:.2e}, slowest fit {slowest * 1e3:.1f} ms")


def test_criterion_2_unbiasedness():
    t0 = time.perf_counter()
    res = simulate_unbiasedness(mu=0.3, tau=0.2, y=0.1, n_passes=25, trials=100_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = res.relative_bias <= 0.01 and elapsed < 5.0
    assert report(2, ok, f"relative bias {res.relative_bias:.4%} in {elapsed:.2f} s")


def test_criterion_3_probit():
    def bisection_probit(p):
        lo, hi = 0.0, 10.0
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            if math.erf(mid) < p:
                lo = mid
            else:
                hi = mid
        return math.sqrt(2.0) * 0.5 * (lo + hi)

    expected = {0.5: 0.67449, 0.9: 1.64485, 0.95: 1.95996, 0.99: 2.57583}
    worst = 0.0
    for p, approx_value in expected.items():
        oracle = bisection_probit(p)
        assert abs(oracle - approx_value) < 1e-4  # sanity of the oracle itself
        worst = max(worst, abs(probit(p) - oracle))
    ok = worst <= 1e-4
    assert report(3, ok, f"max |probit - bisection oracle| = {worst:.2e}")


def test_criterion_4_uce_oracle_equivalence():
    gen = np.random.default_rng(7)
    worst = 0.0
    for trial in range(50):
        m = int(gen.integers(2, 501))
        pset = random_set(np.random.default_rng(trial), m=m, n=int(gen.integers(1, 6)),
                          d=int(gen.integers(1, 3)))
        for k in (1, 5, 10, 20):
            for mode in ("predictive", "aleatoric_only"):
                got = uce(uncertainty_records(pset), k=k, mode=mode).uce
                want = brute_force_uce(pset, k, mode)
                worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    assert report(4, ok, f"max |uce - brute force| = {worst:.2e} over 50 dumps, both modes")


def test_criterion_5_end_to_end_recalibration(toy_runs):
    runs, elapsed = toy_runs
    improved = sum(
        scores(r, "sigma")["uce_predictive"] < scores(r, "none")["uce_predictive"] for r in runs
    )
    mse_identical = all(scores(r, "sigma")["mse"] == scores(r, "none")["mse"] for r in runs)
    ok = improved >= 4 and mse_identical and elapsed < 600.0
    assert report(
        5, ok,
        f"sigma scaling reduced test UCE in {improved}/5 seeds, "
        f"MSE bit-identical: {mse_identical}, pipeline took {elapsed:.0f} s",
    )


def test_criterion_6_underestimation_phenomenon(toy_runs):
    runs, _ = toy_runs
    s_values = [scores(r, "sigma")["s"] for r in runs]
    both = sum(
        r.trace.test_sigma2[-1] < r.trace.test_mse[-1] and s > 1.0 for r, s in zip(runs, s_values)
    )
    best = [int(np.argmin(r.trace.test_mse)) for r in runs]
    at_best = sum(r.trace.test_sigma2[b] < r.trace.test_mse[b] for r, b in zip(runs, best))
    ok = both >= 4
    assert report(
        6, ok,
        f"test sigma^2 < test MSE with fitted s > 1 in {both}/5 seeds "
        f"(s values {[round(s, 3) for s in s_values]}; "
        f"underestimation at best-MSE epoch in {at_best}/5)",
    )


def test_criterion_7_nll_minimizer_property():
    failures = 0
    for trial in range(20):
        unc = uncertainty_records(random_set(np.random.default_rng(100 + trial), m=60, n=4))
        calib = fit_sigma(unc, likelihood="gaussian", target="predictive")
        if batch_nll(apply_calibration(unc, calib)) > batch_nll(apply_calibration(unc, identity_artifact())):
            failures += 1
    ok = failures == 0
    assert report(7, ok, f"fitted-sigma NLL <= identity NLL exactly in 20/20 sets "
                         f"({failures} violations)")


def test_criterion_8_coverage(toy_runs):
    # Correctly specified Gaussian dump: observed within 2 points of nominal.
    gen = np.random.default_rng(17)
    records = []
    for i in range(10_000):
        mu = gen.uniform(-1, 1)
        delta = gen.uniform(0.01, 0.05)
        log_var = float(np.log(gen.uniform(0.005, 0.02)))
        total = delta**2 + math.exp(log_var)
        y = gen.normal(mu, math.sqrt(total))
        records.append(make_record(f"r{i}", [y], [[mu - delta], [mu + delta]],
                                   [log_var, log_var]))
    table = coverage(uncertainty_records(make_set(records)), [0.5, 0.9, 0.95, 0.99])
    worst_gap = max(abs(obs - lvl) for lvl, obs in zip(table.levels, table.observed))

    runs, _ = toy_runs
    widened = sum(
        scores(r, "sigma")["coverage"]["0.99"] >= scores(r, "none")["coverage"]["0.99"]
        for r in runs
    )
    ok = worst_gap <= 0.02 and widened >= 4
    assert report(
        8, ok,
        f"synthetic dump coverage within {worst_gap:.3f} of nominal; "
        f"toy 99% coverage non-decreasing after scaling in {widened}/5 seeds",
    )


def test_criterion_9_gradient_check():
    gen = np.random.default_rng(5)
    hidden = (6, 5)
    params = init_params(hidden, gen)
    x = gen.uniform(0, 1, size=8)
    y = gen.normal(0, 1, size=8)
    masks = draw_masks(gen, 8, hidden, 0.25)
    wd = 1e-4
    _, grads = loss_and_grads(params, x, y, masks, 0.25, wd)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        name = gen.choice(list(params))
        idx = np.unravel_index(int(gen.integers(params[name].size)), params[name].shape)
        orig = params[name][idx]
        params[name][idx] = orig + h
        up, _ = loss_and_grads(params, x, y, masks, 0.25, wd)
        params[name][idx] = orig - h
        down, _ = loss_and_grads(params, x, y, masks, 0.25, wd)
        params[name][idx] = orig
        fd = (up - down) / (2 * h)
        rel = abs(fd - grads[name][idx]) / max(abs(fd), abs(grads[name][idx]), 1e-8)
        worst = max(worst, rel)
    ok = worst <= 1e-4
    assert report(9, ok, f"max relative gradient error {worst:.2e} over 20 probes")


def test_criterion_10_rejection_monotone():
    from regcal.analysis import rejection_curve

    gen = np.random.default_rng(3)
    records = []
    for i in range(101):
        err = float(gen.uniform(0.0, 2.0))
        records.append((f"r{i}", 0.0, err, err * err))
    curve = rejection_curve(make_uncertainties(records), steps=50)
    kept = [v for v in curve.mse_kept if not math.isnan(v)]
    ok = all(a <= b for a, b in zip(kept, kept[1:]))
    assert report(10, ok, "kept-set MSE non-increasing (exactly) as the threshold tightens")


def test_criterion_11_determinism(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    assert main(["toy", "--seed", "0", "--out-dir", str(run_a)]) == 0
    assert main(["toy", "--seed", "0", "--out-dir", str(run_b)]) == 0
    trees = []
    for root in (run_a, run_b):
        trees.append({p.name: p.read_bytes() for p in sorted(root.iterdir())})
    identical = trees[0] == trees[1]

    reloaded = tmp_path / "reload.jsonl"
    save_dump(load_dump(run_a / "test.jsonl"), reloaded)
    round_trip = reloaded.read_bytes() == (run_a / "test.jsonl").read_bytes()
    ok = identical and round_trip
    assert report(11, ok, f"toy reruns byte-identical: {identical}; "
                          f"dump round-trip byte-stable: {round_trip}")


def test_criterion_12_aux_overfitting_direction(toy_runs):
    # Soft check: logged, never build-failing (the underlying claim is
    # empirical). Small calibration split, default-width aux network.
    runs, _ = toy_runs
    aux_worse = 0
    for r in runs:
        val, test = r.dumps["val"], r.dumps["test"]
        subset = uncertainty_records(
            McPredictionSet(val.ids[:50], val.y[:50], val.means[:50], val.log_vars[:50])
        )
        sigma_art = fit_sigma(subset, likelihood="gaussian", target="predictive")
        aux_art = aux_fit(subset, AuxConfig(hidden_width=16, seed=r.summary["seed"]),
                          target="predictive")
        sigma_uce = uce(calibrated(test, sigma_art), k=10, mode="predictive").uce
        aux_uce = uce(calibrated(test, aux_art), k=10, mode="predictive").uce
        if aux_uce >= sigma_uce:
            aux_worse += 1
    ok = aux_worse >= 3
    report(12, True, f"SOFT: aux test UCE >= sigma test UCE in {aux_worse}/5 seeds "
                     f"(expected direction holds: {ok})")
