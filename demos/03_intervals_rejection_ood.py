"""Downstream uses of calibrated uncertainty: intervals, rejection, OOD.

Builds on the toy regressor: computes prediction-interval coverage before
and after sigma scaling, sweeps a rejection threshold to trade coverage for
accuracy, and compares uncertainty histograms between in-distribution data
and a shifted set.
"""

import numpy as np

from regcal import (
    ToyModelConfig,
    coverage,
    fit_sigma,
    generate,
    mc_predict,
    ood_compare,
    rejection_curve,
    train,
    uncertainty_records,
)
from regcal.calibrate import apply_calibration
from regcal.toymodel import LabeledData, true_mean

seed = 0
data = generate(seed)
cfg = ToyModelConfig(seed=seed)
print("training (reusing the toy experiment setup)...")
model, _ = train(data, cfg)
val = uncertainty_records(
    mc_predict(model, data.val, cfg.mc_passes, seed=seed + 2, id_prefix="val")
)
test = uncertainty_records(
    mc_predict(model, data.test, cfg.mc_passes, seed=seed + 3, id_prefix="test")
)
sigma_art = fit_sigma(val)
test_calibrated = apply_calibration(test, sigma_art)

# --- prediction intervals ---------------------------------------------------
print("\nprediction-interval coverage on the test set:")
print(f"{'level':>6} {'uncalibrated':>14} {'sigma-scaled':>14}")
before = coverage(test)
after = coverage(test_calibrated)
for lvl, obs_b, obs_a in zip(before.levels, before.observed, after.observed):
    print(f"{lvl:>6} {obs_b:>14.3f} {obs_a:>14.3f}")
print("(uncalibrated intervals are too narrow; scaling moves coverage toward nominal)")

# --- rejection --------------------------------------------------------------
curve = rejection_curve(test_calibrated, steps=10)
print("\nrejecting the most uncertain predictions lowers the kept-set MSE:")
print(f"{'frac rejected':>14} {'kept MSE':>10}")
for frac, kept in zip(curve.frac_rejected[::-1], curve.mse_kept[::-1]):
    if not np.isnan(kept):
        print(f"{frac:>14.2f} {kept:>10.5f}")

# --- out-of-distribution comparison ------------------------------------------
# Shifted inputs: x beyond the training range [0, 1].
rng = np.random.default_rng(99)
x_shift = rng.uniform(1.1, 1.6, size=len(data.test.x))
sd_shift = 0.05 + 0.10 * x_shift
y_shift = true_mean(x_shift) + rng.normal(0.0, 1.0, size=len(x_shift)) * sd_shift
shifted_data = LabeledData(x=x_shift, y=y_shift)
shifted = uncertainty_records(
    mc_predict(model, shifted_data, cfg.mc_passes, seed=seed + 7, id_prefix="shift")
)

cmp = ood_compare(test_calibrated, apply_calibration(shifted, sigma_art), k=20)
print("\nout-of-distribution comparison (inputs outside the training range):")
print(f"  mean uncertainty in-dist:  {cmp.in_dist.mean:.4f}")
print(f"  mean uncertainty shifted:  {cmp.shifted.mean:.4f}")
print(f"  AUROC of thresholding uncertainty: {cmp.auroc:.3f}")
print("  histogram (counts per shared bin, in-dist vs shifted):")
for i in range(len(cmp.in_dist.counts)):
    lo, hi = cmp.in_dist.edges[i], cmp.in_dist.edges[i + 1]
    print(f"    [{lo:.4f}, {hi:.4f})  {int(cmp.in_dist.counts[i]):>4} {int(cmp.shifted.counts[i]):>4}")
