"""Downstream uses of calibrated uncertainty: intervals, rejection, OOD.

Builds on the toy experiment of ``regcal toy``, run through
:func:`regcal.experiment`: prints the prediction-interval coverage of its
test dump before and after sigma scaling, sweeps a rejection threshold to
trade coverage for accuracy, and compares uncertainty histograms between
in-distribution data and a shifted set.
"""

import numpy as np

from regcal import (
    ToyModelConfig,
    apply_calibration,
    experiment,
    mc_predict,
    ood_compare,
    rejection_curve,
    uncertainty_records,
)
from regcal.toymodel import NOISE_FLOOR, NOISE_SLOPE, LabeledData, true_mean

seed = 0
cfg = ToyModelConfig(seed=seed)
print("training (reusing the toy experiment setup)...")
result = experiment(cfg)
test_calibrated = apply_calibration(uncertainty_records(result.dumps["test"]), result.sigma)

# --- prediction intervals ---------------------------------------------------
print("\nprediction-interval coverage on the test set:")
print(f"{'level':>6} {'uncalibrated':>14} {'sigma-scaled':>14}")
before = result.summary["test"]["none"]["coverage"]
after = result.summary["test"]["sigma"]["coverage"]
for lvl in before:
    print(f"{lvl:>6} {before[lvl]:>14.3f} {after[lvl]:>14.3f}")
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
x_shift = rng.uniform(1.1, 1.6, size=len(result.dumps["test"].ids))
sd_shift = NOISE_FLOOR + NOISE_SLOPE * x_shift
y_shift = true_mean(x_shift) + rng.normal(0.0, 1.0, size=len(x_shift)) * sd_shift
shifted_data = LabeledData(x=x_shift, y=y_shift)
shifted = uncertainty_records(
    mc_predict(result.model, shifted_data, cfg.mc_passes, seed=seed + 7, id_prefix="shift")
)

cmp = ood_compare(test_calibrated, apply_calibration(shifted, result.sigma), k=20)
print("\nout-of-distribution comparison (inputs outside the training range):")
print(f"  mean uncertainty in-dist:  {cmp.in_dist.mean:.4f}")
print(f"  mean uncertainty shifted:  {cmp.shifted.mean:.4f}")
print(f"  AUROC of thresholding uncertainty: {cmp.auroc:.3f}")
print("  histogram (counts per shared bin, in-dist vs shifted):")
for i in range(len(cmp.in_dist.counts)):
    lo, hi = cmp.in_dist.edges[i], cmp.in_dist.edges[i + 1]
    print(f"    [{lo:.4f}, {hi:.4f})  {int(cmp.in_dist.counts[i]):>4} {int(cmp.shifted.counts[i]):>4}")
