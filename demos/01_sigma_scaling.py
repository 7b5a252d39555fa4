"""Sigma scaling in isolation: fit a single scalar to miscalibrated variances.

A regression model predicts a variance for every sample. When those
variances are systematically too small, scaling the standard deviation by a
fitted s > 1 restores calibration without touching the predictions. This
script builds such a setting from raw arrays, fits s in closed form and by
gradient descent, and shows the likelihood improving.
"""

import numpy as np

from regcal import sigma_closed_form, sigma_fit_gd
from regcal.likelihood import GAUSSIAN

rng = np.random.default_rng(0)
m = 2000

# True noise standard deviations vary per sample; the model predicts
# variances that are 4x too small (sigma underestimated by 2x).
true_sd = rng.uniform(0.05, 0.3, size=m)
residuals = rng.normal(0.0, true_sd)
predicted_var = (true_sd**2) / 4.0

errors_sq = residuals**2

print("mean squared residual:", errors_sq.mean().round(5))
print("mean predicted variance:", predicted_var.mean().round(5))

# Closed form: s = sqrt(mean(err^2 / var)). Expect s close to 2.
s_closed, _ = sigma_closed_form(errors_sq, predicted_var, kind="gaussian")
print(f"\nclosed-form s = {s_closed:.4f} (expected about 2)")

# Gradient descent on the same objective lands on the same scalar.
s_gd, meta = sigma_fit_gd(errors_sq, predicted_var, kind="gaussian")
print(f"gradient-descent s = {s_gd:.6f} after {meta['iterations']} iterations "
      f"(converged: {meta['converged']})")
print(f"|closed - gd| = {abs(s_closed - s_gd):.2e}")

# The scaled-NLL objective that both routes minimize, evaluated on a grid:
# watch it dip at the fitted s.
ratio = float(np.sum(errors_sq / predicted_var))
for s in (0.5, 1.0, s_closed, 4.0):
    objective = GAUSSIAN.objective(s, m, ratio)
    marker = "  <- fitted" if s == s_closed else ""
    print(f"objective at s={s:.3f}: {objective:10.1f}{marker}")

# The Laplacian variant works on absolute errors and scale parameters.
abs_errors = np.abs(residuals)
predicted_scale = true_sd / 2.0
s_laplace, _ = sigma_closed_form(abs_errors, predicted_scale, kind="laplace")
print(f"\nLaplacian closed-form s = {s_laplace:.4f} "
      "(roughly sqrt(2/pi) * 2 for Gaussian residuals)")
