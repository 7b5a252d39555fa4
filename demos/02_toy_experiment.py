"""End-to-end toy experiment: train, predict with MC dropout, recalibrate.

Trains the two-headed MLP on a deliberately tiny synthetic training split so
it overfits, runs stochastic forward passes to get a prediction dump, fits
sigma scaling and the auxiliary network on the validation dump, and compares
calibration quality on the test dump before and after. Writes plot-ready
CSVs into ./demo_output/.
"""

from pathlib import Path

from regcal import (
    AuxConfig,
    ToyModelConfig,
    aux_fit,
    batch_nll,
    fit_sigma,
    generate,
    identity_artifact,
    mc_predict,
    mse,
    train,
    uce,
    uncertainty_records,
)
from regcal.calibrate import apply_calibration
from regcal.io import diagram_to_csv, trace_to_csv
from regcal.metrics import calibration_diagram

out_dir = Path("demo_output")
out_dir.mkdir(exist_ok=True)

seed = 0
print("generating synthetic data (tiny training split, heteroscedastic noise)...")
data = generate(seed)
print(f"  train/val/test sizes: {len(data.train.x)}/{len(data.val.x)}/{len(data.test.x)}")

print("training the MC-dropout regressor (a minute at most)...")
cfg = ToyModelConfig(seed=seed)
model, trace = train(data, cfg)
trace_to_csv(trace, out_dir / "trace.csv")
print(f"  final train MSE {trace.train_mse[-1]:.5f}, test MSE {trace.test_mse[-1]:.5f}")
print(f"  final mean test sigma^2 {trace.test_sigma2[-1]:.5f} "
      "(below test MSE: the model is overconfident)")
print(f"  sigma scale refitted on val after each epoch: s = {trace.s[0]:.3f} after "
      f"epoch 1, {trace.s[-1]:.3f} after epoch {trace.n_epochs}")

print("running stochastic forward passes...")
val = mc_predict(model, data.val, cfg.mc_passes, seed=seed + 2, id_prefix="val")
test = mc_predict(model, data.test, cfg.mc_passes, seed=seed + 3, id_prefix="test")

# Each dump is decomposed into its columnar uncertainties once; fits,
# recalibration and metrics all work on those.
val_unc = uncertainty_records(val)
test_unc = uncertainty_records(test)

print("fitting recalibration on the validation dump...")
sigma_art = fit_sigma(val_unc, likelihood="gaussian", target="predictive")
aux_art = aux_fit(val_unc, AuxConfig(seed=seed), target="predictive")
print(f"  sigma scaling: s = {sigma_art.s:.3f}")

print("\ntest-set comparison (uncalibrated vs recalibrated):")
print(f"{'method':<10} {'MSE':>10} {'NLL':>10} {'UCE':>8}")
for name, art in (("none", identity_artifact()), ("sigma", sigma_art), ("aux", aux_art)):
    unc = apply_calibration(test_unc, art)
    row_mse = mse(unc)
    row_nll = batch_nll(unc)
    row_uce = uce(unc, k=10, mode="predictive").uce
    print(f"{name:<10} {row_mse:>10.6f} {row_nll:>10.4f} {row_uce:>8.4f}")
print("(MSE never moves: recalibration leaves the predictions untouched)")

# Calibration diagrams: points below the diagonal mean overconfidence.
diagram_to_csv(calibration_diagram(uce(test_unc, k=10)), out_dir / "diagram_uncalibrated.csv")
diagram_to_csv(
    calibration_diagram(uce(apply_calibration(test_unc, sigma_art), k=10)),
    out_dir / "diagram_sigma.csv",
)
print(f"\nwrote {out_dir}/trace.csv and calibration-diagram CSVs")
print("columns: bin_lower,bin_upper,count,uncert_mean,var_obs "
      "(plot var_obs against uncert_mean; the diagonal is perfect calibration)")
