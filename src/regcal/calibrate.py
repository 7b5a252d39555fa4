"""Fit and apply recalibration of predictive uncertainty.

Two families are supported:

* sigma scaling: a single scalar s multiplies the predictive standard
  deviation, i.e. variances are multiplied by s^2. Fitted either in closed
  form or by gradient descent on the scaled NLL objective; both routes agree.
* aux scaling: a small two-layer ReLU network mapping log(uncertainty) to
  log(recalibrated uncertainty), fitted by gradient descent on the Gaussian
  NLL with the predictions held fixed at the MC mean.

Both fit on, and apply to, the columnar :class:`Uncertainties` of a set.
Neither method touches predicted means, so accuracy (MSE) is conserved
bit-for-bit by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CalibrationArtifact, Uncertainties


class CalibrationError(ValueError):
    pass


# The gradient-descent sigma fit starts at s = 1 and stops once |delta s|
# falls below the tolerance.
SIGMA_GD_INIT_S = 1.0
SIGMA_GD_TOLERANCE = 1e-8


@dataclass
class SigmaFitOptions:
    """Hyperparameters for the gradient-descent sigma fit."""

    max_iters: int = 1000
    step_size: float = 0.01

    def __post_init__(self):
        if self.max_iters <= 0 or self.step_size <= 0:
            raise ValueError("all sigma fit options must be positive")


@dataclass
class AuxConfig:
    """Hyperparameters for the auxiliary recalibration network."""

    hidden_width: int = 16
    seed: int = 0
    epochs: int = 500
    step_size: float = 3e-4

    def __post_init__(self):
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.epochs <= 0 or self.step_size <= 0:
            raise ValueError("epochs and step_size must be positive")


def _ratios(errors, scales, scale_name: str) -> np.ndarray:
    """Checked per-record ratios errors / scales, the only statistic s depends on.

    Raises ``CalibrationError`` when the ratios do not have a finite sum (for
    instance a subnormal variance overflows its ratio), since s is a
    function of that sum and no finite s fits it.
    """
    errors = np.asarray(errors, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if errors.shape != scales.shape:
        raise ValueError(
            f"length mismatch: {len(errors)} errors vs {len(scales)} {scale_name}"
        )
    if errors.size == 0:
        raise ValueError("empty input: need at least one record to fit s")
    if np.any(scales <= 0):
        raise ValueError(f"all {scale_name} must be > 0")
    if np.any(errors < 0):
        raise ValueError("errors must be >= 0")
    with np.errstate(over="ignore"):
        ratios = errors / scales
        ratio_sum = np.sum(ratios)
    if not np.isfinite(ratio_sum):
        raise CalibrationError(
            f"error / {scale_name[:-1]} ratios do not have a finite sum "
            f"(smallest {scale_name[:-1]} {scales.min():.3g}); s cannot be fitted"
        )
    return ratios


def sigma_closed_form_gaussian(errors_sq, variances) -> float:
    """Closed-form scale for the Gaussian objective.

    s = sqrt( mean_i errors_sq_i / variances_i ); the positive root. Returns
    exactly 1 when errors_sq == variances elementwise (already calibrated).
    """
    return float(np.sqrt(np.mean(_ratios(errors_sq, variances, "variances"))))


def sigma_closed_form_laplace(abs_errors, sigmas) -> float:
    """Closed-form scale for the Laplacian objective: mean of |err|/sigma."""
    return float(np.mean(_ratios(abs_errors, sigmas, "sigmas")))


def _sigma_objective(s: float, m: int, ratio_sum: float, kind: str) -> float:
    if kind == "gaussian":
        return m * math.log(s) + 0.5 * ratio_sum / (s * s)
    return m * math.log(s) + ratio_sum / s


def sigma_fit_gd(
    errors,
    scales,
    kind: str = "gaussian",
    opts: SigmaFitOptions | None = None,
):
    """Fit the scalar s by gradient descent on the scaled-NLL objective.

    ``errors``/``scales`` are squared errors and variances for the Gaussian
    kind, absolute errors and sigmas for the Laplacian kind. The search runs
    over rho = log(s), which keeps s positive without constraints; steps are
    clipped to 0.5 in rho so far-off starts cannot overshoot. Iteration
    stops when |delta s| drops below ``SIGMA_GD_TOLERANCE`` or ``opts.max_iters``
    is reached (fit_meta records which).

    Returns:
        (s, fit_meta) with fit_meta holding iterations, final objective and
        a converged flag.
    """
    if kind not in ("gaussian", "laplace"):
        raise ValueError(f"unknown likelihood kind {kind!r}")
    opts = opts or SigmaFitOptions()
    ratios = _ratios(errors, scales, "variances" if kind == "gaussian" else "sigmas")
    m = len(ratios)
    ratio_sum = float(np.sum(ratios))  # sum of err^2/var or |err|/sigma
    ratio_mean = ratio_sum / m

    rho = math.log(SIGMA_GD_INIT_S)
    s = SIGMA_GD_INIT_S
    converged = False
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        # Normalized gradient of the objective w.r.t. rho (divided by m).
        if kind == "gaussian":
            grad = 1.0 - math.exp(-2.0 * rho) * ratio_mean
        else:
            grad = 1.0 - math.exp(-rho) * ratio_mean
        step = opts.step_size * grad
        step = max(-0.5, min(0.5, step))
        rho -= step
        s_new = math.exp(rho)
        if not math.isfinite(s_new):
            raise CalibrationError(
                "sigma fit diverged to a non-finite scale; try a smaller step size"
            )
        delta = abs(s_new - s)
        s = s_new
        if delta < SIGMA_GD_TOLERANCE:
            converged = True
            break
    fit_meta = {
        "iterations": iters,
        "final_objective": _sigma_objective(s, m, ratio_sum, kind),
        "converged": converged,
    }
    return s, fit_meta


def _errors_and_scales(unc: Uncertainties, likelihood: str, target: str):
    """Per-record observed error and predicted scale used by the fits.

    Errors are those of the MC-mean prediction (mean across output
    dimensions, matching the scalar uncertainty): squared errors against
    variances for the Gaussian, absolute errors against sigmas for the
    Laplacian. Predictive targets plug in the total uncertainty,
    aleatoric-only targets only the aleatoric part.
    """
    u = unc.total if target == "predictive" else unc.aleatoric
    if likelihood == "gaussian":
        return unc.err_sq, u
    return unc.abs_err, np.sqrt(u)


def fit_sigma(
    unc: Uncertainties,
    likelihood: str = "gaussian",
    target: str = "predictive",
    opts: SigmaFitOptions | None = None,
    use_gd: bool = False,
) -> CalibrationArtifact:
    """Fit a sigma-scaling artifact on a calibration set.

    Uses the exact closed form by default; ``use_gd`` switches to the
    gradient-descent route (the two agree to the fit tolerance).
    """
    errors, scales = _errors_and_scales(unc, likelihood, target)
    if use_gd:
        s, fit_meta = sigma_fit_gd(errors, scales, kind=likelihood, opts=opts)
        fit_meta = {"fit": "gd", **fit_meta}
    else:
        if likelihood == "gaussian":
            s = sigma_closed_form_gaussian(errors, scales)
        else:
            s = sigma_closed_form_laplace(errors, scales)
        m = len(errors)
        fit_meta = {
            "fit": "closed_form",
            "iterations": 0,
            "final_objective": _sigma_objective(s, m, float(np.sum(errors / scales)), likelihood),
        }
    fit_meta["m"] = len(errors)
    return CalibrationArtifact(
        method="sigma", likelihood=likelihood, target=target, s=s, fit_meta=fit_meta
    )


# -- auxiliary recalibration network ---------------------------------------

def _aux_pass(x: np.ndarray, params: dict[str, np.ndarray]):
    """Hidden pre-activations z, activations a and output R(x) of the network."""
    z = np.outer(x, params["w1"]) + params["b1"]  # (m, h)
    a = np.maximum(z, 0.0)
    return z, a, x + a @ params["w2"] + params["b2"][0]


def aux_forward(x: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Map log-uncertainty to recalibrated log-uncertainty.

    R(x) = x + w2 . relu(w1 * x + b1) + b2. The skip connection makes the
    map exactly the identity when w2 and b2 are zero, which is (close to)
    the initialization.
    """
    return _aux_pass(x, params)[2]


def aux_fit(
    unc: Uncertainties,
    cfg: AuxConfig | None = None,
    target: str = "predictive",
) -> CalibrationArtifact:
    """Fit the two-layer auxiliary recalibration network.

    The network is trained full-batch by gradient descent to minimize the
    Gaussian NLL (constants dropped) of the calibration set with predictions
    fixed at the MC mean and the variance replaced by exp(R(log u)). The
    returned weights are the best seen during training, so the training NLL
    at the artifact is never above the NLL of the near-identity init. The
    network is evaluated once per epoch, plus once for the last update.
    """
    cfg = cfg or AuxConfig()
    err_sq, u = _errors_and_scales(unc, "gaussian", target)
    x = np.log(u)
    m = len(x)

    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_width
    params = {
        "w1": rng.standard_normal(h),
        "b1": np.zeros(h),
        "w2": rng.standard_normal(h) * 0.01,  # small: start near the identity map
        "b2": np.zeros(1),
    }

    def evaluate():
        # An overflow makes the loss non-finite, which the loop reports.
        with np.errstate(over="ignore", invalid="ignore"):
            z, a, g = _aux_pass(x, params)
            return z, a, g, float(np.mean(np.exp(-g) * err_sq + g))

    best_params = {k: v.copy() for k, v in params.items()}
    z, a, g, loss = evaluate()
    best_loss = init_loss = loss

    lr = cfg.step_size
    for epoch in range(1, cfg.epochs + 1):
        if not math.isfinite(loss):
            raise CalibrationError(f"non-finite aux training loss at epoch {epoch}")
        dg = (1.0 - np.exp(-g) * err_sq) / m  # (m,)
        grad_w2 = a.T @ dg
        grad_b2 = np.array([dg.sum()])
        dz = np.outer(dg, params["w2"]) * (z > 0.0)
        grad_w1 = x @ dz
        grad_b1 = dz.sum(axis=0)
        params["w1"] -= lr * grad_w1
        params["b1"] -= lr * grad_b1
        params["w2"] -= lr * grad_w2
        params["b2"] -= lr * grad_b2
        # The loss of the updated weights is also where the next epoch starts.
        z, a, g, loss = evaluate()
        if math.isfinite(loss) and loss < best_loss:
            best_loss = loss
            best_params = {k: v.copy() for k, v in params.items()}

    return CalibrationArtifact(
        method="aux",
        likelihood="gaussian",
        target=target,
        aux=best_params,
        fit_meta={
            "epochs": cfg.epochs,
            "step_size": cfg.step_size,
            "seed": cfg.seed,
            "initial_objective": init_loss,
            "final_objective": best_loss,
            "m": m,
        },
    )


# -- applying artifacts -----------------------------------------------------


def apply_calibration(unc: Uncertainties, calib: CalibrationArtifact | None) -> Uncertainties:
    """Recalibrate per-record uncertainties; predictions stay untouched.

    sigma scaling multiplies variances by s^2 (both summands proportionally
    in predictive mode, only the aleatoric part in aleatoric-only mode); aux
    scaling maps the targeted variance through exp(R(log u)), splitting a
    recalibrated total between the parts in their old proportion. Every
    other field is passed through unchanged, so means are bit-identical to
    the input.
    """
    if calib is None or calib.method == "identity":
        return unc
    epi, alea = unc.epistemic, unc.aleatoric
    if calib.method == "sigma":
        factor = calib.s * calib.s
        if calib.target == "predictive":
            epi = factor * epi
        alea = factor * alea
    else:
        if calib.target == "predictive":
            total = unc.total
            new_total = np.exp(aux_forward(np.log(total), calib.aux))
            epi = new_total / total * epi
            alea = new_total - epi
        else:
            alea = np.exp(aux_forward(np.log(alea), calib.aux))
    return replace(unc, epistemic=epi, aleatoric=alea)
