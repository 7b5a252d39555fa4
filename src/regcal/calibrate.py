"""Fit and apply recalibration of predictive uncertainty.

* sigma scaling: one scalar s multiplies the predictive standard deviation
  (variances by s^2). s depends only on m and the sum of error/scale ratios,
  both read from the likelihood's family record (:mod:`regcal.likelihood`),
  and is fitted exactly by :func:`sigma_closed_form` or by gradient descent
  over rho = log s in :func:`sigma_fit_gd`. Both take a family's raw errors
  and scales, return (s, fit_meta) and agree; :func:`fit_sigma` runs either
  on a set. A ratio sum that is not finite or is 0 fits no s > 0.
* aux scaling: a small two-layer ReLU network mapping log(uncertainty) to
  log(recalibrated uncertainty), fitted by gradient descent on the Gaussian
  NLL with the predictions held fixed at the MC mean.

Both fit on, and apply to, the columnar :class:`Uncertainties` of a set and
leave predicted means untouched, so accuracy (MSE) is conserved bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import CalibrationArtifact, Uncertainties
from .likelihood import family


class CalibrationError(ValueError):
    code = "calibration"  # the CLI's error code


SIGMA_GD_TOLERANCE = 1e-8  # on the step |delta rho| of the gradient-descent sigma fit
# Iteration cap of the gradient-descent sigma fit. The default covers every
# ratio mean a double can hold (at most about 1,500 steps).
SIGMA_GD_MAX_ITERS = 2000
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)  # exp of anything larger overflows


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
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 < self.step_size < math.inf:  # NaN fails both comparisons
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _ratio_sum(errors, scales, scale_name: str) -> tuple[int, float]:
    """m and the checked sum of errors / scales, the only statistics s depends on.

    Raises ``CalibrationError`` when that sum is not finite (for instance a
    subnormal variance overflows its ratio) or its mean is 0 (every error is
    0), since no finite s > 0 fits either.
    """
    errors = np.asarray(errors, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if errors.shape != scales.shape:
        raise ValueError(f"length mismatch: {len(errors)} errors vs {len(scales)} {scale_name}")
    if errors.size == 0:
        raise ValueError("empty input: need at least one record to fit s")
    if (scales <= 0).any():
        raise ValueError(f"all {scale_name} must be > 0")
    if (errors < 0).any():
        raise ValueError("errors must be >= 0")
    with np.errstate(over="ignore"):
        ratio_sum = float(np.add.reduce(errors / scales, axis=None))
    if not math.isfinite(ratio_sum):
        raise CalibrationError(
            f"error / {scale_name[:-1]} ratios do not have a finite sum "
            f"(smallest {scale_name[:-1]} {scales.min():.3g}); s cannot be fitted"
        )
    if ratio_sum / errors.size == 0.0:
        raise CalibrationError(
            f"error / {scale_name[:-1]} ratios have mean 0 (every error is 0); no s > 0 fits"
        )
    return errors.size, ratio_sum


def sigma_closed_form(errors, scales, kind: str = "gaussian"):
    """Fit the scalar s exactly: the minimiser of the ``kind`` family's objective.

    ``errors``/``scales`` are those of the family: squared errors and
    variances (s = sqrt(mean(errors / scales)), exactly 1 when they are equal)
    or absolute errors and sigmas (s = mean(errors / scales)).

    Returns:
        (s, fit_meta) with fit_meta holding iterations (0) and the final objective.
    """
    fam = family(kind)
    m, ratio_sum = _ratio_sum(errors, scales, fam.scale_name)
    s = fam.closed_form(m, ratio_sum)
    return s, {"iterations": 0, "final_objective": fam.objective(s, m, ratio_sum)}


def sigma_fit_gd(errors, scales, kind: str = "gaussian", max_iters: int = SIGMA_GD_MAX_ITERS):
    """Fit the scalar s by gradient descent on the scaled-NLL objective.

    ``errors``/``scales`` are those of the ``kind`` family, as in
    :func:`sigma_closed_form`. The search runs over rho = log s from 0. Per
    record the objective is ``rho + (r / p) exp(-p rho)`` (r the mean ratio),
    whose curvature at the minimum is the family's p, so each step is
    ``(1 - exp(log r - p * rho)) / p``, clipped to 0.5 so far-off starts
    cannot overshoot. The fit stops once |delta rho| <
    ``SIGMA_GD_TOLERANCE``. A ``max_iters`` below 1 raises ``ValueError``;
    running out of ``max_iters`` steps, a zero or non-finite ratio sum and an
    overflowing exp(rho) raise ``CalibrationError``.

    Returns:
        (s, fit_meta) with fit_meta holding iterations, final objective and
        a converged flag, always true.
    """
    if max_iters <= 0:
        raise ValueError("max_iters must be positive")
    fam = family(kind)
    m, ratio_sum = _ratio_sum(errors, scales, fam.scale_name)
    log_ratio_mean = math.log(ratio_sum / m)
    p = fam.p
    rho = 0.0
    for iters in range(1, max_iters + 1):
        step = max(-0.5, min(0.5, (1.0 - math.exp(log_ratio_mean - p * rho)) / p))
        rho -= step
        if abs(step) < SIGMA_GD_TOLERANCE:
            break
    else:
        raise CalibrationError(
            f"sigma fit did not converge in {max_iters} iterations; raise --iters"
        )
    try:
        s = math.exp(rho)
    except OverflowError:
        raise CalibrationError("sigma fit diverged to a non-finite scale") from None
    return s, {"iterations": iters, "final_objective": fam.objective(s, m, ratio_sum),
               "converged": True}


def fit_sigma(unc: Uncertainties, likelihood: str = "gaussian", target: str = "predictive",
              use_gd: bool = False, max_iters: int = SIGMA_GD_MAX_ITERS) -> CalibrationArtifact:
    """Fit a sigma-scaling artifact on a calibration set.

    Uses the exact closed form by default; ``use_gd`` switches to the
    gradient-descent route (the two agree to the fit tolerance), capped at
    ``max_iters`` steps.
    """
    errors, scales = unc.errors_and_scales(likelihood, target)
    if use_gd:
        s, fit_meta = sigma_fit_gd(errors, scales, kind=likelihood, max_iters=max_iters)
    else:
        s, fit_meta = sigma_closed_form(errors, scales, kind=likelihood)
    fit_meta = {"fit": "gd" if use_gd else "closed_form", **fit_meta, "m": len(errors)}
    return CalibrationArtifact(
        method="sigma", likelihood=likelihood, target=target, s=s, fit_meta=fit_meta
    )


# -- auxiliary recalibration network ---------------------------------------

def _aux_pass(x: np.ndarray, params: dict[str, np.ndarray], z, a, g) -> None:
    """Hidden pre-activations z (m, h), activations a (m, h) and output R(x)
    (m,) of the network on the m inputs x, computed into the given buffers in
    the order of the plain expressions ``np.outer(x, w1) + b1``,
    ``maximum(z, 0)`` and ``x + a @ w2 + b2[0]``."""
    np.multiply(x[:, None], params["w1"], out=z)
    np.add(z, params["b1"], out=z)
    np.maximum(z, 0.0, out=a)
    np.matmul(a, params["w2"], out=g)
    np.add(x, g, out=g)
    np.add(g, params["b2"][0], out=g)


def aux_forward(x: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Map log-uncertainty to recalibrated log-uncertainty.

    R(x) = x + w2 . relu(w1 * x + b1) + b2. The skip connection makes the
    map exactly the identity when w2 and b2 are zero, which is (close to)
    the initialization.
    """
    shape = (len(x), len(params["w1"]))
    g = np.empty(len(x))
    _aux_pass(x, params, np.empty(shape), np.empty(shape), g)
    return g


def aux_fit(
    unc: Uncertainties,
    cfg: AuxConfig | None = None,
    target: str = "predictive",
) -> CalibrationArtifact:
    """Fit the two-layer auxiliary recalibration network.

    The network is trained full-batch by gradient descent to minimize the
    Gaussian NLL (constants dropped) of the calibration set with predictions
    fixed at the MC mean and the variance replaced by exp(R(log u)). The
    returned weights are the best seen whose variance stays finite on the set, so the
    training NLL at the artifact is never above the NLL of the near-identity init.
    The network is evaluated once per epoch, plus once for the last update.
    """
    cfg = cfg or AuxConfig()
    err_sq, u = unc.errors_and_scales("gaussian", target)
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

    z, a, dz = np.empty((m, h)), np.empty((m, h)), np.empty((m, h))
    g, fit, dg = np.empty(m), np.empty(m), np.empty(m)

    def evaluate():
        """The loss on the set; leaves the network's pass in z, a and g and
        exp(-g) * err_sq in fit."""
        _aux_pass(x, params, z, a, g)
        np.negative(g, out=fit)
        np.exp(fit, out=fit)
        np.multiply(fit, err_sq, out=fit)
        return float(np.mean(fit + g))

    best_params = {k: v.copy() for k, v in params.items()}
    lr = cfg.step_size
    # An overflow makes the loss non-finite, which the loop reports.
    with np.errstate(over="ignore", invalid="ignore"):
        loss = evaluate()
        best_loss = init_loss = loss
        for epoch in range(1, cfg.epochs + 1):
            if not math.isfinite(loss):
                raise CalibrationError(f"non-finite aux training loss at epoch {epoch}")
            np.subtract(1.0, fit, out=dg)  # dg = (1 - exp(-g) err_sq) / m
            np.divide(dg, m, out=dg)
            grad_w2 = a.T @ dg
            grad_b2 = np.array([dg.sum()])
            np.multiply(dg[:, None], params["w2"], out=dz)  # np.outer(dg, w2) * (z > 0)
            np.multiply(dz, z > 0.0, out=dz)
            grad_w1 = x @ dz
            grad_b1 = dz.sum(axis=0)
            params["w1"] -= lr * grad_w1
            params["b1"] -= lr * grad_b1
            params["w2"] -= lr * grad_w2
            params["b2"] -= lr * grad_b2
            # The loss of the updated weights is also where the next epoch starts.
            loss = evaluate()
            # Weights whose variance exp(g) overflows on the set itself cannot be applied to it.
            if math.isfinite(loss) and loss < best_loss and g.max() <= _LOG_MAX_FLOAT:
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


def apply_calibration(unc: Uncertainties, calib: CalibrationArtifact) -> Uncertainties:
    """Recalibrate per-record uncertainties; predictions stay untouched.

    sigma scaling multiplies variances by s^2 (both summands proportionally
    in predictive mode, only the aleatoric part in aleatoric-only mode); aux
    scaling maps the targeted variance through exp(R(log u)), splitting a
    recalibrated total between the parts in their old proportion. Every
    other field is passed through unchanged, so means are bit-identical to
    the input; an overflow raises ``ValueError`` as in any :class:`Uncertainties`.
    """
    if calib.method == "identity":
        return unc
    epi, alea = unc.epistemic, unc.aleatoric
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if calib.method == "sigma":
            factor = calib.s * calib.s
            if calib.target == "predictive":
                epi = factor * epi
            alea = factor * alea
        elif calib.target == "predictive":
            total = unc.total
            new_total = np.exp(aux_forward(np.log(total), calib.aux))
            epi = new_total / total * epi
            alea = new_total - epi
        else:
            alea = np.exp(aux_forward(np.log(alea), calib.aux))
    return replace(unc, epistemic=epi, aleatoric=alea)
