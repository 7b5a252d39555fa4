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
  NLL with the predictions held fixed at the MC mean. The network maps one
  number x, so it is piecewise linear in x with a kink per hidden unit: on
  the records sorted by x each unit is active on a prefix or a suffix, cut
  exactly where ``x*w1 + b1 > 0`` turns (a record on a kink is inactive).
  :func:`aux_fit` sorts once, O(m log m), and then costs O(m + h log h) per
  epoch; :func:`aux_forward` sorts, maps and unsorts. Neither builds an
  (m, h) array, so the hidden width costs no memory per record.

Both fit on, and apply to, the columnar :class:`Uncertainties` of a set and
leave the residuals untouched, so accuracy (MSE) is conserved bit-for-bit.
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
#
# R(x) = x + sum_j w2_j relu(w1_j x + b1_j) + b2 is piecewise linear in the one
# input x, so both the fit and the map work on the records sorted by x: each
# hidden unit is active on a prefix or a suffix of them, and every quantity of
# the network is a sum over such ranges.

_BOTH_SIDES = np.array([[0], [1]])  # the padded sorted records just before and at a cut
_AT_CUT = np.array([[False], [True]])  # a suffix unit is off before its cut and on at it


def _cuts(xs_pad: np.ndarray, w1: np.ndarray, b1: np.ndarray):
    """Where each hidden unit switches along the m sorted finite inputs.

    ``xs_pad`` holds them between -inf and +inf. Unit j is active, that is
    ``x*w1_j + b1_j > 0`` in floating point, on the sorted records [c_j, m)
    when w1_j >= 0 and on [0, c_j) when w1_j < 0 (``prefix``), since that test
    is monotone in x. c is where ``searchsorted`` puts the kink -b1/w1,
    checked against the test on the record on each side of it (the padding
    stands in past the ends). A unit that fails the check, such as one whose
    kink lies within rounding of a record, is counted exactly, so the active
    set is the test's, ties included. Returns (c, prefix).
    """
    xs = xs_pad[1:-1]
    prefix = w1 < 0.0
    c = xs.searchsorted(-b1 / w1)
    wrong = ((xs_pad.take(c + _BOTH_SIDES) * w1 + b1 > 0.0) != prefix) != _AT_CUT
    if wrong.any():
        for j in np.flatnonzero(wrong.any(axis=0)):
            c[j] = np.count_nonzero((xs * w1[j] + b1[j] > 0.0) == prefix[j])
    return c, prefix


def _segments(c: np.ndarray, prefix: np.ndarray, coefs: np.ndarray, m: int):
    """The units' cuts split the m sorted records into h + 1 segments, on each
    of which the same units are active.

    ``coefs`` (2, h) holds each unit's slope w2*w1 and intercept w2*b1. Each
    segment's sums of them add only active units' terms: a forward running sum
    over the suffix units and a backward one over the prefix units, in cut
    order. Returns the per-record (2, m) slope and intercept, and the cut
    order ``rank``, segment ``starts`` and ``lengths`` and ``prefix`` in cut
    order, which locate each unit's active range among the segments.
    """
    h = len(c)
    rank = c.argsort(kind="stable")
    bounds = np.empty(h + 2, dtype=c.dtype)  # segment k is [bounds[k], bounds[k + 1])
    bounds[0], bounds[-1] = 0, m
    c.take(rank, out=bounds[1:-1])
    starts = bounds[:-1]
    lengths = bounds[1:] - starts
    prefix = prefix[rank]
    coefs = coefs.take(rank, axis=1)
    sums = np.zeros((2, h + 1))
    np.where(prefix, 0.0, coefs).cumsum(axis=1, out=sums[:, 1:])
    sums[:, :-1] += np.where(prefix, coefs, 0.0)[:, ::-1].cumsum(axis=1)[:, ::-1]
    return sums.repeat(lengths, axis=1), rank, starts, lengths, prefix


def _outputs(xs: np.ndarray, per_record: np.ndarray, b2: float, out: np.ndarray) -> None:
    """R on the sorted records from their slope and intercept, in the order of
    the plain expression ``x + a @ w2 + b2``."""
    np.multiply(per_record[0], xs, out=out)
    np.add(out, per_record[1], out=out)
    np.add(xs, out, out=out)
    np.add(out, b2, out=out)


def aux_forward(x: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    """Map log-uncertainty to recalibrated log-uncertainty.

    R(x) = x + w2 . relu(w1 * x + b1) + b2. The skip connection makes the
    map exactly the identity when w2 and b2 are zero, which is (close to)
    the initialization. The weights are finite, as every loaded artifact's
    are. The finite inputs are sorted and mapped piecewise (as in
    :func:`aux_fit`): O(m log m) time and O(m + h) memory. An input that is
    not finite, such as the log of an aleatoric variance that underflowed to
    0, gets the plain expression, evaluated once per distinct such value.
    """
    w1, b1, w2, b2 = (params[name] for name in ("w1", "b1", "w2", "b2"))
    g = np.empty(len(x))
    finite = np.isfinite(x)
    rows = np.flatnonzero(finite)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        order = rows[np.argsort(x[rows], kind="stable")]
        xs_pad = np.concatenate(([-np.inf], x[order], [np.inf]))
        c, prefix = _cuts(xs_pad, w1, b1)
        per_record = _segments(c, prefix, w2 * np.stack([w1, b1]), len(order))[0]
        gs = np.empty(len(order))
        _outputs(xs_pad[1:-1], per_record, b2[0], gs)
        g[order] = gs
        if len(rows) < len(x):
            rest = np.flatnonzero(~finite)
            values, inverse = np.unique(x[rest], return_inverse=True)
            g[rest] = (values + np.maximum(np.outer(values, w1) + b1, 0.0) @ w2 + b2[0])[inverse]
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
    training NLL at the artifact is never above the NLL of the near-identity init;
    ``fit_meta["best_epoch"]`` is the epoch that produced them (0 for the init).
    The network is evaluated once per epoch, plus once for the last update.

    R is piecewise linear in x = log u, with a kink where each hidden unit
    switches. The records are sorted by x once, O(m log m); a unit is then
    active on a prefix or suffix of them, cut exactly where ``x*w1 + b1 > 0``
    turns (a record on a kink is inactive, as that test is strict). Each epoch
    sorts the h cuts, reads every record's slope and intercept from running
    sums over them, and takes each gradient from the sums of dg and dg*x over
    the unit's range (dg the loss's derivative in R): grad_w2 = w1*S1 + b1*S0,
    grad_w1 = w2*S1, grad_b1 = w2*S0 and grad_b2 the sum of dg. That is
    O(m + h log h) time per epoch and no (m, h) array. Weights that are not
    all finite count as a non-finite loss.
    """
    cfg = cfg or AuxConfig()
    err_sq, u = unc.errors_and_scales("gaussian", target)
    x = np.log(u)
    m = len(x)

    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_width
    # The layers w1, b1, w2 (h each) and b2 (1), in that order, in one vector;
    # w2 starts small, so the fit starts near the identity map.
    theta = np.concatenate([rng.standard_normal(h), np.zeros(h),
                            rng.standard_normal(h) * 0.01, np.zeros(1)])
    w1, b1, w2 = theta[:h], theta[h:2 * h], theta[2 * h:3 * h]
    first = theta[:2 * h].reshape(2, h)  # rows w1 and b1

    order = np.argsort(x, kind="stable")
    xs_pad = np.concatenate(([-np.inf], x[order], [np.inf]))
    xs, es = xs_pad[1:-1], err_sq[order]
    g, fit = np.empty(m), np.empty(m)
    # dg*x and dg per sorted record, then a 0 that ends the last segment
    terms = np.zeros((2, m + 1))
    grad = np.empty_like(theta)
    segments = None

    def evaluate():
        """The loss on the set; leaves R of the sorted records in g,
        exp(-g) * err_sq in fit and the segments in ``segments``."""
        nonlocal segments
        if not np.isfinite(theta).all():
            return math.nan
        c, prefix = _cuts(xs_pad, w1, b1)
        per_record, *segments = _segments(c, prefix, w2 * first, m)
        _outputs(xs, per_record, theta[-1], g)
        np.negative(g, out=fit)
        np.exp(fit, out=fit)
        np.multiply(fit, es, out=fit)
        return float(np.add.reduce(fit + g)) / m

    best = theta.copy()
    best_epoch = 0
    lr = cfg.step_size
    # An overflow makes the loss non-finite, which the loop reports.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        loss = evaluate()
        best_loss = init_loss = loss
        for epoch in range(1, cfg.epochs + 1):
            if not math.isfinite(loss):
                raise CalibrationError(f"non-finite aux training loss at epoch {epoch}")
            rank, starts, lengths, prefix = segments
            np.subtract(1.0, fit, out=terms[1, :m])  # dg = (1 - exp(-g) err_sq) / m
            np.divide(terms[1, :m], m, out=terms[1, :m])
            np.multiply(terms[1, :m], xs, out=terms[0, :m])
            by_segment = np.add.reduceat(terms, starts, axis=1)
            by_segment *= lengths > 0  # reduceat gives an empty segment its first term
            up_to = by_segment.cumsum(axis=1)
            onward = by_segment[:, ::-1].cumsum(axis=1)[:, ::-1]
            sums = np.empty((2, h))  # S1 and S0 of each unit
            sums[:, rank] = np.where(prefix, up_to[:, :-1], onward[:, 1:])
            np.multiply(w2, sums, out=grad[:2 * h].reshape(2, h))
            np.add.reduce(first * sums, axis=0, out=grad[2 * h:3 * h])
            grad[-1] = up_to[1, -1]
            theta -= lr * grad
            # The loss of the updated weights is also where the next epoch starts.
            loss = evaluate()
            # Weights whose variance exp(g) overflows on the set itself cannot be applied to it.
            if math.isfinite(loss) and loss < best_loss and g.max() <= _LOG_MAX_FLOAT:
                best_loss, best_epoch = loss, epoch
                best = theta.copy()

    return CalibrationArtifact(
        method="aux",
        likelihood="gaussian",
        target=target,
        aux={"w1": best[:h], "b1": best[h:2 * h], "w2": best[2 * h:3 * h], "b2": best[3 * h:]},
        fit_meta={
            "epochs": cfg.epochs,
            "step_size": cfg.step_size,
            "seed": cfg.seed,
            "initial_objective": init_loss,
            "final_objective": best_loss,
            "best_epoch": best_epoch,
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
    other field is passed through unchanged, so residuals are bit-identical
    to the input; an overflow raises ``ValueError`` as in any :class:`Uncertainties`.
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
