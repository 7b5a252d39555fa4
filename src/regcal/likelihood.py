"""Negative log-likelihoods for heteroscedastic Gaussian and Laplacian models.

Two flavours live here on purpose:

* per-sample losses (``gaussian_nll``, ``laplace_nll``) drop additive
  constants, as a training objective should;
* ``batch_nll`` keeps the full density constants so the reported number is a
  proper negative log-likelihood that can be compared across models.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LIKELIHOOD_KINDS, Uncertainties

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _check_lengths(y, y_hat):
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError(
            f"dimension mismatch: y has length {y.shape[-1] if y.ndim else 1}, "
            f"y_hat has length {y_hat.shape[-1] if y_hat.ndim else 1}"
        )
    return y, y_hat


def gaussian_nll(y, y_hat, log_var: float) -> float:
    """Per-sample Gaussian NLL term, constants dropped.

    Computes ``exp(-log_var) * ||y - y_hat||^2 + log_var``. Working in
    log-variance keeps the term finite for any finite input (no division by
    a predicted zero variance).
    """
    y, y_hat = _check_lengths(y, y_hat)
    err_sq = float(np.sum((y - y_hat) ** 2))
    return math.exp(-log_var) * err_sq + log_var


def laplace_nll(y, y_hat, log_sigma: float) -> float:
    """Per-sample Laplacian NLL term, constants dropped.

    Computes ``exp(-log_sigma) * ||y - y_hat||_1 + log_sigma``. The scale
    parameter is predicted as log sigma (not log sigma^2); the choice is
    internal and only matters for interpreting raw head outputs.
    """
    y, y_hat = _check_lengths(y, y_hat)
    err_l1 = float(np.sum(np.abs(y - y_hat)))
    return math.exp(-log_sigma) * err_l1 + log_sigma


def batch_nll(unc: Uncertainties, kind: str = "gaussian") -> float:
    """Full test-set NLL at the MC mean under the (calibrated) total uncertainty.

    For the Gaussian this is the mean over records of

        1/2 log(2 pi) + 1/2 log(S2) + e2 / (2 S2)

    where ``S2`` is the total uncertainty and ``e2`` the squared error of
    the MC-aggregated mean (mean across output dimensions for d > 1,
    consistent with the scalar uncertainty). Lower values indicate better
    calibration.

    Raises:
        ValueError: if any record has zero total uncertainty, or the
            likelihood kind is unknown.
    """
    if kind not in LIKELIHOOD_KINDS:
        raise ValueError(f"unknown likelihood kind {kind!r}")
    s2 = unc.total
    degenerate = np.flatnonzero(s2 <= 0.0)
    if degenerate.size:
        i = degenerate[0]
        raise ValueError(f"degenerate uncertainty: record '{unc.ids[i]}' has total {s2[i]}")
    # A subnormal total can overflow the error term to inf; the caller
    # decides what a non-finite NLL means, so no RuntimeWarning is printed.
    with np.errstate(over="ignore"):
        if kind == "gaussian":
            terms = HALF_LOG_2PI + 0.5 * np.log(s2) + unc.err_sq / (2.0 * s2)
        else:
            # Laplace scale b = sqrt(total); mean-across-d absolute error.
            b = np.sqrt(s2)
            terms = np.log(2.0 * b) + unc.abs_err / b
    return float(np.mean(terms))
