"""Set-level negative log-likelihood under a Gaussian or Laplacian model.

``batch_nll`` keeps the full density constants, so the reported number is a
proper negative log-likelihood that can be compared across models. The
training objectives (``toymodel.loss_and_grads``, the sigma and aux fits)
drop those constants and compute their own terms.
"""

from __future__ import annotations

import math

import numpy as np

from .core import LIKELIHOOD_KINDS, Uncertainties

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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
