"""Predictive-distribution families and the set-level negative log-likelihood.

:data:`FAMILIES` holds the Gaussian and the Laplacian, keyed by the name an
artifact stores in ``likelihood``; every consumer reads a record's formulas
instead of branching on that name, and :func:`family` is the one place an
unknown name is refused. Both centre on the MC mean and spread by a record's
variance u: the Gaussian has variance u, the Laplacian scale b = sqrt(u).
``batch_nll`` keeps the full density constants; the fits drop them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from .core import Uncertainties

HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def probit(p: float) -> float:
    """sqrt(2) * erfinv(p) for p in [0, 1).

    This is the standard normal quantile of (1+p)/2, the half-width in
    standard deviations of the central interval holding mass p.
    """
    if p < 0.0:
        raise ValueError(f"probit domain is [0, 1): got {p}")
    if p >= 1.0:
        raise ValueError(f"unbounded quantile: probit requires p < 1 (got {p})")
    # Imported here: only coverage tables call probit, and statistics pulls in
    # fractions and decimal, which every command would otherwise load at start.
    from statistics import NormalDist

    if p < 0.5:
        return NormalDist().inv_cdf((1.0 + p) / 2.0)
    # (1+p)/2 would round to 1.0 for p within an ulp of 1; 1-p is exact on
    # [0.5, 1), so go through the mirrored lower tail instead.
    return -NormalDist().inv_cdf((1.0 - p) / 2.0)


@dataclass(frozen=True)
class Family:
    """One predictive family. Sigma scaling multiplies sqrt(u) by s, and its
    objective is m log s + ratio_sum / (p s^p), ratio_sum = sum(error / scale)."""

    name: str
    p: float  # s enters the objective as s^p
    scale_name: str  # what the scales are called in messages
    error_and_scale: Callable[[Uncertainties, np.ndarray], tuple]  # (unc, u) -> per-record pair
    closed_form: Callable[[int, float], float]  # s minimising the objective
    objective: Callable[[float, int, float], float]  # (s, m, ratio_sum) -> objective
    nll_terms: Callable[[np.ndarray, np.ndarray], np.ndarray]  # full per-record NLL
    half_width: Callable[[float], float]  # central level-gamma half-width per sqrt(u)


GAUSSIAN = Family(
    "gaussian", p=2.0, scale_name="variances",
    error_and_scale=lambda unc, u: (unc.err_sq, u),
    closed_form=lambda m, ratio_sum: math.sqrt(ratio_sum / m),
    objective=lambda s, m, ratio_sum: m * math.log(s) + 0.5 * ratio_sum / (s * s),
    nll_terms=lambda errors, scales: HALF_LOG_2PI + 0.5 * np.log(scales) + errors / (2.0 * scales),
    half_width=probit,
)

LAPLACE = Family(
    "laplace", p=1.0, scale_name="sigmas",
    error_and_scale=lambda unc, u: (np.mean(np.abs(unc.y - unc.y_mean), axis=1), np.sqrt(u)),
    closed_form=lambda m, ratio_sum: ratio_sum / m,
    objective=lambda s, m, ratio_sum: m * math.log(s) + ratio_sum / s,
    nll_terms=lambda errors, scales: np.log(2.0 * scales) + errors / scales,
    # P(|e| <= w) = 1 - exp(-w / b), so w = b ln(1 / (1 - gamma))
    half_width=lambda gamma: -math.log1p(-gamma),
)

FAMILIES = {fam.name: fam for fam in (GAUSSIAN, LAPLACE)}


def family(name: str) -> Family:
    """The family an artifact's ``likelihood`` names; ``ValueError`` for any other value."""
    if isinstance(name, str) and name in FAMILIES:  # an artifact may hold a list here
        return FAMILIES[name]
    raise ValueError(f"unknown likelihood {name!r}")


def batch_nll(unc: Uncertainties, kind: str = "gaussian") -> float:
    """Full test-set NLL at the MC mean under the (calibrated) total uncertainty S2.

    The mean over records of the ``kind`` family's term: 1/2 log(2 pi) +
    1/2 log(S2) + e2 / (2 S2) for the Gaussian, log(2 b) + |e| / b with
    b = sqrt(S2) for the Laplacian, errors averaged over output dimensions.
    A zero total or an unknown kind raises ``ValueError``.
    """
    errors, scales = unc.errors_and_scales(kind, "predictive")
    # A subnormal total can overflow the error term to inf; the caller
    # decides what a non-finite NLL means, so no RuntimeWarning is printed.
    with np.errstate(over="ignore"):
        terms = family(kind).nll_terms(errors, scales)
    return float(np.mean(terms))
