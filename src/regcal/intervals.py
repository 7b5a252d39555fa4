"""Posterior prediction intervals and their empirical coverage.

A gamma-level interval is y_mean +/- z * sqrt(total) with z = probit(gamma)
= sqrt(2) * erfinv(gamma), assuming a Gaussian predictive distribution. For
d > 1 a record counts as covered only if every output component lies inside
the interval (joint membership; recorded on the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import Uncertainties

DEFAULT_LEVELS = (0.5, 0.9, 0.95, 0.99)

_NORMAL = NormalDist()


def probit(p: float) -> float:
    """sqrt(2) * erfinv(p) for p in [0, 1).

    This is the standard normal quantile of (1+p)/2, the half-width in
    standard deviations of the central interval holding mass p.
    """
    if p < 0.0:
        raise ValueError(f"probit domain is [0, 1): got {p}")
    if p >= 1.0:
        raise ValueError(f"unbounded quantile: probit requires p < 1 (got {p})")
    if p < 0.5:
        return _NORMAL.inv_cdf((1.0 + p) / 2.0)
    # (1+p)/2 would round to 1.0 for p within an ulp of 1; 1-p is exact on
    # [0.5, 1), so go through the mirrored lower tail instead.
    return -_NORMAL.inv_cdf((1.0 - p) / 2.0)


@dataclass
class CoverageTable:
    """Observed coverage of central prediction intervals per nominal level."""

    levels: list[float]
    z_values: list[float]
    observed: list[float]
    membership: str = "joint"  # d > 1: all components must fall inside


def coverage(unc: Uncertainties, levels=DEFAULT_LEVELS) -> CoverageTable:
    """Fraction of ground truths inside y_mean +/- z*sqrt(total) per level.

    Boundary points count as covered. Coverage is non-decreasing in the
    level for fixed data because z is monotone in gamma.
    """
    levels = [float(g) for g in levels]
    for g in levels:
        if not (0.0 < g < 1.0):
            raise ValueError(f"interval level must lie in (0, 1): got {g}")
    z_values = [probit(g) for g in levels]
    abs_resid = np.abs(unc.y - unc.y_mean)  # (m, d)
    sigma = np.sqrt(unc.total)  # (m,)
    observed = []
    for z in z_values:
        half_width = z * sigma
        inside = np.all(abs_resid <= half_width[:, None], axis=1)
        observed.append(float(np.mean(inside)))
    return CoverageTable(levels=levels, z_values=z_values, observed=observed)
