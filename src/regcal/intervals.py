"""Posterior prediction intervals and their empirical coverage.

A gamma-level interval is y_mean +/- z * sqrt(total) with z = probit(gamma)
= sqrt(2) * erfinv(gamma), assuming a Gaussian predictive distribution. For
d > 1 a record counts as covered only if every output component lies inside
the interval (joint membership; recorded on the result).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Uncertainties

DEFAULT_LEVELS = (0.5, 0.9, 0.95, 0.99)

# Rational approximation of the lower-tail normal quantile (Acklam's
# coefficients; relative error below 1.15e-9 over the full open interval).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _norm_quantile_approx(p: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def probit(p: float) -> float:
    """sqrt(2) * erfinv(p) for p in [0, 1).

    The inverse error function is evaluated through the rational
    approximation above (erfinv(p) = quantile((1+p)/2) / sqrt(2)) and then
    refined with a single Newton step on erf, giving absolute error far
    below 1e-9 across the domain.
    """
    if p < 0.0:
        raise ValueError(f"probit domain is [0, 1): got {p}")
    if p >= 1.0:
        raise ValueError(f"unbounded quantile: probit requires p < 1 (got {p})")
    if p < 0.5:
        x = _norm_quantile_approx((1.0 + p) / 2.0) / math.sqrt(2.0)
    else:
        # (1+p)/2 would round to 1.0 for p within an ulp of 1; 1-p is exact
        # on [0.5, 1), so go through the mirrored lower tail instead.
        x = -_norm_quantile_approx((1.0 - p) / 2.0) / math.sqrt(2.0)
    if x < 5.8:
        # Newton step on erf(x) = p; d/dx erf(x) = 2/sqrt(pi) * exp(-x^2).
        # Beyond x ~ 5.8, erf saturates to 1.0 in double precision and the
        # step is pure noise; the rational approximation alone stands there.
        x += (p - math.erf(x)) * (math.sqrt(math.pi) / 2.0) * math.exp(x * x)
    return math.sqrt(2.0) * x


@dataclass
class CoverageTable:
    """Observed coverage of central prediction intervals per nominal level."""

    levels: list[float]
    z_values: list[float]
    observed: list[float]
    membership: str = "joint"  # d > 1: all components must fall inside

    def rows(self):
        return list(zip(self.levels, self.z_values, self.observed))


def coverage(unc: Uncertainties, levels=DEFAULT_LEVELS) -> CoverageTable:
    """Fraction of ground truths inside y_mean +/- z*sqrt(total) per level.

    Boundary points count as covered. Coverage is non-decreasing in the
    level for fixed data because z is monotone in gamma.
    """
    if unc.m < 1:
        raise ValueError("coverage of an empty record sequence")
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
