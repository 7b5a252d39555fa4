"""Posterior prediction intervals and their empirical coverage.

A gamma-level interval is the MC mean +/- z * sqrt(total), z the
likelihood family's central half-width per unit sqrt(total): probit(gamma)
for the Gaussian, ln(1 / (1 - gamma)) for the Laplacian with b =
sqrt(total). A record is covered when its residual lies within +/- z *
sqrt(total); for d > 1 only if every output component does (joint
membership; recorded on the result).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Uncertainties
from .likelihood import family

DEFAULT_LEVELS = (0.5, 0.9, 0.95, 0.99)


@dataclass
class CoverageTable:
    """Observed coverage of central prediction intervals per nominal level."""

    levels: list[float]
    z_values: list[float]
    observed: list[float]
    membership: str = "joint"  # d > 1: all components must fall inside


def coverage(unc: Uncertainties, levels=DEFAULT_LEVELS, kind: str = "gaussian") -> CoverageTable:
    """Fraction of ground truths inside the MC mean +/- z*sqrt(total) per
    level, z from the ``kind`` family. Boundary points count as covered.
    Coverage is non-decreasing in the level for fixed data because z is
    monotone in gamma.
    """
    fam = family(kind)
    levels = [float(g) for g in levels]
    for g in levels:
        if not (0.0 < g < 1.0):
            raise ValueError(f"interval level must lie in (0, 1): got {g}")
    z_values = [fam.half_width(g) for g in levels]
    abs_resid = np.abs(unc.residual)  # (m, d)
    sigma = np.sqrt(unc.total)  # (m,)
    observed = [float(np.mean(np.all(abs_resid <= (z * sigma)[:, None], axis=1))) for z in z_values]
    return CoverageTable(levels=levels, z_values=z_values, observed=observed)
