"""Predictive-variance decomposition, uncertainty calibration error, and MSE.

:func:`uncertainty_records` is the one place a prediction set is decomposed;
the other functions here take the resulting :class:`Uncertainties` (never
empty, never non-finite), already recalibrated where wanted.

The calibration error follows the binning recipe used for classification
calibration: uncertainties are partitioned into K equal-width bins over
their observed range and the bin-weighted absolute gap between observed
squared deviation and mean predicted uncertainty is accumulated. The result
is reported in percent (x100).

Bin-range decision: bins span [min, max] of the uncertainties actually seen
on the evaluation set, not a fixed [0, 1]. The |B_k|/m weighting makes fixed
empty tails irrelevant, and data-dependent axes match how calibration
diagrams are read.

Bin rule: the edges are ``np.linspace(min, max, K + 1)`` (``[min, min]``, one
bin, when every value is equal) and a record's bin is found among those same
edges, so the report's ``lower``/``upper`` hold exactly its records. A record
on an interior edge counts in the bin above it; the last bin also holds its
upper edge. Every record lands in exactly one bin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import CALIBRATION_TARGETS, BinStats, McPredictionSet, Uncertainties

DEFAULT_BINS = 10


@dataclass
class UceReport:
    """Calibration-error summary plus the per-bin statistics behind it."""

    uce: float  # in percent
    num_bins: int
    mode: str
    m: int
    bins: list[BinStats]

    def to_dict(self) -> dict:
        """The report as JSON-ready values, keys in field order."""
        return asdict(self)


def uncertainty_records(pset: McPredictionSet) -> Uncertainties:
    """Decompose every record's MC samples into epistemic and aleatoric parts.

    Epistemic is the population (1/N) variance of the sample means, computed
    per output dimension and averaged across the d outputs; aleatoric is the
    mean of exp(log_var) over passes. The result is uncalibrated.

    Raises:
        ValueError: naming the first record whose epistemic, aleatoric or
            observed variance overflows to a non-finite value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        y_mean = pset.means.mean(axis=1)
        return Uncertainties(
            ids=pset.ids,
            y=pset.y,
            y_mean=y_mean,
            epistemic=np.mean((pset.means - y_mean[:, None, :]) ** 2, axis=(1, 2)),
            aleatoric=np.mean(np.exp(pset.log_vars), axis=1),
            pass_err_sq=np.mean((pset.means - pset.y[:, None, :]) ** 2, axis=(1, 2)),
        )


def mse(unc: Uncertainties) -> float:
    """Mean over records of the mean-over-d squared error of the MC mean."""
    return float(np.mean(unc.err_sq))


def _bin_assignment(u: np.ndarray, k: int):
    """Assign each uncertainty to one of k equal-width bins over [min, max].

    Returns (indices, edges) under the module's bin rule; there are
    len(edges) - 1 bins, one when every value is equal.
    """
    lo = float(u.min())
    hi = float(u.max())
    edges = np.linspace(lo, hi, k + 1) if hi > lo else np.array([lo, hi])
    idx = np.minimum(np.searchsorted(edges, u, side="right") - 1, len(edges) - 2)
    return idx, edges


def uce(unc: Uncertainties, k: int = DEFAULT_BINS, mode: str = "predictive") -> UceReport:
    """Expected uncertainty calibration error over k equal-width bins.

    predictive mode bins the total uncertainty against the per-MC-sample
    squared deviations about the ground truth (``pass_err_sq``);
    aleatoric_only bins the aleatoric part against the squared error of the
    MC-mean prediction. Recalibrate ``unc`` beforehand to evaluate an
    artifact: calibration moves only the uncertainties, never the observed
    deviations.

    Returns a report whose ``uce`` field is in percent.
    """
    if mode not in CALIBRATION_TARGETS:
        raise ValueError(f"unknown uce mode {mode!r}")
    if k < 1:
        raise ValueError(f"bin count must be >= 1 (got {k})")
    if mode == "predictive":
        u, obs = unc.total, unc.pass_err_sq
    else:
        u, obs = unc.aleatoric, unc.err_sq

    idx, edges = _bin_assignment(u, k)
    m = unc.m
    bins = []
    total = 0.0
    for b in range(len(edges) - 1):
        mask = idx == b
        count = int(mask.sum())
        var_obs = float(obs[mask].mean()) if count else 0.0
        uncert_mean = float(u[mask].mean()) if count else 0.0
        total += (count / m) * abs(var_obs - uncert_mean)
        bins.append(BinStats(k=b, lower=float(edges[b]), upper=float(edges[b + 1]),
                             count=count, var_obs=var_obs, uncert_mean=uncert_mean))
    return UceReport(uce=100.0 * total, num_bins=k, mode=mode, m=m, bins=bins)


def calibration_diagram(report: UceReport) -> list[BinStats]:
    """Per-bin (predicted uncertainty, observed variance) points for plotting.

    The non-empty bins of a :func:`uce` report. Points on the identity line
    correspond to perfect calibration.
    """
    return [b for b in report.bins if b.count > 0]
