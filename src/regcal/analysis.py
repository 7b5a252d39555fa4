"""Rejection of unreliable predictions and out-of-distribution comparison.

Rejecting every prediction whose total uncertainty exceeds a threshold
should lower the MSE over the kept records when uncertainty is informative.
The default sweep walks uncertainty quantiles rather than absolute
thresholds so curves are comparable across calibrations (a scale factor on
the uncertainties leaves quantile membership untouched); an absolute-
threshold mode is available for data on a known scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Uncertainties


@dataclass
class RejectionCurve:
    """MSE over kept records per uncertainty threshold.

    ``mse_kept`` entries are NaN where a threshold keeps zero records
    (possible only with user-supplied absolute thresholds); they are marked
    undefined rather than fabricated.
    """

    thresholds: np.ndarray
    mse_kept: np.ndarray
    frac_rejected: np.ndarray
    sweep: str = "quantile"  # or "absolute"


@dataclass
class UncertaintyHistogram:
    """Histogram of per-record uncertainties on shared edges."""

    edges: np.ndarray  # K+1 edges
    counts: np.ndarray  # K counts, summing to m
    mean: float  # of the per-record uncertainties


@dataclass
class OodComparison:
    in_dist: UncertaintyHistogram
    shifted: UncertaintyHistogram
    mean_diff: float  # mean(shifted) - mean(in_dist)
    auroc: float  # of thresholding uncertainty to separate the two sets


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``np.quantile(values, q)`` for q in [0, 1], bit for bit, by numpy's
    default "linear" rule written out: ``np.quantile`` calls ``np.unique``,
    which imports ``numpy.ma``.

    The q-quantile sits at the virtual index (n - 1) q of the sorted values,
    between the two values around it, at the fraction t of the way. numpy
    interpolates as ``a + (b - a) t``, and from t = 0.5 on as
    ``b - (b - a)(1 - t)``. At the last index it takes index -1 for both
    values, so that there t is the virtual index plus 1.
    """
    ordered = np.sort(values)
    index = (len(ordered) - 1) * q
    last = index >= len(ordered) - 1
    below = np.where(last, -1, np.floor(index)).astype(np.intp)
    a, b = ordered[below], ordered[np.where(last, -1, below + 1)]
    t = index - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def rejection_curve(
    unc: Uncertainties,
    steps: int = 50,
    thresholds=None,
) -> RejectionCurve:
    """Sweep uncertainty thresholds, keeping records with total <= threshold.

    With the default quantile sweep the thresholds are the uncertainty
    quantiles at ``steps`` equally spaced fractions in (0, 1]; the final
    entry keeps everything and reproduces the plain MSE exactly. Passing
    explicit ``thresholds`` switches to absolute mode.
    """
    m = unc.m
    totals = unc.total
    err_sq = unc.err_sq

    if thresholds is None:
        if steps < 2:
            raise ValueError(f"steps must be >= 2 (got {steps})")
        thresholds = _quantiles(totals, np.arange(1, steps + 1) / steps)
        sweep = "quantile"
    else:
        thresholds = np.asarray(thresholds, dtype=float)
        sweep = "absolute"

    mse_kept = np.empty(len(thresholds))
    frac_rejected = np.empty(len(thresholds))
    for i, t in enumerate(thresholds):
        kept = totals <= t
        n_kept = int(kept.sum())
        frac_rejected[i] = (m - n_kept) / m
        mse_kept[i] = float(err_sq[kept].mean()) if n_kept else float("nan")
    return RejectionCurve(
        thresholds=np.asarray(thresholds, dtype=float),
        mse_kept=mse_kept,
        frac_rejected=frac_rejected,
        sweep=sweep,
    )


def _auroc(negatives: np.ndarray, positives: np.ndarray) -> float:
    """Probability a positive outranks a negative (ties count half).

    Rank-based Mann-Whitney formulation; identical to the O(n^2) pairwise
    count but usable at realistic sizes.
    """
    combined = np.concatenate([negatives, positives])
    _, group, counts = np.unique(combined, return_inverse=True, return_counts=True)
    # Tied values share the mean of the ranks they span; ranks are 1-based.
    last_rank = np.cumsum(counts)
    ranks = (last_rank - 0.5 * (counts - 1))[group]
    n_neg = len(negatives)
    n_pos = len(positives)
    rank_sum_pos = float(ranks[n_neg:].sum())
    u_stat = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_stat / (n_pos * n_neg)


def ood_compare(
    in_dist: Uncertainties,
    shifted: Uncertainties,
    k: int = 20,
) -> OodComparison:
    """Compare uncertainty histograms of an in-distribution and a shifted set.

    Both histograms share k equal-width bins over the union's [min, max].
    Separation statistics: difference of means and the AUROC of thresholding
    uncertainty to tell the sets apart (0.5 = indistinguishable).
    """
    if k < 1:
        raise ValueError(f"bin count must be >= 1 (got {k})")
    u_in = in_dist.total
    u_sh = shifted.total
    lo = float(min(u_in.min(), u_sh.min()))
    hi = float(max(u_in.max(), u_sh.max()))
    if hi == lo:
        hi = lo + 1.0  # degenerate: all mass lands in the first bin
    edges = np.linspace(lo, hi, k + 1)
    counts_in, _ = np.histogram(u_in, bins=edges)
    counts_sh, _ = np.histogram(u_sh, bins=edges)
    return OodComparison(
        in_dist=UncertaintyHistogram(edges=edges, counts=counts_in, mean=float(u_in.mean())),
        shifted=UncertaintyHistogram(edges=edges, counts=counts_sh, mean=float(u_sh.mean())),
        mean_diff=float(u_sh.mean() - u_in.mean()),
        auroc=_auroc(u_in, u_sh),
    )
