import numpy as np
import pytest

from regcal.calibrate import apply_calibration
from regcal.core import McPredictionSet, Uncertainties, identity_artifact
from regcal.metrics import uncertainty_records


def make_record(rid, y, means, log_vars):
    """One record's arrays; y and each mean given as sequences of length d."""
    return (
        rid,
        np.asarray(y, dtype=float),
        np.asarray(means, dtype=float),
        np.asarray(log_vars, dtype=float),
    )


def make_set(records):
    """Stack records from :func:`make_record` into one prediction set."""
    ids, ys, means, log_vars = zip(*records)
    return McPredictionSet(list(ids), np.stack(ys), np.stack(means), np.stack(log_vars))


def random_set(rng, m=50, n=5, d=1, scale=0.1):
    """Random but well-formed prediction set for oracle comparisons."""
    records = []
    for i in range(m):
        y = rng.normal(0.0, 1.0, size=d)
        means = y + rng.normal(0.0, scale, size=(n, d))
        log_vars = rng.normal(np.log(scale**2), 0.5, size=n)
        records.append(make_record(f"r{i:04d}", y, means, log_vars))
    return make_set(records)


def calibrated(pset, calib=identity_artifact()):
    """Decompose a set and apply an artifact (by default, none)."""
    return apply_calibration(uncertainty_records(pset), calib)


def make_uncertainties(rows):
    """Uncertainties from (id, y, y_mean, total) rows, y and y_mean of equal
    length. All variance is aleatoric, as an N=1 dump decomposes."""
    ids, y, y_mean, total = zip(*rows)
    y = np.array([np.atleast_1d(v) for v in y], dtype=float)
    y_mean = np.array([np.atleast_1d(v) for v in y_mean], dtype=float)
    total = np.array(total, dtype=float)
    return Uncertainties(
        ids=list(ids),
        y=y,
        y_mean=y_mean,
        epistemic=np.zeros(len(total)),
        aleatoric=total,
        pass_err_sq=np.mean((y - y_mean) ** 2, axis=1),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
