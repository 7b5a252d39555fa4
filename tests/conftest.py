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
    residual = y - y_mean
    return Uncertainties(
        ids=list(ids),
        residual=residual,
        epistemic=np.zeros(len(total)),
        aleatoric=total,
        pass_err_sq=np.mean(residual**2, axis=1),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def no_dump_cache(tmp_path_factory):
    """Point XDG_CACHE_HOME, for the whole session and every subprocess, at a
    path that cannot be created (it lies under a regular file), so that every
    load_dump parses and no test reads or writes the user's cache. The
    cache's own tests set a directory of their own."""
    blocker = tmp_path_factory.mktemp("no-cache") / "a-file"
    blocker.touch()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        yield
