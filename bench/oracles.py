"""Reference computations and output checks, written from the documented formulas.

The oracles work on the dense arrays of :mod:`gen` with plain numpy and do
not import the program. Every check returns a list of problems (empty when
the output is right), so a failing output never aborts the run. Reals are
compared to ``REL_TOL`` relative unless a check says otherwise.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

REL_TOL = 1e-9
DEFAULT_LEVELS = (0.5, 0.9, 0.95, 0.99)
HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# -- reading outputs ----------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(path):
    """Parse a JSON file; Infinity/NaN raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def read_csv(path) -> list[list[float]]:
    """Numeric rows of a CSV export below its header; non-finite cells raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:] if line]
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"non-finite value in {path}")
    return rows


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def _cmp(problems: list[str], what: str, got: float, want: float, rel: float = REL_TOL):
    if not close(float(got), float(want), rel):
        problems.append(f"{what}: got {got!r}, oracle {want!r}")


# -- the formulas ---------------------------------------------------------------


class Uncert:
    """Decomposed, optionally recalibrated uncertainties of one dump."""

    def __init__(self, dump, artifact: dict | None = None):
        self.y = dump.y
        self.y_mean = dump.means.mean(axis=1)  # (m, d)
        self.resid = self.y - self.y_mean
        self.err_sq = np.mean(self.resid**2, axis=1)
        self.obs_predictive = np.mean((dump.means - dump.y[:, None, :]) ** 2, axis=(1, 2))
        epi = np.mean((dump.means - self.y_mean[:, None, :]) ** 2, axis=(1, 2))
        alea = np.mean(np.exp(dump.log_vars), axis=1)
        self.epistemic, self.aleatoric = apply_artifact(epi, alea, artifact)
        self.total = self.epistemic + self.aleatoric


def aux_map(x: np.ndarray, aux: dict) -> np.ndarray:
    """R(x) = x + w2 . relu(w1 * x + b1) + b2 from an artifact's ``aux`` block."""
    w1, b1, w2 = (np.array([float(v) for v in aux[k]]) for k in ("w1", "b1", "w2"))
    z = np.outer(x, w1) + b1
    return x + np.maximum(z, 0.0) @ w2 + float(aux["b2"])


def apply_artifact(epi: np.ndarray, alea: np.ndarray, artifact: dict | None):
    """Recalibrate (epistemic, aleatoric) as an artifact document prescribes."""
    if artifact is None or artifact["method"] == "identity":
        return epi, alea
    predictive = artifact.get("target", "predictive") == "predictive"
    if artifact["method"] == "sigma":
        factor = float(artifact["s"]) ** 2
        return (factor * epi if predictive else epi), factor * alea
    if predictive:
        total = epi + alea
        new_total = np.exp(aux_map(np.log(total), artifact["aux"]))
        new_epi = new_total / total * epi
        return new_epi, new_total - new_epi
    return epi, np.exp(aux_map(np.log(alea), artifact["aux"]))


def sigma_s(dump, likelihood: str = "gaussian", target: str = "predictive") -> float:
    """Closed-form sigma-scaling factor."""
    u = Uncert(dump)
    scale = u.total if target == "predictive" else u.aleatoric
    if likelihood == "gaussian":
        return float(np.sqrt(np.mean(u.err_sq / scale)))
    return float(np.mean(np.mean(np.abs(u.resid), axis=1) / np.sqrt(scale)))


def mse(u: Uncert) -> float:
    return float(np.mean(u.err_sq))


def gaussian_nll(u: Uncert) -> float:
    return float(np.mean(HALF_LOG_2PI + 0.5 * np.log(u.total) + u.err_sq / (2.0 * u.total)))


def uce_bins(u: Uncert, k: int = 10, mode: str = "predictive"):
    """Equal-width bins over [min, max] of the uncertainties; upper edge of the
    last bin inclusive, interior ties to the higher bin.

    Returns (uce_percent, bins) with bins a list of (count, uncert_mean, var_obs).
    """
    unc = u.total if mode == "predictive" else u.aleatoric
    obs = u.obs_predictive if mode == "predictive" else u.err_sq
    m = len(unc)
    lo, hi = float(unc.min()), float(unc.max())
    if lo == hi:
        bins = [(m, float(unc.mean()), float(obs.mean()))]
    else:
        edges = np.linspace(lo, hi, k + 1)
        idx = np.clip(np.searchsorted(edges, unc, side="right") - 1, 0, k - 1)
        bins = []
        for b in range(k):
            sel = idx == b
            n = int(sel.sum())
            bins.append((n, float(unc[sel].mean()) if n else 0.0, float(obs[sel].mean()) if n else 0.0))
    total = sum(n / m * abs(var_obs - mean_u) for n, mean_u, var_obs in bins if n)
    return 100.0 * total, bins


def coverage(u: Uncert, levels=DEFAULT_LEVELS) -> list[tuple[float, float, float]]:
    """(level, z, observed joint coverage) rows; z from the standard normal quantile."""
    rows = []
    sigma = np.sqrt(u.total)
    for g in levels:
        z = NormalDist().inv_cdf((1.0 + g) / 2.0)
        inside = np.all(np.abs(u.resid) <= z * sigma[:, None], axis=1)
        rows.append((g, z, float(np.mean(inside))))
    return rows


def aux_objective(dump, aux: dict, target: str = "predictive") -> float:
    """Training objective of the aux network at the given weights."""
    u = Uncert(dump)
    scale = u.total if target == "predictive" else u.aleatoric
    g = aux_map(np.log(scale), aux)
    return float(np.mean(np.exp(-g) * u.err_sq + g))


# -- checks of the program's outputs ------------------------------------------------


def check_sigma_artifact(path, dump, likelihood="gaussian", target="predictive", rel=REL_TOL):
    """The fitted s at the closed form. For the Laplace likelihood both scale
    conventions pass: b = sqrt(u) (the program's today) and the variance-matched
    b = sqrt(u / 2), which gives sqrt(2) times that s; which one is right is an
    open item of the program."""
    doc = strict_json(path)
    if doc.get("method") != "sigma":
        return [f"{path}: method {doc.get('method')!r}, expected sigma"]
    got, want = float(doc["s"]), sigma_s(dump, likelihood, target)
    accepted = [want] if likelihood == "gaussian" else [want, want * math.sqrt(2.0)]
    if not any(close(got, w, rel) for w in accepted):
        return [f"{path} s: got {got!r}, oracle {want!r}"]
    return []


def check_aux_artifact(path, dump, target="predictive"):
    problems: list[str] = []
    doc = strict_json(path)
    if doc.get("method") != "aux":
        return [f"{path}: method {doc.get('method')!r}, expected aux"]
    meta = doc.get("fit_meta", {})
    if "final_objective" in meta:
        final = float(meta["final_objective"])
        _cmp(problems, f"{path} final_objective", final, aux_objective(dump, doc["aux"], target))
        if "initial_objective" in meta and final > float(meta["initial_objective"]):
            problems.append(f"{path}: final objective above the initial one")
    return problems


def check_report(path, dump, artifact, bins=10):
    problems: list[str] = []
    doc = strict_json(path)
    u = Uncert(dump, artifact)
    m, n, d = dump.means.shape
    if (doc.get("m"), doc.get("n_samples"), doc.get("d")) != (m, n, d):
        problems.append(f"{path}: sizes {doc.get('m')},{doc.get('n_samples')},{doc.get('d')}")
    _cmp(problems, f"{path} mse", doc["mse"], mse(u))
    _cmp(problems, f"{path} nll", doc["nll"], gaussian_nll(u))
    for mode in ("predictive", "aleatoric_only"):
        _cmp(problems, f"{path} uce_{mode}", doc[f"uce_{mode}"]["uce"], uce_bins(u, bins, mode)[0])
    return problems


def check_diagram(path, dump, artifact, bins=10, svg=None):
    problems: list[str] = []
    rows = read_csv(path)
    want = [b for b in uce_bins(Uncert(dump, artifact), bins)[1] if b[0]]
    if len(rows) != len(want):
        return [f"{path}: {len(rows)} bins, oracle {len(want)}"]
    for row, (n, mean_u, var_obs) in zip(rows, want):
        if int(row[2]) != n:
            problems.append(f"{path}: bin count {int(row[2])}, oracle {n}")
        _cmp(problems, f"{path} uncert_mean", row[3], mean_u)
        _cmp(problems, f"{path} var_obs", row[4], var_obs)
    if svg is not None:
        with open(svg, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.startswith("<svg") or text.count("<circle") != len(want):
            problems.append(f"{svg}: not an SVG with one point per non-empty bin")
    return problems


def check_coverage(path, dump, artifact, levels=DEFAULT_LEVELS):
    problems: list[str] = []
    rows = read_csv(path)
    want = coverage(Uncert(dump, artifact), levels)
    if len(rows) != len(want):
        return [f"{path}: {len(rows)} levels, expected {len(want)}"]
    for (g, z, obs), (wg, wz, wobs) in zip(rows, want):
        _cmp(problems, f"{path} level", g, wg)
        _cmp(problems, f"{path} z({wg})", z, wz)
        _cmp(problems, f"{path} coverage({wg})", obs, wobs)
    return problems


def check_reject(path, dump, artifact, steps=50):
    problems: list[str] = []
    rows = read_csv(path)
    u = Uncert(dump, artifact)
    if len(rows) != steps:
        return [f"{path}: {len(rows)} thresholds, expected {steps}"]
    for t, frac, mse_kept in rows:
        kept = u.total <= t * (1.0 + 1e-12)  # the top threshold is a record's own total
        _cmp(problems, f"{path} frac_rejected({t!r})", frac, 1.0 - kept.mean())
        _cmp(problems, f"{path} mse_kept({t!r})", mse_kept, float(u.err_sq[kept].mean()))
    if rows[-1][1] != 0.0:
        problems.append(f"{path}: last threshold rejects {rows[-1][1]!r}")
    _cmp(problems, f"{path} last mse_kept", rows[-1][2], mse(u))
    return problems


def check_ood(path, dump_in, dump_shifted, artifact, bins=20):
    problems: list[str] = []
    rows = read_csv(path)
    u_in = Uncert(dump_in, artifact).total
    u_sh = Uncert(dump_shifted, artifact).total
    if len(rows) != bins:
        return [f"{path}: {len(rows)} bins, expected {bins}"]
    lo = min(u_in.min(), u_sh.min())
    hi = max(u_in.max(), u_sh.max())
    want_edges = np.linspace(lo, hi, bins + 1)
    edges = np.array([r[0] for r in rows] + [rows[-1][1]])
    for got, want in zip(edges, want_edges):
        _cmp(problems, f"{path} edge", got, want)
    for col, u in ((2, u_in), (3, u_sh)):
        counts = [int(r[col]) for r in rows]
        # lo and hi are records' own totals: keep a last-bit difference inside
        if counts != np.histogram(np.clip(u, edges[0], edges[-1]), bins=edges)[0].tolist():
            problems.append(f"{path}: histogram column {col} disagrees with the oracle")
    return problems


def check_toy_summary(path, test_dump, sigma_doc: dict, aux_doc: dict, levels=DEFAULT_LEVELS):
    """The toy summary: MSE bit-identical across calibrations, every number at the oracle."""
    problems: list[str] = []
    doc = strict_json(path)
    entries = doc["test"]
    mses = {name: entries[name]["mse"] for name in ("none", "sigma", "aux")}
    if len(set(mses.values())) != 1:
        problems.append(f"{path}: mse differs across calibrations {mses}")
    _cmp(problems, f"{path} sigma s", entries["sigma"]["s"], float(sigma_doc["s"]))
    for name, artifact in (("none", None), ("sigma", sigma_doc), ("aux", aux_doc)):
        u = Uncert(test_dump, artifact)
        entry = entries[name]
        _cmp(problems, f"{path} {name} mse", entry["mse"], mse(u))
        _cmp(problems, f"{path} {name} nll", entry["nll"], gaussian_nll(u))
        for mode in ("predictive", "aleatoric_only"):
            _cmp(problems, f"{path} {name} uce_{mode}", entry[f"uce_{mode}"], uce_bins(u, 10, mode)[0])
        for g, _, obs in coverage(u, levels):
            _cmp(problems, f"{path} {name} coverage({g})", entry["coverage"][repr(g)], obs)
    return problems
