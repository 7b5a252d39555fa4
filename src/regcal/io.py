"""File formats: JSONL prediction dumps, artifact JSON, CSV/SVG exports.

Dumps are JSON Lines, one record per line:

    {"id": "...", "y": [d reals], "samples": [{"mean": [d reals], "log_var": r}, ...]}

Reals are serialized with full round-trip precision (shortest repr), so a
load/save cycle is byte-stable. Calibration artifacts are JSON documents in
which every real is a decimal string of full precision.
"""

from __future__ import annotations

import json
import math

from .core import CalibrationArtifact, McPredictionSet


class DumpFormatError(ValueError):
    pass


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # a JSON integer too large for a float
        return False


def _check_vector(value, name: str, lineno: int, errors: list[str]):
    if not isinstance(value, list) or not value or not all(_is_number(v) for v in value):
        errors.append(f"line {lineno}: field {name} must be a non-empty array of numbers")
        return None
    if not all(_is_finite(v) for v in value):
        errors.append(f"line {lineno}: non-finite {name}")
        return None
    return [float(v) for v in value]


def load_dump(path) -> McPredictionSet:
    """Parse and validate a JSONL prediction dump.

    All problems are aggregated into one :class:`DumpFormatError` whose
    message lists every offending line number and field. These per-line
    checks are where a dump is validated: each record needs a unique string
    id, a non-empty finite y and at least one sample with a finite mean and
    log_var, with N and d the same on every line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    errors: list[str] = []
    first_line: dict[str, int] = {}
    ids: list[str] = []
    ys: list[list[float]] = []
    means: list[list[list[float]]] = []
    log_vars: list[list[float]] = []
    d = None
    n_samples = None
    any_content = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        any_content = True
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(obj, dict):
            errors.append(f"line {lineno}: record must be a JSON object")
            continue
        line_ok = True
        for fld in ("id", "y", "samples"):
            if fld not in obj:
                errors.append(f"line {lineno}: missing field {fld}")
                line_ok = False
        if not line_ok:
            continue
        if not isinstance(obj["id"], str):
            errors.append(f"line {lineno}: field id must be a string")
            continue
        first = first_line.setdefault(obj["id"], lineno)
        if first != lineno:
            errors.append(f"line {lineno}: duplicate id '{obj['id']}' (first on line {first})")
            continue
        y = _check_vector(obj["y"], "y", lineno, errors)
        if y is None:
            continue
        if d is None:
            d = len(y)
        elif len(y) != d:
            errors.append(f"line {lineno}: y has length {len(y)}, expected {d}")
            continue
        raw_samples = obj["samples"]
        if not isinstance(raw_samples, list) or not raw_samples:
            errors.append(f"line {lineno}: field samples must be a non-empty array")
            continue
        line_means, line_log_vars = [], []
        for j, s in enumerate(raw_samples):
            if not isinstance(s, dict) or "mean" not in s or "log_var" not in s:
                errors.append(f"line {lineno}: sample {j} must have mean and log_var")
                line_means = None
                break
            mean = _check_vector(s["mean"], f"samples[{j}].mean", lineno, errors)
            if mean is None or len(mean) != d:
                if mean is not None:
                    errors.append(
                        f"line {lineno}: samples[{j}].mean has length {len(mean)}, expected {d}"
                    )
                line_means = None
                break
            lv = s["log_var"]
            if not _is_number(lv) or not _is_finite(lv):
                errors.append(f"line {lineno}: non-finite log_var in sample {j}")
                line_means = None
                break
            line_means.append(mean)
            line_log_vars.append(float(lv))
        if line_means is None:
            continue
        if n_samples is None:
            n_samples = len(line_means)
        elif len(line_means) != n_samples:
            errors.append(
                f"line {lineno}: inconsistent N (expected {n_samples}, got {len(line_means)})"
            )
            continue
        ids.append(obj["id"])
        ys.append(y)
        means.append(line_means)
        log_vars.append(line_log_vars)
    if not any_content:
        raise DumpFormatError("empty dump file")
    if errors:
        raise DumpFormatError("; ".join(errors))
    return McPredictionSet(ids=ids, y=ys, means=means, log_vars=log_vars)


def dump_lines(pset: McPredictionSet):
    """Yield the JSONL lines (without newline) of a set, one per record."""
    for rid, y, means, log_vars in zip(
        pset.ids, pset.y.tolist(), pset.means.tolist(), pset.log_vars.tolist()
    ):
        obj = {
            "id": rid,
            "y": y,
            "samples": [{"mean": mean, "log_var": lv} for mean, lv in zip(means, log_vars)],
        }
        yield json.dumps(obj, separators=(",", ":"))


def save_dump(pset: McPredictionSet, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in dump_lines(pset):
            fh.write(line + "\n")


# -- calibration artifacts ---------------------------------------------------


def _real(x) -> str:
    return repr(float(x))


def _meta_to_json(meta: dict) -> dict:
    out = {}
    for key in sorted(meta):
        v = meta[key]
        out[key] = _real(v) if isinstance(v, float) else v
    return out


def _meta_from_json(meta: dict) -> dict:
    out = {}
    for key, v in meta.items():
        if isinstance(v, str):
            try:
                out[key] = float(v)
                continue
            except ValueError:
                pass
        out[key] = v
    return out


def artifact_to_json(calib: CalibrationArtifact) -> dict:
    doc = {
        "method": calib.method,
        "likelihood": calib.likelihood,
        "target": calib.target,
    }
    if calib.method == "sigma":
        doc["s"] = _real(calib.s)
    if calib.method == "aux":
        aux = calib.aux
        doc["aux"] = {
            "h": calib.hidden_width,
            "w1": [_real(v) for v in aux["w1"]],
            "b1": [_real(v) for v in aux["b1"]],
            "w2": [_real(v) for v in aux["w2"]],
            "b2": _real(aux["b2"][0]),
        }
    doc["fit_meta"] = _meta_to_json(calib.fit_meta)
    return doc


def _real_from_json(v, name: str) -> float:
    if isinstance(v, bool):  # float(True) would read as 1.0
        raise ValueError(f"{name} must be a real, got {json.dumps(v)}")
    return float(v)


def artifact_from_json(doc) -> CalibrationArtifact:
    """Rebuild an artifact; every malformed document raises ``ValueError``."""
    if not isinstance(doc, dict):
        raise ValueError("artifact must be a JSON object")
    method = doc.get("method")
    try:
        kwargs = {
            "method": method,
            "likelihood": doc.get("likelihood", "gaussian"),
            "target": doc.get("target", "predictive"),
            "fit_meta": _meta_from_json(doc.get("fit_meta", {})),
        }
        if method == "sigma":
            kwargs["s"] = _real_from_json(doc["s"], "s")
        elif method == "aux":
            aux = doc["aux"]
            h = aux["h"]
            if not isinstance(h, int) or isinstance(h, bool):
                raise ValueError(f"aux field h must be an integer, got {json.dumps(h)}")
            layers = {}
            for name in ("w1", "b1", "w2"):
                if not isinstance(aux[name], list) or len(aux[name]) != h:
                    raise ValueError(f"aux field {name} must be a list of h={h} reals")
                layers[name] = [_real_from_json(v, f"aux field {name}") for v in aux[name]]
            layers["b2"] = [_real_from_json(aux["b2"], "aux field b2")]
            kwargs["aux"] = layers
    except KeyError as exc:
        raise ValueError(f"{method} artifact is missing field {exc}") from None
    except (AttributeError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {method} artifact: {exc}") from None
    return CalibrationArtifact(**kwargs)


def save_artifact(calib: CalibrationArtifact, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(artifact_to_json(calib), fh, indent=2)
        fh.write("\n")


def load_artifact(path) -> CalibrationArtifact:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return artifact_from_json(doc)


# -- CSV / SVG exports -------------------------------------------------------


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def trace_to_csv(trace, path) -> None:
    columns = (trace.train_mse, trace.test_mse, trace.train_sigma2, trace.test_sigma2,
               trace.train_nll, trace.test_nll, trace.s)
    rows = ([str(epoch)] + [_real(v) for v in values]
            for epoch, values in enumerate(zip(*columns), start=1))
    _write_csv(
        path,
        "epoch,train_mse,test_mse,train_sigma2,test_sigma2,train_nll,test_nll,s",
        rows,
    )


def coverage_to_csv(table, path) -> None:
    rows = [[_real(g), _real(z), _real(obs)] for g, z, obs in table.rows()]
    _write_csv(path, "level,z,observed", rows)


def rejection_to_csv(curve, path) -> None:
    rows = [
        [_real(t), _real(fr), _real(mk)]
        for t, fr, mk in zip(curve.thresholds, curve.frac_rejected, curve.mse_kept)
    ]
    _write_csv(path, "threshold,frac_rejected,mse_kept", rows)


def ood_to_csv(comparison, path) -> None:
    edges = comparison.in_dist.edges
    rows = [
        [_real(edges[i]), _real(edges[i + 1]),
         str(int(comparison.in_dist.counts[i])), str(int(comparison.shifted.counts[i]))]
        for i in range(len(edges) - 1)
    ]
    _write_csv(path, "bin_lower,bin_upper,count_in,count_shifted", rows)


def diagram_to_csv(bins, path) -> None:
    rows = [
        [_real(b.lower), _real(b.upper), str(b.count), _real(b.uncert_mean), _real(b.var_obs)]
        for b in bins
    ]
    _write_csv(path, "bin_lower,bin_upper,count,uncert_mean,var_obs", rows)


def diagram_to_svg(bins, path) -> None:
    """Minimal static rendering: per-bin points plus the identity diagonal."""
    size, margin = 400, 40
    span = size - 2 * margin
    xs = [b.uncert_mean for b in bins]
    ys = [b.var_obs for b in bins]
    hi = max(xs + ys) if bins else 1.0
    hi = hi if hi > 0 else 1.0

    def px(v):
        return margin + span * v / hi

    def py(v):
        return size - margin - span * v / hi

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{margin}" '
        'stroke="gray" stroke-dasharray="6,4"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" '
        'stroke="black"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{margin}" y2="{margin}" stroke="black"/>',
    ]
    for b in bins:
        parts.append(
            f'<circle cx="{px(b.uncert_mean):.2f}" cy="{py(b.var_obs):.2f}" r="4" '
            'fill="steelblue"/>'
        )
    parts.append(
        f'<text x="{size // 2}" y="{size - 8}" text-anchor="middle" font-size="12">'
        "predicted uncertainty</text>"
    )
    parts.append(
        f'<text x="12" y="{size // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 12 {size // 2})">observed variance</text>'
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
