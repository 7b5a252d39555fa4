"""File formats: JSONL prediction dumps, artifact JSON, CSV/SVG exports.

Dumps are JSON Lines, one record per line:

    {"id": "...", "y": [d reals], "samples": [{"mean": [d reals], "log_var": r}, ...]}

:func:`load_dump` reports the first problem of every invalid line in one
:class:`DumpFormatError`, and only its checked record parser makes those
messages: it tests each sample inline on JSON's own lists and numbers and
formats a message only when a test fails. Once a valid line has fixed d and
N, a line written exactly as :func:`save_dump` writes it (compact
separators, an id with no escape or control character) skips that parser:
plain string operations check its layout, and one ``json.loads`` of a flat
array reads all its numbers without building the sample objects. Any other
line goes to the checked parser and loads the same values. The file is
read line by line into three flat lists of numbers (y, sample-mean entries
and log_vars), each converted with one ``np.array`` call and a reshape, so
no per-record list is kept. Records are separated at ``\n`` only, as JSON
Lines specifies; one ``\r`` ending a line is dropped with it. Reals are serialized
with full round-trip precision (shortest repr), so a load/save cycle is
byte-stable. Calibration artifacts are JSON documents in which every real
is a decimal string of full precision. Every JSON file (artifacts, the
``evaluate`` report, the toy summary) goes through :func:`write_json`, which
refuses a non-finite number.
"""

from __future__ import annotations

import json
from math import isfinite

import numpy as np

from .core import CalibrationArtifact, McPredictionSet


class DumpFormatError(ValueError):
    code = "dump-format"  # the CLI's error code


class _BadLine(Exception):
    """The problems of one dump line, each message without its line prefix."""


# JSON numbers parse to exactly these types; bool, a subclass of int, is left out.
_NUMBER_TYPES = frozenset((int, float))


def _numbers(value, name: str) -> list:
    """``value`` itself when it is a non-empty JSON array of finite numbers."""
    if type(value) is not list or not value or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise _BadLine(f"field {name} must be a non-empty array of numbers")
    try:
        finite = all(map(isfinite, value))
    except OverflowError:  # a JSON integer too large for a float
        finite = False
    if not finite:
        raise _BadLine(f"non-finite {name}")
    return value


def _record(line: str, lineno: int, first_line: dict[str, int], shape: dict[str, int],
            ys: list, means: list, log_vars: list) -> None:
    """Check one non-blank dump line and append its y, the entries of its
    sample means and its log_vars to the three flat columns.

    Raises :class:`_BadLine` at the first problem. The id and d are claimed
    as soon as each passes its check, so later lines are held to them even
    when this one fails further on; only a valid line fixes N. A failing
    line may leave some of its numbers in the columns, which are then never
    converted.
    """
    try:
        obj = json.loads(line)
    # JSONDecodeError, an integer past the int_max_str_digits limit, or arrays
    # and objects nested past the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise _BadLine(f"invalid JSON ({getattr(exc, 'msg', exc)})") from None
    if not isinstance(obj, dict):
        raise _BadLine("record must be a JSON object")
    missing = [f"missing field {name}" for name in ("id", "y", "samples") if name not in obj]
    if missing:
        raise _BadLine(*missing)
    rid = obj["id"]
    if not isinstance(rid, str):
        raise _BadLine("field id must be a string")
    first = first_line.setdefault(rid, lineno)
    if first != lineno:
        raise _BadLine(f"duplicate id '{rid}' (first on line {first})")
    y = _numbers(obj["y"], "y")
    d = shape.setdefault("d", len(y))
    if len(y) != d:
        raise _BadLine(f"y has length {len(y)}, expected {d}")
    samples = obj["samples"]
    if not isinstance(samples, list) or not samples:
        raise _BadLine("field samples must be a non-empty array")
    # The per-sample tests in message order: the first that fails is reported.
    for j, s in enumerate(samples):
        if type(s) is not dict or "mean" not in s or "log_var" not in s:
            raise _BadLine(f"sample {j} must have mean and log_var")
        mean, log_var = s["mean"], s["log_var"]
        if type(mean) is not list or not mean or not _NUMBER_TYPES.issuperset(map(type, mean)):
            raise _BadLine(f"field samples[{j}].mean must be a non-empty array of numbers")
        try:
            finite = all(map(isfinite, mean))
        except OverflowError:  # a JSON integer too large for a float
            finite = False
        if not finite:
            raise _BadLine(f"non-finite samples[{j}].mean")
        if len(mean) != d:
            raise _BadLine(f"samples[{j}].mean has length {len(mean)}, expected {d}")
        try:
            finite = type(log_var) in _NUMBER_TYPES and isfinite(log_var)
        except OverflowError:
            finite = False
        if not finite:
            raise _BadLine(f"non-finite log_var in sample {j}")
        means += mean
        log_vars.append(log_var)
    n = shape.setdefault("N", len(samples))
    if len(samples) != n:
        raise _BadLine(f"inconsistent N (expected {n}, got {len(samples)})")
    ys += y


# The fixed text of a line in save_dump's shape, around y, the sample body and
# inside it. In the body, each sample separator becomes ";" and each separator
# between a mean and its log_var "|", so that deleting the number characters
# leaves a skeleton that only a record of the fixed d and N has.
_ID_OPEN, _Y_OPEN, _SAMPLES_OPEN, _CLOSE = '{"id":"', '","y":[', '],"samples":[{"mean":[', "}]}"
_NEXT_SAMPLE, _LOG_VAR = '},{"mean":[', '],"log_var":'
_DROP_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")


def _skeletons(d: int, n: int) -> tuple[int, str, str]:
    """d and what y and the marked sample body of a (d, N) record keep once
    the number characters are deleted."""
    return d, "," * (d - 1), ";".join(["," * (d - 1) + "|"] * n)


def _flat_record(line: str, lineno: int, first_line: dict[str, int],
                 skeletons: tuple[int, str, str], ys: list, means: list, log_vars: list) -> bool:
    """Append a valid line written in save_dump's shape to the three flat
    columns and claim its id, reading all its numbers as one JSON array.

    Any other line, duplicate ids included, returns False and changes
    nothing, so that :func:`_record` checks it and makes its message.
    """
    d, y_skeleton, skeleton = skeletons
    if not line.startswith(_ID_OPEN) or not line.endswith(_CLOSE):
        return False
    id_end = line.find('"', len(_ID_OPEN))
    if id_end < 0 or not line.startswith(_Y_OPEN, id_end):
        return False
    # Without a backslash and with no control or line-break character the
    # raw text is the decoded id.
    rid = line[len(_ID_OPEN):id_end]
    if "\\" in rid or not rid.isprintable() or rid in first_line:
        return False
    y_start = id_end + len(_Y_OPEN)
    y_end = line.find("]", y_start)
    if y_end < 0 or not line.startswith(_SAMPLES_OPEN, y_end):
        return False
    y = line[y_start:y_end]
    body = line[y_end + len(_SAMPLES_OPEN):-len(_CLOSE)]
    if y.translate(_DROP_NUMBER_CHARS) != y_skeleton or ";" in body or "|" in body:
        return False
    body = body.replace(_NEXT_SAMPLE, ";").replace(_LOG_VAR, "|")
    if body.translate(_DROP_NUMBER_CHARS) != skeleton:
        return False
    # Only number tokens are left, so JSON's grammar reads each as _record would.
    try:
        numbers = json.loads(f"[{y},{body.replace(';', ',').replace('|', ',')}]")
        if not all(map(isfinite, numbers)):
            return False
    except (ValueError, OverflowError):  # a malformed number, or an integer too large for a float
        return False
    first_line[rid] = lineno
    ys += numbers[:d]
    log_vars += numbers[2 * d::d + 1]
    del numbers[2 * d::d + 1]
    means += numbers[d:]
    return True


def load_dump(path) -> McPredictionSet:
    """Parse and validate a JSONL prediction dump.

    Each non-blank line holds one record: a new string id, a non-empty array
    y of finite numbers, and samples each with a finite numeric log_var and
    a mean of y's length. d comes from the first valid y and N from the
    first valid record. Every invalid line adds its first problem, as
    ``line <n>: ...``, to one :class:`DumpFormatError`; blank lines are
    skipped but counted. Lines end at ``\n`` only, so a U+2028 or U+0085
    inside an id is kept; one ``\r`` ending a line is dropped, so a CRLF
    file loads, and fails, like its LF twin. A file
    that is not UTF-8 raises one :class:`DumpFormatError` without a line.

    Each sample is tested in this order, and the first failing test gives
    its message: an object with mean and log_var; mean a non-empty array
    of numbers (booleans are not numbers); every mean entry finite (an
    integer too large for a float counts as non-finite); mean of length
    d; log_var a finite number. The file is read line by line into three
    flat columns of numbers (y, mean entries, log_vars), and each column
    becomes its array with one conversion and a reshape.

    After the first valid line, a line in :func:`save_dump`'s compact shape
    with an id of no escape, control or line-break character is read as one
    flat JSON array of its numbers. Every other line, and every duplicate id,
    goes through the checked parser, which makes every message.
    """
    errors: list[str] = []
    first_line: dict[str, int] = {}
    shape: dict[str, int] = {}
    ys, means, log_vars = [], [], []
    skeletons = None  # set once a valid line has fixed d and N
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                # Parsed without its "\n" or "\r\n", which inside an unterminated
                # string would be reported as an invalid control character.
                line = line.removesuffix("\n").removesuffix("\r")
                if skeletons and _flat_record(line, lineno, first_line, skeletons,
                                              ys, means, log_vars):
                    continue
                try:
                    _record(line, lineno, first_line, shape, ys, means, log_vars)
                except _BadLine as exc:
                    errors += (f"line {lineno}: {msg}" for msg in exc.args)
                if skeletons is None and "N" in shape:
                    skeletons = _skeletons(shape["d"], shape["N"])
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's read buffer, not from the file.
        raise DumpFormatError(
            f"not UTF-8 text ({exc.reason}, byte 0x{exc.object[exc.start]:02x})") from None
    if errors:
        raise DumpFormatError("; ".join(errors))
    if not first_line:
        raise DumpFormatError("empty dump file")
    # With no failed line, first_line holds exactly the records' ids in file order.
    m, n, d = len(first_line), shape["N"], shape["d"]
    return McPredictionSet(
        ids=list(first_line),
        y=np.array(ys, dtype=float).reshape(m, d),
        means=np.array(means, dtype=float).reshape(m, n, d),
        log_vars=np.array(log_vars, dtype=float).reshape(m, n),
    )


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
    """Read back the reals :func:`_meta_to_json` wrote; every other string stays as spelled."""
    out = {}
    for key, v in meta.items():
        if isinstance(v, str):
            try:
                if _real(v) == v:
                    v = float(v)
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


def write_json(doc: dict, path) -> None:
    """Write strict JSON; a non-finite value raises ``ValueError`` before the file opens."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def save_artifact(calib: CalibrationArtifact, path) -> None:
    write_json(artifact_to_json(calib), path)


def load_artifact(path) -> CalibrationArtifact:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # nested past the decoder's recursion limit
            raise ValueError(f"invalid JSON ({exc})") from None
    return artifact_from_json(doc)


# -- CSV / SVG exports -------------------------------------------------------


def _write_csv(path, header: str, *columns) -> None:
    """One row per position of the columns: Python ints as they are, every
    other value through :func:`_real`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in zip(*columns, strict=True):
            fh.write(",".join(str(v) if type(v) is int else _real(v) for v in row) + "\n")


def trace_to_csv(trace, path) -> None:
    _write_csv(
        path,
        "epoch,train_mse,test_mse,train_sigma2,test_sigma2,train_nll,test_nll,s",
        range(1, trace.n_epochs + 1), trace.train_mse, trace.test_mse, trace.train_sigma2,
        trace.test_sigma2, trace.train_nll, trace.test_nll, trace.s,
    )


def coverage_to_csv(table, path) -> None:
    _write_csv(path, "level,z,observed", table.levels, table.z_values, table.observed)


def rejection_to_csv(curve, path) -> None:
    _write_csv(path, "threshold,frac_rejected,mse_kept",
               curve.thresholds, curve.frac_rejected, curve.mse_kept)


def ood_to_csv(comparison, path) -> None:
    edges = comparison.in_dist.edges
    _write_csv(path, "bin_lower,bin_upper,count_in,count_shifted", edges[:-1], edges[1:],
               comparison.in_dist.counts.tolist(), comparison.shifted.counts.tolist())


def diagram_to_csv(bins, path) -> None:
    rows = [(b.lower, b.upper, b.count, b.uncert_mean, b.var_obs) for b in bins]
    _write_csv(path, "bin_lower,bin_upper,count,uncert_mean,var_obs", *zip(*rows))


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
