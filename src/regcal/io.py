"""File formats: JSONL prediction dumps, artifact JSON, CSV/SVG exports.

Dumps are JSON Lines, one record per line:

    {"id": "...", "y": [d reals], "samples": [{"mean": [d reals], "log_var": r}, ...]}

:func:`load_dump` reports the first problem of every invalid line in one
:class:`DumpFormatError`, and only its checked record parser makes those
messages: it tests each sample inline on JSON's own lists and numbers and
formats a message only when a test fails. The file is read in blocks of
whole lines (about ``_BLOCK_BYTES`` characters; one line at a time until a
valid line has fixed d and N), and each block becomes its y, means and
log_vars arrays at once, so no per-record list is kept; the blocks' arrays
are concatenated column by column. A block whose every line is a new
record written exactly as :func:`save_dump` writes it (compact separators,
an id with no escape or control character) skips the checked parser: plain
string operations check each id, one comparison checks the number-free
skeleton of the whole block, and one ``json.loads`` of a flat array reads
all its numbers without building the sample objects. A block with any
other line is declined as a whole, and each of its lines goes to the
checked parser, which loads the same values. Records are separated at
``\n`` only, as JSON Lines specifies; one ``\r`` ending a line is dropped
with it. Reals are serialized with full round-trip precision (shortest
repr), so a load/save cycle is byte-stable. Calibration artifacts are JSON
documents in which every real is a decimal string of full precision.
Every JSON file (artifacts, the ``evaluate`` report, the toy summary) goes
through :func:`write_json`, which refuses a non-finite number, and every
artifact is read through :func:`read_json`, which refuses a non-finite
constant and names the file in its one message for any decoding failure.

A dump read from a regular file is parsed once per content: :func:`load_dump`
keeps the parser's arrays in a content-addressed cache
(``$XDG_CACHE_HOME/regcal``, or ``~/.cache/regcal``) keyed by a SHA-256 of a
format tag, this file's bytes and the dump's bytes, and checks every entry
again before it returns it. Any cache failure falls back to parsing, silently.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from math import isfinite
from stat import S_ISREG

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


# A dump is read in blocks of about this many characters of whole lines: 16 to 64 KiB
# read alike, while larger blocks were slower on lines of 12 KB.
_BLOCK_BYTES = 1 << 16

# The fixed text of a line in save_dump's shape around its id, y and samples, and
# between the numbers of its body: y, then each sample's mean and log_var. In the body
# each fixed text becomes a one-character mark, so that deleting the number
# characters leaves a skeleton that only records of the fixed d and N have; a number
# character inserted into a fixed text leaves it unmarked, so that it fails.
_ID_OPEN, _Y_OPEN, _CLOSE = '{"id":"', '","y":[', "}]}"
_MARKS = {'],"samples":[{"mean":[': "/", '},{"mean":[': ";", '],"log_var":': "|"}
_DROP_NUMBER_CHARS = str.maketrans("", "", "0123456789.eE+-")
_MARKS_TO_COMMAS = str.maketrans("/;|\n", ",,,,")


def _flat_block(lines: list, first_line: dict[str, int], d: int, n: int):
    """The y, means and log_vars arrays of ``lines``, pairs of a line number
    and a non-blank line, when every line is a valid record in save_dump's
    shape with a new id and the fixed d and N; its ids are then claimed.

    Each line's id is checked by plain string operations. The number-free
    skeleton of all the bodies is compared once, and all their numbers are
    read with one ``json.loads`` of a flat array. Any other block returns
    None and claims nothing, so that :func:`_record` checks each line and
    makes its message.
    """
    ids: dict[str, int] = {}
    bodies = []
    for lineno, line in lines:
        id_end = line.find('"', len(_ID_OPEN))
        if (id_end < 0 or not line.startswith(_ID_OPEN) or not line.startswith(_Y_OPEN, id_end)
                or not line.endswith(_CLOSE)):
            return None
        # Without a backslash and with no control or line-break character the
        # raw text is the decoded id.
        rid = line[len(_ID_OPEN):id_end]
        if "\\" in rid or not rid.isprintable() or rid in first_line or rid in ids:
            return None
        ids[rid] = lineno
        bodies.append(line[id_end + len(_Y_OPEN):-len(_CLOSE)])
    text = "\n".join(bodies)
    if any(mark in text for mark in _MARKS.values()):
        return None
    for fixed, mark in _MARKS.items():
        text = text.replace(fixed, mark)
    skeleton = "," * (d - 1) + "/" + ";".join(["," * (d - 1) + "|"] * n)
    if text.translate(_DROP_NUMBER_CHARS) != "\n".join([skeleton] * len(lines)):
        return None
    # Only number tokens are left, so JSON's grammar reads each as _record would.
    try:
        values = np.array(json.loads(f"[{text.translate(_MARKS_TO_COMMAS)}]"), dtype=float)
    except (ValueError, OverflowError):  # a malformed number, or an integer too large for a float
        return None
    if not np.isfinite(values).all():
        return None
    first_line.update(ids)
    values = values.reshape(len(lines), -1)
    samples = values[:, d:].reshape(len(lines), n, d + 1)
    return values[:, :d], samples[:, :, :d], samples[:, :, d]


def _checked(lines: list, first_line: dict[str, int], shape: dict[str, int], errors: list[str]):
    """Parse ``lines``, pairs of a line number and a non-blank line, one at a
    time with :func:`_record`, adding each failing line's messages to
    ``errors``; the arrays of their records, or None when a line of the file
    has failed or none of these is a record."""
    ys, means, log_vars = [], [], []
    for lineno, line in lines:
        try:
            _record(line, lineno, first_line, shape, ys, means, log_vars)
        except _BadLine as exc:
            errors += (f"line {lineno}: {msg}" for msg in exc.args)
    if errors or not ys:
        return None
    d, n = shape["d"], shape["N"]
    return (np.array(ys, dtype=float).reshape(-1, d),
            np.array(means, dtype=float).reshape(-1, n, d),
            np.array(log_vars, dtype=float).reshape(-1, n))


def _blocks(fh, first_line: dict[str, int], shape: dict[str, int], errors: list[str]):
    """Yield the (k, d) y, (k, N, d) means and (k, N) log_vars arrays of
    each block of k records of the dump open as ``fh``, in file order.

    Until a valid line has fixed d and N, a block is one line. After that a
    block is the whole lines of about ``_BLOCK_BYTES`` characters, read
    first by :func:`_flat_block` and, when that declines, line by line by
    :func:`_record`. Every failing line adds its messages to ``errors``;
    from the first one on, nothing more is yielded.
    """
    lineno = 0
    while block := fh.readlines(_BLOCK_BYTES if "N" in shape else 1):
        # Parsed without its "\n" or "\r\n", which inside an unterminated
        # string would be reported as an invalid control character.
        lines = [(i, line.removesuffix("\n").removesuffix("\r"))
                 for i, line in enumerate(block, start=lineno + 1) if line.strip()]
        lineno += len(block)
        if not lines:
            continue
        arrays = _flat_block(lines, first_line, shape["d"], shape["N"]) if "N" in shape else None
        if arrays is None:
            arrays = _checked(lines, first_line, shape, errors)
        if arrays is not None and not errors:
            yield arrays


def _parse_dump(path) -> McPredictionSet:
    """:func:`load_dump` without the cache: read ``path`` a block of lines at
    a time (:func:`_blocks`) and concatenate the blocks' arrays column by
    column."""
    errors: list[str] = []
    first_line: dict[str, int] = {}
    shape: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            blocks = list(_blocks(fh, first_line, shape, errors))
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's read buffer, not from the file.
        raise DumpFormatError(
            f"not UTF-8 text ({exc.reason}, byte 0x{exc.object[exc.start]:02x})") from None
    if errors:
        raise DumpFormatError("; ".join(errors))
    if not first_line:
        raise DumpFormatError("empty dump file")
    # With no failed line, first_line holds exactly the records' ids in file order.
    y, means, log_vars = (np.concatenate(column) for column in zip(*blocks))
    return McPredictionSet(ids=list(first_line), y=y, means=means, log_vars=log_vars)


# -- the cache of parsed dumps -------------------------------------------------

# Hashed into every key with this file's bytes, so that a new entry layout, like any
# change to the parser, leaves every older entry unreachable.
_CACHE_TAG = b"regcal parsed dump 1\n"
# Past this many bytes of entries the oldest (by mtime; a hit refreshes it) are deleted.
_CACHE_MAX_BYTES = 1 << 28
_ENTRY_SUFFIX = ".dump"
_HASH_CHUNK = 1 << 16


@functools.cache
def _parser_bytes() -> bytes:
    with open(__file__, "rb") as fh:
        return fh.read()


def _cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/regcal`` when that is absolute, else
    ``$HOME/.cache/regcal``; None when ``HOME`` is not absolute either."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.environ.get("HOME", ""), ".cache")
    return os.path.join(base, "regcal") if os.path.isabs(base) else None


def _cache_slot(path):
    """The entry path of the regular file ``path`` and the (size, mtime_ns)
    it had before it was hashed; None when the cache cannot serve it."""
    directory = _cache_dir()
    if directory is None:
        return None
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(path)
        if not S_ISREG(st.st_mode):  # a FIFO or a terminal could not be read twice
            return None
        key = hashlib.sha256(_CACHE_TAG)
        key.update(_parser_bytes())
        with open(path, "rb", buffering=0) as fh:
            while chunk := fh.read(_HASH_CHUNK):
                key.update(chunk)
    except OSError:
        return None
    return os.path.join(directory, key.hexdigest() + _ENTRY_SUFFIX), (st.st_size, st.st_mtime_ns)


def _read_entry(entry: str) -> McPredictionSet | None:
    """The set a cache entry holds, or None when it is missing or is not
    what the parser makes: unique string ids, then finite float64 arrays of
    consistent shapes. A hit refreshes the entry's mtime."""
    try:
        with open(entry, "rb") as fh:
            ids = json.loads(fh.readline())
            arrays = [np.load(fh, allow_pickle=False) for _ in range(3)]
            if fh.read(1):
                return None
        if (type(ids) is not list or not all(type(rid) is str for rid in ids)
                or len(set(ids)) != len(ids)):
            return None
        if not all(type(a) is np.ndarray and a.dtype == np.float64 and np.isfinite(a).all()
                   for a in arrays):
            return None
        pset = McPredictionSet(ids, *arrays)  # refuses inconsistent shapes
    # ValueError: bad JSON, an npy header or shapes; EOFError: a truncated entry;
    # RecursionError: deeply nested ids; MemoryError: a header claiming a huge shape.
    except (OSError, ValueError, EOFError, RecursionError, MemoryError):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return pset


def _write_entry(entry: str, signature, path, pset: McPredictionSet) -> None:
    """Store ``pset`` as ``entry`` when ``path`` still has the (size,
    mtime_ns) ``signature`` it was hashed with, then prune the cache."""
    head = json.dumps(pset.ids).encode("ascii") + b"\n"
    arrays = (pset.y, pset.means, pset.log_vars)
    if len(head) + sum(a.nbytes for a in arrays) > _CACHE_MAX_BYTES:
        return
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        st = os.stat(path)
        if (st.st_size, st.st_mtime_ns) != signature:
            return
        with open(tmp, "wb") as fh:
            fh.write(head)
            for a in arrays:
                np.save(fh, a, allow_pickle=False)
        os.replace(tmp, entry)
        _prune(os.path.dirname(entry))
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _prune(directory: str) -> None:
    """Delete the oldest entries until the rest hold at most
    ``_CACHE_MAX_BYTES``."""
    with os.scandir(directory) as it:
        entries = sorted((e.stat().st_mtime_ns, e.name, e.stat().st_size)
                         for e in it if e.name.endswith(_ENTRY_SUFFIX))
    total = sum(size for *_, size in entries)
    for _, name, size in entries:
        if total <= _CACHE_MAX_BYTES:
            break
        os.remove(os.path.join(directory, name))
        total -= size


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
    d; log_var a finite number.

    A regular file is first looked up in the cache by the SHA-256 of its
    bytes (with the format tag and this module's source). A hit passes the
    checks of :func:`_read_entry` and returns exactly the parser's ids and
    arrays. A miss parses (:func:`_parse_dump`) and stores the result unless
    the file's size or mtime changed meanwhile. Errors are never cached, and
    other input, such as a FIFO, is parsed directly.
    """
    slot = _cache_slot(path)
    if slot is not None and (pset := _read_entry(slot[0])) is not None:
        return pset
    pset = _parse_dump(path)
    if slot is not None:
        _write_entry(*slot, path, pset)
    return pset


def _non_finite_record(rid: str) -> ValueError:
    return ValueError(f"record '{rid}': non-finite value, which a dump cannot hold")


def dump_lines(pset: McPredictionSet):
    """Yield the JSONL lines (without newline) of a set, one per record.

    A record with a NaN or an infinity, which :func:`load_dump` would
    refuse, raises ``ValueError`` naming its id.
    """
    for rid, y, means, log_vars in zip(
        pset.ids, pset.y.tolist(), pset.means.tolist(), pset.log_vars.tolist()
    ):
        obj = {
            "id": rid,
            "y": y,
            "samples": [{"mean": mean, "log_var": lv} for mean, lv in zip(means, log_vars)],
        }
        try:
            line = json.dumps(obj, separators=(",", ":"), allow_nan=False)
        except ValueError:
            raise _non_finite_record(rid) from None
        yield line


def save_dump(pset: McPredictionSet, path) -> None:
    """Write the set as a JSONL dump, one :func:`dump_lines` line per record.

    A set with a NaN or an infinity raises ``ValueError`` naming the first
    such record before the file opens, so a refused set leaves no file
    behind and an existing file unchanged.
    """
    finite = (np.isfinite(pset.y).all(axis=1) & np.isfinite(pset.means).all(axis=(1, 2))
              & np.isfinite(pset.log_vars).all(axis=1))
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise _non_finite_record(pset.ids[bad[0]])
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


def _refuse_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def read_json(path):
    """Read strict JSON, the counterpart of :func:`write_json`.

    ``NaN``, ``Infinity`` and ``-Infinity`` are refused. Every decoding
    failure (text that is not UTF-8, malformed JSON, an integer past the
    int_max_str_digits limit, nesting past the decoder's recursion limit)
    raises one ``ValueError``: ``invalid JSON (<reason>) in <path>``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read(), parse_constant=_refuse_constant)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid JSON ({exc}) in {path}") from None


def save_artifact(calib: CalibrationArtifact, path) -> None:
    write_json(artifact_to_json(calib), path)


def load_artifact(path) -> CalibrationArtifact:
    return artifact_from_json(read_json(path))


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
