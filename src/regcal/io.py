"""File formats: the dump reader of the dump commands, artifact JSON, CSV/SVG exports.

The JSONL dump format, its checked parser and its writer live in
:mod:`regcal.jsonl`. The dump commands read a dump through
:func:`load_uncertainties`, which keeps only the decomposed columns of
each block as it is parsed. Calibration artifacts are JSON documents in
which every real is a decimal string of full precision. Every JSON file
(artifacts, the ``evaluate`` report, the toy summary) goes through
:func:`write_json`, which refuses a non-finite number and names its key
path, and every artifact is read through :func:`read_json`, which refuses a
non-finite constant and names the file in its one message for any decoding
failure.

A dump read from a regular file is parsed once per content:
:func:`load_uncertainties` keeps the ids, the four decomposed columns
(``residual``, ``epistemic``, ``aleatoric``, ``pass_err_sq``) and N in a
content-addressed cache (``$XDG_CACHE_HOME/regcal``, or
``~/.cache/regcal``) keyed by a SHA-256 of what makes an entry and of the
bytes that were parsed, and checks every entry again before it returns it.
What makes an entry (:func:`_key_parts`) is the sources of ``jsonl.py``
(the parser), ``metrics.py`` (the decomposition), ``core.py`` (the
columns' type) and this module (the entry's writer and checks), numpy's
version, and the bits of ``np.exp`` on a fixed probe, which differ between
numpy's SIMD dispatches. An edit to any of those modules, another numpy or
another dispatch misses once. A hit imports no parser. Any cache failure
falls back to parsing, silently. :func:`regcal.jsonl.load_dump` is never
cached.

A stat index in front of the entries spares a warm read the SHA-256. It
keeps one small JSON record per dump file in ``regcal-index`` beside the
entries' directory, named by the file's device and inode. A record holds
the file's size, mtime and ctime, a fingerprint of the program (the CRC-32
and the lengths of what makes an entry) and the key the file was hashed
to. The record's own mtime is taken before the file is read. A record is
trusted only when every field matches and the file's mtime and ctime are
more than ``_RACY_NS`` (2 s, FAT's timestamp granularity) older than that
mtime: git's "racy git" rule, since a rewrite soon after a stamp may keep
it. A trusted record leads straight to its entry, so the dump is not
opened and ``hashlib`` is not imported. Otherwise the file is hashed as
without the index and its record is rewritten. The key stays the only
thing that makes a hit. A changed file could still be served only if it
kept its device, inode, size, mtime and ctime. ctime cannot be set from
user space, so that needs a clock step, or clock skew between a network
file system and this machine.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import zlib  # numpy has loaded it already
from dataclasses import fields
from stat import S_ISREG

import numpy as np

from .core import CalibrationArtifact, Uncertainties

# -- the dump commands' reader and its cache -----------------------------------

# The modules whose code makes a cache entry: jsonl parses it, metrics decomposes it,
# core types its columns and io writes and checks it.
_ENTRY_MODULES = ("jsonl", "metrics", "core", "io")
# Past this many bytes of entries and temporary files the oldest (by mtime; a hit
# refreshes an entry) are deleted.
_CACHE_MAX_BYTES = 1 << 28
# The same bound for the index, where each file counts as at least one block: about
# 1000 records, the oldest written deleted first.
_INDEX_MAX_BYTES = 1 << 22
_INDEX_FILE_BYTES = 1 << 12
_ENTRY_SUFFIX = ".dump"
_RECORD_SUFFIX = ".stat"
_TMP_SUFFIX = ".tmp"
_HASH_CHUNK = 1 << 16
# A record is trusted only when the dump's mtime and ctime are more than this older
# than the record's mtime. FAT stamps files to 2 s, and Linux from a clock that ticks
# every few ms, so a rewrite within one tick of a stamp can leave it unchanged.
_RACY_NS = 2 * 10**9
# A longer record is not one this module wrote.
_RECORD_MAX_BYTES = 1 << 10
# An entry's arrays, in file order after its header line: the fields of Uncertainties
# after ids.
_COLUMNS = tuple(f.name for f in fields(Uncertainties))[1:]


@functools.cache
def _key_parts() -> tuple[bytes, ...]:
    """What a cache entry depends on: the sources of ``_ENTRY_MODULES``, read
    without importing them, numpy's version, and the bits ``np.exp`` gives on
    a fixed probe, which differ between numpy's SIMD dispatches as the
    decomposed aleatoric column does. Hashed into every key and
    fingerprinted in every index record."""
    sources = []
    for name in _ENTRY_MODULES:
        with open(os.path.join(os.path.dirname(__file__), f"{name}.py"), "rb") as fh:
            sources.append(fh.read())
    probe = np.exp(np.linspace(-700.0, 700.0, 1024))
    return (*sources, np.__version__.encode("ascii"), probe.tobytes())


def _cache_dirs() -> tuple[str, str] | None:
    """The entries' directory, ``$XDG_CACHE_HOME/regcal`` when that is
    absolute, else ``$HOME/.cache/regcal``, and the index's,
    ``regcal-index`` beside it; None when ``HOME`` is not absolute either."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.environ.get("HOME", ""), ".cache")
    if not os.path.isabs(base):
        return None
    return os.path.join(base, "regcal"), os.path.join(base, "regcal-index")


def _program() -> list[int]:
    """The fingerprint of the key's prefix that a record holds, made
    without hashlib: the CRC-32 of :func:`_key_parts` (the four modules'
    sources, numpy's version and the ``np.exp`` probe), then their lengths."""
    parts = _key_parts()
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [crc, *map(len, parts)]


def _record(st, program: list[int], key) -> dict:
    """The index record of a file of stat ``st`` hashed to ``key``."""
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns, "ctime_ns": st.st_ctime_ns,
            "program": program, "key": key}


def _trusted_key(record: str, st, program: list[int]) -> str | None:
    """The key the index record at ``record`` holds for the file of stat
    ``st``, when the record is trusted: it is one :func:`_record` made for
    that stat and ``program``, and the file's mtime and ctime are more
    than ``_RACY_NS`` older than the record's mtime."""
    try:
        with open(record, "rb") as fh:
            stamp = os.fstat(fh.fileno()).st_mtime_ns
            doc = json.loads(fh.read(_RECORD_MAX_BYTES))
    # ValueError: a truncated, foreign or non-JSON record; RecursionError: deep nesting.
    except (OSError, ValueError, RecursionError):
        return None
    key = doc.get("key") if type(doc) is dict else None
    # A key of 64 hex digits names a file inside the entries' directory.
    if (type(key) is not str or len(key) != 64 or key.strip("0123456789abcdef")
            or doc != _record(st, program, key)
            or max(st.st_mtime_ns, st.st_ctime_ns) >= stamp - _RACY_NS):
        return None
    return key


def _write_record(tmp: str, record: str, st, program: list[int], key: str, stamp: int) -> None:
    """Replace the index record ``record`` by the :func:`_record` of ``st``,
    ``program`` and ``key``, through the temporary file ``tmp``, dated
    ``stamp``. A new record prunes the index."""
    with contextlib.suppress(OSError):
        new = not os.path.exists(record)
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(json.dumps(_record(st, program, key)))
        os.utime(tmp, ns=(stamp, stamp))
        os.replace(tmp, record)
        if new:
            _prune(os.path.dirname(record), _INDEX_MAX_BYTES, _INDEX_FILE_BYTES)


def _read_entry(entry: str) -> tuple[Uncertainties, int] | None:
    """The columns and N a cache entry holds, or None when it is missing or
    is not what the reader makes: unique string ids, an integer N >= 1, then
    C-contiguous, finite float64 columns whose shapes :class:`Uncertainties`
    accepts. A hit refreshes the entry's mtime."""
    try:
        with open(entry, "rb") as fh:
            head = json.loads(fh.readline())
            columns = [np.load(fh, allow_pickle=False) for _ in _COLUMNS]
            if fh.read(1):
                return None
        if type(head) is not dict or head.keys() != {"n_samples", "ids"}:
            return None
        ids, n = head["ids"], head["n_samples"]
        if (type(ids) is not list or set(map(type, ids)) != {str}
                or len(set(ids)) != len(ids) or type(n) is not int or n < 1):
            return None
        if not all(type(c) is np.ndarray and c.dtype == np.float64 and c.flags.c_contiguous
                   and np.isfinite(c).all() for c in columns):
            return None
        unc = Uncertainties(ids, *columns)  # refuses m = 0, bad shapes and a non-finite total
    # ValueError: bad JSON, an npy header or columns; EOFError: a truncated entry;
    # RecursionError: deeply nested JSON; MemoryError: a header claiming a huge shape.
    except (OSError, ValueError, EOFError, RecursionError, MemoryError):
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return unc, n


def _write_entry(entry: str, unc: Uncertainties, n: int) -> None:
    """Store the columns of ``unc`` and N as ``entry``, then prune the cache."""
    head = json.dumps({"n_samples": n, "ids": unc.ids}).encode("ascii") + b"\n"
    columns = [getattr(unc, name) for name in _COLUMNS]
    if len(head) + sum(c.nbytes for c in columns) > _CACHE_MAX_BYTES:
        return
    tmp = f"{entry}.{os.getpid()}{_TMP_SUFFIX}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head)
            for c in columns:
                np.save(fh, c, allow_pickle=False)
        os.replace(tmp, entry)
        _prune(os.path.dirname(entry))
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _prune(directory: str, max_bytes: int | None = None, file_bytes: int = 0) -> None:
    """Delete the oldest entries, records and temporary files (left by a
    writer that died before its rename) until the rest, each counted as at
    least ``file_bytes``, hold at most ``max_bytes`` (by default
    ``_CACHE_MAX_BYTES``)."""
    if max_bytes is None:
        max_bytes = _CACHE_MAX_BYTES
    with os.scandir(directory) as it:
        files = sorted((e.stat().st_mtime_ns, e.name, max(e.stat().st_size, file_bytes))
                       for e in it if e.name.endswith((_ENTRY_SUFFIX, _RECORD_SUFFIX, _TMP_SUFFIX)))
    total = sum(size for *_, size in files)
    for _, name, size in files:
        if total <= max_bytes:
            break
        os.remove(os.path.join(directory, name))
        total -= size


def _entry(entries: str, key: str) -> str:
    return os.path.join(entries, key + _ENTRY_SUFFIX)


def _stamp(index: str, tmp: str) -> int | None:
    """Create the empty temporary record ``tmp`` in ``index`` and return its
    mtime, a stamp of the index's file system clock taken before the dump is
    read; None when the index cannot be written."""
    try:
        os.makedirs(index, mode=0o700, exist_ok=True)
        with open(tmp, "wb") as fh:
            return os.fstat(fh.fileno()).st_mtime_ns
    except OSError:
        return None


def _hashed(path, digest) -> str | None:
    """The hex digest of ``digest`` updated with the bytes of the file at
    ``path``; None when the file cannot be read."""
    try:
        with open(path, "rb", buffering=0) as fh:
            while chunk := fh.read(_HASH_CHUNK):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _parse(path, digest=None) -> tuple[Uncertainties, int]:
    """The columns and N of the dump at ``path``, parsed; every byte read
    updates ``digest`` when one is given."""
    from .jsonl import read_dump
    from .metrics import decompose

    ids, columns, n = read_dump(path, decompose, digest)
    return Uncertainties(ids, *columns), n


def load_uncertainties(path) -> tuple[Uncertainties, int]:
    """The uncalibrated :class:`Uncertainties` of the JSONL dump at ``path``
    and its N: what ``uncertainty_records(load_dump(path))`` gives, with the
    same errors, without the (m, N, d) arrays.

    A miss parses the file a block at a time (:func:`regcal.jsonl.read_dump`)
    and keeps only each block's decomposed columns. Every problem of the
    file raises its :class:`~regcal.jsonl.DumpFormatError` before a
    non-finite uncertainty raises its ``ValueError``, as with
    :func:`~regcal.jsonl.load_dump`.

    A regular file is first looked up through its index record and, when
    that is not trusted, by the SHA-256 of its bytes (after
    :func:`_key_parts`), after which the record is rewritten. A hit passes
    the checks of :func:`_read_entry`, returns exactly the miss's ids,
    columns and N, and imports no parser. A miss stores its result under
    the SHA-256 of the bytes it parsed, so a file changed while it is read
    is stored under its new content. Errors are never cached, and other
    input, such as a FIFO, is parsed directly.
    """
    dirs = _cache_dirs()
    if dirs is None:
        return _parse(path)
    entries, index = dirs
    try:
        os.makedirs(entries, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return _parse(path)
    if not S_ISREG(st.st_mode):  # a FIFO or a terminal could not be read twice
        return _parse(path)
    program = _program()
    record = os.path.join(index, f"{st.st_dev}-{st.st_ino}{_RECORD_SUFFIX}")
    key = _trusted_key(record, st, program)
    if key is not None and (hit := _read_entry(_entry(entries, key))):
        return hit
    import hashlib

    prefix = hashlib.sha256()
    for part in _key_parts():
        prefix.update(part)
    tmp = f"{record}.{os.getpid()}{_TMP_SUFFIX}"
    stamp = _stamp(index, tmp)
    try:
        key = _hashed(path, prefix.copy())
        if key is None:
            return _parse(path)
        hit = _read_entry(_entry(entries, key))
        if hit is None:
            digest = prefix.copy()
            hit = _parse(path, digest)
            key = digest.hexdigest()
            _write_entry(_entry(entries, key), *hit)
        if stamp is not None:
            _write_record(tmp, record, st, program, key, stamp)
        return hit
    finally:
        if stamp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


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


def _non_finite_at(value, where: str = "") -> str | None:
    """The key path of the first non-finite float in ``value``, in the order
    :func:`json.dumps` writes it, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else where
    if isinstance(value, dict):
        items = ((f"{where}.{key}" if where else key, v) for key, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_at(v, at) for at, v in items)), None)


def write_json(doc: dict, path) -> None:
    """Write strict JSON; a non-finite value raises ``ValueError`` naming its key path
    (``nll``, ``uce_predictive.bins[2].var_obs``) before the file opens."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{exc} at {_non_finite_at(doc)}") from None
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
