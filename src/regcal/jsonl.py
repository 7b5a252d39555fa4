"""The JSONL prediction-dump format: its checked reader and its writer.

Dumps are JSON Lines, one record per line:

    {"id": "...", "y": [d reals], "samples": [{"mean": [d reals], "log_var": r}, ...]}

:func:`read_dump` reports the first problem of every invalid line up to
the ``_REPORTED_LINES``-th, where it stops reading, in one
:class:`DumpFormatError`, and only its checked record parser makes those
messages: it tests each sample inline on JSON's own lists and numbers and
formats a message only when a test fails. The file is read in blocks of
whole lines (about ``_BLOCK_BYTES`` characters; until a valid line has
fixed d and N, one line at a time, and a run of blank lines in doubling
blocks of up to ``_BLANK_RUN_BYTES``), and each block becomes its y,
means and log_vars arrays at once, so no per-record list is kept. The caller's
reducer turns each block's arrays into the columns it keeps, and those are
concatenated column by column: :func:`load_dump` keeps the arrays
themselves, :func:`regcal.io.load_uncertainties` only their decomposition.
A block whose every line is a new record written exactly as
:func:`save_dump` writes it (compact separators, an id with no escape or
control character) skips the checked parser: plain string operations check
each id, one comparison checks the number-free skeleton of the whole block,
and one ``json.loads`` of a flat array reads all its numbers without
building the sample objects. A block with any other line is declined as a
whole, and each of its lines goes to the checked parser, which loads the
same values. Records are separated at ``\n`` only, as JSON Lines
specifies; one ``\r`` ending a line is dropped with it.

:func:`save_dump` writes one record at a time: only that record's rows
become Python lists, so writing holds one record's lists and line besides
the arrays. Reals are serialized with full round-trip precision (shortest
repr), so a load/save cycle is byte-stable.
"""

from __future__ import annotations

import io
import json
from itertools import starmap
from math import isfinite

import numpy as np

from .core import McPredictionSet


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
        if type(log_var) not in _NUMBER_TYPES:
            raise _BadLine(f"field samples[{j}].log_var must be a number")
        try:
            finite = isfinite(log_var)
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

# Before N is fixed, a run of blank lines is read in blocks of at most this many
# characters: a block of k blank lines is a list of k references, and blocks of 4 KiB
# read a run of "\n" as fast as blocks of 64 KiB.
_BLANK_RUN_BYTES = 1 << 12

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


# A rejected dump's message holds the messages of at most this many failing lines:
# reading stops at the last of them, so that neither the message, nor the memory
# behind it, nor the time to reject grows with the number of failing lines.
_REPORTED_LINES = 100


def _checked(lines, first_line: dict[str, int], shape: dict[str, int], errors: list[str]):
    """Parse ``lines``, an iterator of pairs of a line number and a non-blank
    line, one at a time with :func:`_record`, appending the messages of each
    failing line to ``errors`` as one entry. At the ``_REPORTED_LINES``-th
    entry it stops, and the lines after it are left in ``lines``. Returns
    the arrays of their records, or None when a line of the file has failed
    or none of these is a record."""
    ys, means, log_vars = [], [], []
    for lineno, line in lines:
        try:
            _record(line, lineno, first_line, shape, ys, means, log_vars)
        except _BadLine as exc:
            errors.append("; ".join(f"line {lineno}: {msg}" for msg in exc.args))
            if len(errors) == _REPORTED_LINES:
                break
    if errors or not ys:
        return None
    d, n = shape["d"], shape["N"]
    return (np.array(ys, dtype=float).reshape(-1, d),
            np.array(means, dtype=float).reshape(-1, n, d),
            np.array(log_vars, dtype=float).reshape(-1, n))


def _blocks(fh, first_line: dict[str, int], shape: dict[str, int], errors: list[str]):
    """Yield the (k, d) y, (k, N, d) means and (k, N) log_vars arrays of
    each block of k records of the dump open as ``fh``, in file order.

    Until a valid line has fixed d and N, a block is one line, except in a
    run of blank lines: each wholly blank block doubles the size of the
    next, up to ``_BLANK_RUN_BYTES`` characters, so a run is read in a few
    blocks, and its last block reads at most about as many characters past
    it as the run's earlier blocks held. After that a block is the whole
    lines of about ``_BLOCK_BYTES`` characters, read first by
    :func:`_flat_block` and, when that declines, line by line by
    :func:`_checked`. Every failing line's messages go to ``errors``; from
    the first one on, nothing more is yielded. At the ``_REPORTED_LINES``-th
    failing line reading stops, and when a non-blank line follows it
    ``errors`` ends in ``the rest of the file was not read``.
    """
    lineno, blank_run = 0, 1
    while block := fh.readlines(_BLOCK_BYTES if "N" in shape else blank_run):
        # Parsed without its "\n" or "\r\n", which inside an unterminated
        # string would be reported as an invalid control character.
        lines = [(i, line.removesuffix("\n").removesuffix("\r"))
                 for i, line in enumerate(block, start=lineno + 1) if line.strip()]
        lineno += len(block)
        if not lines:
            blank_run = min(2 * blank_run, _BLANK_RUN_BYTES)
            continue
        blank_run = 1
        arrays = _flat_block(lines, first_line, shape["d"], shape["N"]) if "N" in shape else None
        if arrays is None:
            unread = iter(lines)
            arrays = _checked(unread, first_line, shape, errors)
            if len(errors) == _REPORTED_LINES:
                if next(unread, None) or any(map(str.strip, fh)):
                    errors.append("the rest of the file was not read")
                return
        if arrays is not None and not errors:
            yield arrays


class _Digested(io.FileIO):
    """The file at a path, opened for reading, that feeds every byte read
    from it to ``digest``."""

    def __init__(self, path, digest):
        super().__init__(path)
        self.digest = digest

    def readinto(self, buffer):
        n = super().readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
        return n


def read_dump(path, reduce, digest=None):
    """The ids, the columns and N of the dump at ``path``.

    The file is read a block of lines at a time (:func:`_blocks`).
    ``reduce`` maps each block's y, means and log_vars arrays to a tuple of
    the columns kept, and each column is concatenated over the blocks. The
    problems of the file are raised as one :class:`DumpFormatError` after
    the last line is read, or as soon as the ``_REPORTED_LINES``-th line
    has failed. When ``digest`` is given, every byte read updates it, as a
    ``hashlib`` digest is updated.
    """
    errors: list[str] = []
    first_line: dict[str, int] = {}
    shape: dict[str, int] = {}
    if digest is None:
        fh = open(path, "r", encoding="utf-8", newline="\n")
    else:
        fh = io.TextIOWrapper(io.BufferedReader(_Digested(path, digest)), encoding="utf-8",
                              newline="\n")
    try:
        with fh:
            # starmap keeps no reference to a block's arrays once they are reduced.
            blocks = list(starmap(reduce, _blocks(fh, first_line, shape, errors)))
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's read buffer, not from the file.
        raise DumpFormatError(
            f"not UTF-8 text ({exc.reason}, byte 0x{exc.object[exc.start]:02x})") from None
    if errors:
        raise DumpFormatError("; ".join(errors))
    if not first_line:
        raise DumpFormatError("empty dump file")
    # With no failed line, first_line holds exactly the records' ids in file order.
    return list(first_line), [np.concatenate(column) for column in zip(*blocks)], shape["N"]


def load_dump(path) -> McPredictionSet:
    """Parse and validate a JSONL prediction dump, with no cache.

    Each non-blank line holds one record: a new string id, a non-empty array
    y of finite numbers, and samples each with a finite numeric log_var and
    a mean of y's length. d comes from the first valid y and N from the
    first valid record. Every invalid line adds its first problem, as
    ``line <n>: ...``, to one :class:`DumpFormatError`; blank lines are
    skipped but counted. Reading stops at the ``_REPORTED_LINES``-th invalid
    line, and when a non-blank line follows it the message ends in ``the
    rest of the file was not read``. Lines end at ``\n`` only, so a U+2028
    or U+0085 inside an id is kept; one ``\r`` ending a line is dropped, so
    a CRLF file loads, and fails, like its LF twin. A file that is not UTF-8
    raises one :class:`DumpFormatError` without a line; once reading has
    stopped, a byte that is not UTF-8 further on is reported only when it
    lies in the few KiB of text already decoded.

    Each sample is tested in this order, and the first failing test gives
    its message: an object with mean and log_var; mean a non-empty array
    of numbers (booleans are not numbers); every mean entry finite (an
    integer too large for a float counts as non-finite); mean of length
    d; log_var a number; log_var finite.

    The dump commands read their dumps through
    :func:`regcal.io.load_uncertainties`, which caches the decomposition
    and never holds these arrays.
    """
    ids, (y, means, log_vars), _ = read_dump(path, lambda *arrays: arrays)
    return McPredictionSet(ids=ids, y=y, means=means, log_vars=log_vars)


def _non_finite_record(rid: str) -> ValueError:
    return ValueError(f"record '{rid}': non-finite value, which a dump cannot hold")


def dump_lines(pset: McPredictionSet):
    """Yield the JSONL lines (without newline) of a set, one per record.

    Each record's rows become Python lists only as its line is built, so
    only one record's lists are held at a time. A record with a NaN or an
    infinity, which :func:`load_dump` would refuse, raises ``ValueError``
    naming its id.
    """
    for rid, y, means, log_vars in zip(pset.ids, pset.y, pset.means, pset.log_vars):
        obj = {
            "id": rid,
            "y": y.tolist(),
            "samples": [{"mean": mean, "log_var": lv}
                        for mean, lv in zip(means.tolist(), log_vars.tolist())],
        }
        try:
            line = json.dumps(obj, separators=(",", ":"), allow_nan=False)
        except ValueError:
            raise _non_finite_record(rid) from None
        yield line


def save_dump(pset: McPredictionSet, path) -> None:
    """Write the set as a JSONL dump, one :func:`dump_lines` line per record.

    Besides the arrays, writing holds one record's lists and line and the
    file's buffers, whatever the set's size. A set with a NaN or an
    infinity raises ``ValueError`` naming the first such record before the
    file opens, so a refused set leaves no file behind and an existing file
    unchanged.
    """
    # An array's min and max are NaN when it holds a NaN and infinite when it
    # holds an infinity, and take no memory of its size to find.
    bounds = [f(a) for a in (pset.y, pset.means, pset.log_vars) for f in (np.min, np.max)]
    if not np.isfinite(bounds).all():
        finite = (np.isfinite(pset.y).all(axis=1) & np.isfinite(pset.means).all(axis=(1, 2))
                  & np.isfinite(pset.log_vars).all(axis=1))
        raise _non_finite_record(pset.ids[np.flatnonzero(~finite)[0]])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in dump_lines(pset):
            fh.write(line + "\n")
