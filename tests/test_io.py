import copy
import gc
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regcal import io as regcal_io
from regcal.calibrate import AuxConfig, aux_fit, fit_sigma
from regcal.core import McPredictionSet, identity_artifact
from regcal.io import (
    DumpFormatError,
    artifact_to_json,
    dump_lines,
    load_artifact,
    load_dump,
    save_artifact,
    save_dump,
)
from regcal.metrics import uncertainty_records

from conftest import make_uncertainties, random_set


class TestDumpRoundTrip:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2.0}]}\n'
            '{"id":"b","y":[0.6],"samples":[{"mean":[0.5],"log_var":-2.5}]}\n'
            '{"id":"c","y":[0.7],"samples":[{"mean":[0.6],"log_var":-3.0}]}\n'
        )
        pset = load_dump(path)
        assert pset.m == 3
        assert pset.d == 1
        assert pset.n_samples == 1
        assert pset.ids[1] == "b"

    def test_save_load_save_is_byte_stable(self, tmp_path, rng):
        pset = random_set(rng, m=20, n=3, d=2)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        save_dump(pset, p1)
        save_dump(load_dump(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_fields_bit_exactly(self, tmp_path, rng):
        pset = random_set(rng, m=10, n=4, d=3)
        path = tmp_path / "d.jsonl"
        save_dump(pset, path)
        loaded = load_dump(path)
        for i in range(pset.m):
            assert pset.ids[i] == loaded.ids[i]
            assert np.array_equal(pset.y[i], loaded.y[i])
            for n in range(pset.n_samples):
                assert np.array_equal(pset.means[i, n], loaded.means[i, n])
                assert pset.log_vars[i, n] == loaded.log_vars[i, n]


class TestLineSeparators:
    """Records end at "\n" only, as JSON Lines specifies."""

    @pytest.mark.parametrize("char", ["\u2028", "\u0085"], ids=["U+2028", "U+0085"])
    def test_raw_unicode_line_break_in_id_is_kept(self, tmp_path, rng, char):
        pset = random_set(rng, m=2, n=3, d=2)
        pset.ids = [f"a{char}b", f"{char}c"]
        path = tmp_path / "d.jsonl"
        # ensure_ascii=False writes the characters raw, not as \u escapes
        path.write_text("".join(
            json.dumps(json.loads(line), ensure_ascii=False) + "\n" for line in dump_lines(pset)
        ), encoding="utf-8")
        assert char in path.read_text(encoding="utf-8")
        loaded = load_dump(path)
        assert loaded.ids == pset.ids
        for name in ("y", "means", "log_vars"):
            assert np.array_equal(getattr(loaded, name), getattr(pset, name)), name

    def test_crlf_loads_like_lf(self, tmp_path, rng):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        save_dump(random_set(rng, m=5, n=3, d=2), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        a, b = load_dump(lf), load_dump(crlf)
        assert a.ids == b.ids
        for name in ("y", "means", "log_vars"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestDumpErrors:
    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2.0}]}\n'
            '{"id":"b","samples":[{"mean":[0.5],"log_var":-2.5}]}\n'
        )
        with pytest.raises(DumpFormatError, match="line 2: missing field y"):
            load_dump(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2}]}\nnot json\n')
        with pytest.raises(DumpFormatError, match="line 2: invalid JSON"):
            load_dump(path)

    def test_inconsistent_n_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2.0},{"mean":[0.5],"log_var":-2.0}]}\n'
            '{"id":"b","y":[0.6],"samples":[{"mean":[0.5],"log_var":-2.5}]}\n'
        )
        with pytest.raises(DumpFormatError, match="line 2: inconsistent N"):
            load_dump(path)

    def test_nan_log_var_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":NaN}]}\n')
        with pytest.raises(DumpFormatError, match="non-finite log_var"):
            load_dump(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("")
        with pytest.raises(DumpFormatError, match="empty dump file"):
            load_dump(path)

    def test_errors_are_aggregated(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","samples":[]}\n'
            '{"id":"b","y":[0.5]}\n'
        )
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        msg = str(err.value)
        assert "line 1" in msg and "line 2" in msg

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[0.5,0.5],"samples":[{"mean":[0.4,0.4],"log_var":-2.0}]}\n'
            '{"id":"b","y":[0.6],"samples":[{"mean":[0.5],"log_var":-2.5}]}\n'
        )
        with pytest.raises(DumpFormatError, match="line 2: y has length 1"):
            load_dump(path)

    def test_unterminated_string_keeps_its_message(self, tmp_path):
        # the line is parsed without its "\n", which inside a string would be
        # reported as an invalid control character
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a\n')
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert str(err.value) == "line 1: invalid JSON (Unterminated string starting at)"

    def test_crlf_unterminated_string_gets_the_lf_message(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"id":"a\r\n')
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert str(err.value) == "line 1: invalid JSON (Unterminated string starting at)"

    def test_over_long_integer_names_its_line(self, tmp_path):
        # CPython refuses to convert an integer of over 4,300 digits with a
        # plain ValueError; Pythons without that limit read it as non-finite.
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[1%s],"samples":[{"mean":[0.4],"log_var":-2.0}]}\n' % ("0" * 5000)
            + '{"id":"b","y":[0.5]}\n'
        )
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        msg = str(err.value)
        if hasattr(sys, "get_int_max_str_digits"):
            assert msg.startswith("line 1: invalid JSON (Exceeds the limit (4300 digits)")
        else:
            assert msg.startswith("line 1: non-finite y")
        assert msg.count("line ") == 2 and msg.endswith("; line 2: missing field samples")

    @pytest.mark.parametrize("opener", ["[", '{"a":'], ids=["arrays", "objects"])
    def test_deep_nesting_names_its_line(self, tmp_path, opener):
        # Past the decoder's recursion limit json.loads raises RecursionError,
        # which is one invalid-JSON message like any other decoding failure.
        path = tmp_path / "d.jsonl"
        path.write_text(
            '{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2.0}]}\n'
            '{"id":"b","y":[0.5],"samples":[{"mean":%s,"log_var":-2.0}]}\n' % (opener * 100_000)
            + '{"id":"c","y":[0.5]}\n'
        )
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        first, second = str(err.value).split("; ")
        assert first.startswith("line 2: invalid JSON (maximum recursion depth exceeded")
        assert second == "line 3: missing field samples"

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    @pytest.mark.parametrize("text", ['{"id":"a","y":[0.5],"samples":[{"mean":[0.4],"log_var":-2}]}\n',
                                      "not json\n"], ids=["valid", "invalid"])
    def test_collector_state_is_restored(self, tmp_path, enabled, text):
        path = tmp_path / "d.jsonl"
        path.write_text(text)
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                load_dump(path)
            except DumpFormatError:
                pass
            assert gc.isenabled() == enabled
        finally:
            gc.enable()


class TestLoadFootprint:
    """What load_dump holds while it parses: the arrays of the blocks read
    so far and one block's text and numbers, no per-record list, so neither
    memory nor the cycle collector grows with anything but the numbers
    themselves."""

    # The blocks' arrays and their concatenation hold the array bytes twice,
    # and the reader peaks at 2.4x (d = 1) and 2.1x (d = 4) of them. Three
    # flat lists of every number as a float (32 bytes against 8) peaked at
    # 5.4x and 5.1x; holding the text, its lines or per-record lists as well
    # reads 8x and more.
    PEAK_OVER_ARRAYS = 3.0

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        paths = {}
        rng = np.random.default_rng(0)
        for m, n, d in [(800, 25, 1), (160, 100, 4)]:
            y = rng.normal(size=(m, d))
            pset = McPredictionSet(ids=[f"r{i:05d}" for i in range(m)], y=y,
                                   means=y[:, None, :] + 0.1 * rng.normal(size=(m, n, d)),
                                   log_vars=rng.normal(-4.6, 0.5, size=(m, n)))
            paths[d] = tmp_path_factory.mktemp("footprint") / f"d{d}.jsonl"
            save_dump(pset, paths[d])
        return paths

    @pytest.mark.parametrize("d", [1, 4])
    def test_peak_is_a_small_multiple_of_the_arrays(self, dumps, d):
        tracemalloc.start()
        try:
            pset = load_dump(dumps[d])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array_bytes = pset.y.nbytes + pset.means.nbytes + pset.log_vars.nbytes
        assert peak < self.PEAK_OVER_ARRAYS * array_bytes

    def test_no_cycle_collection(self, dumps):
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        gc.collect()
        gc.callbacks.append(count)
        try:
            load_dump(dumps[1])
        finally:
            gc.callbacks.remove(count)
        assert starts == []


def _line(rid="a", y="[0.5]", samples='[{"mean":[0.4],"log_var":-2.0}]'):
    return '{"id":%s,"y":%s,"samples":%s}' % (json.dumps(rid), y, samples)


TWO_SAMPLES = '[{"mean":[0.4],"log_var":-2.0},{"mean":[0.5],"log_var":-2.5}]'


class TestDumpMessages:
    """The full DumpFormatError text, one case per message and per rule of
    which line fixes the id, d and N that later lines are checked against."""

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["not json"], "line 1: invalid JSON (Expecting value)"),
            (["[1, 2]"], "line 1: record must be a JSON object"),
            (['{"id":"a","samples":[]}'], "line 1: missing field y"),
            (['{"id":"a"}'], "line 1: missing field y; line 1: missing field samples"),
            ([_line(rid=7)], "line 1: field id must be a string"),
            ([_line(), _line()], "line 2: duplicate id 'a' (first on line 1)"),
            ([_line(y="[]")], "line 1: field y must be a non-empty array of numbers"),
            ([_line(y="0.5")], "line 1: field y must be a non-empty array of numbers"),
            ([_line(y="[0.5,true]")], "line 1: field y must be a non-empty array of numbers"),
            ([_line(y='["0.5"]')], "line 1: field y must be a non-empty array of numbers"),
            ([_line(y="[NaN]")], "line 1: non-finite y"),
            ([_line(y="[1e400]")], "line 1: non-finite y"),
            ([_line(y="[1" + "0" * 400 + "]")], "line 1: non-finite y"),
            ([_line(y="[0.5,0.5]", samples='[{"mean":[0.4,0.4],"log_var":-2.0}]'),
              _line(rid="b")], "line 2: y has length 1, expected 2"),
            ([_line(samples="[]")], "line 1: field samples must be a non-empty array"),
            ([_line(samples="{}")], "line 1: field samples must be a non-empty array"),
            ([_line(samples='[{"mean":[0.4]}]')], "line 1: sample 0 must have mean and log_var"),
            ([_line(samples='[{"log_var":-2.0}]')], "line 1: sample 0 must have mean and log_var"),
            ([_line(samples="[[0.4]]")], "line 1: sample 0 must have mean and log_var"),
            ([_line(samples='[{"mean":[0.4],"log_var":-2.0},{"mean":"x","log_var":-2.0}]')],
             "line 1: field samples[1].mean must be a non-empty array of numbers"),
            ([_line(samples='[{"mean":[false],"log_var":-2.0}]')],
             "line 1: field samples[0].mean must be a non-empty array of numbers"),
            ([_line(samples='[{"mean":[-Infinity],"log_var":-2.0}]')],
             "line 1: non-finite samples[0].mean"),
            ([_line(samples='[{"mean":[0.4,0.4],"log_var":-2.0}]')],
             "line 1: samples[0].mean has length 2, expected 1"),
            ([_line(samples='[{"mean":[0.4],"log_var":NaN}]')],
             "line 1: non-finite log_var in sample 0"),
            ([_line(samples='[{"mean":[0.4],"log_var":"-2"}]')],
             "line 1: non-finite log_var in sample 0"),
            ([_line(samples='[{"mean":[0.4],"log_var":true}]')],
             "line 1: non-finite log_var in sample 0"),
            ([_line(samples='[{"mean":[0.4],"log_var":[-2.0]}]')],
             "line 1: non-finite log_var in sample 0"),
            ([_line(samples='[{"mean":[1' + "0" * 400 + '],"log_var":-2.0}]')],
             "line 1: non-finite samples[0].mean"),
            ([_line(samples='[{"mean":[0.4],"log_var":1' + "0" * 400 + '}]')],
             "line 1: non-finite log_var in sample 0"),
            # a sample's mean is checked for finiteness before its length
            ([_line(samples='[{"mean":[NaN,0.4],"log_var":-2.0}]')],
             "line 1: non-finite samples[0].mean"),
            # and its length before its log_var
            ([_line(samples='[{"mean":[0.4],"log_var":-2.0},{"mean":[0.5,0.5],"log_var":NaN}]')],
             "line 1: samples[1].mean has length 2, expected 1"),
            ([_line(samples='[{"mean":[0.4],"log_var":-2.0},0.5]')],
             "line 1: sample 1 must have mean and log_var"),
            ([_line(samples=TWO_SAMPLES), _line(rid="b")],
             "line 2: inconsistent N (expected 2, got 1)"),
            ([], "empty dump file"),
            (["", "  ", "\t"], "empty dump file"),
            # blank lines are skipped but still counted
            (["", _line(), "  ", "", "not json"], "line 5: invalid JSON (Expecting value)"),
            # a rejected line still claims its id
            ([_line(y="[NaN]"), _line()],
             "line 1: non-finite y; line 2: duplicate id 'a' (first on line 1)"),
            # d is fixed by the first valid y, even when that line fails later
            ([_line(y="[NaN,0.5]"), _line(rid="b", y="[0.5,0.5]", samples="[]"), _line(rid="c")],
             "line 1: non-finite y; line 2: field samples must be a non-empty array; "
             "line 3: y has length 1, expected 2"),
            # N is fixed only by the first fully valid line
            ([_line(samples='[{"mean":[0.4],"log_var":-2.0},{"mean":[0.5],"log_var":NaN}]'),
              _line(rid="b"), _line(rid="c", samples=TWO_SAMPLES)],
             "line 1: non-finite log_var in sample 1; "
             "line 3: inconsistent N (expected 1, got 2)"),
        ],
    )
    def test_message(self, tmp_path, lines, message):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert str(err.value) == message

    def test_integers_load_as_their_doubles(self, tmp_path):
        path = tmp_path / "d.jsonl"
        big, huge = 2**63 + 1, 10**30
        path.write_text(
            _line(y=f"[{big}, 3]", samples='[{"mean":[%d, -1],"log_var":-2}]' % huge) + "\n"
        )
        pset = load_dump(path)
        assert pset.y.tolist() == [[float(big), 3.0]]
        assert pset.means.tolist() == [[[float(huge), -1.0]]]
        assert pset.log_vars.tolist() == [[-2.0]]
        assert pset.y.dtype == pset.means.dtype == pset.log_vars.dtype == np.float64


# The record parser as it stood before its per-sample checks were inlined,
# copied verbatim (bar the names), as the reference for the equivalence test.
class _ReferenceBadLine(Exception):
    pass


def _reference_numbers(value, name: str) -> list:
    if not isinstance(value, list) or not value or not all(type(v) in (int, float) for v in value):
        raise _ReferenceBadLine(f"field {name} must be a non-empty array of numbers")
    try:
        finite = all(map(math.isfinite, value))
    except OverflowError:  # a JSON integer too large for a float
        finite = False
    if not finite:
        raise _ReferenceBadLine(f"non-finite {name}")
    return value


def _reference_record(line: str, lineno: int, first_line: dict[str, int], shape: dict[str, int]):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _ReferenceBadLine(f"invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise _ReferenceBadLine("record must be a JSON object")
    missing = [f"missing field {name}" for name in ("id", "y", "samples") if name not in obj]
    if missing:
        raise _ReferenceBadLine(*missing)
    rid = obj["id"]
    if not isinstance(rid, str):
        raise _ReferenceBadLine("field id must be a string")
    first = first_line.setdefault(rid, lineno)
    if first != lineno:
        raise _ReferenceBadLine(f"duplicate id '{rid}' (first on line {first})")
    y = _reference_numbers(obj["y"], "y")
    d = shape.setdefault("d", len(y))
    if len(y) != d:
        raise _ReferenceBadLine(f"y has length {len(y)}, expected {d}")
    samples = obj["samples"]
    if not isinstance(samples, list) or not samples:
        raise _ReferenceBadLine("field samples must be a non-empty array")
    means, log_vars = [], []
    for j, s in enumerate(samples):
        if not isinstance(s, dict) or "mean" not in s or "log_var" not in s:
            raise _ReferenceBadLine(f"sample {j} must have mean and log_var")
        mean = _reference_numbers(s["mean"], f"samples[{j}].mean")
        if len(mean) != d:
            raise _ReferenceBadLine(f"samples[{j}].mean has length {len(mean)}, expected {d}")
        try:
            (log_var,) = _reference_numbers([s["log_var"]], "log_var")
        except _ReferenceBadLine:
            raise _ReferenceBadLine(f"non-finite log_var in sample {j}") from None
        means.append(mean)
        log_vars.append(log_var)
    n = shape.setdefault("N", len(means))
    if len(means) != n:
        raise _ReferenceBadLine(f"inconsistent N (expected {n}, got {len(means)})")
    return rid, y, means, log_vars


def _reference_load_dump(path) -> McPredictionSet:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    errors: list[str] = []
    first_line: dict[str, int] = {}
    shape: dict[str, int] = {}
    records = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_reference_record(line, lineno, first_line, shape))
        except _ReferenceBadLine as exc:
            errors += (f"line {lineno}: {msg}" for msg in exc.args)
    if not records and not errors:
        raise DumpFormatError("empty dump file")
    if errors:
        raise DumpFormatError("; ".join(errors))
    ids, ys, means, log_vars = zip(*records)
    return McPredictionSet(ids=ids, y=ys, means=means, log_vars=log_vars)


# What a mutation writes in place of a JSON value: a number (finite,
# non-finite or too large for a float), a value of the wrong type, or an
# array of such scalars.
_SCALARS = [0.5, -3, math.nan, math.inf, -math.inf, 10**400, -(10**400),
            True, False, None, "0.5", [], {}]


def _finite(rnd):
    """A finite JSON number: a float of any exponent, an edge value or an integer."""
    return rnd.choice([rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 307),
                       rnd.randint(-10**20, 10**20), -0.0, 5e-324, 1.7976931348623157e308])


def _mutate(records, rnd, d):
    """Replace, reshape or drop one value somewhere in a dump's records."""

    def scalar():
        return copy.deepcopy(rnd.choice(_SCALARS))

    def array():  # 0 to d + 1 entries of 0.5, up to two replaced by scalars
        items = [0.5] * rnd.randint(0, d + 1)
        for _ in range(rnd.randint(0, 2) if items else 0):
            items[rnd.randrange(len(items))] = scalar()
        return items

    def value():
        return rnd.choice((scalar, array))()

    rec = rnd.choice(records)
    samples = rec.get("samples") if isinstance(rec.get("samples"), list) else []
    j = rnd.randrange(len(samples)) if samples else None
    sample = samples[j] if j is not None and isinstance(samples[j], dict) else {}
    kind = rnd.choice(["y", "y-item", "id", "samples", "drop"]
                      + ["mean", "mean-item", "log_var", "sample"] * 3)
    if kind == "y":
        rec["y"] = value()
    elif kind == "y-item" and isinstance(rec.get("y"), list) and rec["y"]:
        rec["y"][rnd.randrange(len(rec["y"]))] = scalar()
    elif kind == "id":
        rec["id"] = rnd.choice([scalar(), records[0].get("id")])
    elif kind == "samples":
        rec["samples"] = rnd.choice([value(), samples[:-1], samples + samples[-1:]])
    elif kind == "drop":
        target = rnd.choice([rec, sample])
        if target:
            del target[rnd.choice(sorted(target))]
    elif kind in ("mean", "log_var") and sample:
        sample[kind] = value()
    elif kind == "mean-item" and isinstance(sample.get("mean"), list) and sample["mean"]:
        sample["mean"][rnd.randrange(len(sample["mean"]))] = scalar()
    elif kind == "sample" and j is not None:
        samples[j] = rnd.choice([value(), {"mean": value(), "log_var": value()},
                                 {"mean": array(), "log_var": scalar()}])


def _outcome(load, path):
    """The error text of a load, or its arrays as bytes (bit-identical check)."""
    try:
        pset = load(path)
    except DumpFormatError as exc:
        return "error", str(exc)
    return "ok", tuple(pset.ids), *(
        (a.dtype.str, a.shape, a.tobytes()) for a in (pset.y, pset.means, pset.log_vars)
    )


# What a character mutation of a compact line writes: one character of the
# line's grammar or a token of a number JSON reads differently, as a Python
# float refuses or as no JSON number at all.
_CHARS = list('{}[],:"\\-+.eE0123456789 ;|')
_TOKENS = ["-0", "01", "1e400", "1" + "0" * 400, "true", "NaN"]


def _mutate_chars(line, rnd):
    """Insert, delete or replace one character of a line, or write a token."""
    i = rnd.randrange(len(line) + 1)
    piece = rnd.choice([rnd.choice(_CHARS), rnd.choice(_TOKENS)])
    kind = rnd.choice(["insert", "delete", "replace"])
    if kind == "insert":
        return line[:i] + piece + line[i:]
    return line[:i] + ("" if kind == "delete" else piece) + line[i + 1:]


def _records(rnd):
    """1 to 8 valid records of a drawn N and d, with their d."""
    m, n, d = rnd.randint(1, 8), rnd.randint(1, 3), rnd.randint(1, 3)

    def vector():
        return [_finite(rnd) for _ in range(d)]

    return [
        {"id": f"r{i}", "y": vector(),
         "samples": [{"mean": vector(), "log_var": _finite(rnd)} for _ in range(n)]}
        for i in range(m)
    ], d


class TestParserEquivalence:
    """load_dump gives the reference parser's exact error text, or bit-identical
    arrays, on valid dumps with a few values replaced, reshaped or dropped, and
    on compact dumps with a few characters changed."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rnd=st.randoms(use_true_random=True))
    def test_mutated_dumps_match_reference_parser(self, tmp_path, rnd):
        records, d = _records(rnd)
        for _ in range(rnd.randint(0, 2 * len(records))):
            _mutate(records, rnd, d)
        # Compact lines are in save_dump's shape; default separators never are.
        separators = rnd.choice([(",", ":"), None])
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(rec, separators=separators) + "\n" for rec in records))
        assert _outcome(load_dump, path) == _outcome(_reference_load_dump, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rnd=st.randoms(use_true_random=True))
    def test_character_mutations_match_reference_parser(self, tmp_path, rnd):
        records, _ = _records(rnd)
        lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
        for _ in range(rnd.randint(1, 3)):
            k = rnd.randrange(len(lines))
            lines[k] = _mutate_chars(lines[k], rnd)
        # The reference, like str.splitlines, drops the "\r" of a "\r\n".
        path = tmp_path / "d.jsonl"
        path.write_bytes("".join(
            line + rnd.choice(["\n"] * 3 + ["\r\n"]) for line in lines).encode("utf-8"))
        assert _outcome(load_dump, path) == _outcome(_reference_load_dump, path)


def _compact(rid="b", **fields):
    """A line in save_dump's shape with the id's text written as it is."""
    return _line(**fields).replace('"a"', f'"{rid}"', 1)


class TestFlatRoute:
    """Once a valid line has fixed d and N, a block whose every line is a new
    record in save_dump's shape is read without the checked parser; every
    line of any other block goes to it, and the result is the reference
    parser's either way."""

    @pytest.fixture
    def checked_lines(self, monkeypatch):
        """The numbers of the lines that reach the checked record parser."""
        linenos = []
        record = regcal_io._record

        def counting(line, lineno, *args):
            linenos.append(lineno)
            return record(line, lineno, *args)

        monkeypatch.setattr(regcal_io, "_record", counting)
        return linenos

    def test_saved_dump_is_checked_at_its_first_line_only(self, tmp_path, rng, checked_lines):
        pset = random_set(rng, m=800, n=25, d=1)
        path = tmp_path / "d.jsonl"
        save_dump(pset, path)
        loaded = load_dump(path)
        assert checked_lines == [1]
        assert loaded.ids == pset.ids
        for name in ("y", "means", "log_vars"):
            assert getattr(loaded, name).tobytes() == getattr(pset, name).tobytes(), name

    def test_negative_zero_loads_as_positive_zero(self, tmp_path, checked_lines):
        path = tmp_path / "d.jsonl"
        negative_zeros = _compact(y="[-0]", samples='[{"mean":[-0],"log_var":-0}]')
        path.write_text(_line() + "\n" + negative_zeros + "\n")
        pset = load_dump(path)
        assert checked_lines == [1]
        for a in (pset.y, pset.means, pset.log_vars):
            assert a.ravel()[1] == 0.0 and not np.signbit(a.ravel()[1])
        assert _outcome(load_dump, path) == _outcome(_reference_load_dump, path)

    @pytest.mark.parametrize(
        "lines, checked",
        [
            ([_line(), _compact('b\\"c')], [1, 2]),
            ([_line(), _compact("b\\\\")], [1, 2]),
            ([_line(), _compact("\u00e9")], [1]),
            ([_line(), _compact("b\u2028c")], [1, 2]),
            ([_line(y="[NaN]"), _compact("b"), _compact("c")], [1, 2]),
            ([_line(), _compact("b"), _compact("a")], [1, 2, 3]),
            ([_line(), _compact(y="[0.5,0.5]", samples='[{"mean":[0.4,0.4],"log_var":-2.0}]')],
             [1, 2]),
            ([_line(), _compact(samples=TWO_SAMPLES)], [1, 2]),
            ([_line(), _compact(samples='[{"mean":[0.4],"log_var":1' + "0" * 400 + "}]")], [1, 2]),
            ([_line(), _compact(samples='[{"mean":[0.4|-2.0}]')], [1, 2]),
            ([_line(samples=TWO_SAMPLES),
              _compact(samples='[{"mean":[0.4],"log_var":-2.0;0.5],"log_var":-2.5}]')], [1, 2]),
        ],
        ids=["escaped-quote-id", "escaped-backslash-id", "raw-e-acute-id", "raw-U+2028-id",
             "N-fixed-by-line-2", "duplicate-id", "other-d", "other-N", "huge-integer-log_var",
             "raw-bar-in-samples", "raw-semicolon-in-samples"],
    )
    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_declined_lines_reach_the_checked_parser(self, tmp_path, checked_lines, monkeypatch,
                                                     lines, checked, ending):
        path = tmp_path / "d.jsonl"
        path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
        got = _outcome(load_dump, path)
        # Each line up to the first valid one is a block; the lines after it form one.
        # The "\r" of a CRLF line is dropped first, so it takes the LF line's route.
        assert checked_lines == checked
        if "\u2028" not in path.read_text(encoding="utf-8"):  # the reference would split there
            assert got == _outcome(_reference_load_dump, path)
        monkeypatch.setattr(regcal_io, "_flat_block", lambda *args: None)
        assert got == _outcome(load_dump, path)

    def test_messages_of_declined_lines(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("".join(line + "\n" for line in [
            _line(), _compact("b"), _compact("a"), _compact("c", samples=TWO_SAMPLES),
            _compact("d", samples='[{"mean":[0.4],"log_var":1' + "0" * 400 + "}]"),
        ]))
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        assert str(err.value) == (
            "line 3: duplicate id 'a' (first on line 1); "
            "line 4: inconsistent N (expected 1, got 2); "
            "line 5: non-finite log_var in sample 0")

    @pytest.mark.parametrize("declined", ["spaced", "duplicate-id", "huge-integer"])
    def test_a_declined_line_sends_only_its_block(self, tmp_path, rng, checked_lines, monkeypatch,
                                                  declined):
        pset = random_set(rng, m=60, n=3, d=2)
        lines = list(dump_lines(pset))
        k = 30  # line 31
        if declined == "spaced":
            lines[k] = json.dumps(json.loads(lines[k]))
        elif declined == "duplicate-id":
            lines[k] = lines[k].replace(pset.ids[k], pset.ids[3])
        else:
            lines[k] = re.sub(r'"log_var":[^}]+', '"log_var":1' + "0" * 400, lines[k], count=1)
        path = tmp_path / "d.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        size = 5 * len(lines[0])
        monkeypatch.setattr(regcal_io, "_BLOCK_BYTES", size)
        # The blocks as load_dump reads them: line 1 alone, then about size characters.
        blocks = []
        with open(path, encoding="utf-8", newline="\n") as fh:
            fh.readline()
            while block := fh.readlines(size):
                start = 2 + sum(map(len, blocks))
                blocks.append(range(start, start + len(block)))
        (middle,) = [i for i, block in enumerate(blocks) if k + 1 in block]
        assert 0 < middle < len(blocks) - 1
        assert _outcome(load_dump, path) == _outcome(_reference_load_dump, path)
        assert checked_lines == [1, *blocks[middle]]


class TestBlocks:
    """Reading a dump a block of lines at a time changes nothing."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rnd=st.randoms(use_true_random=True))
    def test_any_block_size_gives_the_same_outcome(self, tmp_path, monkeypatch, rnd):
        records, d = _records(rnd)
        for _ in range(rnd.choice([0, 0, 1, 2])):
            _mutate(records, rnd, d)
        lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
        if rnd.random() < 0.3:
            k = rnd.randrange(len(lines))
            lines[k] = _mutate_chars(lines[k], rnd)
        path = tmp_path / "d.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        size = len(path.read_text())
        outcomes = set()
        for block_bytes in (1, rnd.randint(1, size), size):
            monkeypatch.setattr(regcal_io, "_BLOCK_BYTES", block_bytes)
            outcomes.add(_outcome(load_dump, path))
        assert outcomes == {_outcome(_reference_load_dump, path)}


class TestArtifactPersistence:
    def test_sigma_round_trip_bit_exact(self, tmp_path, rng):
        art = fit_sigma(uncertainty_records(random_set(rng, m=30, n=4)))
        path = tmp_path / "calib.json"
        save_artifact(art, path)
        loaded = load_artifact(path)
        assert loaded.method == "sigma"
        assert loaded.s == art.s  # repr round-trips doubles exactly
        assert loaded.likelihood == art.likelihood
        assert loaded.target == art.target
        assert loaded.fit_meta == art.fit_meta
        assert {k: type(v) for k, v in loaded.fit_meta.items()} == {
            k: type(v) for k, v in art.fit_meta.items()}

    def test_reals_stored_as_decimal_strings(self, tmp_path, rng):
        art = fit_sigma(uncertainty_records(random_set(rng, m=10, n=3)))
        doc = artifact_to_json(art)
        assert isinstance(doc["s"], str)
        assert float(doc["s"]) == art.s
        assert isinstance(doc["fit_meta"]["final_objective"], str)

    def test_fit_meta_reads_back_only_the_reals_it_writes(self, tmp_path):
        # float() reads every string here but "word"; of them, _real writes only "0.25" and "inf".
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"method": "sigma", "s": "1.5", "fit_meta": {
            "a": "0.25", "b": "inf", "c": "1e3", "d": "Infinity", "e": " 7 ", "f": "0.250",
            "g": "1", "h": "+0.25", "i": "NaN", "j": "word"}}))
        assert load_artifact(path).fit_meta == {
            "a": 0.25, "b": math.inf, "c": "1e3", "d": "Infinity", "e": " 7 ", "f": "0.250",
            "g": "1", "h": "+0.25", "i": "NaN", "j": "word"}

    def test_aux_round_trip_bit_exact(self, tmp_path, rng):
        art = aux_fit(
            uncertainty_records(random_set(rng, m=20, n=3)),
            AuxConfig(hidden_width=4, epochs=30, seed=2),
        )
        path = tmp_path / "aux.json"
        save_artifact(art, path)
        loaded = load_artifact(path)
        assert loaded.method == "aux"
        assert loaded.hidden_width == 4
        assert set(loaded.aux) == set(art.aux)
        for name, layer in art.aux.items():
            assert np.array_equal(loaded.aux[name], layer)

    def test_aux_json_layout(self, tmp_path, rng):
        art = aux_fit(
            uncertainty_records(random_set(rng, m=10, n=2)),
            AuxConfig(hidden_width=3, epochs=10, seed=0),
        )
        doc = artifact_to_json(art)
        assert doc["aux"]["h"] == 3
        assert len(doc["aux"]["w1"]) == 3
        assert len(doc["aux"]["b1"]) == 3
        assert len(doc["aux"]["w2"]) == 3
        assert isinstance(doc["aux"]["b2"], str)

    def test_identity_round_trip(self, tmp_path):
        path = tmp_path / "id.json"
        save_artifact(identity_artifact(), path)
        loaded = load_artifact(path)
        assert loaded.method == "identity"

    @pytest.mark.parametrize("name", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_refused(self, tmp_path, name):
        path = tmp_path / "calib.json"
        path.write_text('{"method": "sigma", "s": "1.5", "fit_meta": {"x": %s}}' % name)
        with pytest.raises(ValueError) as err:
            load_artifact(path)
        assert str(err.value) == f"invalid JSON (non-finite constant {name}) in {path}"

    def test_deep_nesting_is_a_value_error(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ValueError, match=r"^invalid JSON \(maximum recursion depth exceeded"):
            load_artifact(path)

    def test_artifact_file_is_valid_json(self, tmp_path, rng):
        art = fit_sigma(uncertainty_records(random_set(rng, m=10, n=2)))
        path = tmp_path / "calib.json"
        save_artifact(art, path)
        doc = json.loads(path.read_text())
        assert doc["method"] == "sigma"


class TestCsvWriters:
    def test_headers_match_interface(self, tmp_path, rng):
        from regcal.analysis import ood_compare, rejection_curve
        from regcal.intervals import coverage
        from regcal.io import (
            coverage_to_csv,
            diagram_to_csv,
            ood_to_csv,
            rejection_to_csv,
            trace_to_csv,
        )
        from regcal.metrics import calibration_diagram, uce
        from regcal.toymodel import ToyModelConfig, generate, train

        pset = random_set(rng, m=30, n=3)
        records = uncertainty_records(pset)

        path = tmp_path / "cov.csv"
        coverage_to_csv(coverage(records, [0.5, 0.9]), path)
        assert path.read_text().splitlines()[0] == "level,z,observed"

        path = tmp_path / "rej.csv"
        rejection_to_csv(rejection_curve(records, steps=5), path)
        assert path.read_text().splitlines()[0] == "threshold,frac_rejected,mse_kept"

        path = tmp_path / "ood.csv"
        ood_to_csv(ood_compare(records, records, k=5), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count_in,count_shifted"
        assert len(lines) == 6

        path = tmp_path / "diag.csv"
        diagram_to_csv(calibration_diagram(uce(records, k=5)), path)
        assert path.read_text().splitlines()[0] == "bin_lower,bin_upper,count,uncert_mean,var_obs"

        data = generate(0)
        _, trace = train(data, ToyModelConfig(epochs=3, seed=0))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,test_mse,train_sigma2,test_sigma2,train_nll,test_nll,s"
        assert len(lines) == 4

    def test_data_rows(self, tmp_path):
        """Integers are written without a fractional part, reals as their repr."""
        from regcal.analysis import RejectionCurve, ood_compare
        from regcal.core import BinStats
        from regcal.intervals import CoverageTable
        from regcal.io import (
            coverage_to_csv,
            diagram_to_csv,
            ood_to_csv,
            rejection_to_csv,
            trace_to_csv,
        )
        from regcal.toymodel import TrainingTrace

        def second_line(write, value):
            path = tmp_path / "out.csv"
            write(value, path)
            return path.read_text().splitlines()[1]

        table = CoverageTable(levels=[0.9], z_values=[1.6448536269514722], observed=[0.1 + 0.2])
        assert second_line(coverage_to_csv, table) == "0.9,1.6448536269514722,0.30000000000000004"
        curve = RejectionCurve(thresholds=np.array([0.25]), mse_kept=np.array([1 / 3]),
                               frac_rejected=np.array([0.5]))
        assert second_line(rejection_to_csv, curve) == "0.25,0.5,0.3333333333333333"
        unc = make_uncertainties([(f"r{i}", 0.0, 0.0, t) for i, t in enumerate([1.0, 1.5, 3.0])])
        assert second_line(ood_to_csv, ood_compare(unc, unc, k=2)) == "1.0,2.0,2,2"
        bins = [BinStats(k=0, lower=0.0, upper=0.5, count=3, var_obs=0.25, uncert_mean=0.1)]
        assert second_line(diagram_to_csv, bins) == "0.0,0.5,3,0.1,0.25"
        trace = TrainingTrace(train_mse=[0.5], test_mse=[0.25], train_sigma2=[2.0],
                              test_sigma2=[3.0], train_nll=[-1.5], test_nll=[1e-20], s=[0.75])
        assert second_line(trace_to_csv, trace) == "1,0.5,0.25,2.0,3.0,-1.5,1e-20,0.75"

    def test_svg_renders_points_and_diagonal(self, tmp_path, rng):
        from regcal.io import diagram_to_svg
        from regcal.metrics import calibration_diagram, uce

        pset = random_set(rng, m=30, n=3)
        bins = calibration_diagram(uce(uncertainty_records(pset), k=5))
        path = tmp_path / "diag.svg"
        diagram_to_svg(bins, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == len(bins)
        assert "stroke-dasharray" in text
