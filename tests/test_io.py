import builtins
import copy
import gc
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from regcal import io as regcal_io, jsonl as regcal_jsonl
from regcal.calibrate import AuxConfig, aux_fit, fit_sigma
from regcal.cli import main
from regcal.core import McPredictionSet, Uncertainties, identity_artifact
from regcal.io import artifact_to_json, load_artifact, load_uncertainties, save_artifact
from regcal.jsonl import DumpFormatError, dump_lines, load_dump, save_dump
from regcal.metrics import decompose, uncertainty_records

from conftest import make_record, make_set, make_uncertainties, random_set


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

    @pytest.mark.parametrize("field, value", [("y", np.nan), ("means", np.inf),
                                              ("log_vars", -np.inf)])
    def test_non_finite_value_is_refused_naming_its_record(self, tmp_path, field, value):
        pset = make_set([make_record("a", [0.1], [[0.2]], [1.0]),
                         make_record("b", [0.3], [[0.4]], [1.0])])
        getattr(pset, field).ravel()[-1] = value
        with pytest.raises(ValueError) as err:
            save_dump(pset, tmp_path / "d.jsonl")
        assert str(err.value) == "record 'b': non-finite value, which a dump cannot hold"

    @pytest.mark.parametrize("field", ["y", "means", "log_vars"])
    def test_the_first_non_finite_record_is_named(self, tmp_path, field):
        pset = make_set([make_record(rid, [0.1], [[0.2]], [1.0]) for rid in "abcd"])
        getattr(pset, field)[1] = np.inf
        getattr(pset, field)[3] = np.nan
        with pytest.raises(ValueError, match=r"^record 'b': non-finite value"):
            save_dump(pset, tmp_path / "d.jsonl")
        assert not (tmp_path / "d.jsonl").exists()

    @pytest.mark.parametrize("field", ["y", "means", "log_vars"])
    def test_refused_set_writes_nothing(self, tmp_path, field):
        pset = make_set([make_record(rid, [0.1], [[0.2]], [1.0]) for rid in "abc"])
        getattr(pset, field).ravel()[-1] = np.nan
        fresh, existing = tmp_path / "fresh.jsonl", tmp_path / "existing.jsonl"
        existing.write_bytes(b"old bytes\n")
        for path in (fresh, existing):
            with pytest.raises(ValueError, match=r"^record 'c': non-finite value"):
                save_dump(pset, path)
        assert not fresh.exists()
        assert existing.read_bytes() == b"old bytes\n"


def _whole_array_dump_lines(pset):
    """The lines of a set as a writer that converts the whole arrays to
    lists first writes them: the reference for :func:`dump_lines`."""
    for rid, y, means, log_vars in zip(pset.ids, pset.y.tolist(), pset.means.tolist(),
                                       pset.log_vars.tolist()):
        obj = {"id": rid, "y": y,
               "samples": [{"mean": mean, "log_var": lv} for mean, lv in zip(means, log_vars)]}
        yield json.dumps(obj, separators=(",", ":"))


class TestDumpLines:
    """dump_lines converts one record at a time and writes what a
    whole-array conversion writes."""

    EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
             1.0, -3.0, 1e16, 2.0 ** 53, 0.1, 1 / 3]

    def test_lines_match_the_whole_array_writer(self, tmp_path, rng):
        m, n, d = 6, 4, 2
        values = rng.permutation(np.resize(self.EDGES, m * n * (2 * d + 1) + m * d))
        y, rest = values[:m * d].reshape(m, d), values[m * d:].reshape(m, n, 2 * d + 1)
        ids = ["a", "\u00e9t\u00e9", 'say "hi"', "back\\slash", "\u2028", "r5"]
        pset = McPredictionSet(ids=ids, y=y, means=rest[:, :, :d].copy(),
                               log_vars=rest[:, :, d].copy())
        expected = list(_whole_array_dump_lines(pset))
        assert list(dump_lines(pset)) == expected
        text = "".join(expected)
        for token in ("-0.0", "5e-324", "1.7976931348623157e+308", "1.0", "-3.0", "1e+16",
                      "9007199254740992.0", '\\"hi\\"', "back\\\\slash", "\\u00e9"):
            assert token in text, token
        path = tmp_path / "d.jsonl"
        save_dump(pset, path)
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in expected)

    def test_random_sets_match_the_whole_array_writer(self, rng):
        for m, n, d in [(1, 1, 1), (7, 3, 1), (5, 25, 4)]:
            pset = random_set(rng, m=m, n=n, d=d)
            assert list(dump_lines(pset)) == list(_whole_array_dump_lines(pset))

    def test_a_non_finite_record_is_refused_when_its_line_is_built(self):
        pset = make_set([make_record(rid, [0.1], [[0.2]], [1.0]) for rid in "abc"])
        pset.means[1, 0, 0] = -np.inf
        lines = dump_lines(pset)
        assert next(lines) == '{"id":"a","y":[0.1],"samples":[{"mean":[0.2],"log_var":1.0}]}'
        with pytest.raises(ValueError, match=r"^record 'b': non-finite value"):
            next(lines)


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
    """What the readers hold while they parse. load_dump holds the arrays of
    the blocks read so far and one block's text and numbers, no per-record
    list, so neither memory nor the cycle collector grows with anything but
    the numbers themselves. load_uncertainties holds only the decomposed
    columns of the blocks read so far and one block, so its memory does not
    grow with N at all."""

    # The blocks' arrays and their concatenation hold the array bytes twice,
    # and load_dump peaks at 2.4x (d = 1) and 2.1x (d = 4) of them. Three
    # flat lists of every number as a float (32 bytes against 8) peaked at
    # 5.4x and 5.1x; holding the text, its lines or per-record lists as well
    # reads 8x and more.
    PEAK_OVER_ARRAYS = 3.0
    # load_uncertainties peaks while the flat route reads a block, whose text
    # it holds about seven times over, at 0.52 MB of 64 KiB blocks on each of
    # these dumps; holding the (m, N, d) arrays as well reads at least 1.8 MB
    # on the "long" dump.
    PEAK_BLOCKS = 8
    # Dumps by key: (m, N, d). The "long" one is the d = 1 one with 4x the N.
    SHAPES = {1: (800, 25, 1), 4: (160, 100, 4), "long": (800, 100, 1)}

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        paths = {}
        rng = np.random.default_rng(0)
        for key, (m, n, d) in self.SHAPES.items():
            y = rng.normal(size=(m, d))
            pset = McPredictionSet(ids=[f"r{i:05d}" for i in range(m)], y=y,
                                   means=y[:, None, :] + 0.1 * rng.normal(size=(m, n, d)),
                                   log_vars=rng.normal(-4.6, 0.5, size=(m, n)))
            paths[key] = tmp_path_factory.mktemp("footprint") / f"d{key}.jsonl"
            save_dump(pset, paths[key])
        return paths

    @staticmethod
    def peak_over_arrays(path) -> float:
        tracemalloc.start()
        try:
            pset = load_dump(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (pset.y.nbytes + pset.means.nbytes + pset.log_vars.nbytes)

    @staticmethod
    def column_peak(path) -> tuple[int, int]:
        """The peak traced bytes of load_uncertainties(path), and the bytes
        of its columns (0 when the dump is rejected)."""
        tracemalloc.start()
        try:
            unc, _ = load_uncertainties(path)
            columns = sum(getattr(unc, name).nbytes for name in COLUMNS)
        except DumpFormatError:
            columns = 0
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peak, columns

    def column_bound(self, columns: int) -> int:
        return 4 * columns + self.PEAK_BLOCKS * regcal_jsonl._BLOCK_BYTES

    @pytest.mark.parametrize("d", [1, 4])
    def test_peak_is_a_small_multiple_of_the_arrays(self, dumps, d):
        assert self.peak_over_arrays(dumps[d]) < self.PEAK_OVER_ARRAYS

    @pytest.mark.parametrize("d", [1, 4])
    def test_peak_on_a_cache_miss_and_a_hit(self, dumps, d, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        (miss, columns), (hit, _) = self.column_peak(dumps[d]), self.column_peak(dumps[d])
        assert len(list((tmp_path / "regcal").iterdir())) == 1
        assert hit < miss < self.column_bound(columns)

    @pytest.mark.parametrize("key", [1, 4, "long"])
    def test_the_column_reader_holds_the_columns_and_a_few_blocks(self, dumps, key):
        peak, columns = self.column_peak(dumps[key])
        assert peak < self.column_bound(columns)

    def test_the_column_reader_does_not_grow_with_n(self, dumps):
        long_peak, columns = self.column_peak(dumps["long"])
        assert long_peak < 1.25 * self.column_peak(dumps[1])[0]
        # The bound rules out holding the long dump's (m, N, d) arrays.
        m, n, d = self.SHAPES["long"]
        assert self.column_bound(columns) < 8 * m * n * (d + 1)

    @pytest.mark.parametrize("key", [1, 4])
    @pytest.mark.parametrize("where", ["first", "second", "middle", "last"])
    def test_a_rejected_dump_peaks_no_higher_than_a_valid_one(self, dumps, tmp_path, key, where):
        valid = dumps[key]
        lines = valid.read_text().splitlines()
        k = {"first": 0, "second": 1, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
        lines[k] = lines[k].replace('"y":[', '"y":{', 1)  # invalid JSON, the same size
        rejected = tmp_path / "rejected.jsonl"
        rejected.write_text("".join(line + "\n" for line in lines))
        assert rejected.stat().st_size == valid.stat().st_size
        for path in (valid, rejected):  # the first call of each path allocates for good
            self.column_peak(path)
        valid_peak = max(self.column_peak(valid)[0] for _ in range(2))
        # The slack, the same for a dump of any size, is what CPython's free lists
        # keep for reuse, and tracemalloc counts, of the dicts and lists that the
        # checked parser frees: at most 80 of each. It reads 2.6 kB on [middle-4].
        assert self.column_peak(rejected)[0] <= valid_peak + 32 * 1024

    def test_many_failing_lines_peak_below_a_valid_dump(self, tmp_path):
        """A dump of nothing but failing lines is read only up to the
        ``_REPORTED_LINES``-th of them, so its one message and its peak stay
        below what a valid dump of its size needs."""
        valid, rejected = tmp_path / "valid.jsonl", tmp_path / "rejected.jsonl"
        save_dump(random_set(np.random.default_rng(0), m=20, n=25), valid)
        size = valid.stat().st_size
        rejected.write_text("x" * (size % 2) + "x\n" * (size // 2))
        assert rejected.stat().st_size == size
        for path in (valid, rejected):  # the first call of each path allocates for good
            self.column_peak(path)
        assert self.column_peak(rejected)[0] < self.column_peak(valid)[0]
        with pytest.raises(DumpFormatError) as err:
            load_uncertainties(rejected)
        reported = regcal_jsonl._REPORTED_LINES
        assert str(err.value).endswith(f"line {reported}: invalid JSON (Expecting value); "
                                       "the rest of the file was not read")
        assert str(err.value).count("; ") == reported

    def test_a_blank_file_peaks_below_a_valid_dump(self, dumps, tmp_path):
        """Runs of blank lines are read in blocks of at most
        ``_BLANK_RUN_BYTES``, so a file of only blank lines is rejected in
        less memory than a valid dump of its size needs."""
        valid, blank = dumps[1], tmp_path / "blank.jsonl"
        blank.write_text("\n" * valid.stat().st_size)
        for path in (valid, blank):  # the first call of each path allocates for good
            self.column_peak(path)
        assert self.column_peak(blank)[0] < self.column_peak(valid)[0] / 2
        with pytest.raises(DumpFormatError, match=r"^empty dump file$"):
            load_uncertainties(blank)

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
            load_uncertainties(dumps[1])
        finally:
            gc.callbacks.remove(count)
        assert starts == []


class TestSaveFootprint:
    """save_dump holds one record's lists and line at a time, and its
    finiteness check no array of the set's size, so its peak does not grow
    with the number of records."""

    # The peaks of m and 4m records differed by at most 120 bytes; converting
    # the whole arrays to lists first grew the peak by 2.1 MB (d = 1) and
    # 3.6 MB (d = 4) from m to 4m.
    SLACK = 4 * 1024
    M, N = 200, 25

    @staticmethod
    def peak(pset, path) -> int:
        save_dump(pset, path)  # the first call allocates for good
        tracemalloc.start()
        try:
            save_dump(pset, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d", [1, 4])
    def test_peak_does_not_grow_with_m(self, tmp_path, d):
        rng = np.random.default_rng(d)
        small, large = (random_set(rng, m=m, n=self.N, d=d) for m in (self.M, 4 * self.M))
        path = tmp_path / "d.jsonl"
        assert self.peak(large, path) <= self.peak(small, path) + self.SLACK


def _line(rid="a", y="[0.5]", samples='[{"mean":[0.4],"log_var":-2.0}]'):
    return '{"id":%s,"y":%s,"samples":%s}' % (json.dumps(rid), y, samples)


TWO_SAMPLES = '[{"mean":[0.4],"log_var":-2.0},{"mean":[0.5],"log_var":-2.5}]'
# The end of a message whose last reported line is not the file's last non-blank line.
NOT_READ = "; the rest of the file was not read"


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
             "line 1: field samples[0].log_var must be a number"),
            ([_line(samples='[{"mean":[0.4],"log_var":true}]')],
             "line 1: field samples[0].log_var must be a number"),
            ([_line(samples='[{"mean":[0.4],"log_var":[-2.0]}]')],
             "line 1: field samples[0].log_var must be a number"),
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

    @pytest.mark.parametrize("rest, tail", [
        ("", ""), ("\n  \n", ""), ("not json\n", NOT_READ), ("not json\n" * 3, NOT_READ),
        (_line(rid="b") + "\n", NOT_READ), ("\n" + _line(rid="b") + "\n", NOT_READ)],
        ids=["last-line", "blank-lines-after", "one-more-failing", "three-more-failing",
             "valid-line-after", "blank-then-valid-after"])
    def test_message_stops_at_the_last_reported_line(self, tmp_path, monkeypatch, rest, tail):
        monkeypatch.setattr(regcal_jsonl, "_REPORTED_LINES", 2)
        path = tmp_path / "d.jsonl"
        path.write_text('{"id":"a"}\n' + "not json\n" + rest)
        with pytest.raises(DumpFormatError) as err:
            load_dump(path)
        # A line's messages are reported together; the cap counts lines.
        assert str(err.value) == ("line 1: missing field y; line 1: missing field samples; "
                                  "line 2: invalid JSON (Expecting value)" + tail)

    @pytest.mark.parametrize("valid_first", [False, True], ids=["bad-lines", "valid-then-bad"])
    def test_no_line_past_the_last_reported_one_is_parsed(self, tmp_path, monkeypatch,
                                                          valid_first):
        """300,000 failing lines, alone or after one valid record, reach the
        checked parser only up to the last reported one."""
        calls = {"all": 0, "failed": 0}
        record = regcal_jsonl._record

        def counting(*args):
            calls["all"] += 1
            try:
                return record(*args)
            except regcal_jsonl._BadLine:
                calls["failed"] += 1
                raise

        monkeypatch.setattr(regcal_jsonl, "_record", counting)
        path = tmp_path / "d.jsonl"
        path.write_text((_line() + "\n") * valid_first + "x\n" * 300_000)
        with pytest.raises(DumpFormatError) as err:
            load_uncertainties(path)
        reported = regcal_jsonl._REPORTED_LINES
        assert calls == {"all": reported + valid_first, "failed": reported}
        assert str(err.value).endswith(
            f"line {reported + valid_first}: invalid JSON (Expecting value){NOT_READ}")
        assert str(err.value).count(NOT_READ) == 1

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
# copied verbatim (bar the names and the later type message for log_var), as
# the reference for the equivalence test.
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
        if type(s["log_var"]) not in (int, float):
            raise _ReferenceBadLine(f"field samples[{j}].log_var must be a number")
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
        record = regcal_jsonl._record

        def counting(line, lineno, *args):
            linenos.append(lineno)
            return record(line, lineno, *args)

        monkeypatch.setattr(regcal_jsonl, "_record", counting)
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
        monkeypatch.setattr(regcal_jsonl, "_flat_block", lambda *args: None)
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
        monkeypatch.setattr(regcal_jsonl, "_BLOCK_BYTES", size)
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
            monkeypatch.setattr(regcal_jsonl, "_BLOCK_BYTES", block_bytes)
            outcomes.add(_outcome(load_dump, path))
        assert outcomes == {_outcome(_reference_load_dump, path)}


class _CountingText(io.TextIOWrapper):
    """A dump opened as read_dump opens it, that records what each of its
    readlines calls returns: the size hint and the lines."""

    def __init__(self, path, reads):
        super().__init__(io.BufferedReader(io.FileIO(path)), encoding="utf-8", newline="\n")
        self.reads = reads

    def readlines(self, hint=-1):
        lines = super().readlines(hint)
        self.reads.append((hint, lines))
        return lines


class TestBlankRuns:
    """Before N is fixed, a run of blank lines is read in blocks that double
    up to ``_BLANK_RUN_BYTES`` characters, and a line after a non-blank one
    on its own; line numbers and outcomes are the reference parser's."""

    @pytest.fixture
    def reads(self, monkeypatch):
        reads = []
        monkeypatch.setattr(regcal_jsonl, "open",
                            lambda path, *args, **kwargs: _CountingText(path, reads),
                            raising=False)
        return reads

    @pytest.mark.parametrize("first", ["valid", "invalid"])
    def test_runs_are_read_in_few_blocks(self, tmp_path, reads, first):
        head = _line() if first == "valid" else "x"
        lines = ["\n" * 30_000, " \t\r\n" * 1_000, head + "\n", "\n" * 20_000,
                 _compact("b") + "\n", "\n" * 5_000, _compact("c") + "\n", _compact("d") + "\n"]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(lines))
        got = _outcome(load_dump, path)
        assert got == _outcome(_reference_load_dump, path)
        if first == "valid":
            assert got[0] == "ok"
        else:
            assert got == ("error", "line 31001: invalid JSON (Expecting value)")
        # One read per doubling of each run's blocks and a few of full-size
        # blocks; one read per line would be 56,000.
        assert len(reads) < 100
        hints = [hint for hint, _ in reads]
        n_fixed = hints.index(regcal_jsonl._BLOCK_BYTES)
        assert max(hints[:n_fixed]) == regcal_jsonl._BLANK_RUN_BYTES
        assert set(hints[n_fixed:]) == {regcal_jsonl._BLOCK_BYTES}

    def test_lines_after_a_non_blank_one_are_read_one_at_a_time(self, tmp_path, reads):
        path = tmp_path / "d.jsonl"
        path.write_text("\n" * 100 + ("x" * 99 + "\n") * 3 + "\n" + ("y" * 99 + "\n") * 3)
        assert _outcome(load_dump, path) == _outcome(_reference_load_dump, path)
        first = next(k for k, (_, lines) in enumerate(reads) if any(map(str.strip, lines)))
        # The run's blocks of 1 to 32 characters read 69 of its lines; the block of
        # 64 reads the rest and the first x line. After that a hint of 1 reads one
        # line, or a one-character line and the next.
        assert [(hint, sum(map(bool, map(str.strip, lines)))) for hint, lines in reads[first:]] \
            == [(64, 1)] + [(1, 1)] * 5 + [(1, 0)]

    def test_a_run_reads_no_more_characters_past_it_than_it_holds(self, tmp_path, reads):
        path = tmp_path / "d.jsonl"
        blanks = 500
        path.write_text("\n" * blanks + "x\n" * 30_000)
        with pytest.raises(DumpFormatError, match=NOT_READ + "$"):
            load_dump(path)
        past = sum(len(line) for _, lines in reads for line in lines if line != "\n")
        # The lines up to the last reported one, and what the run's last block
        # read past the run.
        assert past <= 2 * regcal_jsonl._REPORTED_LINES + blanks


# The columns of load_uncertainties, in the order of a cache entry.
COLUMNS = ("residual", "epistemic", "aleatoric", "pass_err_sq")


def _exact(loaded):
    """The ids and N of a load_uncertainties result and, per column, its
    dtype, shape, C-contiguity and bytes."""
    unc, n = loaded
    return tuple(unc.ids), n, *((c.dtype.str, c.shape, c.flags.c_contiguous, c.tobytes())
                                for c in (getattr(unc, name) for name in COLUMNS))


# The parts of the cache key, in the order of regcal.io._key_parts.
KEY_PARTS = [*(f"{name}.py" for name in regcal_io._ENTRY_MODULES), "numpy-version", "exp-probe"]


def _another_program(monkeypatch, part):
    """Have regcal.io see a program that differs from this one in the key
    part ``part`` alone: its last byte changes, its length stays."""
    parts = list(regcal_io._key_parts())
    k = KEY_PARTS.index(part)
    parts[k] = parts[k][:-1] + bytes([parts[k][-1] ^ 1])
    monkeypatch.setattr(regcal_io, "_key_parts", lambda: tuple(parts))


def _expected(pset):
    """What load_uncertainties must give for a dump of ``pset``."""
    return _exact((uncertainty_records(pset), pset.n_samples))


def _reduced_outcome(load, path):
    """The error of a load, or its result as :func:`_exact` gives it."""
    try:
        return "ok", _exact(load(path))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _uncached(path):
    """The dump at ``path`` decomposed as a whole set after an uncached load."""
    pset = load_dump(path)
    return uncertainty_records(pset), pset.n_samples


def _decomposable_records(rnd):
    """1 to 8 valid records of a drawn N and d (1 to 3 each) whose
    decomposition stays finite: reals of any exponent up to 1e150, and
    log_vars that exp() takes to any double from 0 to about 1e304."""
    m, n, d = rnd.randint(1, 8), rnd.randint(1, 3), rnd.randint(1, 3)

    def real():
        return rnd.choice([rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-320, 150),
                           rnd.randint(-10**20, 10**20), -0.0, 5e-324])

    return [
        {"id": f"r{i}", "y": [real() for _ in range(d)],
         "samples": [{"mean": [real() for _ in range(d)], "log_var": rnd.uniform(-800.0, 700.0)}
                     for _ in range(n)]}
        for i in range(m)
    ]


_STYLES = {"compact": ((",", ":"), "\n"), "spaced": (None, "\n"), "crlf": ((",", ":"), "\r\n")}


def _write_records(path, records, style):
    separators, ending = _STYLES[style]
    path.write_bytes("".join(json.dumps(rec, separators=separators) + ending
                             for rec in records).encode())
    return path


class TestBlockReduction:
    """load_uncertainties reduces each block of a dump as it is read, to
    exactly the columns of ``uncertainty_records(load_dump(path))``."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rnd=st.randoms(use_true_random=True), style=st.sampled_from(sorted(_STYLES)))
    def test_any_block_size_gives_the_whole_set_columns(self, tmp_path, monkeypatch, rnd, style):
        records = _decomposable_records(rnd)
        if rnd.random() < 0.2:  # an aleatoric part that overflows
            rnd.choice(records)["samples"][0]["log_var"] = 1000.0
        path = _write_records(tmp_path / "d.jsonl", records, style)
        expected = _reduced_outcome(_uncached, path)
        # Line 1 is a block of its own; a hint of the next k lines' length makes
        # the next block exactly those k lines, for every k from 1 to m - 1.
        with open(path, encoding="utf-8", newline="\n") as fh:
            lengths = [len(line) for line in fh][1:]
        for hint in {1, *itertools.accumulate(lengths)}:
            monkeypatch.setattr(regcal_jsonl, "_BLOCK_BYTES", hint)
            assert _reduced_outcome(load_uncertainties, path) == expected

    def test_a_set_sliced_in_blocks_reduces_to_the_whole_set_columns(self, rng):
        pset = random_set(rng, m=37, n=11, d=3)
        whole = decompose(pset.y, pset.means, pset.log_vars)
        for k in range(1, pset.m + 1):
            blocks = [decompose(pset.y[i:i + k], pset.means[i:i + k], pset.log_vars[i:i + k])
                      for i in range(0, pset.m, k)]
            for column, parts in zip(whole, zip(*blocks), strict=True):
                assert np.concatenate(parts).tobytes() == column.tobytes()


class TestErrorPrecedence:
    """Every format error of a dump is reported before a non-finite
    uncertainty, also when the two lie in different blocks."""

    @pytest.mark.parametrize("command", [
        ["calibrate", "--method", "sigma"], ["evaluate"], ["intervals"], ["reject"], ["ood"],
    ], ids=lambda argv: argv[0])
    def test_a_later_malformed_line_wins_over_an_earlier_overflow(self, tmp_path, rng, monkeypatch,
                                                                  capsys, command):
        lines = list(dump_lines(random_set(rng, m=60, n=3, d=1)))
        lines[5] = re.sub(r'"log_var":[^}]+', '"log_var":1000', lines[5], count=1)  # exp overflows
        monkeypatch.setattr(regcal_jsonl, "_BLOCK_BYTES", 3 * len(lines[0]))
        path, out = tmp_path / "d.jsonl", tmp_path / "out"
        if command == ["ood"]:
            inputs = ["--in-dist", str(path), "--shifted", str(path)]
        else:
            inputs = ["--input", str(path)]
        argv = [*command, *inputs, "--out", str(out)]

        path.write_text("".join(line + "\n" for line in lines[:50] + ["not json"] + lines[50:]))
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: dump-format: line 51: invalid JSON (Expecting value)\n")

        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as uncached:
            uncertainty_records(load_dump(path))
        assert str(uncached.value).startswith("record 'r0005': non-finite uncertainty")
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: invalid-input: {uncached.value}\n"
        assert not out.exists()


def _reversed_lines(data: bytes) -> bytes:
    """The lines of a dump in reverse order: the same size, other columns."""
    return b"".join(reversed(data.splitlines(keepends=True)))


def _rewrite_in_place(path, data: bytes) -> None:
    """Overwrite the file at ``path`` in place with ``data`` of its size,
    then give it back its atime and mtime, as cp -p, rsync -t and touch -r do."""
    st = os.stat(path)
    with open(path, "r+b") as fh:
        assert fh.write(data) == st.st_size == len(data)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def _entry_bytes(ids, n, *columns) -> bytes:
    """A cache entry as load_uncertainties writes one: a JSON line of N and
    the ids, then the columns in npy format."""
    buf = io.BytesIO()
    buf.write(json.dumps({"n_samples": n, "ids": ids}).encode() + b"\n")
    for c in columns:
        np.save(buf, c)
    return buf.getvalue()


def _bad_entry(kind: str, good: bytes, pset) -> bytes:
    unc = uncertainty_records(pset)
    ids, n = unc.ids, pset.n_samples
    residual, epistemic, *rest = (getattr(unc, name) for name in COLUMNS)
    if kind == "truncated":
        return good[:len(good) // 2]
    if kind == "trailing-byte":
        return good + b"\0"
    if kind == "garbage":
        return bytes(range(256)) * 4
    if kind == "wrong-shape":
        return _entry_bytes(ids, n, residual, epistemic[:-1], *rest)
    if kind == "short-residual":
        return _entry_bytes(ids, n, residual[:-1], epistemic, *rest)
    if kind == "flat-residual":
        return _entry_bytes(ids, n, residual.ravel(), epistemic, *rest)
    if kind == "nan":
        return _entry_bytes(ids, n, np.full_like(residual, np.nan), epistemic, *rest)
    if kind == "duplicate-id":
        return _entry_bytes([ids[0]] * len(ids), n, residual, epistemic, *rest)
    if kind == "float32":
        return _entry_bytes(ids, n, residual.astype(np.float32), epistemic, *rest)
    if kind == "fortran-order":
        return _entry_bytes(ids, n, np.asfortranarray(residual), epistemic, *rest)
    if kind == "zero-n":
        return _entry_bytes(ids, 0, residual, epistemic, *rest)
    assert kind == "pickled"
    return _entry_bytes(ids, n, np.array([0.5, None], dtype=object), epistemic, *rest)


class TestDumpCache:
    """A dump read from a regular file is parsed once per content: a hit
    returns the miss's ids, columns and N bit for bit, and every other state
    of the cache falls back to parsing, silently and with the same result."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        """The entries' directory, under a fresh XDG_CACHE_HOME."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        return tmp_path / "xdg" / "regcal"

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths the parser reads."""
        paths = []
        read = regcal_jsonl.read_dump

        def counting(path, reduce, *digest):
            paths.append(path)
            return read(path, reduce, *digest)

        monkeypatch.setattr(regcal_jsonl, "read_dump", counting)
        return paths

    @staticmethod
    def saved(tmp_path, rng, name="d.jsonl"):
        pset = random_set(rng, m=20, n=3, d=2)
        save_dump(pset, tmp_path / name)
        return tmp_path / name, pset

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rnd=st.randoms(use_true_random=True), style=st.sampled_from(sorted(_STYLES)))
    def test_a_hit_is_the_miss_bit_for_bit(self, tmp_path, rnd, style):
        path = _write_records(tmp_path / "d.jsonl", _decomposable_records(rnd), style)
        with pytest.MonkeyPatch.context() as mp:
            xdg = tempfile.mkdtemp(dir=tmp_path)
            mp.setenv("XDG_CACHE_HOME", xdg)
            miss = _exact(load_uncertainties(path))
            assert ("ok", miss) == _reduced_outcome(_uncached, path)
            assert len(os.listdir(os.path.join(xdg, "regcal"))) == 1
            mp.setattr(regcal_jsonl, "read_dump", None)  # a parse would fail
            assert _exact(load_uncertainties(path)) == miss

    def test_the_entry_layout(self, tmp_path, cache, rng):
        path, pset = self.saved(tmp_path, rng)
        load_uncertainties(path)
        (entry,) = cache.iterdir()
        unc = uncertainty_records(pset)
        assert entry.read_bytes() == _entry_bytes(pset.ids, pset.n_samples,
                                                  *(getattr(unc, name) for name in COLUMNS))

    def test_a_changed_dump_at_the_same_path_misses(self, tmp_path, cache, parses, rng):
        path, _ = self.saved(tmp_path, rng)
        load_uncertainties(path)
        path, pset = self.saved(tmp_path, rng)
        assert _exact(load_uncertainties(path)) == _expected(pset)
        assert len(parses) == 2 and len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("part", KEY_PARTS)
    def test_a_changed_key_prefix_misses(self, tmp_path, cache, parses, rng, monkeypatch, part):
        path, pset = self.saved(tmp_path, rng)
        load_uncertainties(path)
        _another_program(monkeypatch, part)
        for _ in range(2):
            assert _exact(load_uncertainties(path)) == _expected(pset)
        assert len(parses) == 2 and len(list(cache.iterdir())) == 2

    def test_the_key_covers_the_parser_and_the_decomposition_sources(self):
        def source(fn):
            return pathlib.Path(inspect.getsourcefile(fn)).read_bytes()

        parts = regcal_io._key_parts()
        assert len(parts) == len(KEY_PARTS)
        # The code that parses, decomposes, types, writes and checks an entry.
        for fn in (regcal_jsonl.read_dump, decompose, Uncertainties, regcal_io._write_entry,
                   regcal_io._read_entry):
            assert source(fn) in parts
        assert np.__version__.encode() in parts

    def test_a_hit_under_another_simd_dispatch_is_its_miss(self, tmp_path, cache, rng):
        # np.exp, and so the aleatoric column, rounds differently without AVX-512
        # on a CPU that has it; elsewhere both dispatches are one and this holds
        # trivially. numpy skips the names this CPU or numpy does not have.
        path = tmp_path / "d.jsonl"
        save_dump(random_set(rng, m=500, n=25), path)
        load_uncertainties(path)
        child = """
import sys
from regcal.io import load_uncertainties
from regcal.jsonl import load_dump
from regcal.metrics import uncertainty_records
(hit, n), pset = load_uncertainties(sys.argv[1]), load_dump(sys.argv[1])
miss = uncertainty_records(pset)
assert hit.ids == miss.ids and n == pset.n_samples
for name in sys.argv[2:]:
    a, b = getattr(hit, name), getattr(miss, name)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
"""
        env = {**os.environ, "XDG_CACHE_HOME": str(cache.parent),
               "PYTHONPATH": str(pathlib.Path(regcal_io.__file__).parent.parent),
               "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512F AVX512_SKX AVX512_ICL AVX512_SPR"}
        proc = subprocess.run([sys.executable, "-c", child, str(path), *COLUMNS], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("kind", ["truncated", "trailing-byte", "garbage", "wrong-shape",
                                      "short-residual", "flat-residual", "nan", "duplicate-id",
                                      "float32", "pickled", "fortran-order", "zero-n"])
    def test_a_bad_entry_is_parsed_past_and_rewritten(self, tmp_path, cache, parses, rng, kind):
        path, pset = self.saved(tmp_path, rng)
        expected = _exact(load_uncertainties(path))
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        entry.write_bytes(_bad_entry(kind, good, pset))
        assert _exact(load_uncertainties(path)) == expected
        assert len(parses) == 2 and entry.read_bytes() == good

    def test_an_invalid_dump_writes_no_entry(self, tmp_path, cache, parses):
        path = tmp_path / "d.jsonl"
        path.write_text(_line() + "\n" + _line() + "\n")
        for _ in range(3):
            with pytest.raises(DumpFormatError) as err:
                load_uncertainties(path)
            assert str(err.value) == "line 2: duplicate id 'a' (first on line 1)"
        assert len(parses) == 3 and not list(cache.iterdir())

    def test_a_non_finite_uncertainty_writes_no_entry(self, tmp_path, cache, parses):
        path = tmp_path / "d.jsonl"
        path.write_text(_line(samples='[{"mean":[0.4],"log_var":1000}]') + "\n")
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^record 'a': non-finite uncertainty"):
                load_uncertainties(path)
        assert len(parses) == 2 and not list(cache.iterdir())

    def test_a_dump_rewritten_while_parsed_is_stored_under_the_bytes_parsed(self, tmp_path, cache,
                                                                            rng, monkeypatch):
        # A same-size rewrite that keeps the old mtime, as cp -p, rsync -t and
        # touch -r make, lands between the lookup's hash and the parse.
        path, pset = self.saved(tmp_path, rng)
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(path.read_bytes())
        read = regcal_jsonl.read_dump

        def rewriting(path, reduce, *digest):
            _rewrite_in_place(path, _reversed_lines(path.read_bytes()))
            return read(path, reduce, *digest)

        with monkeypatch.context() as mp:
            mp.setattr(regcal_jsonl, "read_dump", rewriting)
            rewritten = _exact(load_uncertainties(path))
        assert rewritten == _exact(_uncached(path)) != _expected(pset)
        assert _exact(load_uncertainties(copy)) == _expected(pset)
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("xdg, home, entries", [
        ("{tmp}/a-file/cache", "{tmp}/home", None),
        ("cache", "{tmp}/home", "{tmp}/home/.cache/regcal"),
        ("cache", "", None),
        ("cache", None, None),
    ], ids=["under-a-file", "relative", "relative-with-empty-home", "relative-without-home"])
    def test_an_unusable_cache_directory(self, tmp_path, monkeypatch, capfd, parses, rng,
                                         xdg, home, entries):
        path, pset = self.saved(tmp_path, rng)
        (tmp_path / "a-file").touch()
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("XDG_CACHE_HOME", xdg.format(tmp=tmp_path))
        if home is None:
            monkeypatch.delenv("HOME")
        else:
            monkeypatch.setenv("HOME", home.format(tmp=tmp_path))
        for _ in range(2):
            assert _exact(load_uncertainties(path)) == _expected(pset)
        assert capfd.readouterr() == ("", "")
        assert not list(work.iterdir())
        if entries is None:
            assert len(parses) == 2 and not (tmp_path / "home").exists()
        else:
            assert len(parses) == 1 and len(os.listdir(entries.format(tmp=tmp_path))) == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_is_parsed_once_and_leaves_no_entry(self, tmp_path, cache, parses, rng):
        path, pset = self.saved(tmp_path, rng)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        loaded = []
        # A second open of the FIFO would block, so both ends run in threads.
        threads = [threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                    daemon=True),
                   threading.Thread(target=lambda: loaded.append(load_uncertainties(fifo)),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert _exact(loaded[0]) == _expected(pset)
        assert parses == [fifo] and not list(cache.iterdir())

    def test_the_oldest_entries_are_pruned_first(self, tmp_path, cache, rng, monkeypatch):
        paths = [self.saved(tmp_path, rng, f"d{k}.jsonl")[0] for k in range(4)]
        entries = []
        for path in paths[:2]:
            load_uncertainties(path)
            entries += set(cache.iterdir()) - set(entries)
        size = entries[0].stat().st_size
        (cache / "not-an-entry").write_bytes(bytes(3 * size))
        monkeypatch.setattr(regcal_io, "_CACHE_MAX_BYTES", 2 * size)
        os.utime(entries[0], ns=(10**9, 10**9))
        os.utime(entries[1], ns=(2 * 10**9, 2 * 10**9))
        load_uncertainties(paths[0])  # a hit refreshes its entry
        assert entries[0].stat().st_mtime_ns > 2 * 10**9
        load_uncertainties(paths[2])
        assert entries[0].exists() and not entries[1].exists()
        assert len(list(cache.glob("*.dump"))) == 2 and (cache / "not-an-entry").exists()
        # An entry larger than the bound is not written, so it prunes nothing.
        monkeypatch.setattr(regcal_io, "_CACHE_MAX_BYTES", size // 2)
        load_uncertainties(paths[3])
        assert len(list(cache.glob("*.dump"))) == 2

    def test_a_stale_temporary_file_counts_and_is_pruned_oldest_first(self, tmp_path, cache, rng,
                                                                     monkeypatch):
        # What a writer killed between writing its temporary file and renaming it leaves.
        path, _ = self.saved(tmp_path, rng)
        load_uncertainties(path)
        (entry,) = cache.iterdir()
        stale = cache / f"{entry.name}.12345.tmp"
        stale.write_bytes(bytes(1000))
        os.utime(stale, ns=(10**9, 10**9))
        monkeypatch.setattr(regcal_io, "_CACHE_MAX_BYTES", entry.stat().st_size + 100)
        regcal_io._prune(str(cache))
        assert not stale.exists() and entry.exists()
        # A temporary file newer than every entry goes after them.
        stale.write_bytes(bytes(1000))
        monkeypatch.setattr(regcal_io, "_CACHE_MAX_BYTES", 1050)
        regcal_io._prune(str(cache))
        assert not entry.exists() and stale.exists()


    # -- the stat index in front of the entries

    @pytest.fixture
    def opens(self, monkeypatch):
        """The paths that open() opens, as strings: the lookup's hash opens
        the dump with it, a parse with a digest does not."""
        paths = []
        real = builtins.open

        def counting(file, *args, **kwargs):
            paths.append(file if type(file) is int else os.fspath(file))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        return paths

    @staticmethod
    def record(cache, path) -> pathlib.Path:
        st = os.stat(path)
        return cache.parent / "regcal-index" / f"{st.st_dev}-{st.st_ino}.stat"

    @staticmethod
    def settle(cache):
        """Date every index record an hour ahead, as if each had been written
        long after its dump last changed."""
        later = time.time_ns() + 3600 * 10**9
        for record in (cache.parent / "regcal-index").glob("*.stat"):
            os.utime(record, ns=(later, later))

    def test_a_settled_record_reads_no_dump_byte(self, tmp_path, cache, rng, opens, monkeypatch):
        path, pset = self.saved(tmp_path, rng)
        assert _exact(load_uncertainties(path)) == _expected(pset)
        # The dump changed within the margin of the record's date: it is hashed.
        opens.clear()
        assert _exact(load_uncertainties(path)) == _expected(pset)
        assert str(path) in opens
        self.settle(cache)
        opens.clear()
        monkeypatch.setattr(regcal_jsonl, "read_dump", None)  # a parse would fail
        monkeypatch.setitem(sys.modules, "hashlib", None)  # so would an import of hashlib
        assert _exact(load_uncertainties(path)) == _expected(pset)
        assert str(path) not in opens

    @pytest.mark.parametrize("kind", ["utime", "replace", "hard-link"])
    def test_a_same_size_rewrite_with_the_old_mtime_is_hashed(self, tmp_path, cache, rng, opens,
                                                              kind):
        path, pset = self.saved(tmp_path, rng)
        load_uncertainties(path)
        self.settle(cache)
        new = _reversed_lines(path.read_bytes())
        if kind == "utime":  # the same inode; ctime moves
            _rewrite_in_place(path, new)
        elif kind == "replace":  # another inode
            other = tmp_path / "other.jsonl"
            other.write_bytes(new)
            st = path.stat()
            os.utime(other, ns=(st.st_atime_ns, st.st_mtime_ns))
            os.replace(other, path)
        else:  # the same inode under another name; linking moves ctime
            link = tmp_path / "link.jsonl"
            os.link(path, link)
            _rewrite_in_place(link, new)
        opens.clear()
        assert _exact(load_uncertainties(path)) == _exact(_uncached(path)) != _expected(pset)
        assert str(path) in opens

    @pytest.mark.parametrize("past_margin", [0, 1])
    def test_the_margin_decides_whether_a_matching_record_is_trusted(self, tmp_path, cache, rng,
                                                                    opens, past_margin):
        # A rewrite within one clock tick of the dump's stamps keeps them all: the
        # record left by the old bytes then matches the new bytes' stat.
        path, pset = self.saved(tmp_path, rng)
        load_uncertainties(path)
        record = self.record(cache, path)
        old_key = json.loads(record.read_text())["key"]
        _rewrite_in_place(path, _reversed_lines(path.read_bytes()))
        st = path.stat()
        record.write_text(json.dumps(regcal_io._record(st, regcal_io._program(), old_key)))
        date = max(st.st_mtime_ns, st.st_ctime_ns) + regcal_io._RACY_NS + past_margin
        os.utime(record, ns=(date, date))
        opens.clear()
        loaded = _exact(load_uncertainties(path))
        if past_margin:  # what a clock step could make: the old bytes' entry is served
            assert loaded == _expected(pset) and str(path) not in opens
        else:
            assert loaded == _exact(_uncached(path)) != _expected(pset)
            assert str(path) in opens

    @pytest.mark.parametrize("kind", ["truncated", "foreign", "non-json", "path-key"])
    def test_a_bad_record_is_hashed_past_and_rewritten(self, tmp_path, cache, rng, opens, kind):
        path, pset = self.saved(tmp_path, rng)
        other, _ = self.saved(tmp_path, rng, "other.jsonl")
        for dump in (path, other):
            load_uncertainties(dump)
        record = self.record(cache, path)
        good = record.read_bytes()
        if kind == "truncated":
            bad = good[:len(good) // 2]
        elif kind == "foreign":  # the settled record of another dump
            bad = self.record(cache, other).read_bytes()
        elif kind == "non-json":
            bad = bytes(range(256))
        else:
            doc = json.loads(good)
            doc["key"] = "../" + doc["key"][3:]
            bad = json.dumps(doc).encode()
        record.write_bytes(bad)
        self.settle(cache)
        opens.clear()
        assert _exact(load_uncertainties(path)) == _expected(pset)
        assert str(path) in opens and record.read_bytes() == good

    @pytest.mark.parametrize("part", KEY_PARTS)
    def test_a_record_of_another_program_is_not_trusted(self, tmp_path, cache, parses, rng,
                                                        monkeypatch, part):
        path, pset = self.saved(tmp_path, rng)
        load_uncertainties(path)
        self.settle(cache)
        _another_program(monkeypatch, part)
        # Trusted, the record would serve the entry that the other program made.
        assert _exact(load_uncertainties(path)) == _expected(pset)
        assert len(parses) == 2

    def test_the_oldest_records_are_pruned_first(self, tmp_path, cache, rng, monkeypatch):
        paths = [self.saved(tmp_path, rng, f"d{k}.jsonl")[0] for k in range(3)]
        index = cache.parent / "regcal-index"
        monkeypatch.setattr(regcal_io, "_INDEX_MAX_BYTES", 2 * regcal_io._INDEX_FILE_BYTES)
        for k, path in enumerate(paths[:2]):
            load_uncertainties(path)
            os.utime(self.record(cache, path), ns=((k + 1) * 10**9, (k + 1) * 10**9))
        # Rewriting a record prunes nothing; a new one prunes the oldest.
        load_uncertainties(paths[0])
        assert len(list(index.iterdir())) == 2
        os.utime(self.record(cache, paths[0]), ns=(10**9, 10**9))
        # A stale temporary record, left empty, counts as a block.
        stale = index / "0-0.stat.12345.tmp"
        stale.touch()
        os.utime(stale, ns=(0, 0))
        load_uncertainties(paths[2])
        assert set(index.iterdir()) == {self.record(cache, path) for path in paths[1:]}


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
