import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import regcal
from regcal.calibrate import apply_calibration
from regcal.cli import build_parser, main
from regcal.io import load_artifact
from regcal.jsonl import load_dump, save_dump
from regcal.likelihood import FAMILIES, batch_nll
from regcal.metrics import uncertainty_records

from conftest import random_set

QUICK_TOY = ["--epochs", "40", "--mc-passes", "5"]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "run"
    assert main(["toy", "--seed", "0", "--out-dir", str(out), *QUICK_TOY]) == 0
    return out


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def dump_text(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


# Five records every command answers; error tests add a bad one.
GOOD_RECORDS = [{"id": f"r{i}", "y": [0.2], "samples": [
    {"mean": [0.1], "log_var": -2.0 + 0.1 * i}, {"mean": [0.3], "log_var": -1.5}]}
    for i in range(5)]


class TestToyCommand:
    def test_expected_outputs_exist(self, toy_dir):
        names = {p.name for p in toy_dir.iterdir()}
        assert names == {
            "train.jsonl", "val.jsonl", "test.jsonl", "trace.csv",
            "calib_sigma.json", "calib_aux.json", "summary.json",
        }

    def test_repeat_run_is_byte_identical(self, toy_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["toy", "--seed", "0", "--out-dir", str(again), *QUICK_TOY]) == 0
        assert read_tree(toy_dir) == read_tree(again)

    def test_summary_compares_methods(self, toy_dir):
        summary = json.loads((toy_dir / "summary.json").read_text())
        assert set(summary["test"]) == {"none", "sigma", "aux"}
        for entry in summary["test"].values():
            assert {"mse", "nll", "uce_predictive", "uce_aleatoric_only", "coverage"} <= set(entry)
        # recalibration never moves the predictions
        assert summary["test"]["sigma"]["mse"] == summary["test"]["none"]["mse"]
        assert summary["test"]["aux"]["mse"] == summary["test"]["none"]["mse"]


class TestCalibrateEvaluate:
    def test_sigma_then_evaluate_reduces_uce_on_calibration_dump(self, toy_dir, tmp_path):
        calib = tmp_path / "calib.json"
        r_cal = tmp_path / "cal.json"
        r_raw = tmp_path / "raw.json"
        val = str(toy_dir / "val.jsonl")
        assert main(["calibrate", "--input", val, "--method", "sigma", "--out", str(calib)]) == 0
        assert main(["evaluate", "--input", val, "--calib", str(calib), "--out", str(r_cal)]) == 0
        assert main(["evaluate", "--input", val, "--out", str(r_raw)]) == 0
        cal = json.loads(r_cal.read_text())
        raw = json.loads(r_raw.read_text())
        assert cal["uce_predictive"]["uce"] <= raw["uce_predictive"]["uce"]
        assert cal["mse"] == raw["mse"]

    def test_identity_calibration_report_is_byte_identical(self, toy_dir, tmp_path):
        from regcal.core import identity_artifact
        from regcal.io import save_artifact

        ident = tmp_path / "identity.json"
        save_artifact(identity_artifact(), ident)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        test = str(toy_dir / "test.jsonl")
        assert main(["evaluate", "--input", test, "--calib", str(ident), "--out", str(a)]) == 0
        assert main(["evaluate", "--input", test, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gd_flag_and_aux_method(self, toy_dir, tmp_path):
        val = str(toy_dir / "val.jsonl")
        out = tmp_path / "c.json"
        assert main(["calibrate", "--input", val, "--method", "sigma", "--gd", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["fit_meta"]["fit"] == "gd"
        assert main([
            "calibrate", "--input", val, "--method", "aux", "--h", "4",
            "--iters", "50", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["aux"]["h"] == 4

    def test_aleatoric_target_flag(self, toy_dir, tmp_path):
        out = tmp_path / "c.json"
        assert main([
            "calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", "sigma",
            "--target", "aleatoric", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["target"] == "aleatoric_only"

    def test_evaluate_report_embeds_provenance(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"), "--bins", "7",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["bins"] == 7
        assert doc["provenance"]["calibration"]["method"] == "identity"
        assert "bin_range" in doc["provenance"]
        assert doc["uce_predictive"]["num_bins"] == 7

    def test_evaluate_provenance_keeps_artifact_strings(self, toy_dir, tmp_path):
        calib, out = tmp_path / "calib.json", tmp_path / "r.json"
        meta = {"fit": "Infinity", "iterations": 3, "m": "12", "note": "1e3", "objective": "0.25",
                "tag": " 7 "}
        calib.write_text(json.dumps({"method": "sigma", "s": "1.5", "fit_meta": meta}))
        assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"), "--calib", str(calib),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["provenance"]["calibration"]["fit_meta"] == meta

    def test_evaluate_default_bins_in_provenance(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["bins"] == 10
        assert doc["uce_predictive"]["num_bins"] == 10

    def test_diagram_and_svg_outputs(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        diag = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"), "--out", str(out),
                     "--diagram", str(diag), "--svg", str(svg)]) == 0
        assert diag.read_text().startswith("bin_lower,bin_upper,count,uncert_mean,var_obs")
        assert svg.read_text().startswith("<svg")


class TestDecomposeOnce:
    """Each command loads (and so validates) each dump it reads exactly once,
    and decomposes each of its records exactly once, as it reads them; the
    per-line checks of the parser are the only dump validation, and no
    command holds the (m, N, d) arrays of a dump."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Count calls to a public function through every module that holds it."""
        fn = getattr(regcal, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "regcal" or key.startswith("regcal."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize("argv, dumps", [
        ("calibrate --input {toy}/val.jsonl --method sigma --out {out}/c.json", ["val"]),
        ("evaluate --input {toy}/test.jsonl --out {out}/r.json"
         " --diagram {out}/d.csv --svg {out}/d.svg", ["test"]),
        ("intervals --input {toy}/test.jsonl --out {out}/cov.csv", ["test"]),
        ("reject --input {toy}/test.jsonl --out {out}/rej.csv", ["test"]),
        ("ood --in-dist {toy}/val.jsonl --shifted {toy}/test.jsonl --out {out}/ood.csv",
         ["val", "test"]),
    ], ids=["calibrate", "evaluate", "intervals", "reject", "ood"])
    def test_calls_per_command(self, monkeypatch, toy_dir, tmp_path, argv, dumps):
        whole_sets = self.count_calls(monkeypatch, "uncertainty_records")
        parsed_sets = self.count_calls(monkeypatch, "load_dump")
        loaded = self.count_calls(monkeypatch, "load_uncertainties")
        decomposed = []  # the records of each decomposed block
        decompose = regcal.metrics.decompose

        def counted(y, *arrays):
            decomposed.append(len(y))
            return decompose(y, *arrays)

        monkeypatch.setattr(regcal.metrics, "decompose", counted)
        argv = argv.format(toy=toy_dir, out=tmp_path).split()
        assert main(argv) == 0
        assert len(loaded) == len(dumps)
        assert sum(decomposed) == sum(load_dump(toy_dir / f"{name}.jsonl").m for name in dumps)
        assert whole_sets == parsed_sets == []


def fresh_modules(statement: str, *args: str) -> tuple[set[str], str]:
    """The modules loaded after ``statement`` runs in a fresh interpreter
    with ``src`` on the path and ``args`` as ``sys.argv[1:]``, and its stderr."""
    code = (f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
            f"try:\n    {statement}\nexcept SystemExit:\n    pass\n"
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True)
    return set(json.loads(proc.stdout.splitlines()[-1])), proc.stderr


MAIN = "from regcal.cli import main; main(sys.argv[1:])"


class TestImports:
    """A command imports only the modules it runs."""

    @pytest.mark.parametrize("argv, err", [
        (["--help"], ""),
        (["evaluate", "--help"], ""),
        (["calibrate", "--method", "sigma"], "error: usage: "),
        (["calibrate", "--input", "d.jsonl", "--method", "sigma", "--gd", "--lr", "0.5",
          "--out", "c.json"], "error: invalid-flag: --lr is not read by calibrate"),
    ], ids=["help", "evaluate-help", "usage-error", "invalid-flag"])
    def test_parser_and_flag_errors_load_no_numpy(self, argv, err):
        modules, stderr = fresh_modules(MAIN, *argv)
        assert stderr.startswith(err) and stderr.count("\n") == bool(err)
        assert "numpy" not in modules and "hashlib" not in modules

    @pytest.mark.parametrize("argv", [
        "calibrate --input {toy}/val.jsonl --method sigma --out {out}/c.json",
        "evaluate --input {toy}/test.jsonl --out {out}/r.json",
        "intervals --input {toy}/test.jsonl --out {out}/cov.csv",
        "reject --input {toy}/test.jsonl --out {out}/rej.csv",
        "ood --in-dist {toy}/val.jsonl --shifted {toy}/test.jsonl --out {out}/ood.csv",
    ], ids=["calibrate", "evaluate", "intervals", "reject", "ood"])
    def test_dump_commands_skip_the_toy_model(self, toy_dir, tmp_path, argv):
        argv = argv.format(toy=toy_dir, out=tmp_path).split()
        modules, stderr = fresh_modules(MAIN, *argv)
        assert stderr == "" and Path(argv[-1]).exists()
        assert "regcal.toymodel" not in modules
        assert ("regcal.analysis" in modules) == (argv[0] in ("reject", "ood"))
        assert "numpy.ma" not in modules

    @pytest.mark.parametrize("argv", [
        "calibrate --input {toy}/val.jsonl --method aux --h 4 --iters 20 --out {out}/c.json",
        "evaluate --input {toy}/test.jsonl --out {out}/r.json",
        "intervals --input {toy}/test.jsonl --out {out}/cov.csv",
        "reject --input {toy}/test.jsonl --out {out}/rej.csv",
        "ood --in-dist {toy}/val.jsonl --shifted {toy}/test.jsonl --out {out}/ood.csv",
    ], ids=["calibrate", "evaluate", "intervals", "reject", "ood"])
    def test_a_warm_dump_command_loads_no_parser(self, toy_dir, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        argv = argv.format(toy=toy_dir, out=tmp_path).split()
        out = Path(argv[-1])
        cold, cold_err = fresh_modules(MAIN, *argv)
        cold_bytes = out.read_bytes()
        out.unlink()
        warm, warm_err = fresh_modules(MAIN, *argv)
        assert cold_err == warm_err == "" and out.read_bytes() == cold_bytes
        assert "regcal.jsonl" in cold and "regcal.jsonl" not in warm

    def test_a_settled_warm_dump_command_hashes_no_dump(self, toy_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        out = tmp_path / "ood.csv"
        argv = ["ood", "--in-dist", str(toy_dir / "val.jsonl"), "--shifted",
                str(toy_dir / "test.jsonl"), "--out", str(out)]
        fresh_modules(MAIN, *argv)
        cold_bytes = out.read_bytes()
        out.unlink()
        # Index records dated long after their dumps last changed are trusted.
        later = time.time_ns() + 3600 * 10**9
        records = list((tmp_path / "cache" / "regcal-index").glob("*.stat"))
        for record in records:
            os.utime(record, ns=(later, later))
        modules, stderr = fresh_modules(MAIN, *argv)
        assert len(records) == 2 and stderr == "" and out.read_bytes() == cold_bytes
        assert "hashlib" not in modules and "regcal.jsonl" not in modules

    def test_import_loads_no_module(self):
        modules, _ = fresh_modules("import regcal")
        assert {name for name in modules if name.startswith("regcal")} == {"regcal"}
        assert "numpy" not in modules

    def test_reading_all_loads_every_module(self):
        modules, _ = fresh_modules("import regcal; regcal.__all__")
        names = "analysis calibrate core intervals io jsonl likelihood metrics toymodel".split()
        assert {name for name in modules if name.startswith("regcal.")} == {
            f"regcal.{name}" for name in names}


# Registered in a fresh interpreter before main() runs, this atexit callback
# runs after main()'s own hook (atexit runs last-in, first-out) and prints how
# many objects the collector holds frozen by then.
EXIT_PROBE = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count()))\n"
              f"sys.path.insert(0, {str(SRC)!r})\n"
              "from regcal.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


class TestExitFreeze:
    """A regcal process moves its objects to the collector's permanent
    generation at exit, whatever way it ends; main() run in-process leaves
    the collector as it was and adds one atexit callback at most."""

    @pytest.mark.parametrize("argv, rc, err", [
        ("evaluate --input {toy}/test.jsonl --out {out}/r.json", 0, ""),
        ("--help", 0, ""),
        ("evaluate --input {out}/bad.jsonl --out {out}/bad.json", 1,
         "error: dump-format: line 1: missing field samples\n"),
    ], ids=["evaluate", "help", "refused-dump"])
    def test_a_process_exits_frozen(self, toy_dir, tmp_path, argv, rc, err):
        (tmp_path / "bad.jsonl").write_text('{"id":"a","y":[0.5]}\n')
        proc = subprocess.run([sys.executable, "-c", EXIT_PROBE,
                               *argv.format(toy=toy_dir, out=tmp_path).split()],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (rc, err)
        assert int(proc.stdout.rpartition("frozen at exit: ")[2]) > 0
        if rc == 0 and argv != "--help":
            frozen_report = (tmp_path / "r.json").read_bytes()
            assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"),
                         "--out", str(tmp_path / "r.json")]) == 0
            assert (tmp_path / "r.json").read_bytes() == frozen_report
        assert not (tmp_path / "bad.json").exists()

    def test_in_process_main_keeps_a_normal_collector(self, toy_dir, tmp_path):
        # The command runs once without main() first, so that the modules it
        # imports have registered their own atexit callbacks before the count.
        code = (f"import atexit, gc, sys\nsys.path.insert(0, {str(SRC)!r})\n"
                "from regcal.cli import build_parser, main\n"
                "args = build_parser().parse_args(sys.argv[1:])\n"
                "args.func(args)\n"
                "before = atexit._ncallbacks()\n"
                "for argv in (sys.argv[1:], ['--help'], ['evaluate', '--bins'], sys.argv[1:]):\n"
                "    try:\n"
                "        main(argv)\n"
                "    except SystemExit:\n"
                "        pass\n"
                "print(gc.get_freeze_count(), atexit._ncallbacks() - before)\n")
        proc = subprocess.run([sys.executable, "-c", code, "evaluate", "--input",
                               str(toy_dir / "test.jsonl"), "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "0 1"
        assert gc.get_freeze_count() == 0  # after every main() this module has run

    def test_no_output_is_left_to_a_finalizer(self, tmp_path, monkeypatch):
        """An exit that freezes the collector runs no finalizer of a cyclic
        object: every command closes what it opens before main() returns, on
        a cache miss and on a hit, so a collection after it finds no file to
        close and warns of none."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        toy, out = tmp_path / "toy", tmp_path
        commands = [
            f"toy --seed 0 --epochs 2 --mc-passes 2 --out-dir {toy}",
            f"calibrate --input {toy}/val.jsonl --method sigma --out {out}/sigma.json",
            f"calibrate --input {toy}/val.jsonl --method aux --h 2 --iters 5 --out {out}/aux.json",
            f"evaluate --input {toy}/test.jsonl --calib {out}/aux.json --out {out}/r.json "
            f"--diagram {out}/d.csv --svg {out}/d.svg",
            f"intervals --input {toy}/test.jsonl --calib {out}/sigma.json --out {out}/cov.csv",
            f"reject --input {toy}/test.jsonl --calib {out}/sigma.json --out {out}/rej.csv",
            f"ood --in-dist {toy}/val.jsonl --shifted {toy}/test.jsonl --out {out}/ood.csv",
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for argv in commands + commands[1:]:  # the second time, every dump is cached
                assert main(argv.split()) == 0, argv
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert unraisable == []
        assert len(list((tmp_path / "cache" / "regcal").iterdir())) == 2  # val and test


class TestPublicApi:
    def test_exports_resolve_to_their_definitions(self):
        for name in regcal.__all__:
            value = getattr(regcal, name)
            assert value.__name__ == name and value.__module__.startswith("regcal.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_and_dir_list_every_export(self):
        namespace = {}
        exec("from regcal import *", namespace)
        assert set(regcal.__all__) <= set(namespace)
        assert set(regcal.__all__) <= set(dir(regcal))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'not_an_export'"):
            regcal.not_an_export

    def test_likelihood_choices_are_the_families(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        likelihood = next(a for a in commands["calibrate"]._actions if a.dest == "likelihood")
        assert tuple(likelihood.choices) == tuple(FAMILIES)

    def test_the_readme_quick_tour_runs(self, tmp_path, rng, monkeypatch, capsys):
        readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
        after = readme.split("Library use mirrors the demos:\n", 1)[1].lstrip("\n")
        assert after.startswith("```python\n")
        block = after.removeprefix("```python\n").split("```\n", 1)[0]
        for name in ("val", "test"):
            save_dump(random_set(rng, m=40, n=4), tmp_path / f"{name}.jsonl")
        monkeypatch.chdir(tmp_path)
        exec(compile(block, "README.md", "exec"), {})
        uce_line, coverage_line = capsys.readouterr().out.splitlines()
        assert float(uce_line) >= 0.0 and len(json.loads(coverage_line)) == 4


class TestOtherCommands:
    def test_intervals_csv(self, toy_dir, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["intervals", "--input", str(toy_dir / "test.jsonl"),
                     "--levels", "0.5,0.9", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,z,observed"
        assert len(lines) == 3

    def test_laplace_artifact_sets_interval_z_and_nll(self, toy_dir, tmp_path):
        calib, test = tmp_path / "laplace.json", toy_dir / "test.jsonl"
        assert main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", "sigma",
                     "--likelihood", "laplace", "--out", str(calib)]) == 0
        out = tmp_path / "cov.csv"
        assert main(["intervals", "--input", str(test), "--calib", str(calib),
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        # The Laplacian's central half-width per unit b = sqrt(total) is ln(1 / (1 - level)).
        assert [float(z) for _, z, _ in rows] == pytest.approx(
            [math.log(2.0), math.log(10.0), math.log(20.0), math.log(100.0)], rel=1e-15)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--input", str(test), "--calib", str(calib),
                     "--out", str(report)]) == 0
        unc = apply_calibration(uncertainty_records(load_dump(test)), load_artifact(calib))
        assert json.loads(report.read_text())["nll"] == batch_nll(unc, "laplace")

    def test_reject_csv(self, toy_dir, tmp_path):
        out = tmp_path / "rej.csv"
        assert main(["reject", "--input", str(toy_dir / "test.jsonl"),
                     "--steps", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,frac_rejected,mse_kept"
        assert len(lines) == 11

    def test_reject_absolute_thresholds_csv(self, toy_dir, tmp_path):
        out = tmp_path / "rej.csv"
        assert main(["reject", "--input", str(toy_dir / "test.jsonl"),
                     "--thresholds", "0.01,0.1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,frac_rejected,mse_kept"
        total = uncertainty_records(load_dump(toy_dir / "test.jsonl")).total
        for line, t in zip(lines[1:], (0.01, 0.1), strict=True):
            threshold, frac_rejected, _ = line.split(",")
            assert float(threshold) == t
            assert float(frac_rejected) == np.sum(total > t) / len(total)

    def test_reject_bad_thresholds_flag(self, capsys, toy_dir, tmp_path):
        out = tmp_path / "rej.csv"
        rc = main(["reject", "--input", str(toy_dir / "test.jsonl"),
                   "--thresholds", "0.1,abc", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: invalid-flag: could not parse thresholds '0.1,abc'\n"
        assert not out.exists()

    def test_ood_csv(self, toy_dir, tmp_path):
        out = tmp_path / "ood.csv"
        assert main(["ood", "--in-dist", str(toy_dir / "val.jsonl"),
                     "--shifted", str(toy_dir / "test.jsonl"),
                     "--bins", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count_in,count_shifted"
        assert len(lines) == 9


class TestErrorReporting:
    def test_missing_file(self, capsys, tmp_path):
        rc = main(["evaluate", "--input", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert err.count("\n") == 1

    def test_directory_input(self, capsys, tmp_path):
        rc = main(["evaluate", "--input", str(tmp_path), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io:")
        assert err.count("\n") == 1

    def test_malformed_dump(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","samples":[]}\n')
        rc = main(["evaluate", "--input", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dump-format:")
        assert "line 1" in err

    # 10^15 counts: more than the x86-64 address space holds, so the
    # allocation fails at once under any overcommit policy.
    @pytest.mark.parametrize("command, flag", [("evaluate", "bins"), ("ood", "bins"),
                                               ("reject", "steps")])
    def test_a_count_too_large_to_allocate(self, capsys, tmp_path, command, flag):
        path, out = tmp_path / "d.jsonl", tmp_path / "out"
        path.write_text(dump_text(GOOD_RECORDS))
        if command == "ood":
            inputs = ["--in-dist", str(path), "--shifted", str(path)]
        else:
            inputs = ["--input", str(path)]
        rc = main([command, *inputs, f"--{flag}", str(10**15), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: memory: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["diagram", "svg"])
    def test_an_output_that_cannot_be_written_leaves_no_output(self, capsys, tmp_path, missing):
        path = tmp_path / "d.jsonl"
        path.write_text(dump_text(GOOD_RECORDS))
        outputs = {"out": "r.json", "diagram": "d.csv", "svg": "d.svg"}
        outputs[missing] = f"missing/{outputs[missing]}"
        flags = [arg for flag, name in outputs.items() for arg in (f"--{flag}", tmp_path / name)]
        rc = main(["evaluate", "--input", str(path), *map(str, flags)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]

    def test_a_failed_evaluate_keeps_a_link_it_wrote_through(self, capsys, tmp_path):
        # As with --out /dev/stdout: the link is not an output to remove.
        path, report, link = tmp_path / "d.jsonl", tmp_path / "r.json", tmp_path / "link.json"
        path.write_text(dump_text(GOOD_RECORDS))
        link.symlink_to(report)
        rc = main(["evaluate", "--input", str(path), "--out", str(link),
                   "--svg", str(tmp_path / "missing" / "d.svg")])
        assert rc == 1 and capsys.readouterr().err.startswith("error: io: ")
        assert link.is_symlink() and json.loads(report.read_text())["m"] == len(GOOD_RECORDS)
        # The same for a toy run whose trace.csv is a link and whose summary fails.
        out, trace = tmp_path / "toy", tmp_path / "trace.csv"
        (out / "summary.json").mkdir(parents=True)
        (out / "trace.csv").symlink_to(trace)
        rc = main(["toy", "--seed", "0", "--epochs", "1", "--mc-passes", "1",
                   "--out-dir", str(out)])
        assert rc == 1 and capsys.readouterr().err.startswith("error: io: ")
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]
        assert (out / "trace.csv").is_symlink() and trace.read_text().startswith("epoch,")

    def test_a_failed_toy_leaves_no_partial_run(self, capsys, tmp_path):
        (tmp_path / "summary.json").mkdir()
        rc = main(["toy", "--seed", "0", "--epochs", "1", "--mc-passes", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: io: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]

    # Each command, the module attribute that writes its last output, and that output.
    LAST_WRITES = {
        "calibrate": (["calibrate", "--input", "{dump}", "--method", "sigma",
                       "--out", "{out}/c.json"], "save_artifact", "c.json"),
        "evaluate": (["evaluate", "--input", "{dump}", "--out", "{out}/r.json", "--diagram",
                      "{out}/d.csv", "--svg", "{out}/d.svg"], "diagram_to_svg", "d.svg"),
        "intervals": (["intervals", "--input", "{dump}", "--out", "{out}/i.csv"],
                      "coverage_to_csv", "i.csv"),
        "reject": (["reject", "--input", "{dump}", "--out", "{out}/r.csv"],
                   "rejection_to_csv", "r.csv"),
        "ood": (["ood", "--in-dist", "{dump}", "--shifted", "{dump}", "--out", "{out}/o.csv"],
                "ood_to_csv", "o.csv"),
        "toy": (["toy", "--seed", "0", "--epochs", "1", "--mc-passes", "1", "--out-dir", "{out}"],
                "write_json", "summary.json"),
    }

    @pytest.mark.parametrize("command", LAST_WRITES)
    def test_a_failed_last_write_leaves_no_output(self, capsys, toy_dir, tmp_path, monkeypatch,
                                                  command):
        argv, writer, last = self.LAST_WRITES[command]
        real = getattr(regcal.io, writer)

        def fail_last(doc, path):  # every other output is written, then removed
            if Path(path).name == last:
                raise OSError(f"cannot write {path}")
            real(doc, path)

        monkeypatch.setattr(regcal.io, writer, fail_last)
        dump, out = toy_dir / "val.jsonl", tmp_path / "out"
        out.mkdir()
        assert main([a.format(dump=dump, out=out) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: io: cannot write {out / last}\n"
        assert list(out.iterdir()) == []

    # A subnormal total variance: batch_nll's error term overflows to inf.
    NLL_OVERFLOW_RECORD = {"id": "r9", "y": [1.0], "samples": [
        {"mean": [0.3], "log_var": -740.0}, {"mean": [0.3], "log_var": -740.0}]}

    def test_a_non_finite_report_value_is_named(self, capsys, tmp_path):
        path, report = tmp_path / "d.jsonl", tmp_path / "r.json"
        path.write_text(dump_text(GOOD_RECORDS + [self.NLL_OVERFLOW_RECORD]))
        assert main(["evaluate", "--input", str(path), "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid-input: Out of range float values are not JSON compliant: inf at nll\n")
        assert not report.exists()

    def test_bad_flags_single_line(self, capsys, tmp_path):
        for argv in (["calibrate", "--method", "sigma"],
                     ["calibrate", "--input", "d.jsonl", "--method", "sigma",
                      "--likelihood", "foo", "--out", str(tmp_path / "c.json")]):
            rc = main(argv)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage:")
            assert err.count("\n") == 1

    def test_aux_laplace_rejected(self, capsys, toy_dir, tmp_path):
        rc = main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", "aux",
                   "--likelihood", "laplace", "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "error: invalid-flag:" in capsys.readouterr().err

    def test_bad_levels_flag(self, capsys, toy_dir, tmp_path):
        rc = main(["intervals", "--input", str(toy_dir / "test.jsonl"),
                   "--levels", "0.5,zebra", "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert "error: invalid-flag:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("reject", "thresholds"), ("intervals", "levels")])
    @pytest.mark.parametrize("value", [",", "nan,0.1"], ids=["no-items", "nan-item"])
    def test_empty_or_nan_sweep_flag(self, capsys, toy_dir, tmp_path, command, flag, value):
        out = tmp_path / "out.csv"
        rc = main([command, "--input", str(toy_dir / "test.jsonl"), f"--{flag}", value,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: invalid-flag: could not parse {flag} {value!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--epochs", "0"], "epochs and mc_passes must be >= 1"),
        (["--epochs", "-3"], "epochs and mc_passes must be >= 1"),
        (["--mc-passes", "0"], "epochs and mc_passes must be >= 1"),
        (["--seed", "-1", "--epochs", "1", "--mc-passes", "1"], "seed must be >= 0, got -1"),
    ], ids=["zero-epochs", "negative-epochs", "zero-mc-passes", "negative-seed"])
    def test_bad_toy_override_single_error_line(self, capsys, tmp_path, flags, message):
        out = tmp_path / "toy"
        assert main(["toy", "--out-dir", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"error: invalid-input: {message}\n"
        assert not out.exists()

    def test_negative_aux_seed_single_error_line(self, capsys, toy_dir, tmp_path):
        out = tmp_path / "c.json"
        rc = main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", "aux",
                   "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: invalid-input: seed must be >= 0, got -1\n"
        assert not out.exists()

    # The sigma fit has no step size, so any --lr is an unread flag there.
    @pytest.mark.parametrize("lr", ["nan", "inf"])
    @pytest.mark.parametrize("method_flags, rc, message", [
        (["sigma", "--gd"], 2, "invalid-flag: --lr is not read by calibrate --method sigma --gd"),
        (["aux"], 1, "invalid-input: step_size must be finite and positive, got {lr}"),
    ], ids=["sigma-gd", "aux"])
    def test_non_finite_lr_single_error_line(self, capsys, toy_dir, tmp_path, method_flags,
                                             rc, message, lr):
        out = tmp_path / "c.json"
        assert main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method",
                     *method_flags, "--lr", lr, "--out", str(out)]) == rc
        assert capsys.readouterr().err == f"error: {message.format(lr=float(lr))}\n"
        assert not out.exists()

    @pytest.mark.parametrize("route, flag", [
        (["sigma"], ["--h", "4"]),
        (["sigma"], ["--seed", "0"]),
        (["sigma"], ["--lr", "0.5"]),
        (["sigma"], ["--iters", "50"]),
        (["sigma", "--gd"], ["--h", "4"]),
        (["sigma", "--gd"], ["--seed", "1"]),
        (["sigma", "--gd"], ["--lr", "1e9"]),
        (["aux"], ["--gd"]),
    ], ids=lambda flags: "-".join(flags).replace("--", ""))
    def test_flag_the_route_does_not_read_refused(self, capsys, toy_dir, tmp_path, route, flag):
        out = tmp_path / "c.json"
        assert main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", *route,
                     *flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid-flag: {flag[0]} is not read by calibrate --method {' '.join(route)}\n")
        assert not out.exists()

    def test_unconverged_gd_fit_single_error_line(self, capsys, toy_dir, tmp_path):
        out = tmp_path / "c.json"
        assert main(["calibrate", "--input", str(toy_dir / "val.jsonl"), "--method", "sigma",
                     "--gd", "--iters", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: calibration: sigma fit did not converge in 2 iterations; raise --iters\n")
        assert not out.exists()

    def test_validation_failure_in_dump(self, capsys, tmp_path):
        # structurally fine JSONL but semantically broken: NaN y
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","y":[NaN],"samples":[{"mean":[0.1],"log_var":-2.0}]}\n')
        rc = main(["evaluate", "--input", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error: dump-format:" in capsys.readouterr().err

    # The second line of a dump whose first line is FIRST_LINE, and its error.
    FIRST_LINE = '{"id":"b","y":[0.2],"samples":[{"mean":[0.1],"log_var":-2.0}]}'
    BAD_SECOND_LINES = [
        ('{"id":"a","y":[1' + "0" * 400 + '],"samples":[{"mean":[0.1],"log_var":-2.0}]}',
         "line 2: non-finite y"),
        ('{"id":"a","y":[0.1],"samples":[{"mean":[0.1],"log_var":1' + "0" * 400 + '}]}',
         "line 2: non-finite log_var in sample 0"),
        ('{"id":"b","y":[0.1],"samples":[{"mean":[0.1],"log_var":-2.0}]}',
         "line 2: duplicate id 'b' (first on line 1)"),
        # written as the raw byte 0xff, which no UTF-8 text holds
        ('{"id":"\udcff","y":[0.1],"samples":[{"mean":[0.1],"log_var":-2.0}]}',
         "not UTF-8 text (invalid start byte, byte 0xff)"),
    ]
    BAD_SECOND_LINE_IDS = ["huge-int-y", "huge-int-log-var", "duplicate-id", "not-utf8"]

    @pytest.mark.parametrize("record, message", BAD_SECOND_LINES, ids=BAD_SECOND_LINE_IDS)
    def test_bad_dump_single_error_line(self, capsys, tmp_path, record, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(self.FIRST_LINE + "\n" + record + "\n",
                       encoding="utf-8", errors="surrogateescape")
        rc = main(["evaluate", "--input", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: dump-format: {message}\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("as_calib, code", [(False, "dump-format: line 1"),
                                                (True, "invalid-input")], ids=["dump", "calib"])
    def test_deep_nesting_single_error_line(self, capsys, toy_dir, tmp_path, as_calib, code):
        nested = tmp_path / "nested"
        nested.write_text(
            '{"id":"a","y":[0.5],"samples":[{"mean":%s,"log_var":-2.0}]}\n' % ("[" * 100_000))
        dump, calib = (toy_dir / "val.jsonl", ["--calib", str(nested)]) if as_calib else (nested, [])
        assert main(["evaluate", "--input", str(dump), *calib, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {code}: invalid JSON (maximum recursion depth exceeded")
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    AUX = '{"method": "aux", "aux": {"h": 2, "w1": %s, "b1": %s, "w2": %s, "b2": "0.0"}}'

    BAD_ARTIFACTS = [
        ('{"method": "sigma"}', "sigma artifact is missing field 's'"),
        ('{"method": "sigma", "s": "inf"}', "requires a finite s > 0"),
        ('{"method": "sigma", "s": "nan"}', "requires a finite s > 0"),
        ('["sigma", "1.0"]', "artifact must be a JSON object"),
        # 3 + 1 + 2 entries: the total matches h=2, each field does not
        (AUX % ('["1", "2", "3"]', '["0"]', '["0", "0"]'), "aux field w1 must be a list of h=2"),
        (AUX % ('"12"', '["0", "0"]', '["0", "0"]'), "aux field w1 must be a list of h=2"),
        (AUX % ('["1", "2"]', '["0", "0"]', '["0", "inf"]'), "requires finite weights"),
        ('{"method": "sigma", "s": true}', "s must be a real, got true"),
        ('{"method": "aux", "aux": {"h": true, "w1": [true], "b1": ["0"], "w2": [false],'
         ' "b2": true}}', "aux field h must be an integer, got true"),
        (AUX.replace('"h": 2', '"h": 2.0') % ('["1", "2"]', '["0", "0"]', '["0", "0"]'),
         "aux field h must be an integer, got 2.0"),
        (AUX.replace('"h": 2', '"h": "2"') % ('["1", "2"]', '["0", "0"]', '["0", "0"]'),
         'aux field h must be an integer, got "2"'),
        (AUX % ('["1", true]', '["0", "0"]', '["0", "0"]'), "aux field w1 must be a real, got true"),
        (AUX.replace('"b2": "0.0"', '"b2": false') % ('["1", "2"]', '["0", "0"]', '["0", "0"]'),
         "aux field b2 must be a real, got false"),
    ]
    BAD_ARTIFACT_IDS = [
        "sigma-without-s", "infinite-s", "nan-s", "not-an-object", "aux-field-length",
        "aux-field-string", "infinite-aux-weight", "boolean-s", "boolean-aux", "float-h",
        "string-h", "boolean-aux-weight", "boolean-b2"]

    @pytest.mark.parametrize("artifact, message", BAD_ARTIFACTS, ids=BAD_ARTIFACT_IDS)
    def test_bad_artifact_single_error_line(self, capsys, toy_dir, tmp_path, artifact, message):
        calib = tmp_path / "calib.json"
        calib.write_text(artifact)
        rc = main(["evaluate", "--input", str(toy_dir / "val.jsonl"), "--calib", str(calib),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    OVERFLOWING_ARTIFACTS = [
        '{"method": "sigma", "s": "1e200"}',
        AUX.replace('"b2": "0.0"', '"b2": "800"') % ('["1", "2"]', '["0", "0"]', '["0", "0"]'),
    ]

    @pytest.mark.parametrize("artifact", OVERFLOWING_ARTIFACTS, ids=["sigma-s-1e200", "aux-b2-800"])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--input", "{test}", "--out", "{out}.json"],
        ["intervals", "--input", "{test}", "--out", "{out}.csv"],
        ["reject", "--input", "{test}", "--out", "{out}.csv"],
        ["ood", "--in-dist", "{val}", "--shifted", "{test}", "--out", "{out}.csv"],
    ], ids=["evaluate", "intervals", "reject", "ood"])
    def test_overflowing_recalibration_single_error_line(self, capsys, toy_dir, tmp_path,
                                                         artifact, command):
        # Both artifacts load, but recalibrating any record overflows its variance.
        calib = tmp_path / "calib.json"
        calib.write_text(artifact)
        argv = [a.format(test=toy_dir / "test.jsonl", val=toy_dir / "val.jsonl",
                         out=tmp_path / "out") for a in command]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--calib", str(calib)]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: invalid-input: record '") and err.count("\n") == 1
        assert not Path(argv[-1]).exists()

    # Each dump has five good records plus one whose uncertainty cannot be
    # represented: an overflowing exp(log_var), a subnormal variance whose
    # NLL term overflows, or an aleatoric variance that underflows to 0.
    NON_FINITE_DUMPS = {
        "log-var-800": ([800.0, -2.0], [0.1, 0.3]),
        "log-var-minus-740": ([-740.0, -740.0], [0.1, 0.1]),
        "log-var-minus-800": ([-800.0, -800.0], [0.1, 0.3]),
    }
    NON_FINITE_COMMANDS = {
        "evaluate": ["evaluate", "--input", "{bad}", "--out", "{out}.json"],
        "intervals": ["intervals", "--input", "{bad}", "--out", "{out}.csv"],
        "reject": ["reject", "--input", "{bad}", "--out", "{out}.csv"],
        "ood-in-dist": ["ood", "--in-dist", "{bad}", "--shifted", "{good}", "--out", "{out}.csv"],
        "ood-shifted": ["ood", "--in-dist", "{good}", "--shifted", "{bad}", "--out", "{out}.csv"],
        "calibrate": ["calibrate", "--input", "{bad}", "--method", "sigma", "--out", "{out}.json"],
        "calibrate-gd": ["calibrate", "--input", "{bad}", "--method", "sigma", "--gd",
                         "--out", "{out}.json"],
        "calibrate-aux": ["calibrate", "--input", "{bad}", "--method", "aux", "--out", "{out}.json"],
        "calibrate-aleatoric": ["calibrate", "--input", "{bad}", "--method", "sigma",
                                "--target", "aleatoric", "--out", "{out}.json"],
        "calibrate-gd-aleatoric": ["calibrate", "--input", "{bad}", "--method", "sigma", "--gd",
                                   "--target", "aleatoric", "--out", "{out}.json"],
        "calibrate-aux-aleatoric": ["calibrate", "--input", "{bad}", "--method", "aux",
                                    "--target", "aleatoric", "--out", "{out}.json"],
    }

    @classmethod
    def non_finite_record(cls, dump: str) -> dict:
        log_vars, means = cls.NON_FINITE_DUMPS[dump]
        return {"id": "r9", "y": [0.2], "samples": [
            {"mean": [m], "log_var": lv} for m, lv in zip(means, log_vars)]}

    @pytest.mark.parametrize("dump, command", [
        *[("log-var-800", command) for command in NON_FINITE_COMMANDS],
        ("log-var-minus-740", "evaluate"),
        ("log-var-minus-740", "calibrate"),
        ("log-var-minus-740", "calibrate-gd"),
        ("log-var-minus-740", "calibrate-aux"),
        ("log-var-minus-800", "calibrate-aleatoric"),
        ("log-var-minus-800", "calibrate-gd-aleatoric"),
        ("log-var-minus-800", "calibrate-aux-aleatoric"),
    ])
    def test_non_finite_values_single_error_line(self, capsys, tmp_path, dump, command):
        (tmp_path / "good.jsonl").write_text(dump_text(GOOD_RECORDS))
        (tmp_path / "bad.jsonl").write_text(
            dump_text(GOOD_RECORDS + [self.non_finite_record(dump)]))
        out = tmp_path / "out"
        argv = [a.format(bad=tmp_path / "bad.jsonl", good=tmp_path / "good.jsonl", out=out)
                for a in self.NON_FINITE_COMMANDS[command]]
        with warnings.catch_warnings(record=True) as caught:  # would print to stderr
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not Path(argv[-1]).exists()


class TestSigmaFitExtremes:
    """Sigma fits at the ends of the float range answer correctly or give one error line."""

    # Ratio mean 1.1e-319: a stop on |delta s| instead of |delta rho| ends far
    # above the closed form of 3.3e-160.
    TINY = [{"id": f"r{i}", "y": [0.0], "samples": [{"mean": [(i + 1) * 1e-160], "log_var": 0.0}]}
            for i in range(5)]
    # One Laplace ratio of 1.76e308, next to the largest double.
    NEAR_MAX = [{"id": "r0", "y": [1.3e154], "samples": [{"mean": [0.0], "log_var": -709.8}]}]
    # y equals every pass mean, so every error is 0.
    ZERO = [{"id": f"r{i}", "y": [0.1 * i], "samples": [
        {"mean": [0.1 * i], "log_var": -2.0}, {"mean": [0.1 * i], "log_var": -1.0}]}
        for i in range(5)]

    def calibrate(self, tmp_path, records, name, *flags):
        dump, out = tmp_path / "dump.jsonl", tmp_path / name
        dump.write_text(dump_text(records))
        rc = main(["calibrate", "--input", str(dump), "--method", "sigma", *flags,
                   "--out", str(out)])
        return rc, out

    # Five records of TestErrorReporting's good dump plus one whose variance,
    # exp(-740) in both passes, is subnormal: the Laplace ratio is near 1e159.
    SUBNORMAL = GOOD_RECORDS + [{"id": "r9", "y": [0.2], "samples": [
        {"mean": [0.1], "log_var": -740.0}, {"mean": [0.1], "log_var": -740.0}]}]

    @pytest.mark.parametrize("records, likelihood", [
        (TINY, "gaussian"), (NEAR_MAX, "laplace"),
    ], ids=["tiny-ratios", "near-max-ratio"])
    def test_gd_agrees_with_closed_form(self, capsys, tmp_path, records, likelihood):
        flags = ["--likelihood", likelihood]
        assert self.calibrate(tmp_path, records, "closed.json", *flags)[0] == 0
        rc, gd = self.calibrate(tmp_path, records, "gd.json", *flags, "--gd")
        assert rc == 0 and capsys.readouterr().err == ""
        gd = load_artifact(gd)
        assert gd.fit_meta["converged"] is True
        assert gd.s == pytest.approx(load_artifact(tmp_path / "closed.json").s, rel=1e-6, abs=0)

    def test_subnormal_laplace_gd_converges_to_closed_form(self, capsys, tmp_path):
        flags = ["--likelihood", "laplace"]
        assert self.calibrate(tmp_path, self.SUBNORMAL, "closed.json", *flags)[0] == 0
        rc, gd = self.calibrate(tmp_path, self.SUBNORMAL, "gd.json", *flags, "--gd")
        assert rc == 0 and capsys.readouterr().err == ""
        gd = load_artifact(gd)
        assert gd.fit_meta["converged"] is True
        assert gd.s == pytest.approx(load_artifact(tmp_path / "closed.json").s, rel=1e-12, abs=0)

    @pytest.mark.parametrize("flags", [[], ["--gd"]], ids=["closed-form", "gd"])
    def test_zero_errors_single_error_line(self, capsys, tmp_path, flags):
        rc, out = self.calibrate(tmp_path, self.ZERO, "calib.json", *flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: calibration: ") and err.count("\n") == 1
        assert not out.exists()


def refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCliFuzz:
    """Any dump and artifact, valid or not, give an answer or one error line.

    Every command exits 0, 1 or 2. A failure writes exactly one ``error:``
    line to stderr and no output file; a success writes nothing to stderr,
    and each JSON file it writes parses with strict constants. The inputs are
    TestErrorReporting's cases, a few extreme records, and seeded mutations
    of a good dump and of good artifacts."""

    COMMANDS = [
        ["calibrate", "--input", "{dump}", "--method", "sigma", "--out", "{out}.json"],
        ["calibrate", "--input", "{dump}", "--method", "sigma", "--gd", "--likelihood",
         "laplace", "--target", "aleatoric", "--out", "{out}.json"],
        ["calibrate", "--input", "{dump}", "--method", "aux", "--h", "2", "--iters", "5",
         "--out", "{out}.json"],
        ["evaluate", "--input", "{dump}", "--calib", "{calib}", "--out", "{out}.json"],
        ["intervals", "--input", "{dump}", "--calib", "{calib}", "--out", "{out}.csv"],
        ["reject", "--input", "{dump}", "--calib", "{calib}", "--out", "{out}.csv"],
        ["ood", "--in-dist", "{good}", "--shifted", "{dump}", "--calib", "{calib}",
         "--out", "{out}.csv"],
    ]
    # A dump every command answers; unlike GOOD_RECORDS' its errors are not 0.
    RECORDS = [{"id": f"r{i}", "y": [0.1 * i], "samples": [
        {"mean": [0.1 * i + 0.05], "log_var": -2.0 + 0.1 * i}, {"mean": [0.2], "log_var": -1.5}]}
        for i in range(5)]
    SIGMA = {"method": "sigma", "likelihood": "laplace", "target": "predictive", "s": "1.5",
             "fit_meta": {"fit": "closed_form", "iterations": 0, "m": 5}}
    AUX = {"method": "aux", "target": "aleatoric_only", "aux": {
        "h": 2, "w1": ["0.5", "-0.3"], "b1": ["0.0", "0.1"], "w2": ["0.01", "0.02"], "b2": "0.0"}}
    # What a mutation puts in place of a node of the JSON tree.
    VALUES = [0.5, -2.0, 700.0, -700.0, 1e154, 1e-300, 1e300, 5e-324, 1e308, -1e308, 0.0, -0.0,
              0, -1, 800.0, -800.0, 10**400, math.nan, math.inf, -math.inf, True, None, "",
              "0.5", "-2.0", "1e-300", "nan", "1e200", "Infinity", " 7 ", "a\u2028b",
              [], [math.nan], {}, [0.1, 0.2]]
    # What a mutation inserts into the text; "\udcff" is written as the byte 0xff.
    CHARS = '[]{}",:\\\r\n\u2028\x00\udcff'

    def run(self, capsys, tmp_path, dump: str, calib: str):
        """Every command on ``dump`` (text) under the artifact ``calib`` (text)."""
        for name, text in (("dump.jsonl", dump), ("calib.json", calib),
                           ("good.jsonl", dump_text(self.RECORDS))):
            (tmp_path / name).write_bytes(text.encode("utf-8", "surrogateescape"))
        for i, command in enumerate(self.COMMANDS):
            argv = [a.format(dump=tmp_path / "dump.jsonl", calib=tmp_path / "calib.json",
                             good=tmp_path / "good.jsonl", out=tmp_path / f"out{i}")
                    for a in command]
            with warnings.catch_warnings(record=True) as caught:  # would print to stderr
                warnings.simplefilter("always")
                rc = main(argv)
            assert [str(w.message) for w in caught] == [], argv
            err = capsys.readouterr().err
            out = Path(argv[-1])
            if rc == 0:
                assert err == "", argv
                if out.suffix == ".json":
                    json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse_constant)
                out.unlink()
            else:
                assert rc in (1, 2), argv
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                assert not out.exists(), argv

    BAD_DUMPS = {
        **{name: TestErrorReporting.FIRST_LINE + "\n" + line + "\n" for name, (line, _) in zip(
            TestErrorReporting.BAD_SECOND_LINE_IDS, TestErrorReporting.BAD_SECOND_LINES)},
        **{name: dump_text(GOOD_RECORDS + [TestErrorReporting.non_finite_record(name)])
           for name in TestErrorReporting.NON_FINITE_DUMPS},
        "nll-overflow": dump_text(GOOD_RECORDS + [TestErrorReporting.NLL_OVERFLOW_RECORD]),
        "no-y": '{"id":"a","samples":[]}\n',
        "nan-y": '{"id":"a","y":[NaN],"samples":[{"mean":[0.1],"log_var":-2.0}]}\n',
        "deep-nesting": '{"id":"a","y":[0.5],"samples":[{"mean":%s,"log_var":-2.0}]}\n' % (
            "[" * 100_000),
        "U+2028-id": "".join(json.dumps({**r, "id": f"{r['id']}\u2028"}, ensure_ascii=False)
                             + "\n" for r in RECORDS),
    }
    BAD_ARTIFACTS = {
        **dict(zip(TestErrorReporting.BAD_ARTIFACT_IDS,
                   (text for text, _ in TestErrorReporting.BAD_ARTIFACTS))),
        **dict(zip(["sigma-s-1e200", "aux-b2-800"], TestErrorReporting.OVERFLOWING_ARTIFACTS)),
        "deep-nesting": "[" * 100_000,
        "fit-meta-nan-list": '{"method": "sigma", "s": "1.5", "fit_meta": {"x": [NaN]}}',
        "fit-meta-real-like-strings": '{"method": "sigma", "s": "1.5", "fit_meta": '
                                      '{"note": "1e3", "fit": "Infinity", "tag": " 7 "}}',
    }

    @pytest.mark.parametrize("artifact, reason", [
        (BAD_ARTIFACTS["fit-meta-nan-list"], "non-finite constant NaN"),
        ('{"method": "sigma", "s": "1.', "Unterminated string starting at: line 1 column 26 (char 25)"),
    ], ids=["fit-meta-nan-list", "truncated"])
    def test_unreadable_artifact_same_line_from_every_command(self, capsys, tmp_path, artifact,
                                                              reason):
        calib = tmp_path / "calib.json"
        calib.write_text(artifact)
        (tmp_path / "dump.jsonl").write_text(dump_text(self.RECORDS))
        for command in self.COMMANDS:
            if "{calib}" not in command:
                continue
            argv = [a.format(dump=tmp_path / "dump.jsonl", calib=calib, good=tmp_path / "dump.jsonl",
                             out=tmp_path / "out") for a in command]
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (
                f"error: invalid-input: invalid JSON ({reason}) in {calib}\n"), argv
            assert not Path(argv[-1]).exists(), argv

    @pytest.mark.parametrize("name", BAD_DUMPS)
    def test_bad_dump(self, capsys, tmp_path, name):
        self.run(capsys, tmp_path, self.BAD_DUMPS[name], json.dumps(self.SIGMA))

    @pytest.mark.parametrize("name", BAD_ARTIFACTS)
    def test_bad_artifact(self, capsys, tmp_path, name):
        self.run(capsys, tmp_path, dump_text(self.RECORDS), self.BAD_ARTIFACTS[name])

    def mutate(self, rng, value):
        """``value`` with one node, chosen at random, replaced, dropped or repeated."""
        if not value or not isinstance(value, (list, dict)) or rng.random() < 0.1:
            if rng.random() < 0.7:  # a real of any sign and magnitude a double can hold
                return rng.choice([-1, 1]) * 10 ** rng.uniform(-330, 308)
            return rng.choice(self.VALUES)
        value = value.copy()
        key = rng.randrange(len(value)) if isinstance(value, list) else rng.choice(list(value))
        action = rng.random()
        if action < 0.1:
            del value[key]
        elif action < 0.2 and isinstance(value, list):
            value.append(value[key])
        else:
            value[key] = self.mutate(rng, value[key])
        return value

    def mutate_text(self, rng, text: str) -> str:
        """``text`` cut short, or with one character dropped or inserted, a third of the time."""
        at = rng.randrange(len(text) + 1)
        return rng.choice([text] * 6 + [text[:at], text[:at] + text[at + 1:],
                           text[:at] + rng.choice(self.CHARS) + text[at:]])

    @pytest.mark.parametrize("seed", range(4))
    def test_mutated_inputs(self, capsys, tmp_path, seed):
        rng = random.Random(seed)
        for _ in range(25):
            records, calib = self.RECORDS, rng.choice([self.SIGMA, self.AUX])
            which = rng.choice(["dump", "dump", "artifact", "artifact", "both"])
            if which != "artifact":
                records = self.mutate(rng, records)
            if which != "dump":
                calib = self.mutate(rng, calib)
            dump = (dump_text(records) if isinstance(records, list)
                    else json.dumps(records) + "\n")
            self.run(capsys, tmp_path, self.mutate_text(rng, dump),
                     self.mutate_text(rng, json.dumps(calib)))
