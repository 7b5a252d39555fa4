import json
import sys
import warnings
from pathlib import Path

import pytest

import regcal
from regcal.cli import main

QUICK_TOY = ["--epochs", "40", "--mc-passes", "5"]


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy") / "run"
    assert main(["toy", "--seed", "0", "--out-dir", str(out), *QUICK_TOY]) == 0
    return out


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


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

    def test_diagram_and_svg_outputs(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        diag = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        assert main(["evaluate", "--input", str(toy_dir / "test.jsonl"), "--out", str(out),
                     "--diagram", str(diag), "--svg", str(svg)]) == 0
        assert diag.read_text().startswith("bin_lower,bin_upper,count,uncert_mean,var_obs")
        assert svg.read_text().startswith("<svg")


class TestDecomposeOnce:
    """Each command loads (and so validates) and decomposes each dump it reads
    exactly once; the per-line checks of load_dump are the only dump validation."""

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
        ("calibrate --input {toy}/val.jsonl --method sigma --out {out}/c.json", 1),
        ("evaluate --input {toy}/test.jsonl --out {out}/r.json"
         " --diagram {out}/d.csv --svg {out}/d.svg", 1),
        ("intervals --input {toy}/test.jsonl --out {out}/cov.csv", 1),
        ("reject --input {toy}/test.jsonl --out {out}/rej.csv", 1),
        ("ood --in-dist {toy}/val.jsonl --shifted {toy}/test.jsonl --out {out}/ood.csv", 2),
    ], ids=["calibrate", "evaluate", "intervals", "reject", "ood"])
    def test_calls_per_command(self, monkeypatch, toy_dir, tmp_path, argv, dumps):
        decomposed = self.count_calls(monkeypatch, "uncertainty_records")
        loaded = self.count_calls(monkeypatch, "load_dump")
        argv = argv.format(toy=toy_dir, out=tmp_path).split()
        assert main(argv) == 0
        assert len(decomposed) == dumps
        assert len(loaded) == dumps


class TestOtherCommands:
    def test_intervals_csv(self, toy_dir, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["intervals", "--input", str(toy_dir / "test.jsonl"),
                     "--levels", "0.5,0.9", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,z,observed"
        assert len(lines) == 3

    def test_reject_csv(self, toy_dir, tmp_path):
        out = tmp_path / "rej.csv"
        assert main(["reject", "--input", str(toy_dir / "test.jsonl"),
                     "--steps", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,frac_rejected,mse_kept"
        assert len(lines) == 11

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

    def test_bad_flags_single_line(self, capsys):
        rc = main(["calibrate", "--method", "sigma"])
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

    def test_validation_failure_in_dump(self, capsys, tmp_path):
        # structurally fine JSONL but semantically broken: NaN y
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"a","y":[NaN],"samples":[{"mean":[0.1],"log_var":-2.0}]}\n')
        rc = main(["evaluate", "--input", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error: dump-format:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"id":"a","y":[1' + "0" * 400 + '],"samples":[{"mean":[0.1],"log_var":-2.0}]}',
             "line 2: non-finite y"),
            ('{"id":"a","y":[0.1],"samples":[{"mean":[0.1],"log_var":1' + "0" * 400 + '}]}',
             "line 2: non-finite log_var in sample 0"),
            ('{"id":"b","y":[0.1],"samples":[{"mean":[0.1],"log_var":-2.0}]}',
             "line 2: duplicate id 'b' (first on line 1)"),
        ],
        ids=["huge-int-y", "huge-int-log-var", "duplicate-id"],
    )
    def test_bad_dump_single_error_line(self, capsys, tmp_path, record, message):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id":"b","y":[0.2],"samples":[{"mean":[0.1],"log_var":-2.0}]}\n' + record + "\n")
        rc = main(["evaluate", "--input", str(bad), "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: dump-format: {message}\n"
        assert not (tmp_path / "r.json").exists()

    AUX = '{"method": "aux", "aux": {"h": 2, "w1": %s, "b1": %s, "w2": %s, "b2": "0.0"}}'

    @pytest.mark.parametrize(
        "artifact, message",
        [
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
        ],
        ids=["sigma-without-s", "infinite-s", "nan-s", "not-an-object", "aux-field-length",
             "aux-field-string", "infinite-aux-weight", "boolean-s", "boolean-aux", "float-h",
             "string-h", "boolean-aux-weight", "boolean-b2"],
    )
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

    # Each dump has five good records plus one whose uncertainty cannot be
    # represented: an overflowing exp(log_var), or a subnormal variance whose
    # NLL term overflows.
    NON_FINITE_DUMPS = {
        "log-var-800": ([800.0, -2.0], [0.1, 0.3]),
        "log-var-minus-740": ([-740.0, -740.0], [0.1, 0.1]),
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
    }

    @pytest.mark.parametrize("dump, command", [
        *[("log-var-800", command) for command in NON_FINITE_COMMANDS],
        ("log-var-minus-740", "evaluate"),
        ("log-var-minus-740", "calibrate"),
        ("log-var-minus-740", "calibrate-gd"),
        ("log-var-minus-740", "calibrate-aux"),
    ])
    def test_non_finite_values_single_error_line(self, capsys, tmp_path, dump, command):
        def write(path, records):
            path.write_text("".join(json.dumps(r) + "\n" for r in records))

        good = [{"id": f"r{i}", "y": [0.2], "samples": [
            {"mean": [0.1], "log_var": -2.0 + 0.1 * i}, {"mean": [0.3], "log_var": -1.5}]}
            for i in range(5)]
        log_vars, means = self.NON_FINITE_DUMPS[dump]
        bad = {"id": "r9", "y": [0.2], "samples": [
            {"mean": [m], "log_var": lv} for m, lv in zip(means, log_vars)]}
        write(tmp_path / "good.jsonl", good)
        write(tmp_path / "bad.jsonl", good + [bad])
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
