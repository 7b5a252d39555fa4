"""The harness's determinism store and speed scaling."""

import run


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_program_key_follows_sources_not_bytecode(tmp_path):
    src = _tree(tmp_path / "src", {"pkg/__init__.py": "", "pkg/io.py": "X = 1\n"})
    key = run.program_key(src)
    _tree(src, {"pkg/__pycache__/io.cpython-311.pyc": "bytes"})
    assert run.program_key(src) == key
    _tree(src, {"pkg/io.py": "X = 2\n"})
    assert run.program_key(src) != key


def test_same_program_must_write_the_same_outputs(tmp_path):
    store = tmp_path / "digests" / "w-1-key.json"
    assert run.compare_digests(store, [{"a": "1"}, {"a": "1"}]) == []
    assert run.compare_digests(store, [{"a": "1"}]) == []
    assert run.compare_digests(store, [{"a": "2"}])
    assert run.compare_digests(tmp_path / "other.json", [{"a": "1"}, {"a": "2"}])


def test_changed_program_is_not_compared_with_the_old_outputs(tmp_path):
    src = _tree(tmp_path / "src", {"pkg/metrics.py": "ORDER = 'a'\n"})
    stores = tmp_path / "digests"
    assert run.compare_digests(stores / f"{run.program_key(src)}.json", [{"report.json": "old"}]) == []
    _tree(src, {"pkg/metrics.py": "ORDER = 'b'\n"})  # e.g. a new reduction order
    assert run.compare_digests(stores / f"{run.program_key(src)}.json", [{"report.json": "new"}]) == []


def test_probe_scale_is_nominal_over_mean_cost():
    probe = run.SpeedProbe()
    cost = 2 * run.NOMINAL_COST_S
    probe.samples = [(t * 0.05, cost) for t in range(100)]
    assert abs(probe.scale(1.0, 3.0) - 0.5) < 1e-12
    # too few samples inside: the nearest ones are used
    probe.samples = [(0.0, cost), (1.0, cost), (2.0, cost), (3.0, cost), (10.0, 4 * cost)]
    assert abs(probe.scale(1.5, 1.6) - 0.5) < 1e-12
    assert run.SpeedProbe().scale(0.0, 1.0) == 1.0


class _StubRun:
    """Stands in for a Run whose every command exits 0."""

    def __init__(self, work=None):
        self.work = work

    def cli(self, argv, log):
        return run.Child(1.0, 1.0, 0)


def test_malformed_output_counts_as_a_failed_check():
    step = run.Step("evaluate_s", ["evaluate"], lambda r: [].get("mse"))  # e.g. a list where a dict belongs
    assert not run.run_step(_StubRun(), step, 0).ok


def test_fit_counts_skip_counts_of_another_shape(tmp_path):
    (tmp_path / "a.json").write_text('[1, 2]')
    (tmp_path / "b.json").write_text('{"method": "aux", "fit_meta": [500]}')
    (tmp_path / "c.json").write_text('{"method": "sigma", "fit_meta": {"fit": "gd", "iterations": "many"}}')
    (tmp_path / "d.json").write_text('{"method": "sigma", "fit_meta": {"fit": "gd", "iterations": 7}}')
    assert run._fit_counts(_StubRun(tmp_path)) == (7, 0, 0)
