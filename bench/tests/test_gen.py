"""The generator: determinism, the documented dump format, underestimation."""

import json

import numpy as np

import gen
import oracles as o


def test_same_seed_same_bytes(tmp_path):
    a, b, c = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    gen.write_dump(gen.make_dump("t", 50, 5, 2, seed=3, stream=1), a)
    gen.write_dump(gen.make_dump("t", 50, 5, 2, seed=3, stream=1), b)
    gen.write_dump(gen.make_dump("t", 50, 5, 2, seed=4, stream=1), c)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_lines_are_compact_json_records():
    dump = gen.make_dump("t", 7, 3, 2, seed=0, stream=0)
    for i, line in enumerate(gen.dump_lines(dump)):
        want = {
            "id": dump.ids[i],
            "y": dump.y[i].tolist(),
            "samples": [{"mean": dump.means[i, j].tolist(), "log_var": float(dump.log_vars[i, j])}
                        for j in range(3)],
        }
        assert line == json.dumps(want, separators=(",", ":"))


def test_read_back_is_exact(tmp_path):
    dump = gen.make_dump("t", 40, 4, 3, seed=1, stream=2)
    path = tmp_path / "d.jsonl"
    size = gen.write_dump(dump, path)
    back = gen.read_dump(path)
    assert size == path.stat().st_size
    assert back.ids == dump.ids
    for name in ("y", "means", "log_vars"):
        assert np.array_equal(getattr(back, name), getattr(dump, name))
    assert back.array_bytes == 40 * (3 + 4 * 3 + 4) * 8


def test_uncertainty_is_underestimated_and_shift_raises_it():
    val = gen.make_dump("val", 4000, 25, 1, seed=5, stream=0)
    shifted = gen.make_dump("shifted", 4000, 25, 1, seed=5, stream=1, noise_scale=2.0)
    assert 1.3 < o.sigma_s(val) < 1.7
    assert o.Uncert(shifted).total.mean() > 3.0 * o.Uncert(val).total.mean()
