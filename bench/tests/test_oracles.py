"""The oracles against brute-force loops and hand values, and the checks on
outputs written from the oracles themselves."""

import math

import numpy as np
import pytest

import gen
import oracles as o


@pytest.fixture(scope="module")
def dump():
    return gen.make_dump("t", 300, 6, 2, seed=11, stream=0)


def _per_record(dump):
    rows = []
    for i in range(len(dump.ids)):
        means = dump.means[i]
        y_mean = [sum(means[j][k] for j in range(len(means))) / len(means) for k in range(len(dump.y[i]))]
        epi = sum((means[j][k] - y_mean[k]) ** 2 for j in range(len(means)) for k in range(len(y_mean)))
        epi /= len(means) * len(y_mean)
        alea = sum(math.exp(v) for v in dump.log_vars[i]) / len(means)
        err_sq = sum((dump.y[i][k] - y_mean[k]) ** 2 for k in range(len(y_mean))) / len(y_mean)
        rows.append((epi, alea, err_sq))
    return rows


def test_decomposition_and_closed_form_match_loops(dump):
    u = o.Uncert(dump)
    rows = _per_record(dump)
    assert np.allclose(u.epistemic, [r[0] for r in rows], rtol=1e-12)
    assert np.allclose(u.aleatoric, [r[1] for r in rows], rtol=1e-12)
    s = math.sqrt(sum(r[2] / (r[0] + r[1]) for r in rows) / len(rows))
    assert o.close(o.sigma_s(dump), s, 1e-12)


def test_uce_matches_brute_force(dump):
    u = o.Uncert(dump)
    unc, obs, k = u.total, u.obs_predictive, 10
    lo, hi = unc.min(), unc.max()
    width = (hi - lo) / k
    members = [[] for _ in range(k)]
    for i, v in enumerate(unc):
        b = min(int((v - lo) // width), k - 1)
        members[b].append(i)
    want = 100.0 * sum(len(ix) / len(unc) * abs(np.mean(obs[ix]) - np.mean(unc[ix])) for ix in members if ix)
    got, bins = o.uce_bins(u, k)
    assert o.close(got, want, 1e-12)
    assert [b[0] for b in bins] == [len(ix) for ix in members]


def test_identical_uncertainties_give_one_bin():
    dump = gen.make_dump("t", 20, 3, 1, seed=0, stream=0)
    dump.log_vars[:] = -3.0
    dump.means[:] = dump.means[:, :1, :]  # no epistemic spread
    value, bins = o.uce_bins(o.Uncert(dump), 10)
    assert len(bins) == 1 and bins[0][0] == 20


def test_probit_values():
    rows = o.coverage(o.Uncert(gen.make_dump("t", 10, 2, 1, 0, 0)), (0.5, 0.9, 0.95))
    assert [z for _, z, _ in rows] == pytest.approx([0.6744897501960817, 1.6448536269514722, 1.959963984540054],
                                                   rel=1e-14)


def test_sigma_artifact_scales_both_parts_or_only_aleatoric(dump):
    base = o.Uncert(dump)
    pred = o.Uncert(dump, {"method": "sigma", "s": "2.0", "target": "predictive"})
    alea = o.Uncert(dump, {"method": "sigma", "s": "2.0", "target": "aleatoric_only"})
    assert np.allclose(pred.total, 4.0 * base.total, rtol=1e-14)
    assert np.array_equal(alea.epistemic, base.epistemic)
    assert np.allclose(alea.aleatoric, 4.0 * base.aleatoric, rtol=1e-14)


def test_aux_map_without_output_weights_is_identity():
    aux = {"w1": ["1.0", "-2.0"], "b1": ["0.5", "0.1"], "w2": ["0.0", "0.0"], "b2": "0.0"}
    x = np.linspace(-5.0, 1.0, 9)
    assert np.array_equal(o.aux_map(x, aux), x)


def test_strict_json_rejects_non_standard_constants(tmp_path):
    path = tmp_path / "r.json"
    for text in ('{"nll": Infinity}', '{"nll": NaN}', '{"nll": -Infinity}'):
        path.write_text(text)
        with pytest.raises(ValueError):
            o.strict_json(path)
    path.write_text('{"nll": 1.5}')
    assert o.strict_json(path) == {"nll": 1.5}


def test_checks_accept_oracle_outputs_and_catch_a_change(tmp_path, dump):
    u = o.Uncert(dump)
    path = tmp_path / "coverage.csv"
    rows = o.coverage(u)
    path.write_text("level,z,observed\n" + "".join(f"{g!r},{z!r},{c!r}\n" for g, z, c in rows))
    assert o.check_coverage(path, dump, None) == []
    g, z, c = rows[1]
    lines = path.read_text().splitlines()
    lines[2] = f"{g!r},{z!r},{c + 1.0 / len(dump.ids)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert len(o.check_coverage(path, dump, None)) == 1


def test_reject_check_on_the_quantile_sweep(tmp_path, dump):
    u = o.Uncert(dump)
    thresholds = np.quantile(u.total, np.arange(1, 51) / 50)
    lines = ["threshold,frac_rejected,mse_kept"]
    for t in thresholds:
        kept = u.total <= t
        lines.append(f"{float(t)!r},{float(1.0 - kept.mean())!r},{float(u.err_sq[kept].mean())!r}")
    path = tmp_path / "reject.csv"
    path.write_text("\n".join(lines) + "\n")
    assert o.check_reject(path, dump, None) == []
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert o.check_reject(path, dump, None) != []
