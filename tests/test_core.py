import re

import numpy as np
import pytest

from regcal.core import CalibrationArtifact, McPredictionSet, Uncertainties, identity_artifact
from regcal.metrics import uncertainty_records

from conftest import make_record, make_set


class TestValidate:
    """Prediction-set invariants: the constructor refuses bad shapes, and
    every Uncertainties (so uncertainty_records) refuses an empty set or a
    non-finite variance, naming the record."""

    def test_well_formed_set_gives_empty_report(self):
        records = [
            make_record(f"r{i}", [0.5], [[0.4], [0.6]], [-2.0, -2.1]) for i in range(3)
        ]
        assert uncertainty_records(make_set(records)).m == 3

    def test_inconsistent_n_is_reported(self):
        # A columnar set cannot hold records with different N: the
        # constructor refuses the arrays (load_dump names the offending line
        # before it gets here).
        y, means = np.zeros((2, 1)), np.zeros((2, 2, 1))
        with pytest.raises(ValueError, match="inconsistent shapes"):
            McPredictionSet(["a", "b"], y, means, np.zeros((2, 1)))
        with pytest.raises(ValueError):
            McPredictionSet(["a", "b"], y, [[[0.4], [0.6]], [[0.4]]], np.zeros((2, 2)))

    def test_dimension_mismatch_names_record(self):
        # Likewise a y whose dimension or record count disagrees with the
        # means is refused, and the message gives the offending shapes.
        means, log_vars = np.zeros((2, 2, 1)), np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"y \(2, 2\)"):
            McPredictionSet(["a", "b"], np.zeros((2, 2)), means, log_vars)
        with pytest.raises(ValueError, match="1 ids"):
            McPredictionSet(["a"], np.zeros((2, 1)), means, log_vars)

    def test_nan_log_var_is_reported(self):
        records = [
            make_record("a", [0.5], [[0.4], [0.6]], [-2.0, float("nan")]),
        ]
        with pytest.raises(ValueError, match="'a'"):
            uncertainty_records(make_set(records))

    def test_non_finite_mean_and_y(self):
        records = [
            make_record("a", [float("inf")], [[0.4]], [-2.0]),
            make_record("b", [0.5], [[float("nan")]], [-2.0]),
        ]
        # Each bad record is named when it is the first one decomposed.
        with pytest.raises(ValueError, match="'a'"):
            uncertainty_records(make_set(records))
        with pytest.raises(ValueError, match="'b'"):
            uncertainty_records(make_set(records[1:]))

    def test_uncertainties_refuse_empty_and_non_finite(self):
        def unc(epistemic, aleatoric, observed):
            m = len(epistemic)
            return Uncertainties([f"r{i}" for i in range(m)], np.zeros((m, 1)),
                                 np.array(epistemic), np.array(aleatoric), np.array(observed))

        with pytest.raises(ValueError, match="empty set: m must be >= 1"):
            unc([], [], [])
        message = "record 'r1': non-finite uncertainty (epistemic {}, aleatoric {}, observed {})"
        # The last parts are finite, but their total is not.
        bad = ([np.inf, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, -np.inf], [1e308, 1e308, 1.0])
        for parts in bad:
            with pytest.raises(ValueError, match=re.escape(message.format(*parts))):
                unc([0.1, parts[0], np.nan], [0.1, parts[1], 0.1], [0.1, parts[2], 0.1])
        assert unc([0.1], [0.2], [0.3]).m == 1

    def test_uncertainties_refuse_inconsistent_shapes(self):
        ids, residual, col = ["a", "b", "c"], np.zeros((3, 1)), np.ones(3)
        assert Uncertainties(ids, residual, col, col, col).m == 3
        bad = [
            (["a", "b"], residual, col, np.ones(1), col),  # two ids for three rows
            (ids, np.zeros((2, 1)), col, col, col),
            (ids, np.zeros(3), col, col, col),  # a residual with no d axis
            (ids, np.zeros((3, 1, 1)), col, col, col),
            (ids, np.zeros((3, 0)), col, col, col),  # d = 0
            (ids, residual, np.ones(2), col, col),
            (ids, residual, col, np.ones((3, 1)), col),
            (ids, residual, col, col, np.ones(4)),
        ]
        for args in bad:
            with pytest.raises(ValueError, match=r"inconsistent shapes: \d+ ids, residual \("):
                Uncertainties(*args)
        with pytest.raises(ValueError, match=re.escape(
                "inconsistent shapes: 2 ids, residual (3, 1), epistemic (3,), aleatoric (1,), "
                "pass_err_sq (3,)")):
            Uncertainties(*bad[0])

    def test_empty_set_is_reported(self):
        with pytest.raises(ValueError, match="m, N and d must be >= 1"):
            McPredictionSet([], np.zeros((0, 1)), np.zeros((0, 0, 1)), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="m, N and d must be >= 1"):
            McPredictionSet(["a"], np.zeros((1, 1)), np.zeros((1, 0, 1)), np.zeros((1, 0)))


def test_aleatoric_variance_always_positive(rng):
    # exp(log_var) > 0 for any finite log_var, so the decomposed parts are
    # positive even for extreme head outputs.
    rec = make_record("a", [0.0], [[0.1], [0.2]], [-700.0, 50.0])
    u = uncertainty_records(make_set([rec]))
    assert u.aleatoric[0] > 0
    assert u.total[0] == u.epistemic[0] + u.aleatoric[0]


class TestCalibrationArtifact:
    def test_sigma_requires_positive_s(self):
        with pytest.raises(ValueError, match="s > 0"):
            CalibrationArtifact(method="sigma", s=0.0)
        with pytest.raises(ValueError, match="s > 0"):
            CalibrationArtifact(method="sigma", s=None)

    def test_aux_requires_weights(self):
        with pytest.raises(ValueError, match="weights"):
            CalibrationArtifact(method="aux")

    def test_aux_weight_length_checked(self):
        layers = {"w1": np.zeros(2), "b1": np.zeros(2), "w2": np.zeros(2), "b2": np.zeros(1)}
        for name, bad in [("w1", np.zeros(3)), ("w2", np.zeros(1)), ("b2", np.zeros(2))]:
            with pytest.raises(ValueError, match="share one length"):
                CalibrationArtifact(method="aux", aux={**layers, name: bad})
        art = CalibrationArtifact(method="aux", aux=layers)
        assert art.hidden_width == 2

    def test_unknown_enums_rejected(self):
        with pytest.raises(ValueError):
            CalibrationArtifact(method="platt")
        for likelihood in ("student-t", ["gaussian"]):
            with pytest.raises(ValueError):
                CalibrationArtifact(method="identity", likelihood=likelihood)
        with pytest.raises(ValueError):
            CalibrationArtifact(method="identity", target="everything")

    def test_identity_artifact(self):
        art = identity_artifact()
        assert art.method == "identity"
        assert art.s is None and art.aux is None
