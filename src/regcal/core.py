"""Domain types shared across the toolkit.

The universal input is an :class:`McPredictionSet`: dense arrays holding, for
m test samples, the ground truth and N stochastic forward-pass outputs (a
mean vector and the log of the predicted aleatoric variance). Decomposing it
gives one columnar :class:`Uncertainties`, and everything downstream
(recalibration, calibration error, intervals, rejection) consumes that.

All types are treated as immutable after construction. Every constructor
raises ``ValueError`` on shapes or fields its type cannot hold, so no
consumer meets an empty or non-finite :class:`Uncertainties`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .likelihood import family

CALIBRATION_METHODS = ("sigma", "aux", "identity")
CALIBRATION_TARGETS = ("predictive", "aleatoric_only")


@dataclass
class McPredictionSet:
    """Monte-Carlo prediction dump: m records, each with N samples of dimension d.

    ``y`` is (m, d), ``means`` is (m, N, d) and ``log_vars`` is (m, N); m, N
    and d are read off these shapes. Inconsistent shapes, or an m, N or d
    below 1, raise ``ValueError``. Finiteness is checked where the values
    enter (:func:`regcal.io.load_dump`) and in every :class:`Uncertainties`.
    """

    ids: list[str]
    y: np.ndarray
    means: np.ndarray
    log_vars: np.ndarray

    def __post_init__(self):
        self.ids = list(self.ids)
        self.y = np.ascontiguousarray(self.y, dtype=float)
        self.means = np.ascontiguousarray(self.means, dtype=float)
        self.log_vars = np.ascontiguousarray(self.log_vars, dtype=float)
        m = len(self.ids)
        if (
            self.y.ndim != 2
            or self.means.ndim != 3
            or self.y.shape[0] != m
            or self.means.shape[0] != m
            or self.means.shape[2] != self.y.shape[1]
            or self.log_vars.shape != self.means.shape[:2]
        ):
            raise ValueError(
                f"inconsistent shapes: {m} ids, y {self.y.shape}, "
                f"means {self.means.shape}, log_vars {self.log_vars.shape}"
            )
        if min(self.means.shape) < 1:
            raise ValueError(f"empty set: m, N and d must be >= 1, got means {self.means.shape}")

    @property
    def m(self) -> int:
        return self.means.shape[0]

    @property
    def n_samples(self) -> int:
        return self.means.shape[1]

    @property
    def d(self) -> int:
        return self.means.shape[2]


@dataclass
class Uncertainties:
    """Per-record predictive summaries of a set: MC mean and decomposed variance.

    ``y`` and ``y_mean`` are (m, d); ``epistemic``, ``aleatoric`` and
    ``pass_err_sq`` are (m,). ``pass_err_sq`` is the mean over passes and
    outputs of the squared deviation of each pass's mean from ``y``, the
    observed variance of predictive-mode UCE. ``total`` is always derived as
    epistemic + aleatoric, never stored. Construction refuses m = 0 and any
    non-finite variance or total, naming the first such record.
    """

    ids: list[str]
    y: np.ndarray
    y_mean: np.ndarray
    epistemic: np.ndarray
    aleatoric: np.ndarray
    pass_err_sq: np.ndarray

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("empty set: m must be >= 1")
        with np.errstate(over="ignore", invalid="ignore"):  # a sum of finite parts may overflow
            finite = np.isfinite(self.total) & np.isfinite(self.pass_err_sq)
        if not finite.all():
            i = np.flatnonzero(~finite)[0]
            raise ValueError(
                f"record '{self.ids[i]}': non-finite uncertainty (epistemic {self.epistemic[i]}, "
                f"aleatoric {self.aleatoric[i]}, observed {self.pass_err_sq[i]})")

    @property
    def m(self) -> int:
        return len(self.epistemic)

    @property
    def total(self) -> np.ndarray:
        return self.epistemic + self.aleatoric

    @property
    def err_sq(self) -> np.ndarray:
        """Squared error of the MC mean, averaged across output dimensions."""
        return np.mean((self.y - self.y_mean) ** 2, axis=1)

    def errors_and_scales(self, likelihood: str, target: str):
        """Per-record error of the MC mean and the likelihood family's scale of the
        targeted variance: the total, or the aleatoric part for ``aleatoric_only``.
        An unknown family or target, or a zero variance, raises ``ValueError``."""
        fam = family(likelihood)
        if target not in CALIBRATION_TARGETS:
            raise ValueError(f"unknown calibration target {target!r}")
        u = self.total if target == "predictive" else self.aleatoric
        degenerate = np.flatnonzero(u <= 0.0)
        if degenerate.size:
            i = degenerate[0]
            raise ValueError(f"degenerate uncertainty: record '{self.ids[i]}' has {target} "
                             f"variance {u[i]}")
        return fam.error_and_scale(self, u)


@dataclass
class CalibrationArtifact:
    """A fitted recalibration: a positive scalar s, a small network, or a no-op.

    ``aux`` holds the auxiliary network's layers by name: ``w1``, ``b1`` and
    ``w2`` of shape (h,) and ``b2`` of shape (1,), where h >= 1 is the hidden
    width.
    """

    method: str  # sigma | aux | identity
    likelihood: str = "gaussian"
    target: str = "predictive"
    s: float | None = None
    aux: dict[str, np.ndarray] | None = None
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in CALIBRATION_METHODS:
            raise ValueError(f"unknown calibration method {self.method!r}")
        family(self.likelihood)  # refuses an unknown name
        if self.target not in CALIBRATION_TARGETS:
            raise ValueError(f"unknown calibration target {self.target!r}")
        if self.method == "sigma":
            if self.s is None or not (0.0 < self.s < np.inf):
                raise ValueError(f"sigma calibration requires a finite s > 0, got {self.s}")
        if self.method == "aux":
            if self.aux is None or sorted(self.aux) != ["b1", "b2", "w1", "w2"]:
                raise ValueError("aux calibration requires the weights w1, b1, w2 and b2")
            self.aux = {name: np.asarray(v, dtype=float) for name, v in self.aux.items()}
            shapes = {name: v.shape for name, v in self.aux.items()}
            h = shapes["b1"]
            if not (len(h) == 1 and h[0] >= 1 and shapes["w1"] == shapes["w2"] == h
                    and shapes["b2"] == (1,)):
                raise ValueError(
                    "aux layers w1, b1, w2 must share one length h >= 1 and b2 must "
                    f"have length 1, got shapes {shapes}"
                )
            if not all(np.all(np.isfinite(v)) for v in self.aux.values()):
                raise ValueError("aux calibration requires finite weights")

    @property
    def hidden_width(self) -> int | None:
        return None if self.aux is None else len(self.aux["b1"])


def identity_artifact() -> CalibrationArtifact:
    """Artifact whose application is a no-op."""
    return CalibrationArtifact(method="identity")


@dataclass
class BinStats:
    """Statistics of one calibration bin over uncertainty values."""

    k: int
    lower: float
    upper: float
    count: int
    var_obs: float  # mean observed squared deviation in the bin
    uncert_mean: float  # mean predicted uncertainty in the bin
