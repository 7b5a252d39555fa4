"""Recalibration and evaluation of predictive uncertainty for regression.

Consumes Monte-Carlo prediction dumps (ground truth plus N stochastic
forward-pass outputs per sample), fits sigma scaling or a small auxiliary
network to recalibrate the predicted uncertainty, and evaluates calibration
through the uncertainty calibration error, negative log-likelihood,
prediction-interval coverage, rejection curves, and out-of-distribution
comparisons. A self-contained MC-dropout toy regressor reproduces the
underestimation phenomenon on synthetic data.
"""

from .analysis import OodComparison, RejectionCurve, UncertaintyHistogram, ood_compare, rejection_curve
from .calibrate import (
    AuxConfig,
    CalibrationError,
    SigmaFitOptions,
    apply_calibration,
    aux_fit,
    fit_sigma,
    sigma_closed_form_gaussian,
    sigma_closed_form_laplace,
    sigma_fit_gd,
)
from .core import (
    BinStats,
    CalibrationArtifact,
    McPredictionSet,
    Uncertainties,
    identity_artifact,
)
from .intervals import CoverageTable, coverage
from .io import DumpFormatError, load_artifact, load_dump, save_artifact, save_dump
from .likelihood import batch_nll, probit
from .metrics import UceReport, calibration_diagram, mse, uce, uncertainty_records
from .toymodel import (
    ToyModel,
    ToyModelConfig,
    TrainingTrace,
    experiment,
    generate,
    mc_predict,
    simulate_unbiasedness,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AuxConfig",
    "BinStats",
    "CalibrationArtifact",
    "CalibrationError",
    "CoverageTable",
    "DumpFormatError",
    "McPredictionSet",
    "OodComparison",
    "RejectionCurve",
    "SigmaFitOptions",
    "ToyModel",
    "ToyModelConfig",
    "TrainingTrace",
    "UceReport",
    "UncertaintyHistogram",
    "Uncertainties",
    "apply_calibration",
    "aux_fit",
    "batch_nll",
    "calibration_diagram",
    "coverage",
    "experiment",
    "fit_sigma",
    "generate",
    "identity_artifact",
    "load_artifact",
    "load_dump",
    "mc_predict",
    "mse",
    "ood_compare",
    "probit",
    "rejection_curve",
    "save_artifact",
    "save_dump",
    "sigma_closed_form_gaussian",
    "sigma_closed_form_laplace",
    "sigma_fit_gd",
    "simulate_unbiasedness",
    "train",
    "uce",
    "uncertainty_records",
]
