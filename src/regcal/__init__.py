"""Recalibration and evaluation of predictive uncertainty for regression.

Consumes Monte-Carlo prediction dumps (ground truth plus N stochastic
forward-pass outputs per sample), fits sigma scaling or a small auxiliary
network to recalibrate the predicted uncertainty, and evaluates calibration
through the uncertainty calibration error, negative log-likelihood,
prediction-interval coverage, rejection curves, and out-of-distribution
comparisons. A self-contained MC-dropout toy regressor reproduces the
underestimation phenomenon on synthetic data.

Importing the package imports none of its modules: each exported name
resolves on first use (PEP 562), importing only the module that defines it,
so a command loads only what it runs. Reading ``__all__`` imports every
module. ``from regcal import *`` needs every name, and a tool that reads
``__all__`` and then walks ``sys.modules`` for the package's modules, as a
tracer patching each module's references does, must find all of them there.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the module that defines it.
_EXPORTS = {
    "AuxConfig": "calibrate",
    "BinStats": "core",
    "CalibrationArtifact": "core",
    "CalibrationError": "calibrate",
    "CoverageTable": "intervals",
    "DumpFormatError": "io",
    "McPredictionSet": "core",
    "OodComparison": "analysis",
    "RejectionCurve": "analysis",
    "ToyModel": "toymodel",
    "ToyModelConfig": "toymodel",
    "TrainingTrace": "toymodel",
    "UceReport": "metrics",
    "UncertaintyHistogram": "analysis",
    "Uncertainties": "core",
    "apply_calibration": "calibrate",
    "aux_fit": "calibrate",
    "batch_nll": "likelihood",
    "calibration_diagram": "metrics",
    "coverage": "intervals",
    "experiment": "toymodel",
    "fit_sigma": "calibrate",
    "generate": "toymodel",
    "identity_artifact": "core",
    "load_artifact": "io",
    "load_dump": "io",
    "mc_predict": "toymodel",
    "mse": "metrics",
    "ood_compare": "analysis",
    "probit": "likelihood",
    "rejection_curve": "analysis",
    "save_artifact": "io",
    "save_dump": "io",
    "sigma_closed_form": "calibrate",
    "sigma_fit_gd": "calibrate",
    "simulate_unbiasedness": "toymodel",
    "train": "toymodel",
    "uce": "metrics",
    "uncertainty_records": "metrics",
}


def __getattr__(name: str):
    if name == "__all__":
        for module in dict.fromkeys(_EXPORTS.values()):
            import_module(f".{module}", __name__)
        value = list(_EXPORTS)
    elif name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
