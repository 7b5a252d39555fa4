"""Command-line surface: fit/apply calibration, evaluate, export curves.

Every subcommand is a pure function of its inputs, flags and seed: it
writes nothing, and returns its outputs as ``(writer, document, path)``
triples. ``main()`` writes them, in order, all or none: when one write
fails, the files already written are removed before the error is reported.
Only a path that ``lstat`` shows as a regular file is removed, so a link
such as ``--out /dev/stdout``, or a FIFO, never is. Repeated invocations
write byte-identical outputs. On failure a single machine-parsable line
``error: <code>: <message>`` goes to stderr, the exit code is nonzero and
no output file is left.

A regcal process freezes the cycle collector as it exits: ``main()``
registers :func:`gc.freeze` with :mod:`atexit`, so the interpreter's final
collections skip the objects that numpy and regcal leave behind instead of
walking them to free nothing. Outputs, messages and exit codes are
unchanged, since every file a command writes is closed before ``main()``
returns. A caller that runs ``main()`` in-process keeps a normal collector
until its own process exits.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import math
import os
import sys
from pathlib import Path
from stat import S_ISREG

# Each command imports the modules it runs, after the refusals it makes
# itself: building the parser, --help and a flag error load no numpy, and
# only toy loads the toy model.


class CliError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line errors instead of usage dumps
        raise CliError("usage", message)


def _load_calib(path):
    if path is None:
        from .core import identity_artifact

        return identity_artifact()
    from .io import load_artifact

    return load_artifact(path)


def _target(flag: str) -> str:
    return "aleatoric_only" if flag == "aleatoric" else flag


def _given(**flags) -> dict:
    """The flags the user set; the rest keep the defaults of the function or class they go to."""
    return {name: value for name, value in flags.items() if value is not None}


def _floats(text: str, flag: str) -> list[float]:
    """The comma-separated reals of a flag's value, empty items skipped; refuses none or a NaN."""
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        values = []
    if not values or any(math.isnan(v) for v in values):
        raise CliError("invalid-flag", f"could not parse {flag} {text!r}")
    return values


def _uncertainties(path, calib):
    """The decomposed uncertainties of the dump at ``path``, recalibrated by ``calib``."""
    from .calibrate import apply_calibration
    from .io import load_uncertainties

    return apply_calibration(load_uncertainties(path)[0], calib)


# The optional flags each calibrate route reads; it refuses any other one.
_ROUTE_FLAGS = {"sigma": (), "sigma --gd": ("gd", "iters"), "aux": ("h", "seed", "lr", "iters")}


def cmd_calibrate(args) -> list:
    route = "sigma --gd" if args.method == "sigma" and args.gd else args.method
    given = _given(h=args.h, seed=args.seed, lr=args.lr, iters=args.iters, gd=args.gd or None)
    unread = [flag for flag in given if flag not in _ROUTE_FLAGS[route]]
    if unread:
        raise CliError("invalid-flag", f"--{unread[0]} is not read by calibrate --method {route}")
    if route == "aux" and args.likelihood != "gaussian":
        raise CliError("invalid-flag", "aux calibration supports the gaussian likelihood only")
    from . import io as rio
    from .calibrate import AuxConfig, aux_fit, fit_sigma

    unc, _ = rio.load_uncertainties(args.input)
    target = _target(args.target)
    if args.method == "sigma":
        calib = fit_sigma(unc, likelihood=args.likelihood, target=target, use_gd=args.gd,
                          **_given(max_iters=args.iters))
    else:
        cfg = AuxConfig(**_given(hidden_width=args.h, seed=args.seed,
                                 epochs=args.iters, step_size=args.lr))
        calib = aux_fit(unc, cfg, target=target)
    return [(rio.save_artifact, calib, args.out)]


def cmd_evaluate(args) -> list:
    from . import io as rio
    from .calibrate import apply_calibration
    from .likelihood import batch_nll
    from .metrics import DEFAULT_BINS, calibration_diagram, mse, uce

    bins = DEFAULT_BINS if args.bins is None else args.bins
    unc, n_samples = rio.load_uncertainties(args.input)
    calib = _load_calib(args.calib)
    unc = apply_calibration(unc, calib)
    rep_pred = uce(unc, k=bins, mode="predictive")
    report = {
        "m": unc.m,
        "d": unc.residual.shape[1],
        "n_samples": n_samples,
        "mse": mse(unc),
        "nll": batch_nll(unc, calib.likelihood),
        "uce_predictive": rep_pred.to_dict(),
        "uce_aleatoric_only": uce(unc, k=bins, mode="aleatoric_only").to_dict(),
        "provenance": {
            "input": args.input,
            "bins": bins,
            "calibration": rio.artifact_to_json(calib),
            "bin_range": "equal-width bins over [min, max] of evaluated uncertainties",
        },
    }
    points = calibration_diagram(rep_pred)
    return [(rio.write_json, report, args.out), (rio.diagram_to_csv, points, args.diagram),
            (rio.diagram_to_svg, points, args.svg)]


def cmd_intervals(args) -> list:
    levels = None if args.levels is None else _floats(args.levels, "levels")
    from . import io as rio
    from .intervals import coverage

    calib = _load_calib(args.calib)
    unc = _uncertainties(args.input, calib)
    return [(rio.coverage_to_csv, coverage(unc, kind=calib.likelihood, **_given(levels=levels)),
             args.out)]


def cmd_reject(args) -> list:
    thresholds = None if args.thresholds is None else _floats(args.thresholds, "thresholds")
    from . import io as rio
    from .analysis import rejection_curve

    unc = _uncertainties(args.input, _load_calib(args.calib))
    curve = rejection_curve(unc, thresholds=thresholds, **_given(steps=args.steps))
    return [(rio.rejection_to_csv, curve, args.out)]


def cmd_ood(args) -> list:
    from . import io as rio
    from .analysis import ood_compare

    calib = _load_calib(args.calib)
    in_dist, shifted = _uncertainties(args.in_dist, calib), _uncertainties(args.shifted, calib)
    return [(rio.ood_to_csv, ood_compare(in_dist, shifted, **_given(k=args.bins)), args.out)]


def cmd_toy(args) -> list:
    from . import io as rio
    from .jsonl import save_dump
    from .toymodel import ToyModelConfig, experiment

    cfg = ToyModelConfig(**_given(seed=args.seed, epochs=args.epochs, mc_passes=args.mc_passes))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # before training: a bad --out-dir fails fast
    result = experiment(cfg)
    return [*((save_dump, pset, out_dir / f"{name}.jsonl") for name, pset in result.dumps.items()),
            (rio.trace_to_csv, result.trace, out_dir / "trace.csv"),
            (rio.save_artifact, result.sigma, out_dir / "calib_sigma.json"),
            (rio.save_artifact, result.aux, out_dir / "calib_aux.json"),
            (rio.write_json, result.summary, out_dir / "summary.json")]


def build_parser() -> _Parser:
    # --help shows the docstring without its last paragraph, on process exit.
    parser = _Parser(prog="regcal", description=__doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a recalibration artifact on a dump")
    p.add_argument("--input", required=True)
    p.add_argument("--method", required=True, choices=["sigma", "aux"])
    # likelihood.FAMILIES, spelled out so that the parser loads no numpy
    p.add_argument("--likelihood", default="gaussian", choices=["gaussian", "laplace"])
    p.add_argument("--target", default="predictive", choices=["predictive", "aleatoric"])
    p.add_argument("--out", required=True)
    p.add_argument("--h", type=int, help="aux hidden width")
    p.add_argument("--iters", type=int, help="sigma --gd iteration cap / aux epochs")
    p.add_argument("--lr", type=float, help="aux step size")
    p.add_argument("--seed", type=int, help="aux initialisation seed")
    p.add_argument("--gd", action="store_true", help="fit sigma by gradient descent")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="MSE/NLL/UCE report for a dump")
    p.add_argument("--input", required=True)
    p.add_argument("--calib")
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--diagram", help="write calibration-diagram CSV here")
    p.add_argument("--svg", help="write a minimal SVG calibration diagram here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("intervals", help="prediction-interval coverage table")
    p.add_argument("--input", required=True)
    p.add_argument("--calib")
    p.add_argument("--levels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("reject", help="uncertainty-threshold rejection curve")
    p.add_argument("--input", required=True)
    p.add_argument("--calib")
    p.add_argument("--steps", type=int)
    p.add_argument("--thresholds", help="comma-separated absolute thresholds (overrides --steps)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reject)

    p = sub.add_parser("ood", help="uncertainty histograms for two dumps")
    p.add_argument("--in-dist", dest="in_dist", required=True)
    p.add_argument("--shifted", required=True)
    p.add_argument("--calib")
    p.add_argument("--bins", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ood)

    p = sub.add_parser("toy", help="end-to-end synthetic MC-dropout experiment")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--epochs", type=int, help="override training epochs")
    p.add_argument("--mc-passes", dest="mc_passes", type=int)
    p.set_defaults(func=cmd_toy)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Have this process move every object to the collector's permanent
    generation when it exits, so that the interpreter's final collections
    skip them; registered once however often main() runs."""
    atexit.register(gc.freeze)


def _write(outputs) -> None:
    """Write each ``(writer, document, path)`` whose path is set, in order, or none: a failed
    write removes the ones already written that ``lstat`` shows as regular files, and re-raises."""
    written = []
    try:
        for write, doc, path in outputs:
            if path is not None:
                write(doc, path)
                written.append(path)
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                if S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
        raise


def main(argv=None) -> int:
    _freeze_at_exit()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _write(args.func(args))
        return 0
    except CliError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. --bins or --steps past what can be allocated
        print(f"error: memory: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # DumpFormatError and CalibrationError name their own code
        print(f"error: {getattr(exc, 'code', 'invalid-input')}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
