"""Run one workload step in process with spans around the program's layer calls.

Usage (the benchmark starts this as a child process, with ``src`` on
``PYTHONPATH``)::

    python3 bench/tracer.py SPANS.json cli ARG...       # regcal.cli.main([ARG...])
    python3 bench/tracer.py SPANS.json roundtrip IN OUT  # save_dump(load_dump(IN), OUT)

Each function named in ``LAYERS`` is looked up through ``regcal.__all__`` and
replaced, in every ``regcal`` module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent). The step itself is
the root span. Spans stay in memory and are written to SPANS.json when the
step ends, together with the names that ``regcal.__all__`` no longer offers.
The exit code is the step's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Per-layer time metric -> public function of the program it times.
LAYERS = {
    "io.load_dump_s": "load_dump",
    "io.save_dump_s": "save_dump",
    "core.validate_s": "validate",
    "metrics.decompose_s": "uncertainty_records",
    "metrics.uce_s": "uce",
    "metrics.diagram_s": "calibration_diagram",
    "metrics.mse_s": "mse",
    "calibrate.fit_sigma_s": "fit_sigma",
    "calibrate.fit_sigma_gd_s": "sigma_fit_gd",
    "calibrate.aux_fit_s": "aux_fit",
    "calibrate.apply_s": "apply_calibration",
    "likelihood.batch_nll_s": "batch_nll",
    "intervals.coverage_s": "coverage",
    "analysis.rejection_s": "rejection_curve",
    "analysis.ood_s": "ood_compare",
    "toymodel.generate_s": "generate",
    "toymodel.train_s": "train",
    "toymodel.mc_predict_s": "mc_predict",
    "toymodel.intra_calibrate_s": "intra_training_calibrate",
}

# Per-layer call counts -> public function counted.
COUNTS = {
    "metrics.decompose_calls": "uncertainty_records",
    "core.validate_calls": "validate",
}


class Tracer:
    def __init__(self, root: str):
        self.spans = [{"id": 0, "name": root, "parent": None, "start": time.perf_counter(), "end": None}]
        self._stack = [0]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "parent": self._stack[-1],
                    "start": time.perf_counter(), "end": None}
            if args and isinstance(args[0], (str, os.PathLike)):
                span["path"] = os.fspath(args[0])
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.perf_counter()

        return traced

    def install(self, package) -> list[str]:
        """Wrap every layer function the package exports; return the missing names."""
        exported = set(getattr(package, "__all__", ()))
        absent = []
        modules = [mod for key, mod in sys.modules.items()
                   if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        for name in sorted(set(LAYERS.values())):
            fn = getattr(package, name, None) if name in exported else None
            if not callable(fn):
                absent.append(name)
                continue
            module = getattr(fn, "__module__", "") or ""
            wrapped = self.wrap(f"{module.removeprefix(package.__name__ + '.')}.{name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
        return absent

    def close(self):
        self.spans[0]["end"] = time.perf_counter()


def main(argv: list[str]) -> int:
    spans_out, mode, rest = argv[0], argv[1], argv[2:]
    import regcal
    import regcal.cli

    tracer = Tracer(f"step:{mode}:{rest[0] if rest else ''}")
    absent = tracer.install(regcal)
    skipped = False
    try:
        if mode == "cli":
            rc = regcal.cli.main(rest)
        elif {"load_dump", "save_dump"} & set(absent):
            rc, skipped = 0, True
        else:
            regcal.save_dump(regcal.load_dump(rest[0]), rest[1])
            rc = 0
    finally:
        tracer.close()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "absent": absent, "skipped": skipped}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
