"""regcal benchmark: closed-loop CLI workloads with output checks.

    python3 bench/run.py --workload dump_eval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. One client issues the workload's
``regcal`` commands one after another, each in a fresh child process with
``src`` on ``PYTHONPATH``, and goes on repeating the sequence, command by
command, until ``--seconds`` have passed. Inputs are generated from ``--seed``; every output is
checked against numpy oracles and hashed. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
pass with ``--trace 1``. Times are scaled to a fixed CPU speed
(:class:`SpeedProbe`). See ``bench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# BLAS/OpenMP pool size for this process and every child; fixed so timings and
# BLAS reduction order do not depend on the machine's core count.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import numpy as np  # noqa: E402  (after the thread pinning above)

import gen  # noqa: E402
import oracles as o  # noqa: E402
from tracer import COUNTS, LAYERS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # children are killed after this, so a run ends within 180 s
SETUP_PROBES = 6  # cold starts before each pass
OVERHEAD_PAIRS = 3  # untraced/traced evaluate pairs in a traced run
# The console-script entry point declared by the package (regcal = regcal.cli:main).
CLI_ENTRY = "import sys; from regcal.cli import main; sys.exit(main())"
COMMAND_METRICS = ("calibrate_s", "evaluate_s", "intervals_s", "reject_s", "ood_s")
PROBE_EVERY_S = 0.05  # the speed probe's period
PROBE_MIN = 4  # samples averaged at least, per child
# Cost of one probe sample taken as nominal speed: about its cost on the
# faster of the two speeds seen on the 2-core machine the bounds were set on.
# It only sets the scale of the reported times.
NOMINAL_COST_S = 7.0e-4


# -- workloads ---------------------------------------------------------------------


@dataclass
class Step:
    metric: str  # end-to-end metric the command's wall time adds to
    argv: list[str]  # regcal CLI arguments
    check: Callable[["Run"], list[str]]


@dataclass
class Workload:
    name: str
    dumps: dict[str, tuple]  # file -> (m, N, d, noise_scale), written by the benchmark
    steps: Callable[[int], list[Step]]
    evaluated: str  # dump read by the evaluate step: round-tripped, and the base of core.rss_over_arrays


def _analysis(test: str, other: str, calib: str, svg: bool) -> list[Step]:
    """evaluate / intervals / reject / ood on ``test`` with artifact ``calib``."""
    extra = ["--svg", "diagram.svg"] if svg else []

    def evaluate(r):
        art = o.strict_json(r.path(calib))
        return (o.check_report(r.path("report.json"), r.dump(test), art)
                + o.check_diagram(r.path("diagram.csv"), r.dump(test), art,
                                  svg=r.path("diagram.svg") if svg else None))

    return [
        Step("evaluate_s", ["evaluate", "--input", test, "--calib", calib, "--out", "report.json",
                            "--diagram", "diagram.csv", *extra], evaluate),
        Step("intervals_s", ["intervals", "--input", test, "--calib", calib, "--out", "coverage.csv"],
             lambda r: o.check_coverage(r.path("coverage.csv"), r.dump(test), o.strict_json(r.path(calib)))),
        Step("reject_s", ["reject", "--input", test, "--calib", calib, "--out", "reject.csv"],
             lambda r: o.check_reject(r.path("reject.csv"), r.dump(test), o.strict_json(r.path(calib)))),
        Step("ood_s", ["ood", "--in-dist", test, "--shifted", other, "--calib", calib, "--out", "ood.csv"],
             lambda r: o.check_ood(r.path("ood.csv"), r.dump(test), r.dump(other), o.strict_json(r.path(calib)))),
    ]


def _sigma_step(dump: str) -> Step:
    return Step("calibrate_s", ["calibrate", "--input", dump, "--method", "sigma", "--out", "calib.json"],
                lambda r: o.check_sigma_artifact(r.path("calib.json"), r.dump(dump)))


def dump_eval_steps(seed: int) -> list[Step]:
    return [_sigma_step("val.jsonl")] + _analysis("test.jsonl", "shifted.jsonl", "calib.json", svg=True)


def wide_fit_steps(seed: int) -> list[Step]:
    # --iters 4000 lets the GD fit converge (it stops after about 1.3k steps).
    return [
        Step("calibrate_s", ["calibrate", "--input", "val.jsonl", "--method", "aux", "--h", "16",
                             "--seed", str(seed), "--out", "aux.json"],
             lambda r: o.check_aux_artifact(r.path("aux.json"), r.dump("val.jsonl"))),
        Step("calibrate_s", ["calibrate", "--input", "val.jsonl", "--method", "sigma", "--gd",
                             "--likelihood", "laplace", "--target", "aleatoric", "--iters", "4000",
                             "--out", "sigma_gd.json"],
             lambda r: o.check_sigma_artifact(r.path("sigma_gd.json"), r.dump("val.jsonl"),
                                              "laplace", "aleatoric", rel=1e-5)),
    ] + _analysis("test.jsonl", "val.jsonl", "aux.json", svg=False)


def _check_toy(r) -> list[str]:
    sigma_doc = o.strict_json(r.path("toy/calib_sigma.json"))
    aux_doc = o.strict_json(r.path("toy/calib_aux.json"))
    problems = (o.check_sigma_artifact(r.path("toy/calib_sigma.json"), r.dump("toy/val.jsonl"))
                + o.check_aux_artifact(r.path("toy/calib_aux.json"), r.dump("toy/val.jsonl"))
                + o.check_toy_summary(r.path("toy/summary.json"), r.dump("toy/test.jsonl"),
                                      sigma_doc, aux_doc))
    rows = o.read_csv(r.path("toy/trace.csv"))
    epochs = o.strict_json(r.path("toy/summary.json"))["epochs"]
    if len(rows) != epochs:
        problems.append(f"toy/trace.csv: {len(rows)} rows for {epochs} epochs")
    return problems


def toy_steps(seed: int) -> list[Step]:
    # The commands after `toy` run the paper's path on the toy's own small dumps,
    # twice per pass, so each of these sub-second commands is timed more often.
    # `toy` itself feeds only wall_s.
    block = [_sigma_step("toy/val.jsonl")] + _analysis("toy/test.jsonl", "toy/val.jsonl", "calib.json", svg=True)
    return [Step("toy_s", ["toy", "--seed", str(seed), "--out-dir", "toy"], _check_toy)] + block + block


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dump_eval", {"val.jsonl": (2_500, 25, 1, 1.0), "test.jsonl": (2_500, 25, 1, 1.0),
                               "shifted.jsonl": (2_500, 25, 1, 2.0)}, dump_eval_steps, "test.jsonl"),
        Workload("toy", {}, toy_steps, "toy/test.jsonl"),
        Workload("wide_fit", {"val.jsonl": (500, 100, 4, 1.0), "test.jsonl": (500, 100, 4, 1.0)},
                 wide_fit_steps, "test.jsonl"),
    )
}


# -- child processes ---------------------------------------------------------------


class SpeedProbe:
    """Samples the speed of the CPU that the harness and its children share.

    The cores of a shared machine change speed by up to about 1.9x within
    seconds, so a command's raw wall time depends on when it ran. The harness
    and every child are pinned to one CPU; a harness thread on that CPU does
    a fixed piece of work like the program's (parse a dump record, small
    numpy reductions) every ``PROBE_EVERY_S`` and records the CPU time it
    took. A command's wall time times ``NOMINAL_COST_S`` over the mean
    sample cost during the command is its time at a fixed nominal speed.
    """

    RECORD = json.dumps({"id": "r", "y": [0.123456789] * 25,
                         "samples": [{"mean": [0.5], "log_var": -1.25}] * 25})

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._array = np.arange(25.0)

    def _work(self):
        for _ in range(10):
            doc = json.loads(self.RECORD)
            [float(x) for x in doc["y"]]
        for _ in range(100):
            self._array.mean()

    def _loop(self):
        while not self._stop.wait(PROBE_EVERY_S):
            t0, c0 = time.perf_counter(), time.thread_time()
            self._work()
            self.samples.append((t0, time.thread_time() - c0))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_COST_S over the mean loop cost in [t0, t1], widened to the
        PROBE_MIN samples nearest to it when fewer fall inside; 1.0 without samples."""
        samples = list(self.samples)
        inside = [c for t, c in samples if t0 <= t <= t1]
        if len(inside) < PROBE_MIN:
            mid = 0.5 * (t0 + t1)
            inside = [c for _, c in sorted(samples, key=lambda s: abs(s[0] - mid))[:PROBE_MIN]]
        return NOMINAL_COST_S / statistics.mean(inside) if inside else 1.0


def pin_to_one_cpu():
    """Pin this process (and so every thread and child it starts later) to one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass
class Child:
    wall: float  # seconds at nominal CPU speed
    rss_mb: float
    rc: int
    raw: float = 0.0  # wall-clock seconds as measured


class Run:
    """One benchmark invocation: its work directory, inputs and child processes."""

    def __init__(self, workload: Workload, seed: int, work: Path, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.seed = seed
        self.work = work
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._dumps: dict[str, gen.Dump] = {}
        self.inputs: dict[str, gen.Dump] = {}

    def path(self, rel: str) -> Path:
        return self.work / rel

    def dump(self, rel: str) -> gen.Dump:
        """Arrays of a dump: generated ones as drawn, program-written ones parsed."""
        if rel in self.inputs:
            return self.inputs[rel]
        if rel not in self._dumps:
            self._dumps[rel] = gen.read_dump(self.path(rel))
        return self._dumps[rel]

    def forget_outputs(self):
        self._dumps.clear()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def make_inputs(self):
        for stream, (rel, (m, n, d, noise)) in enumerate(sorted(self.workload.dumps.items())):
            self.inputs[rel] = gen.make_dump(Path(rel).stem, m, n, d, self.seed, stream, noise)
            gen.write_dump(self.inputs[rel], self.path(rel))

    def input_key(self) -> str:
        """Hash of the program, the inputs and the command lines: runs with
        equal keys must write equal outputs."""
        h = hashlib.sha256(program_key(ROOT / "src").encode())
        h.update(json.dumps([s.argv for s in self.workload.steps(self.seed)]).encode())
        for rel in sorted(self.inputs):
            h.update(self.path(rel).read_bytes())
        return h.hexdigest()[:16]

    def spawn(self, argv: list[str], log: str) -> Child:
        """Run one child to completion; wall time and peak RSS from wait4."""
        budget = self.remaining()
        if budget <= 0:
            return Child(0.0, 0.0, -1)
        (self.work / "logs").mkdir(exist_ok=True)
        with open(self.work / "logs" / log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        raw = t1 - t0
        return Child(raw * self.probe.scale(t0, t1), usage.ru_maxrss / 1024.0, proc.returncode, raw)

    def cli(self, args: list[str], log: str) -> Child:
        return self.spawn([sys.executable, "-c", CLI_ENTRY, *args], log)

    def traced(self, spans: str, mode: str, args: list[str], log: str) -> Child:
        return self.spawn([sys.executable, str(BENCH / "tracer.py"), spans, mode, *args], log)

    def setup_times(self, probes: int) -> list[float]:
        """Wall times of cold CLI starts (import and exit)."""
        times = []
        for _ in range(probes):
            child = self.cli(["--help"], "setup.log")
            if child.rc != 0:
                log = (self.work / "logs" / "setup.log").read_text(errors="replace").strip()
                raise SystemExit(f"error: the regcal CLI does not start (exit {child.rc}): "
                                 f"{log.splitlines()[-1] if log else 'no output'}")
            times.append(child.wall)
        return times

    def output_digest(self) -> dict[str, str]:
        skip = set(self.inputs)
        digest = {}
        for path in sorted(self.work.rglob("*")):
            rel = path.relative_to(self.work).as_posix()
            if path.is_file() and rel not in skip and rel.split("/")[0] not in ("logs", "spans", "roundtrip"):
                digest[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digest


@dataclass
class StepResult:
    step: Step
    child: Child
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.child.rc == 0 and not self.problems


def run_step(run: Run, step: Step, index: int, traced_spans: str | None = None,
             check: bool = True) -> StepResult:
    log = f"{index:02d}-{step.argv[0]}.log"
    if traced_spans is None:
        child = run.cli(step.argv, log)
    else:
        child = run.traced(traced_spans, "cli", step.argv, log)
    result = StepResult(step, child)
    if child.rc != 0:
        result.problems.append(f"`regcal {' '.join(step.argv)}` exited {child.rc}")
    elif check:
        try:
            result.problems = step.check(run)
        except Exception as exc:  # malformed output of any shape counts as a failed check
            result.problems = [f"output check of `regcal {step.argv[0]}` failed: {exc!r}"]
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return result


def unique(steps: list[Step]) -> list[Step]:
    """The command sequence without repeats."""
    seen = {}
    for step in steps:
        seen.setdefault(tuple(step.argv), step)
    return list(seen.values())


# -- determinism ---------------------------------------------------------------


def program_key(src: Path) -> str:
    """Hash of the program under test: every file of its source tree (byte-code
    caches aside) and the Python and numpy versions that run it."""
    h = hashlib.sha256(f"{platform.python_version()} {np.__version__}".encode())
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(src).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def compare_digests(store: Path, digests: list[dict[str, str]]) -> list[str]:
    """Outputs must hash alike across passes, and alike to an earlier run
    stored at ``store``, whose name holds the program and input hash."""
    problems = [f"pass {i + 1} outputs differ from pass 1" for i, d in enumerate(digests) if d != digests[0]]
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        earlier = json.loads(store.read_text())
        changed = sorted(k for k in set(earlier) | set(digests[0]) if earlier.get(k) != digests[0].get(k))
        if changed:
            problems.append(f"outputs differ from an earlier run of the same program and inputs: {changed}")
    else:
        store.write_text(json.dumps(digests[0], indent=1, sort_keys=True))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return problems


def digest_store(run: Run) -> Path:
    return WORK / "digests" / f"{run.workload.name}-{run.seed}-{run.input_key()}.json"


# -- machine info and reporting ------------------------------------------------------


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "probe": {"every_s": PROBE_EVERY_S, "nominal_cost_s": NOMINAL_COST_S},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: THREADS for var in THREAD_VARS},
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def report(metrics: dict, attempted: int, failed: int, extra: list[str]):
    for line in extra:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


# -- the two modes ---------------------------------------------------------------


def measure(run: Run, seconds: float):
    """--trace 0: the command sequence over and over, each command started
    while less than ``seconds`` have passed (the last pass may stop part
    way); end-to-end metrics."""
    run.setup_times(1)  # fills the bytecode and page caches
    steps = run.workload.steps(run.seed)
    setup, results, digests = [], [], []
    walls: dict[tuple, list[Child]] = {}  # command line -> its invocations in this run
    end = time.perf_counter() + min(seconds, run.remaining() - 60.0)
    i = 0
    while i < len(steps) or time.perf_counter() < end:
        if i % len(steps) == 0:
            if i:
                digests.append(run.output_digest())
            setup += run.setup_times(SETUP_PROBES)
            run.forget_outputs()
        step = steps[i % len(steps)]
        key = tuple(step.argv)
        # Repeats are checked through the output digests, which must not change.
        results.append(run_step(run, step, i % len(steps), check=key not in walls))
        walls.setdefault(key, []).append(results[-1].child)
        i += 1
    digests.append(run.output_digest())
    det = compare_digests(digest_store(run), digests)
    typical = {argv: statistics.mean(c.wall for c in w) for argv, w in walls.items()}
    # wall_s: the commands of each whole pass, every invocation counted, averaged over passes.
    passes = len(results) // len(steps)
    pass_walls = [sum(r.child.wall for r in results[k * len(steps):(k + 1) * len(steps)]) for k in range(passes)]
    metrics = {"setup_s": metric(statistics.median(setup), "s")}
    for name in COMMAND_METRICS:
        metrics[name] = metric(sum(typical[tuple(s.argv)] for s in unique(steps) if s.metric == name), "s")
    metrics["wall_s"] = metric(statistics.mean(pass_walls), "s")
    metrics["peak_rss_mb"] = metric(max(r.child.rss_mb for r in results), "MB")
    attempted = len(results) + 1
    failed = sum(not r.ok for r in results) + bool(det)
    info = [f"workload {run.workload.name}, seed {run.seed}: {len(results)} commands "
            f"({len(results) / len(steps):.2f} passes of {len(steps)}), setup median of {len(setup)} cold starts; "
            f"each command's seconds at nominal speed / as measured:"]
    for argv, w in walls.items():
        info.append(f"  {' '.join(argv[:3])}: " + " ".join(f"{c.wall:.4f}/{c.raw:.4f}" for c in w))
    if any(s.metric == "toy_s" for s in steps):
        toy = [c.wall for s in unique(steps) if s.metric == "toy_s" for c in walls[tuple(s.argv)]]
        info.append(f"  {'toy_s':28s} {statistics.mean(toy):.6g} s (the toy command alone, part of wall_s)")
    return metrics, attempted, failed, info


def _layer_times(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """Inclusive seconds and call count per function (the last part of a span's
    name, ``module.function``); a span nested in one of the same name is not
    counted again."""
    by_id = {s["id"]: s for s in spans}
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        p = s["parent"]
        nested = False
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                nested = True
                break
            p = by_id[p]["parent"]
        if not nested:
            fn = s["name"].rsplit(".", 1)[-1]
            t, n = out.get(fn, (0.0, 0))
            out[fn] = (t + s["end"] - s["start"], n + 1)
    return out


def _json_floor(path: Path) -> float:
    """Stdlib json.loads over every line of a dump: the parse floor."""
    t0 = time.perf_counter()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.strip():
                json.loads(line)
    return time.perf_counter() - t0


def _fit_counts(run: Run) -> tuple[int, int, int]:
    """(GD iterations, aux epochs, toy epochs) from the artifacts and summaries written."""
    gd = aux = toy = 0
    for path in run.work.rglob("*.json"):
        if path.parent.name in ("spans", "logs"):
            continue
        try:
            doc = o.strict_json(path)
        except (ValueError, OSError):
            continue
        if not isinstance(doc, dict):
            continue
        meta = doc.get("fit_meta")
        meta = meta if isinstance(meta, dict) else {}
        try:
            if doc.get("method") == "sigma" and meta.get("fit") == "gd":
                gd += int(meta.get("iterations", 0))
            if doc.get("method") == "aux":
                aux += int(float(meta.get("epochs", 0)))
            if path.name == "summary.json" and "epochs" in doc:
                toy += int(doc["epochs"])
        except (TypeError, ValueError):  # a count in another shape reads as absent
            continue
    return gd, aux, toy


def trace_layers(run: Run):
    """--trace 1: a traced pass, a traced dump round trip, and the evaluate
    step untraced then traced for the overhead; per-layer metrics."""
    run.setup_times(1)
    steps = unique(run.workload.steps(run.seed))
    spans_dir = run.work / "spans"
    spans_dir.mkdir()
    results = [run_step(run, step, i, str(spans_dir / f"{i:02d}.json")) for i, step in enumerate(steps)]
    digest = run.output_digest()

    # save_dump(load_dump(f)) must give f back byte for byte.
    source = run.workload.evaluated
    (run.work / "roundtrip").mkdir()
    rt = run.traced(str(spans_dir / "roundtrip.json"), "roundtrip",
                    [source, "roundtrip/" + Path(source).name], "roundtrip.log")
    rt_problems = []
    rt_doc = json.loads((spans_dir / "roundtrip.json").read_text()) if rt.rc == 0 else {"skipped": True}
    if rt.rc != 0:
        rt_problems.append(f"round trip of {source} exited {rt.rc}")
    elif not rt_doc["skipped"]:
        if run.path("roundtrip/" + Path(source).name).read_bytes() != run.path(source).read_bytes():
            rt_problems.append(f"save_dump(load_dump({source})) differs from the file")

    # The evaluate step untraced and traced in alternation, the order flipped
    # every pair: the gap between the medians is the tracing overhead; the
    # untraced peak RSS feeds core.rss_over_arrays. The digests check the outputs.
    i_eval = next(i for i, s in enumerate(steps) if s.metric == "evaluate_s")
    plain, again = [], []
    for k in range(OVERHEAD_PAIRS):
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            spans = str(run.work / "logs" / "overhead-spans.json") if traced_run else None
            (again if traced_run else plain).append(run_step(run, steps[i_eval], i_eval, spans, check=False))
    det = compare_digests(digest_store(run), [digest, run.output_digest()])
    plain_s = statistics.median(r.child.wall for r in plain)
    traced_s = statistics.median(r.child.wall for r in again)

    # Merge the steps' spans under one root span.
    root = {"id": 0, "name": f"workload:{run.workload.name}", "parent": None, "start": None, "end": None}
    spans, absent = [root], set()
    for f in sorted(spans_dir.glob("*.json")):
        doc = json.loads(f.read_text())
        absent.update(doc["absent"])
        offset = len(spans)
        for s in doc["spans"]:
            spans.append(dict(s, id=s["id"] + offset, parent=0 if s["parent"] is None else s["parent"] + offset))
    root["start"] = min((s["start"] for s in spans[1:]), default=0.0)
    root["end"] = max((s["end"] for s in spans[1:]), default=0.0)
    times = _layer_times(spans)

    metrics = {}
    for name, fn in LAYERS.items():
        metrics[name] = metric(times.get(fn, (0.0, 0))[0], "s")
    for name, fn in COUNTS.items():
        metrics[name] = metric(times.get(fn, (0.0, 0))[1], "count")
    loads = [s for s in spans if s["name"].endswith(".load_dump") and "path" in s]
    floors = {p: _json_floor(run.work / p) for p in {s["path"] for s in loads}}
    floor = sum(floors[s["path"]] for s in loads)
    metrics["io.json_floor_s"] = metric(floor, "s")
    metrics["io.load_over_floor"] = metric(metrics["io.load_dump_s"]["value"] / floor if floor else 0.0, "ratio")
    metrics["io.dump_mb"] = metric(sum((run.work / s["path"]).stat().st_size for s in loads) / 1e6, "MB")
    try:
        array_bytes = run.dump(source).array_bytes
    except (OSError, ValueError, KeyError):  # the program did not write it
        array_bytes = 0
    rss = max(r.child.rss_mb for r in plain)
    metrics["core.rss_over_arrays"] = metric(rss * 2**20 / array_bytes if array_bytes else 0.0, "ratio")
    gd_iters, aux_epochs, toy_epochs = _fit_counts(run)
    metrics["calibrate.gd_iterations"] = metric(gd_iters, "count")
    aux_s = metrics["calibrate.aux_fit_s"]["value"]
    metrics["calibrate.aux_epoch_ms"] = metric(1e3 * aux_s / aux_epochs if aux_epochs else 0.0, "ms")
    train_s = metrics["toymodel.train_s"]["value"]
    metrics["toymodel.epoch_ms"] = metric(1e3 * train_s / toy_epochs if toy_epochs else 0.0, "ms")
    overhead = 100.0 * (traced_s / plain_s - 1.0) if plain_s else 0.0
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    never = sorted(n for n, fn in LAYERS.items() if fn not in times and fn not in absent)
    out = WORK / "traces" / f"{run.workload.name}-seed{run.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"workload": run.workload.name, "seed": run.seed, "machine": machine_info(),
                               "absent": sorted(absent), "not_called": never,
                               "overhead": {"evaluate_traced_s": [r.child.wall for r in again],
                                            "evaluate_untraced_s": [r.child.wall for r in plain],
                                            "pct": overhead},
                               "metrics": metrics, "spans": spans}, indent=1))
    attempted = len(results) + 2 * OVERHEAD_PAIRS + 2
    failed = sum(not r.ok for r in results + plain + again) + bool(rt_problems) + bool(det)
    for problem in rt_problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = [f"workload {run.workload.name}, seed {run.seed}: traced pass of {len(steps)} commands, "
            f"{len(spans)} spans written to {out.relative_to(ROOT)}",
            f"absent from regcal.__all__: {sorted(absent) or 'none'}; never called: {never or 'none'}",
            f"tracing overhead on evaluate: {overhead:+.2f}% "
            f"(medians of {OVERHEAD_PAIRS}: {traced_s:.4f} s traced, {plain_s:.4f} s untraced)"]
    return metrics, attempted, failed, info


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)  # so the cleanup below runs
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    work = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        pin_to_one_cpu()
        with SpeedProbe() as probe:
            run = Run(WORKLOADS[args.workload], args.seed, work, probe)
            run.make_inputs()
            if args.trace:
                metrics, attempted, failed, info = trace_layers(run)
            else:
                metrics, attempted, failed, info = measure(run, args.seconds)
        info.insert(0, "machine: " + json.dumps(machine_info()))
        report(metrics, attempted, failed, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
