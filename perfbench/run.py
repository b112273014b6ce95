#!/usr/bin/env python3
"""Benchmark of liesolv: end-to-end and per-layer numbers on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload series-gf2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --selfcheck

A workload run imports liesolv from ``src/``, sets up the workload's
instances from ``--seed``, then runs passes over them for ``--seconds``
and checks every output against ``reference.json``.  Its last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is a ``report`` object with every figure, failed_frac and
inconclusive_frac included, and the host it was measured on.

``--all`` runs every workload, each in a fresh process, and prints one
table.  ``--selfcheck`` checks generator determinism, the GF(2) twin
references and that BENCHMARK.json names the metrics this file reports.
See README.md next to this file for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import calibrate as C
import tracing as T

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(HERE, "work")
OUT_ROOT = os.path.join(HERE, "out")

MODULES = ("algebra", "classify", "envelope", "families", "fields", "linalg",
           "ordinary", "specfile")

SETUP_REPEATS = 9
# A set-up takes 0.1-0.8 s, so its calibration kernel runs more often
# than during the measured passes to get enough samples.
SETUP_INTERVAL_S = 0.005
SETUP_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 400

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "instance_p50_ms": "ms",
              "instance_tail_ms": "ms", "peak_rss_mb": "MB"}
# Reported with the others but left out of BENCHMARK.json: both are 0 on a
# correct run, so a bound relative to their median is meaningless.
REPORT_ONLY = {"failed_frac": "frac", "inconclusive_frac": "frac"}


def load_library() -> dict:
    """Import liesolv from this checkout's src/ or exit with an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "liesolv", "__init__.py")):
        sys.exit(f"error: liesolv sources not found under {src}")
    sys.path.insert(0, src)
    return {name: importlib.import_module(f"liesolv.{name}") for name in MODULES}


def host_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "cpu_model": model or "unknown", "machine": platform.machine()}


@contextlib.contextmanager
def workdir(tag: str):
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class Tally:
    runs: List[tuple] = field(default_factory=list)   # (label, start, end, wall_s, cpu_s)
    attempted: int = 0
    failed: int = 0
    classified: int = 0
    inconclusive: int = 0
    passes: int = 0
    errors: List[str] = field(default_factory=list)
    last_wall: Dict[str, float] = field(default_factory=dict)

    def per_instance(self, cal: Optional[C.Calibrator] = None) -> Dict[str, tuple]:
        """label -> (median wall s, median cpu s), at reference speed when cal is given."""
        walls: Dict[str, List[float]] = {}
        cpus: Dict[str, List[float]] = {}
        for label, start, end, wall, cpu in self.runs:
            if cal is not None:
                wall *= cal.factor(start, end)
                cpu *= cal.factor(start, end, cpu=True)
            walls.setdefault(label, []).append(wall)
            cpus.setdefault(label, []).append(cpu)
        return {k: (statistics.median(walls[k]), statistics.median(cpus[k])) for k in walls}

    def pass_wall(self) -> float:
        """Raw wall time of one pass: the sum of each instance's median."""
        return sum(w for w, _ in self.per_instance().values())


def run_one(inst, tally: Tally, tracer=None, cal: Optional[C.Calibrator] = None) -> None:
    call = inst.call if tracer is None else tracer.wrap(
        T.INSTANCE_SPAN, inst.call, record=True, label=inst.label)
    out, error, verdicts = None, None, []
    c0 = time.process_time()
    t0 = time.perf_counter()
    k0 = (cal.spent_wall, cal.spent_cpu) if cal is not None else (0.0, 0.0)
    try:
        out = call()
    except Exception as exc:    # counted as a failed instance; the run goes on
        error = f"{inst.label}: {type(exc).__name__}: {exc}"
    k1 = (cal.spent_wall, cal.spent_cpu) if cal is not None else (0.0, 0.0)
    t1 = time.perf_counter()
    c1 = time.process_time()
    wall = t1 - t0 - (k1[0] - k0[0])
    cpu = c1 - c0 - (k1[1] - k0[1])
    if error is None:
        if tracer is not None:
            tracer.paused = True
        try:
            error = inst.check(out)
            verdicts = inst.verdicts(out)
        except Exception as exc:
            error = f"{inst.label}: check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
    tally.runs.append((inst.label, t0, t1, wall, cpu))
    tally.last_wall[inst.label] = wall
    tally.attempted += 1
    tally.classified += len(verdicts)
    tally.inconclusive += sum(v == "inconclusive" for v in verdicts)
    if error is not None:
        tally.failed += 1
        if len(tally.errors) < 5:
            tally.errors.append(error)


def measure(instances, seconds: float, tracer=None, whole_passes: bool = False,
            cal: Optional[C.Calibrator] = None) -> Tally:
    """Run the instances for about `seconds`, starting with one full pass.

    After the first pass the run repeatedly starts, among the instances
    whose last time still fits, the one with the fewest samples, so
    every instance that fits gets as many samples as the time allows.
    With whole_passes it starts another full pass only if the last one
    still fits, so every instance gets the same number of samples.
    """
    tally = Tally()
    counts = dict.fromkeys((inst.label for inst in instances), 0)
    gc.collect()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for inst in instances:
            run_one(inst, tally, tracer, cal)
            counts[inst.label] += 1
        tally.passes += 1
        now = time.perf_counter()
        if not whole_passes:
            break
        if now - start + (now - pass_start) > seconds:
            return tally
    while True:
        elapsed = time.perf_counter() - start
        fits = [inst for inst in instances
                if elapsed + tally.last_wall[inst.label] <= seconds]
        if not fits:
            return tally
        inst = min(fits, key=lambda i: counts[i.label])
        run_one(inst, tally, tracer, cal)
        counts[inst.label] += 1


def tail(values_ms: List[float]):
    """Value at the highest percentile with at least 10 samples beyond it."""
    xs = sorted(values_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def probe_setup(args) -> dict:
    """Time a fresh interpreter from start to a finished set-up.

    The child process calibrates itself: its user-mode CPU time, from
    interpreter start on, less its own kernel samples, at the reference
    speed its own samples give.  Kernel samples taken in this process
    would measure another core.  System time is reported but left out:
    the kernel does not track it, and on a shared host it varies
    threefold between identical set-ups.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["wall_s"] = t1 - t0
    return probe


def setup_only(args) -> int:
    """Body of a set-up probe: import, set up, print the calibrated user time."""
    with C.Calibrator(SETUP_INTERVAL_S) as cal:
        load_library()
        import workloads as W
        with workdir(args.workload) as wd:
            W.build(args.workload, args.seed, wd)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    user = usage.ru_utime - cal.spent_cpu
    factor = cal.factor(float("-inf"), float("inf"), cpu=True)
    print(json.dumps({"user_s": user, "sys_s": usage.ru_stime, "setup_s": user * factor,
                      "samples": len(cal.cpu)}))
    return 0


def emit(report: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(args, W, host) -> int:
    probes = [probe_setup(args) for _ in range(SETUP_REPEATS)]
    with C.Calibrator() as cal:
        with workdir(args.workload) as wd:
            built = W.build(args.workload, args.seed, wd)
            tally = measure(built.instances, args.seconds, cal=cal)
    timed = tally.per_instance(cal)
    per_instance_ms = [w * 1e3 for w, _ in timed.values()]
    tail_ms, tail_pct = tail(per_instance_ms)
    values = {
        "wall_s": sum(w for w, _ in timed.values()),
        "cpu_s": sum(c for _, c in timed.values()),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "instance_p50_ms": statistics.median(per_instance_ms),
        "instance_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": tally.failed / tally.attempted,
        "inconclusive_frac": (tally.inconclusive / tally.classified
                              if tally.classified else None),
    }
    raw = tally.per_instance()
    units = {**END_TO_END, **REPORT_ONLY}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host": host, "digests": built.digests,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "raw": {"wall_s": sum(w for w, _ in raw.values()),
                "cpu_s": sum(c for _, c in raw.values()),
                "setup_s": statistics.median(p["wall_s"] for p in probes),
                "setup_user_s": statistics.median(p["user_s"] for p in probes),
                "setup_sys_s": statistics.median(p["sys_s"] for p in probes)},
        "calibration": {"samples": len(cal.wall),
                        "setup_samples": statistics.median(p["samples"] for p in probes),
                        "median_kernel_s": statistics.median(cal.wall),
                        "reference_kernel_s": C.REF_KERNEL_S},
        "instances": len(per_instance_ms),
        "tail": {"percentile": tail_pct, "samples": len(per_instance_ms)},
        "classified": tally.classified, "errors": tally.errors,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    emit(report, tally.failed == 0, tally.attempted, tally.failed, metrics)
    return 0


def run_traced(args, W, mods, host) -> int:
    tracer = T.Tracer()
    patches = T.Patches(tracer, mods)
    with workdir(args.workload) as wd:
        patches.install()
        try:
            built = W.build(args.workload, args.seed, wd)
        finally:
            patches.remove()
        setup = tracer.snapshot()
        tracer.reset()
        t_base = time.perf_counter()
        base = measure(built.instances, args.seconds / 3)
        t_traced = time.perf_counter()
        patches.install()
        try:
            traced = measure(built.instances, args.seconds * 2 / 3, tracer=tracer,
                             whole_passes=True)
        finally:
            patches.remove()
    run = tracer.snapshot()
    values = T.layer_metrics(setup, run, traced.passes)
    values.update(T.layer_shares(run))
    values[T.OVERHEAD] = traced.pass_wall() - base.pass_wall()
    os.makedirs(OUT_ROOT, exist_ok=True)
    trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "host": host,
                   "untraced_phase_start": t_base, "traced_phase_start": t_traced,
                   "setup": setup, "run": run, "passes": traced.passes,
                   "dropped_spans": tracer.dropped,
                   "spans": [list(s) for s in tracer.spans]}, fh)
    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "host": host, "digests": built.digests,
        "untraced_wall_s": base.pass_wall(), "traced_wall_s": traced.pass_wall(),
        "traced_passes": traced.passes, "trace_file": os.path.relpath(trace_path, ROOT),
        "errors": base.errors + traced.errors,
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in T.per_layer_units().items()}
    emit(report, failed == 0, attempted, failed, metrics)
    return 0


# ----------------------------------------------------------------------
# --all and --selfcheck
# ----------------------------------------------------------------------

def _child(args, workload: str, trace: int) -> tuple:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} (trace {trace}) failed: {proc.stderr.strip()}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _table(title: str, rows: Dict[str, Dict[str, object]], units: Dict[str, str]) -> None:
    names = list(rows)
    print(f"\n{title}")
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{n:>17s}" for n in names))
    for metric, unit in units.items():
        cells = []
        for n in names:
            v = rows[n].get(metric)
            cells.append(f"{'-' if v is None else f'{v:.6g}':>17s}")
        print(f"{metric:36s} {unit:6s}" + "".join(cells))


def run_all(args, W) -> int:
    summary: Dict[str, dict] = {}
    e2e_rows, layer_rows, ok = {}, {}, True
    host = None
    for w in W.WORKLOADS:
        report, result = _child(args, w, 0)
        host = report["host"]
        ok = ok and result["correct"]
        e2e_rows[w] = {k: m["value"] for k, m in report["metrics"].items()}
        e2e_rows[w]["tail_percentile"] = report["tail"]["percentile"]
        e2e_rows[w]["tail_samples"] = report["tail"]["samples"]
        summary[w] = {"end_to_end": report["metrics"], "tail": report["tail"]}
        if args.trace:
            t_report, t_result = _child(args, w, 1)
            ok = ok and t_result["correct"]
            layer_rows[w] = {k: m["value"] for k, m in t_result["metrics"].items()}
            layer_rows[w]["trace.untraced_wall_s"] = t_report["untraced_wall_s"]
            layer_rows[w]["trace.traced_wall_s"] = t_report["traced_wall_s"]
            summary[w]["per_layer"] = t_result["metrics"]
    print(f"host: {json.dumps(host, sort_keys=True)}  seed {args.seed}, "
          f"{args.seconds} s per run")
    _table("end-to-end (tracing off)", e2e_rows,
           {**END_TO_END, **REPORT_ONLY, "tail_percentile": "%", "tail_samples": "count"})
    if args.trace:
        _table("per layer (traced run)", layer_rows,
               {**T.per_layer_units(), "trace.untraced_wall_s": "s",
                "trace.traced_wall_s": "s"})
    print(json.dumps({"correct": ok, "host": host, "workloads": summary}))
    return 0 if ok else 1


def selfcheck(args, W, mods) -> int:
    results = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {detail}" if detail else ""))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record("BENCHMARK.json workloads match",
           [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS))
    record("BENCHMARK.json end_to_end metrics match",
           {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END)
    record("BENCHMARK.json per_layer metrics match",
           {m["name"]: m["unit"] for m in spec["per_layer"]} == T.per_layer_units())

    def digests(seed: int) -> dict:
        with workdir("selfcheck") as wd:
            writer = W.SpecWriter(wd)
            W.corpus_files(seed, writer)
            return writer.digests()

    a, b, c = digests(args.seed), digests(args.seed), digests(args.seed + 1)
    record("same seed, same classify-corpus spec files", a == b, a["random"][:16])
    record("another seed keeps the fixed slice", a["fixed"] == c["fixed"])
    record("another seed changes the random slice", a["random"] != c["random"])

    ref = W.load_reference()
    for label, builder, params, q in W.SERIES_GF2K:
        twin = W.twin_label(label)
        L = W.build_family(builder, params, 2)
        dims = mods["envelope"].Envelope(L).lie_derived_series().dims
        record(f"GF(2) twin of {label}", dims == ref["series"].get(twin) == ref["series"][label],
               f"{dims}")
    return 0 if all(results) else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--selfcheck", action="store_true",
                      help="check determinism, references and BENCHMARK.json")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.all or args.selfcheck) and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    mods = load_library()
    import workloads as W

    if args.workload is not None and not (args.all or args.selfcheck) \
            and args.workload not in W.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {W.WORKLOADS}")
    if args.all:
        return run_all(args, W)
    if args.selfcheck:
        return selfcheck(args, W, mods)
    host = host_info()
    if args.trace:
        return run_traced(args, W, mods, host)
    return run_untraced(args, W, host)


if __name__ == "__main__":
    sys.exit(main())
