#!/usr/bin/env python3
"""archspace benchmark: end-to-end timings, or per-layer timings with --trace 1.

Run from the root of a checkout:

    python3 bench/run.py --workload walk_checked --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload walk_checked --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0 --out BENCH.json

One workload runs per process, single-threaded, as a closed loop: the next
sample starts when the previous one ends.  ``--trace 0`` times the loop for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs the
workload's fixed trace sample count on two instances with the same inputs in
lockstep, one plain and one with span wrappers on archspace's layer
boundaries, checks that both produce the same output hash, and reports the
per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BLAS_THREADS = "1"
# Before numpy loads: OpenBLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
CAL_EVERY_S = 1.0     # run the calibration kernel between samples once per this many seconds
CAL_BURST = 5         # ... but at most this many times in a row (after long samples)
CAL_REF_S = 0.020     # kernel time that defines the reference machine speed


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def import_archspace() -> float:
    """Import the package from the checkout's src/; returns the seconds it took."""
    sys.path.insert(0, SRC)
    start = perf_counter()
    import archspace

    elapsed = perf_counter() - start
    # An installed copy elsewhere must not stand in for the checkout's sources.
    if not os.path.abspath(archspace.__file__).startswith(SRC + os.sep):
        raise ImportError(f"archspace was imported from {archspace.__file__}, not from {SRC}")
    return elapsed


# -- set-up time -------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> int:
    """Child process body (archspace is already imported): build the inputs and
    print the moment they are ready.  perf_counter reads a system-wide monotonic
    clock, so the parent can subtract its own reading from it."""
    import workloads

    workloads.WORKLOADS[workload](seed)
    print(repr(perf_counter()))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting each of SETUP_REPEATS fresh processes to its inputs being built.

    The end is the moment the child reports, not its exit: waiting with a
    timeout polls every 50 ms, and interpreter teardown is not set-up.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                             timeout=PROBE_TIMEOUT_S).stdout
        times.append(float(out.split()[-1]) - start)
    return times


# -- machine facts -----------------------------------------------------------


def blas_thread_count():
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_sha():
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_thread_count(),
        "git_sha": git_sha(),
    }


# -- machine-speed calibration ----------------------------------------------


def calibration_kernel() -> float:
    """Seconds for a fixed piece of work that does not touch archspace.

    This VM's speed drifts by tens of percent over minutes, and every
    workload drifts with it.  The kernel mixes the two kinds of work the
    workloads do: tuples, dicts, sorting and hashing like the graph code,
    and small-array numpy calls like the interpreter (on fixed inputs, so no
    denormals creep in).  The collector is off while it runs, so the
    kernel's time does not depend on how large the workload's heap is.
    """
    import hashlib

    import numpy as np

    x = np.linspace(-1.0, 1.0, 64 * 8 * 4 * 4).reshape(64, 8, 4, 4)
    w = np.linspace(-0.5, 0.5, 64).reshape(8, 8)
    gc.disable()
    try:
        start = perf_counter()
        edges = [(i % 97, i % 7, (i * 31) % 101, i % 5) for i in range(8000)]
        adj: dict[int, list] = {}
        for e in edges:
            adj.setdefault(e[2], []).append(e)
        hashlib.sha256(repr(sorted(edges)).encode()).hexdigest()
        for _ in range(60):
            np.tanh(np.einsum("oc,nchw->nohw", w, x))
        return perf_counter() - start
    finally:
        gc.enable()


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Runs samples of one workload, timing each and collecting failures."""

    def __init__(self, w):
        self.w = w
        self.per_unit_ms: list[float] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cal_s: list[float] = []
        self._last_cal = None
        self.paused_s = 0.0
        w.pause = self.pause

    def one(self, tracer=None) -> None:
        w = self.w
        ok = True
        if tracer is not None:
            tracer.install()
        unit_problems = []
        paused = self.paused_s
        start = perf_counter()
        try:
            unit_problems = w.sample() or []
        except Exception as exc:  # the sample's units count as failed, and the loop goes on
            ok = False
            self.problems.append(f"{type(exc).__name__}: {exc}")
        dt = perf_counter() - start - (self.paused_s - paused)
        if tracer is not None:
            tracer.uninstall()
        self.timed_s += dt
        self.attempted += w.UNITS
        self.per_unit_ms.append(dt * 1000.0 / w.UNITS)
        if ok:
            try:
                bad = w.check_sample()
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
            if bad:
                ok = False
                self.problems.extend(bad)
        self.problems.extend(unit_problems)
        self.failed += w.UNITS if not ok else len(unit_problems)

    def calibrate(self) -> None:
        """Between samples: sample the machine's speed once per CAL_EVERY_S gone by."""
        if self._last_cal is None:
            due = CAL_BURST
        else:
            due = int(min(CAL_BURST, (perf_counter() - self._last_cal) // CAL_EVERY_S))
        if due:
            self.cal_s += [calibration_kernel() for _ in range(due)]
            self._last_cal = perf_counter()

    def pause(self) -> None:
        """Called by a workload between the units of a long sample, so the
        machine's speed is sampled there too; the time is not the sample's."""
        start = perf_counter()
        self.calibrate()
        self.paused_s += perf_counter() - start

    def for_seconds(self, seconds: float) -> None:
        start = perf_counter()
        while True:
            self.calibrate()
            self.one()
            if perf_counter() - start >= seconds and self.w.may_stop():
                break
        self._last_cal = None
        self.calibrate()

    def for_samples(self, n: int) -> None:
        for _ in range(n):
            self.calibrate()
            self.one()


def pinned_problems(workloads, name: str) -> list[str]:
    """Re-run the default seed's first units and compare with the pinned hashes."""
    pins = workloads.PINS.get(name)
    if not pins:
        return []
    try:
        ref = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        for _ in range(-(-ref.PIN_UNITS // ref.UNITS)):
            ref.sample()
        got = ref.pin_digests()
    except Exception as exc:
        return [f"pinned run raised {type(exc).__name__}: {exc}"]
    return [f"pinned {key}: sha256 {got[key]} != {want}" for key, want in pins.items()
            if got[key] != want]


def probe_known_defect(w, loop):
    """Run the workload's known-defect probe after the loop.  The defect itself
    is not a failed unit; a wrong score, once it scores, is."""
    defect = w.known_defect()
    if defect:
        loop.problems += defect["problems"]
        loop.failed += len(defect["problems"])
    return defect


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_timed(name: str, seed: int, seconds: float, samples) -> tuple[dict, dict]:
    import workloads

    setup = measure_setup(name, seed)
    w = workloads.WORKLOADS[name](seed)
    loop = Loop(w)
    if samples is None:
        loop.for_seconds(seconds)
    else:
        loop.for_samples(samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_problems = w.check_end() + pinned_problems(workloads, name)
    loop.problems += end_problems
    loop.failed += len(end_problems)
    defect = probe_known_defect(w, loop)

    n = len(loop.per_unit_ms)
    rate = loop.attempted / loop.timed_s
    p50 = statistics.median(loop.per_unit_ms)
    setup_s = statistics.median(setup)
    # The machine switches between a fast and a slow state for seconds at a
    # time; the mean of kernel runs spread over the run weighs them as the
    # workload met them, where a median jumps to whichever state holds most.
    cal = statistics.mean(loop.cal_s)
    speed = f"at the reference speed: scaled by calibration {cal * 1000:.2f} ms / {CAL_REF_S * 1000:g} ms"
    metrics = {
        "setup_s": (setup_s * CAL_REF_S / cal, "s", f"median of {len(setup)} fresh processes, {speed}"),
        "units_per_s_norm": (rate * cal / CAL_REF_S, "1/s", speed),
        "unit_p50_ms_norm": (p50 * CAL_REF_S / cal, "ms", speed),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss after the loop"),
    }
    extra = {
        "setup_s_raw": (setup_s, "s", f"as measured: median of {len(setup)} fresh processes"),
        "units_per_s": (rate, "1/s", f"as measured: {loop.attempted} units in {loop.timed_s:.3f} s"),
        "unit_p50_ms": (p50, "ms", f"as measured: n={n} samples of {w.UNITS} unit(s)"),
        "calibration_ms": (cal * 1000, "ms", f"mean of {len(loop.cal_s)} kernel runs between samples"),
        "failed_share": (loop.failed / loop.attempted, "share", f"{loop.failed}/{loop.attempted}"),
    }
    if w.UNITS == 1 and n >= 1000:
        extra["unit_p99_ms"] = (percentile(loop.per_unit_ms, 99), "ms", f"as measured: n={n} samples")
    report = {"loop": loop, "extra": extra, "setup_samples_s": setup, "calibration_s": loop.cal_s,
              "facts": w.facts(), "known_defect": defect}
    return metrics, report


def run_traced(name: str, seed: int, samples, import_s: float) -> tuple[dict, dict]:
    import spans
    import workloads

    cls = workloads.WORKLOADS[name]
    n = cls.TRACE_SAMPLES if samples is None else samples
    # Two instances on the same inputs advance in lockstep, one sample each in
    # alternating order, so drift in machine speed hits both passes alike.
    plain = Loop(cls(seed))
    traced = Loop(cls(seed))
    tracer = spans.Tracer()
    for i in range(n):
        if i % 2:
            traced.one(tracer)
            plain.one()
        else:
            plain.one()
            traced.one(tracer)
    if traced.w.output_digest() != plain.w.output_digest():
        traced.problems.append("outputs hash differently with the span wrappers on and off")
        traced.failed += 1
    end_problems = traced.w.check_end() + plain.w.check_end() + pinned_problems(workloads, name)
    traced.problems += end_problems
    traced.failed += len(end_problems)
    defect = probe_known_defect(traced.w, traced)

    loop_s = traced.timed_s
    funcs = tracer.by_function()
    metrics = {}
    for fname, (calls, self_s) in funcs.items():
        metrics[f"{fname}.calls"] = (calls, "count", "")
        metrics[f"{fname}.self_share"] = (self_s / loop_s, "share", f"self {self_s:.4f} s")
    for layer in spans.LAYERS:
        self_s = sum(s for f, (_, s) in funcs.items() if f.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = (self_s / loop_s, "share", f"self {self_s:.4f} s")
    proposals = funcs["mutation.propose_step"][0]
    metrics.update({
        "mutation.propose_step.accept_share": (
            tracer.accepted / proposals if proposals else 0.0, "share",
            f"{tracer.accepted}/{proposals}"),
        "mutation.network_delta.calls_per_step": (
            funcs["mutation.network_delta"][0] / proposals if proposals else 0.0, "1/step",
            f"{funcs['mutation.network_delta'][0]} costed tries over {proposals} steps"),
        "proxy.fd_gradients.columns": (tracer.fd_columns, "count", ""),
        "proxy.spectrum_of.dim": (tracer.spectrum_dim, "count", "summed matrix order"),
        "search.log.bytes": (tracer.log_bytes, "B", "bytes written by SearchLog.to_jsonl"),
        "proxy.known_defect_raises": (defect["raises"] if defect else 0, "count",
                                      "scoring the known-defect network raised, outside the loop"),
        "setup.import_s": (import_s, "s", "import archspace in this process"),
        "trace.units": (traced.attempted, "count", f"{n} samples"),
        "trace.loop_s": (loop_s, "s", "traced pass"),
        "trace.coverage_share": (tracer.root_s / loop_s, "share",
                                 "wrapped top-level spans over the traced loop"),
        "trace_overhead_share": ((loop_s - plain.timed_s) / plain.timed_s, "share",
                                 f"traced {loop_s:.3f} s vs plain {plain.timed_s:.3f} s"),
    })
    traced.problems += plain.problems
    traced.failed += plain.failed
    traced.attempted += plain.attempted
    report = {"loop": traced, "extra": {}, "tracer": tracer, "facts": traced.w.facts(),
              "known_defect": defect}
    return metrics, report


# -- output ------------------------------------------------------------------


def emit(name: str, args, metrics: dict, report: dict, import_s: float, config: dict) -> dict:
    loop = report["loop"]
    print(f"# {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, (value, unit, note) in {**metrics, **report["extra"]}.items():
        print(f"{name} {key} {value:.6g} {unit}  ({note})" if note else f"{name} {key} {value:.6g} {unit}")
    if "tracer" in report:
        tracer = report["tracer"]
        loop_s = metrics["trace.loop_s"][0]
        print(f"{name} traced pass, per function: self s, inclusive s, inclusive share, calls")
        for (fname, (calls, self_s)), incl in zip(tracer.by_function().items(), tracer.incl_s):
            if calls:
                print(f"  {fname:36s} {self_s:9.4f} {incl:9.4f} {incl / loop_s:7.3f} {calls:9d}")
    defect = report["known_defect"]
    if defect:
        state = "reproduces" if defect["raises"] else "no longer reproduces"
        print(f"{name} KNOWN DEFECT {state} on the {defect['network']} network: {defect['outcome']}")
    for p in loop.problems[:20]:
        print(f"{name} PROBLEM {p}")
    facts = {"workload": name, "seed": args.seed, "trace": args.trace, "units": loop.attempted,
             "import_s": import_s, **report["facts"], "machine": machine_facts()}
    if defect:
        facts["known_defect"] = {k: defect[k] for k in ("network", "raises", "outcome")}
    if "setup_samples_s" in report:
        facts["setup_samples_s"] = report["setup_samples_s"]
        facts["calibration_s"] = report["calibration_s"]
        facts["as_measured"] = {k: report["extra"][k][0] for k in ("setup_s_raw", "units_per_s", "unit_p50_ms")}
    print("facts " + json.dumps(facts, sort_keys=True))

    wanted = [m["name"] for m in config["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not loop.problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(result))
    return {"result": result, "facts": facts}


def run_all(args, config: dict) -> int:
    """Every workload in a fresh process; prints their lines and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    record = {"workloads": {}}
    for w in config["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.samples is not None:
            cmd += ["--samples", str(args.samples)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        facts = next(json.loads(x[6:]) for x in lines if x.startswith("facts "))
        record["workloads"][w["name"]] = {"result": result, "facts": facts}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{key}"] = m
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="a workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="run exactly this many samples instead (smoke tests)")
    p.add_argument("--out", help="also write the result and the facts here as JSON")
    p.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_archspace()
    except ImportError as exc:
        print(f"bench: cannot import archspace from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.probe_setup, args.seed)
    config = load_config()
    if args.seconds is None:
        args.seconds = config["run_seconds"]
    if args.workload == "all":
        return run_all(args, config)
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2
    if args.trace:
        metrics, report = run_traced(args.workload, args.seed, args.samples, import_s)
    else:
        metrics, report = run_timed(args.workload, args.seed, args.seconds, args.samples)
    record = emit(args.workload, args, metrics, report, import_s, config)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
