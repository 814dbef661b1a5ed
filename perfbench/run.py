"""gapsym benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for how each builds its inputs):
  analyze  one-object CLI requests: analyze as JSON and as SVG, fundamental,
           classes, semimodule
  infer    `reconstruct --infer` on symmetric-set values, some ambiguous
           (exit 4) and some matching no pair (exit 3)
  survey   repeated `survey --max-beta B --checks all`
  oracle   the closed-form semimodule invariants against the brute oracles,
           one lean set per op

The benchmark imports the unmodified `gapsym` package from `src/` in this
process; one client runs ops in a closed loop (each op starts when the last
returns), with no extra threads.  Every op's output is checked outside the
timed region by code that shares nothing with gapsym.

With `--trace 0` it runs the op list (one round) over and over until
`--seconds` of op time have passed.  Times are in seconds at a reference
speed: a fixed calibration kernel, timed between stretches of ops, scales
them (see `Calibration`), so that the machine's slow spells cancel out.
Each op's time is the median of its repetitions, and every end-to-end timing
is taken over these per-op medians; the run record also gives the kernel's
raw times.  With
`--trace 1` it runs a fixed prefix of the op list, each op untraced, with
spans and with leaf counters (see tracing.py), prints the per-layer metrics,
and writes the spans under `.perfbench-out/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the machine,
the run and a digest of the op list.  The exit code is 0 when a result was
printed, even with failed ops, and 2 when no gapsym sources are found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
# Set-up takes tens of milliseconds and the machine's speed drifts over
# seconds, so set-up is timed again between ops, about once a second.
SETUP_EVERY_S = 1.0
MIN_SETUP_REPS = 5
# op time between two calibration samples; the machine's speed switches
# every few hundred milliseconds
CAL_EVERY_S = 0.03
# the calibration kernel's time on an unloaded core of a 2-vCPU x86-64 VM
# with CPython 3.11.7, where it reads 0.55-0.60 ms (1.0 ms when slowed)
CAL_REFERENCE_S = 0.6e-3


class Setup:
    """Imports gapsym from scratch and warms the workload, timing each rep.

    A rep drops gapsym, and whatever its import loaded, from sys.modules and
    imports it again.  The first import, untimed, writes the bytecode caches.
    Reps after the first (`time_again`) put the serving modules back, so the
    ops keep running on the same objects.
    """

    def __init__(self, workload):
        self.workload = workload
        self.baseline = set(sys.modules)
        importlib.import_module("gapsym.cli")
        self.gapsym, self.state = self._fresh()

    def _fresh(self):
        for name in set(sys.modules) - self.baseline:
            del sys.modules[name]
        t0 = time.perf_counter()
        gapsym = importlib.import_module("gapsym")
        importlib.import_module("gapsym.cli")
        state = self.workload.warm(gapsym)
        self.seconds = time.perf_counter() - t0
        return gapsym, state

    def time_again(self) -> float:
        """Seconds one more set-up rep took."""
        serving = {name: sys.modules[name] for name in set(sys.modules) - self.baseline}
        self._fresh()
        for name in set(sys.modules) - self.baseline:
            del sys.modules[name]
        sys.modules.update(serving)
        gc.collect()  # the dropped modules are cyclic garbage; keep it out of the peak RSS
        return self.seconds


def run_one(workload, gapsym, state, op):
    """(op seconds, output or None if the op raised) of one op."""
    t0 = time.perf_counter()
    try:
        output = workload.execute(gapsym, state, op)
    except Exception:
        output = None
        traceback.print_exc(limit=3, file=sys.stderr)
    return time.perf_counter() - t0, output


def fingerprint(output) -> bytes:
    return hashlib.sha256(repr(output).encode()).digest()


def calibration_kernel():
    """Fixed pure-Python work shaped like gapsym's: integer arithmetic and set
    and dict updates.  It never calls gapsym."""
    seen, counts = set(), {}
    for i in range(3000):
        x = i * 7919 % 1013
        seen.add(x)
        counts[x] = counts.get(x, 0) + i
    return len(seen) + len(counts)


class Calibration:
    """Converts measured seconds into seconds at the reference speed.

    A shared machine's cores run this interpreter at two speeds that differ
    by about 1.6x, switching every few hundred milliseconds and sometimes
    staying slow for a minute, so raw times of the same op differ more
    between runs than a regression should.  The calibration kernel is timed
    between stretches of ops; a stretch's times are scaled by
    CAL_REFERENCE_S over the mean of the kernel's times just before and just
    after it.  A change to gapsym moves its ops' times and not the kernel's,
    so it moves the scaled times by the same share.
    """

    def __init__(self):
        self.last = self.sample()
        self.samples = [self.last]

    @staticmethod
    def sample() -> float:
        """The kernel's time: the faster of two back-to-back runs, so that an
        interrupt in one does not count."""
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            calibration_kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self) -> float:
        """Factor for the seconds measured since the previous call."""
        now = self.sample()
        self.samples.append(now)
        factor = 2 * CAL_REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def run_timed(workload, setup, ops, seconds):
    """Closed loop over the op list, round after round, until `seconds` of
    op time have passed and every op has run.  The first output of each op
    is checked against the reference; a repeat passes when its output is the
    same, byte for byte.  Returns (scaled times of each op, scaled set-up
    times, calibration samples, ops run, failed ops)."""
    times = [array("d") for _ in ops]  # compact, so that they barely move the peak RSS
    expected = [None] * len(ops)
    setup_times = []
    attempted = failed = 0
    total = stretch = 0.0
    pending = []  # (op index, seconds) since the last calibration
    cal = Calibration()
    last_setup = time.perf_counter()

    def flush():
        factor = cal.scale()
        for i, dt in pending:
            times[i].append(dt * factor)
        pending.clear()

    while total < seconds or attempted < len(ops):
        i = attempted % len(ops)
        dt, output = run_one(workload, setup.gapsym, setup.state, ops[i])
        attempted += 1
        total += dt
        pending.append((i, dt))
        stretch += dt
        if output is None:
            ok = False
        elif attempted <= len(ops):
            ok = safe_check(workload, ops[i], output)
            if ok:
                expected[i] = fingerprint(output)
        else:
            ok = expected[i] is not None and fingerprint(output) == expected[i]
        failed += not ok
        if stretch >= CAL_EVERY_S:
            flush()
            stretch = 0.0
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            flush()
            setup_times.append(setup.time_again() * cal.scale())
            last_setup = time.perf_counter()
    flush()
    while len(setup_times) < MIN_SETUP_REPS:
        setup_times.append(setup.time_again() * cal.scale())
    return times, setup_times, cal.samples, attempted, failed


def safe_check(workload, op, output) -> bool:
    try:
        return bool(workload.check(op, output))
    except Exception:  # malformed output fails its op
        return False


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(times, setup_times):
    """Each op's time is the median of its scaled repetitions; the timings
    are taken over those medians.  Set-up time is the median of its scaled
    reps."""
    per_op = [statistics.median(t) for t in times]
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_ms_p50": (percentile(per_op, 0.5) * 1e3, "ms"),
        "op_ms_p90": (percentile(per_op, 0.9) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def traced(workload, gapsym, state, ops, spans_path=None):
    """Per-layer metrics over ops.  Each op runs once untraced and once with
    spans, alternating which goes first, so that the tracing overhead compares
    the same ops in the same state; a third, untimed run counts the hot
    leaves.  Returns (metrics, attempted, failed) over all three runs."""
    tracer = Tracer(gapsym.__name__)
    seconds = {"plain": 0.0, "spans": 0.0}
    failed = out_bytes = 0
    for i, op in enumerate(ops):
        tracer.current_op = i
        order = ("plain", "spans") if i % 2 == 0 else ("spans", "plain")
        for mode in order + ("counters",):
            if mode == "spans":
                tracer.install_spans()
            elif mode == "counters":
                tracer.install_counters()
            try:
                dt, output = run_one(workload, gapsym, state, op)
            finally:
                tracer.uninstall()
            ok = output is not None and safe_check(workload, op, output)
            failed += not ok
            if mode in seconds:
                seconds[mode] += dt
            if mode == "spans" and ok:
                out_bytes += workload.output_bytes(output)
    metrics = tracer.metrics()
    metrics["cli.bytes_out"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (seconds["spans"] / seconds["plain"], "ratio")
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return metrics, 3 * len(ops), failed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gapsym" / "__init__.py").is_file():
        print(f"error: no gapsym package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.generate(args.seed)
    digest = hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(ops, workdir)
        setup = Setup(workload)
        if Path(setup.gapsym.__file__).resolve().parent != src / "gapsym":
            print(f"error: imported gapsym from {setup.gapsym.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
            prefix = ops[: workload.trace_ops]
            metrics, attempted, failed = traced(workload, setup.gapsym, setup.state, prefix, spans)
        else:
            times, setup_times, calibration, attempted, failed = run_timed(
                workload, setup, ops, args.seconds)
            metrics = end_to_end(times, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_listed": len(ops), "ops_run": attempted,
        "inputs_sha256": digest,
        "calibration_ms": None if args.trace else {
            "reference": CAL_REFERENCE_S * 1e3, "samples": len(calibration),
            "min": min(calibration) * 1e3, "median": statistics.median(calibration) * 1e3},
        "failed_ratio": {"value": failed / attempted, "unit": "fraction"},
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
