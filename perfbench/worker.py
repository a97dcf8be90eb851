"""One benchmark process: set up, run timed ops, check them, report.

Usage: python worker.py --root DIR --workload NAME --spawned T [--probe]
                        [--seed N --seconds S --trace 0|1 --trace-file PATH]

Once ``import stellar`` and the workload's warm-up are done it prints
``READY <scaled> <wall> <cpu> <kernel before> <kernel after>``: the
process CPU seconds so far scaled as below, the wall seconds since the
parent's CLOCK_MONOTONIC reading ``--spawned`` taken just before the
spawn, the CPU seconds unscaled, and the two samples of the reference
kernel of ``calib.py`` that bracket the set-up and scale it.  The
first sample is taken once numpy is imported, and its own time is not
counted.  With ``--probe`` it exits there.
Otherwise it draws the inputs, runs whole ops until their summed wall
time reaches about ``--seconds``, checks every op, and prints one JSON line with
the raw results.

An op runs case by case.  After a case, once ``CALIBRATE_EVERY_S`` of
CPU time has passed since the last kernel sample, the kernel is sampled
again (outside any op's time), and the CPU seconds of the cases in
between are scaled by ``calib.REF_S`` over the mean of the two samples
that bracket them.  CPU time is the worker's own, or that of its child
processes for ``cli``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from time import perf_counter, process_time

CALIBRATE_EVERY_S = 0.4


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    # kernel samples before and after the set-up bracket it, as they bracket
    # the cases of an op; the first sample's own time (and that of the
    # kernel's warm-up call) is taken out of it
    import calib

    w0, c0 = time.monotonic(), process_time()
    calib.warm_up()
    k_pre = calib.sample()
    pre_wall, pre_cpu = time.monotonic() - w0, process_time() - c0

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import stellar

    if not os.path.abspath(stellar.__file__).startswith(src + os.sep):
        print(f"stellar imported from {stellar.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, args.root)
    wl.warm_up()
    wall_setup, cpu_setup = time.monotonic() - args.spawned - pre_wall, process_time() - pre_cpu
    k_post = calib.sample()
    scaled_setup = cpu_setup * calib.REF_S / (0.5 * (k_pre + k_post))
    print(f"READY {scaled_setup!r} {wall_setup!r} {cpu_setup!r} {k_pre!r} {k_post!r}", flush=True)
    if args.probe:
        return 0

    cases = wl.cases(args.seed)
    tr = Tracer(bool(args.trace))
    clock = _children_cpu if args.workload == "cli" else process_time
    latencies: list[float] = []  # wall seconds per op
    scaled: list[float] = []  # scaled CPU seconds per op
    kernel: list[float] = [calib.sample()]
    pending: list[tuple[int, float]] = []  # (op, CPU seconds) since the last sample

    def calibrate():
        kernel.append(calib.sample())
        factor = calib.REF_S / (0.5 * (kernel[-2] + kernel[-1]))
        for op, cpu in pending:
            scaled[op] += cpu * factor
        pending.clear()

    errors: list[str] = []
    failed = 0
    timed = 0.0
    # at least one op; no op is started that would likely end more than half
    # an op past --seconds, so that ops up to two thirds of it long still get
    # two per run
    while not latencies or timed + 0.5 * statistics.median(latencies) <= args.seconds:
        tr.op = len(latencies)
        scaled.append(0.0)
        out, wall = [], 0.0
        for case in cases:
            t0, c0 = perf_counter(), clock()
            try:
                out += wl.op([case], tr)
            except Exception:  # an op that raises is counted as failed; the run goes on
                out = None
                print(traceback.format_exc(), file=sys.stderr)
            c1, t1 = clock(), perf_counter()
            tr.span("trace.op", t0, t1)
            wall += t1 - t0
            pending.append((tr.op, c1 - c0))
            if sum(cpu for _, cpu in pending) >= CALIBRATE_EVERY_S:
                calibrate()
            if out is None:
                break
        latencies.append(wall)
        timed += wall
        if out is None:
            failed += 1
            continue
        errors += wl.check(cases, out, first=len(latencies) - failed == 1)
        if args.trace:
            wl.attribute(cases, out, tr)

    calibrate()
    if args.workload == "cli":
        peak_rss_mb = wl.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "latencies_s": latencies,
        "scaled_s": scaled,
        "kernel_s": kernel,
        "timed_s": timed,
        "errors": errors[:50],
        "peak_rss_mb": peak_rss_mb,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "stellar": stellar.__version__,
        },
    }
    if args.trace:
        result["layers"] = tr.per_op_medians(len(latencies))
        if args.trace_file:
            tr.dump(args.trace_file, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
