"""Benchmark entry point; run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload listed in BENCHMARK.json, or ``all`` to run each in
turn.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it reports the per-layer
metrics from a separate, traced run.  The full record of every run
(op wall and scaled times, kernel samples, set-up samples, check errors,
machine and versions) goes to ``perfbench/out/``.  Times in the metrics
are CPU times scaled by the reference kernel of ``calib.py``.

The program is imported from ``src/`` of the checkout; a directory
without it is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5  # fresh workers whose scaled set-up CPU time is sampled; the median is reported
BLAS_THREADS = "1"
RUN_LIMIT_S = 175.0


class RunError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _worker(root: str, workload: str, extra: list[str], deadline: float) -> tuple[list[float], list[str]]:
    """Run worker.py to completion; returns (the READY figures, stdout lines after READY)."""
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, "--workload", workload,
           "--spawned", repr(spawned), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{workload}: worker passed the {RUN_LIMIT_S:.0f} s limit") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RunError(f"{workload}: worker exited {proc.returncode}")
    return [float(x) for x in lines[0].split()[1:]], lines[1:]


def run_workload(root: str, spec: dict, workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    # set-up probes before and after the measured run spread the samples over
    # the run, so one slow stretch of the host does not decide the median
    probes = 0 if trace else SETUP_SAMPLES - 1
    setup = [_worker(root, workload, ["--probe"], deadline)[0] for _ in range(probes // 2)]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    stem = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}")
    extra = ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        extra += ["--trace-file", stem + ".spans.json"]
    ready, lines = _worker(root, workload, extra, deadline)
    setup.append(ready)
    setup += [_worker(root, workload, ["--probe"], deadline)[0] for _ in range(probes - probes // 2)]
    raw = json.loads(lines[-1])

    ok_ops = raw["attempted"] - raw["failed"]
    if trace:
        metrics = {
            m["name"]: {"value": raw["layers"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
        unknown = sorted(set(raw["layers"]) - set(metrics))
        if unknown:
            raise RunError(f"{workload}: per-layer metrics missing from BENCHMARK.json: {unknown}")
    else:
        values = {
            "throughput_ops_s": ok_ops / sum(raw["scaled_s"]),
            "latency_p50_ms": 1e3 * statistics.median(raw["scaled_s"]),
            "setup_s": statistics.median(s[0] for s in setup),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": not raw["errors"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  setup_samples=[dict(zip(("scaled_s", "wall_s", "cpu_s", "kernel_before_s", "kernel_after_s"), x)) for x in setup],
                  **{k: raw[k] for k in ("latencies_s", "scaled_s", "kernel_s", "timed_s", "errors", "machine")})
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = raw["machine"]
    print(f"== {workload}  seed {seed}  trace {trace}: attempted {raw['attempted']}, "
          f"failed {raw['failed']}, correct {str(result['correct']).lower()}")
    for name, v in metrics.items():
        print(f"   {name:48s} {v['value']:14.6g} {v['unit']}")
    print(f"   unscaled: op wall median {1e3 * statistics.median(raw['latencies_s']):.6g} ms, set-up wall median "
          f"{statistics.median(x[1] for x in setup):.6g} s, kernel median {1e3 * statistics.median(raw['kernel_s']):.6g} ms")
    for err in raw["errors"][:10]:
        print(f"   check failed: {err}")
    print(f"   machine: {m['platform']} ({m['machine']}), {m['cpus_usable']}/{m['cpus']} cpus, "
          f"BLAS threads {m['blas_threads']}; Python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, stellar {m['stellar']}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stellar", "__init__.py")):
        print("error: run from the root of a stellar checkout (src/stellar is missing)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.workload != "all":
            result = run_workload(root, spec, args.workload, args.seed, args.seconds, args.trace, deadline)
        else:
            results = {}
            for name in names:
                limit = time.monotonic() + RUN_LIMIT_S
                results[name] = run_workload(root, spec, name, args.seed, args.seconds, args.trace, limit)
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
            }
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
