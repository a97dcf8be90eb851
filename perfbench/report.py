"""Summarize the run records in perfbench/out/.

    python3 perfbench/report.py

For each workload: every end-to-end metric's median, quartiles and
spread (quartile distance over median) across the untraced runs; the
scaled op time at the highest percentile that still has at least ten
pooled samples beyond it, with the sample count; and, when traced runs
exist, the tracing overhead (traced minus untraced median scaled op
time) and the per-layer medians.
"""

from __future__ import annotations

import glob
import json
import math
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest whole percentile with >= 10 samples above it."""
    n = len(latencies)
    if n < 40:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    ranked = sorted(latencies)
    return p, ranked[math.ceil(p / 100.0 * n) - 1]


def main():
    records: dict[str, dict[int, list[dict]]] = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", "*-trace[01].json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        records.setdefault(rec["workload"], {}).setdefault(rec["trace"], []).append(rec)
    for workload, by_trace in records.items():
        plain, traced = by_trace.get(0, []), by_trace.get(1, [])
        print(f"== {workload}: {len(plain)} untraced runs, {len(traced)} traced runs")
        if plain:
            attempted = sum(r["attempted"] for r in plain)
            failed = sum(r["failed"] for r in plain)
            print(f"   ops attempted {attempted}, failed {failed}, all correct: {all(r['correct'] for r in plain)}")
            for name in plain[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in plain]
                q1, med, q3 = _quartiles(values)
                unit = plain[0]["metrics"][name]["unit"]
                print(f"   {name:20s} median {med:12.6g} {unit:6s} quartiles {q1:.6g} .. {q3:.6g}  spread {(q3 - q1) / med:.4f}")
            pooled = [x for r in plain for x in r["scaled_s"]]
            t = tail(pooled)
            if t is None:
                print(f"   scaled op time: median {1e3 * statistics.median(pooled):.6g} ms over {len(pooled)} ops (too few for a tail)")
            else:
                print(f"   scaled op time: median {1e3 * statistics.median(pooled):.6g} ms, p{t[0]} {1e3 * t[1]:.6g} ms over {len(pooled)} ops")
        if traced:
            layers = traced[0]["metrics"]
            if plain:
                op_traced = statistics.median(1e3 * statistics.median(r["scaled_s"]) for r in traced)
                op_plain = statistics.median(1e3 * statistics.median(r["scaled_s"]) for r in plain)
                print(f"   tracing overhead: {op_traced - op_plain:+.4g} ms per op ({(op_traced - op_plain) / op_plain:+.2%})")
            for name in layers:
                values = [r["metrics"][name]["value"] for r in traced]
                if any(values):
                    print(f"   {name:48s} {statistics.median(values):12.6g} {layers[name]['unit']}")


if __name__ == "__main__":
    main()
