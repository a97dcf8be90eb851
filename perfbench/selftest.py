"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the package's own test collection: the
one-op runs start many processes and take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def _rotate(v: np.ndarray, angle: float) -> np.ndarray:
    """v turned by ``angle`` rad about an axis perpendicular to it."""
    axis = np.cross(v, [0.3, 0.5, 0.8])
    axis /= np.linalg.norm(axis)
    return math.cos(angle) * v + math.sin(angle) * np.cross(axis, v)


def _op(wl, seed=3):
    cases = wl.cases(seed)
    return cases, wl.op(cases, Tracer(False))


class SmallDynamics(workloads.Dynamics):
    NS = (4,)


def test_reference_star_error_sees_a_small_move():
    v = ref.bloch([0.3, 1.2, 2.5], [0.1, 4.0, 2.0])
    moved = v.copy()
    moved[1] = _rotate(v[1], 1e-3)
    assert ref.max_star_error(moved, v) == pytest.approx(1e-3, rel=1e-9)


def test_ensemble_checker_rejects_a_moved_star_and_a_wrong_eb():
    wl = workloads.Ensemble()
    cases, out = _op(wl)
    assert wl.check(cases, out, first=True) == []
    i = next(i for i, c in enumerate(cases) if c.kind == "uniform")
    d, stars, eb, back = out[i]
    stars = stars.copy()
    stars[0] = _rotate(stars[0], 1e-3)
    assert any("star error" in e for e in wl.check(cases, out[:i] + [(d, stars, eb, back)] + out[i + 1 :], False))
    wrong = out[:i] + [(d, out[i][1], eb + 1e-6, back)] + out[i + 1 :]
    assert any("E_B" in e for e in wl.check(cases, wrong, False))


def test_geometric_checker_rejects_a_wrong_eg():
    wl = workloads.Geometric()
    cases, out = _op(wl)
    assert wl.check(cases, out, first=True) == []
    for i, case in enumerate(cases):
        row = list(out[i])
        row[3] += 1e-6  # E_G value
        errors = wl.check(cases, out[:i] + [tuple(row)] + out[i + 1 :], False)
        assert errors, f"an E_G off by 1e-6 passed on {case.kind} n={case.n}"


def test_dynamics_checker_rejects_a_moved_star_and_a_wrong_state():
    wl = SmallDynamics()
    cases, out = _op(wl)
    assert wl.check(cases, out, first=True) == []
    h, traj, prof = out[-1]
    stars = traj.stars.copy()
    stars[10, 0] = _rotate(stars[10, 0], 1e-3)
    bad = dataclasses.replace(traj, stars=stars)
    assert wl.check(cases, out[:-1] + [(h, bad, prof)], False)
    states = list(traj.states)
    states[5] = states[6]
    bad = dataclasses.replace(traj, states=tuple(states))
    assert any("Dicke block" in e for e in wl.check(cases, out[:-1] + [(h, bad, prof)], False))


def test_cli_checker_rejects_a_changed_byte_and_a_wrong_value():
    wl = workloads.Cli(ROOT)
    cases, out = _op(wl)
    assert wl.check(cases, out, first=True) == []
    changed = list(out)
    changed[-1] = changed[-1][:-2] + bytes([changed[-1][-2] ^ 1]) + changed[-1][-1:]
    assert wl.check(cases, changed, first=False) == ["cli reduce.n8: stdout differs from the first op"]
    wrong = list(out)
    wrong[0] = out[0].replace(b"E_B = 0.84", b"E_B = 0.85")
    assert wl.check(cases, wrong, first=True) == ["cli measure: E_B = 0.85"]


def _run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_run_prints_the_end_to_end_metrics(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    with open(os.path.join(HERE, "out", f"{workload}-seed5-trace0.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert len(record["scaled_s"]) == len(record["latencies_s"]) == 1 and record["scaled_s"][0] > 0
    assert len(record["kernel_s"]) >= 2 and len(record["setup_samples"]) == 5


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("geometric", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["measures.e_g.dicke_ms"]["value"] > 0


def test_layer_names_match_the_spec():
    produced = {"trace.op_ms"}
    for wl in (workloads.Ensemble, workloads.Geometric, workloads.Dynamics, workloads.Cli):
        produced.update(wl.layers)
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("ensemble", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
