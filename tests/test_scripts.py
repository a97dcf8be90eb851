"""The dataset export scripts, run in-process at small sizes."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, args: list[str], out: pathlib.Path, monkeypatch) -> dict[str, list[str]]:
    """Run scripts/<name>.py with ``args`` into ``out``; return each written file's lines."""
    monkeypatch.setattr(sys, "argv", [name, *args, "--out", str(out)])
    runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")
    return {p.name: p.read_text().splitlines() for p in sorted(out.iterdir())}


def test_dicke_sweep(tmp_path, monkeypatch):
    files = run_script("dicke_sweep", ["--n", "3"], tmp_path, monkeypatch)
    assert list(files) == ["dicke_measures_n3.csv"]
    lines = files["dicke_measures_n3.csv"]
    assert lines[0] == "n,k,E_B,E_G,E_G_closed_form"
    assert len(lines) == 1 + 4
    for k, line in enumerate(lines[1:]):
        n, kk, _, eg, closed = line.split(",")
        assert (n, kk) == ("3", str(k))
        assert float(eg) == pytest.approx(float(closed), abs=1e-9)


def test_rec4_surface(tmp_path, monkeypatch):
    files = run_script("rec4_surface", ["--grid", "3"], tmp_path, monkeypatch)
    assert list(files) == ["rec4_surface_3x3.csv"]
    lines = files["rec4_surface_3x3.csv"]
    assert lines[0] == "theta,phi,E_B,E_G"
    assert len(lines) == 1 + 9
    for line in lines[1:]:
        assert float(line.split(",")[2]) == pytest.approx(1.0, abs=1e-12)


def test_pair_dynamics(tmp_path, monkeypatch):
    files = run_script("pair_dynamics", ["--points", "41"], tmp_path, monkeypatch)
    assert list(files) == [
        f"{flow}_{part}.csv" for flow in ("pair", "xyhalf") for part in ("eb", "trajectory", "velocity")
    ]
    for flow in ("pair", "xyhalf"):
        eb = files[f"{flow}_eb.csv"]
        trajectory = files[f"{flow}_trajectory.csv"]
        velocity = files[f"{flow}_velocity.csv"]
        assert eb[0] == "beta,e_b"
        assert trajectory[0] == "beta,star_index,theta,phi,x,y,z,e_b"
        assert velocity[0] == "beta,star_index,dtheta_dbeta,flag"
        frames = len(eb) - 1
        assert frames >= 41
        assert len(trajectory) == len(velocity) == 1 + 2 * frames


def test_ghz3_interpolation(tmp_path, monkeypatch):
    files = run_script("ghz3_interpolation", ["--points", "7"], tmp_path, monkeypatch)
    assert list(files) == ["ghz3_interpolation.csv"]
    lines = files["ghz3_interpolation.csv"]
    assert lines[0] == "beta,star_index,theta,phi,e_b"
    assert len(lines) == 1 + 7 * 3
    assert [line.split(",")[1] for line in lines[1:4]] == ["0", "1", "2"]
