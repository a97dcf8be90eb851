"""The dataset export scripts, run in-process at small sizes."""

import hashlib
import importlib.util
import pathlib
import runpy
import shlex
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


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_stdout(tmp_path, monkeypatch, capsys):
    from stellar.cli import main

    golden = load_script("golden_stdout")
    argvs = [["stars", "--ghz", "3"], ["measure", "--dicke", "4", "9"]]
    monkeypatch.setattr(golden, "commands", lambda: argvs)
    monkeypatch.setattr(sys, "argv", ["golden_stdout", "--out", str(tmp_path)])
    assert golden.main() == 0
    capsys.readouterr()
    lines = (tmp_path / "golden.txt").read_text().splitlines()
    assert len(lines) == 2
    for i, (line, argv) in enumerate(zip(lines, argvs)):
        code = main(argv)
        stdout = capsys.readouterr().out.encode()
        assert line == f"{hashlib.sha256(stdout).hexdigest()}  {len(stdout)}  {code}  {shlex.join(argv)}"
        assert (tmp_path / f"{i:03d}.out").read_bytes() == stdout
    assert lines[1].split("  ")[1:3] == ["0", "3"]  # the domain error prints nothing and exits 3


def test_golden_stdout_against(tmp_path, monkeypatch, capsys):
    golden = load_script("golden_stdout")
    argvs = [["stars", "--ghz", "3"], ["measure", "--dicke", "4", "9"], ["random", "--n", "3", "--seed", "1"]]
    monkeypatch.setattr(golden, "commands", lambda: argvs)
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setattr(sys, "argv", ["golden_stdout", "--out", str(first)])
    assert golden.main() == 0
    monkeypatch.setattr(sys, "argv", ["golden_stdout", "--out", str(second), "--against", str(first)])
    assert golden.main() == 0
    assert capsys.readouterr().err == ""
    written = (second / "golden.txt").read_text()
    assert written == (first / "golden.txt").read_text()

    # one digest changed, one command only in the earlier run: both are named, the rest not
    lines = (first / "golden.txt").read_text().splitlines(keepends=True)
    lines[0] = "0" * 64 + lines[0][64:]
    (first / "golden.txt").write_text("".join(lines) + lines[1].replace("--dicke 4 9", "--ghz 5"))
    assert golden.main() == 1
    report = capsys.readouterr()
    assert report.out == f"{second / 'golden.txt'}\n"
    assert report.err.splitlines() == [
        f"differs from {first / 'golden.txt'}: {cmd}" for cmd in ("stars --ghz 3", "measure --ghz 5")
    ]
    assert (second / "golden.txt").read_text() == written  # written as without --against


def test_golden_stdout_covers_determinism_commands():
    from test_cli import TestDeterminism

    listed = load_script("golden_stdout").commands()
    assert all(argv in listed for argv in TestDeterminism.COMMANDS)
    assert len(listed) == len({tuple(argv) for argv in listed})


def test_golden_stdout_star_vectors(tmp_path, monkeypatch, capsys):
    from stellar import stars

    golden = load_script("golden_stdout")
    listed = golden.commands()
    assert [argv for argv in listed if argv[0] == "star-vectors"] == [
        ["star-vectors", name, str(seed)] for name in ("ensemble", "geometric", "dynamics") for seed in range(6)
    ]
    item = ["star-vectors", "ensemble", "3"]
    monkeypatch.setattr(golden, "commands", lambda: [item])
    first, second = tmp_path / "first", tmp_path / "second"
    monkeypatch.setattr(sys, "argv", ["golden_stdout", "--out", str(first)])
    assert golden.main() == 0
    # the op's star vectors: 24 cases of n stars (x, y, z) at each n = 4, 8, 16, 24
    nbytes = 24 * 8 * 3 * (4 + 8 + 16 + 24)
    assert len((first / "000.out").read_bytes()) == nbytes
    assert (first / "golden.txt").read_text().split("  ")[1:] == [str(nbytes), "0", "star-vectors ensemble 3\n"]

    # the same stars in another order are caught
    core = stars._star_vectors_batch
    monkeypatch.setattr(stars, "_star_vectors_batch", lambda d: core(d)[:, ::-1])
    monkeypatch.setattr(sys, "argv", ["golden_stdout", "--out", str(second), "--against", str(first)])
    capsys.readouterr()
    assert golden.main() == 1
    assert capsys.readouterr().err == f"differs from {first / 'golden.txt'}: star-vectors ensemble 3\n"
