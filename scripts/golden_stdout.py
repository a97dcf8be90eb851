#!/usr/bin/env python3
"""Digest the stdout of a fixed list of CLI commands, and the benchmark's star vectors, to compare two checkouts.

Runs ``stellar.cli.main`` in-process, from this checkout's ``src``, over the
benchmark's CLI commands (``perfbench/workloads.py::cli_commands`` for
seeds 0-5) and the determinism commands of the tests that list lacks.
Then, as the item ``star-vectors WORKLOAD SEED``, it runs one op of the
``ensemble``, ``geometric`` and ``dynamics`` workloads over their cases for
seeds 0-5 and takes the bytes of every star vector the op returns, so the
star core is compared bit for bit and not only through printed digits.
Writes DIR/golden.txt, one line per item: ``sha256  bytes  exit  argv``,
and each item's output to DIR/NNN.out.  Compare two checkouts with

    python scripts/golden_stdout.py --out a                # in one checkout
    python scripts/golden_stdout.py --out b --against a    # in the other

With ``--against DIR`` it then exits 1, naming on stderr each command whose
line differs from DIR/golden.txt or that only one of the two lists.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import pathlib
import shlex
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent

XY_HALF = "-0.5*X x Y + -0.5*Y x X"

# tests/test_cli.py::TestDeterminism.COMMANDS, test_criterion_13_cli_determinism and
# the stars, sweep and measure forms that neither the benchmark nor the tests rerun
EXTRA = [
    ["stars", "--ghz", "4"],
    ["stars", "--tetra", "--format", "csv"],
    ["random", "--n", "6", "--seed", "42"],
    ["random", "--n", "4", "--antipodal", "--seed", "7"],
    ["compose", "--state", "01", "--state", "1"],
    ["sweep", "--family", "threequbit", "--grid", "9", "--eg"],
    ["reduce", "--hamiltonian", "sym(X Z P0)", "--beta", "0.7"],
    ["evolve", "--hamiltonian", "1/sqrt(2)*H(2,3)+1/sqrt(2)*H(0,2)", "--state", "00", "--betas", "0:3.14159:40"],
    ["velocity", "--hamiltonian", XY_HALF, "--state", "00", "--betas", "0:1.5:40"],
    ["random", "--n", "8", "--seed", "123456789"],
    ["stars", "--coherent", "5", "1.1", "0.4", "--format", "csv"],
    ["stars", "--dicke", "6", "2", "--format", "csv"],
    ["stars", "--state", "0011", "--format", "csv"],
    ["sweep", "--family", "rec4", "--grid", "5x7", "--eg"],
    ["sweep", "--family", "twoqubit", "--grid", "17"],
    ["measure", "--dicke", "10", "3", "--eb", "--eg", "--format", "json"],
    ["measure", "--ghz", "5", "--format", "json"],
    ["measure", "--w", "4", "--eg"],
]


STAR_WORKLOADS = ("ensemble", "geometric", "dynamics")


def perfbench(module: str):
    """A module of this checkout's perfbench directory."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    return importlib.import_module(module)


def commands() -> list[list[str]]:
    """The benchmark's CLI commands for seeds 0-5, then the extra ones, without repeats, then the star-vector items."""
    cli_commands = perfbench("workloads").cli_commands
    out: list[list[str]] = []
    for argv in [argv for seed in range(6) for _, argv in cli_commands(seed)] + EXTRA:
        if argv not in out:
            out.append(argv)
    return out + [["star-vectors", name, str(seed)] for name in STAR_WORKLOADS for seed in range(6)]


def star_vectors(name: str, seed: int) -> bytes:
    """The star vectors of one op of a benchmark workload over its cases for ``seed``, as bytes in op order."""
    workload = perfbench("workloads").make(name, str(ROOT))
    out = workload.op(workload.cases(seed), perfbench("spans").Tracer(False))
    arrays = [traj.stars for _, traj, _ in out] if name == "dynamics" else [case[1] for case in out]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of one in-process CLI run, stderr dropped; 0 and the bytes of a star-vectors item."""
    from stellar.cli import main

    if argv[0] == "star-vectors":
        return 0, star_vectors(argv[1], int(argv[2]))

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue().encode()


def differing(lines: list[str], against: pathlib.Path) -> list[str]:
    """The argv of each command whose golden line differs between ``lines`` and against/golden.txt, or is in one only."""
    old = (against / "golden.txt").read_text().splitlines()
    new = [line.rstrip("\n") for line in lines]
    changed = set(old) ^ set(new)
    return list(dict.fromkeys(line.split("  ", 3)[3] for line in new + old if line in changed))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--against", type=pathlib.Path, help="directory of an earlier run to compare with")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, argv in enumerate(commands()):
        code, stdout = run(argv)
        (outdir / f"{i:03d}.out").write_bytes(stdout)
        lines.append(f"{hashlib.sha256(stdout).hexdigest()}  {len(stdout)}  {code}  {shlex.join(argv)}\n")
    (outdir / "golden.txt").write_text("".join(lines))
    print(outdir / "golden.txt")
    if args.against is None:
        return 0
    changed = differing(lines, args.against)
    for argv in changed:
        print(f"differs from {args.against / 'golden.txt'}: {argv}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
