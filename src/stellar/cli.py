"""Command-line front end.

Subcommands: stars, measure, compose, sweep, random, evolve, reduce,
velocity.  Results go to stdout or --out; stderr carries diagnostics only.
Exit codes: 0 success, 2 usage error, 3 domain error, 4 numeric or
symmetry error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import secrets
import sys

import numpy as np

from . import composition, dynamics, hamiltonians, measures, stars, states
from .errors import DomainError, ExpressionError, ResourceError, StellarError, _check_bytes

# the coefficient needs a digit once it has a point, so '.pi' is no angle
_PI_RE = re.compile(r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi(?:\s*/\s*(\d+\.?\d*))?$", re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Angles as decimals or fractions of pi: '0.7', 'pi/2', '2pi/3', '-pi'."""
    text = text.strip()
    m = _PI_RE.match(text)
    if m:
        coef_text = m.group(1)
        if coef_text in ("", "+"):
            coef = 1.0
        elif coef_text == "-":
            coef = -1.0
        else:
            coef = float(coef_text)
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise DomainError(f"zero divisor in angle {text!r}")
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse angle {text!r}") from None


# name: (builder of the spec's ':' parts, options of its flag); a spec takes as many parts as the flag takes values
_NAMED_STATES = {
    "dicke": (lambda n, k: states.dicke_state(int(n), int(k)),
              dict(nargs=2, type=int, metavar=("N", "K"), help="Dicke state")),
    "ghz": (lambda n: states.ghz_state(int(n)), dict(type=int, metavar="N", help="GHZ state of N qubits")),
    "w": (lambda n: states.dicke_state(int(n), 1),
          dict(type=int, metavar="N", help="one-excitation Dicke state of N qubits")),
    "bell": (states.bell_state, dict(metavar="NAME", help="Bell state: psi+, phi+ or phi-")),
    "tetra": (states.tetrahedron_state, dict(action="store_true", help="4-qubit tetrahedron state")),
    "rec4": (lambda th, ph: states.rec_family_state(parse_angle(th), parse_angle(ph)),
             dict(nargs=2, metavar=("THETA", "PHI"), help="rectangle family state (angles allow 'pi' forms)")),
    "coherent": (lambda n, th, ph: states.coherent_state(int(n), states.QubitState(parse_angle(th), parse_angle(ph))),
                 dict(nargs=3, metavar=("N", "THETA", "PHI"), help="spin-coherent state")),
}


def build_state(spec: str) -> states.SymmetricState:
    """State mini-language shared by every subcommand.

    Named forms: dicke:N:K, ghz:N, w:N (one excitation), bell:NAME, tetra,
    rec4:THETA:PHI, coherent:N:THETA:PHI.  A plain bitstring like '01' is
    the composition of its single-qubit values; anything else is read as a
    state JSON file path.
    """
    spec = spec.strip()
    head, *parts = spec.split(":")
    build, flag = _NAMED_STATES.get(head.lower(), (None, {}))
    if build and len(parts) == flag.get("nargs", 0 if "action" in flag else 1):
        try:
            return build(*parts)
        except ValueError as exc:
            raise DomainError(f"bad state spec {spec!r}: {exc}") from exc
    if re.fullmatch(r"[01]+", spec):
        qubits = [states.QubitState(0.0 if ch == "0" else math.pi, 0.0) for ch in spec]
        return states.symmetrize(qubits)
    if os.path.exists(spec) or spec.endswith(".json"):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return states.state_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read state file {spec!r}: {exc}") from exc
    raise DomainError(f"unrecognized state spec {spec!r}")


def _state_from_args(args) -> states.SymmetricState:
    """The first named-state flag given, else --state, as a build_state spec."""
    for flag in _NAMED_STATES:
        value = getattr(args, flag, None)
        if value is None or value is False:  # flag not given
            continue
        parts = value if isinstance(value, list) else [] if value is True else [value]
        return build_state(":".join([flag, *map(str, parts)]))
    if getattr(args, "state", None):
        return build_state(args.state)
    raise DomainError("no input state given; pass --state or a named-state flag")


def _add_state_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--state", help="state spec: named form, bitstring, or JSON path")
    for name, (_, flag) in _NAMED_STATES.items():
        parser.add_argument(f"--{name}", **flag)


def _add_husimi_grid(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--husimi-grid",
        type=_parse_grid,
        default=(64, 128),
        metavar="RxC",
        help="coarse sphere grid for the Husimi maximizer (default 64x128)",
    )


def _add_out(parser: argparse.ArgumentParser):
    parser.add_argument("--out", help="write the result here instead of stdout")


def _emit(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str, line: bool = False) -> tuple[int, int]:
    """'RxC' with both sizes at least 2; a line family reads only R and also takes a bare 'N'."""
    m = re.fullmatch(r"(\d+)(?:x(\d+))?", text.strip())
    if not m or (m.group(2) is None and not line):
        raise DomainError(f"grid must look like '64x128', got {text!r}")
    g = (int(m.group(1)), int(m.group(2) or 0))
    if not line and min(g) < 2:
        raise DomainError("grid sizes must be at least 2")
    if line and g[0] < 1:
        raise DomainError("a line grid needs at least one point")
    return g


def _parse_betas(text: str, n: int) -> np.ndarray:
    """'start:stop:count' as a grid for evolve on n qubits, refused before it is allocated if too large."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"betas must look like 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad betas {text!r}: {exc}") from exc
    if count < 2:
        raise DomainError("beta grid needs at least 2 points")
    dynamics._check_frames(count, n)
    return np.linspace(start, stop, count)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 folds -0.0 into 0.0


def _cmd_stars(args) -> int:
    c = stars.state_to_stars(_state_from_args(args))
    if args.format == "csv":
        _emit(args, stars.constellation_to_csv(c))
    else:
        _emit(args, stars.constellation_to_json(c) + "\n")
    return 0


def _cmd_measure(args) -> int:
    state = _state_from_args(args)
    fields = []
    if args.eb or not args.eg:
        fields.append(("E_B", measures.e_b(state)))
    if args.eg:
        r = measures.e_g(state, grid=args.husimi_grid)
        fields += [("E_G", r.value), ("EG_witness_theta", r.witness.theta), ("EG_witness_phi", r.witness.phi),
                   ("EG_overlap", r.overlap)]
    if args.format == "json":
        values = states._floats([value for _, value in fields])
        text = "{" + ", ".join(f'"{name}": {value}' for (name, _), value in zip(fields, values)) + "}"
    else:  # the text form reports the measures alone
        text = "\n".join(f"{name} = {_fmt(value)}" for name, value in fields if name in ("E_B", "E_G"))
    _emit(args, text + "\n")
    return 0


def _cmd_compose(args) -> int:
    if len(args.state) < 2:
        raise DomainError("compose needs at least two --state inputs")
    parts = [build_state(s) for s in args.state]
    out = parts[0]
    for nxt in parts[1:]:
        out = composition.compose(out, nxt)
    _emit(args, states.state_to_json(out) + "\n")
    return 0


_FAMILIES = ("rec4", "twoqubit", "threequbit", "dicke")


def _check_sweep_rows(rows: int) -> None:
    """ResourceError, before anything is computed, if the CSV of rows sweep points could exceed MAX_MATRIX_BYTES."""
    # six %.17g numbers, the longest family, six commas, a newline
    _check_bytes(rows * (6 * 24 + len("threequbit") + 7), f"a sweep of {rows} points needs up to")


def _sweep_rows(args):
    if args.family == "rec4":
        rows, cols = _parse_grid(args.grid)
        _check_sweep_rows(rows * cols)
        for th in np.linspace(0.0, math.pi / 2.0, rows):
            for ph in np.linspace(0.0, math.pi, cols):
                yield th, ph, states.rec_family_state(th, ph)
    elif args.family in ("twoqubit", "threequbit"):
        count, _ = _parse_grid(args.grid, line=True)
        _check_sweep_rows(count)
        for th in np.linspace(0.0, math.pi, count):
            if args.family == "twoqubit":
                qubits = [states.QubitState(0.0, 0.0), states.QubitState(th, 0.0)]
            else:
                qubits = [states.QubitState(0.0, 0.0), states.QubitState(th, math.pi), states.QubitState(th, 0.0)]
            yield th, None, states.symmetrize(qubits)
    else:  # dicke
        if args.n is None:
            raise DomainError("--family dicke requires --n")
        if args.n < 1:
            raise DomainError(f"--family dicke needs --n of at least 1, got {args.n}")
        _check_sweep_rows(args.n + 1)
        for k in range(args.n + 1):
            yield float(k), None, states.dicke_state(args.n, k)


def _cmd_sweep(args) -> int:
    if args.family not in _FAMILIES:
        raise DomainError(f"unknown family {args.family!r}; choose from {', '.join(_FAMILIES)}")
    param1, param2, eb, eg = [], [], [], []
    for p1, p2, state in _sweep_rows(args):
        param1.append(p1)
        param2.append(p2)
        eb.append(measures.e_b(state))
        if args.eg:
            r = measures.e_g(state, grid=args.husimi_grid)
            eg.append((r.value, r.witness.theta, r.witness.phi))
    blank = [""] * len(param1)
    columns = [[args.family] * len(param1), np.array(param1), np.array(param2) if args.family == "rec4" else blank]
    columns += [np.array(eb), *(np.array(eg).T if args.eg else [blank] * 3)]
    _emit(args, states._csv("family,param1,param2,E_B,E_G,EG_witness_theta,EG_witness_phi", columns))
    return 0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STELLAR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DomainError(f"STELLAR_SEED must be an integer, got {env!r}") from None
    seed = secrets.randbits(63)
    print(f"drawn seed: {seed}", file=sys.stderr)
    return seed


def _cmd_random(args) -> int:
    seed = _resolve_seed(args)
    rng = composition.make_rng(seed)
    if args.antipodal:
        state = composition.random_antipodal_state(args.n, rng)
    else:
        state = composition.random_state(args.n, rng)
    doc = states.state_to_json(state)
    _emit(args, doc[:-1] + f', "seed": {seed}}}' + "\n")
    return 0


def _hamiltonian_from_args(args) -> hamiltonians.HermitianOperator:
    src = args.hamiltonian
    # a JSON file with a "hamiltonian" field carries the same grammar
    if src.endswith(".json") or os.path.exists(src):
        import json

        try:
            with open(src, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            src = doc["hamiltonian"]
        except (OSError, ValueError, TypeError, KeyError) as exc:
            raise DomainError(
                f"cannot read a 'hamiltonian' field from {args.hamiltonian!r}: {exc}"
            ) from exc
    expr = hamiltonians.parse(src)
    return hamiltonians.build_matrix(expr)


def _cmd_evolve(args) -> int:
    """evolve writes the star trajectory, velocity its velocity profile."""
    h = _hamiltonian_from_args(args)
    psi0 = _state_from_args(args)
    traj = dynamics.evolve(h, psi0, _parse_betas(args.betas, h.n), max_step=args.max_step)
    if args.command == "velocity":
        profile = dynamics.velocity_profile(traj, divergence_threshold=args.divergence_threshold)
        _emit(args, dynamics.velocity_to_csv(profile))
    else:
        _emit(args, dynamics.trajectory_to_csv(traj))
    return 0


def _cmd_reduce(args) -> int:
    h = _hamiltonian_from_args(args)
    u = dynamics.exponentiate(h, parse_angle(args.beta))
    block = dynamics.reduce_unitary(u, tol=args.tol)
    _emit(args, dynamics.block_to_json(block) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Majorana constellations of permutation-symmetric multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stars", help="Majorana constellation of a state")
    _add_state_flags(p)
    _add_out(p)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")
    p.set_defaults(func=_cmd_stars)

    p = sub.add_parser("measure", help="barycentric and geometric entanglement of a state")
    _add_state_flags(p)
    _add_out(p)
    p.add_argument("--eb", action="store_true", help="report the barycentric measure (default when --eg absent)")
    p.add_argument("--eg", action="store_true", help="report the geometric measure")
    _add_husimi_grid(p)
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format (default text)")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("compose", help="compose two or more states (star-multiset union)")
    p.add_argument("--state", action="append", default=[], help="state spec; give at least twice")
    _add_out(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("sweep", help="measure a parametric family onto CSV")
    p.add_argument("--family", required=True, help="one of: rec4, twoqubit, threequbit, dicke")
    p.add_argument("--grid", default="33x33", help="parameter grid, RxC for rec4, N for line families (default 33x33)")
    p.add_argument("--n", type=int, help="qubit count for --family dicke")
    p.add_argument("--eb", action="store_true", help="accepted for symmetry; E_B is always computed")
    p.add_argument("--eg", action="store_true", help="also compute the geometric measure per point")
    _add_husimi_grid(p)
    _add_out(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("random", help="random symmetric state (uniform stars)")
    p.add_argument("--n", type=int, required=True, help="qubit count")
    p.add_argument("--antipodal", action="store_true", help="compose random antipodal pairs (even n)")
    p.add_argument("--seed", type=int, help="64-bit seed; falls back to STELLAR_SEED, then OS entropy")
    _add_out(p)
    p.set_defaults(func=_cmd_random)

    for name, helptext in (("evolve", "star trajectory under exp(-i*beta*H)"), ("velocity", "star velocity profile dtheta/dbeta")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--hamiltonian", required=True, help="Hamiltonian expression, e.g. '1/sqrt(2)*H(2,3) + 1/sqrt(2)*H(0,2)'")
        _add_state_flags(p)
        p.add_argument("--betas", required=True, metavar="START:STOP:COUNT", help="evolution parameter grid")
        p.add_argument(
            "--max-step",
            type=float,
            default=dynamics.MAX_STEP_RAD,
            help="matched-star move bound per accepted step in rad (default 0.2)",
        )
        if name == "velocity":
            p.add_argument(
                "--divergence-threshold",
                type=float,
                default=10.0,
                help="flag |dtheta/dbeta| above this as a divergence window (default 10)",
            )
        _add_out(p)
        p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("reduce", help="block-diagonalize exp(-i*beta*H) in the Dicke basis")
    p.add_argument("--hamiltonian", required=True, help="Hamiltonian expression")
    p.add_argument("--beta", required=True, help="evolution parameter (angle forms allowed)")
    p.add_argument("--tol", type=float, default=1e-10, help="off-block norm tolerance (default 1e-10)")
    _add_out(p)
    p.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ExpressionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except StellarError as exc:  # numeric and symmetry errors, and any other
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
