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

# the exit code of the first class an error is an instance of: usage, domain or size, numeric or symmetry and any other
_EXIT_CODES = ((ExpressionError, 2), ((DomainError, ResourceError), 3), (StellarError, 4))

# the coefficient needs a digit once it has a point, so '.pi' is no angle
_PI_RE = re.compile(r"^([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)?)\s*\*?\s*pi(?:\s*/\s*([0-9]+\.?[0-9]*))?$", re.IGNORECASE)


def _ascii(kind):
    """kind, int or float, reading ASCII text only: the builtins also read the digits of other scripts."""
    def read(text: str):
        if not text.isascii():
            raise ValueError(f"{text!r} is not written in ASCII")
        return kind(text)
    read.__name__ = kind.__name__  # the name argparse prints in a usage error
    return read


_int, _float = _ascii(int), _ascii(float)


def parse_angle(text: str) -> float:
    """Angles as decimals or fractions of pi: '0.7', 'pi/2', '2pi/3', '-pi'."""
    text = text.strip()
    m = _PI_RE.match(text)
    if m:
        coef = m.group(1) + ("" if m.group(1).strip("+-") else "1")  # a bare sign, or nothing, stands for 1
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise DomainError(f"zero divisor in angle {text!r}")
        return float(coef) * math.pi / div
    try:
        return _float(text)
    except ValueError:
        raise DomainError(f"cannot parse angle {text!r}") from None


# name: (builder of the spec's ':' parts, options of its flag); a spec takes as many parts as the flag takes values
_NAMED_STATES = {
    "dicke": (lambda n, k: states.dicke_state(_int(n), _int(k)),
              dict(nargs=2, type=_int, metavar=("N", "K"), help="Dicke state")),
    "ghz": (lambda n: states.ghz_state(_int(n)), dict(type=_int, metavar="N", help="GHZ state of N qubits")),
    "w": (lambda n: states.dicke_state(_int(n), 1),
          dict(type=_int, metavar="N", help="one-excitation Dicke state of N qubits")),
    "bell": (states.bell_state, dict(metavar="NAME", help="Bell state: psi+, phi+ or phi-")),
    "tetra": (states.tetrahedron_state, dict(action="store_true", help="4-qubit tetrahedron state")),
    "rec4": (lambda th, ph: states.rec_family_state(parse_angle(th), parse_angle(ph)),
             dict(nargs=2, metavar=("THETA", "PHI"), help="rectangle family state (angles allow 'pi' forms)")),
    "coherent": (lambda n, th, ph: states.coherent_state(_int(n), states.QubitState(parse_angle(th), parse_angle(ph))),
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
        return _use_file(spec, "r", "read state file", lambda fh: states.state_from_json(fh.read()))
    raise DomainError(f"unrecognized state spec {spec!r}")


def _use_file(path: str, mode: str, what: str, use):
    """use(fh) of the file at path opened in mode; failing to open, decode, read or write it is a DomainError naming what."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            return use(fh)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise DomainError(f"cannot {what} {path!r}: {exc}") from exc


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


def _parse_grid(text: str, line: bool = False) -> tuple[int, int]:
    """'RxC' with both sizes at least 2; a line family reads only R and also takes a bare 'N'."""
    m = re.fullmatch(r"([0-9]+)(?:x([0-9]+))?", text.strip())
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
        start, stop, count = _float(parts[0]), _float(parts[1]), _int(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad betas {text!r}: {exc}") from exc
    if count < 2:
        raise DomainError("beta grid needs at least 2 points")
    dynamics._check_frames(count, n)
    return np.linspace(start, stop, count)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"  # +0.0 folds -0.0 into 0.0


def _cmd_stars(args) -> str:
    c = stars.state_to_stars(_state_from_args(args))
    if args.format == "csv":
        return stars.constellation_to_csv(c)
    return stars.constellation_to_json(c) + "\n"


def _cmd_measure(args) -> str:
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
    return text + "\n"


def _cmd_compose(args) -> str:
    if len(args.state) < 2:
        raise DomainError("compose needs at least two --state inputs")
    parts = [build_state(s) for s in args.state]
    out = parts[0]
    for nxt in parts[1:]:
        out = composition.compose(out, nxt)
    return states.state_to_json(out) + "\n"


def _line_axis(args) -> list[tuple[float, int]]:
    """A bare N, or the R of RxC, points over [0, pi]."""
    return [(math.pi, _parse_grid(args.grid, line=True)[0])]


def _dicke_axis(args) -> list[tuple[float, int]]:
    if args.n is None:
        raise DomainError("--family dicke requires --n")
    if args.n < 1:
        raise DomainError(f"--family dicke needs --n of at least 1, got {args.n}")
    return [(float(args.n), args.n + 1)]  # steps of exactly 1.0: k = 0, 1, ..., n


def _qubits(th, *phis) -> states.SymmetricState:
    """The line families' state: |0> symmetrized with |th, phi> for each phi."""
    return states.symmetrize([states.QubitState(0.0, 0.0), *(states.QubitState(th, ph) for ph in phis)])


# name: (grid rule, from the args to the (stop, count) of each parameter axis, each from 0; the state at a point).
# The builders are looked up as each state is built, not stored here, so that a replaced builder is the one called.
_FAMILIES = {
    "rec4": (lambda args: list(zip((math.pi / 2.0, math.pi), _parse_grid(args.grid))),
             lambda args, th, ph: states.rec_family_state(th, ph)),
    "twoqubit": (_line_axis, lambda args, th: _qubits(th, 0.0)),
    "threequbit": (_line_axis, lambda args, th: _qubits(th, math.pi, 0.0)),
    "dicke": (_dicke_axis, lambda args, k: states.dicke_state(args.n, int(k))),
}


def _check_sweep_rows(rows: int) -> None:
    """ResourceError, before anything is computed, if the CSV of rows sweep points could exceed MAX_MATRIX_BYTES."""
    # six %.17g numbers, the longest family, six commas, a newline
    _check_bytes(rows * (6 * 24 + max(map(len, _FAMILIES)) + 7), f"a sweep of {rows} points needs up to")


def _cmd_sweep(args) -> str:
    if args.family not in _FAMILIES:
        raise DomainError(f"unknown family {args.family!r}; choose from {', '.join(_FAMILIES)}")
    grid_rule, build = _FAMILIES[args.family]
    axes = grid_rule(args)
    _check_sweep_rows(math.prod(count for _, count in axes))
    grids = np.meshgrid(*(np.linspace(0.0, stop, count) for stop, count in axes), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)  # one row per point, the last parameter fastest
    eb, eg = [], []
    for point in points:
        state = build(args, *point)
        eb.append(measures.e_b(state))
        if args.eg:
            r = measures.e_g(state, grid=args.husimi_grid)
            eg.append((r.value, r.witness.theta, r.witness.phi))
    blank = [""] * len(points)
    columns = [[args.family] * len(points), points[:, 0], points[:, 1] if len(axes) == 2 else blank]
    columns += [np.array(eb), *(np.array(eg).T if args.eg else [blank] * 3)]
    return states._csv("family,param1,param2,E_B,E_G,EG_witness_theta,EG_witness_phi", columns)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STELLAR_SEED")
    if env is not None:
        try:
            return _int(env)
        except ValueError:
            raise DomainError(f"STELLAR_SEED must be an integer, got {env!r}") from None
    seed = secrets.randbits(63)
    print(f"drawn seed: {seed}", file=sys.stderr)
    return seed


def _cmd_random(args) -> str:
    seed = _resolve_seed(args)
    rng = composition.make_rng(seed)
    if args.antipodal:
        state = composition.random_antipodal_state(args.n, rng)
    else:
        state = composition.random_state(args.n, rng)
    doc = states.state_to_json(state)
    return doc[:-1] + f', "seed": {seed}}}' + "\n"


def _hamiltonian_from_args(args) -> hamiltonians.HermitianOperator:
    src = args.hamiltonian
    # a JSON file with a "hamiltonian" field carries the same grammar; parsed as it is read, a field that is no
    # string (parse's TypeError) is refused like a missing one
    if src.endswith(".json") or os.path.exists(src):
        import json

        expr = _use_file(src, "r", "read a 'hamiltonian' field from",
                         lambda fh: hamiltonians.parse(json.load(fh)["hamiltonian"]))
    else:
        expr = hamiltonians.parse(src)
    return hamiltonians.build_matrix(expr)


def _cmd_evolve(args) -> str:
    """evolve returns the star trajectory, velocity its velocity profile."""
    h = _hamiltonian_from_args(args)
    psi0 = _state_from_args(args)
    traj = dynamics.evolve(h, psi0, _parse_betas(args.betas, h.n), max_step=args.max_step)
    if args.command == "velocity":
        profile = dynamics.velocity_profile(traj, divergence_threshold=args.divergence_threshold)
        return dynamics.velocity_to_csv(profile)
    return dynamics.trajectory_to_csv(traj)


def _cmd_reduce(args) -> str:
    h = _hamiltonian_from_args(args)
    u = dynamics.exponentiate(h, parse_angle(args.beta))
    block = dynamics.reduce_unitary(u, tol=args.tol)
    return dynamics.block_to_json(block) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stellar",
        description="Majorana constellations of permutation-symmetric multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, helptext: str) -> argparse.ArgumentParser:
        """A subcommand whose func(args) returns its output, which main writes to --out or stdout."""
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--out", help="write the result here instead of stdout")
        p.set_defaults(func=func)
        return p

    p = add("stars", _cmd_stars, "Majorana constellation of a state")
    _add_state_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="json", help="output format (default json)")

    p = add("measure", _cmd_measure, "barycentric and geometric entanglement of a state")
    _add_state_flags(p)
    p.add_argument("--eb", action="store_true", help="report the barycentric measure (default when --eg absent)")
    p.add_argument("--eg", action="store_true", help="report the geometric measure")
    _add_husimi_grid(p)
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format (default text)")

    p = add("compose", _cmd_compose, "compose two or more states (star-multiset union)")
    p.add_argument("--state", action="append", default=[], help="state spec; give at least twice")

    p = add("sweep", _cmd_sweep, "measure a parametric family onto CSV")
    p.add_argument("--family", required=True, help=f"one of: {', '.join(_FAMILIES)}")
    p.add_argument("--grid", default="33x33", help="parameter grid, RxC for rec4, N for line families (default 33x33)")
    p.add_argument("--n", type=_int, help="qubit count for --family dicke")
    p.add_argument("--eb", action="store_true", help="accepted for symmetry; E_B is always computed")
    p.add_argument("--eg", action="store_true", help="also compute the geometric measure per point")
    _add_husimi_grid(p)

    p = add("random", _cmd_random, "random symmetric state (uniform stars)")
    p.add_argument("--n", type=_int, required=True, help="qubit count")
    p.add_argument("--antipodal", action="store_true", help="compose random antipodal pairs (even n)")
    p.add_argument("--seed", type=_int, help="64-bit seed; falls back to STELLAR_SEED, then OS entropy")

    for name, helptext in (("evolve", "star trajectory under exp(-i*beta*H)"), ("velocity", "star velocity profile dtheta/dbeta")):
        p = add(name, _cmd_evolve, helptext)
        p.add_argument("--hamiltonian", required=True, help="Hamiltonian expression, e.g. '1/sqrt(2)*H(2,3) + 1/sqrt(2)*H(0,2)'")
        _add_state_flags(p)
        p.add_argument("--betas", required=True, metavar="START:STOP:COUNT", help="evolution parameter grid")
        p.add_argument(
            "--max-step",
            type=_float,
            default=dynamics.MAX_STEP_RAD,
            help="matched-star move bound per accepted step in rad (default 0.2)",
        )
        if name == "velocity":
            p.add_argument(
                "--divergence-threshold",
                type=_float,
                default=10.0,
                help="flag |dtheta/dbeta| above this as a divergence window (default 10)",
            )

    p = add("reduce", _cmd_reduce, "block-diagonalize exp(-i*beta*H) in the Dicke basis")
    p.add_argument("--hamiltonian", required=True, help="Hamiltonian expression")
    p.add_argument("--beta", required=True, help="evolution parameter (angle forms allowed)")
    p.add_argument("--tol", type=_float, default=1e-10, help="off-block norm tolerance (default 1e-10)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)  # every subcommand's result, written only once it is complete
        if args.out:
            _use_file(args.out, "w", "write", lambda fh: fh.write(text))
        else:
            sys.stdout.write(text)
    except StellarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
