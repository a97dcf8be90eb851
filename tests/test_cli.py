import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar.cli import _NAMED_STATES, build_state, main, parse_angle


def run_cli(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.75", 0.75),
            ("pi", math.pi),
            ("2pi/3", 2 * math.pi / 3),
            ("pi/2", math.pi / 2),
            ("PI/2", math.pi / 2),
            ("Pi/4", math.pi / 4),
            ("-pi", -math.pi),
            ("-pi/4", -math.pi / 4),
            ("0.5pi", math.pi / 2),
            ("2*pi/3", 2 * math.pi / 3),
        ],
    )
    def test_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(st.DomainError):
            parse_angle("two pi")


class TestStateSpecs:
    def test_named_forms(self):
        assert build_state("dicke:4:2").n == 4
        assert build_state("ghz:3").n == 3
        assert np.allclose(build_state("w:5").d, st.dicke_state(5, 1).d)
        assert build_state("bell:phi-").n == 2
        assert build_state("tetra").n == 4
        assert build_state("rec4:pi/4:0").n == 4
        assert build_state("coherent:3:pi/2:0").n == 3

    def test_bitstring_composes(self):
        assert np.allclose(build_state("01").d, st.dicke_state(2, 1).d, atol=1e-15)
        assert np.allclose(build_state("0011").d, st.dicke_state(4, 2).d, atol=1e-15)

    def test_json_path(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(st.state_to_json(st.dicke_state(3, 1)))
        assert st.fidelity(build_state(str(path)), st.dicke_state(3, 1)) == pytest.approx(1.0)

    def test_unknown(self):
        with pytest.raises(st.DomainError):
            build_state("nonsense:thing")


class TestNamedStates:
    """Each named state reads the same through its flag and through --state NAME:PART:..."""

    VALUES = {"dicke": ["6", "2"], "ghz": ["4"], "w": ["5"], "bell": ["phi-"], "tetra": [],
              "rec4": ["pi/4", "0.3"], "coherent": ["5", "1.1", "0.4"]}
    INTEGER_FLAGS = {"dicke", "ghz", "w"}  # argparse refuses their non-integer values as usage errors

    def test_every_named_state_listed(self):
        assert list(self.VALUES) == list(_NAMED_STATES)

    @pytest.mark.parametrize("name", list(VALUES))
    def test_flag_and_spec_print_the_same_bytes(self, capsys, name):
        values = self.VALUES[name]
        by_flag = run_cli(capsys, ["stars", f"--{name}", *values])
        assert by_flag[0] == 0 and by_flag[1]
        assert run_cli(capsys, ["stars", "--state", ":".join([name, *values])]) == by_flag

    @pytest.mark.parametrize("name", [name for name, values in VALUES.items() if values])
    def test_malformed_part_exit_codes(self, capsys, name):
        values = ["x", *self.VALUES[name][1:]]
        try:
            code = main(["stars", f"--{name}", *values])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code == (2 if name in self.INTEGER_FLAGS else 3)
        assert main(["stars", "--state", ":".join([name, *values])]) == 3


class TestMeasureCommand:
    def test_printed_value(self, capsys):
        code, out, _ = run_cli(capsys, ["measure", "--dicke", "10", "3", "--eb"])
        assert code == 0
        assert out == "E_B = 0.84\n"

    def test_eg_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["measure", "--dicke", "4", "2", "--eg", "--format", "json"]
        )
        doc = json.loads(out)
        assert doc["E_G"] == pytest.approx(math.log2(8 / 3), abs=1e-8)
        assert doc["EG_overlap"] == pytest.approx(0.375, abs=1e-8)

    def test_missing_state_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, ["measure", "--eb"])
        assert code == 3 and "state" in err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--no-such-flag"])
        assert exc.value.code == 2

    def test_bad_hamiltonian_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, ["reduce", "--hamiltonian", "X x Q", "--beta", "0.5"]
        )
        assert code == 2 and "Q" in err

    @pytest.mark.parametrize("sub", ["evolve", "reduce"])
    @pytest.mark.parametrize("ham", ["1/0*X x X", "2/sqrt(0)*sym(X Z)", "1e999*X x X"])
    def test_bad_hamiltonian_coefficient_is_2(self, capsys, sub, ham):
        tail = ["--state", "00", "--betas", "0:1:5"] if sub == "evolve" else ["--beta", "0.5"]
        code, out, err = run_cli(capsys, [sub, "--hamiltonian", ham, *tail])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "args,env",
        [
            pytest.param(["measure", "--dicke", "4", "9", "--eb"], {}, id="dicke-label"),
            pytest.param(["sweep", "--family", "rec4", "--grid", "1x5"], {}, id="rec4-grid"),
            pytest.param(["evolve", "--hamiltonian", "X x X", "--state", "00", "--betas", "0:1:x"], {}, id="betas-count"),
            pytest.param(["evolve", "--hamiltonian", "X x X", "--state", "00", "--betas", "0:1:1"], {}, id="betas-one"),
            pytest.param(["compose", "--state", "01"], {}, id="compose-one-state"),
            pytest.param(["sweep", "--family", "dicke"], {}, id="dicke-without-n"),
            pytest.param(["sweep", "--family", "foo"], {}, id="unknown-family"),
            pytest.param(["random", "--n", "3"], {"STELLAR_SEED": "abc"}, id="seed-env"),
            # the dotless and the dotted capital i are no ASCII i, so neither spells pi
            pytest.param(["reduce", "--hamiltonian", "X", "--beta", "p\u0131/2"], {}, id="beta-dotless-i"),
            pytest.param(["reduce", "--hamiltonian", "X", "--beta", "P\u0130/2"], {}, id="beta-dotted-i"),
        ],
    )
    def test_domain_error_is_3(self, capsys, monkeypatch, args, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, args)
        assert (code, out) == (3, "") and err.startswith("error:")

    @pytest.mark.parametrize(
        "args,env,code",
        [
            pytest.param(["sweep", "--family", "twoqubit", "--grid", "٣"], {}, 3, id="grid"),
            pytest.param(["sweep", "--family", "rec4", "--grid", "3x٣"], {}, 3, id="grid-columns"),
            pytest.param(["reduce", "--hamiltonian", "X", "--beta", "٣pi/٤"], {}, 3, id="beta-pi"),
            pytest.param(["reduce", "--hamiltonian", "X", "--beta", "١.٥"], {}, 3, id="beta-plain"),
            pytest.param(["measure", "--dicke", "٣", "1"], {}, 2, id="dicke-flag"),
            pytest.param(["stars", "--state", "dicke:٣:1"], {}, 3, id="dicke-spec"),
            pytest.param(["stars", "--state", "coherent:3:٣:0"], {}, 3, id="coherent-spec-angle"),
            pytest.param(["evolve", "--hamiltonian", "X", "--state", "0", "--betas", "0:1:٣"], {}, 3, id="betas"),
            pytest.param(["evolve", "--hamiltonian", "X", "--state", "0", "--betas", "٠:1:3"], {}, 3, id="betas-start"),
            pytest.param(["evolve", "--hamiltonian", "X", "--state", "0", "--betas", "0:1:3", "--max-step", "٠.١"], {},
                         2, id="max-step"),
            pytest.param(["random", "--n", "2", "--seed", "٣"], {}, 2, id="seed-flag"),
            pytest.param(["random", "--n", "٣", "--seed", "1"], {}, 2, id="n-flag"),
            pytest.param(["random", "--n", "2"], {"STELLAR_SEED": "٣"}, 3, id="seed-env"),
            pytest.param(["measure", "--dicke", "3", "1", "--eg", "--husimi-grid", "٣x٣"], {}, 2, id="husimi-grid"),
        ],
    )
    def test_numbers_are_ascii(self, capsys, monkeypatch, args, env, code):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            got = main(args)
        except SystemExit as exc:  # argparse usage errors
            got = exc.code
        out, err = capsys.readouterr()
        assert (got, out) == (code, "") and "error:" in err

    def test_grid_missing_every_maximum_is_4(self, capsys):
        code, out, err = run_cli(capsys, ["measure", "--dicke", "3", "1", "--eg", "--husimi-grid", "2x2"])
        assert (code, out) == (4, "") and "below the mean" in err

    def test_symmetry_error_is_4(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["evolve", "--hamiltonian", "X x I", "--state", "00", "--betas", "0:1:5"],
        )
        assert code == 4 and "symmetr" in err.lower()

    def test_failed_eigendecomposition_is_4(self, capsys, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run_cli(capsys, ["reduce", "--hamiltonian", "X x X + Y x Y", "--beta", "0.5"])
        assert (code, out, err) == (4, "", "error: eigendecomposition failed: Eigenvalues did not converge\n")

    @pytest.mark.parametrize(
        "error,code",
        [
            (st.ExpressionSyntaxError("bad", 1, 2, "t"), 2),
            (st.ExpressionSemanticError("bad", 1, 2, "t"), 2),
            (st.DomainError("bad"), 3),
            (st.ResourceError("bad"), 3),
            (st.NumericError("bad"), 4),
            (st.ConvergenceError("bad", None), 4),
            (st.SymmetryViolationError("bad", 0.5), 4),
            (st.StellarError("bad"), 4),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_exit_code_of_each_error_class(self, capsys, monkeypatch, error, code):
        def fail(args):
            raise error

        monkeypatch.setattr("stellar.cli._cmd_stars", fail)
        assert run_cli(capsys, ["stars", "--state", "01"]) == (code, "", f"error: {error}\n")


class TestMalformedInput:
    XY = ["--hamiltonian", "-0.5*X x Y + -0.5*Y x X", "--state", "00", "--betas", "0:1:5"]

    @pytest.mark.parametrize(
        "args",
        [
            ["measure", "--coherent", "abc", "0", "0"],
            ["stars", "--ghz", "0", "--state", "01"],
            ["stars", "--coherent", "3", "pi/0", "0"],
            ["measure", "--rec4", ".pi", "0"],
            ["reduce", "--hamiltonian", "X x X", "--beta", ".pi"],
            ["reduce", "--hamiltonian", "X x X", "--beta", "nan"],
            ["reduce", "--hamiltonian", "X x X", "--beta", "0.5", "--tol", "nan"],
            ["reduce", "--hamiltonian", "X x X", "--beta", "0.5", "--tol", "-1"],
            ["sweep", "--family", "twoqubit", "--grid", "abc"],
            ["sweep", "--family", "threequbit", "--grid", "-3"],
            ["evolve", *XY, "--max-step", "nan"],
            ["evolve", *XY, "--max-step", "-1"],
            ["velocity", *XY, "--max-step", "0"],
            ["velocity", *XY, "--divergence-threshold", "nan"],
            ["velocity", *XY, "--divergence-threshold", "-1"],
            ["sweep", "--family", "twoqubit", "--grid", "0"],
            ["sweep", "--family", "threequbit", "--grid", "0"],
            ["sweep", "--family", "dicke", "--n", "-1"],
            ["reduce", "--hamiltonian", "sym(X Z)", "--beta", "1.7e308"],
            ["evolve", "--hamiltonian", "sym(X Z)", "--state", "00", "--betas", "0:1.7e308:3"],
            ["velocity", "--hamiltonian", "sym(X Z)", "--state", "00", "--betas", "0:1e307:30"],
            ["velocity", "--hamiltonian", "sym(X Z)", "--state", "00", "--betas", "0:1e-300:30"],
        ],
    )
    def test_domain_error_is_3(self, capsys, args):
        code, out, err = run_cli(capsys, args)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["stars", "--dicke", "1100", "3"],
            ["random", "--n", "1100", "--seed", "1"],
            ["measure", "--dicke", "1100", "3"],
            ["evolve", *XY[:-1], "0:1:1000000000000"],
            ["velocity", *XY[:-1], "0:1:1000000000000"],
            ["random", "--n", "20000", "--seed", "1"],
            ["random", "--n", "20000", "--antipodal", "--seed", "1"],
            ["sweep", "--family", "rec4", "--grid", "2x100000000"],
            ["sweep", "--family", "twoqubit", "--grid", "100000000"],
            ["sweep", "--family", "threequbit", "--grid", "100000000", "--eg"],
            ["sweep", "--family", "dicke", "--n", "100000000"],
            ["stars", "--dicke", "1000000000", "3"],
            ["stars", "--ghz", "1000000000"],
            ["stars", "--w", "1000000000"],
            ["stars", "--state", "ghz:1000000000"],
        ],
    )
    def test_resource_error_is_3(self, capsys, args):
        code, out, err = run_cli(capsys, args)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    # sizes just above the limits, so that a late check fails fast on the first counted call
    @pytest.mark.parametrize(
        "args",
        [
            ["random", "--n", "1030", "--seed", "1"],
            ["random", "--n", "1030", "--antipodal", "--seed", "1"],
            ["sweep", "--family", "rec4", "--grid", "2x3334624"],
            ["sweep", "--family", "rec4", "--grid", "3334624x2"],
            ["sweep", "--family", "twoqubit", "--grid", "6669247"],
            ["sweep", "--family", "threequbit", "--grid", "6669247"],
        ],
    )
    def test_refused_before_work(self, capsys, monkeypatch, args):
        calls = []

        def counted(name):
            def call(*a, **k):
                calls.append(name)
                raise AssertionError(f"{name} called on a refused input")

            return call

        for module, name in ((st.composition, "random_qubit"), (st.states, "_pair_product_coeffs"),
                             (st.states, "rec_family_state")):
            monkeypatch.setattr(module, name, counted(name))
        code, out, err = run_cli(capsys, args)
        assert (code, out, calls) == (3, "", [])
        assert "bytes" in err or "float range" in err

    def test_sweep_row_limit(self):
        from stellar.cli import _check_sweep_rows

        _check_sweep_rows(2**30 // 161)
        with pytest.raises(st.ResourceError):
            _check_sweep_rows(2**30 // 161 + 1)

    def test_huge_beta_grid_refused_before_allocation(self, capsys):
        import tracemalloc

        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, ["evolve", *self.XY[:-1], "0:1:1000000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "bytes" in err
        assert peak < 16 * 2**20

    def test_line_family_grid_forms(self, capsys):
        _, bare, _ = run_cli(capsys, ["sweep", "--family", "twoqubit", "--grid", "4"])
        _, rxc, _ = run_cli(capsys, ["sweep", "--family", "twoqubit", "--grid", "4x9"])
        assert bare == rxc and len(bare.strip().split("\n")) == 5


# malformed values for every numeric or state flag; none is a valid large
# size, so every accepted command stays at n <= 4 and grids <= 5 points
_BAD_NUMBERS = ["", " ", "abc", "nan", "-nan", "inf", "-inf", "1e999", "-1", "0", "-0.0", ".", ".pi", "pi/0",
                "2pi/", "1/0", "0x0", "1x", "x2", "3x-1", "-2x3", "2:3", "1:2:3", "1e-400", "0b1"]
_BAD_TEXT = hs.one_of(
    hs.sampled_from(_BAD_NUMBERS),
    hs.text(alphabet="x:/.+-*eEpinaf ()", max_size=8),
)
_BAD_STATE = hs.one_of(
    hs.sampled_from(["", "2", "012", "ghz:1", "w:0", "dicke:4:9", "bell:psi-", "bell:xyz", "tetra:1",
                     "rec4:2:0", "nonexistent.json", ".", "coherent:0:0:0"]),
    hs.builds(
        lambda head, args: ":".join([head, *args]),
        hs.sampled_from(["dicke", "ghz", "w", "bell", "rec4", "coherent"]),
        hs.lists(hs.sampled_from(_BAD_NUMBERS + ["1", "2", "3"]), max_size=3),
    ),
)
_BAD_HAMILTONIAN = hs.one_of(
    hs.sampled_from(["1/0*X x X", "2/sqrt(0)*sym(X Z)", "1e999*X x X", "sqrt(1e999)*Z x Z", "1e300/1e-300*H(1,1)"]),
    hs.builds(lambda c: f"{c}*sym(X Z)", hs.sampled_from(_BAD_NUMBERS)),
)
_BASE = {
    "stars": ["stars", "--state", "011"],
    "measure": ["measure", "--state", "011", "--eg", "--husimi-grid", "3x4"],
    "compose": ["compose", "--state", "0", "--state", "1"],
    "sweep": ["sweep", "--family", "twoqubit", "--grid", "3", "--eg", "--husimi-grid", "3x4"],
    "random": ["random", "--n", "3", "--seed", "1"],
    "evolve": ["evolve", "--hamiltonian", "X x X + Y x Y", "--state", "01", "--betas", "0:1:3"],
    "velocity": ["velocity", "--hamiltonian", "X x X + Y x Y", "--state", "01", "--betas", "0:1:3"],
    "reduce": ["reduce", "--hamiltonian", "X x X + Y x Y", "--beta", "0.5"],
}


@given(
    sub=hs.sampled_from(sorted(_BASE)),
    flag=hs.sampled_from(["--grid", "--husimi-grid", "--betas", "--max-step", "--divergence-threshold",
                          "--tol", "--coherent", "--state", "--hamiltonian"]),
    family=hs.sampled_from(["rec4", "twoqubit", "threequbit"]),
    values=hs.lists(_BAD_TEXT, min_size=3, max_size=3),
    state=_BAD_STATE,
    hamiltonian=_BAD_HAMILTONIAN,
)
@settings(max_examples=300, deadline=None)
def test_malformed_flags_keep_exit_codes(sub, flag, family, values, state, hamiltonian):
    argv = list(_BASE[sub])
    if sub == "sweep":
        argv += ["--family", family]
    if flag == "--coherent":
        argv += [flag, *values]
    else:
        argv += [flag, {"--state": state, "--hamiltonian": hamiltonian}.get(flag, values[0])]
    try:  # any other exception is the traceback this test rules out
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 2, 3, 4), argv


class TestDeterminism:
    COMMANDS = [
        ["measure", "--dicke", "10", "3", "--eb", "--eg"],
        ["stars", "--ghz", "4"],
        ["stars", "--tetra", "--format", "csv"],
        ["random", "--n", "6", "--seed", "42"],
        ["random", "--n", "4", "--antipodal", "--seed", "7"],
        ["compose", "--state", "01", "--state", "1"],
        ["sweep", "--family", "threequbit", "--grid", "9", "--eg"],
        ["reduce", "--hamiltonian", "sym(X Z P0)", "--beta", "0.7"],
        [
            "evolve",
            "--hamiltonian", "1/sqrt(2)*H(2,3)+1/sqrt(2)*H(0,2)",
            "--state", "00",
            "--betas", "0:3.14159:40",
        ],
        [
            "velocity",
            "--hamiltonian", "-0.5*X x Y + -0.5*Y x X",
            "--state", "00",
            "--betas", "0:1.5:40",
        ],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=[c[0] + "-" + str(i) for i, c in enumerate(COMMANDS)])
    def test_byte_identical_repeats(self, capsys, args):
        code1, out1, _ = run_cli(capsys, args)
        code2, out2, _ = run_cli(capsys, args)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode()
        assert out1


class TestRandomCommand:
    def test_many_qubits(self, capsys):
        code, out, _ = run_cli(capsys, ["random", "--n", "800", "--seed", "1"])
        d = np.array([complex(*z) for z in json.loads(out)["dicke"]])
        assert code == 0 and abs(np.linalg.norm(d) - 1.0) <= 1e-12

    def test_seed_embedded_in_output(self, capsys):
        code, out, _ = run_cli(capsys, ["random", "--n", "4", "--seed", "42"])
        doc = json.loads(out)
        assert doc["seed"] == 42 and doc["n"] == 4

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("STELLAR_SEED", "99")
        _, out1, _ = run_cli(capsys, ["random", "--n", "3"])
        _, out2, _ = run_cli(capsys, ["random", "--n", "3"])
        assert out1 == out2
        assert json.loads(out1)["seed"] == 99

    @pytest.mark.parametrize(
        "flags,env",
        [
            pytest.param(["--seed", "-1"], {}, id="negative"),
            pytest.param([], {"STELLAR_SEED": "-1"}, id="negative-env"),
            pytest.param(["--seed", str(2**64)], {}, id="65-bit"),
        ],
    )
    def test_seed_outside_64_bits_exits_3(self, capsys, monkeypatch, flags, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, ["random", "--n", "4", *flags])
        assert (code, out) == (3, "") and err.startswith("error:") and err.count("\n") == 1

    def test_largest_seed(self, capsys):
        code, out, _ = run_cli(capsys, ["random", "--n", "4", "--seed", str(2**64 - 1)])
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_entropy_seed_echoed(self, capsys, monkeypatch):
        monkeypatch.delenv("STELLAR_SEED", raising=False)
        code, out, err = run_cli(capsys, ["random", "--n", "2"])
        assert code == 0
        assert "drawn seed" in err
        assert json.loads(out)["seed"] >= 0


class TestOutputs:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "stars.json"
        code, out, _ = run_cli(capsys, ["stars", "--ghz", "3", "--out", str(path)])
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["n"] == 3 and len(doc["stars"]) == 3

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_3(self, capsys, tmp_path, where):
        path = str(tmp_path / "missing" / "stars.json" if where == "missing-directory" else tmp_path)
        code, out, err = run_cli(capsys, ["stars", "--state", "01", "--out", path])
        assert (code, out) == (3, "") and err.startswith(f"error: cannot write {path!r}:")
        assert list(tmp_path.iterdir()) == []

    def test_failed_command_writes_no_out(self, capsys, tmp_path):
        path = tmp_path / "stars.json"
        code, out, _ = run_cli(capsys, ["stars", "--dicke", "4", "9", "--out", str(path)])
        assert (code, out) == (3, "") and not path.exists()

    def test_evolve_csv_header(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["evolve", "--hamiltonian", "-0.5*X x Y + -0.5*Y x X", "--state", "00", "--betas", "0:1:9"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "beta,star_index,theta,phi,x,y,z,e_b"

    def test_evolve_accepts_any_invariant_pair_combination(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "evolve",
                "--hamiltonian", "1/sqrt(2)*H(2,3)+1/sqrt(2)*H(0,3)",
                "--state", "00",
                "--betas", "0:3.14159:50",
            ],
        )
        assert code == 0 and out.startswith("beta,")

    def test_sweep_header(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--family", "rec4", "--grid", "3x3"])
        lines = out.strip().split("\n")
        assert lines[0] == "family,param1,param2,E_B,E_G,EG_witness_theta,EG_witness_phi"
        assert len(lines) == 10

    def test_reduce_json_fields(self, capsys):
        _, out, _ = run_cli(capsys, ["reduce", "--hamiltonian", "H(1,2)", "--beta", "pi/4"])
        doc = json.loads(out)
        assert set(doc) == {"n", "offblock_norm", "V", "W"}
        assert len(doc["V"]) == 3 and len(doc["W"]) == 1

    def test_hamiltonian_json_field(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"hamiltonian": "sym(X Z P0)"}')
        _, out_file, _ = run_cli(capsys, ["reduce", "--hamiltonian", str(path), "--beta", "0.7"])
        _, out_inline, _ = run_cli(capsys, ["reduce", "--hamiltonian", "sym(X Z P0)", "--beta", "0.7"])
        assert out_file == out_inline

    def test_hamiltonian_json_missing_field(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"n": 3}')
        code, _, err = run_cli(capsys, ["reduce", "--hamiltonian", str(path), "--beta", "0.7"])
        assert code == 3 and "hamiltonian" in err

    @pytest.mark.parametrize("field", ["5", "null", '["X x X"]', '{"expr": "X x X"}',
                                       pytest.param("[" * 100000 + "]" * 100000, id="nested-100000")])
    def test_hamiltonian_json_field_not_a_string(self, capsys, tmp_path, field):
        path = tmp_path / "h.json"
        path.write_text('{"hamiltonian": %s}' % field)
        code, out, err = run_cli(capsys, ["reduce", "--hamiltonian", str(path), "--beta", "0.7"])
        assert (code, out) == (3, "") and err.startswith("error: cannot read a 'hamiltonian' field from")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        '{"n": 1e400, "dicke": [[1, 0], [0, 0]]}',
        '{"n": 2.9, "dicke": [[1, 0], [0, 0], [0, 0]]}',
        '{"n": "2", "dicke": [[1, 0], [0, 0], [0, 0]]}',
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ])
    def test_state_file_outside_the_contract_exits_3(self, capsys, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["stars", "--state", str(path)])
        assert (code, out) == (3, "") and err.startswith("error: cannot read state file") and err.count("\n") == 1

    def test_random_state_file_reads_back(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        assert main(["random", "--n", "6", "--seed", "3", "--out", str(path)]) == 0
        code, out, _ = run_cli(capsys, ["stars", "--state", str(path)])
        want = st.constellation_to_json(st.state_to_stars(st.state_from_json(path.read_text())))
        assert (code, out) == (0, want + "\n")

    def test_compose_bell(self, capsys):
        _, out, _ = run_cli(capsys, ["compose", "--state", "1", "--state", "0"])
        state = st.state_from_json(out)
        assert st.fidelity(state, st.dicke_state(2, 1)) >= 1 - 1e-12


class TestHelp:
    OPTIONS = {
        "stars": {"--help", "--out", "--format", "--state", "--dicke", "--ghz", "--w", "--bell", "--tetra", "--rec4",
                  "--coherent"},
        "measure": {"--help", "--out", "--format", "--eb", "--eg", "--husimi-grid", "--state", "--dicke", "--ghz", "--w",
                    "--bell", "--tetra", "--rec4", "--coherent"},
        "compose": {"--help", "--out", "--state"},
        "sweep": {"--help", "--out", "--family", "--grid", "--n", "--eb", "--eg", "--husimi-grid"},
        "random": {"--help", "--out", "--n", "--antipodal", "--seed"},
        "evolve": {"--help", "--out", "--hamiltonian", "--betas", "--max-step", "--state", "--dicke", "--ghz", "--w",
                   "--bell", "--tetra", "--rec4", "--coherent"},
        "velocity": {"--help", "--out", "--hamiltonian", "--betas", "--max-step", "--divergence-threshold", "--state",
                     "--dicke", "--ghz", "--w", "--bell", "--tetra", "--rec4", "--coherent"},
        "reduce": {"--help", "--out", "--hamiltonian", "--beta", "--tol"},
    }

    @pytest.mark.parametrize("sub", sorted(OPTIONS))
    def test_help_lists_exactly_these_options(self, capsys, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out)) == self.OPTIONS[sub]

    @pytest.mark.parametrize("sub", ["measure", "sweep", "evolve", "reduce"])
    def test_help_lists_defaults(self, sub):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0

    def test_measure_help_mentions_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["measure", "--help"])
        out = capsys.readouterr().out
        assert "64x128" in out

    def test_reduce_help_mentions_tol(self, capsys):
        with pytest.raises(SystemExit):
            main(["reduce", "--help"])
        assert "1e-10" in capsys.readouterr().out

    def test_evolve_help_mentions_step(self, capsys):
        with pytest.raises(SystemExit):
            main(["evolve", "--help"])
        assert "0.2" in capsys.readouterr().out


def cli_env(**extra) -> dict:
    """The environment with the source of the imported package first on PYTHONPATH."""
    path = [os.path.dirname(os.path.dirname(st.__file__)), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stellar.cli", "measure", "--dicke", "10", "3", "--eb"],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "E_B = 0.84\n"

    def test_cross_process_determinism(self):
        # different hash seeds must not change output bytes (set iteration
        # order is the classic leak)
        args = [
            sys.executable, "-m", "stellar.cli",
            "reduce", "--hamiltonian", "sym(X Z P0) + 0.5*sym(Y P1 I)", "--beta", "0.9",
        ]
        outputs = []
        for seed in ("0", "4242"):
            proc = subprocess.run(args, capture_output=True, env=cli_env(PYTHONHASHSEED=seed))
            assert proc.returncode == 0
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_import_leaves_secrets_unloaded(self):
        # secrets loads OpenSSL; only a random command without a seed imports it
        code = "import sys, stellar.cli; assert 'secrets' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr


class TestNoScipyAtRunTime:
    """Tied star steps are matched without scipy: neither import stellar nor evolve/velocity load it."""

    LIPKIN7 = "sym(Z Z I I I I I) + 0.5*sym(X I I I I I I)"
    XY_HALF = "-0.5*X x Y + -0.5*Y x X"

    @pytest.mark.parametrize(
        "argv",
        [
            None,
            ["evolve", "--hamiltonian", LIPKIN7, "--coherent", "7", "1.1", "0.4", "--betas", "0:1.5:41"],
            ["velocity", "--hamiltonian", XY_HALF, "--state", "00", "--betas", "0:1.5:40"],
        ],
        ids=["import", "evolve-coherent", "velocity-bitstring"],
    )
    def test_scipy_not_loaded(self, argv):
        # a command also counts its assignment-solver calls: a tied first step must have reached it
        code = (
            "import contextlib, io, sys\n"
            "import stellar\n"
            "if ARGV is not None:\n"
            "    from stellar import dynamics\n"
            "    from stellar.cli import main\n"
            "    calls, solve = [], dynamics._assign\n"
            "    dynamics._assign = lambda cost: calls.append(len(cost)) or solve(cost)\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(ARGV) == 0\n"
            "    assert calls, 'no tied step reached the solver'\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        ).replace("ARGV", repr(argv))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
        assert proc.returncode == 0, proc.stderr
