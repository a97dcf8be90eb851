"""One byte budget, errors.MAX_MATRIX_BYTES, refuses every oversized request with its own message."""

import re
import tracemalloc

import numpy as np
import pytest

import stellar as st
from stellar import errors
from stellar.cli import _check_sweep_rows, main
from stellar.errors import ResourceError
from stellar.hamiltonians import MAX_MATRIX_BYTES, parse

XY_HALF = "-0.5*X x Y + -0.5*Y x X"


def test_hamiltonians_reexports_the_budget():
    assert MAX_MATRIX_BYTES == errors.MAX_MATRIX_BYTES == 2**30


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: st.build_matrix(parse("X x X x X")), "a dense 3-qubit matrix needs 1024 bytes"),
        (lambda: st.build_transition(3), "a 3-qubit transition basis needs 1024 bytes"),
        (lambda: st.e_g(st.dicke_state(2, 1), grid=(4, 8)), "a 4x8 Husimi grid needs 1600 bytes"),
        (lambda: st.evolve(st.build_matrix(parse(XY_HALF)), st.dicke_state(2, 0), np.linspace(0.0, 0.1, 2)),
         "2 frames on 2 qubits need 1152 bytes"),
        (lambda: _check_sweep_rows(7), "a sweep of 7 points needs up to 1127 bytes"),
        (lambda: st.exponentiate(np.eye(8), 0.1), "exponentiating a 3-qubit matrix needs 6144 bytes"),
        (lambda: st.reduce_unitary(np.eye(8)), "reducing a 3-qubit unitary needs 6144 bytes"),
        (lambda: st.dicke_state(20, 3), "a 20-qubit Dicke state needs 1008 bytes"),
        (lambda: st.ghz_state(20), "a 20-qubit GHZ state needs 1008 bytes"),
    ],
)
def test_messages(monkeypatch, call, message):
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", 1000)
    with pytest.raises(ResourceError) as info:
        call()
    assert str(info.value) == f"{message}, above the limit of 1000 bytes"


# embed_full and project_sym, with their counted bytes per amplitude
FULL_STATE_CALLS = [
    pytest.param(lambda s, f: st.embed_full(s), 34, id="embed_full"),
    pytest.param(lambda s, f: st.project_sym(f), 24, id="project_sym"),
]


@pytest.mark.parametrize("call, per_amplitude", FULL_STATE_CALLS)
def test_embed_and_project_refused_before_allocating(monkeypatch, call, per_amplitude):
    state = st.coherent_state(12, st.QubitState(1.1, 0.4))
    full = st.embed_full(state)
    need = per_amplitude * 2**12
    # compiled before tracing: a pattern that other tests pushed out of re's cache costs about 1.5 KiB to compile
    message = re.compile(f"12-qubit state needs {need} bytes")
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=message):
            call(state, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**12  # nothing of the size of a full state


@pytest.mark.parametrize("call, per_amplitude", FULL_STATE_CALLS)
def test_embed_and_project_peak_within_counted_bytes(monkeypatch, call, per_amplitude):
    state = st.coherent_state(14, st.QubitState(1.1, 0.4))
    full = st.embed_full(state)
    call(state, full)  # warm the caches
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", per_amplitude * 2**14)  # the counted bytes just fit
    tracemalloc.start()
    try:
        call(state, full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_amplitude * 2**14


@pytest.mark.parametrize("call", [lambda n: st.dicke_state(n, 3), st.ghz_state])
def test_dicke_and_ghz_refused_before_allocating(monkeypatch, call):
    need = 48 * (4096 + 1)
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=f"4096-qubit .* state needs {need} bytes"):
            call(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4096  # not even the row
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", need)
    assert call(4096).n == 4096


def test_message_at_the_real_budget():
    with pytest.raises(ResourceError) as info:
        st.build_matrix(parse("sym(Z Z" + " I" * 12 + ")"))
    assert str(info.value) == "a dense 14-qubit matrix needs 4294967296 bytes, above the limit of 1073741824 bytes"


def test_dense_dynamics_refused_before_allocating(monkeypatch, capsys):
    # a budget that the 3-qubit matrix (1024 bytes) fits and exp(-i*beta*H) and its reduction (6144) do not
    h = st.build_matrix(parse("sym(X Z I)"))
    u = st.exponentiate(h, 0.7)
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", 4096)
    message = re.compile("needs 6144 bytes")  # compiled before tracing, as above
    for call in (lambda: st.exponentiate(h, 0.7), lambda: st.reduce_unitary(u)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=message):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6144
    assert main(["reduce", "--hamiltonian", "sym(X Z I)", "--beta", "0.7"]) == 3
    assert capsys.readouterr().out == ""
