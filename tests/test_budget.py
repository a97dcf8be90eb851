"""One byte budget, errors.MAX_MATRIX_BYTES, refuses every oversized request with its own message."""

import numpy as np
import pytest

import stellar as st
from stellar import errors
from stellar.cli import _check_sweep_rows
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
    ],
)
def test_messages(monkeypatch, call, message):
    monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", 1000)
    with pytest.raises(ResourceError) as info:
        call()
    assert str(info.value) == f"{message}, above the limit of 1000 bytes"


def test_message_at_the_real_budget():
    with pytest.raises(ResourceError) as info:
        st.build_matrix(parse("sym(Z Z" + " I" * 12 + ")"))
    assert str(info.value) == "a dense 14-qubit matrix needs 4294967296 bytes, above the limit of 1073741824 bytes"
