import math

import numpy as np
import pytest

import stellar as st
from stellar import states


def haar_state(n: int, rng: np.random.Generator) -> st.SymmetricState:
    """Random state with Haar-uniform Dicke coefficients."""
    return st.SymmetricState(n, rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1))


def uniform_qubit(rng: np.random.Generator) -> st.QubitState:
    return st.QubitState(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def uniform_star(rng: np.random.Generator) -> st.Star:
    q = uniform_qubit(rng)
    return st.Star.from_angles(q.theta, q.phi)


def match_constellations(a: st.Constellation, b: st.Constellation) -> float:
    """Max geodesic error between two constellations under optimal assignment."""
    from scipy.optimize import linear_sum_assignment

    va, vb = a.as_array(), b.as_array()
    cost = np.arccos(np.clip(va @ vb.T, -1.0, 1.0))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def transposition_index_maps(n: int):
    """Index permutations of a 2**n amplitude array, one per qubit transposition.

    The original gathered form of the transposition check, kept as a
    reference for the strided views the package uses.
    """
    idx = np.arange(2**n)
    for i in range(n):
        for j in range(i + 1, n):
            bi = (idx >> (n - 1 - i)) & 1
            bj = (idx >> (n - 1 - j)) & 1
            differ = bi ^ bj
            mask = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
            yield idx ^ (differ * mask)


def generator_maps(n: int):
    """Index maps of the transposition (0 1) and of the cycle of all n qubits.

    The cycle moves qubit 0's bit to the lowest place: x -> (2x mod 2**n) + (x >> (n-1)).
    """
    idx = np.arange(2**n)
    return next(transposition_index_maps(n)), ((idx << 1) & (2**n - 1)) | (idx >> (n - 1))


def orbit_constant(n: int, maps, rng: np.random.Generator, matrix: bool = False) -> np.ndarray:
    """Random complex vector (or matrix, rows and columns permuted together)
    that is exactly constant on each orbit of the group the index maps generate."""
    dim = 2**n
    if matrix:
        maps = [(p[:, None] * dim + p[None, :]).reshape(-1) for p in maps]
    size = dim * dim if matrix else dim
    label = np.arange(size)
    while True:
        new = label
        for p in maps:
            new = np.minimum(new, new[p])
        if np.array_equal(new, label):
            break
        label = new
    values = rng.normal(size=size) + 1j * rng.normal(size=size)
    out = values[label]
    return out.reshape(dim, dim) if matrix else out


@pytest.fixture
def pair_axes_calls(monkeypatch):
    """A one-item list that counts calls of the _pair_axes view that the one
    transposition check in states makes for vectors and matrices alike."""
    count = [0]
    view = states._pair_axes

    def counting(*args):
        count[0] += 1
        return view(*args)

    monkeypatch.setattr(states, "_pair_axes", counting)
    return count
