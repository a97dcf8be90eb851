import math

import numpy as np

import stellar as st


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
