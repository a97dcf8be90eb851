"""Reference computations the benchmark checks the program against.

Nothing here imports the package under test: every expected value is
computed from the benchmark's own inputs (drawn stars, closed forms,
collective spin matrices) so a wrong answer from the program cannot
also be the expected one.

Conventions follow the package: a qubit is cos(t/2)|0> + e^{i p} sin(t/2)|1>,
a star is that qubit's Bloch vector, Dicke index k counts excitations.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment


def bloch(theta, phi) -> np.ndarray:
    """Unit vectors for arrays of polar angles, shape (..., 3)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


def angles(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.asarray(vectors, dtype=float)
    theta = np.arccos(np.clip(v[..., 2], -1.0, 1.0))
    phi = np.arctan2(v[..., 1], v[..., 0])
    return theta, phi


def max_star_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest geodesic distance (rad) under the optimal star assignment."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    cross = np.linalg.norm(np.cross(got[:, None, :], want[None, :, :]), axis=2)
    cost = np.arctan2(cross, got @ want.T)  # accurate for small angles, unlike arccos
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def e_b_of(vectors: np.ndarray) -> float:
    """Barycentric measure 1 - |mean Bloch vector|^2 of a star list."""
    m = np.asarray(vectors, dtype=float).mean(axis=0)
    return 1.0 - float(m @ m)


def e_b_uniform_sd(n: int) -> float:
    """Standard deviation of E_B for n independent uniform stars.

    |sum v|^2 = n + sum_{i != j} v_i.v_j with uncorrelated pair terms of
    second moment 1/3, so Var(E_B) = 2 n (n-1) / (3 n^4).
    """
    return math.sqrt(2.0 * (n - 1) / (3.0 * n**3))


def dicke_from_stars(vectors: np.ndarray) -> np.ndarray:
    """Normalized Dicke coefficients of the state whose stars are given.

    The coefficient of t^k in prod_j (a_j + b_j t) is C(n,k)^(1/2) d_k,
    which is the symmetrized product of the star qubits.
    """
    theta, phi = angles(vectors)
    coeffs = np.array([1.0 + 0.0j])
    for t, p in zip(theta, phi):
        a, b = math.cos(t / 2.0), complex(math.cos(p), math.sin(p)) * math.sin(t / 2.0)
        coeffs = np.concatenate([a * coeffs, [0.0]]) + np.concatenate([[0.0], b * coeffs])
    n = len(theta)
    d = coeffs / np.sqrt([math.comb(n, k) for k in range(n + 1)])
    return d / np.linalg.norm(d)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| of two normalized coefficient vectors."""
    return abs(complex(np.vdot(a, b)))


def husimi(d: np.ndarray, theta, phi) -> np.ndarray:
    """|<coherent(theta, phi)|psi>|^2 on a (theta x phi) tensor grid.

    Returns shape (len(theta), len(phi)); scalars give a 1x1 array.
    """
    d = np.asarray(d, dtype=complex)
    n = d.size - 1
    k = np.arange(n + 1)
    half = 0.5 * np.atleast_1d(np.asarray(theta, dtype=float))[:, None]
    sqrt_binom = np.sqrt([float(math.comb(n, j)) for j in k])
    radial = sqrt_binom * np.cos(half) ** (n - k) * np.sin(half) ** k  # (T, n+1)
    phase = np.exp(-1j * np.outer(k, np.atleast_1d(np.asarray(phi, dtype=float))))  # (n+1, P)
    f = (radial * d) @ phase
    return f.real**2 + f.imag**2


def husimi_grid_max(d: np.ndarray, n_theta: int = 181, n_phi: int = 360) -> float:
    """Largest Husimi value on a fine grid; a lower bound on the true maximum."""
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    return float(husimi(d, thetas, phis).max())


def e_g_dicke(n: int, k: int) -> float:
    """-log2[C(n,k) (k/n)^k ((n-k)/n)^(n-k)] with 0^0 = 1."""
    p = math.comb(n, k)
    if 0 < k:
        p *= (k / n) ** k
    if k < n:
        p *= ((n - k) / n) ** (n - k)
    return -math.log2(p)


def collective_spin(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J_z, J_x and J_y in the Dicke basis |D_k>, k = 0..n excitations."""
    k = np.arange(n + 1, dtype=float)
    jz = np.diag(n / 2.0 - k)
    off = 0.5 * np.sqrt((k[:-1] + 1.0) * (n - k[:-1]))
    jx = np.diag(off, 1) + np.diag(off, -1)
    jy = np.diag(-1j * off, 1) + np.diag(1j * off, -1)
    return jz, jx, jy


def lipkin_block(n: int, field: float, alpha: float) -> np.ndarray:
    """Dicke block of sym(Z Z I..) + field [cos(alpha) sym(X I..) + sin(alpha) sym(Y I..)].

    That is 2 J_z^2 - n/2 + 2 field (cos(alpha) J_x + sin(alpha) J_y).
    """
    jz, jx, jy = collective_spin(n)
    transverse = math.cos(alpha) * jx + math.sin(alpha) * jy
    return 2.0 * jz @ jz - 0.5 * n * np.eye(n + 1) + 2.0 * field * transverse


def coherent(n: int, theta: float, phi: float) -> np.ndarray:
    """Dicke coefficients of |q>^n for the qubit at (theta, phi)."""
    return dicke_from_stars(np.repeat(bloch(theta, phi)[None, :], n, axis=0))


def propagate(h_block: np.ndarray, psi0: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """exp(-i beta H) psi0 for every beta, shape (len(betas), n+1)."""
    lam, q = np.linalg.eigh(h_block)
    c0 = q.conj().T @ psi0
    return (np.exp(-1j * np.outer(betas, lam)) * c0) @ q.T


def exp_block(h_block: np.ndarray, beta: float) -> np.ndarray:
    """exp(-i beta H) of a Hermitian block."""
    lam, q = np.linalg.eigh(h_block)
    return (q * np.exp(-1j * beta * lam)) @ q.conj().T


def reduce_blocks_sym_xzp0(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form V and W blocks of exp(-i beta sym(X Z P0)) on 3 qubits."""
    sq3 = math.sqrt(3.0)
    c4, s4 = math.cos(4 * beta), math.sin(4 * beta)
    cb, sb = math.cos(beta), math.sin(beta)
    v = np.array(
        [
            [(1 + 3 * c4) / 4, -0.5j * sq3 * s4, 2 * sq3 * (cb * sb) ** 2, 0],
            [-0.5j * sq3 * s4, c4, 0.5j * s4, 0],
            [2 * sq3 * (cb * sb) ** 2, 0.5j * s4, (3 + c4) / 4, 0],
            [0, 0, 0, 1],
        ]
    )
    w = np.array(
        [
            [cb, 0, -0.5j * sb, 0.5j * sq3 * sb],
            [0, cb, 0.5j * sq3 * sb, 0.5j * sb],
            [-0.5j * sb, 0.5j * sq3 * sb, cb, 0],
            [0.5j * sq3 * sb, 0.5j * sb, 0, cb],
        ]
    )
    return v, w


def xy_half_velocity(theta: np.ndarray) -> np.ndarray:
    """Closed-form dtheta/dbeta of the XY/2 flow from |00>."""
    return (3.0 + np.cos(2.0 * theta)) / (2.0 * np.sin(np.clip(theta, 1e-12, None)))
