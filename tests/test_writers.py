"""The CSV and JSON writers against the one-number-at-a-time loops they replaced.

The reference writers below format each value with ``f"{x + 0.0:.17g}"``,
as every writer of the package once did on its own; the package now writes
whole columns and rows through ``states._csv`` and ``states._complex_json``.
Both must give the same bytes.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra.numpy import arrays

import stellar as st
from stellar import dynamics, states
from stellar.dynamics import BlockDecomposition, Trajectory, VelocityProfile
from stellar.stars import _angles


def _format_float(x: float) -> str:
    return f"{x + 0.0:.17g}"  # +0.0 folds -0.0 into 0.0


def reference_trajectory_csv(traj):
    lines = ["beta,star_index,theta,phi,x,y,z,e_b"]
    thetas, phis = _angles(traj.stars)
    for t, beta in enumerate(traj.betas):
        for i in range(traj.stars.shape[1]):
            x, y, z = traj.stars[t, i]
            lines.append(
                ",".join(
                    [_format_float(beta), str(i)]
                    + [_format_float(v) for v in (thetas[t, i], phis[t, i], x, y, z, traj.e_b[t])]
                )
            )
    return "\n".join(lines) + "\n"


def reference_velocity_csv(profile):
    lines = ["beta,star_index,dtheta_dbeta,flag"]
    for t, beta in enumerate(profile.betas):
        for i in range(profile.dtheta.shape[1]):
            lines.append(
                ",".join(
                    [
                        _format_float(beta),
                        str(i),
                        _format_float(profile.dtheta[t, i]),
                        "1" if profile.flags[t, i] else "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def reference_constellation_csv(c):
    lines = ["star_index,theta,phi,x,y,z"]
    for i, s in enumerate(c.stars):
        lines.append(",".join([str(i)] + [_format_float(v) for v in (s.theta, s.phi, s.x, s.y, s.z)]))
    return "\n".join(lines) + "\n"


def reference_constellation_json(c):
    entries = ", ".join(
        f'{{"theta": {_format_float(s.theta)}, "phi": {_format_float(s.phi)}}}' for s in c.stars
    )
    return f'{{"n": {c.n}, "stars": [{entries}]}}'


def reference_complex_json(v):
    return "[" + ", ".join(f"[{_format_float(z.real)}, {_format_float(z.imag)}]" for z in v) + "]"


def reference_state_json(state):
    return f'{{"n": {state.n}, "dicke": {reference_complex_json(state.d)}}}'


def reference_block_json(block):
    def matrix(m):
        return "[" + ", ".join(reference_complex_json(row) for row in m) + "]"

    return (
        f'{{"n": {block.n}, "offblock_norm": {_format_float(block.offblock_norm)}, '
        f'"V": {matrix(block.V)}, "W": {matrix(block.W)}}}'
    )


# the edges of %.17g: signed zeros, subnormals, the ends of the range, integer-valued floats
_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308,
          1.7976931348623157e308, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e17, 0.1, 1 / 3]
FLOATS = hs.one_of(hs.sampled_from(_EDGES), hs.floats(), hs.integers(-(2**62), 2**62).map(float))
SIZES = hs.integers(1, 5)
CHUNKS = hs.sampled_from([1, 2, 3, states._CSV_ROWS])


def float_arrays(shape, elements=FLOATS):
    return arrays(np.float64, shape, elements=elements)


@hs.composite
def complex_arrays(draw, shape, elements=FLOATS):
    a = np.empty(shape, dtype=complex)
    a.real, a.imag = draw(float_arrays(shape, elements)), draw(float_arrays(shape, elements))  # keeps signed zeros
    return a


@given(m=SIZES, n=SIZES, data=hs.data(), chunk=CHUNKS)
@settings(max_examples=150, deadline=None)
def test_trajectory_csv(m, n, data, chunk):
    traj = Trajectory(
        betas=data.draw(float_arrays(m)),
        states=(),
        stars=data.draw(float_arrays((m, n, 3))),
        e_b=data.draw(float_arrays(m)),
        discontinuity=np.zeros(m, dtype=bool),
    )
    with mock.patch.object(states, "_CSV_ROWS", chunk):
        assert dynamics.trajectory_to_csv(traj) == reference_trajectory_csv(traj)


@given(m=SIZES, n=SIZES, data=hs.data(), chunk=CHUNKS)
@settings(max_examples=150, deadline=None)
def test_velocity_csv(m, n, data, chunk):
    profile = VelocityProfile(
        betas=data.draw(float_arrays(m)),
        dtheta=data.draw(float_arrays((m, n))),
        flags=data.draw(arrays(bool, (m, n))),
    )
    with mock.patch.object(states, "_CSV_ROWS", chunk):
        assert dynamics.velocity_to_csv(profile) == reference_velocity_csv(profile)


@given(
    angles=hs.lists(hs.tuples(hs.floats(0.0, np.pi), hs.floats(-10.0, 10.0)), min_size=1, max_size=8),
    chunk=CHUNKS,
)
@settings(max_examples=100, deadline=None)
def test_constellation_writers(angles, chunk):
    c = st.Constellation(len(angles), tuple(st.Star.from_angles(t, p) for t, p in angles))
    assert st.constellation_to_json(c) == reference_constellation_json(c)
    with mock.patch.object(states, "_CSV_ROWS", chunk):
        assert st.constellation_to_csv(c) == reference_constellation_csv(c)


@given(shape=hs.one_of(SIZES, hs.tuples(SIZES, SIZES)), data=hs.data())
@settings(max_examples=150, deadline=None)
def test_complex_json(shape, data):
    a = data.draw(complex_arrays(shape))
    want = reference_complex_json(a) if a.ndim == 1 else "[" + ", ".join(map(reference_complex_json, a)) + "]"
    assert states._complex_json(a) == want


@given(data=hs.data(), n=SIZES, w=hs.integers(0, 4), norm=FLOATS)
@settings(max_examples=100, deadline=None)
def test_block_json(data, n, w, norm):
    block = BlockDecomposition(n, data.draw(complex_arrays((n + 1, n + 1))), data.draw(complex_arrays((w, w))), norm)
    assert dynamics.block_to_json(block) == reference_block_json(block)


@given(n=SIZES, data=hs.data())
@settings(max_examples=100, deadline=None)
def test_state_json(n, data):
    d = data.draw(complex_arrays(n + 1, hs.floats(-1e100, 1e100)).filter(lambda d: np.abs(d).max() > 1e-100))
    state = st.SymmetricState(n, d)
    assert st.state_to_json(state) == reference_state_json(state)


def test_csv_string_columns_and_chunk_edges():
    rows = 2 * states._CSV_ROWS + 1
    values = np.arange(rows) - 0.0
    text = states._csv("i,v", [[str(i) for i in range(rows)], -values])
    assert text.splitlines() == ["i,v", *(f"{i},{_format_float(-float(i))}" for i in range(rows))]
    assert text.endswith("\n") and not text.endswith("\n\n")
