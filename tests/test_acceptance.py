"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math

import numpy as np
from conftest import haar_state, match_constellations, uniform_star

import stellar as st
from stellar.cli import main as cli_main
from stellar.hamiltonians import parse

SQ2, SQ3 = math.sqrt(2), math.sqrt(3)
TETRA_THETA = math.acos(1 / SQ3)
PAIR_FLOW = "1/sqrt(2)*H(2,3) + 1/sqrt(2)*H(0,2)"
XY_HALF = "-0.5*X x Y + -0.5*Y x X"


def report(num: int, text: str):
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_criterion_01_two_qubit_family():
    thetas = np.linspace(0.0, math.pi, 181)
    worst_formula = 0.0
    worst_order = -math.inf
    for theta in thetas:
        s = st.symmetrize([st.QubitState(0, 0), st.QubitState(theta, 0)])
        eb = st.e_b(s)
        worst_formula = max(worst_formula, abs(eb - (1 - math.cos(theta / 2) ** 2)))
        eg = st.e_g(s).value
        worst_order = max(worst_order, eg - eb)
        if theta in (thetas[0], thetas[-1]):
            assert abs(eb - eg) <= 1e-7
    assert worst_formula <= 1e-12
    assert worst_order <= 1e-7
    report(1, f"pair family: |E_B - formula| <= {worst_formula:.1e}, E_B >= E_G pointwise")


def test_criterion_02_three_qubit_family():
    thetas = np.linspace(0.0, math.pi, 181)
    values = []
    worst = 0.0
    for theta in thetas:
        s = st.symmetrize(
            [st.QubitState(0, 0), st.QubitState(theta, math.pi), st.QubitState(theta, 0)]
        )
        eb = st.e_b(s)
        values.append(eb)
        worst = max(worst, abs(eb - (1 - ((2 * math.cos(theta) + 1) / 3) ** 2)))
    assert worst <= 1e-12
    values = np.array(values)
    i_star = int(np.argmin(np.abs(thetas - 2 * math.pi / 3)))
    assert abs(thetas[i_star] - 2 * math.pi / 3) <= 1e-12
    assert values[i_star] >= 1 - 1e-12
    assert values.max() <= values[i_star] + 1e-15
    report(2, f"triple family: formula error <= {worst:.1e}, maximum 1 at theta=2pi/3")


def test_criterion_03_dicke_states():
    worst_d = 0.0
    for n in range(1, 21):
        for k in range(n + 1):
            d = st.barycenter(st.state_to_stars(st.dicke_state(n, k))).d
            worst_d = max(worst_d, abs(d - abs(n - 2 * k) / n))
    assert worst_d <= 1e-12

    worst_eg = 0.0
    extremal = {}
    for n in (10, 11):
        eg = np.array([st.e_g(st.dicke_state(n, k)).value for k in range(n + 1)])
        closed = np.array([st.e_g_dicke(n, k).value for k in range(n + 1)])
        worst_eg = max(worst_eg, float(np.abs(eg - closed).max()))
        eb = np.array([st.e_b(st.dicke_state(n, k)) for k in range(n + 1)])
        extremal[n] = (
            set(np.nonzero(eg >= eg.max() - 1e-9)[0].tolist()),
            set(np.nonzero(eb >= eb.max() - 1e-12)[0].tolist()),
        )
    assert extremal[10] == ({5}, {5})
    assert extremal[11] == ({5, 6}, {5, 6})
    assert worst_eg <= 1e-8
    report(3, f"Dicke: radius exact to {worst_d:.1e}, optimizer vs closed form {worst_eg:.1e}")


def test_criterion_04_named_values():
    checks = [
        ("GHZ3", st.e_g(st.ghz_state(3)).value, 1.0),
        ("S(4,2)", st.e_g(st.dicke_state(4, 2)).value, math.log2(8 / 3)),
        ("tetrahedron", st.e_g(st.rec_family_state(TETRA_THETA, math.pi / 2)).value, math.log2(3)),
        ("GHZ4", st.e_g(st.ghz_state(4)).value, 1.0),
    ]
    for name, got, expect in checks:
        assert abs(got - expect) <= 1e-8, name
    report(4, "named geometric measures: GHZ3, S(4,2), tetrahedron, GHZ4")


def test_criterion_05_rectangle_family_surface():
    thetas = np.linspace(0.0, math.pi / 2, 33)
    phis = np.linspace(0.0, math.pi, 33)
    eb_worst = 0.0
    eg = np.empty((33, 33))
    for i, th in enumerate(thetas):
        for j, ph in enumerate(phis):
            s = st.rec_family_state(th, ph)
            eb_worst = max(eb_worst, abs(1.0 - st.e_b(s)))
            eg[i, j] = st.e_g(s).value
    assert eb_worst <= 1e-10
    assert eg.min() >= 1 - 1e-8
    assert eg.max() <= math.log2(3) + 1e-8

    # the GHZ parameter point attains the minimum, and every other minimum
    # is also a GHZ configuration (the meridian square appears at phi=0 and
    # at its mirror phi=pi)
    minima = {(int(i), int(j)) for i, j in zip(*np.nonzero(eg <= eg.min() + 1e-8))}
    assert (32, 16) in minima  # theta=pi/2, phi=pi/2
    assert minima <= {(32, 16), (16, 0), (16, 32)}
    # the maximum sits at the grid point closest to the tetrahedron angles
    i_max, j_max = np.unravel_index(np.argmax(eg), eg.shape)
    i_tet = int(np.argmin(np.abs(thetas - TETRA_THETA)))
    j_tet = int(np.argmin(np.abs(phis - math.pi / 2)))
    assert (abs(i_max - i_tet) <= 1) and (j_max == j_tet)
    report(5, f"rectangle family 33x33: E_B=1 to {eb_worst:.1e}, E_G in [1, log2 3]")


def test_criterion_06_stellar_round_trip():
    rng = np.random.default_rng(606)
    worst_fid = 0.0
    for i in range(1000):
        n = 2 + i % 49
        s = haar_state(n, rng)
        back = st.stars_to_state(st.state_to_stars(s))
        worst_fid = max(worst_fid, 1 - st.fidelity(s, back))
    assert worst_fid <= 1e-9

    worst_geo = 0.0
    for i in range(200):
        n = 2 + i % 29
        c = st.Constellation(n, tuple(uniform_star(rng) for _ in range(n)))
        back = st.state_to_stars(st.stars_to_state(c))
        worst_geo = max(worst_geo, match_constellations(c, back))
    assert worst_geo <= 1e-7

    worst_cluster = 0.0
    for i in range(25):
        n = 3 + i % 6
        mult = 3 + i % 3
        if mult > n:
            mult = n
        base = uniform_star(rng)
        rest = [uniform_star(rng) for _ in range(n - mult)]
        c = st.Constellation(n, tuple([base] * mult + rest))
        back = st.state_to_stars(st.stars_to_state(c))
        worst_cluster = max(worst_cluster, match_constellations(c, back))
    assert worst_cluster <= 1e-5
    report(
        6,
        f"round trips: fidelity deficit {worst_fid:.1e}, geodesic {worst_geo:.1e}, "
        f"multiplicity>=3 {worst_cluster:.1e}",
    )


def test_criterion_07_composition():
    bell = st.compose(st.dicke_state(1, 1), st.dicke_state(1, 0))
    assert st.fidelity(bell, st.dicke_state(2, 1)) >= 1 - 1e-12
    plus = st.SymmetricState(1, [1, 1])
    minus = st.SymmetricState(1, [1, -1])
    assert st.fidelity(st.compose(plus, minus), st.SymmetricState(2, [1, 0, -1])) >= 1 - 1e-12

    rng = np.random.default_rng(707)
    a, b = haar_state(3, rng), haar_state(4, rng)
    ab = st.compose(a, b)
    ratios = []
    while len(ratios) < 200:
        q = st.QubitState(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        qa, qb, qab = st.husimi(a, q), st.husimi(b, q), st.husimi(ab, q)
        if min(qa, qb, qab) < 1e-8:
            continue
        ratios.append(math.log(qab) - math.log(qa) - math.log(qb))
    ratios = np.array(ratios)
    spread = float(np.abs(ratios - ratios.mean()).max())
    assert spread <= 1e-8 * max(1.0, abs(float(ratios.mean())))

    worst = 0.0
    for seed in range(100):
        r = st.make_rng(seed)
        a = st.random_antipodal_state(2 + 2 * (seed % 3), r)
        b = st.random_antipodal_state(2 + 2 * ((seed + 1) % 3), r)
        worst = max(worst, abs(1.0 - st.e_b(st.compose(a, b))))
    assert worst <= 1e-10
    report(7, f"composition: Bell anchors exact, product law {spread:.1e}, maximal pairs {worst:.1e}")


def test_criterion_08_block_reduction():
    h = st.build_matrix(parse("sym(X Z P0)"))
    worst_vw = 0.0
    for beta in (0.3, 0.7, 1.1):
        block = st.reduce_unitary(st.exponentiate(h, beta), tol=1e-10)
        c4, s4 = math.cos(4 * beta), math.sin(4 * beta)
        cb, sb = math.cos(beta), math.sin(beta)
        v = np.array(
            [
                [(1 + 3 * c4) / 4, -0.5j * SQ3 * s4, 2 * SQ3 * (cb * sb) ** 2, 0],
                [-0.5j * SQ3 * s4, c4, 0.5j * s4, 0],
                [2 * SQ3 * (cb * sb) ** 2, 0.5j * s4, (3 + c4) / 4, 0],
                [0, 0, 0, 1],
            ]
        )
        w = np.array(
            [
                [cb, 0, -0.5j * sb, 0.5j * SQ3 * sb],
                [0, cb, 0.5j * SQ3 * sb, 0.5j * sb],
                [-0.5j * sb, 0.5j * SQ3 * sb, cb, 0],
                [0.5j * SQ3 * sb, 0.5j * sb, 0, cb],
            ]
        )
        worst_vw = max(worst_vw, float(np.abs(block.V - v).max()), float(np.abs(block.W - w).max()))
    assert worst_vw <= 1e-10

    rng = np.random.default_rng(808)
    factories = ["I", "X", "Y", "Z", "P0", "P1"]
    worst_off = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        body = " ".join(rng.choice(factories, size=n))
        src = f"{rng.uniform(-2, 2):.6f}*sym({body})"
        hd = st.build_matrix(parse(src))
        block = st.reduce_unitary(st.exponentiate(hd, float(rng.uniform(-3, 3))), tol=1e-10)
        worst_off = max(worst_off, block.offblock_norm)
    assert worst_off <= 1e-10

    h2 = st.build_matrix(parse(PAIR_FLOW))
    beta = 0.7
    cb, sb = math.cos(beta), math.sin(beta)
    expected = np.array(
        [
            [cb, -sb / SQ2, -sb / SQ2, 0],
            [sb / SQ2, (1 + cb) / 2, (-1 + cb) / 2, 0],
            [sb / SQ2, (-1 + cb) / 2, (1 + cb) / 2, 0],
            [0, 0, 0, 1],
        ]
    )
    pair_err = float(np.abs(st.exponentiate(h2, beta) - expected).max())
    assert pair_err <= 1e-10
    report(8, f"reduction: printed blocks {worst_vw:.1e}, off-block {worst_off:.1e}, pair flow {pair_err:.1e}")


def test_criterion_09_xy_half_dynamics():
    h = st.build_matrix(parse(XY_HALF))
    traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, math.pi / 2, 1501))
    th, ph = traj.thetas, traj.phis

    assert np.abs(th[:, 0] - th[:, 1]).max() <= 1e-8
    interior = (th[:, 0] > 0.05) & (th[:, 0] < math.pi - 0.05)
    dphi = np.remainder(ph[interior, 0] - ph[interior, 1], 2 * math.pi)
    assert np.abs(dphi - math.pi).max() <= 1e-8
    end = int(np.argmin(np.abs(traj.betas - math.pi / 2)))
    assert th[end].min() >= math.pi - 1e-9

    prof = st.velocity_profile(traj)
    window = (traj.betas > 0.1) & (traj.betas < math.pi / 2 - 0.1)
    closed = (3 + np.cos(2 * th[:, 0])) / (2 * np.sin(np.clip(th[:, 0], 1e-12, None)))
    vel_err = float(np.abs(prof.dtheta[window, 0] - closed[window]).max())
    assert vel_err <= 1e-4
    i_min = window.nonzero()[0][int(np.argmin(prof.dtheta[window, 0]))]
    assert abs(prof.dtheta[i_min, 0] - 1.0) <= 1e-4
    assert abs(th[i_min, 0] - math.pi / 2) <= 2e-3
    # divergence windows flagged at both poles, none in the interior window
    assert prof.flags[:4, 0].all() and prof.flags[-4:, 0].all()
    assert not prof.flags[window, 0].any()

    corr_win = (traj.betas > 0.05) & (traj.betas < math.pi / 2 - 0.05)
    r = float(np.corrcoef(traj.e_b[corr_win], np.abs(prof.dtheta[corr_win, 0]))[0, 1])
    assert r <= -0.9
    report(9, f"XY/2 flow: velocity error {vel_err:.1e}, Pearson r = {r:.3f}")


def test_criterion_10_pair_flow_dynamics():
    h = st.build_matrix(parse(PAIR_FLOW))
    betas = np.linspace(0.002, math.pi / 2, 2001)
    traj = st.evolve(h, st.dicke_state(2, 0), betas)

    worst_fid = 0.0
    for beta, state in zip(traj.betas, traj.states):
        target = st.SymmetricState(2, [math.cos(beta), math.sin(beta), 0])
        worst_fid = max(worst_fid, 1 - st.fidelity(state, target))
    assert worst_fid <= 1e-10
    assert traj.thetas.min(axis=1).max() <= 1e-10  # one star never leaves the pole

    prof = st.velocity_profile(traj, divergence_threshold=10.0)
    moving = int(np.argmax(traj.thetas.sum(axis=0)))
    v = prof.dtheta[:, moving]
    i_min = int(np.argmin(v))
    assert i_min == v.size - 1  # minimum at beta = pi/2
    assert abs(v[i_min] - SQ2) <= 1e-6
    assert v.max() <= 2 * SQ2 + 1e-6
    assert v.max() >= 2 * SQ2 - 1e-4
    assert int(np.argmax(v)) == 0  # supremum approached toward beta = 0
    report(10, f"pair flow: fidelity deficit {worst_fid:.1e}, V(pi/2) = {v[i_min]:.9f}")


def test_criterion_11_random_ensembles():
    worst = 0.0
    for seed in range(1000):
        n = (2, 4, 6, 8)[seed % 4]
        s = st.random_antipodal_state(n, st.make_rng(seed))
        worst = max(worst, abs(1.0 - st.e_b(s)))
    assert worst <= 1e-12

    n, draws = 10, 10000
    rng = st.make_rng(111)
    values = np.array([st.e_b(st.random_state(n, rng)) for _ in range(draws)])
    se = float(values.std(ddof=1)) / math.sqrt(draws)
    deviation = abs(float(values.mean()) - (1 - 1 / n))
    assert deviation <= 3 * se
    report(11, f"ensembles: antipodal E_B dev {worst:.1e}, mean E_B off by {deviation:.5f} ({se:.5f} SE)")


def test_criterion_12_rotation_invariance():
    rng = np.random.default_rng(1212)
    rotations = [
        (uniform_star(rng), float(rng.uniform(0, 2 * math.pi))) for _ in range(100)
    ]
    worst_eb = worst_eg = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = haar_state(n, rng)
        eb0 = st.e_b(s)
        eg0 = st.e_g(s).value
        for axis, angle in rotations:
            rotated = st.rotate_state(s, axis, angle)
            worst_eb = max(worst_eb, abs(st.e_b(rotated) - eb0))
            worst_eg = max(worst_eg, abs(st.e_g(rotated).value - eg0))
    assert worst_eb <= 1e-12
    assert worst_eg <= 1e-7
    report(12, f"rotations: E_B drift {worst_eb:.1e}, E_G drift {worst_eg:.1e}")


def test_criterion_13_cli_determinism(capsys):
    commands = [
        ["measure", "--dicke", "10", "3", "--eb", "--eg"],
        ["random", "--n", "8", "--seed", "123456789"],
        ["sweep", "--family", "dicke", "--n", "6", "--eg"],
        ["evolve", "--hamiltonian", XY_HALF, "--state", "00", "--betas", "0:1.5707:60"],
        ["reduce", "--hamiltonian", "sym(X Z P0)", "--beta", "1.1"],
    ]
    for args in commands:
        outputs = []
        for _ in range(2):
            assert cli_main(args) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1] and outputs[0]
    with capsys.disabled():
        report(13, f"CLI determinism over {len(commands)} commands, byte-identical reruns")
