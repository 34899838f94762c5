import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from pixelport import fock
from pixelport.fock import (
    MAX_DIM,
    MAX_PHOTO_DIM,
    bell_completeness,
    bell_probability_density,
    coherent_state,
    create,
    destroy,
    displacement,
    joint_state,
    momentum_op,
    oracle_average_fidelity,
    photocurrent_check,
    position_op,
    project_bell,
    run_all_checks,
    tail_population,
    two_mode_squeezed,
    verify_eigen_relations,
)


def gaussian_density(r, dist):
    c2 = math.cosh(r) ** 2
    return math.exp(-(dist**2) / c2) / (math.pi * c2)


def expm_displacement(beta, dim):
    """Reference: the displacement generator exponentiated by scipy."""
    a = destroy(dim)
    return expm(beta * a.conj().T - np.conjugate(beta) * a)


def embed(op, mode, dim):
    """Reference: a single-mode operator as a dense three-mode kron product."""
    out = np.array([[1.0 + 0.0j]])
    for m in range(3):
        out = np.kron(out, op if m == mode else np.eye(dim))
    return out


def test_ladder_commutator_below_edge():
    dim = 25
    a = destroy(dim)
    comm = a @ create(dim) - create(dim) @ a
    assert np.allclose(np.diag(comm)[: dim - 1], 1.0, rtol=0, atol=1e-14)
    # the top level shows the truncation
    assert np.diag(comm)[dim - 1] == pytest.approx(1.0 - dim, rel=1e-15)


def test_quadrature_operators_hermitian():
    for op in (position_op(12), momentum_op(12)):
        assert np.allclose(op, op.conj().T)


def test_coherent_vacuum():
    c = coherent_state(0.0, 10)
    assert c[0] == 1.0
    assert np.all(c[1:] == 0.0)


def test_coherent_mean_photon_number():
    alpha = 1.2 - 0.7j
    c = coherent_state(alpha, 60)
    n_mean = float(np.sum(np.arange(60) * np.abs(c) ** 2))
    assert n_mean == pytest.approx(abs(alpha) ** 2, rel=1e-10)


def test_coherent_overlap_identity():
    dim = 40
    a1, a2 = 0.8 + 0.3j, -0.4 + 0.9j
    ov = abs(np.vdot(coherent_state(a1, dim), coherent_state(a2, dim))) ** 2
    assert ov == pytest.approx(math.exp(-abs(a1 - a2) ** 2), rel=1e-10)


def test_coherent_tail_warning():
    with pytest.warns(UserWarning, match="loses"):
        coherent_state(3.0, 12)


def test_displacement_unitary_and_generates_coherent():
    dim = 40
    alpha = 0.7 - 0.2j
    d = displacement(alpha, dim)
    assert np.allclose(d @ d.conj().T, np.eye(dim), atol=1e-12)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    assert np.allclose(d @ vac, coherent_state(alpha, dim), atol=1e-12)


@pytest.mark.parametrize("dim", [10, 30, 48])
def test_displacement_matches_expm(dim):
    for beta in (0.0, 0.35j, -1.2j, 0.7 - 0.2j, -2.1 + 1.4j, 4.0 + 4.05j, -5.7):
        assert np.max(np.abs(displacement(beta, dim) - expm_displacement(beta, dim))) < 1e-12


def test_displacement_broadcasts_over_beta():
    betas = np.array([[0.0, 0.4 - 1.1j, 2.0j], [-0.3, 1.5 + 0.5j, 5.0 - 2.6j]])
    d = displacement(betas, 16)
    assert d.shape == (2, 3, 16, 16)
    for idx in np.ndindex(betas.shape):
        assert np.allclose(d[idx], displacement(betas[idx], 16), rtol=0, atol=1e-14)
    assert displacement(np.zeros(0), 7).shape == (0, 7, 7)


@pytest.mark.parametrize("dim", [30, 160])
def test_rotation_factors_match_per_level_exp(dim):
    # rot[n] = e^{i n arg(beta)} is a running product; the reference takes one complex exp per level
    angles = np.concatenate([np.linspace(-math.pi, math.pi, 721)[1:], [0.5 * math.pi, -0.5 * math.pi, 1e-300]])
    beta = np.concatenate([np.geomspace(1e-3, 12.0, angles.size) * np.exp(1j * angles), [0.0, -2.0, -0.5 - 0.0j]])
    _, _, rot = fock._displacement_factors(beta, dim)
    want = np.exp(1j * np.angle(beta)[:, None] * np.arange(dim))
    assert rot.shape == (beta.size, dim)
    assert np.max(np.abs(rot - want)) < 1e-13
    assert np.all(rot[-3] == 1.0)


def test_two_mode_squeezed_vacuum_limit():
    m = two_mode_squeezed(0.0, 8)
    want = np.zeros((8, 8))
    want[0, 0] = 1.0
    assert np.array_equal(m, want)


def test_two_mode_squeezed_norm_deficit():
    r, dim = 1.0, 30
    m = two_mode_squeezed(r, dim)
    deficit = 1.0 - float(np.vdot(m, m).real)
    assert deficit == pytest.approx(math.tanh(r) ** (2 * dim), rel=1e-10)


def test_two_mode_squeezed_mean_photons():
    r, dim = 0.8, 50
    m = two_mode_squeezed(r, dim)
    pops = np.abs(np.diag(m)) ** 2
    n_mean = float(np.sum(np.arange(dim) * pops))
    assert n_mean == pytest.approx(math.sinh(r) ** 2, rel=1e-12)


def test_two_mode_squeezed_warns_when_truncated():
    with pytest.warns(UserWarning, match="loses"):
        two_mode_squeezed(2.0, 20)


def test_two_mode_squeezed_rejects_negative():
    with pytest.raises(ValueError):
        two_mode_squeezed(-0.1, 10)


def test_tail_population_vacuumish():
    c = coherent_state(0.5, 30)
    assert tail_population(c) < 1e-15
    assert tail_population(np.zeros(10)) == 0.0


def test_project_bell_no_entanglement_leaves_vacuum():
    dim = 20
    joint = joint_state(0.4 + 0.1j, 0.0, dim)
    for beta in (0.0, 0.3 - 0.5j, 1.0 + 1.0j):
        proj = project_bell(joint, beta)
        assert abs(proj.state[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(proj.state[1:]) < 1e-12)


def test_project_bell_conditional_state_example():
    dim = 30
    proj = project_bell(joint_state(0.5, 1.0, dim), 0.2)
    zeta = math.tanh(1.0) * (0.5 - 0.2)
    ov = abs(np.vdot(coherent_state(zeta, dim), proj.state)) ** 2
    assert ov >= 0.999


def test_project_bell_density_is_norm_squared():
    dim = 25
    proj = project_bell(joint_state(0.3, 0.7, dim), 0.4 + 0.2j)
    assert proj.density == pytest.approx(proj.norm**2, rel=1e-15)
    assert np.linalg.norm(proj.state) == pytest.approx(1.0, rel=1e-12)


def per_outcome_bell(joint, beta):
    """Reference: dense expm displacement and one einsum over the joint state per outcome."""
    d = expm_displacement(beta, joint.shape[0])
    return np.einsum("cs,sbc->b", d.conj(), joint) / math.sqrt(math.pi)


BELL_OUTCOMES = np.array([0.0, 0.2, -0.7 + 0.4j, 1.5j, -2.0, 2.5 - 1.0j])


@pytest.mark.filterwarnings("ignore:two-mode squeezed")
@pytest.mark.parametrize("dim", [10, 30, 60])
def test_bell_batch_matches_per_outcome_expm_reference(dim):
    alpha, r = 0.3 - 0.2j, 0.8
    product = joint_state(alpha, r, dim)
    u, raw = fock._bell_rows(alpha, r, BELL_OUTCOMES, dim)
    assert u.shape == raw.shape == (BELL_OUTCOMES.size, dim)
    for beta, u_row, row in zip(BELL_OUTCOMES, u, raw):
        want = per_outcome_bell(product, beta)
        assert np.max(np.abs(row - want)) < 1e-12
        assert np.max(np.abs(u_row - expm_displacement(beta, dim).conj().T @ coherent_state(alpha, dim))) < 1e-12
        assert abs(bell_probability_density(alpha, r, beta, dim) - float(np.vdot(want, want).real)) < 1e-12
    # project_bell takes any three-mode state, the product one and a random one
    rng = np.random.default_rng(dim)
    noise = rng.normal(size=(dim,) * 3) + 1j * rng.normal(size=(dim,) * 3)
    for joint in (product, noise / np.linalg.norm(noise)):
        for beta in BELL_OUTCOMES:
            want = per_outcome_bell(joint, beta)
            density = float(np.vdot(want, want).real)
            proj = project_bell(joint, beta)
            assert abs(proj.density - density) < 1e-12
            assert np.max(np.abs(proj.state - want / math.sqrt(density))) < 1e-12


def test_project_bell_rejects_wrong_mode_count():
    with pytest.raises(ValueError, match="three-mode"):
        project_bell(np.zeros((5, 5)), 0.0)
    with pytest.raises(ValueError, match="not uniform"):
        project_bell(np.zeros((5, 5, 4)), 0.0)


def test_bell_completeness():
    # density integrates to 1 over the guarded outcome grid
    assert bell_completeness(0.3 + 0.1j, 0.5, 48, n=41) == pytest.approx(1.0, abs=1e-3)
    assert bell_completeness(0.0, 0.0, 40, n=41) == pytest.approx(1.0, abs=1e-3)


def test_density_at_center():
    for r in (0.0, 0.5, 1.0):
        for alpha in (0.0, 0.5 + 0.5j, -0.8 + 0.2j):
            got = bell_probability_density(alpha, r, alpha, 40)
            assert got == pytest.approx(1.0 / (math.pi * math.cosh(r) ** 2), abs=1e-6)


def test_density_vacuum_point():
    assert bell_probability_density(0.0, 0.0, 0.0, 30) == pytest.approx(1.0 / math.pi, rel=1e-10)


def test_density_ratios_match_gaussian():
    dim = 40
    r = 0.7
    alpha = 0.2 - 0.3j
    rng = np.random.default_rng(23)
    for _ in range(8):
        b1 = alpha + complex(*rng.normal(scale=1.0, size=2))
        b2 = alpha + complex(*rng.normal(scale=1.0, size=2))
        got = bell_probability_density(alpha, r, b1, dim) / bell_probability_density(alpha, r, b2, dim)
        want = gaussian_density(r, abs(b1 - alpha)) / gaussian_density(r, abs(b2 - alpha))
        assert got == pytest.approx(want, rel=1e-8)


def test_eigen_relations_zero_outcome():
    res = verify_eigen_relations(0.0, 30)
    assert np.all(res < 1e-10)


@pytest.mark.parametrize("beta", [1.0 + 0.0j, 1.0 + 2.0j])
def test_eigen_residuals_shrink_with_dim(beta):
    res = np.array([np.max(verify_eigen_relations(beta, dim)) for dim in (10, 20, 40)])
    assert res[0] > res[1] > res[2]


def test_eigen_relations_severely_truncated():
    # deliberately tiny space: the relations visibly fail
    assert np.max(verify_eigen_relations(1.0 + 2.0j, 4)) > 1e-3


def test_photocurrent_vacuum():
    dim = 8
    vac = np.zeros((dim, dim), dtype=complex)
    vac[0, 0] = 1.0
    for phase in (0.0, math.pi / 2):
        lhs, rhs = photocurrent_check(0.5, phase, vac)
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12


def test_photocurrent_coherent_q_phase():
    dim = 10
    test = np.einsum("a,c->ac", coherent_state(0.3 - 0.2j, dim), coherent_state(0.25 + 0.35j, dim))
    lhs, rhs = photocurrent_check(0.45, 0.0, test)
    assert abs(lhs - rhs) < 1e-8
    # the q expectation of a coherent state is sqrt(2) Re(alpha)
    want = 0.45 * math.sqrt(2.0) * (0.25 - 0.3)
    assert rhs == pytest.approx(want, abs=1e-9)


def test_photocurrent_coherent_p_phase():
    dim = 10
    test = np.einsum("a,c->ac", coherent_state(0.3 - 0.2j, dim), coherent_state(0.25 + 0.35j, dim))
    lhs, rhs = photocurrent_check(0.45, math.pi / 2, test)
    assert abs(lhs - rhs) < 1e-8
    want = 0.45 * math.sqrt(2.0) * (-0.2 + 0.35)
    assert rhs == pytest.approx(want, abs=1e-9)


def test_photocurrent_random_state_both_phases():
    # dim must hold the LO coherent state to well below the tolerance
    dim = 12
    rng = np.random.default_rng(3)
    state = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    state /= np.linalg.norm(state)
    for phase in (0.0, math.pi / 2):
        lhs, rhs = photocurrent_check(0.7, phase, state)
        assert abs(lhs - rhs) < 1e-10


def test_photocurrent_matches_dense_kron_reference():
    dim = 6
    rng = np.random.default_rng(11)
    state = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    state /= np.linalg.norm(state)
    a = destroy(dim)
    a_A, a_C, a_lo = (embed(a, m, dim) for m in range(3))
    q_A, q_C = (embed(position_op(dim), m, dim) for m in range(2))
    p_A, p_C = (embed(momentum_op(dim), m, dim) for m in range(2))
    cases = ((0.0, (a_C - a_A) / math.sqrt(2.0), q_C - q_A), (math.pi / 2, (a_A + a_C) / math.sqrt(2.0), p_A + p_C))
    lo_amp = 0.25
    for phase, b, quad in cases:
        lo = coherent_state(lo_amp * np.exp(1j * phase), dim)
        psi = np.einsum("ac,l->acl", state, lo).ravel()
        a_1 = (a_lo - b) / math.sqrt(2.0)
        a_2 = (a_lo + b) / math.sqrt(2.0)
        want_lhs = np.vdot(psi, (a_2.conj().T @ a_2 - a_1.conj().T @ a_1) @ psi).real
        want_rhs = lo_amp * np.vdot(psi, quad @ psi).real
        lhs, rhs = photocurrent_check(lo_amp, phase, state)
        assert abs(lhs - want_lhs) < 1e-12
        assert abs(rhs - want_rhs) < 1e-12


def test_photocurrent_rejects_other_phases():
    vac = np.zeros((4, 4), dtype=complex)
    vac[0, 0] = 1.0
    with pytest.raises(ValueError):
        photocurrent_check(0.5, 0.3, vac)


def test_photocurrent_rejects_wrong_shape():
    with pytest.raises(ValueError, match="two-mode"):
        photocurrent_check(0.5, 0.0, np.zeros(4))
    with pytest.raises(ValueError, match="not uniform"):
        photocurrent_check(0.5, 0.0, np.zeros((4, 5)))


def test_oracle_average_fidelity_unsqueezed():
    got = oracle_average_fidelity(0.4 + 0.2j, 0.0, 30, n=41)
    assert got == pytest.approx(0.5, abs=0.005)


def test_oracle_average_fidelity_r1():
    got = oracle_average_fidelity(0.4 + 0.2j, 1.0, 30, n=41)
    assert got == pytest.approx((1 + math.tanh(1.0)) / 2, abs=0.005)


@pytest.mark.filterwarnings("ignore:two-mode squeezed")
def test_oracle_average_fidelity_r2_needs_room():
    # mean photon number sinh(2)^2 ~ 13 per arm and outcomes out to
    # |beta|^2 ~ 70: dim = 60 visibly undershoots, dim = 90 is enough
    want = (1 + math.tanh(2.0)) / 2
    low = oracle_average_fidelity(0.3 + 0.1j, 2.0, 60, n=41)
    assert low < want - 0.01
    got = oracle_average_fidelity(0.3 + 0.1j, 2.0, 90, n=41)
    assert got == pytest.approx(want, abs=0.01)


def reference_grid_integrals(alpha, r, dim, n):
    """Per-outcome loop over the guarded n x n grid: (completeness, average fidelity).

    The grid is the oracle's: midpoints on the square of half-width 5 cosh(r)
    around alpha, keeping outcomes with |beta - alpha|^2 <= dim - 2 sqrt(dim).
    """
    joint = joint_state(alpha, r, dim)
    target = coherent_state(alpha, dim)
    half = 5.0 * math.cosh(r)
    step = 2.0 * half / n
    xs = -half + (np.arange(n) + 0.5) * step
    lam_max = dim - 2.0 * math.sqrt(dim)
    density = fidelity = 0.0
    kept = 0
    for dx in xs:
        for dy in xs:
            if dx * dx + dy * dy > lam_max:
                continue
            kept += 1
            beta = alpha + complex(dx, dy)
            proj = project_bell(joint, beta)
            sent = expm_displacement(beta, dim) @ proj.state
            density += proj.density * step * step
            fidelity += proj.density * abs(np.vdot(target, sent)) ** 2 * step * step
    assert 0 < kept < n**2  # the guard skips some outcomes
    return density, fidelity


@pytest.mark.filterwarnings("ignore:two-mode squeezed")
@pytest.mark.parametrize(
    "alpha,r,dim",
    [(0.4 + 0.2j, 0.0, 20), (0.3 - 0.1j, 0.5, 20), (-0.2 + 0.6j, 0.7, 20), (0.5 - 0.3j, 1.5, 32)],
)
def test_grid_integrals_match_per_outcome_loop(alpha, r, dim):
    density, fidelity = reference_grid_integrals(alpha, r, dim, 11)
    assert abs(bell_completeness(alpha, r, dim, n=11) - density) < 1e-12
    assert abs(oracle_average_fidelity(alpha, r, dim, n=11) - fidelity) < 1e-12


def test_beta_grid_validation():
    with pytest.raises(ValueError, match="at least 3 points"):
        oracle_average_fidelity(0.0, 0.5, 10, n=2)
    with pytest.raises(ValueError, match="at least 3 points"):
        bell_completeness(0.0, 0.5, 10, n=2)


def test_run_all_checks_default_pass():
    results = run_all_checks()
    assert all(r.passed for r in results)
    named = {r.name for r in results}
    assert "eigen_residual_1" in named and "photocurrent_q" in named
    # residual-type rows are far below their tolerances at the defaults
    for r in results:
        if "residual" in r.name or "photocurrent" in r.name:
            assert r.value < 1e-6


def test_run_all_checks_large_dim_pass():
    results = run_all_checks(dim=90)
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_all_checks_undersized_space_fails():
    results = run_all_checks(dim=4)
    failing = {r.name for r in results if not r.passed}
    assert any(name.startswith("eigen_residual") for name in failing)


def test_run_all_checks_makes_at_most_three_eigendecompositions(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    run_all_checks()
    first = len(calls)
    run_all_checks()
    # one for the Bell batch, one for the eigen-relation outcome, one for the grid; nothing is kept between calls
    assert 0 < first <= 3
    assert len(calls) == 2 * first


def test_run_all_checks_at_the_dim_cap_holds_no_three_mode_state():
    # a 160^3 complex state alone is 65 MB; the factored Bell rows and the
    # outcome grid stay near 24 MB
    run_all_checks(dim=MAX_DIM)
    tracemalloc.start()
    try:
        run_all_checks(dim=MAX_DIM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6


@pytest.mark.parametrize("dims", [(1, 10), (0, 10), (-3, 10), (30, 1), (30, 0)])
def test_run_all_checks_rejects_tiny_dims(dims):
    with pytest.raises(ValueError, match="must be at least 2"):
        run_all_checks(*dims)


@pytest.mark.parametrize(
    "dims,name,cap", [((MAX_DIM + 1, 10), "dim", MAX_DIM), ((30, MAX_PHOTO_DIM + 1), "photo_dim", MAX_PHOTO_DIM)]
)
def test_run_all_checks_rejects_dims_above_cap(dims, name, cap):
    with pytest.raises(ValueError, match=f"{name} must be at most {cap}, got {cap + 1}"):
        run_all_checks(*dims)
