import functools
import importlib.util
import math
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from fockref import bell_completeness, bell_probability_density, dense_eigen_residuals, joint_state, tail_population
from memprobe import traced_peak
from pixelport import fock
from pixelport.fock import (
    MAX_DIM,
    MAX_PHOTO_DIM,
    coherent_state,
    destroy,
    displacement,
    momentum_op,
    oracle_average_fidelity,
    photocurrent_check,
    position_eig,
    position_op,
    project_bell,
    run_all_checks,
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
    adag = a.conj().T
    comm = a @ adag - adag @ a
    assert np.allclose(np.diag(comm)[: dim - 1], 1.0, rtol=0, atol=1e-14)
    # the top level shows the truncation
    assert np.diag(comm)[dim - 1] == pytest.approx(1.0 - dim, rel=1e-15)


def test_quadrature_operators_hermitian():
    for op in (position_op(12), momentum_op(12)):
        assert np.allclose(op, op.conj().T)


@pytest.mark.parametrize("dim", [2, 31, 90])
def test_ladder_and_position_are_real(dim):
    a, q = destroy(dim), position_op(dim)
    assert a.dtype == np.float64 and q.dtype == np.float64
    assert np.array_equal(q, q.T)


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
    d = displacement(alpha, position_eig(dim))
    assert np.allclose(d @ d.conj().T, np.eye(dim), atol=1e-12)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    assert np.allclose(d @ vac, coherent_state(alpha, dim), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3, 10, 30, 31, 47, 48, 90])
def test_displacement_matches_expm(dim):
    # odd dims carry the zero mode, and at dim 90 LAPACK threads the SVD
    for beta in (0.0, 0.35j, -1.2j, 0.7 - 0.2j, -2.1 + 1.4j, 4.0 + 4.05j, -5.7):
        assert np.max(np.abs(displacement(beta, position_eig(dim)) - expm_displacement(beta, dim))) < 1e-12


def test_displacement_broadcasts_over_beta():
    betas = np.array([[0.0, 0.4 - 1.1j, 2.0j], [-0.3, 1.5 + 0.5j, 5.0 - 2.6j]])
    d = displacement(betas, position_eig(16))
    assert d.shape == (2, 3, 16, 16)
    for idx in np.ndindex(betas.shape):
        assert np.allclose(d[idx], displacement(betas[idx], position_eig(16)), rtol=0, atol=1e-14)
    assert displacement(np.zeros(0), position_eig(7)).shape == (0, 7, 7)


@pytest.mark.parametrize("dim", [30, 160])
def test_rotation_factors_match_per_level_exp(dim):
    # rot[n] = e^{i n (arg(beta) + pi/2)} is a running product; the reference takes one complex exp per level
    angles = np.concatenate([np.linspace(-math.pi, math.pi, 721)[1:], [0.5 * math.pi, -0.5 * math.pi, 1e-300]])
    beta = np.concatenate([np.geomspace(1e-3, 12.0, angles.size) * np.exp(1j * angles), [0.0, -2.0, -0.5 - 0.0j]])
    _, _, rot = fock._displacement_factors(beta, fock.position_eig(dim))
    levels = np.arange(dim)
    want = np.exp(1j * (np.angle(beta)[None, :] + 0.5 * math.pi) * levels[:, None])
    assert rot.shape == (dim, beta.size)
    assert np.max(np.abs(rot - want)) < 1e-13
    # at beta = 0 the factors are the powers of i, exactly
    assert np.all(rot[:, -3] == np.array([1, 1j, -1, -1j])[levels % 4])


@pytest.mark.parametrize("dim", range(1, MAX_DIM + 1))
def test_position_eig_is_parity_symmetric(dim):
    # q is odd under the parity (-1)^n, and the split SVD keeps that exact:
    # the spectrum is symmetric and each -lam eigenvector is its +lam partner times the parity
    lam, v = fock.position_eig(dim)
    assert lam.shape == (dim,) and v.shape == (dim, dim) and v.dtype == float
    assert np.array_equal(lam, -lam[::-1]) and np.all(np.diff(lam) > 0)
    parity = (-1.0) ** np.arange(dim)
    assert np.array_equal(v, parity[:, None] * v[:, ::-1])
    assert np.max(np.abs((v * lam) @ v.T - position_op(dim))) < 1e-13
    assert np.max(np.abs(v.T @ v - np.eye(dim))) < 1e-13


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


def test_bell_inputs_take_the_resource_diagonal_without_the_matrix(monkeypatch):
    want = two_mode_squeezed(1.2, 40).diagonal() / math.sqrt(math.pi)
    monkeypatch.setattr(fock, "two_mode_squeezed", None)  # the contraction builds no dim x dim resource
    _, schmidt = fock._bell_inputs(0.3, 1.2, 40)
    assert schmidt.dtype == want.dtype and np.array_equal(schmidt, want)


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
    joint = joint_state(0.3, 0.7, dim)
    proj = project_bell(joint, 0.4 + 0.2j)
    # the density is the squared norm of the raw contraction, here the expm reference's
    assert proj.density == pytest.approx(float(np.linalg.norm(per_outcome_bell(joint, 0.4 + 0.2j))) ** 2, rel=1e-12)
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
    u, raw = fock._bell_rows(*fock._bell_inputs(alpha, r, dim), BELL_OUTCOMES, fock.position_eig(dim))
    assert u.shape == raw.shape == (dim, BELL_OUTCOMES.size)
    for beta, u_row, row in zip(BELL_OUTCOMES, u.T, raw.T):
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


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("dim", [4, 30, 90])
def test_bell_rows_match_the_dense_resource_product(dim):
    # the resource applied as its Schmidt diagonal against the dense matrix
    # product, on run_all_checks' four-outcome batch and on every block of the fidelity grid
    r = 1.0
    eig = fock.position_eig(dim)
    blocks = [fock._bell_rows(*fock._bell_inputs(0.5, r, dim), np.array([0.2, 0.5, 1.0 + 0.5j, -0.5 + 0.3j]), eig)]

    def keep(u, raw):
        blocks.append((u, raw))
        return np.zeros(u.shape[1])

    fock._grid_sum(0.4 + 0.2j, r, 41, eig, keep)
    for u, raw in blocks:
        want = two_mode_squeezed(r, dim).T @ u / math.sqrt(math.pi)
        assert np.all(np.abs(raw - want) <= 1e-15 * np.abs(want))
    # the grid blocks cover the K kept outcomes (1 at dim 4, 421 at 30, 1485 at 90)
    # in ceil(K dim 16 B / _GRID_BLOCK_BYTES) near-equal blocks of at least two
    # outcomes each, unless one block holds them all
    sizes = [u.shape[1] for u, _ in blocks[1:]]
    kept = sum(sizes)
    assert kept == {4: 1, 30: 421, 90: 1485}[dim]
    assert len(sizes) == min(math.ceil(kept * dim * 16 / fock._GRID_BLOCK_BYTES), max(1, kept // 2))
    assert max(sizes) - min(sizes) <= 1
    assert len(sizes) == 1 or min(sizes) >= 2


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
    res = verify_eigen_relations(0.0, position_eig(30))
    assert np.all(res < 1e-10)


@pytest.mark.parametrize("beta", [1.0 + 0.0j, 1.0 + 2.0j])
def test_eigen_residuals_shrink_with_dim(beta):
    res = np.array([np.max(verify_eigen_relations(beta, position_eig(dim))) for dim in (10, 20, 40)])
    assert res[0] > res[1] > res[2]


def test_eigen_relations_severely_truncated():
    # deliberately tiny space: the relations visibly fail
    assert np.max(verify_eigen_relations(1.0 + 2.0j, position_eig(4))) > 1e-3


def test_eigen_relations_on_the_window_match_the_dense_row():
    # the row builds D, a, q and p on the window's cut + 1 levels and takes ||Psi|| = sqrt(smax / pi);
    # the dense dim x dim row it replaced measured the norm, and both agree to round-off
    worst = 0.0
    for dim in range(2, MAX_DIM + 1):
        eig = position_eig(dim)
        for beta in (0.0, 1.0 + 2.0j, 0.3 - 0.7j, 2.5):
            diff = np.abs(verify_eigen_relations(beta, eig) - dense_eigen_residuals(beta, eig))
            worst = max(worst, float(np.max(diff)))
    assert worst <= 1e-15


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


def test_photocurrent_at_the_photo_dim_cap_holds_few_three_mode_arrays():
    # one photo_dim^3 complex array is 8.2 MB at the cap; the check holds
    # about three at once, far from one array per ladder and quadrature term
    dim = MAX_PHOTO_DIM
    test = np.einsum("a,c->ac", coherent_state(0.3 - 0.2j, dim), coherent_state(0.25 + 0.35j, dim))
    for phase in (0.0, math.pi / 2):

        def check():
            lhs, rhs = photocurrent_check(0.45, phase, test)
            assert abs(lhs - rhs) < 1e-8

        assert traced_peak(check) <= 45e6


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
    got = oracle_average_fidelity(0.4 + 0.2j, 0.0, position_eig(30), n=41)
    assert got == pytest.approx(0.5, abs=0.005)


def test_oracle_average_fidelity_r1():
    got = oracle_average_fidelity(0.4 + 0.2j, 1.0, position_eig(30), n=41)
    assert got == pytest.approx((1 + math.tanh(1.0)) / 2, abs=0.005)


@pytest.mark.filterwarnings("ignore:two-mode squeezed")
def test_oracle_average_fidelity_r2_needs_room():
    # mean photon number sinh(2)^2 ~ 13 per arm and outcomes out to
    # |beta|^2 ~ 70: dim = 60 visibly undershoots, dim = 90 is enough
    want = (1 + math.tanh(2.0)) / 2
    low = oracle_average_fidelity(0.3 + 0.1j, 2.0, position_eig(60), n=41)
    assert low < want - 0.01
    got = oracle_average_fidelity(0.3 + 0.1j, 2.0, position_eig(90), n=41)
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
    assert abs(oracle_average_fidelity(alpha, r, position_eig(dim), n=11) - fidelity) < 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("dim", [4, 30, 90])
def test_grid_sums_do_not_depend_on_the_block_size(monkeypatch, dim):
    # outcomes are independent, so blocks of two or three outcomes, the
    # default blocks and one block of every kept outcome give the same bits
    args = (0.4 + 0.2j, 1.0)
    results = set()
    for budget in (1, fock._GRID_BLOCK_BYTES, 10**12):
        monkeypatch.setattr(fock, "_GRID_BLOCK_BYTES", budget)
        results.add((oracle_average_fidelity(*args, position_eig(dim)), bell_completeness(*args, dim)))
    assert len(results) == 1


@pytest.mark.parametrize(
    "call,count",
    [(lambda: run_all_checks(8, 4), 7), (lambda: oracle_average_fidelity(0.4 + 0.2j, 2.0, position_eig(90)), 1)],
    ids=["run_all_checks", "oracle_average_fidelity"],
)
def test_truncation_warnings_fire_once_per_pass_not_per_block(call, count):
    # the grid builds its input state and resource once, whatever its number of blocks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert len(caught) == count
    assert all("loses" in str(w.message) for w in caught)


def test_beta_grid_validation():
    with pytest.raises(ValueError, match="at least 3 points"):
        oracle_average_fidelity(0.0, 0.5, position_eig(10), n=2)
    with pytest.raises(ValueError, match="at least 3 points"):
        bell_completeness(0.0, 0.5, 10, n=2)


def test_run_all_checks_default_pass():
    results = run_all_checks()
    assert all(r.passed for r in results)
    named = {r.name for r in results}
    assert "eigen_residual_1" in named and "photocurrent_q" in named


def test_run_all_checks_tolerance_table():
    # the verdict's contract: a change here is declared, and a tolerance may only be tightened
    assert {r.name: r.tolerance for r in run_all_checks()} == {
        "ladder_commutator": 1e-12,
        "coherent_overlap": 1e-10,
        "squeezed_norm_deficit": 1e-10,
        "conditional_state_overlap": 1e-6,
        "outcome_density": 1e-6,
        "eigen_residual_1": 1e-8,
        "eigen_residual_2": 1e-8,
        "eigen_residual_3": 1e-8,
        "eigen_residual_4": 1e-8,
        "photocurrent_q": 1e-8,
        "photocurrent_p": 1e-8,
        "average_fidelity": 5e-3,
    }


# The calibration table, in row order: how a relative error eps enters each
# row's reference (the fock attribute replaced, and eps -> its replacement),
# and eps -> the deviation the row then reports at run_all_checks' defaults.
ZETA = math.tanh(1.0) * ((0.5 + 0j) - (0.2 + 0j))  # the conditional state's amplitude tanh(r)(alpha - beta)
BETA = 1.0 + 2.0j  # the eigen rows' outcome
A, C, LO = 0.3 - 0.2j, 0.25 + 0.35j, 0.45  # the photocurrent rows' test state |A>|C> and local oscillator


def _math_with(name):
    """eps -> fock.math with math.<name> scaled by 1 + eps."""
    names = {k: getattr(math, k) for k in dir(math) if not k.startswith("_")}
    return lambda eps: types.SimpleNamespace(**{**names, name: lambda x, f=names[name]: f(x) * (1.0 + eps)})


def _deficit_deviation(eps):
    """The resource's tanh r and the reference tanh(r)^(2 dim) both move."""
    t2 = (math.tanh(1.0) * (1.0 + eps)) ** 2
    return (1.0 - t2**30) * (t2 - math.tanh(1.0) ** 2) / (1.0 - t2)


def _density_deviation(eps):
    """The resource's sech r and the reference's cosh r both move."""
    c2 = math.cosh(1.0) ** 2
    return max(-math.expm1(-abs(off) ** 2 / c2 * (1.0 - (1.0 + eps) ** -2)) for off in (0.0, 0.5 + 0.5j, -1.0 + 0.3j))


def _reference_at_zeta(eps):
    """coherent_state with the reference alone at zeta (1 + eps); a scaled tanh would move the state too."""
    scaled = []

    def coherent_state(alpha, dim, f=fock.coherent_state):
        if alpha == ZETA:
            scaled.append(alpha)
            assert len(scaled) == 1, "only the reference is built at zeta"
            alpha *= 1.0 + eps
        return f(alpha, dim)

    return coherent_state


@functools.cache
def _window_norm():
    """||D(BETA)|| on the eigen rows' 7 x 7 window at dim 30, by scipy's expm, over sqrt(smax) = sqrt(24)."""
    return float(np.linalg.norm(expm_displacement(BETA, 30)[:7, :7])) / math.sqrt(24)


def _window_at(eps):
    """displacement at beta (1 + eps): the eigen rows' window moves, and their relations keep beta."""
    return lambda beta, eig, f=fock.displacement: f(beta * (1.0 + eps), eig)


def _rhs_scaled(eps):
    """photocurrent_check with its right side, the quadrature it should read, scaled by 1 + eps."""

    def check(*args, f=fock.photocurrent_check):
        lhs, rhs = f(*args)
        return lhs, rhs * (1.0 + eps)

    return check


@functools.cache
def _oracle_fidelity():
    return oracle_average_fidelity(0.4 + 0.2j, 1.0, position_eig(30))


CALIBRATION = {
    "ladder_commutator": ("destroy", lambda eps: lambda dim, f=fock.destroy: f(dim) * (1.0 + eps), lambda eps: (1.0 + eps) ** 2 - 1.0),
    # both states' e^{-|alpha|^2/2} and the reference exp(-|alpha - alpha'|^2) move
    "coherent_overlap": ("math", _math_with("exp"), lambda eps: math.exp(-abs(0.5 - 0.3j) ** 2) * ((1.0 + eps) ** 4 - 1.0 - eps)),
    "squeezed_norm_deficit": ("math", _math_with("tanh"), _deficit_deviation),
    "conditional_state_overlap": ("coherent_state", _reference_at_zeta, lambda eps: -math.expm1(-abs(ZETA * eps) ** 2)),
    "outcome_density": ("math", _math_with("cosh"), _density_deviation),
    "eigen_residual_1": ("displacement", _window_at, lambda eps: abs(BETA) * eps * _window_norm()),
    "eigen_residual_2": ("displacement", _window_at, lambda eps: abs(BETA) * eps * _window_norm()),
    "eigen_residual_3": ("displacement", _window_at, lambda eps: abs(BETA.real) * eps * _window_norm()),
    "eigen_residual_4": ("displacement", _window_at, lambda eps: abs(BETA.imag) * eps * _window_norm()),
    # |LO| <q_C - q_A> and |LO| <p_A + p_C> of the coherent test state
    "photocurrent_q": ("photocurrent_check", _rhs_scaled, lambda eps: abs(LO * math.sqrt(2.0) * (C.real - A.real)) * eps),
    "photocurrent_p": ("photocurrent_check", _rhs_scaled, lambda eps: abs(LO * math.sqrt(2.0) * (A.imag + C.imag)) * eps),
    # the oracle's value scaled, against (1 + tanh r)/2
    "average_fidelity": (
        "oracle_average_fidelity",
        lambda eps: lambda *args, f=fock.oracle_average_fidelity: f(*args) * (1.0 + eps),
        lambda eps: abs(_oracle_fidelity() * (1.0 + eps) - (1.0 + math.tanh(1.0)) / 2.0),
    ),
}


def test_every_row_has_a_calibration_entry():
    assert list(CALIBRATION) == [r.name for r in run_all_checks()]


def _sized(predicted, target):
    """The eps in (0, 1) at which predicted(eps) reaches target, by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if predicted(mid) < target else (lo, mid)
    return hi


@pytest.mark.parametrize("factor", [0.9, 1.1, 100.0])
@pytest.mark.parametrize("row", CALIBRATION)
def test_run_all_checks_row_reports_an_injected_error(monkeypatch, row, factor):
    # eps is sized so that the deviation it predicts is factor times the row's
    # tolerance, so the verdict flips between 0.9 and 1.1.  A row that compares
    # a value with itself, or scales its deviation, reads otherwise.
    attr, patch, predicted = CALIBRATION[row]
    eps = _sized(predicted, factor * {r.name: r.tolerance for r in run_all_checks()}[row])
    monkeypatch.setattr(fock, attr, patch(eps))
    got = {r.name: r for r in run_all_checks()}[row]
    want = predicted(eps)
    assert abs(got.value - want) <= 0.1 * want
    assert got.passed is (factor < 1)


def test_run_all_checks_large_dim_pass():
    results = run_all_checks(dim=90)
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_all_checks_undersized_space_fails():
    results = run_all_checks(dim=4)
    failing = {r.name for r in results if not r.passed}
    assert any(name.startswith("eigen_residual") for name in failing)


def test_run_all_checks_makes_at_most_three_eigendecompositions(monkeypatch):
    # an eigendecomposition is one SVD of the position operator's even-odd block
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    run_all_checks()
    first = len(calls)
    run_all_checks()
    # one for the Bell batch, one for the eigen-relation outcome, one for the grid; nothing is kept between calls
    assert 0 < first <= 3
    assert len(calls) == 2 * first


def test_run_all_checks_at_the_dim_cap_holds_no_three_mode_state():
    # a 160^3 complex state alone is 65 MB, and the whole grid of 1681
    # outcomes 4.3 MB per array; the run peaks near 2.2 MB, about half of
    # it the eigen row's window arrays
    assert traced_peak(lambda: run_all_checks(dim=MAX_DIM), warm=True) <= 8e6


def test_average_fidelity_at_the_dim_cap_holds_one_block_at_a_time():
    # the grid pass holds (dim x block) arrays, not (dim x outcomes): with its eigendecomposition it peaks near 0.7 MB
    assert traced_peak(lambda: oracle_average_fidelity(0.4 + 0.2j, 1.0, position_eig(MAX_DIM)), warm=True) <= 2.5e6


@pytest.mark.parametrize("dim", [8, 30, 90])
def test_run_all_checks_makes_one_eigendecomposition(monkeypatch, dim):
    calls = []

    def counting(name):
        original = getattr(np.linalg, name)

        def call(a, *args, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)

        return call

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_all_checks(dim)
    # one SVD of the even-odd block of q, shared by the Bell batch, the
    # eigen-relation row and the grid; no complex eigh
    assert calls == [("svd", ((dim + 1) // 2, dim // 2))]


@pytest.mark.parametrize("dim", [4, 30])
def test_every_row_value_is_a_plain_float(dim):
    # a numpy scalar would repr as np.float64(...) and fail CheckResult's annotation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run_all_checks(dim)
    for r in results:
        assert type(r.value) is float and type(r.tolerance) is float, r


def test_run_all_checks_runs_the_public_rows(monkeypatch):
    # the rows resolve each other through the module, where the benchmark's tracer wraps them
    want = {
        "displacement": 1,
        "verify_eigen_relations": 1,
        "oracle_average_fidelity": 1,
        "photocurrent_check": 2,
        "project_bell": 0,
    }
    calls = dict.fromkeys(want, 0)
    shapes = []
    for name in want:

        def counting(*args, _name=name, _original=getattr(fock, name), **kwargs):
            calls[_name] += 1
            out = _original(*args, **kwargs)
            if _name == "displacement":
                shapes.append(out.shape)
            return out

        monkeypatch.setattr(fock, name, counting)
    results = {r.name: r.value for r in run_all_checks(30)}
    assert calls == want
    # the eigen row displaces on its window's cut + 1 = 8 levels: no dim x dim complex matrix
    assert shapes == [(8, 8)]
    eig = position_eig(30)
    res = verify_eigen_relations(1.0 + 2.0j, eig)
    for k in range(1, 5):
        assert results[f"eigen_residual_{k}"] == float(res[k - 1])
    got = oracle_average_fidelity(0.4 + 0.2j, 1.0, eig)
    assert results["average_fidelity"] == abs(got - (1.0 + math.tanh(1.0)) / 2.0)


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


def test_fock_ships_only_what_run_all_checks_and_the_tracer_reach():
    # the test-only helpers live in tests/fockref.py; project_bell and the
    # public wrappers stay while the benchmark's tracer wraps them by name
    assert sorted(fock.__all__) == sorted(
        [
            "destroy",
            "position_op",
            "momentum_op",
            "position_eig",
            "displacement",
            "coherent_state",
            "two_mode_squeezed",
            "BellProjection",
            "project_bell",
            "verify_eigen_relations",
            "photocurrent_check",
            "oracle_average_fidelity",
            "CheckResult",
            "run_all_checks",
            "MAX_DIM",
            "MAX_PHOTO_DIM",
        ]
    )
    assert fock.BellProjection._fields == ("density", "state")


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch, tmp_path, capsys):
    # the tracer patches these attributes with getattr, so a missing name
    # would fail every traced benchmark op; the module is loaded, never written
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("pixelport_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses looks the module up by name
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    modules = {module: importlib.import_module(module) for module, *_ in spans.WRAPPED}
    for module, attr, *_ in spans.WRAPPED:
        assert callable(getattr(modules[module], attr)), (module, attr)

    # and one traced ring teleport op, upright or on the raw plane, calls each
    # teleport stage it wraps once, so no stage can be reached by a path that
    # bypasses its span
    from pixelport.cli import main
    from pixelport.imagefile import write_image

    write_image(tmp_path / "in.csv", np.full((6, 8), 0.5 - 0.25j))
    cfg = tmp_path / "run.cfg"
    keys = {"mode": "spdc", "ring_r0": 2.0, "ring_width": 0.5, "ring_xi": 1.5, "input": tmp_path / "in.csv"}
    keys.update(output=tmp_path / "out.csv", fidelity_map=tmp_path / "fmap.csv", summary=tmp_path / "summary.txt")
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    stages = [name for module, _, name, _ in spans.WRAPPED if module != "pixelport.fock"]
    assert "grid.decompose" in stages and "spdc.profile_for_grid" in stages
    for flags in ([], ["--raw-plane"]):
        tracer = spans.Tracer(modules)
        assert tracer.run_op(0, lambda: main(["teleport", "--config", str(cfg), *flags])) == 0
        capsys.readouterr()
        names = [s.name for s in tracer.spans]
        assert {name: names.count(name) for name in stages} == dict.fromkeys(stages, 1), flags
