"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on passing runs) and then asserts, so a red test always names the
criterion that broke.
"""

import math
import time

import numpy as np

from fockref import bell_probability_density, joint_state
from kspace import eta_k, eta_quadrature
from outcomes import conditional_fidelity, numpy_fidelity, sample_bell_outcomes
from pixelport import channel, fock, grid, spdc
from pixelport.cli import FIG3_PAIRS, FIG4_XIS, main
from pixelport.imagefile import write_image


def report(num, label, ok, detail):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_average_fidelity_law():
    alpha = 0.3 + 0.1j
    n_draws = 100_000
    t0 = time.perf_counter()
    worst_dev_se = 0.0
    for k, r in enumerate((0.0, 0.5, 1.0, 2.0)):
        rng = np.random.default_rng([105, k])
        betas = sample_bell_outcomes(alpha, r, rng, n_draws)
        fids = conditional_fidelity(alpha, betas, r)
        dev = abs(float(fids.mean()) - channel.average_fidelity(r))
        se = float(fids.std(ddof=1)) / math.sqrt(n_draws)
        worst_dev_se = max(worst_dev_se, dev / se)
    elapsed = time.perf_counter() - t0
    ok = worst_dev_se < 4.0 and elapsed < 5.0
    report(1, "average fidelity law", ok, f"worst deviation {worst_dev_se:.2f} SE of 4 allowed, {elapsed:.2f} s")
    assert worst_dev_se < 4.0
    assert elapsed < 5.0


def test_acceptance_2_oracle_channel_equivalence():
    dim = 30
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst = 1.0
    for _ in range(20):
        alpha = complex(*rng.uniform(-math.sqrt(0.5), math.sqrt(0.5), 2))
        beta = complex(*rng.uniform(-math.sqrt(0.5), math.sqrt(0.5), 2))
        r = rng.uniform(0.0, 1.0)
        proj = fock.project_bell(joint_state(alpha, r, dim), beta)
        target = fock.coherent_state(math.tanh(r) * (alpha - beta), dim)
        worst = min(worst, abs(np.vdot(target, proj.state)) ** 2)
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.999 and elapsed < 10.0
    report(2, "oracle channel equivalence", ok, f"worst overlap {worst:.6f}, {elapsed:.2f} s")
    assert worst >= 0.999
    assert elapsed < 10.0


def test_acceptance_3_outcome_density():
    dim = 40
    alpha = 0.3 + 0.1j
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        for dist in (0.0, 0.5, 1.0, 1.5, 2.0):
            beta = alpha + dist * np.exp(0.9j)
            got = bell_probability_density(alpha, r, beta, dim)
            c2 = math.cosh(r) ** 2
            want = math.exp(-(dist**2) / c2) / (math.pi * c2)
            worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 30.0
    report(3, "outcome probability density", ok, f"worst rel err {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-3
    assert elapsed < 30.0


def test_acceptance_4_eigenvalue_relations():
    worst = 0.0
    for beta in (0.0, 1.0, 1.0 + 2.0j):
        worst = max(worst, float(np.max(fock.verify_eigen_relations(beta, fock.position_eig(30)))))
    ok = worst < 1e-8
    report(4, "measured-mode eigenvalue relations", ok, f"worst residual {worst:.2e}")
    assert worst < 1e-8


def test_acceptance_5_photocurrent_identities():
    dim = 10
    test = np.einsum(
        "a,c->ac", fock.coherent_state(0.3 - 0.2j, dim), fock.coherent_state(0.25 + 0.35j, dim)
    )
    worst = 0.0
    for phase in (0.0, math.pi / 2):
        lhs, rhs = fock.photocurrent_check(0.45, phase, test)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    report(5, "photocurrent identities", ok, f"worst |lhs-rhs| {worst:.2e}")
    assert worst < 1e-8


def test_acceptance_6_spdc_ring():
    params = spdc.SpdcParams(w_p=50.0, w_0=1.0, L=2.0, k_p=20.0, k_d=9.0, theta_d=0.2, f=3.0, Xi=1.0)
    worst_quad = 0.0
    for k0 in (np.array([0.1, 0.0]), np.array([0.9, 0.4]), np.array([1.4, -0.7])):
        got = eta_quadrature(k0, params, n_steps=10_000).real
        worst_quad = max(worst_quad, abs(got - eta_k(k0, params)))
    quad_ok = worst_quad < 1e-10

    peaks_ok = True
    zeros_worst = 0.0
    for r0, width in FIG3_PAIRS:
        ring = spdc.RingParams(r0=r0, R=width, Xi=1.0)
        x, _, eta_norm = spdc.radial_profile(ring)
        top = int(np.argmax(eta_norm))
        peaks_ok &= x[top] == r0 and eta_norm[top] == 1.0
        for xi in FIG4_XIS:
            fring = spdc.RingParams(r0=r0, R=width, Xi=xi)
            peak_fid = float((1.0 + np.tanh(np.abs(spdc.eta_at_radius(np.array([r0]), fring))))[0] / 2.0)
            peaks_ok &= peak_fid == numpy_fidelity(xi)
            # analytic sinc zeros inside the plotted span
            k = np.arange(1, int((x[-1] ** 2 - r0**2) / (math.pi * width**2)) + 1)
            zeros = np.sqrt(r0**2 + k * math.pi * width**2)
            fid = (1.0 + np.tanh(np.abs(spdc.eta_at_radius(zeros, fring)))) / 2.0
            zeros_worst = max(zeros_worst, float(np.max(np.abs(fid - 0.5))))
    zeros_ok = zeros_worst < 1e-12

    ok = quad_ok and peaks_ok and zeros_ok
    report(
        6,
        "down-conversion ring profile",
        ok,
        f"quadrature dev {worst_quad:.2e}, exact peaks {peaks_ok}, zero dev {zeros_worst:.2e}",
    )
    assert quad_ok
    assert peaks_ok
    assert zeros_ok


def test_acceptance_7_image_pipeline():
    rng = np.random.default_rng(707)
    samples = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    geometry = grid.GridGeometry(width=32, height=32, pitch=1.0)
    field = grid.decompose(samples, geometry)
    profile = spdc.SqueezingProfile.uniform(geometry, 2.0)
    want = numpy_fidelity(2.0)

    t0 = time.perf_counter()
    _, _, image_fidelity = channel.teleport_image(field, profile)
    analytic_exact = image_fidelity == want
    _, _, image_fidelity_mc = channel.teleport_image(field, profile, seed=7, n_shots=1000)
    mc_dev = abs(image_fidelity_mc - want)
    elapsed = time.perf_counter() - t0

    ok = analytic_exact and mc_dev <= 0.003 and elapsed < 30.0
    report(
        7,
        "image pipeline fidelity",
        ok,
        f"analytic exact {analytic_exact}, stochastic dev {mc_dev:.2e}, {elapsed:.2f} s",
    )
    assert analytic_exact
    assert mc_dev <= 0.003
    assert elapsed < 30.0


def test_acceptance_8_determinism(tmp_path, monkeypatch):
    rng = np.random.default_rng(808)
    samples = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    default_block = channel._BLOCK_NORMALS

    def run(label, block_pixels):
        sub = tmp_path / label
        sub.mkdir()
        monkeypatch.chdir(sub)
        normals = default_block if block_pixels is None else 2 * 200 * block_pixels
        monkeypatch.setattr(channel, "_BLOCK_NORMALS", normals)
        write_image(sub / "in.csv", samples)
        (sub / "run.cfg").write_text(
            "mode = spdc\ninput = in.csv\nring_r0 = 1.0\nring_width = 0.5\n"
            "ring_xi = 1.5\nseed = 11\nn_shots = 200\n"
        )
        assert main(["teleport", "--config", "run.cfg"]) == 0
        return (
            (sub / "teleported.csv").read_bytes(),
            (sub / "fidelity_map.csv").read_bytes(),
            (sub / "summary.txt").read_bytes(),
        )

    base = run("a", None)
    rerun_same = run("b", None) == base
    # blocks of 1 and 3 pixels, and of 24 (not a divisor of the 64 pixels)
    rerun_blocks = all(run(f"block{n}", n) == base for n in (1, 3, 24))
    ok = rerun_same and rerun_blocks
    report(
        8,
        "deterministic outputs",
        ok,
        f"seed rerun identical {rerun_same}, block sizes identical {rerun_blocks}",
    )
    assert rerun_same
    assert rerun_blocks
