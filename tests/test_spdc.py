import math

import numpy as np
import pytest

from kspace import chi, eta_k, eta_quadrature, pixel_center
from pixelport.grid import GridGeometry
from pixelport.spdc import (
    RingParams,
    SpdcParams,
    eta_at_radius,
    profile_for_grid,
    radial_profile,
    ring_from_spdc,
)


def make_params(theta_d=0.2, Xi=1.0, degenerate=False, **kw):
    """Convenience source; degenerate=True enforces k_d = k_p/(2 cos theta_d)."""
    defaults = dict(w_p=50.0, w_0=1.0, L=2.0, k_p=20.0, k_d=9.0, f=3.0)
    defaults.update(kw)
    if degenerate:
        defaults["k_d"] = defaults["k_p"] / (2.0 * math.cos(theta_d))
    return SpdcParams(theta_d=theta_d, Xi=Xi, **defaults)


def test_chi_collinear_zero():
    assert chi(make_params(theta_d=0.0)) == 0.0


def test_chi_direct_value():
    p = make_params(theta_d=math.pi / 4, k_d=2.0)
    assert chi(p) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_chi_monotone_in_angle():
    vals = [chi(make_params(theta_d=t)) for t in np.linspace(0.0, 1.4, 30)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_angle_domain_error():
    with pytest.raises(ValueError, match="below pi/2"):
        make_params(theta_d=math.pi / 2)
    with pytest.raises(ValueError, match="non-negative"):
        make_params(theta_d=-0.1)


def test_eta_k_peak_at_phase_match():
    p = make_params(Xi=2.5)
    k_mag = math.sqrt(p.k_p * chi(p) / 2.0)
    assert eta_k((k_mag, 0.0), p) == pytest.approx(2.5, rel=1e-14)


def test_eta_k_first_zero():
    p = make_params(Xi=1.3)
    k_sq = (math.pi / p.L + chi(p) / 2.0) * p.k_p
    k_mag = math.sqrt(k_sq)
    assert abs(eta_k((k_mag, 0.0), p)) < 1e-14


def test_eta_k_rotation_symmetric():
    p = make_params()
    k = 0.9
    angles = np.linspace(0.0, 2 * math.pi, 7)
    vals = [eta_k((k * math.cos(t), k * math.sin(t)), p) for t in angles]
    # |k0| enters only through k_x^2 + k_y^2; tiny rounding from cos/sin allowed
    assert np.allclose(vals, vals[0], rtol=1e-12)


def test_eta_at_radius_on_ring():
    ring = RingParams(r0=1.0, R=0.5, Xi=3.0)
    assert eta_at_radius(np.hypot(1.0, 0.0), ring) == 3.0
    assert eta_at_radius(np.hypot(0.0, -1.0), ring) == 3.0


def test_eta_at_radius_first_zero_location():
    ring = RingParams(r0=1.0, R=0.5, Xi=1.0)
    rho = math.sqrt(1.0 + math.pi * 0.25)
    assert abs(eta_at_radius(rho, ring)) < 1e-15


def test_eta_at_radius_bounded_by_xi():
    ring = RingParams(r0=0.7, R=0.5, Xi=4.0)
    rho = np.linspace(0.0, 5.0, 2000)
    assert np.max(np.abs(eta_at_radius(rho, ring))) <= 4.0


def test_eta_at_radius_side_lobes_negative():
    ring = RingParams(r0=1.0, R=0.5, Xi=1.0)
    rho = math.sqrt(1.0 + 1.5 * math.pi * 0.25)  # mid first side lobe
    assert eta_at_radius(rho, ring) < 0.0


def test_eta_at_radius_keeps_plain_formula_where_finite():
    # the overflow fallback must not touch a single bit of an ordinary profile
    rng = np.random.default_rng(4)
    for r0, R, Xi in ((1.0, 0.5, 1.5), (0.7, 0.5, 10.0), (12.3, 0.07, 2.0), (0.0, 3.0, 0.9)):
        ring = RingParams(r0=r0, R=R, Xi=Xi)
        rho = np.concatenate([rng.uniform(0.0, r0 + 4 * R, 4000), [0.0, r0]])
        plain = Xi * np.sinc((rho * rho - r0**2) / R**2 / np.pi)
        assert np.array_equal(eta_at_radius(rho, ring), plain)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "r0,R,rho,want",
    [
        # r0**2 overflows: exact ring radius, a step off it, far inside
        (1e160, 1.0, 1e160, 1.0),
        (1e160, 1.0, 1.0000000000000002e160, 0.0),
        (1e160, 1.0, 3.0, 0.0),
        # both squares overflow, yet u = (rho - r0)(rho + r0)/R^2 = 2e-10 exactly
        (1e160, 1e160, 1e160 + 1e150, math.sin(2e-10) / 2e-10),
        # R**2 underflows to zero
        (1.0, 1e-170, 1.0, 1.0),
        (1.0, 1e-170, 0.5, 0.0),
        # subnormal R: u = 1 at rho = R
        (0.0, 1e-320, 1e-320, math.sin(1.0)),
        # rho**2 overflows or rho itself is infinite
        (1.0, 0.5, 1e200, 0.0),
        (1.0, 0.5, math.inf, 0.0),
    ],
)
def test_eta_at_radius_beyond_float64(r0, R, rho, want):
    # |sinc u| <= 1/|u| puts every far-off case within 1e-300 of its limit 0
    ring = RingParams(r0=r0, R=R, Xi=2.0)
    assert eta_at_radius(rho, ring) == pytest.approx(2.0 * want, rel=1e-12, abs=1e-300)
    assert eta_at_radius(np.array([rho, rho]), ring).tolist() == pytest.approx([2.0 * want] * 2, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "changes",
    [{"f": 1e300, "theta_d": 1.5707963267948}, {"L": 1e-300, "k_p": 1e-300}, {"f": 1e308}],
    ids=["r0-overflows", "width-divides-by-zero", "width-overflows"],
)
def test_ring_from_spdc_rejects_rings_beyond_float64(changes):
    with pytest.raises(ValueError, match="outside float64's range"):
        ring_from_spdc(make_params(**changes))


def test_ring_from_spdc_collinear():
    ring = ring_from_spdc(make_params(theta_d=0.0))
    assert ring.r0 == 0.0


def test_ring_from_spdc_width():
    ring = ring_from_spdc(make_params(f=2.0, L=1.0, k_p=16.0))
    assert ring.R == pytest.approx(1.0, rel=1e-15)


def test_ring_from_spdc_radius():
    p = make_params(theta_d=0.3, f=2.0)
    assert ring_from_spdc(p).r0 == pytest.approx(2.0 * math.tan(0.3), rel=1e-15)


def test_quadrature_constant_integrand():
    p = make_params(Xi=1.7)
    k_mag = math.sqrt(p.k_p * chi(p) / 2.0)
    got = eta_quadrature((k_mag, 0.0), p, 64).real
    assert got == pytest.approx(1.7, rel=1e-12)


@pytest.mark.parametrize("k0", [(0.0, 0.0), (1.1, 0.0), (0.8, -1.3), (2.0, 2.0)])
def test_quadrature_matches_closed_form(k0):
    p = make_params()
    got = eta_quadrature(k0, p, 10_000).real
    assert abs(got - eta_k(k0, p)) < 1e-10


def test_quadrature_imaginary_part_cancels():
    p = make_params()
    val = eta_quadrature((1.3, 0.4), p, 4096)
    assert abs(val.imag) < 1e-12


@pytest.mark.parametrize("n_steps", [16, 17, 64, 10_000])
@pytest.mark.parametrize("k0", [(0.0, 0.0), (1.4, 0.7), (2.0, -2.0)])
def test_simpson_matches_scipy_reference(n_steps, k0):
    # scipy is an independent reference for the numpy Simpson rule
    from scipy.integrate import simpson

    p = make_params(Xi=1.7)
    n = n_steps + n_steps % 2
    z = np.linspace(-p.L / 2, p.L / 2, n + 1)
    w = chi(p) - 2.0 * (k0[0] ** 2 + k0[1] ** 2) / p.k_p
    want = complex(simpson(p.Xi / p.L * np.exp(1j * w * z), x=z))
    got = eta_quadrature(k0, p, n_steps)
    assert abs(got - want) <= max(1e-12 * abs(want), 1e-13 * p.Xi)


def test_quadrature_convergence_order():
    p = make_params()
    k0 = (1.4, 0.7)
    exact = eta_k(k0, p)
    ns = 2 ** np.arange(4, 13)  # 16 .. 4096
    errs = np.array([abs(eta_quadrature(k0, p, int(n)).real - exact) for n in ns])
    # fit a power law on the points above float noise (Simpson bottoms out early)
    keep = errs > 1e-13
    slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.4)


def test_far_field_substitution_matches():
    # Far-field map |k0| = |x0| k_p / (2 f); identical profiles need the
    # degenerate phase-matching relation between k_d and k_p.
    rng = np.random.default_rng(19)
    for _ in range(10):
        theta = rng.uniform(0.05, 0.5)
        p = make_params(
            theta_d=theta,
            degenerate=True,
            L=rng.uniform(0.5, 3.0),
            k_p=rng.uniform(5.0, 40.0),
            f=rng.uniform(1.0, 4.0),
            Xi=rng.uniform(0.5, 3.0),
        )
        ring = ring_from_spdc(p)
        for x_mag in rng.uniform(0.0, ring.r0 + 3 * ring.R, 8):
            k_mag = x_mag * p.k_p / (2.0 * p.f)
            assert eta_at_radius(x_mag, ring) == pytest.approx(
                eta_k((k_mag, 0.0), p), rel=1e-12, abs=1e-12
            )


def test_waist_ratio_warning():
    with pytest.warns(UserWarning, match="not small") as record:
        make_params(w_0=10.0, w_p=50.0)
    # the warning names the code that built the params, not the generated __init__
    assert [w.filename for w in record] == [__file__]


def test_profile_for_grid_zero_xi():
    g = GridGeometry(4, 4, pitch=0.5)
    prof = profile_for_grid(g, RingParams(r0=1.0, R=0.5, Xi=0.0))
    assert np.all(prof.r == 0.0)


def test_profile_on_ring_pixels():
    # place a pixel center exactly on the ring radius
    g = GridGeometry(4, 1, pitch=1.0, origin=(0.0, -0.5))
    ring = RingParams(r0=math.hypot(2.5, 0.0), R=0.5, Xi=2.0)
    prof = profile_for_grid(g, ring)
    assert prof.r[0, 2] == 2.0


@pytest.mark.parametrize("width,height", [(6, 6), (5, 5), (6, 3)], ids=["even", "odd", "6x3"])
def test_profile_point_reflection_symmetry(width, height):
    # partner pixels sit at negated centers, so they see the same squeezing
    g = GridGeometry(width, height, pitch=0.4)  # centered origin
    prof = profile_for_grid(g, RingParams(r0=0.8, R=0.3, Xi=1.5))
    # centers carry last-ulp asymmetry, so compare to rounding tolerance
    assert np.allclose(prof.r, prof.r[::-1, ::-1], rtol=1e-12, atol=1e-12)


def test_profile_uses_pixel_centers():
    g = GridGeometry(3, 3, pitch=0.5)
    ring = RingParams(r0=0.6, R=0.4, Xi=1.0)
    prof = profile_for_grid(g, ring)
    x, y = pixel_center(1, 0, g)
    assert prof.r[0, 1] == abs(eta_at_radius(np.hypot(x, y), ring))


def test_radial_profile_peak_normalization():
    ring = RingParams(r0=1.0, R=0.5, Xi=7.0)
    x, eta, eta_norm = radial_profile(ring, 512)
    assert x[0] == 0.0 and x[-1] == pytest.approx(1.0 + 4 * 0.5)
    # the ring radius is inserted when the uniform grid misses it
    assert len(x) in (512, 513)
    assert np.all(np.diff(x) > 0)
    peak = np.argmax(eta_norm)
    assert x[peak] == ring.r0
    assert eta_norm[peak] == 1.0
    assert eta[peak] == 7.0
    assert np.all(eta_norm <= 1.0)
    assert eta_at_radius(ring.r0, ring) == 7.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("r0,R", [(1e160, 1.0), (1e200, 1.0), (1.0, 1e-200)])
def test_radial_profile_beyond_float64_is_finite(r0, R):
    x, eta, eta_norm = radial_profile(RingParams(r0=r0, R=R, Xi=1.0), 64)
    assert np.all(np.isfinite(eta)) and np.all(np.isfinite(eta_norm))
    assert x[np.argmax(eta_norm)] == r0 and np.max(eta_norm) == 1.0


def test_radial_profile_collinear_disk():
    ring = RingParams(r0=0.0, R=1.0, Xi=1.0)
    x, eta, eta_norm = radial_profile(ring, 256)
    assert np.argmax(eta_norm) == 0
    assert eta_norm[0] == 1.0


def test_spdc_params_validation():
    with pytest.raises(ValueError):
        SpdcParams(w_p=0.0, w_0=1.0, L=1.0, k_p=1.0, k_d=1.0, theta_d=0.0, f=1.0, Xi=1.0)
    with pytest.raises(ValueError):
        RingParams(r0=1.0, R=0.0, Xi=1.0)
    with pytest.raises(ValueError):
        RingParams(r0=-0.1, R=1.0, Xi=1.0)
