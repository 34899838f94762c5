"""Squeezing profile of a realistic down-conversion source.

A Gaussian pump of waist w_p in a crystal of length L produces photon pairs
whose phase matching, integrated along the crystal, yields a sinc-shaped
effective squeezing versus transverse wavevector.  Imaged to the far field
through a lens of focal length f, the profile becomes a ring of radius
r0 = f*tan(theta_d) and width R = 2f/sqrt(L*k_p):

    eta(x0) = Xi * sinc((|x0|^2 - r0^2) / R^2),    sinc(x) = sin(x)/x.

The channel consumes the magnitude |eta|; the signed value is kept for
plotting the side lobes.  A composite midpoint or Simpson quadrature of the
crystal integral, written out in numpy, cross-checks the closed form; no CLI
command runs it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridGeometry, pixel_centers

__all__ = [
    "SpdcParams",
    "RingParams",
    "SqueezingProfile",
    "chi",
    "delta_kz",
    "eta_k",
    "eta_x",
    "ring_from_spdc",
    "eta_quadrature",
    "eta_quadrature_complex",
    "pair_overlap",
    "pair_overlap_quadrature",
    "profile_for_grid",
    "radial_profile",
]

# Narrow-detector-mode approximation w_0 << w_p baked into the closed forms.
WAIST_RATIO_WARN = 0.1


@dataclass(frozen=True)
class SpdcParams:
    """Physical source parameters.

    Attributes
    ----------
    w_p : float
        Pump waist.
    w_0 : float
        Detector-mode waist (must be well below w_p for the closed forms).
    L : float
        Crystal length.
    k_p : float
        Pump wavenumber.
    k_d : float
        Degenerate signal/idler wavenumber.
    theta_d : float
        Down-conversion half-angle, radians, in [0, pi/2).
    f : float
        Imaging-lens focal length.
    Xi : float
        Dimensionless squeezing scale (absorbs pump amplitude and
        proportionality constants).
    """

    w_p: float
    w_0: float
    L: float
    k_p: float
    k_d: float
    theta_d: float
    f: float
    Xi: float

    def __post_init__(self):
        for name in ("w_p", "w_0", "L", "k_p", "k_d", "f"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.theta_d < 0:
            raise ValueError("theta_d must be non-negative")
        if self.Xi < 0:
            raise ValueError("Xi must be non-negative")
        if self.w_0 / self.w_p > WAIST_RATIO_WARN:
            warnings.warn(
                f"w_0/w_p = {self.w_0 / self.w_p:.3g} is not small; the closed-form "
                "profile assumes a detector mode much narrower than the pump",
                stacklevel=2,
            )


@dataclass(frozen=True)
class RingParams:
    """Far-field ring: radius r0, width R, squeezing scale Xi."""

    r0: float
    R: float
    Xi: float

    def __post_init__(self):
        if self.r0 < 0:
            raise ValueError("r0 must be non-negative")
        if not self.R > 0:
            raise ValueError("R must be positive")
        if self.Xi < 0:
            raise ValueError("Xi must be non-negative")


@dataclass
class SqueezingProfile:
    """Per-pixel squeezing magnitude r_j >= 0 on a grid."""

    geometry: GridGeometry
    r: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.shape != self.geometry.shape:
            raise ValueError(f"profile shape {r.shape} does not match grid {self.geometry.shape}")
        if not np.all(np.isfinite(r)) or np.any(r < 0):
            raise ValueError("squeezing magnitudes must be finite and non-negative")
        self.r = r

    @classmethod
    def uniform(cls, geometry: GridGeometry, r: float) -> "SqueezingProfile":
        return cls(geometry, np.full(geometry.shape, float(r)))


def _sinc(x):
    # sin(x)/x with sinc(0) = 1; np.sinc is the normalized sin(pi x)/(pi x).
    return np.sinc(np.asarray(x) / np.pi)


def chi(params: SpdcParams) -> float:
    """Longitudinal wavevector offset from the non-collinear emission angle."""
    if params.theta_d >= math.pi / 2:
        raise ValueError("theta_d must lie in [0, pi/2)")
    s = math.sin(params.theta_d)
    return params.k_d * s * s / math.cos(params.theta_d)


def delta_kz(k1, k2, params: SpdcParams) -> float:
    """Longitudinal phase mismatch for a signal/idler wavevector pair."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    return float(np.sum((k1 - k2) ** 2) / (2.0 * params.k_p) - chi(params))


def eta_k(k0, params: SpdcParams):
    """Closed-form effective squeezing versus transverse wavevector."""
    k0 = np.asarray(k0, dtype=float)
    k0_sq = np.sum(k0 * k0, axis=-1)
    arg = k0_sq * params.L / params.k_p - 0.5 * params.L * chi(params)
    return params.Xi * _sinc(arg)


def eta_x(x0, ring: RingParams):
    """Closed-form far-field squeezing ring; signed (sinc side lobes)."""
    x0 = np.asarray(x0, dtype=float)
    x0_sq = np.sum(x0 * x0, axis=-1)
    return ring.Xi * _sinc((x0_sq - ring.r0**2) / ring.R**2)


def eta_at_radius(rho, ring: RingParams):
    """Ring profile as a function of radial distance alone."""
    rho = np.asarray(rho, dtype=float)
    return ring.Xi * _sinc((rho * rho - ring.r0**2) / ring.R**2)


def ring_from_spdc(params: SpdcParams) -> RingParams:
    """Far-field ring parameters of a physical source."""
    if params.theta_d >= math.pi / 2:
        raise ValueError("theta_d must lie in [0, pi/2)")
    r0 = params.f * math.tan(params.theta_d)
    R = 2.0 * params.f / math.sqrt(params.L * params.k_p)
    return RingParams(r0=r0, R=R, Xi=params.Xi)


def _crystal_mean_midpoint(w: float, L: float, n_steps: int) -> complex:
    """(1/L) * int exp(i*w*z) dz over [-L/2, L/2] by the composite midpoint rule."""
    h = L / n_steps
    z = -L / 2 + (np.arange(n_steps) + 0.5) * h
    return complex(np.mean(np.exp(1j * w * z)))


def eta_quadrature_complex(k0, params: SpdcParams, n_steps: int, rule: str = "simpson") -> complex:
    """Crystal integral (Xi/L) * int exp(-2iz|k0|^2/k_p + iz*chi) dz, numerically.

    The integration runs over z in [-L/2, L/2]; the imaginary part cancels by
    symmetry and is returned only as a diagnostic.
    """
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")
    k0 = np.asarray(k0, dtype=float)
    w = chi(params) - 2.0 * np.sum(k0 * k0) / params.k_p
    L = params.L
    if rule == "midpoint":
        return complex(params.Xi * _crystal_mean_midpoint(w, L, n_steps))
    if rule == "simpson":
        n = n_steps + (n_steps % 2)  # composite Simpson wants an even interval count
        y = np.exp(1j * w * np.linspace(-L / 2, L / 2, n + 1))
        # (1/L) * h/3 * (y_0 + 4*sum(odd) + 2*sum(even interior) + y_n), h = L/n
        return complex(params.Xi * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]) / (3 * n))
    raise ValueError(f"unknown quadrature rule {rule!r}")


def eta_quadrature(k0, params: SpdcParams, n_steps: int, rule: str = "simpson") -> float:
    """Real part of the crystal integral; converges to :func:`eta_k`."""
    return eta_quadrature_complex(k0, params, n_steps, rule).real


def pair_overlap(ka, kb, params: SpdcParams) -> float:
    """General two-wavevector overlap in the narrow-detector-mode limit.

    Gaussian prefactor exp(-w_0^2 |ka+kb|^2 / 8) times the crystal sinc in
    |ka-kb|^2/4.  Reduces to :func:`eta_k` at kb = -ka.
    """
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    pref = math.exp(-params.w_0**2 * float(np.sum((ka + kb) ** 2)) / 8.0)
    arg = float(np.sum((ka - kb) ** 2)) * params.L / (4.0 * params.k_p) - 0.5 * params.L * chi(params)
    return params.Xi * pref * float(_sinc(arg))


def pair_overlap_quadrature(ka, kb, params: SpdcParams, n_steps: int) -> float:
    """Numerical cross-check of :func:`pair_overlap` (midpoint z-quadrature)."""
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    pref = math.exp(-params.w_0**2 * float(np.sum((ka + kb) ** 2)) / 8.0)
    w = chi(params) - float(np.sum((ka - kb) ** 2)) / (2.0 * params.k_p)
    return pref * params.Xi * _crystal_mean_midpoint(w, params.L, n_steps).real


def profile_for_grid(geometry: GridGeometry, ring: RingParams) -> SqueezingProfile:
    """Per-pixel squeezing magnitudes |eta| at the pixel centers."""
    x, y = pixel_centers(geometry)
    rho = np.hypot(x, y)
    return SqueezingProfile(geometry, np.abs(eta_at_radius(rho, ring)))


def radial_profile(ring: RingParams, n_samples: int = 512) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial cut (x, eta, |eta|^2 normalized to unit peak).

    Samples n_samples points over [0, r0 + 4R], enough to resolve several
    sinc lobes.  The exact ring radius is inserted into the grid when the
    uniform spacing misses it, so the normalized curve always carries a
    sample that peaks at exactly 1.0 at x = r0.
    """
    if n_samples < 2:
        raise ValueError("need at least two radial samples")
    x = np.linspace(0.0, ring.r0 + 4.0 * ring.R, n_samples)
    at = np.searchsorted(x, ring.r0)
    if x[at] != ring.r0:
        x = np.insert(x, at, ring.r0)
    eta = eta_at_radius(x, ring)
    if ring.Xi > 0:
        eta_sq_norm = (eta / ring.Xi) ** 2
    else:
        eta_sq_norm = np.zeros_like(eta)
    return x, eta, eta_sq_norm
