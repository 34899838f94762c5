"""Squeezing profile of a realistic down-conversion source.

A Gaussian pump of waist w_p in a crystal of length L produces photon pairs
whose phase matching, integrated along the crystal, yields a sinc-shaped
effective squeezing versus transverse wavevector.  Imaged to the far field
through a lens of focal length f, the profile becomes a ring of radius
r0 = f*tan(theta_d) and width R = 2f/sqrt(L*k_p):

    eta(x0) = Xi * sinc((|x0|^2 - r0^2) / R^2),    sinc(x) = sin(x)/x.

The channel consumes the magnitude |eta|; the signed value is kept for
plotting the side lobes.  Only this far-field closed form ships: the tests
keep the k-space derivation and a quadrature of the crystal integral as the
references it is checked against.  The signal wavenumber ``k_d`` enters
only that derivation, so it changes no output, and the mode waist ``w_0``
only feeds the narrow-waist warning.
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
    "eta_at_radius",
    "ring_from_spdc",
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
        if not self.theta_d < math.pi / 2:
            raise ValueError("theta_d must lie below pi/2")
        if self.Xi < 0:
            raise ValueError("Xi must be non-negative")
        if self.w_0 / self.w_p > WAIST_RATIO_WARN:
            warnings.warn(
                f"w_0/w_p = {self.w_0 / self.w_p:.3g} is not small; the closed-form "
                "profile assumes a detector mode much narrower than the pump",
                stacklevel=3,  # past the dataclass __init__, to the code that built the params
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


def eta_at_radius(rho, ring: RingParams):
    """Ring profile as a function of radial distance alone; signed (sinc side lobes).

    Where a square in u = (rho^2 - r0^2) / R^2 leaves float64, u is taken as
    ((rho - r0) / R) (rho / R + r0 / R) instead; where even that overflows,
    sinc is taken at its limit 0 (|sinc u| <= 1/|u| < 1e-307 there).
    """
    rho = np.asarray(rho, dtype=float)
    r0, R = np.float64(ring.r0), np.float64(ring.R)
    with np.errstate(all="ignore"):
        # sin(x)/x with sinc(0) = 1; np.sinc is the normalized sin(pi x)/(pi x).
        eta = np.asarray(np.sinc((rho * rho - r0**2) / R**2 / np.pi))
        lost = ~np.isfinite(eta)
        if np.any(lost):
            d = rho[lost] - r0
            eta[lost] = np.sinc(np.where(d == 0.0, 0.0, (d / R) * (rho[lost] / R + r0 / R)) / np.pi)
            eta[np.isnan(eta)] = 0.0
    return ring.Xi * eta


def ring_from_spdc(params: SpdcParams) -> RingParams:
    """Far-field ring parameters of a physical source; ValueError if r0 or R leaves float64's range."""
    r0 = params.f * math.tan(params.theta_d)
    lk = params.L * params.k_p
    R = 2.0 * params.f / math.sqrt(lk) if lk > 0 else math.inf
    if not (math.isfinite(r0) and 0 < R < math.inf):
        raise ValueError(f"the spdc parameters put the ring at r0 = {r0!r}, R = {R!r}, outside float64's range")
    return RingParams(r0=r0, R=R, Xi=params.Xi)


def profile_for_grid(geometry: GridGeometry, ring: RingParams) -> SqueezingProfile:
    """Per-pixel squeezing magnitudes |eta| at the pixel centers."""
    with np.errstate(over="ignore"):  # an infinite radius is sinc's limit 0 in eta_at_radius
        rho = np.hypot(*pixel_centers(geometry))
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
