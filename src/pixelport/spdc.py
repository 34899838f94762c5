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
from dataclasses import dataclass, fields

import numpy as np

from .grid import GridGeometry, _center_axes

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

# Pixels per block of rows in profile_for_grid (at least one row).  It bounds
# the scratch of _eta_over and nothing else: every value is computed alone.
_PROFILE_BLOCK = 1 << 14


def _require_finite(params) -> None:
    """ValueError naming the first field of a parameter dataclass that is NaN or infinite."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


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
        _require_finite(self)
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
        _require_finite(self)
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

    The bits of np.sinc(u / pi), u = (rho^2 - r0^2) / R^2, or u = ((rho - r0) / R) (rho / R + r0 / R)
    where a square leaves float64; 0 where even that overflows (|sinc u| <= 1/|u| < 1e-307 there).
    """
    return _eta_over(np.array(rho, dtype=float), ring)[()]


def _eta_over(rho: np.ndarray, ring: RingParams) -> np.ndarray:
    """eta_at_radius(rho, ring) written over the float64 array rho, through np.sinc's steps in one scratch array."""
    r0, R = np.float64(ring.r0), np.float64(ring.R)
    with np.errstate(all="ignore"):
        y = np.multiply(rho, rho, out=np.empty_like(rho))  # an array also where rho is 0-d
        y -= r0**2
        y /= R**2
        y /= np.pi
        y *= np.pi  # np.sinc(x) takes y = pi * x, sets y's zeros to eps and returns sin(y) / y
        y[y == 0.0] = np.finfo(float).eps
        lost = ~np.isfinite(y)  # sin(y) / y is finite wherever y is
        far = rho[lost]
        np.divide(np.sin(y, out=rho), y, out=rho)
        d = far - r0
        rho[lost] = np.nan_to_num(np.sinc(np.where(d == 0.0, 0.0, (d / R) * (far / R + r0 / R)) / np.pi), nan=0.0)
    rho *= ring.Xi
    return rho


def ring_from_spdc(params: SpdcParams) -> RingParams:
    """Far-field ring parameters of a physical source; ValueError if r0 or R leaves float64's range."""
    r0 = params.f * math.tan(params.theta_d)
    lk = params.L * params.k_p
    R = 2.0 * params.f / math.sqrt(lk) if lk > 0 else math.inf
    if not (math.isfinite(r0) and 0 < R < math.inf):
        raise ValueError(f"the spdc parameters put the ring at r0 = {r0!r}, R = {R!r}, outside float64's range")
    return RingParams(r0=r0, R=R, Xi=params.Xi)


def profile_for_grid(geometry: GridGeometry, ring: RingParams) -> SqueezingProfile:
    """Per-pixel squeezing magnitudes |eta| at the pixel centers.

    The map is written in blocks of whole rows, each block's radii straight
    into the result and then written over by |eta|, so the call holds the
    map and one block's scratch (the sinc argument and two boolean masks,
    about 10 bytes per pixel of a block): about 1.3x the map's bytes at
    256x256 and less on larger grids.
    """
    xs, ys = _center_axes(geometry)
    r = np.empty(geometry.shape)
    step = max(1, _PROFILE_BLOCK // geometry.width)
    with np.errstate(over="ignore"):  # an infinite radius is sinc's limit 0 in eta_at_radius
        for lo in range(0, geometry.height, step):
            _eta_over(np.hypot(xs[None, :], ys[lo : lo + step, None], out=r[lo : lo + step]), ring)
    return SqueezingProfile(geometry, np.abs(r, out=r))


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
