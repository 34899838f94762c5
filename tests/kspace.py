"""Test-only references for the closed forms the package ships.

The package evaluates the down-conversion ring only in its far-field closed
form (:func:`pixelport.spdc.ring_from_spdc`, :func:`pixelport.spdc.eta_at_radius`)
and the pixel centres only along each axis (:func:`pixelport.grid._center_axes`).
This module keeps the k-space derivation the ring comes from, a composite
Simpson quadrature of its crystal integral, a scalar pixel centre and the
grid of centres the shipped axes span, so the tests can check the shipped
code against them.
"""

from __future__ import annotations

import math

import numpy as np

from pixelport.grid import GridGeometry, _center_axes
from pixelport.spdc import SpdcParams


def chi(params: SpdcParams) -> float:
    """Longitudinal wavevector offset from the non-collinear emission angle."""
    s = math.sin(params.theta_d)
    return params.k_d * s * s / math.cos(params.theta_d)


def eta_k(k0, params: SpdcParams):
    """Closed-form effective squeezing versus transverse wavevector."""
    k0 = np.asarray(k0, dtype=float)
    k0_sq = np.sum(k0 * k0, axis=-1)
    arg = k0_sq * params.L / params.k_p - 0.5 * params.L * chi(params)
    # sin(x)/x with sinc(0) = 1; np.sinc is the normalized sin(pi x)/(pi x)
    return params.Xi * np.sinc(arg / np.pi)


def eta_quadrature(k0, params: SpdcParams, n_steps: int) -> complex:
    """Crystal integral (Xi/L) * int exp(-2iz|k0|^2/k_p + iz*chi) dz, numerically.

    Composite Simpson rule over z in [-L/2, L/2]; its real part converges to
    :func:`eta_k` and its imaginary part cancels by symmetry.
    """
    k0 = np.asarray(k0, dtype=float)
    w = chi(params) - 2.0 * np.sum(k0 * k0) / params.k_p
    L = params.L
    n = n_steps + (n_steps % 2)  # composite Simpson wants an even interval count
    y = np.exp(1j * w * np.linspace(-L / 2, L / 2, n + 1))
    # (1/L) * h/3 * (y_0 + 4*sum(odd) + 2*sum(even interior) + y_n), h = L/n
    return complex(params.Xi * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1]) / (3 * n))


def pixel_center(i: int, j: int, geometry: GridGeometry) -> tuple[float, float]:
    """Transverse position of the center of pixel (i, j)."""
    ox, oy = geometry.origin
    return (ox + (i + 0.5) * geometry.pitch, oy + (j + 0.5) * geometry.pitch)


def pixel_centers(geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Center coordinates for every pixel, as (x, y) arrays of shape (height, width); ValueError past float64."""
    return np.meshgrid(*_center_axes(geometry))
