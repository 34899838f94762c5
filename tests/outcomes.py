"""Test-only per-outcome forms of the teleportation channel.

The package evaluates the channel only per image, in the offset form of
:func:`pixelport.channel.teleport_image`, and never forms a measurement
outcome beta.  This module keeps the per-outcome steps of the protocol:
drawing outcomes, the receiver's conditional amplitude, the feedback
displacement and the fidelity of one outcome, so the tests can check the
shipped closed forms against them, and the outcome-averaged fidelity as the
package evaluates it.
"""

from __future__ import annotations

import math

import numpy as np


def conditional_amplitude(alpha, beta, r):
    """Receiver amplitude right after the measurement, before feedback."""
    return np.tanh(r) * (alpha - beta)


def feedback_displace(zeta, beta):
    """Amplitude after displacing back by the measurement outcome.

    Identically equal to tanh(r)*alpha + (1-tanh(r))*beta when zeta came from
    :func:`conditional_amplitude` with the same beta and r.
    """
    return zeta + beta


def conditional_fidelity(alpha, beta, r):
    """Overlap fidelity of the teleported pixel for a known outcome beta."""
    d = np.abs(alpha - beta)
    g = 1.0 - np.tanh(r)
    return np.exp(-(g * g) * d * d)


def numpy_fidelity(r):
    """(1 + tanh r)/2 with tanh through numpy, the pathway the package takes, as a float."""
    return float((1.0 + np.tanh(np.array([r]))[0]) / 2.0)


def sample_bell_outcomes(alpha, r, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n measurement outcomes beta for every entry of alpha and r.

    beta follows the rotation-invariant complex Gaussian centered on alpha
    with density exp(-|beta-alpha|^2 / cosh(r)^2) / (pi cosh(r)^2), i.e. each
    real component is Normal(component of alpha, cosh(r)^2 / 2).  alpha and r
    broadcast to a shape S and the result has shape S + (n,).  One
    ``standard_normal`` call of shape S + (2, n) supplies the draws: per
    entry, the n real parts and then the n imaginary parts.
    """
    alpha, r = np.broadcast_arrays(np.asarray(alpha, dtype=complex), np.asarray(r, dtype=float))
    s = (np.cosh(r) / math.sqrt(2.0))[..., None]
    z = rng.standard_normal(alpha.shape + (2, n))
    return alpha.real[..., None] + s * z[..., 0, :] + 1j * (alpha.imag[..., None] + s * z[..., 1, :])
