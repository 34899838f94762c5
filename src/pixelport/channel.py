"""Per-pixel continuous-variable teleportation channel.

Each pixel's coherent amplitude alpha is sent through the standard CV
teleportation protocol with a two-mode squeezed resource of strength r: a
joint (Bell-type) measurement yields a complex outcome beta distributed as a
Gaussian centered on alpha with total variance cosh(r)^2, the receiver's mode
collapses to the coherent amplitude

    zeta(beta) = tanh(r) * (alpha - beta),

and the feedback displacement by beta leaves

    output = tanh(r) * alpha + (1 - tanh(r)) * beta.

The teleportation fidelity for one outcome is
F(beta) = exp(-(1 - tanh r)^2 |alpha - beta|^2), averaging to (1 + tanh r)/2.
Whole images draw every pixel's outcomes from one seeded generator in
row-major pixel order and evaluate them as array expressions, block by
block; the blocks only bound memory and never change a result.  A shot is
evaluated from its offset beta - alpha = cosh(r)/sqrt(2) z, never from beta:
since (1 - tanh r) cosh r = e^-r, the output is alpha + e^-r/sqrt(2) z and the
fidelity exp(-e^-2r |z|^2 / 2), with no cancellation at any r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridGeometry, ImageField
from .spdc import SqueezingProfile

__all__ = [
    "MAX_R",
    "MAX_SHOTS",
    "FidelityMap",
    "average_fidelity",
    "teleport_image",
]

# Largest supported squeezing.  cosh(r) overflows float64 at r = 710.48;
# stopping at 700 leaves a factor e^10 of headroom, so a measurement outcome
# beta = alpha + cosh(r)/sqrt(2) * z stays finite for any normal draw z.
MAX_R = 700.0

# Normals drawn per block of whole pixels in teleport_image.  It bounds the
# block's temporaries (a few arrays of this many doubles) and nothing else.
_BLOCK_NORMALS = 1 << 20

# Largest supported n_shots: one pixel's 2 * n_shots normals still fit in one
# block, so _BLOCK_NORMALS keeps bounding memory.
MAX_SHOTS = _BLOCK_NORMALS // 2


@dataclass
class FidelityMap:
    """Per-pixel fidelities plus their mean over the image."""

    geometry: GridGeometry
    per_pixel: np.ndarray
    image_fidelity: float

    def __post_init__(self):
        per = np.asarray(self.per_pixel, dtype=float)
        if per.shape != self.geometry.shape:
            raise ValueError(f"fidelity shape {per.shape} does not match grid {self.geometry.shape}")
        self.per_pixel = per


def average_fidelity(r):
    """Outcome-averaged fidelity (1 + tanh r)/2 for one pixel."""
    return (1.0 + np.tanh(r)) / 2.0


def teleport_image(
    field: ImageField,
    profile: SqueezingProfile,
    seed: int = 0,
    n_shots: int = 0,
    raw_plane: bool = False,
) -> tuple[ImageField, FidelityMap]:
    """Teleport a whole image, one independent channel per pixel.

    Parameters
    ----------
    field : ImageField
        Input per-pixel amplitudes.
    profile : SqueezingProfile
        Per-pixel squeezing magnitude; geometry must match the field.
    seed : int
        Non-negative seed of the single generator ``default_rng(seed)``.
        Pixel (i, j), with row-major index k = j*width + i, uses normals
        [2*n_shots*k, 2*n_shots*(k+1)) of its ``standard_normal`` stream:
        the n_shots real parts of beta, then the n_shots imaginary parts.
    n_shots : int
        0 runs the analytic channel (no sampling): the output is
        tanh(r)*alpha, which is the output at outcome beta = 0 and not the
        shot mean (that tends to alpha), and the fidelity map holds the exact
        outcome average (1 + tanh r)/2.  1 draws a single stochastic
        realization per pixel.  Larger values report per-pixel Monte Carlo
        means over that many shots, at most MAX_SHOTS.
    raw_plane : bool
        The physical receiving plane is point-reflected (pixel j arrives at
        its partner).  By default the image is reflected back upright; set
        True to get the raw plane, whose two arrays are then reversed views
        (``[::-1, ::-1]``) of the upright ones, not copies.

    Returns
    -------
    (ImageField, FidelityMap)
        Teleported image and per-pixel fidelities on the same plane.
    """
    g = field.geometry
    if profile.geometry != g:
        raise ValueError("profile geometry does not match image geometry")
    if n_shots < 0:
        raise ValueError("n_shots must be non-negative")
    if n_shots > MAX_SHOTS:
        raise ValueError(f"n_shots must be at most {MAX_SHOTS}, got {n_shots}")

    amps = field.amplitudes
    rs = profile.r
    if n_shots == 0:
        t = np.tanh(rs)
        out = t * amps
        # average_fidelity(rs) = (1 + t) / 2, the same bits, written over t
        fid = np.divide(np.add(1.0, t, out=t), 2.0, out=t)
    else:
        flat_a = amps.ravel()
        flat_r = rs.ravel()
        out = np.empty(g.n_pixels, dtype=complex)
        fid = np.empty(g.n_pixels, dtype=float)
        rng = np.random.default_rng(seed)
        step = max(1, _BLOCK_NORMALS // (2 * n_shots))
        # The offset form of the module docstring.  Amplitudes near the float64
        # limit can overflow in the shot mean; that is reported once below
        # instead of as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, g.n_pixels, step):
                a = flat_a[lo : lo + step, None]
                c = np.exp(-flat_r[lo : lo + step, None]) / math.sqrt(2.0)
                z = rng.standard_normal((a.shape[0], 2, n_shots))
                z_re, z_im = z[:, 0, :], z[:, 1, :]
                out[lo : lo + step] = (a.real + c * z_re + 1j * (a.imag + c * z_im)).mean(axis=-1)
                fid[lo : lo + step] = np.exp(-(c * c) * (z_re * z_re + z_im * z_im)).mean(axis=-1)
        if not np.all(np.isfinite(out)):
            raise ValueError("the teleported amplitudes overflow float64; use a smaller pitch or input")
        out = out.reshape(g.shape)
        fid = fid.reshape(g.shape)

    # Correctly rounded mean: a uniform profile then reports exactly the
    # per-pixel closed-form value instead of drifting a few ulp in the
    # floating-point reduction.
    mean = math.fsum(fid.ravel()) / fid.size
    if raw_plane:
        out = out[::-1, ::-1]
        fid = fid[::-1, ::-1]
    return ImageField(g, out), FidelityMap(g, fid, mean)
