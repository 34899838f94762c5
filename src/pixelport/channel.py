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

import itertools
import math

import numpy as np

from .grid import ImageField
from .spdc import SqueezingProfile

__all__ = [
    "MAX_R",
    "MAX_SHOTS",
    "average_fidelity",
    "teleport_image",
]

# Largest supported squeezing: the tested range.  The channel never forms
# cosh(r); up to 700 its noise scale e^-r/sqrt(2) stays a normal float64, and
# the tests' per-outcome reference keeps beta = alpha + cosh(r)/sqrt(2) * z
# finite for any normal draw z (cosh(r) overflows float64 at r = 710.48).
MAX_R = 700.0

# Normals drawn per block of whole pixels in teleport_image.  It bounds the
# block's temporaries and nothing else: with the noise scale they hold about
# 2.5x the normals' bytes at most (at one shot, where the scale is per pixel).
_BLOCK_NORMALS = 1 << 20

# Largest supported n_shots.  One pixel's 2 * n_shots normals must fit in one
# block, so _BLOCK_NORMALS keeps bounding memory: 2 * MAX_SHOTS <= _BLOCK_NORMALS.
MAX_SHOTS = 1 << 19


def average_fidelity(r):
    """Outcome-averaged fidelity (1 + tanh r)/2 for one pixel."""
    return (1.0 + np.tanh(r)) / 2.0


def teleport_image(
    field: ImageField,
    profile: SqueezingProfile,
    seed: int = 0,
    n_shots: int = 0,
    *,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ImageField, np.ndarray, float]:
    """Teleport a whole image, one independent channel per pixel.

    Parameters
    ----------
    field : ImageField
        Input per-pixel amplitudes.
    profile : SqueezingProfile
        Per-pixel squeezing magnitude; its geometry (shape, pitch and origin) must be the field's.
    seed : int
        Non-negative seed of the single generator ``default_rng(seed)``.
        Pixel (i, j), with row-major index k = j*width + i, uses normals
        [2*n_shots*k, 2*n_shots*(k+1)) of its ``standard_normal`` stream:
        the n_shots real parts of beta, then the n_shots imaginary parts.
    n_shots : int
        0 runs the analytic channel (no sampling): the output is
        tanh(r)*alpha, which is the output at outcome beta = 0 and not the
        shot mean (that tends to alpha), and the fidelity is the exact
        outcome average (1 + tanh r)/2.  1 draws a single stochastic
        realization per pixel.  Larger values report per-pixel Monte Carlo
        means over that many shots, at most MAX_SHOTS.
    out : (image, fidelity), optional
        Writeable C-contiguous complex128 and float64 arrays of the grid's
        shape that receive the image and fidelity map, in numpy's
        ufunc convention; they may be ``field.amplitudes`` and ``profile.r``
        themselves, which are then overwritten.  By default both are new
        arrays and the inputs are left alone.  On a 256x256 ring, with
        ``out=(field.amplitudes, profile.r)`` an analytic call traces 0.13x
        the complex image's bytes at its peak (1.63x without), boolean maps
        of the finiteness checks; a one-shot call, one block there, traces
        2.63x, the block's temporaries (4.13x without).

    Returns
    -------
    (ImageField, fidelity, image_fidelity)
        Teleported image, its per-pixel fidelities on the same grid, and their mean.
    """
    g = field.geometry
    if profile.geometry != g:
        raise ValueError("profile geometry does not match image geometry")
    if n_shots < 0:
        raise ValueError("n_shots must be non-negative")
    if n_shots > MAX_SHOTS:
        raise ValueError(f"n_shots must be at most {MAX_SHOTS}, got {n_shots}")

    image, fid = (None, None) if out is None else out
    for arr, dtype in ((image, complex), (fid, float)):
        if arr is not None and not (
            arr.shape == g.shape and arr.dtype == dtype and arr.flags.c_contiguous and arr.flags.writeable
        ):
            raise ValueError(f"out must hold writeable C-contiguous complex128 and float64 arrays of shape {g.shape}")

    amps = field.amplitudes
    rs = profile.r
    if n_shots == 0:
        t = np.tanh(rs, out=fid)
        image = np.multiply(t, amps, out=image)
        # average_fidelity(rs) = (1 + t) / 2, the same bits, written over t
        fid = np.divide(np.add(1.0, t, out=t), 2.0, out=t)
    else:
        image = np.empty(g.shape, dtype=complex) if image is None else image
        fid = np.empty(g.shape, dtype=float) if fid is None else fid
        flat_a = amps.ravel()
        flat_r = rs.ravel()
        flat_image = image.reshape(-1)  # views, both arrays being C-contiguous
        flat_fid = fid.reshape(-1)
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
                # Each value takes the offset form's steps in their order, but in
                # one fidelity buffer, then in z itself, and the means are written
                # straight into the outputs.  c and z_re, z_im have read the
                # block's squeezing and amplitudes by then, so the outputs may
                # be the inputs.
                f = z_re * z_re
                f += z_im * z_im
                cc = c * c
                f *= np.negative(cc, out=cc)
                np.mean(np.exp(f, out=f), axis=-1, out=flat_fid[lo : lo + step])
                del f, cc
                z *= c[:, None]
                z_re += a.real
                z_im += a.imag
                x = np.multiply(1j, z_im)
                x += z_re
                np.mean(x, axis=-1, out=flat_image[lo : lo + step])
                del z, z_re, z_im, x  # before the next block draws
        if not np.all(np.isfinite(image)):
            raise ValueError("the teleported amplitudes overflow float64; use a smaller pitch or input")

    # Correctly rounded mean: a uniform profile then reports exactly the
    # per-pixel closed-form value instead of drifting a few ulp in the
    # floating-point reduction.  fsum is exact, so Python floats from tolist()
    # give the bits numpy scalars give, in about two thirds of the time; a row
    # at a time, so the floats never hold more than a row.
    mean = math.fsum(itertools.chain.from_iterable(row.tolist() for row in fid)) / fid.size
    return ImageField(g, image), fid, mean
