"""Pixel grids and image fields.

An optical image is held as a rectangular grid of pixels, each carrying one
complex coherent amplitude.  A field sampled at the pixel centers is converted
to per-pixel amplitudes by scaling with the square root of the pixel area
(``pitch``), and back.  Down-converted pairs satisfy k1 = -k2, so pixels are
anti-correlated in pairs under point reflection through the grid center:
pixel (i, j) pairs with (width-1-i, height-1-j), which is where a downstream
receiver's copy of it lands.  On an array the pairing is ``[::-1, ::-1]``,
and on a centered grid it maps each pixel center to the negated center.

A corner, amplitude, output sample or center past float64 raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridGeometry",
    "ImageField",
    "decompose",
    "synthesize",
    "centered_origin",
]


@dataclass(frozen=True)
class GridGeometry:
    """Rectangular pixel grid.

    Parameters
    ----------
    width, height : int
        Pixel counts along x and y.
    pitch : float
        Side length of one (square) pixel, positive and finite.  The pixel
        area is ``pitch**2``.
    origin : tuple of float
        Transverse position of the grid corner (the corner of pixel (0, 0)
        nearest to negative x and y).  Pixel centers sit at
        ``origin + (i + 0.5, j + 0.5) * pitch``.  It must be finite, also
        when centered: ``-0.5 * width * pitch`` overflows for a huge pitch.
    """

    width: int
    height: int
    pitch: float = 1.0
    origin: tuple[float, float] | None = None

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid needs at least one pixel per axis")
        if not 0 < self.pitch < math.inf:
            raise ValueError(f"pitch must be positive and finite, got {self.pitch!r}")
        if self.origin is None:
            object.__setattr__(self, "origin", centered_origin(self.width, self.height, self.pitch))
        else:
            object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"grid origin must be finite, got {self.origin}")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (rows, cols) = (height, width)."""
        return (self.height, self.width)

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


def centered_origin(width: int, height: int, pitch: float) -> tuple[float, float]:
    """Grid-corner position that centers the grid on the optical axis."""
    return (-0.5 * width * pitch, -0.5 * height * pitch)


@dataclass
class ImageField:
    """Per-pixel coherent amplitudes on a grid.

    ``amplitudes[j, i]`` is the full amplitude teleported for pixel (i, j).
    """

    geometry: GridGeometry
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != self.geometry.shape:
            raise ValueError(
                f"amplitude array shape {amps.shape} does not match grid {self.geometry.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        self.amplitudes = amps


def decompose(samples: np.ndarray, geometry: GridGeometry, *, out: np.ndarray | None = None) -> ImageField:
    """Turn field samples at pixel centers into per-pixel amplitudes.

    The mode value is taken constant over each pixel, so the amplitude of
    pixel j is the sample times the square root of the pixel area:
    ``samples * pitch``.  ValueError if finite samples overflow there;
    ImageField names non-finite ones.  The amplitudes go to ``out`` if it is
    given (numpy's ufunc convention: a complex128 array of the grid's shape,
    which may be ``samples`` itself); otherwise to a new array, and
    ``samples`` is left alone.
    """
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != geometry.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid {geometry.shape}")
    finite = np.all(np.isfinite(samples))  # read before out can write over the samples
    with np.errstate(over="ignore"):
        amps = np.multiply(samples, geometry.pitch, out=out)
    if finite and not np.all(np.isfinite(amps)):
        raise ValueError(f"pitch = {float(geometry.pitch)!r} makes the amplitudes samples * pitch overflow")
    return ImageField(geometry, amps)


def synthesize(field: ImageField, *, out: np.ndarray | None = None) -> np.ndarray:
    """Exact inverse of :func:`decompose`: recover the center samples; ValueError if they overflow.

    The samples go to ``out`` if it is given, as in :func:`decompose` (it may
    be ``field.amplitudes`` itself); otherwise to a new array.
    """
    pitch = float(field.geometry.pitch)
    with np.errstate(over="ignore", invalid="ignore"):  # dividing can overflow where multiplying did not
        samples = np.divide(field.amplitudes, pitch, out=out)
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"pitch = {pitch!r} makes the output samples amplitudes / pitch overflow")
    return samples


def _center_axes(geometry: GridGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates along each axis, as 1-D arrays (xs, ys); ValueError past float64."""
    ox, oy = geometry.origin
    for axis, origin, n in (("x", ox, geometry.width), ("y", oy, geometry.height)):
        last = origin + (n - 0.5) * geometry.pitch  # Python floats: an overflow gives inf, not a warning
        if not math.isfinite(last):
            raise ValueError(f"pixel centers must be finite, got origin_{axis} + ({n} - 0.5) * pitch = {last!r}")
    xs = ox + (np.arange(geometry.width) + 0.5) * geometry.pitch
    ys = oy + (np.arange(geometry.height) + 0.5) * geometry.pitch
    return xs, ys
