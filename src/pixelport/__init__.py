"""Pixel-by-pixel continuous-variable teleportation of optical images.

The package splits into the image/grid layer (:mod:`pixelport.grid`), the
down-conversion squeezing profile (:mod:`pixelport.spdc`), the analytic
teleportation channel (:mod:`pixelport.channel`), a brute-force Fock-space
oracle used to verify every closed form (:mod:`pixelport.fock`), and the
file/CLI plumbing (:mod:`pixelport.imagefile`, :mod:`pixelport.config`,
:mod:`pixelport.cli`).
"""

from .channel import average_fidelity, teleport_image
from .grid import GridGeometry, ImageField, decompose, synthesize
from .spdc import (
    RingParams,
    SpdcParams,
    SqueezingProfile,
    eta_at_radius,
    profile_for_grid,
    ring_from_spdc,
)

__version__ = "0.1.0"

__all__ = [
    "GridGeometry",
    "ImageField",
    "decompose",
    "synthesize",
    "SpdcParams",
    "RingParams",
    "SqueezingProfile",
    "eta_at_radius",
    "ring_from_spdc",
    "profile_for_grid",
    "average_fidelity",
    "teleport_image",
    "__version__",
]
