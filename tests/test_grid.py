import warnings

import numpy as np
import pytest

from kspace import pixel_center
from pixelport.grid import (
    GridGeometry,
    ImageField,
    centered_origin,
    decompose,
    pixel_centers,
    synthesize,
)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GridGeometry(0, 4)
    with pytest.raises(ValueError):
        GridGeometry(4, 4, pitch=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"pitch": float(np.finfo(float).max)}, {"origin": (np.inf, 0.0)}, {"origin": (0.0, np.nan)}],
    ids=["centered-corner-overflows", "inf-origin", "nan-origin"],
)
def test_geometry_rejects_nonfinite_origin(kwargs):
    with pytest.raises(ValueError, match="grid origin must be finite"):
        GridGeometry(3, 1, **kwargs)


@pytest.mark.parametrize("pitch", [np.inf, np.nan, -np.inf, 0.0])
def test_geometry_rejects_pitch_that_is_not_positive_and_finite(pitch):
    # with an explicit origin nothing else would catch an infinite pitch
    with pytest.raises(ValueError, match="^pitch must be positive and finite, got "):
        GridGeometry(1, 1, pitch=pitch, origin=(0.0, 0.0))


def test_default_origin_centers_grid():
    g = GridGeometry(4, 4, pitch=1.0)
    assert g.origin == (-2.0, -2.0)
    assert centered_origin(3, 5, 0.5) == (-0.75, -1.25)


def test_decompose_zero_field():
    g = GridGeometry(3, 3, pitch=0.5)
    field = decompose(np.zeros((3, 3), dtype=complex), g)
    assert np.all(field.amplitudes == 0)


def test_decompose_single_pixel_scaling():
    g = GridGeometry(1, 1, pitch=0.5)
    field = decompose(np.array([[1.0 + 0.0j]]), g)
    assert field.amplitudes[0, 0] == 0.5 + 0.0j


def test_decompose_uniform_normalization():
    n_side = 4
    pitch = 0.25
    g = GridGeometry(n_side, n_side, pitch=pitch)
    c = np.full((n_side, n_side), 1.0 / (pitch * n_side), dtype=complex)
    field = decompose(c, g)
    assert np.sum(np.abs(field.amplitudes) ** 2) == pytest.approx(1.0, rel=1e-14)


def test_decompose_shape_mismatch():
    g = GridGeometry(3, 2)
    with pytest.raises(ValueError):
        decompose(np.zeros((3, 3), dtype=complex), g)


def test_round_trip_exact():
    rng = np.random.default_rng(42)
    samples = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    g = GridGeometry(8, 8, pitch=0.5)
    back = synthesize(decompose(samples, g))
    assert np.max(np.abs(back - samples)) == 0.0


def test_round_trip_energy_invariant():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    g = GridGeometry(7, 5, pitch=0.5)
    field = decompose(samples, g)
    assert np.sum(np.abs(synthesize(field)) ** 2) == np.sum(np.abs(samples) ** 2)


def test_synthesize_division():
    g = GridGeometry(1, 1, pitch=0.5)
    field = ImageField(g, np.array([[0.5 + 0.0j]]))
    assert synthesize(field)[0, 0] == 1.0 + 0.0j


def test_pixel_center_basic():
    g = GridGeometry(4, 4, pitch=1.0, origin=(0.0, 0.0))
    assert pixel_center(0, 0, g) == (0.5, 0.5)


def test_pixel_centers_symmetric_about_axis():
    g = GridGeometry(4, 4, pitch=1.0, origin=(-2.0, -2.0))
    xs = [pixel_center(i, 0, g)[0] for i in range(4)]
    assert xs == [-1.5, -0.5, 0.5, 1.5]


@pytest.mark.parametrize(
    "width,height", [(6, 4), (4, 4), (5, 5), (6, 3), (1, 7)], ids=["6x4", "even", "odd", "6x3", "column"]
)
def test_partner_centers_are_reflections(width, height):
    # the raw plane puts pixel (i, j) at its partner (width-1-i, height-1-j)
    # with [::-1, ::-1], whose center is the negated center; on an odd side
    # the central pixel is its own partner and sits on the axis
    g = GridGeometry(width, height, pitch=0.3)  # default centered origin
    x, y = pixel_centers(g)
    np.testing.assert_allclose(x[::-1, ::-1], -x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(y[::-1, ::-1], -y, rtol=0, atol=1e-15)


def test_pixel_centers_grid_matches_scalar():
    g = GridGeometry(3, 2, pitch=0.7, origin=(0.1, -0.4))
    x, y = pixel_centers(g)
    for i in range(g.width):
        for j in range(g.height):
            cx, cy = pixel_center(i, j, g)
            assert x[j, i] == cx
            assert y[j, i] == cy


def test_image_field_rejects_nonfinite():
    g = GridGeometry(2, 2)
    bad = np.array([[1.0, np.inf], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        ImageField(g, bad)


LAYOUTS = {"flipped": np.fliplr, "fortran": np.asfortranarray, "point-reflected": lambda a: a[::-1, ::-1]}


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_amplitudes_in_any_memory_layout(layout):
    # the finiteness checks read the complex values, so no layout is refused
    g = GridGeometry(3, 2, pitch=0.5)
    samples = LAYOUTS[layout](np.arange(6.0).reshape(2, 3) - 1j * np.arange(6.0, 12.0).reshape(2, 3))
    assert np.array_equal(ImageField(g, samples).amplitudes, samples)
    assert np.array_equal(synthesize(decompose(samples, g)), samples)
    bad = LAYOUTS[layout](np.array([[0.0, 1.0, 2.0], [3.0, complex(4.0, np.nan), 5.0]]))
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        ImageField(g, bad)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        decompose(bad, g)


MAX = float(np.finfo(float).max)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: decompose(np.full((2, 2), 1e10 + 0j), GridGeometry(2, 2, pitch=1e300)), "amplitudes samples"),
        (lambda: synthesize(ImageField(GridGeometry(1, 1, pitch=1e-320), np.ones((1, 1)))), "output samples"),
    ],
    ids=["decompose", "synthesize"],
)
def test_scaling_overflow_raises_without_warning(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^pitch = .* makes the {message} .* overflow$"):
            call()


def test_decompose_names_nonfinite_samples_not_the_pitch():
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        decompose(np.array([[np.nan + 0j]]), GridGeometry(1, 1, pitch=2.0))


@pytest.mark.parametrize(
    "origin,pitch", [((MAX, 0.0), 1e300), ((-MAX, 0.0), MAX)], ids=["sum-overflows", "product-overflows"]
)
def test_pixel_centers_past_float64_raise_without_warning(origin, pitch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"pixel centers must be finite, got origin_x \+ \(2 - 0\.5\)"):
            pixel_centers(GridGeometry(2, 2, pitch=pitch, origin=origin))


def test_pixel_centers_near_float64_edge():
    # the products (i + 0.5) * pitch reach 0.75 * MAX, and the corner -MAX brings every center back in range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = pixel_centers(GridGeometry(2, 2, pitch=MAX / 2, origin=(-MAX, -MAX)))
    assert x[0].tolist() == [-MAX + MAX / 4, -MAX + 0.75 * MAX] and np.all(y == x.T)
