import math

import numpy as np
import pytest

from outcomes import conditional_amplitude, conditional_fidelity, feedback_displace, sample_bell_outcomes
from pixelport import channel
from pixelport.channel import average_fidelity, teleport_image
from pixelport.grid import GridGeometry, ImageField, decompose
from pixelport.spdc import RingParams, SqueezingProfile, profile_for_grid


class ForcedRng:
    """Stand-in generator whose standard normals are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


def test_conditional_amplitude_at_outcome_equal_input():
    assert conditional_amplitude(0.7 + 0.2j, 0.7 + 0.2j, 1.3) == 0.0


def test_conditional_amplitude_no_squeezing():
    assert conditional_amplitude(0.9, 0.1, 0.0) == 0.0


def test_conditional_amplitude_direct_value():
    got = conditional_amplitude(1.0, 0.0, 1.0)
    assert got == pytest.approx(math.tanh(1.0), rel=1e-15)


def test_feedback_high_squeezing_recovers_input():
    alpha = 1.0 + 1.0j
    for beta in (0.0, 0.5, -2.0 + 1.0j):
        zeta = conditional_amplitude(alpha, beta, 20.0)
        assert feedback_displace(zeta, beta) == pytest.approx(alpha, abs=1e-8)


def test_feedback_no_squeezing_passes_noise():
    beta = 0.37 - 0.8j
    zeta = conditional_amplitude(0.5, beta, 0.0)
    assert feedback_displace(zeta, beta) == beta


def test_feedback_direct_value():
    alpha, beta, r = 1.0 + 1.0j, 0.5 + 0.0j, 1.0
    got = feedback_displace(conditional_amplitude(alpha, beta, r), beta)
    t = math.tanh(1.0)
    assert got == pytest.approx(t * alpha + (1 - t) * beta, rel=1e-15)


def test_channel_identity_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(200):
        alpha = complex(*rng.normal(size=2))
        beta = complex(*rng.normal(size=2))
        r = rng.uniform(0.0, 3.0)
        got = feedback_displace(conditional_amplitude(alpha, beta, r), beta)
        want = np.tanh(r) * alpha + (1 - np.tanh(r)) * beta
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)


def test_conditional_fidelity_perfect_outcome():
    assert conditional_fidelity(0.3 + 0.4j, 0.3 + 0.4j, 0.7) == 1.0


def test_conditional_fidelity_high_squeezing():
    assert conditional_fidelity(1.0, -5.0, 25.0) == pytest.approx(1.0, abs=1e-12)


def test_conditional_fidelity_direct_value():
    assert conditional_fidelity(1.0, 0.0, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_sample_mean_centered_on_input():
    alpha = 0.35 + 0.8j
    r = 0.9
    n = 1_000_000
    rng = np.random.default_rng(2)
    beta = sample_bell_outcomes(alpha, r, rng, n)
    sigma = math.cosh(r) / math.sqrt(2.0)
    bound = 4.0 * sigma / math.sqrt(n)
    assert abs(beta.real.mean() - alpha.real) < bound
    assert abs(beta.imag.mean() - alpha.imag) < bound


@pytest.mark.parametrize("r,var", [(0.0, 0.5), (1.0, math.cosh(1.0) ** 2 / 2)])
def test_sample_variance(r, var):
    rng = np.random.default_rng(8)
    beta = sample_bell_outcomes(0.1 + 0.2j, r, rng, 200_000)
    assert beta.real.var() == pytest.approx(var, rel=0.01)


def test_sampler_scalar_draws_follow_normal_stream():
    # scalar inputs draw exactly what two rng.normal calls would:
    # n real parts, then n imaginary parts
    alpha, r, n = 0.3 - 0.6j, 0.5, 1000
    got = sample_bell_outcomes(alpha, r, np.random.default_rng(4), n)
    rng = np.random.default_rng(4)
    s = np.cosh(r) / math.sqrt(2.0)
    want = rng.normal(alpha.real, s, n) + 1j * rng.normal(alpha.imag, s, n)
    assert got.shape == (n,)
    assert np.array_equal(got, want)


def test_sampler_arrays_draw_per_entry():
    alpha = np.array([[0.0, 1.0 - 2.0j], [0.5j, -3.0]])
    r = np.array([0.0, 1.5])
    n = 100_000
    beta = sample_bell_outcomes(alpha, r, np.random.default_rng(6), n)
    assert beta.shape == (2, 2, n)
    sigma = np.broadcast_to(np.cosh(r) / math.sqrt(2.0), alpha.shape)
    bound = 4.0 * sigma / math.sqrt(n)
    assert np.all(np.abs(beta.real.mean(axis=-1) - alpha.real) < bound)
    assert np.all(np.abs(beta.imag.mean(axis=-1) - alpha.imag) < bound)
    assert np.allclose(beta.real.var(axis=-1), sigma**2, rtol=0.02)
    assert np.allclose(beta.imag.var(axis=-1), sigma**2, rtol=0.02)


def test_average_fidelity_values():
    assert average_fidelity(0.0) == 0.5
    assert average_fidelity(25.0) == pytest.approx(1.0, abs=1e-12)
    assert average_fidelity(1.0) == pytest.approx((1 + math.tanh(1.0)) / 2, rel=1e-15)


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
def test_monte_carlo_matches_average_fidelity(r):
    rng = np.random.default_rng(11)
    alpha = 0.35 + 0.8j
    beta = sample_bell_outcomes(alpha, r, rng, 100_000)
    fids = conditional_fidelity(alpha, beta, r)
    se = fids.std(ddof=1) / math.sqrt(fids.size)
    assert abs(fids.mean() - average_fidelity(r)) < 4 * se


@pytest.mark.parametrize("alpha", [0.0 + 0.0j, 1.0 + 0.0j, 3.0 + 4.0j])
def test_average_fidelity_independent_of_input(alpha):
    rng = np.random.default_rng(13)
    r = 0.8
    beta = sample_bell_outcomes(alpha, r, rng, 100_000)
    fids = conditional_fidelity(alpha, beta, r)
    se = fids.std(ddof=1) / math.sqrt(fids.size)
    assert abs(fids.mean() - average_fidelity(r)) < 4 * se


def test_forced_outcome_teleports_exactly():
    alpha, r = 0.6 - 0.1j, 1.2
    beta = sample_bell_outcomes(alpha, r, ForcedRng(), 1)
    assert beta[0] == alpha
    zeta = conditional_amplitude(alpha, beta, r)
    assert zeta[0] == 0.0
    assert feedback_displace(zeta, beta)[0] == alpha
    assert conditional_fidelity(alpha, beta, r)[0] == 1.0


def _uniform_setup(n_side=8, r=1.0, pitch=0.5, seed=3):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(n_side, n_side)) + 1j * rng.normal(size=(n_side, n_side))
    g = GridGeometry(n_side, n_side, pitch=pitch)
    field = decompose(samples, g)
    return field, SqueezingProfile.uniform(g, r)


def test_teleport_image_analytic_mode():
    field, profile = _uniform_setup(r=1.5)
    out, fmap = teleport_image(field, profile, seed=0, n_shots=0)
    assert np.array_equal(out.amplitudes, np.tanh(1.5) * field.amplitudes)
    assert np.all(fmap.per_pixel == average_fidelity(1.5))
    assert fmap.image_fidelity == pytest.approx(average_fidelity(1.5), rel=1e-15)


def test_teleport_image_analytic_classical_floor():
    field, profile = _uniform_setup(r=0.0)
    _, fmap = teleport_image(field, profile, seed=0, n_shots=0)
    assert fmap.image_fidelity == 0.5


def test_teleport_image_monte_carlo_mean():
    field, profile = _uniform_setup(n_side=16, r=1.0)
    _, fmap = teleport_image(field, profile, seed=5, n_shots=200)
    want = average_fidelity(1.0)
    # 16*16*200 shots; per-shot std of F is below 0.2
    assert fmap.image_fidelity == pytest.approx(want, abs=0.005)
    assert fmap.image_fidelity == pytest.approx(fmap.per_pixel.mean(), rel=1e-15)


@pytest.mark.parametrize("n_shots", [1, 7])
def test_teleport_image_single_shot_matches_pixel_streams(n_shots):
    # stream v2: pixel k = j*width + i reads normals [2*n*k, 2*n*(k+1))
    # of default_rng(seed), its n real parts first
    g = GridGeometry(5, 3, pitch=0.5)
    amps = np.random.default_rng(3).normal(size=(3, 5)) + 1j * np.random.default_rng(4).normal(size=(3, 5))
    rs = np.linspace(0.0, 1.4, 15).reshape(3, 5)
    out, fmap = teleport_image(ImageField(g, amps), SqueezingProfile(g, rs), seed=9, n_shots=n_shots)
    z = np.random.default_rng(9).standard_normal(g.n_pixels * 2 * n_shots)
    for j in range(g.height):
        for i in range(g.width):
            k = j * g.width + i
            alpha, r = amps[j, i], rs[j, i]
            # offset form: beta - alpha = cosh(r)/sqrt(2) z and (1 - tanh r) cosh r = e^-r
            c = np.exp(-r) / math.sqrt(2.0)
            draws = z[2 * n_shots * k : 2 * n_shots * (k + 1)]
            z_re, z_im = draws[:n_shots], draws[n_shots:]
            output = alpha.real + c * z_re + 1j * (alpha.imag + c * z_im)
            fidelity = np.exp(-(c * c) * (z_re * z_re + z_im * z_im))
            assert out.amplitudes[j, i] == output.mean()
            assert fmap.per_pixel[j, i] == fidelity.mean()


def test_teleport_image_modes_on_a_ring_profile():
    # n_shots >= 1 writes shot means, which tend to alpha; n_shots = 0 writes tanh(r) * alpha, the output at beta = 0
    g = GridGeometry(6, 5, pitch=0.5)
    profile = profile_for_grid(g, RingParams(r0=1.0, R=0.5, Xi=1.5))
    rs = profile.r
    assert np.ptp(rs) > 1.0
    amps = np.random.default_rng(43).normal(size=g.shape) + 1j * np.random.default_rng(44).normal(size=g.shape)
    field = ImageField(g, amps)
    n_shots = 4000
    out, _ = teleport_image(field, profile, seed=45, n_shots=n_shots)
    se = np.exp(-rs) / math.sqrt(2 * n_shots)  # per component
    assert np.all(np.abs(out.amplitudes.real - amps.real) <= 4 * se)
    assert np.all(np.abs(out.amplitudes.imag - amps.imag) <= 4 * se)
    analytic, _ = teleport_image(field, profile, seed=45, n_shots=0)
    assert np.array_equal(analytic.amplitudes, np.tanh(rs) * amps)


def test_teleport_image_deterministic_and_block_invariant(monkeypatch):
    field, profile = _uniform_setup(n_side=8, r=0.9)
    ref_out, ref_map = teleport_image(field, profile, seed=23, n_shots=7)
    # one pixel, three pixels, 10 pixels (no divisor of 64), and the default
    for pixels in (1, 3, 10, None):
        normals = channel._BLOCK_NORMALS if pixels is None else 2 * 7 * pixels
        monkeypatch.setattr(channel, "_BLOCK_NORMALS", normals)
        out, fmap = teleport_image(field, profile, seed=23, n_shots=7)
        assert np.array_equal(out.amplitudes, ref_out.amplitudes)
        assert np.array_equal(fmap.per_pixel, ref_map.per_pixel)


def test_teleport_image_single_shot_invariants():
    field, profile = _uniform_setup(n_side=8, r=0.7, seed=21)
    out, fmap = teleport_image(field, profile, seed=21, n_shots=1)
    # one shot: output - alpha = (1 - tanh r)(beta - alpha), so the
    # fidelity of that same outcome is exp(-|output - alpha|^2)
    residual = np.abs(out.amplitudes - field.amplitudes) ** 2
    assert np.allclose(fmap.per_pixel, np.exp(-residual), rtol=1e-12, atol=0)
    assert np.all((fmap.per_pixel >= 0.0) & (fmap.per_pixel <= 1.0))


def test_unsqueezed_vacuum_output_variance():
    g = GridGeometry(200, 100)
    field = ImageField(g, np.zeros(g.shape, dtype=complex))
    out, _ = teleport_image(field, SqueezingProfile.uniform(g, 0.0), seed=17, n_shots=1)
    # output = beta at r = 0; total complex variance is cosh(0)^2 = 1
    total_var = out.amplitudes.real.var() + out.amplitudes.imag.var()
    assert total_var == pytest.approx(1.0, rel=0.05)


def test_teleport_image_raw_plane_is_point_reflection():
    field, profile = _uniform_setup(n_side=6, r=0.4)
    up, up_map = teleport_image(field, profile, seed=2, n_shots=1)
    raw, raw_map = teleport_image(field, profile, seed=2, n_shots=1, raw_plane=True)
    assert np.array_equal(raw.amplitudes, up.amplitudes[::-1, ::-1])
    assert np.array_equal(raw_map.per_pixel, up_map.per_pixel[::-1, ::-1])
    assert raw_map.image_fidelity == up_map.image_fidelity


@pytest.mark.parametrize("width,height", [(4, 4), (5, 5), (6, 3)], ids=["even", "odd", "6x3"])
def test_teleport_image_raw_plane_sends_pixel_to_partner(width, height):
    # pixel (i, j) arrives at (width-1-i, height-1-j): corners swap, the
    # central pixel of an odd grid stays, and non-square grids keep their shape
    rng = np.random.default_rng(5)
    g = GridGeometry(width, height, pitch=0.5)
    field = ImageField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    profile = SqueezingProfile(g, rng.uniform(0.1, 2.0, size=g.shape))
    up, up_map = teleport_image(field, profile, seed=4, n_shots=2)
    raw, raw_map = teleport_image(field, profile, seed=4, n_shots=2, raw_plane=True)
    assert raw.amplitudes.shape == g.shape
    for j in range(height):
        for i in range(width):
            assert raw.amplitudes[height - 1 - j, width - 1 - i] == up.amplitudes[j, i]
            assert raw_map.per_pixel[height - 1 - j, width - 1 - i] == up_map.per_pixel[j, i]


def test_teleport_image_geometry_mismatch():
    field, _ = _uniform_setup(n_side=4)
    other = SqueezingProfile.uniform(GridGeometry(5, 5, pitch=0.5), 1.0)
    with pytest.raises(ValueError):
        teleport_image(field, other, seed=0, n_shots=0)


def test_teleport_image_rejects_negative_shots():
    field, profile = _uniform_setup(n_side=2)
    with pytest.raises(ValueError):
        teleport_image(field, profile, seed=0, n_shots=-1)
    # above the cap one pixel's normals would outgrow a block
    with pytest.raises(ValueError, match=f"at most {channel.MAX_SHOTS}"):
        teleport_image(field, profile, seed=0, n_shots=channel.MAX_SHOTS + 1)


def test_analytic_fidelity_never_below_floor():
    g = GridGeometry(5, 5, pitch=0.3)
    rs = np.abs(np.random.default_rng(31).normal(size=(5, 5)))
    profile = SqueezingProfile(g, rs)
    field = ImageField(g, np.zeros((5, 5), dtype=complex))
    _, fmap = teleport_image(field, profile, seed=0, n_shots=0)
    assert np.all(fmap.per_pixel >= 0.5)


@pytest.mark.parametrize("r", [40.0, 100.0, channel.MAX_R])
def test_teleport_image_single_shot_keeps_the_input_at_large_r(r):
    g = GridGeometry(8, 8)
    rng = np.random.default_rng(41)
    amps = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    out, fmap = teleport_image(ImageField(g, amps), SqueezingProfile.uniform(g, r), seed=5, n_shots=1)
    assert fmap.image_fidelity == 1.0
    # the output is alpha plus noise of standard deviation e^-r / sqrt(2) per quadrature, and rounding
    assert np.all(np.abs(out.amplitudes - amps) <= 8.0 * math.exp(-r) + 4.0 * np.finfo(float).eps * np.abs(amps))


# Random stream v2 (README, Determinism): the first 64 standard_normal draws of
# default_rng(seed), each as the hex of its float64 bit pattern.  Every
# stochastic teleport output is read from this stream.
STREAM_V2_HEAD = {
    0: (
        "3fc017ed89db8441 bfc0e8cfe9bd45cc 3fe47e57a468b06d 3fbadabbec84d4f0",
        "bfe1243418e643ed 3fd7245f95ced1e6 3ff4dd2f26bd103c 3fee4e7cbc69bca3",
        "bfe684ffc1daaf28 bff43f2a959cc8bb bfe3f1dd4920f4fb 3fa528adc38b0ce3",
        "c00299a9bc1a2383 bfcc015d809d257e bff3ef405142e27e bfe76ebbf28c26f7",
        "bfe16a91d07da4d4 bfd43e4302d4d028 3fda58279af0c1f8 3ff0ae227fb66293",
        "bfc073d2e6df9e08 3ff5dd08ccd30870 bfe549465703261f 3fd67f2417d0e872",
        "3fece93a4c6361df 3fb81130a04e056d bfe7cabef01267ae bfed7ec6375d8ae8",
        "bfdd4b6142f1a705 3fcc2f5a93057217 bff02765657beec8 bfcac643e69916c2",
        "bfc4617c3124dbcb 3fe14e9b664d2b5b 3fcb79f33b79f514 3fd6be6d2ccde9a7",
        "bfe4ec29f9d48276 bfc0972df6e9bfe4 3fe91653b998f2ca 3ff7e5180e78d0df",
        "bff42521e63e874f 3ff8390822d24221 3ff588b4ab1a2987 3fe90080c440025b",
        "3fd0ecd74ee079a4 bfd4174fb779be26 3ff7540d7f0aecc3 3fff5d37d30dd579",
        "3ffcd37f15d68815 3ff50aaa3ec616ed 3fd6df521600b894 bff35545eb0cca3f",
        "bf723e7f4153196a 3fe501d7b9197da1 bff49d20e903b248 3fd949ae099a3b4c",
        "3fdb82e303bff2ef 3fe645fb640141bf bff2f225ae5d4012 bfe52caadf52c691",
        "bfdbee8e1a5350e6 bff2b782348aecfe 3ffbd473693fca3a bfdfbd005a1940ca",
    ),
    12345: (
        "bff6c7fcc2ecc744 3ff4383b54eb0649 bfebdc76014d359e bfd0964b5602ac3c",
        "bfb349b2ef952a32 bfe7b553bada1ce9 bff5e27a999dd7f4 3fe4c3bad680ecc7",
        "3fd71b937ce1adfe bfff3eed56d34288 4002c77eb67ef983 3feefded390f6a23",
        "bfe84ce6581d98d7 3fecdeceea47f9f3 bfdde28f900b3633 bfaf12b2545efbbe",
        "3fe93e367eab0658 bff41b500b5c2a20 3fe26d6cbcef9049 3ff66237cc6211bd",
        "3ff5282202e695a7 bfd32e42ae77a479 3fece4b71a4b1672 bff9f200bcb12224",
        "bfc43f8bb297c11e 3fdcc458411e711c bff57f63d6933187 bfb4e97a5a882cdc",
        "3ffb9888e6367658 4004f1fd91bfb642 3fe8e024e59af086 3fea8429c36aef35",
        "bfeeb008423512fd bff359a7884b85bd bff698bf82a45f8f 3fe1545a04763acb",
        "3fe80fe3350fd115 bfe51490858e3b23 bff3a8a71a0c27de 3fd07bd3940a7f71",
        "3fd40699f65fffe6 bfc0be6ffdb8da25 3ff451d9d20e1bda bfb7cc633bb86161",
        "bfb0ef43c0dd0c1b bff1bb3f17d1e6a2 3fc16708b9640d62 3ff58da169ed357f",
        "3faf4e44e4e033a8 3fb227759108200b 3fdbc0fef599dcab 3fd1c24ad314795d",
        "3fe0f7d3da67d93b 3fe12cd1742e26b1 3fe3c985f8619f24 bfe970c872bcc51f",
        "3fd333b4ff85b168 bff9a4aa6cb9721a 3fd1133b6616f92e bff42f9c6b25962f",
        "bfb23ecdb5c0d50d 3fde56d4ae068012 bfda8cf6ca1b2235 3fb903f2d3d801d8",
    ),
}


@pytest.mark.parametrize("seed", sorted(STREAM_V2_HEAD))
def test_random_stream_v2_is_pinned(seed):
    got = " ".join(f"{w:016x}" for w in np.random.default_rng(seed).standard_normal(64).view("<u8"))
    assert got == " ".join(STREAM_V2_HEAD[seed]), (
        f"numpy's default_rng({seed}).standard_normal stream changed: random stream v2 no longer "
        "holds, so stochastic outputs need a new stream version"
    )
