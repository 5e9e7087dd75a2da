import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft as sfft

from beccool import (
    FrameRenderer,
    GridSpec,
    ImageGrid,
    OpticsParams,
    PhaseParams,
    RegionMask,
    add_shot_noise,
    density_estimate,
    fresnel_image,
    linearized_image,
    make_reference,
    read_ascii_grid,
    tf_phase,
    write_ascii_grid,
    write_pgm16,
)
from beccool.optics import _fresnel_kernel, _j2_over_x2, _k_sq_levels, _kernel_for
from conftest import (
    apply_resolution,
    band_limited_phase,
    phase_from_spectrum,
    tf_phase_half_spectrum,
    tf_phase_spectrum,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=100)
    with pytest.raises(ValueError):
        GridSpec(pitch=0.0)
    g = GridSpec(nx=64, nz=32, pitch=4e-6)
    assert g.x[g.nx // 2] == 0.0 and g.z[g.nz // 2] == 0.0


def test_grid_spec_is_frozen():
    g = GridSpec()
    assert g.x[65] == pytest.approx(5.5e-6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.pitch = 4e-6
    assert g.pitch == 5.5e-6 and g.x[65] == pytest.approx(5.5e-6)


def test_image_grid_validation(grid):
    with pytest.raises(ValueError):
        ImageGrid(grid, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        ImageGrid(grid, np.full((grid.nz, grid.nx), np.nan))


def test_tf_phase_peak_boundary_and_midpoint(grid):
    p = PhaseParams(phi0=-0.08, x0=0.0, z0=0.0)
    phase = tf_phase(p, grid).data
    cz, cx = grid.nz // 2, grid.nx // 2
    assert phase[cz, cx] == pytest.approx(p.phi0)
    # on the ellipse boundary the profile vanishes
    u = (grid.xx / p.r_x) ** 2 + (grid.zz / p.r_z) ** 2
    assert np.all(phase[u > 1.0] == 0.0)
    # value at x0 + r_x/sqrt(2) on axis: phi0 * (1/2)^{3/2}
    x_target = p.r_x / np.sqrt(2)
    p2 = PhaseParams(phi0=-0.08, x0=grid.x[cx + 2] - x_target, z0=0.0)
    phase2 = tf_phase(p2, grid).data
    assert phase2[cz, cx + 2] == pytest.approx(p.phi0 * 0.5**1.5, rel=1e-12)


def test_tf_phase_continuous_at_boundary(grid):
    p = PhaseParams(phi0=-0.5, r_x=40e-6, r_z=30e-6)
    phase = tf_phase(p, grid).data
    u = (grid.xx / p.r_x) ** 2 + (grid.zz / p.r_z) ** 2
    ring = (u > 0.97) & (u <= 1.0)
    assert np.all(np.abs(phase[ring]) < abs(p.phi0) * 0.01)


def test_tf_spectrum_dc_and_shift_theorem(grid):
    p = PhaseParams(phi0=-0.08)
    spec = tf_phase_spectrum(p, grid)
    # DC value is the profile integral: phi0 * (2 pi / 5) r_x r_z
    assert spec[0, 0] == pytest.approx(p.phi0 * 2 * np.pi / 5 * p.r_x * p.r_z, rel=1e-12)
    shifted = tf_phase_spectrum(PhaseParams(phi0=-0.08, x0=7e-6, z0=-3e-6), grid)
    expect = spec * np.exp(-1j * (grid.kx[None, :] * 7e-6 + grid.kz[:, None] * -3e-6))
    np.testing.assert_allclose(shifted, expect, atol=1e-24)


def test_tf_spectrum_matches_pointwise_for_wide_object(grid):
    # wide, well-resolved object: band-limited synthesis agrees with the
    # pointwise profile away from the truncation ripple scale
    p = PhaseParams(phi0=-0.08, r_x=60e-6, r_z=40e-6, x0=13.2e-6, z0=-7.7e-6)
    synth = phase_from_spectrum(tf_phase_spectrum(p, grid), grid).data
    point = tf_phase(p, grid).data
    assert np.max(np.abs(synth - point)) < 0.01 * abs(p.phi0)


def test_fresnel_empty_frame_is_unity(grid, optics):
    img = fresnel_image(tf_phase(PhaseParams(phi0=0.0), grid), optics)
    np.testing.assert_allclose(img.data, 1.0, atol=1e-12)


def test_fresnel_parseval_unitarity(grid):
    # eta = 0: the propagation kernel is a pure phase, total intensity conserved
    opt = OpticsParams(eta=0.0, xi=800e-6)
    phase = tf_phase(PhaseParams(phi0=-0.6), grid)
    before = np.sum(np.abs(np.exp(-1j * phase.data)) ** 2)
    after = np.sum(fresnel_image(phase, opt).data)
    assert abs(after - before) <= 1e-10 * before


def test_fresnel_in_focus_invisible(grid):
    opt = OpticsParams(eta=0.0, xi=0.0)
    img = fresnel_image(tf_phase(PhaseParams(phi0=-0.8), grid), opt)
    np.testing.assert_allclose(img.data, 1.0, atol=1e-12)


def test_fresnel_even_symmetry(grid, optics):
    # centered even phase -> even intensity, exact on the periodic grid
    img = fresnel_image(tf_phase(PhaseParams(phi0=-0.08), grid), optics).data
    mirrored = np.roll(img[::-1, ::-1], (1, 1), axis=(0, 1))
    np.testing.assert_allclose(img, mirrored, atol=1e-13)


def test_linearized_empty_and_mean(grid, optics):
    img = linearized_image(tf_phase(PhaseParams(phi0=0.0), grid), optics)
    np.testing.assert_allclose(img.data, 1.0, atol=0)
    img2 = linearized_image(tf_phase(PhaseParams(phi0=-0.3), grid), optics)
    assert img2.data.mean() == pytest.approx(1.0, abs=1e-14)


def test_linearized_cosine_eigenfunction(grid, optics):
    # a grid-commensurate plane wave is an exact eigenfunction of the
    # spectral Laplacian: I = 1 + (xi/k) q^2 cos(qx)
    q = grid.kx[6]
    phase = ImageGrid(grid, 0.01 * np.cos(q * grid.xx))
    img = linearized_image(phase, optics)
    expect = 1.0 + optics.xi / optics.k * q**2 * 0.01 * np.cos(q * grid.xx)
    np.testing.assert_allclose(img.data, expect, atol=1e-14)


def test_fresnel_vs_linearized_band_limited(grid):
    # small phase, small defocus, band-limited object: the thin-sample
    # linearization tracks the full model to a few percent of the signal
    opt = OpticsParams(eta=0.0, xi=100e-6)
    k_max = np.sqrt(0.1 * 2 * opt.k / opt.xi)
    phase = band_limited_phase(grid, PhaseParams(phi0=0.05), k_max)
    phase = ImageGrid(grid, phase.data * (0.05 / np.abs(phase.data).max()))
    full = fresnel_image(phase, opt).data
    lin = linearized_image(phase, opt).data
    signal = np.abs(lin - 1.0)
    in_object = signal > 0.1 * signal.max()
    dev = np.max(np.abs(full - lin)[in_object]) / signal.max()
    assert dev <= 0.05


def test_shadowgraph_contrast_peaks_at_moderate_defocus(grid):
    # peak-to-trough contrast of the default object versus defocus distance:
    # the optimum sits between 500 um and 1 mm
    phase = tf_phase(PhaseParams(), grid)
    xis = np.linspace(100e-6, 2000e-6, 20)
    contrast = []
    for xi in xis:
        img = fresnel_image(phase, OpticsParams(xi=xi)).data
        contrast.append(img.max() - img.min())
    best = xis[int(np.argmax(contrast))]
    assert 500e-6 <= best <= 1000e-6


def test_apply_resolution_blurs_and_identity(grid, optics):
    phase = tf_phase(PhaseParams(phi0=-0.08), grid)
    blurred = apply_resolution(phase, optics)
    assert np.abs(blurred.data).max() < np.abs(phase.data).max()
    assert blurred.data.sum() == pytest.approx(phase.data.sum(), rel=1e-12)
    ident = apply_resolution(phase, OpticsParams(eta=0.0))
    np.testing.assert_allclose(ident.data, phase.data, atol=1e-15)


def test_frame_renderer_matches_contract_ops_for_wide_object(grid, optics):
    # the fast analytic-spectrum render equals resolution-blur + linearized
    # imaging when aliasing is negligible (wide object)
    p = PhaseParams(phi0=-0.08, r_x=60e-6, r_z=40e-6, x0=4.4e-6, z0=-2.2e-6)
    fast = FrameRenderer(grid, optics).render(p).data
    ref = linearized_image(apply_resolution(tf_phase(p, grid), optics), optics).data
    # residual difference is the aliasing of the pointwise-sampled edge,
    # which the analytic-spectrum path avoids; ~1% of signal here
    assert np.max(np.abs(fast - ref)) < 0.02 * np.max(np.abs(ref - 1.0))


def test_make_reference_defaults_and_flat(grid):
    flat = make_reference(grid, fringes=())
    np.testing.assert_array_equal(flat.data, 1.0)
    ref = make_reference(grid)
    assert ref.data.std() > 0.01  # fringes present


def test_make_reference_single_fringe_span(grid):
    # grid-commensurate fringe reaching cos = +/-1: span is exactly 2a
    q = 2 * np.pi * 8 / (grid.nx * grid.pitch)
    ref = make_reference(grid, fringes=((0.02, (q, 0.0), 0.0),))
    assert ref.data.max() - ref.data.min() == pytest.approx(0.04, rel=1e-9)


def test_shot_noise_determinism_and_scale(grid):
    img = ImageGrid(grid, np.ones((grid.nz, grid.nx)))
    a = add_shot_noise(img, 1e4, np.random.default_rng(7)).data
    b = add_shot_noise(img, 1e4, np.random.default_rng(7)).data
    np.testing.assert_array_equal(a, b)
    # std over pixels ~ 1/sqrt(N) within Monte-Carlo tolerance
    n_pix = grid.nx * grid.nz
    assert a.std() == pytest.approx(1e-2, rel=4 / np.sqrt(n_pix))
    big = add_shot_noise(img, 1e12, np.random.default_rng(3)).data
    assert np.max(np.abs(big - 1.0)) <= 1e-5
    with pytest.raises(ValueError):
        add_shot_noise(img, 0.0, np.random.default_rng(0))


def test_ascii_grid_roundtrip(tmp_path, grid):
    img = tf_phase(PhaseParams(), grid)
    path = tmp_path / "frame.txt"
    write_ascii_grid(img, path)
    with open(path) as f:
        assert f.readline().split()[:2] == ["128", "128"]
    back = read_ascii_grid(path)
    assert back.grid.pitch == pytest.approx(grid.pitch)
    np.testing.assert_allclose(back.data, img.data, atol=1e-13)


def test_pgm16_header_and_size(tmp_path, grid):
    img = tf_phase(PhaseParams(), grid)
    path = tmp_path / "frame.pgm"
    write_pgm16(img, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n128 128\n65535\n")
    header_len = len(b"P5\n128 128\n65535\n")
    assert len(raw) == header_len + 2 * grid.nx * grid.nz


# --- the mirrored TF spectrum equals the formula on every kz row -------------


def _tf_spectrum_unmirrored(params, kx, kz):
    kap = np.sqrt((kx[None, :] * params.r_x) ** 2 + (kz[:, None] * params.r_z) ** 2)
    amp = params.phi0 * params.r_x * params.r_z * 6.0 * np.pi * _j2_over_x2(kap)
    shift = np.exp(-1j * kx[None, :] * params.x0) * np.exp(-1j * kz[:, None] * params.z0)
    return amp * shift


_log_radius = st.floats(-9.0, -4.0).map(lambda e: 10.0**e)
_centre = st.floats(-5e-5, 5e-5)


@settings(max_examples=60, deadline=None)
@given(nz=st.sampled_from([2, 4, 8, 128]), nx=st.sampled_from([2, 8, 32, 64, 128, 256]),
       pitch=st.floats(1e-6, 1e-5), phi0=st.floats(-1.0, 1.0),
       r_x=_log_radius, r_z=_log_radius, x0=_centre, z0=_centre)
@example(nz=128, nx=64, pitch=5.5e-6, phi0=-0.08, r_x=1.7e-5, r_z=5e-6, x0=1e-6, z0=-2e-6)
@example(nz=2, nx=8, pitch=5.5e-6, phi0=0.3, r_x=1e-9, r_z=1e-9, x0=0.0, z0=0.0)
def test_tf_spectrum_mirror_is_exact(nz, nx, pitch, phi0, r_x, r_z, x0, z0):
    grid = GridSpec(nx=nx, nz=nz, pitch=pitch)
    params = PhaseParams(phi0=phi0, r_x=r_x, r_z=r_z, x0=x0, z0=z0)
    half = tf_phase_half_spectrum(params, grid)
    assert np.array_equal(half, _tf_spectrum_unmirrored(params, grid.kx_half, grid.kz))
    full = tf_phase_spectrum(params, grid)
    assert np.array_equal(full, _tf_spectrum_unmirrored(params, grid.kx, grid.kz))


# --- the box-evaluated TF phase and the cached Fresnel chain equal the -------
# --- full-frame formulas byte for byte (signed zeros included) -------------


def _tf_phase_full_frame(params, grid):
    u = ((grid.xx - params.x0) / params.r_x) ** 2 + ((grid.zz - params.z0) / params.r_z) ** 2
    out = np.zeros((grid.nz, grid.nx))
    inside = u <= 1.0
    out[inside] = params.phi0 * (1.0 - u[inside]) ** 1.5
    return out


def _kernel_uncached(grid, opt):
    kernel = np.exp(1j * opt.xi / (2 * opt.k) * grid.k_sq)
    kernel *= np.exp(-opt.eta**2 * grid.k_sq)
    return kernel


def _fresnel_image_uncached(phase, opt):
    # complex products are not bit-symmetric (F * kernel and kernel * F differ
    # in the last bit on ~1/3 of pixels), so the order is part of the formula
    field = sfft.fft2(np.exp(-1j * phase.data))
    field *= _kernel_uncached(phase.grid, opt)
    return np.abs(sfft.ifft2(field)) ** 2


@st.composite
def _clouds(draw):
    """A grid and a TF cloud: inside, across the edge of or outside the frame;
    centred anywhere, on a pixel centre or boundary, or one radius from a
    pixel (the edge pixel then sits at u = 1 up to rounding); radii from a
    tenth of a pixel to half the frame."""
    grid = GridSpec(nx=draw(st.sampled_from([8, 32, 128])), nz=draw(st.sampled_from([4, 16, 128])),
                    pitch=draw(st.sampled_from([5.5e-6, 3.3e-6, 1e-5])))

    def radius_and_centre(axis):
        span = axis.size * grid.pitch / 2
        r = draw(st.one_of(st.floats(grid.pitch / 10, span),
                           st.integers(1, 8).map(lambda n: n * grid.pitch)))
        pixel = draw(st.sampled_from(axis))
        c = draw(st.one_of(st.floats(-2.5 * span, 2.5 * span),
                           st.sampled_from([pixel, pixel + grid.pitch / 2, pixel + r, pixel - r])))
        return r, c

    r_x, x0 = radius_and_centre(grid.x)
    r_z, z0 = radius_and_centre(grid.z)
    return grid, PhaseParams(phi0=draw(st.floats(-3.0, 3.0)), r_x=r_x, r_z=r_z, x0=x0, z0=z0)


@settings(max_examples=300, deadline=None)
@given(cloud=_clouds())
@example(cloud=(GridSpec(), PhaseParams(x0=1.0, z0=-1.0)))                  # far outside
@example(cloud=(GridSpec(), PhaseParams(x0=352e-6, z0=0.0)))                # across the edge
@example(cloud=(GridSpec(), PhaseParams(r_x=1e-6, r_z=1e-6, x0=2.75e-6)))   # between pixels
@example(cloud=(GridSpec(), PhaseParams(r_x=352e-6, r_z=352e-6)))           # half the frame
# x0 - r_x and x0 + r_x round past the pixel at u == 1, which holds -0.0
@example(cloud=(GridSpec(), PhaseParams(r_x=9.344062766184904e-05, x0=8.244062766184904e-05)))
@example(cloud=(GridSpec(), PhaseParams(r_x=9.261231470397395e-05, x0=-8.161231470397396e-05)))
def test_tf_phase_matches_full_frame_formula(cloud):
    grid, params = cloud
    assert tf_phase(params, grid).data.tobytes() == _tf_phase_full_frame(params, grid).tobytes()


_defocus = st.one_of(st.sampled_from([0.0, -0.0, 800e-6]), st.floats(-3e-3, 3e-3))


@settings(max_examples=120, deadline=None)
@given(cloud=_clouds(), xi=_defocus, eta=st.one_of(st.just(0.0), st.floats(0.0, 12e-6)),
       wavelength=st.floats(400e-9, 1100e-9), dense=st.booleans())
# a grid under 16384 pixels: the spectrum multiplies by the kernel, never the reverse
@example(cloud=(GridSpec(nx=64, nz=64), PhaseParams(phi0=-0.6, x0=3e-6)), xi=800e-6,
         eta=5.5e-6, wavelength=780.241e-9, dense=False)
def test_fresnel_image_matches_uncached_formula(cloud, xi, eta, wavelength, dense):
    grid, params = cloud
    opt = OpticsParams(xi=xi, eta=eta, wavelength=wavelength)
    phase = tf_phase(params, grid)
    if dense:  # every pixel lit
        phase = ImageGrid(grid, phase.data + band_limited_phase(grid, params, 2e5).data + 1e-3)
    got = fresnel_image(phase, opt).data
    assert got.tobytes() == _fresnel_image_uncached(phase, opt).tobytes()


# --- the loop's in-place transforms equal the allocating scipy.fft ----------
# --- formulas byte for byte -------------------------------------------------

# (nx, nz): tiny grids, the loop's grid, and one whose half spectrum
# (128 x 129 complex) passes 256 KiB, where numpy may reuse a temporary
# operand as the output of an expression
_loop_grids = st.builds(lambda shape, pitch: GridSpec(nx=shape[0], nz=shape[1], pitch=pitch),
                        st.sampled_from([(8, 4), (4, 16), (128, 128), (256, 128)]),
                        st.sampled_from([5.5e-6, 3.3e-6, 1e-5]))


def _render_allocating(grid, opt, params):
    resp = (opt.xi / opt.k) * grid.k_sq_half * np.exp(-opt.eta**2 * grid.k_sq_half) / grid.pitch**2
    spec = resp * _tf_spectrum_unmirrored(params, grid.kx_half, grid.kz)
    return 1.0 + np.fft.fftshift(sfft.irfft2(spec, s=(grid.nz, grid.nx)))


def _density_allocating(frame, reference, mask):
    grid = frame.grid
    current = frame.data / reference.data - 1.0
    spec = sfft.rfft2(current)
    rho = sfft.irfft2(spec * grid.inv_k_sq_half, s=(grid.nz, grid.nx))
    rho -= rho[mask.background].mean()
    return rho


def _shot_noise_allocating(image, photons, rng):
    sigma = np.sqrt(np.abs(image.data) / photons)
    return image.data + sigma * rng.standard_normal(image.data.shape)


@settings(max_examples=120, deadline=None)
@given(grid=_loop_grids, phi0=st.floats(-3.0, 3.0), r_x=_log_radius, r_z=_log_radius,
       x0=_centre, z0=_centre, xi=_defocus, eta=st.floats(0.0, 12e-6),
       wavelength=st.floats(400e-9, 1100e-9))
def test_frame_renderer_matches_allocating_formula(grid, phi0, r_x, r_z, x0, z0, xi, eta,
                                                    wavelength):
    opt = OpticsParams(xi=xi, eta=eta, wavelength=wavelength)
    params = PhaseParams(phi0=phi0, r_x=r_x, r_z=r_z, x0=x0, z0=z0)
    renderer = FrameRenderer(grid, opt)
    want = _render_allocating(grid, opt, params).tobytes()
    assert renderer.render(params).data.tobytes() == want
    assert renderer.render(params).data.tobytes() == want  # the buffers keep no state


@settings(max_examples=120, deadline=None)
@given(grid=_loop_grids, seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-12.0, 0.0).map(lambda e: 10.0**e), photons=st.floats(1.0, 1e12))
def test_density_and_shot_noise_match_allocating_formulas(grid, seed, scale, photons):
    rng = np.random.default_rng(seed)
    reference = ImageGrid(grid, rng.uniform(0.5, 1.5, (grid.nz, grid.nx)))
    current = scale * rng.standard_normal(reference.data.shape)
    frame = ImageGrid(grid, reference.data * (1.0 + current))
    atoms = np.zeros((grid.nz, grid.nx), dtype=bool)
    atoms[grid.nz // 2, grid.nx // 2] = True
    background = np.zeros_like(atoms)
    background[0] = True
    mask = RegionMask(atoms=atoms, background=background)
    got = density_estimate(frame, reference, mask).data
    assert got.tobytes() == _density_allocating(frame, reference, mask).tobytes()
    noisy = add_shot_noise(frame, photons, np.random.default_rng(seed)).data
    want = _shot_noise_allocating(frame, photons, np.random.default_rng(seed))
    assert noisy.tobytes() == want.tobytes()


def test_successive_renders_are_distinct_and_unmodified(grid, optics):
    renderer = FrameRenderer(grid, optics)
    a, b = PhaseParams(), PhaseParams(phi0=-0.3, r_x=2e-5, x0=4e-6, z0=-2e-6)
    first = renderer.render(a)
    kept = first.data.copy()
    second = renderer.render(b)
    assert first.data.tobytes() == kept.tobytes()
    first.data *= 2.0  # the loop scales each frame by the reference in place
    third = renderer.render(a)
    frames = (first, second, third)
    for i, frame in enumerate(frames):
        assert not np.shares_memory(frame.data, renderer._spec)
        assert not np.shares_memory(frame.data, renderer._lap)
        for other in frames[i + 1:]:
            assert not np.shares_memory(frame.data, other.data)
    assert second.data.tobytes() == FrameRenderer(grid, optics).render(b).data.tobytes()
    assert third.data.tobytes() == kept.tobytes()


def test_fresnel_kernel_cache_is_never_stale():
    grids = [GridSpec(nx=32, nz=16, pitch=5.5e-6), GridSpec(nx=32, nz=16, pitch=4e-6)]
    opts = [OpticsParams(), OpticsParams(xi=-300e-6, eta=2e-6, wavelength=589e-9),
            OpticsParams(xi=0.0, eta=0.0), OpticsParams(xi=-0.0, eta=-0.0)]
    phases = [tf_phase(PhaseParams(phi0=-0.6, r_x=30e-6, r_z=20e-6, x0=3e-6), g) for g in grids]
    _kernel_for.cache_clear()
    for _ in range(3):
        for opt in opts:
            for phase in phases:
                expect = _fresnel_image_uncached(phase, opt).tobytes()
                before = _kernel_for.cache_info()
                miss = fresnel_image(phase, opt).data.tobytes()
                hit = fresnel_image(phase, opt).data.tobytes()
                after = _kernel_for.cache_info()
                assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
                assert miss == hit == expect
                g = phase.grid
                cached = _fresnel_kernel(g.nx, g.nz, g.pitch, opt.eta, opt.xi, opt.k)
                # -0.0 keeps its own kernel
                assert cached.tobytes() == _kernel_uncached(g, opt).tobytes()
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 0.0
    assert _kernel_for.cache_info().currsize <= 2


# --- the kernel built from the grid's distinct k^2 values equals the --------
# --- full-grid formula byte for byte ----------------------------------------


_sizes = st.sampled_from([2, 4, 32, 128, 256])


@settings(max_examples=150, deadline=None)
@given(nx=_sizes, nz=_sizes, pitch=st.floats(1e-6, 1e-5),
       eta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 12e-6)),
       xi=_defocus, wavelength=st.floats(400e-9, 1100e-9))
# one grid shape at two pitches: each pitch needs its own level table
@example(nx=32, nz=4, pitch=5.5e-6, eta=5.5e-6, xi=800e-6, wavelength=780e-9)
@example(nx=32, nz=4, pitch=4e-6, eta=5.5e-6, xi=800e-6, wavelength=780e-9)
# a subnormal pupil factor: the product's imaginary zero sign depends on the path
@example(nx=128, nz=128, pitch=1e-6, eta=7.391833596162262e-06, xi=0.0008,
         wavelength=8.177595141176534e-07)
@example(nx=128, nz=128, pitch=1e-6, eta=1.2e-5, xi=-2.3188e-4, wavelength=4e-7)
def test_fresnel_kernel_from_k_sq_levels_is_exact(nx, nz, pitch, eta, xi, wavelength):
    grid = GridSpec(nx=nx, nz=nz, pitch=pitch)
    levels, inv = _k_sq_levels(nx, nz, pitch)
    assert inv.shape == (nz, nx)
    assert levels[inv].tobytes() == grid.k_sq.tobytes()
    opt = OpticsParams(xi=xi, eta=eta, wavelength=wavelength)
    kernel = _fresnel_kernel(nx, nz, pitch, opt.eta, opt.xi, opt.k)
    assert kernel.shape == (nz, nx)
    assert kernel.tobytes() == _kernel_uncached(grid, opt).tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda: GridSpec(pitch=float("nan")), "pitch"),
    (lambda: PhaseParams(r_x=float("nan")), "radii"),
    (lambda: PhaseParams(r_z=float("nan")), "radii"),
    (lambda: OpticsParams(wavelength=float("nan")), "wavelength"),
    (lambda: OpticsParams(eta=float("nan")), "resolution scale"),
    (lambda: add_shot_noise(make_reference(GridSpec(nx=8, nz=8)), float("nan"),
                            np.random.default_rng(0)), "photon budget"),
], ids=["pitch", "r_x", "r_z", "wavelength", "eta", "photons"])
def test_optics_guards_reject_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()
