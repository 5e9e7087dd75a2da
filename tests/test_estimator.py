from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from beccool import (
    EstimatorConfig,
    FrameRenderer,
    GridSpec,
    ImageGrid,
    InSituEstimator,
    LowPass,
    MeasurementVector,
    OpticsParams,
    PhaseParams,
    RegionMask,
    density_estimate,
    extract_moments,
    finite_difference,
    linearized_image,
    make_reference,
    nonlinear_filter,
)
from conftest import band_limited_phase


@pytest.fixture(scope="module")
def mask(grid):
    return RegionMask.centered(grid)


@pytest.fixture(scope="module")
def flat_ref(grid):
    return make_reference(grid, fringes=())


def test_region_mask_properties(grid):
    m = RegionMask.centered(grid)
    assert m.atoms.any() and m.background.any()
    assert not np.any(m.atoms & m.background)
    with pytest.raises(ValueError):
        RegionMask(atoms=np.zeros((4, 4), bool), background=np.ones((4, 4), bool))
    with pytest.raises(ValueError):
        RegionMask(atoms=np.ones((4, 4), bool), background=np.ones((4, 4), bool))


def test_density_estimate_no_atoms(grid, mask, flat_ref):
    rho = density_estimate(flat_ref, flat_ref, mask)
    np.testing.assert_allclose(rho.data, 0.0, atol=1e-15)


def test_density_estimate_rejects_bad_reference(grid, mask, flat_ref):
    bad = ImageGrid(grid, flat_ref.data - 1.0)
    with pytest.raises(ValueError):
        density_estimate(flat_ref, bad, mask)


def test_density_estimate_roundtrip_proportional_to_phase(grid, mask, optics):
    # render a band-limited TF-like phase with the linearized model, invert it:
    # the estimate equals (xi/k) * phase up to one additive constant
    phase = band_limited_phase(grid, PhaseParams(phi0=-0.08), k_max=2e5)
    frame = linearized_image(phase, optics)
    rho = density_estimate(frame, make_reference(grid, fringes=()), mask).data
    expect = optics.xi / optics.k * phase.data
    diff = rho - expect
    diff -= diff.mean()
    assert np.max(np.abs(diff)) <= 1e-8 * np.max(np.abs(expect))


def test_density_estimate_dc_immunity(grid, mask, flat_ref, optics):
    phase = band_limited_phase(grid, PhaseParams(phi0=-0.08), k_max=2e5)
    frame = linearized_image(phase, optics)
    shifted = ImageGrid(grid, frame.data + 0.37 * flat_ref.data)
    a = density_estimate(frame, flat_ref, mask).data
    b = density_estimate(shifted, flat_ref, mask).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_matched_fringes_cancel_exactly(grid, mask, optics):
    # identical fringes in probe and reference vanish in the ratio
    ref = make_reference(grid)
    phase = band_limited_phase(grid, PhaseParams(phi0=-0.08), k_max=2e5)
    frame = ImageGrid(grid, linearized_image(phase, optics).data * ref.data)
    rho_fringed = density_estimate(frame, ref, mask).data
    rho_clean = density_estimate(linearized_image(phase, optics),
                                 make_reference(grid, fringes=()), mask).data
    np.testing.assert_allclose(rho_fringed, rho_clean, atol=1e-11 * np.abs(rho_clean).max())


_FRINGE = st.tuples(st.floats(0.0, 0.2), st.tuples(st.floats(-3e4, 3e4), st.floats(-3e4, 3e4)),
                    st.floats(0.0, 2 * np.pi))


@settings(max_examples=40, deadline=None)
@given(fringes=st.lists(_FRINGE, max_size=3).map(tuple))
def test_matched_fringes_cancel_property(grid, mask, optics, fringes):
    # any fringe set (reference >= 0.4 everywhere) cancels to rounding: the
    # worst seen is 5e-14 of the density peak, the bound is 1e-11 of it
    ref = make_reference(grid, fringes)
    clean = linearized_image(band_limited_phase(grid, PhaseParams(phi0=-0.08), k_max=2e5),
                             optics)
    rho_clean = density_estimate(clean, make_reference(grid, fringes=()), mask).data
    rho_fringed = density_estimate(ImageGrid(grid, clean.data * ref.data), ref, mask).data
    np.testing.assert_allclose(rho_fringed, rho_clean, rtol=0,
                               atol=1e-11 * np.abs(rho_clean).max())


def test_nonlinear_filter_basics(grid):
    rho = np.array([[-2.0, 0.5], [0.0, 1.0]])
    out = nonlinear_filter(rho)
    assert np.all(out >= 0)
    assert out[0, 0] == 64.0 and out[1, 0] == 0.0


def test_nonlinear_filter_gaussian_width():
    # sixth power of a Gaussian is a Gaussian with variance reduced 6x
    n = 256
    x = np.arange(n) - n // 2
    xx, zz = np.meshgrid(x, x)
    sigma = 14.0
    g = np.exp(-(xx**2 + zz**2) / (2 * sigma**2))
    g6 = nonlinear_filter(g)
    w = np.where(np.ones_like(g, bool), g6, 0)
    mean = (w * xx).sum() / w.sum()
    var = (w * xx**2).sum() / w.sum() - mean**2
    assert var == pytest.approx(sigma**2 / 6, rel=1e-6)


def test_moments_symmetric_center_and_translation(grid, mask):
    cz, cx = grid.nz // 2, grid.nx // 2
    rho6 = np.zeros((grid.nz, grid.nx))
    rho6[cz - 3:cz + 4, cx - 3:cx + 4] = [[1, 2, 3, 4, 3, 2, 1]] * 7
    x1, z1, wx, wz, mass = extract_moments(rho6, mask, grid)
    assert x1 == pytest.approx(0.0, abs=1e-20) and z1 == pytest.approx(0.0, abs=1e-20)
    rolled = np.roll(rho6, 1, axis=1)  # one pixel along +x
    x2 = extract_moments(rolled, mask, grid)[0]
    assert x2 - x1 == pytest.approx(grid.pitch, rel=1e-12)


def test_moments_gaussian_width_after_filter(grid, mask):
    sigma = 4.5 * grid.pitch
    g = np.exp(-(grid.xx**2 + grid.zz**2) / (2 * sigma**2))
    _, _, wx, wz, _ = extract_moments(nonlinear_filter(g), mask, grid)
    assert abs(wx - sigma / np.sqrt(6)) < grid.pitch
    assert abs(wz - sigma / np.sqrt(6)) < grid.pitch


def test_moments_variance_reduction_ratio(grid):
    # full-frame mask so the Gaussian tails are not clipped
    full = RegionMask(atoms=~np.zeros((grid.nz, grid.nx), bool)
                      ^ (np.arange(grid.nx)[None, :] < 1),  # leave col 0 as bg
                      background=(np.arange(grid.nx)[None, :] < 1)
                      & np.ones((grid.nz, grid.nx), bool))
    sigma = 6.0 * grid.pitch
    g = np.exp(-(grid.xx**2 + grid.zz**2) / (2 * sigma**2))
    _, _, w_raw, _, _ = extract_moments(g, full, grid)
    _, _, w_flt, _, _ = extract_moments(nonlinear_filter(g), full, grid)
    assert (w_flt / w_raw) ** 2 == pytest.approx(1 / 6, rel=0.02)


def test_moments_mean_invariance_under_filter(grid, mask):
    # symmetric noiseless profile well inside the region: the mean is the
    # same with and without rho^6
    sigma = 2.0 * grid.pitch
    g = np.exp(-((grid.xx - 2 * grid.pitch) ** 2 + grid.zz**2) / (2 * sigma**2))
    x_raw = extract_moments(g, mask, grid)[0]
    x_flt = extract_moments(nonlinear_filter(g), mask, grid)[0]
    assert x_raw == pytest.approx(2 * grid.pitch, abs=1e-10)
    assert x_flt == pytest.approx(x_raw, abs=1e-10)


def test_moments_degenerate_frame_raises(grid, mask):
    with pytest.raises(ValueError):
        extract_moments(np.zeros((grid.nz, grid.nx)), mask, grid)


def test_offset_immunity_of_background_subtraction(grid, mask):
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(grid.nz, grid.nx)) * 1e-7
    def centered(r):
        return r - r[mask.background].mean()
    a = extract_moments(nonlinear_filter(centered(rho)), mask, grid)
    b = extract_moments(nonlinear_filter(centered(rho + 0.42)), mask, grid)
    assert a[0] == pytest.approx(b[0], abs=1e-10)
    assert a[1] == pytest.approx(b[1], abs=1e-10)


def test_lowpass_alpha_value_and_dc_gain():
    lp = LowPass(60.0, 1e-3)
    # pole mapping: alpha = 1 - exp(-2 pi 60 * 1e-3) ~ 0.3141
    assert lp.alpha == pytest.approx(0.3141, abs=2e-4)
    assert lp.alpha == pytest.approx(1 - np.exp(-0.376991), abs=1e-6)
    lp.update(0.0)
    ys = [lp.update(1.0) for _ in range(60)]
    assert ys[0] == pytest.approx(lp.alpha)  # single-step response from rest
    assert np.all(np.diff(ys) > 0)           # monotone convergence
    assert ys[-1] == pytest.approx(1.0, abs=1e-8)


def test_lowpass_initializes_on_first_sample():
    lp = LowPass(100.0, 1e-3)
    assert lp.update(3.3) == 3.3
    assert lp.update(3.3) == 3.3


def test_lowpass_validation():
    with pytest.raises(ValueError):
        LowPass(0.0, 1e-3)


def test_finite_difference_trivials():
    np.testing.assert_array_equal(finite_difference([1.0, 2.0], [1.0, 2.0]), [0.0, 0.0])
    ramp = [finite_difference([3.0 * (i + 1)], [3.0 * i])[0] for i in range(5)]
    np.testing.assert_allclose(ramp, 3.0)


def test_finite_difference_sinusoid_taylor_bound():
    omega, tau, a = 2 * np.pi * 20.3, 1e-3, 1.0
    t = np.arange(200) * tau
    m = a * np.sin(omega * t)
    diffs = m[1:] - m[:-1]
    # compare against the midpoint derivative: relative error O((omega tau)^2)
    expect = a * omega * tau * np.cos(omega * (t[1:] - tau / 2))
    assert np.max(np.abs(diffs - expect)) / (a * omega * tau) <= (omega * tau) ** 2 / 6


def test_measurement_vector_validation():
    with pytest.raises(ValueError):
        MeasurementVector(w_hat=-1.0)
    with pytest.raises(ValueError):
        MeasurementVector(x_hat=np.nan)


def _render(grid, optics, x0=0.0, z0=0.0):
    return FrameRenderer(grid, optics).render(PhaseParams(x0=x0, z0=z0))


def test_pipeline_determinism(grid, optics, flat_ref):
    frame = _render(grid, optics, x0=2.2e-6)
    outs = []
    for _ in range(2):
        est = InSituEstimator(grid)
        m = est.process(frame, flat_ref, 0.0)
        outs.append((m.x_hat, m.z_hat, m.w_hat, m.w_z_hat))
    assert outs[0] == outs[1]  # bit-for-bit


def test_estimator_unbiased_at_zero_noise(grid, optics, flat_ref):
    # noiseless resolution-limited frames at sub-pixel object positions:
    # centroids recover the generating centers to < 0.1 pixel
    est = InSituEstimator(grid)
    worst = 0.0
    for frac in np.linspace(0.0, 1.0, 9):
        x0 = frac * grid.pitch
        z0 = (1.0 - frac) * 0.6 * grid.pitch
        est.reset()
        est.process(_render(grid, optics, x0, z0), flat_ref, 0.0)
        raw = est.last_raw
        worst = max(worst, abs(raw.x_hat - x0), abs(raw.z_hat - z0))
    assert worst <= 0.1 * grid.pitch


def test_estimator_filters_x_not_z(grid, optics, flat_ref):
    est = InSituEstimator(grid)
    est.process(_render(grid, optics, 0.0, 0.0), flat_ref, 0.0)
    m = est.process(_render(grid, optics, 4e-6, 4e-6), flat_ref, 1e-3)
    # z reacts fully, x only by the filter coefficient
    assert m.z_hat == pytest.approx(4e-6, abs=0.1 * grid.pitch)
    alpha = LowPass(60.0, 1e-3).alpha
    assert m.x_hat == pytest.approx(alpha * 4e-6, rel=0.05)


def test_estimator_degenerate_frame_policy(grid, optics, flat_ref):
    est = InSituEstimator(grid, EstimatorConfig(degenerate_mass_fraction=1e-4))
    good = est.process(_render(grid, optics, 1e-6, 0.0), flat_ref, 0.0)
    assert not good.degenerate
    held = est.process(flat_ref, flat_ref, 1e-3)  # empty frame: no mass
    assert held.degenerate
    assert held.x_hat == good.x_hat and held.w_hat == good.w_hat
    assert held.t == 1e-3


def test_estimator_degenerate_first_frame_raises(grid, flat_ref):
    est = InSituEstimator(grid)
    with pytest.raises(ValueError, match="degenerate"):
        est.process(flat_ref, flat_ref, 0.0)


# --- the atom-box filter matches the full-frame pipeline bit for bit ----------

GRID = GridSpec()


class _FullFrameEstimator(InSituEstimator):
    """Reference pipeline: inverse Laplacian rebuilt per frame, rho^6 over the
    whole frame, then masked for the mass and the moments."""

    def process(self, frame, reference, t):
        grid = frame.grid
        current = frame.data / reference.data - 1.0
        k_sq = grid.k_sq_half
        inv = np.zeros_like(k_sq)
        nonzero = k_sq > 0
        inv[nonzero] = 1.0 / k_sq[nonzero]
        rho = sfft.irfft2(sfft.rfft2(current) * inv, s=(grid.nz, grid.nx))
        rho -= rho[self.mask.background].mean()
        rho6 = rho**6
        mass = np.where(self.mask.atoms, rho6, 0.0).sum()
        if self._mass_ref is None:
            self._mass_ref = mass
        if mass <= self.cfg.degenerate_mass_fraction * self._mass_ref:
            if self.last is None:
                raise ValueError(f"degenerate first frame at t={t:.4f}")
            held = replace(self.last, t=t, degenerate=True)
            self.last = held
            return held
        x, z, w_x, w_z, _ = extract_moments(rho6, self.mask, self.grid)
        self.last_raw = MeasurementVector(x_hat=x, z_hat=z, w_hat=w_x, t=t, w_z_hat=w_z)
        mv = MeasurementVector(x_hat=self.lp_x.update(x), z_hat=z,
                               w_hat=self.lp_w.update(w_x), t=t, w_z_hat=w_z)
        self.last = mv
        return mv


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    halfwidth=st.sampled_from([2, 12, 30]),
    photons=st.sampled_from([0.0, 2e7, 1e5, 1e3]),
    blanks=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_process_matches_full_frame_filter(seed, halfwidth, photons, blanks):
    # the region shapes estimator.region_halfwidth_px can set
    rng = np.random.default_rng(seed)
    cfg = EstimatorConfig(region_halfwidth_px=halfwidth)
    fast, ref = InSituEstimator(GRID, cfg), _FullFrameEstimator(GRID, cfg)
    renderer = FrameRenderer(GRID, OpticsParams())
    reference = make_reference(GRID)
    for i, blank in enumerate(blanks):
        if blank:
            data = reference.data.copy()
        else:
            params = PhaseParams(phi0=-rng.uniform(0.01, 0.3), r_x=rng.uniform(8e-6, 3e-5),
                                 x0=rng.uniform(-2e-5, 2e-5), z0=rng.uniform(-1e-5, 1e-5))
            data = renderer.render(params).data * reference.data
        if photons:
            data = data + np.sqrt(data / photons) * rng.standard_normal(data.shape)
        frame = ImageGrid(GRID, data)
        t = i * 1e-3
        try:
            want = ref.process(frame, reference, t)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                fast.process(frame, reference, t)
            return
        got = fast.process(frame, reference, t)
        assert got == want
        assert got.degenerate == want.degenerate
        assert fast.last_raw == ref.last_raw
        assert fast._mass_ref == ref._mass_ref  # later degenerate decisions
