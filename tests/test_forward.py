import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import sum_expected_photons
from tdi import forward, scene, store
from tdi.config import NOISE_FRACTIONS, SPEED_OF_LIGHT, SimConfig

C = SPEED_OF_LIGHT

# odd resolution puts one pixel exactly on the optical axis
CFG9 = SimConfig(img_w=9, img_h=9, bins=4000)


def single_pixel_image(depth, cfg=CFG9, reflectivity=1.0):
    grid = np.zeros((cfg.img_h, cfg.img_w))
    grid[cfg.img_h // 2, cfg.img_w // 2] = depth
    refl = np.full_like(grid, reflectivity)
    return scene.DepthImage(grid, refl)


# ---------------------------------------------------------------------------
# a pixel's return: arrival time 2r/c (r/c one way), photons reflectivity * p0 / r^4


def pixel_return(img, cfg=CFG9):
    """The one nonzero bin of an image's histogram and its count."""
    counts = forward.simulate_histogram(img, cfg).counts
    (k,) = np.flatnonzero(counts)
    return k, counts[k]


def test_pixel_time_round_trip_on_axis():
    k, _ = pixel_return(single_pixel_image(3.0))
    assert k == math.floor(2 * 3.0 / C / CFG9.bin_width_s)


def test_pixel_time_one_way_is_half():
    # r/c in bins of half the width lands where 2r/c does, for every pixel
    cfg = SimConfig(img_w=16, img_h=16, bins=1000)
    one_way = cfg.with_(time_convention="one_way", bin_width_s=cfg.bin_width_s / 2)
    sil = scene.generate_silhouettes(1, seed=3)[0]
    img = scene.render(scene.Scene(scene.default_background(),
                                   [scene.Placement(sil, x=0.4, z=2.2)]), cfg)
    rt = forward.simulate_histogram(img, cfg)
    ow = forward.simulate_histogram(img, one_way)
    assert np.count_nonzero(rt.counts) > 10
    assert ow.counts.tobytes() == rt.counts.tobytes()


def test_pixel_time_pythagoras():
    # the corner pixel: r from its lateral offsets and its depth
    z = 2.0
    grid = np.zeros((9, 9))
    grid[0, 0] = z
    x = scene.pixel_offsets(9)[0] / CFG9.focal_px * z
    y = -x
    r = math.sqrt(x * x + y * y + z * z)
    assert r > z * 1.05
    k, count = pixel_return(scene.DepthImage(grid, np.ones((9, 9))))
    assert k == math.floor(2 * r / C / CFG9.bin_width_s)
    assert count == pytest.approx(CFG9.p0 / r ** 4, rel=1e-12)


def test_pixel_time_rejects_origin_and_bad_convention():
    # a pixel at depth 0 (the origin) returns no light; the config checks the convention
    h = forward.simulate_histogram(single_pixel_image(0.0), CFG9)
    assert not h.counts.any()
    with pytest.raises(ValueError, match="unknown time convention 'two_way'"):
        SimConfig(time_convention="two_way")


def test_pixel_photons_inverse_fourth_power():
    cfg = CFG9.with_(p0=50.0)
    _, near = pixel_return(single_pixel_image(1.3, cfg), cfg)
    _, far = pixel_return(single_pixel_image(2.6, cfg), cfg)
    assert near / far == pytest.approx(16.0, rel=1e-12)


def test_pixel_photons_reference_values():
    assert pixel_return(single_pixel_image(1.0))[1] == 100.0 == CFG9.p0
    cfg = CFG9.with_(p0=16.0)
    assert pixel_return(single_pixel_image(2.0, cfg, reflectivity=0.5), cfg)[1] == \
        pytest.approx(0.5, rel=1e-15)


def test_pixel_photons_rejects_nonpositive_distance():
    # a negative depth is no image; depth 0 is no return
    with pytest.raises(ValueError, match="depth values must be finite and >= 0"):
        single_pixel_image(-1.0)
    assert not forward.simulate_histogram(single_pixel_image(0.0), CFG9).counts.any()


# ---------------------------------------------------------------------------
# simulate_histogram


def test_simulate_all_zero_image():
    img = scene.DepthImage(np.zeros((9, 9)), np.ones((9, 9)))
    h = forward.simulate_histogram(img, CFG9)
    assert np.all(h.counts == 0.0)


def test_simulate_single_on_axis_pixel():
    d = 2.5
    h = forward.simulate_histogram(single_pixel_image(d), CFG9)
    nonzero = np.nonzero(h.counts)[0]
    assert len(nonzero) == 1
    assert nonzero[0] == math.floor(2 * d / (C * CFG9.bin_width_s))
    assert h.counts[nonzero[0]] == pytest.approx(CFG9.p0 / d ** 4, rel=1e-15)


def test_simulate_two_depth_count_ratio():
    h1 = forward.simulate_histogram(single_pixel_image(1.8), CFG9)
    h2 = forward.simulate_histogram(single_pixel_image(3.6), CFG9)
    assert h1.counts.max() / h2.counts.max() == pytest.approx(16.0, rel=1e-12)
    assert np.nonzero(h1.counts)[0][0] != np.nonzero(h2.counts)[0][0]


def test_simulate_rejects_shape_mismatch():
    img = scene.DepthImage(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ValueError):
        forward.simulate_histogram(img, CFG9)


def test_simulate_span_error_names_depth():
    # the histogram reaches exactly z_max on axis, so a corner return
    # (3D distance > z_max) overflows the last bin
    cfg = SimConfig(img_w=9, img_h=9, bins=4000, range_margin_m=0.0)
    grid = np.zeros((9, 9))
    grid[0, 0] = 3.9
    img = scene.DepthImage(grid, np.ones((9, 9)))
    with pytest.raises(forward.SpanError, match="3.9"):
        forward.simulate_histogram(img, cfg)


def test_simulate_conservation():
    cfg = SimConfig(img_w=16, img_h=16, bins=1000)
    sils = scene.generate_silhouettes(3, seed=2)
    scenes = scene.augment(sils, scene.default_background(), cfg, 2, 2)
    for sc in scenes:
        img = scene.render(sc, cfg)
        h = forward.simulate_histogram(img, cfg)
        expected = sum_expected_photons(img, cfg)
        assert abs(h.counts.sum() - expected) <= 1e-12 * expected


def test_simulate_shift_covariance():
    # moving an isolated on-axis return by a whole number of bin-depths
    # moves its bin index by exactly that number
    quantum = C * CFG9.bin_width_s / 2.0
    d0 = 1.9 + 0.3 * quantum  # sits away from a bin boundary
    bin0 = np.nonzero(forward.simulate_histogram(single_pixel_image(d0), CFG9).counts)[0][0]
    for k in (1, 5, 100):
        hk = forward.simulate_histogram(single_pixel_image(d0 + k * quantum), CFG9)
        assert np.nonzero(hk.counts)[0][0] == bin0 + k


def test_simulate_shift_covariance_generic_delta():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = rng.uniform(1.0, 3.0)
        delta = rng.uniform(0.0, 0.9)
        b1 = np.nonzero(forward.simulate_histogram(single_pixel_image(d), CFG9).counts)[0][0]
        b2 = np.nonzero(forward.simulate_histogram(single_pixel_image(d + delta), CFG9).counts)[0][0]
        expected = round(2 * delta / (C * CFG9.bin_width_s))
        assert abs((b2 - b1) - expected) <= 1


def test_simulate_superposition():
    cfg = SimConfig(img_w=16, img_h=16, bins=1000)
    rng = np.random.default_rng(1)
    depth_a = np.zeros((16, 16))
    depth_b = np.zeros((16, 16))
    pick = rng.uniform(size=(16, 16)) < 0.5
    depth_a[pick] = rng.uniform(1.0, 4.0, size=pick.sum())
    depth_b[~pick] = rng.uniform(1.0, 4.0, size=(~pick).sum())
    ones = np.ones((16, 16))
    ha = forward.simulate_histogram(scene.DepthImage(depth_a, ones), cfg)
    hb = forward.simulate_histogram(scene.DepthImage(depth_b, ones), cfg)
    hu = forward.simulate_histogram(scene.DepthImage(depth_a + depth_b, ones), cfg)
    np.testing.assert_allclose(hu.counts, ha.counts + hb.counts, rtol=1e-12, atol=0)


def test_mirror_ambiguity_uniform_vs_structured():
    cfg = SimConfig(img_w=32, img_h=32, bins=2000)
    sil = scene.generate_silhouettes(1, seed=4)[0]
    placement = scene.Placement(sil, x=0.6, z=2.0)

    plain = scene.Scene(scene.Background(), [placement])
    ha = forward.simulate_histogram(scene.render(plain, cfg), cfg)
    hb = forward.simulate_histogram(scene.render(plain.mirror(), cfg), cfg)
    assert np.array_equal(ha.counts, hb.counts)

    textured = scene.Scene(scene.default_background(), [placement])
    ha = forward.simulate_histogram(scene.render(textured, cfg), cfg)
    hb = forward.simulate_histogram(scene.render(textured.mirror(), cfg), cfg)
    assert not np.array_equal(ha.counts, hb.counts)


# ---------------------------------------------------------------------------
# IRF convolution


def delta_histogram(bins=2000, at=1000, width=1e-11):
    counts = np.zeros(bins)
    counts[at] = 1.0
    return forward.Histogram(width, counts)


def test_convolve_zero_width_is_identity():
    h = delta_histogram()
    out = forward.convolve_irf(h, 0.0)
    assert np.array_equal(out.counts, h.counts)


def test_convolve_delta_normalized_and_symmetric():
    h = delta_histogram()
    out = forward.convolve_irf(h, 8e-11)
    assert out.counts.sum() == pytest.approx(1.0, abs=1e-6)
    peak = np.argmax(out.counts)
    assert peak == 1000
    width = 40
    left = out.counts[peak - width: peak]
    right = out.counts[peak + 1: peak + width + 1][::-1]
    np.testing.assert_allclose(left, right, rtol=1e-12)


def test_convolve_delta_fwhm():
    h = delta_histogram()
    dt = 6e-11
    out = forward.convolve_irf(h, dt)
    half = out.counts.max() / 2.0
    above = np.nonzero(out.counts >= half)[0]
    measured = (above[-1] - above[0] + 1) * h.bin_width_s
    expected = 2.0 * math.sqrt(math.log(2.0)) * dt
    assert abs(measured - expected) <= h.bin_width_s


def test_convolve_never_increases_peak():
    rng = np.random.default_rng(2)
    counts = rng.uniform(0, 10, size=500)
    h = forward.Histogram(1e-11, counts)
    for dt in (1e-12, 1e-11, 5e-11, 2e-10):
        out = forward.convolve_irf(h, dt)
        assert out.counts.max() <= h.counts.max() * (1 + 1e-12)


def test_convolve_delta_peak_monotone_in_width():
    h = delta_histogram()
    peaks = [forward.convolve_irf(h, dt).counts.max()
             for dt in (1e-11, 3e-11, 1e-10, 3e-10)]
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))


@given(bin_width_s=st.floats(1e-12, 1e-10), dt_bins=st.floats(0.05, 40.0),
       extra=st.integers(1, 400),
       spots=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1e-3, 1e3)),
                      min_size=1, max_size=6))
def test_convolve_keeps_counts_away_from_edges(bin_width_s, dt_bins, extra, spots):
    # returns whose bin centres lie at least 5 sigma of the IRF (dt / sqrt 2)
    # inside both edges lose at most the Gaussian tail beyond 5 sigma, 3e-7
    margin = max(0, math.ceil(5.0 * dt_bins / math.sqrt(2.0) - 0.5))
    counts = np.zeros(2 * margin + 1 + extra)
    for where, photons in spots:
        counts[margin + round(where * extra)] += photons
    out = forward.convolve_irf(forward.Histogram(bin_width_s, counts), dt_bins * bin_width_s)
    assert abs(out.counts.sum() - counts.sum()) <= 1e-6 * counts.sum()


def test_convolve_rejects_negative_width():
    with pytest.raises(ValueError):
        forward.convolve_irf(delta_histogram(), -1e-12)


# ---------------------------------------------------------------------------
# noise


def bump_histogram(bins=1000, width=1e-11):
    t = np.arange(bins, dtype=float)
    counts = 100.0 * np.exp(-((t - 400) / 120.0) ** 2)
    counts[counts < 1e-3] = 0.0
    return forward.Histogram(width, counts)


def test_noise_level_zero_is_identity():
    h = bump_histogram()
    out = forward.add_noise(h, 0, seed=3)
    assert np.array_equal(out.counts, h.counts)


def test_noise_deterministic_per_seed():
    h = bump_histogram()
    a = forward.add_noise(h, 2, seed=11)
    b = forward.add_noise(h, 2, seed=11)
    c = forward.add_noise(h, 2, seed=12)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_noise_clamped_nonnegative():
    h = bump_histogram()
    for seed in range(5):
        out = forward.add_noise(h, 3, seed=seed)
        assert (out.counts >= 0).all()


def test_noise_all_zero_histogram_stays_nonnegative():
    h = forward.Histogram(1e-11, np.zeros(100))
    out = forward.add_noise(h, 3, seed=0)
    assert (out.counts >= 0).all()


def test_noise_calibration_quick():
    # Monte Carlo mean absolute perturbation of nonzero bins ~ fraction * mean
    h = bump_histogram()
    nz = h.counts > 0
    mean_nz = h.counts[nz].mean()
    for level in (1, 3):
        fraction = NOISE_FRACTIONS[level]
        rel = np.mean([
            np.abs(forward.add_noise(h, level, seed=s).counts[nz] - h.counts[nz]).mean() / mean_nz
            for s in range(300)])
        assert abs(rel - fraction) <= 0.2 * fraction


def test_noise_spec_validation():
    h = bump_histogram()
    for level in (4, -1):
        with pytest.raises(ValueError, match=f"noise level must be 0..3, got {level}"):
            forward.add_noise(h, level, seed=0)


# ---------------------------------------------------------------------------
# normalization and CSV


def test_normalize_histogram_peak_and_bounds():
    counts = np.zeros(64)
    counts[10] = 50.0
    counts[20] = 25.0
    vec = forward.normalize_histogram(forward.Histogram(1e-11, counts))
    assert vec[10] == 1.0 and vec[20] == 0.5
    assert vec.min() >= 0.0 and vec.max() <= 1.0 and vec.shape == (64,)


def test_normalize_histogram_all_zero():
    vec = forward.normalize_histogram(forward.Histogram(1e-11, np.zeros(16)))
    assert np.all(vec == 0.0)


@pytest.mark.parametrize("width, t0, bad", [
    (math.nan, 0.0, "bin_width_s"), (math.inf, 0.0, "bin_width_s"),
    (-math.inf, 0.0, "bin_width_s"), (0.0, 0.0, "bin_width_s"),
    (1e-11, math.nan, "t0_s"), (1e-11, math.inf, "t0_s"), (1e-11, -math.inf, "t0_s")])
def test_histogram_rejects_nonfinite_geometry(width, t0, bad):
    with pytest.raises(ValueError, match=f"{bad} must be finite"):
        forward.Histogram(width, np.ones(4), t0_s=t0)


def test_histogram_csv_round_trip(tmp_path):
    h = bump_histogram(bins=128)
    path = tmp_path / "hist.csv"
    store.write_histogram_csv(h, path)
    text = path.read_text().splitlines()
    assert text[0] == "bin_start_s,count"
    assert len(text) == 129
    back = store.read_histogram_csv(path)
    assert back.bin_width_s == pytest.approx(h.bin_width_s, rel=1e-12)
    np.testing.assert_allclose(back.counts, h.counts, rtol=0, atol=0)


def test_histogram_csv_rejects_uneven_bins(tmp_path):
    h = bump_histogram(bins=16)
    path = tmp_path / "hist.csv"
    store.write_histogram_csv(h, path)
    lines = path.read_text().splitlines()
    t, c = lines[1 + 9].split(",")
    lines[1 + 9] = f"{float(t) + 0.3 * h.bin_width_s!r},{c}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line 11: bins are unevenly spaced"):
        store.read_histogram_csv(path)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_histogram_csv_overflowing_span_names_a_line(tmp_path):
    # the span overflows to an infinite width, so every deviation is NaN
    path = tmp_path / "hist.csv"
    path.write_text("bin_start_s,count\n-1e308,1\n0.0,1\n1e308,1\n")
    with pytest.raises(ValueError, match="line 2: bins are unevenly spaced"):
        store.read_histogram_csv(path)


@pytest.mark.parametrize("row", ["1e-11,2,3", "abc,1", "1e-11", "1e-11;2", "1e-11,-2",
                                 "1e-11,nan", "inf,1"])
def test_histogram_csv_bad_row_names_its_line(tmp_path, row):
    path = tmp_path / "hist.csv"
    store.write_histogram_csv(bump_histogram(bins=8), path)
    lines = path.read_text().splitlines()
    lines[4] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 5: .*{row!r}"):
        store.read_histogram_csv(path)


def test_histogram_csv_offset_start_reads_back(tmp_path):
    # a late first bin: the spacing check must not trip on rounding of t0
    h = forward.Histogram(1.25e-12, bump_histogram(bins=8000).counts, t0_s=1e-6)
    path = tmp_path / "hist.csv"
    store.write_histogram_csv(h, path)
    back = store.read_histogram_csv(path)
    assert back.t0_s == h.t0_s
    assert back.bin_width_s == pytest.approx(h.bin_width_s, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
def test_histogram_rejects_non_finite_or_negative_counts(bad):
    counts = np.ones(6)
    counts[3] = bad
    with pytest.raises(ValueError, match="^counts must be finite and >= 0$"):
        forward.Histogram(1e-11, counts)


def test_histogram_validation():
    with pytest.raises(ValueError):
        forward.Histogram(0.0, np.ones(4))
    with pytest.raises(ValueError):
        forward.Histogram(1e-11, np.array([1.0]))
    with pytest.raises(ValueError):
        forward.Histogram(1e-11, np.array([1.0, -2.0]))
