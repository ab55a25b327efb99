import math

import numpy as np
import pytest

from reference import brute_force_ssim_mean
from tdi import metrics
from tdi.config import SPEED_OF_LIGHT

C = SPEED_OF_LIGHT


def random_image(seed, shape=(64, 64)):
    return np.random.default_rng(seed).uniform(0.0, 1.0, shape)


# ---------------------------------------------------------------------------
# SSIM


def test_ssim_identity_is_exactly_one():
    x = random_image(0)
    res = metrics.ssim(x, x)
    assert res.mean == 1.0
    assert np.all(res.map == 1.0)


def test_ssim_symmetry():
    a, b = random_image(1), random_image(2)
    assert metrics.ssim(a, b).mean == pytest.approx(metrics.ssim(b, a).mean, abs=1e-12)


def test_ssim_matches_brute_force():
    for seed in range(5):
        a = random_image(seed, (32, 32))
        b = random_image(seed + 100, (32, 32))
        assert metrics.ssim(a, b).mean == pytest.approx(
            brute_force_ssim_mean(a, b), abs=1e-6)


def test_ssim_map_bounds_and_mean_consistency():
    for seed in range(4):
        a, b = random_image(seed, (24, 24)), random_image(seed + 50, (24, 24))
        res = metrics.ssim(a, b)
        assert res.map.shape == (24, 24)
        assert res.map.min() >= -1.0 - 1e-9
        assert res.map.max() <= 1.0 + 1e-9
        assert res.mean == pytest.approx(res.map.mean(), abs=1e-15)


def test_ssim_detects_structure_difference():
    a = np.zeros((32, 32))
    a[8:24, 8:24] = 1.0
    assert metrics.ssim(a, np.roll(a, 10, axis=1)).mean < 0.8


def test_ssim_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        metrics.ssim(np.zeros((8, 8)), np.zeros((8, 9)))
    with pytest.raises(ValueError):
        metrics.ssim(np.zeros(64), np.zeros(64))


def test_ssim_rejects_an_empty_stack():
    with pytest.raises(ValueError, match="nonempty"):
        metrics.ssim(np.zeros((0, 8, 8)), np.zeros((0, 8, 8)))


def test_batch_ssim_scores_float32_stacks_chunk_by_chunk():
    n = 2 * metrics.SSIM_CHUNK + 3
    rng = np.random.default_rng(7)
    a = rng.uniform(0.0, 1.0, (n, 12, 12)).astype(np.float32)
    b = rng.uniform(0.0, 1.0, (n, 12, 12)).astype(np.float32)
    means, overall = metrics.batch_ssim(a, b)
    wide, wide_overall = metrics.batch_ssim(a.astype(np.float64), b.astype(np.float64))
    assert means.tobytes() == wide.tobytes() and overall == wide_overall
    for k in (0, metrics.SSIM_CHUNK - 1, metrics.SSIM_CHUNK, n - 1):
        assert abs(means[k] - metrics.ssim(a[k], b[k]).mean) <= 1e-12
    with pytest.raises(ValueError, match="equal-shape"):
        metrics.batch_ssim(a, b[:-1])


def test_batch_ssim_identical_pairs():
    imgs = np.array([random_image(s, (16, 16)) for s in range(3)])
    means, overall = metrics.batch_ssim(imgs, imgs)
    assert np.all(means == 1.0) and overall == 1.0


def test_batch_ssim_single_pair_and_order():
    a, b = random_image(3, (16, 16)), random_image(4, (16, 16))
    means, overall = metrics.batch_ssim(a[None], b[None])
    assert len(means) == 1 and overall == means[0]
    means2, _ = metrics.batch_ssim(np.stack([a, a]), np.stack([b, a]))
    assert means2[0] == means[0] and means2[1] == 1.0


def test_batch_ssim_stack_matches_single_and_brute_force():
    base = random_image(10, (16, 16))
    step = np.zeros((16, 16))
    step[4:12, 4:12] = 1.0
    pairs = [(base, base), (base, random_image(11, (16, 16))),
             (base, np.roll(base, 3, axis=0)), (step, np.roll(step, 2, axis=1)),
             (step, np.full((16, 16), 0.5)), (np.zeros((16, 16)), np.zeros((16, 16))),
             (base, 0.5 * base + 0.25), (random_image(12, (16, 16)), step)]
    stack = np.array(pairs)
    means, overall = metrics.batch_ssim(stack[:, 0], stack[:, 1])
    assert means.shape == (len(pairs),)
    assert overall == pytest.approx(means.mean(), abs=1e-15)
    for (a, b), got in zip(pairs, means):
        assert abs(got - metrics.ssim(a, b).mean) <= 1e-12
        assert abs(got - brute_force_ssim_mean(a, b)) <= 1e-6


def test_batch_ssim_rejects_empty():
    with pytest.raises(ValueError):
        metrics.batch_ssim(np.zeros((0, 16, 16)), np.zeros((0, 16, 16)))


# ---------------------------------------------------------------------------
# resolution model


def closed_form(d, dt):
    return math.sqrt((d + C * dt) ** 2 - d ** 2)


def test_lateral_resolution_closed_form_identity():
    # the difference-of-squares oracle cancels when c*dt << d, so 1e-9 is
    # the fair agreement bound over the physical domain
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = rng.uniform(0.0, 25.0)
        dt = 10 ** rng.uniform(-12, -8)
        got = metrics.lateral_resolution(d, dt)
        assert got == pytest.approx(closed_form(d, dt), rel=1e-9)


def test_lateral_resolution_reference_points():
    # published working points; the sub-centimeter figures are rounded
    assert metrics.lateral_resolution(4.0, 250e-12) == pytest.approx(0.77, rel=0.05)
    assert metrics.lateral_resolution(4.0, 25e-12) == pytest.approx(0.25, rel=0.05)
    assert metrics.lateral_resolution(2.0, 670e-12) == pytest.approx(0.90, rel=0.05)
    assert metrics.lateral_resolution(4.0, 2.3e-12) == pytest.approx(0.0742742, rel=1e-5)
    assert metrics.lateral_resolution(20.0, 25e-12) == pytest.approx(0.5476, rel=1e-3)


def test_lateral_resolution_on_axis_limit():
    for dt in (2.3e-12, 250e-12):
        assert metrics.lateral_resolution(0.0, dt) == pytest.approx(C * dt, rel=1e-12)


def test_lateral_resolution_monotone():
    base = metrics.lateral_resolution(4.0, 25e-12)
    assert metrics.lateral_resolution(5.0, 25e-12) > base
    assert metrics.lateral_resolution(4.0, 30e-12) > base


def test_lateral_resolution_square_root_growth():
    # delta(4d)/delta(d) -> 2 once d >> c*dt
    d, dt = 1000.0, 1e-12
    ratio = metrics.lateral_resolution(4 * d, dt) / metrics.lateral_resolution(d, dt)
    assert ratio == pytest.approx(2.0, rel=1e-6)


def test_lateral_resolution_rejects_bad_inputs():
    for d, dt in ((4.0, 0.0), (-1.0, 1e-12), (4.0, math.nan), (4.0, math.inf),
                  (math.nan, 1e-12), (math.inf, 1e-12)):
        with pytest.raises(ValueError):
            metrics.lateral_resolution(d, dt)


def test_depth_resolution_values():
    assert metrics.depth_resolution(250e-12) == pytest.approx(0.074948, rel=1e-4)
    assert metrics.depth_resolution(2.3e-12) == pytest.approx(6.895e-4, rel=1e-3)
    assert metrics.depth_resolution(670e-12) == pytest.approx(0.20, rel=0.05)
    for dt in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            metrics.depth_resolution(dt)
