"""Property tests of the simulated histograms.

The cached-backdrop histogram of a render must be byte-equal to the
whole-scene oracle in `reference.py` for any scene, any other image with a
backdrop must match it too, `simulate_raw` rows must conserve photons
and keep mirrored scenes indistinguishable over a uniform wall, and
`finalize` of any rows must give those rows of the whole finalized set.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import lexsort_histogram, serial_render, sum_expected_photons
from tdi import forward, pipeline, scene
from tdi.config import TIME_CONVENTIONS, SimConfig

SILHOUETTES = scene.generate_silhouettes(4, seed=9)


@st.composite
def configs(draw):
    # frames no taller than wide keep the wall's corners inside the span
    img_w = draw(st.integers(8, 24))
    return SimConfig(img_w=img_w, img_h=draw(st.integers(8, img_w)),
                     bins=draw(st.integers(64, 400)),
                     time_convention=draw(st.sampled_from(TIME_CONVENTIONS)),
                     seed=draw(st.integers(0, 2 ** 16)))


def backgrounds():
    return st.sampled_from(list(pipeline.BACKGROUNDS.values())).map(lambda build: build())


@st.composite
def scenes(draw):
    """1-3 placements anywhere in depth, some reaching past the frame."""
    cfg = draw(configs())
    half_tan = math.tan(cfg.fov_rad / 2.0)
    placements = []
    for _ in range(draw(st.integers(1, 3))):
        z = draw(st.floats(cfg.z_min, cfg.z_max))
        reach = 1.3 * z * half_tan
        placements.append(scene.Placement(
            draw(st.sampled_from(SILHOUETTES)),
            x=draw(st.floats(-reach, reach)), y=draw(st.floats(-reach, reach)), z=z,
            mirrored=draw(st.booleans()), reflectivity=draw(st.floats(0.25, 4.0))))
    return cfg, scene.Scene(draw(backgrounds()), placements)


@given(drawn=scenes())
def test_cached_backdrop_histogram_matches_whole_scene_oracle(drawn):
    cfg, sc = drawn
    backdrop = scene.render_background(sc.background, cfg)
    img = scene.render(sc, cfg, backdrop)
    whole = serial_render(sc, cfg)
    assert img.depth_m.tobytes() == whole.depth_m.tobytes()
    h = forward.simulate_histogram(img, cfg, forward.backdrop_returns(backdrop, cfg))
    assert h.counts.tobytes() == lexsort_histogram(whole, cfg).tobytes()


@given(cfg=configs(), background=backgrounds(), data=st.data(),
       edits=st.lists(st.tuples(st.integers(0, 575),
                                st.sampled_from(("depth", "reflectance", "empty"))),
                      max_size=40))
def test_cached_backdrop_histogram_matches_oracle_for_any_edit(cfg, background, data,
                                                                edits):
    # an image that render did not draw on this backdrop is computed whole,
    # so a pixel whose reflectance alone changed, and one that stopped
    # returning, count as well as the ones a placement brings closer
    backdrop = scene.render_background(background, cfg)
    depth, refl = backdrop.depth_m.copy(), backdrop.reflectance.copy()
    for pixel, kind in edits:
        at = np.unravel_index(pixel % depth.size, depth.shape)
        if kind == "depth":
            depth[at] = data.draw(st.floats(cfg.z_min, background.wall_depth_m))
        elif kind == "reflectance":
            refl[at] = data.draw(st.floats(0.25, 4.0))
        else:
            depth[at] = 0.0
    img = scene.DepthImage(depth, refl)
    h = forward.simulate_histogram(img, cfg, forward.backdrop_returns(backdrop, cfg))
    assert h.counts.tobytes() == lexsort_histogram(img, cfg).tobytes()


@st.composite
def recipes(draw, background=None, varied=True):
    """Tiny recipes: one silhouette, a few poses, fixed or per-scene reflectivity."""
    background = background or draw(st.sampled_from(pipeline.BACKGROUND_KINDS))
    reflectivity_range = None
    if varied and draw(st.booleans()):
        reflectivity_range = (0.25, 4.0)
    return pipeline.DatasetRecipe(
        sim=draw(configs()), n_silhouettes=1, depth_steps=draw(st.integers(1, 3)),
        lateral_steps=draw(st.integers(2, 4)), background=background,
        reflectivity=draw(st.floats(0.25, 4.0)), reflectivity_range=reflectivity_range)


@given(recipe=recipes(), data=st.data())
def test_simulate_raw_rows_conserve_photons(recipe, data):
    # each row's counts add up to reflectivity * p0 / r^4 over the visible pixels
    indices = data.draw(st.lists(st.integers(0, recipe.n_scenes - 1), min_size=1,
                                 max_size=6))
    raw = pipeline.simulate_raw(recipe, scenes=indices)
    built = pipeline.build_scenes(recipe)
    for row, index in enumerate(indices):
        expected = sum_expected_photons(serial_render(built[index], recipe.sim), recipe.sim)
        assert raw.counts[row].sum() == pytest.approx(expected, rel=1e-12, abs=0)


def mirror_pairs(recipe):
    """(plain, mirrored) row pairs; augment orders rows depth, lateral, mirror."""
    laterals = recipe.lateral_steps
    for depth in range(recipe.depth_steps):
        for j in range(laterals):
            yield ((depth * laterals + j) * 2,
                   (depth * laterals + laterals - 1 - j) * 2 + 1)


@given(recipe=recipes(background="uniform", varied=False))
def test_simulate_raw_mirror_rows_identical_over_uniform_wall(recipe):
    raw = pipeline.simulate_raw(recipe)
    w, h = recipe.sim.img_w, recipe.sim.img_h
    for a, b in mirror_pairs(recipe):
        assert raw.counts[a].tobytes() == raw.counts[b].tobytes()
        flipped = np.fliplr(raw.images[a].reshape(h, w))
        assert raw.images[b].tobytes() == np.ascontiguousarray(flipped).tobytes()


# 48 desk-lit 16x16 scenes of two silhouettes
TINY = pipeline.DatasetRecipe(sim=pipeline.desk_sim(seed=5).with_(img_w=16, img_h=16, bins=400),
                              n_silhouettes=2, depth_steps=3, lateral_steps=4)


@given(recipe=recipes(), irf=st.booleans(), noise=st.integers(0, 3),
       picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=8),
       cores=st.integers(1, 3))
@example(recipe=TINY, irf=True, noise=2, picks=[30, 2, 17], cores=1)
def test_finalize_of_any_rows_is_those_rows_of_the_whole(recipe, irf, noise, picks, cores):
    # rows in any order, repeats allowed, split across 1 to 3 threads: each
    # row's IRF and noise depend on its scene alone, not on where it sits
    raw = pipeline.simulate_raw(recipe)
    rows = np.array([pick % len(raw) for pick in picks])
    dt = 250e-12 if irf else 0.0
    with mock.patch.object(pipeline, "_THREADED_MIN_BINS", 0), \
            mock.patch.object(pipeline, "_usable_cores", lambda: cores):
        whole = pipeline.finalize(raw, irf_dt_s=dt, noise_level=noise)
        part = pipeline.finalize(raw.take(rows), irf_dt_s=dt, noise_level=noise)
    assert part.histograms.tobytes() == whole.histograms[rows].tobytes()
    assert part.images.tobytes() == whole.images[rows].tobytes()


def test_backdrop_return_past_the_span_raises_naming_its_depth():
    # one backdrop pixel lies beyond the span; a scene could cover it, but
    # the backdrop is refused whole, so no scene drawn on it can show it
    cfg = SimConfig(img_w=8, img_h=8, bins=64)
    depth = np.full((8, 8), 3.0)
    depth[0, 0] = 6.0
    backdrop = scene.DepthImage(depth, np.ones((8, 8)))
    with pytest.raises(forward.SpanError, match="^return from depth 6.0000 m"):
        forward.backdrop_returns(backdrop, cfg)
