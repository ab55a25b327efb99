import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given
from hypothesis import strategies as st

from reference import lexsort_histogram, placement_footprint, serial_render
from test_simulate_properties import SILHOUETTES, scenes
from tdi import forward, scene
from tdi.config import SimConfig


CFG = SimConfig()


def render_single(sil, x=0.0, z=2.0, mirrored=False, background=None, cfg=CFG):
    background = background or scene.Background()
    placement = scene.Placement(sil, x=x, z=z, mirrored=mirrored)
    return scene.render(scene.Scene(background, [placement]), cfg)


# ---------------------------------------------------------------------------
# silhouettes


def test_generate_silhouettes_deterministic():
    a = scene.generate_silhouettes(10, seed=7)
    b = scene.generate_silhouettes(10, seed=7)
    assert len(a) == 10
    for s1, s2 in zip(a, b):
        assert np.array_equal(s1.mask, s2.mask)
        assert s1.native_height_m == s2.native_height_m


def test_generate_silhouettes_connected_and_nonempty():
    for sil in scene.generate_silhouettes(10, seed=0):
        assert sil.mask.any()
        _, n_components = scipy.ndimage.label(sil.mask)
        assert n_components == 1
        assert 0.5 < sil.native_height_m < 2.5


def test_generate_silhouettes_distinct_across_seeds():
    a = scene.generate_silhouettes(10, seed=7)
    b = scene.generate_silhouettes(10, seed=8)
    assert any(not np.array_equal(s1.mask, s2.mask) for s1, s2 in zip(a, b))


def test_generate_silhouettes_vary_within_a_seed():
    sils = scene.generate_silhouettes(10, seed=3)
    masks = [s.mask.tobytes() for s in sils]
    assert len(set(masks)) > 1


def test_generate_silhouettes_rejects_bad_count():
    with pytest.raises(ValueError, match="^n_silhouettes must be an integer >= 1, got 0$"):
        scene.generate_silhouettes(0, seed=1)


def test_silhouette_validation():
    with pytest.raises(ValueError):
        scene.Silhouette(id=0, mask=np.zeros((4, 4), bool), native_height_m=1.7)
    for height in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="native_height_m must be finite and > 0"):
            scene.Silhouette(id=0, mask=np.ones((4, 4), bool), native_height_m=height)


# ---------------------------------------------------------------------------
# scale factor


def test_scale_factor_reference_points():
    assert scene.scale_factor(2.0) == 1.0
    assert scene.scale_factor(4.0) == 0.5


def test_scale_factor_decreases_to_zero():
    values = [scene.scale_factor(d) for d in (1.0, 2.0, 5.0, 50.0, 5e6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-6


def test_scale_factor_rejects_nonpositive():
    for d in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            scene.scale_factor(d)


# ---------------------------------------------------------------------------
# rendering


def test_render_empty_scene_is_wall():
    img = scene.render(scene.Scene(scene.Background(4.0)), CFG)
    assert img.depth_m.shape == (64, 64)
    assert np.all(img.depth_m == 4.0)
    assert np.all(img.reflectance == 1.0)
    # no placement, or one wholly outside the frame: the backdrop's bytes
    # and an empty overlay
    sil = scene.generate_silhouettes(1, seed=2)[0]
    bg = scene.default_background()
    backdrop = scene.render_background(bg, CFG)
    outside = scene.Placement(sil, x=50.0, z=2.0)
    assert scene.placement_rect(outside, CFG)[2].size == 0
    for placements in ([], [outside]):
        img = scene.render(scene.Scene(bg, placements), CFG, backdrop)
        assert img.depth_m.tobytes() == backdrop.depth_m.tobytes()
        assert img.reflectance.tobytes() == backdrop.reflectance.tobytes()
        assert img.overlay.pixels.dtype == np.int64
        assert img.overlay.pixels.size == 0


def test_render_occlusion_rule():
    sil = scene.generate_silhouettes(1, seed=2)[0]
    placement = scene.Placement(sil, z=2.0, reflectivity=1.5)
    img = scene.render(scene.Scene(scene.Background(4.0), [placement]), CFG)
    footprint = placement_footprint(placement, CFG)
    assert footprint.any()
    assert np.all(img.depth_m[footprint] == 2.0)
    assert np.all(img.depth_m[~footprint] == 4.0)
    assert np.all(img.reflectance[footprint] == 1.5)
    assert np.all(img.reflectance[~footprint] == 1.0)


def test_render_nearest_surface_wins_any_order():
    sils = scene.generate_silhouettes(2, seed=4)
    near = scene.Placement(sils[0], x=0.1, z=1.5)
    far = scene.Placement(sils[1], x=-0.1, z=3.0)
    bg = scene.default_background()
    img_ab = scene.render(scene.Scene(bg, [near, far]), CFG)
    img_ba = scene.render(scene.Scene(bg, [far, near]), CFG)
    assert np.array_equal(img_ab.depth_m, img_ba.depth_m)
    assert np.array_equal(img_ab.reflectance, img_ba.reflectance)


def test_render_footprint_scaling_law():
    # footprint area should follow (2/d)^2 within rasterization error
    for sil in scene.generate_silhouettes(3, seed=7):
        c2 = placement_footprint(scene.Placement(sil, z=2.0), CFG).sum()
        c4 = placement_footprint(scene.Placement(sil, z=4.0), CFG).sum()
        ratio = c2 / c4
        assert abs(ratio - 4.0) <= 0.4, f"sil {sil.id}: ratio {ratio}"


def test_render_scaling_uses_3d_distance():
    # an off-axis placement is farther away than its depth alone implies
    sil = scene.generate_silhouettes(1, seed=9)[0]
    on_axis = placement_footprint(scene.Placement(sil, x=0.0, z=3.0), CFG).sum()
    off_axis = placement_footprint(scene.Placement(sil, x=1.4, z=3.0), CFG).sum()
    assert 0 < off_axis < on_axis


def test_render_fully_outside_frame_is_absent():
    sil = scene.generate_silhouettes(1, seed=1)[0]
    img = render_single(sil, x=50.0, z=2.0)
    assert np.all(img.depth_m == 4.0)


def test_render_rejects_out_of_range_depth():
    sil = scene.generate_silhouettes(1, seed=1)[0]
    for z in (0.5, 4.5):
        with pytest.raises(ValueError):
            render_single(sil, z=z)


def test_render_rejects_wall_beyond_z_max():
    with pytest.raises(ValueError):
        scene.render(scene.Scene(scene.Background(5.0)), CFG)


def test_structured_background_box_depths():
    img = scene.render(scene.Scene(scene.default_background()), CFG)
    depths = set(np.unique(img.depth_m))
    assert depths == {1.5, 2.5, 3.2, 4.0}


def test_mirror_involution():
    sil = scene.generate_silhouettes(1, seed=6)[0]
    sc = scene.Scene(scene.default_background(),
                     [scene.Placement(sil, x=0.4, z=2.5)])
    twice = sc.mirror().mirror()
    a = scene.render(sc, CFG)
    b = scene.render(twice, CFG)
    assert np.array_equal(a.depth_m, b.depth_m)
    assert np.array_equal(a.reflectance, b.reflectance)


def test_mirrored_scene_renders_as_exact_flip():
    sil = scene.generate_silhouettes(1, seed=6)[0]
    sc = scene.Scene(scene.Background(),
                     [scene.Placement(sil, x=0.7, z=2.0)])
    a = scene.render(sc, CFG)
    b = scene.render(sc.mirror(), CFG)
    assert np.array_equal(b.depth_m, np.fliplr(a.depth_m))


# ---------------------------------------------------------------------------
# overlay

# a 0.3 m square: small enough to hide wholly behind the nearest default box
SMALL = scene.Silhouette(id=99, mask=np.ones((4, 4), dtype=bool), native_height_m=0.3)


def hidden_placement():
    """SMALL at 3.8 m, straight behind the center of the default 1.5 m box."""
    box = scene.default_background().objects[0]
    z = 3.8
    return scene.Placement(SMALL, x=box.x * z / box.z, y=box.y * z / box.z, z=z)


def test_placement_behind_a_closer_box_changes_nothing():
    sc = scene.Scene(scene.default_background(), [hidden_placement()])
    assert placement_footprint(sc.placements[0], CFG).any()
    backdrop = scene.render_background(sc.background, CFG)
    assert scene.render(sc, CFG, backdrop).overlay.pixels.size == 0


@given(drawn=scenes(), data=st.data())
def test_overlay_is_the_whole_frame_diff(drawn, data):
    # the drawn scene, sometimes with a placement wholly outside the frame
    # and one hidden behind a closer box, anywhere in the drawing order
    cfg, sc = drawn
    placements = list(sc.placements)
    for extra in (scene.Placement(SILHOUETTES[0], x=50.0, z=2.0), hidden_placement()):
        if data.draw(st.booleans()):
            placements.insert(data.draw(st.integers(0, len(placements))), extra)
    sc = scene.Scene(sc.background, placements)
    backdrop = scene.render_background(sc.background, cfg)
    img = scene.render(sc, cfg, backdrop)
    drawn = img.overlay
    assert drawn.backdrop is backdrop
    whole = serial_render(sc, cfg)
    changed = np.flatnonzero((whole.depth_m != backdrop.depth_m)
                             | (whole.reflectance != backdrop.reflectance))
    assert drawn.pixels.tobytes() == changed.tobytes()
    assert drawn.depth_m.tobytes() == whole.depth_m.ravel()[changed].tobytes()
    assert drawn.reflectance.tobytes() == whole.reflectance.ravel()[changed].tobytes()
    # the histogram from the overlay's pixels alone, with no frame diff
    h = forward.simulate_histogram(img, cfg, forward.backdrop_returns(backdrop, cfg))
    assert h.counts.tobytes() == lexsort_histogram(whole, cfg).tobytes()


def test_image_drawn_on_another_backdrop_is_compared_whole():
    # the image keeps its overlay on a bare wall; against the returns of the
    # boxed background the histogram must compute the whole image, not trust it
    cfg = SimConfig(img_w=24, img_h=16, bins=400)
    sc = scene.Scene(scene.Background(),
                     [scene.Placement(SILHOUETTES[1], x=0.2, z=2.0),
                      scene.Placement(SILHOUETTES[2], x=-0.3, z=1.2, mirrored=True)])
    img = scene.render(sc, cfg)
    other = scene.render_background(scene.default_background(), cfg)
    assert img.overlay.pixels.size
    h = forward.simulate_histogram(img, cfg, forward.backdrop_returns(other, cfg))
    assert h.counts.tobytes() == lexsort_histogram(serial_render(sc, cfg), cfg).tobytes()


def test_rendered_image_is_read_only():
    # a write into a render would leave its overlay, and so its cached
    # histogram, silently stale
    sc = scene.Scene(scene.default_background(), [scene.Placement(SILHOUETTES[0], z=2.0)])
    img = scene.render(sc, CFG)
    for values in (img.depth_m, img.reflectance):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.2
    assert img.depth_m.tobytes() == serial_render(sc, CFG).depth_m.tobytes()


def test_background_render_is_read_only():
    # backdrop_returns caches returns computed from this render, so a write
    # into it would leave every histogram merged onto it silently stale
    backdrop = scene.render_background(scene.default_background(), CFG)
    for values in (backdrop.depth_m, backdrop.reflectance):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 1.2


# ---------------------------------------------------------------------------
# augmentation


def test_augment_default_counts():
    sils = scene.generate_silhouettes(10, seed=0)
    scenes = scene.augment(sils, scene.default_background(), CFG)
    assert len(scenes) == 4000


def test_augment_minimal_product_is_mirror_pair():
    sils = scene.generate_silhouettes(1, seed=0)
    scenes = scene.augment(sils, scene.Background(), CFG,
                           depth_steps=1, lateral_steps=1)
    assert len(scenes) == 2
    assert scenes[0].placements[0].mirrored is False
    assert scenes[1].placements[0].mirrored is True


def test_augment_deterministic():
    sils = scene.generate_silhouettes(2, seed=3)
    a = scene.augment(sils, scene.default_background(), CFG, 3, 4)
    b = scene.augment(sils, scene.default_background(), CFG, 3, 4)
    assert len(a) == len(b) == 2 * 3 * 4 * 2
    for sa, sb in zip(a, b):
        pa, pb = sa.placements[0], sb.placements[0]
        assert (pa.x, pa.y, pa.z, pa.mirrored, pa.silhouette.id) == \
               (pb.x, pb.y, pb.z, pb.mirrored, pb.silhouette.id)


def test_augment_spans_depth_range():
    sils = scene.generate_silhouettes(1, seed=0)
    scenes = scene.augment(sils, scene.Background(), CFG)
    zs = sorted({s.placements[0].z for s in scenes})
    assert zs[0] == CFG.z_min and zs[-1] == CFG.z_max and len(zs) == 10


def test_augment_requires_silhouettes():
    with pytest.raises(ValueError):
        scene.augment([], scene.Background(), CFG)


@pytest.mark.parametrize("steps", ["depth_steps", "lateral_steps"])
def test_augment_refuses_an_empty_grid_naming_its_key(steps):
    sils = scene.generate_silhouettes(1, seed=0)
    with pytest.raises(ValueError, match=f"^{steps} must be an integer >= 1, got 0$"):
        scene.augment(sils, scene.Background(), CFG, **{steps: 0})


# ---------------------------------------------------------------------------
# normalization


def test_normalize_image_uniform_wall():
    img = scene.render(scene.Scene(scene.Background(4.0)), CFG)
    vec = scene.normalize_image(img, 4.0)
    assert vec.shape == (4096,)
    assert np.all(vec == 1.0)


def test_normalize_image_empty():
    img = scene.DepthImage(np.zeros((8, 8)), np.zeros((8, 8)))
    assert np.all(scene.normalize_image(img, 4.0) == 0.0)


def test_normalize_image_row_major_and_bounded():
    depth = np.zeros((8, 8))
    depth[0, 1] = 2.0
    img = scene.DepthImage(depth, np.ones((8, 8)))
    vec = scene.normalize_image(img, 4.0)
    assert vec[1] == 0.5
    assert vec.min() >= 0.0 and vec.max() <= 1.0


def test_normalize_image_validation():
    img = scene.DepthImage(np.full((8, 8), 2.0), np.ones((8, 8)))
    for z_max in (0.0, np.nan):
        with pytest.raises(ValueError, match="z_max must be finite and > 0"):
            scene.normalize_image(img, z_max)
    with pytest.raises(ValueError):
        scene.normalize_image(img, 1.0)  # depths exceed z_max


@pytest.mark.parametrize("depth", [0.0, -1.0, np.nan, np.inf])
def test_background_rejects_a_wall_depth_not_finite_and_positive(depth):
    with pytest.raises(ValueError, match="wall_depth_m must be finite and > 0"):
        scene.Background(wall_depth_m=depth)


def test_background_rejects_object_behind_wall():
    with pytest.raises(ValueError):
        scene.Background(wall_depth_m=4.0,
                         objects=[scene.Box(0.0, 0.0, 4.5, 1.0, 1.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_depth_image_rejects_non_finite_or_negative_depth(bad):
    depth = np.full((3, 4), 2.0)
    depth[1, 2] = bad
    with pytest.raises(ValueError, match="^depth values must be finite and >= 0$"):
        scene.DepthImage(depth, np.ones((3, 4)))


def test_depth_image_accepts_an_empty_grid():
    assert scene.DepthImage(np.zeros((0, 4)), np.zeros((0, 4))).depth_m.shape == (0, 4)
