import math
import re
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given
from hypothesis import strategies as st

from reference import dataset_records, lexsort_histogram, placement_footprint, serial_render
from test_simulate_properties import recipes
from tdi import forward, mlp, pipeline, scene


def test_recipe_scene_counts():
    assert pipeline.desk_recipe().n_scenes == 2000
    assert pipeline.paper_recipe().n_scenes == 4000
    assert pipeline.desk_recipe().sim.img_w == 32
    assert pipeline.paper_recipe().sim.bins == 8000


@pytest.mark.parametrize("field", ["n_silhouettes", "depth_steps", "lateral_steps"])
@pytest.mark.parametrize("value", [0, -1])
def test_recipe_rejects_an_empty_augmentation_grid(tiny_recipe, field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {value}"):
        replace(tiny_recipe, **{field: value})


def test_simulate_raw_deterministic(tiny_recipe):
    a = pipeline.simulate_raw(tiny_recipe)
    b = pipeline.simulate_raw(tiny_recipe)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.images, b.images)
    assert len(a) == tiny_recipe.n_scenes


def test_simulate_raw_error_names_scene(tiny_recipe, monkeypatch):
    # scene 11 places its silhouette past z_max, and the failure should say
    # which scene it was; a subset names the scene's index, not its row
    build = pipeline.build_scenes

    def with_a_far_scene(recipe):
        built = build(recipe)
        built[11].placements[0].z = recipe.sim.z_max + 1.0
        return built
    monkeypatch.setattr(pipeline, "build_scenes", with_a_far_scene)
    with pytest.raises(ValueError, match="^scene 11: placement depth 5.0 m outside"):
        pipeline.simulate_raw(tiny_recipe)
    with pytest.raises(ValueError, match="^scene 11: placement depth 5.0 m outside"):
        pipeline.simulate_raw(tiny_recipe, scenes=[3, 11])


def test_simulate_raw_subset_matches_full_rows(tiny_recipe):
    full = pipeline.simulate_raw(tiny_recipe)
    idx = np.array([7, 0, 23, 7])
    part = pipeline.simulate_raw(tiny_recipe, scenes=idx)
    assert np.array_equal(full.scenes, np.arange(tiny_recipe.n_scenes))
    assert np.array_equal(part.scenes, idx)
    assert part.counts.tobytes() == full.counts[idx].tobytes()
    assert part.images.tobytes() == full.images[idx].tobytes()
    taken = full.take(idx)
    assert np.array_equal(taken.scenes, idx)
    assert taken.counts.tobytes() == part.counts.tobytes()


def test_simulate_raw_matches_serial_reference(tiny_recipe):
    # every scene rendered whole and summed in (bin, value) order by np.add.at
    cfg = tiny_recipe.sim
    built = pipeline.build_scenes(tiny_recipe)
    # the outermost lateral positions put half a silhouette past the frame
    assert any(placement_footprint(sc.placements[0], cfg)[:, [0, -1]].any()
               for sc in built)
    imgs = [serial_render(sc, cfg) for sc in built]
    for sc, img in zip(built, imgs):
        mine = scene.render(sc, cfg)
        assert mine.depth_m.tobytes() == img.depth_m.tobytes()
        assert mine.reflectance.tobytes() == img.reflectance.tobytes()
    raw = pipeline.simulate_raw(tiny_recipe)
    assert raw.counts.tobytes() == np.array([lexsort_histogram(i, cfg) for i in imgs]).tobytes()
    assert raw.images.tobytes() == \
        np.array([scene.normalize_image(i, cfg.z_max) for i in imgs]).tobytes()


def test_finalize_matches_serial_loop(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    cfg = tiny_recipe.sim
    rows = []
    for counts, index in zip(raw.counts, raw.scenes):
        h = forward.convolve_irf(forward.Histogram(cfg.bin_width_s, counts), 250e-12)
        h = forward.add_noise(h, 2, seed=(cfg.seed, pipeline.NOISE_STREAM, int(index)))
        rows.append(forward.normalize_histogram(h))
    ds = pipeline.finalize(raw, irf_dt_s=250e-12, noise_level=2)
    assert ds.histograms.tobytes() == np.array(rows, dtype=np.float32).tobytes()
    assert ds.images.tobytes() == raw.images.astype(np.float32).tobytes()


def test_raw_backdrop_counts_are_the_bare_background_histogram(tiny_recipe):
    cfg = tiny_recipe.sim
    raw = pipeline.simulate_raw(tiny_recipe, scenes=[7, 0, 23])
    background = pipeline.build_scenes(tiny_recipe)[0].background
    bare = forward.simulate_histogram(scene.render_background(background, cfg), cfg)
    assert bare.counts.any()
    assert raw.backdrop.counts.tobytes() == bare.counts.tobytes()
    assert raw.take([2, 2]).backdrop.counts.tobytes() == bare.counts.tobytes()


def corner_background(cfg, box_z=3.0):
    """A wall seen only at the top-left pixel, two boxes at box_z hiding the rest."""
    step = box_z / cfg.focal_px             # one pixel at the boxes' depth
    u = scene.pixel_offsets(cfg.img_w)[0]   # the first column's offset
    wide, tall = cfg.img_w * step, cfg.img_h * step
    return scene.Background(wall_depth_m=4.0, objects=[
        scene.Box(x=0.5 * step, y=0.0, z=box_z, width=wide - step, height=2 * tall),
        scene.Box(x=u * step, y=-0.5 * step, z=box_z, width=step, height=tall - step)])


@pytest.mark.parametrize("case", ["wall_past_z_max", "wall_past_the_span",
                                  "corner_past_the_span"])
def test_background_that_cannot_be_simulated_fails_before_any_scene(tiny_recipe, monkeypatch,
                                                                    case):
    sim = tiny_recipe.sim
    if case == "wall_past_z_max":   # the 4 m wall lies past a 2 m z_max
        bad = replace(tiny_recipe, sim=sim.with_(z_max=2.0))
        error = "wall depth 4.0 m exceeds z_max 2.0 m"
    else:   # at the same bin width, fewer bins end the span between the wall's
        # centre (4 m) and its corners; the corner background shows only one
        bad = replace(tiny_recipe, sim=sim.with_(bins=330, bin_width_s=sim.bin_width_s),
                      background="structured" if case == "wall_past_the_span" else "uniform")
        error = "return from depth 4.0000 m"
    corner = scene.render_background(corner_background(sim), sim)
    assert np.flatnonzero(corner.depth_m.ravel() == 4.0).tolist() == [0]
    monkeypatch.setitem(pipeline.BACKGROUNDS, "uniform", lambda: corner_background(sim))

    def no_scene(*args):
        raise AssertionError("a scene was drawn")
    monkeypatch.setattr(scene, "render", no_scene)
    for make in (pipeline.simulate_raw, lambda r: pipeline.simulate_raw(r, scenes=[11, 3]),
                 pipeline.generate_dataset):
        with pytest.raises(ValueError, match=f"^background: {re.escape(error)}") as failed:
            make(bad)
        assert isinstance(failed.value, forward.SpanError) == (case != "wall_past_z_max")


@pytest.fixture
def chunks(monkeypatch):
    """Split finalize's rows into `n` chunks, whatever the histogram length or core count."""
    def use(n):
        monkeypatch.setattr(pipeline, "_THREADED_MIN_BINS", 0)
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: n)
    return use


def test_pooled_rows_match_inline_rows(tiny_recipe, chunks):
    raw = pipeline.simulate_raw(tiny_recipe)
    chunks(1)
    inline = pipeline.finalize(raw, irf_dt_s=250e-12, noise_level=2)
    chunks(3)   # more threads than most hosts have cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = pipeline.finalize(raw, irf_dt_s=250e-12, noise_level=2)
    finally:
        sys.setswitchinterval(interval)
    assert pooled.histograms.tobytes() == inline.histograms.tobytes()
    assert pooled.images.tobytes() == inline.images.tobytes()


def test_first_failing_row_wins_across_chunks(tiny_recipe, chunks):
    # two chunks of 24 rows; the second fails on its first row, before the
    # first chunk reaches its last row, yet the error names the lower scene
    # (noise on: rows that are only normalized do not run threaded)
    raw = pipeline.simulate_raw(tiny_recipe)
    raw.counts[[23, 24, 40], 5] = np.nan
    chunks(2)
    with pytest.raises(ValueError, match="^scene 23: counts must be finite"):
        pipeline.finalize(raw, noise_level=1)


def test_unexpected_error_in_a_row_propagates_unchanged(tiny_recipe, chunks, monkeypatch):
    bug = TypeError("a bug, not a bad scene")
    add_noise = forward.add_noise

    def flaky(h, level, seed):
        if seed[2] in (30, 31):
            raise bug
        return add_noise(h, level, seed)

    raw = pipeline.simulate_raw(tiny_recipe)
    chunks(2)
    monkeypatch.setattr(forward, "add_noise", flaky)
    with pytest.raises(TypeError) as caught:
        pipeline.finalize(raw, noise_level=1)
    assert caught.value is bug


def test_threaded_finalize_leaves_no_thread_behind(tiny_recipe, chunks):
    # the pool lives only for the call, whether it returns or a row raises
    raw = pipeline.simulate_raw(tiny_recipe)
    chunks(3)
    before = threading.active_count()
    pipeline.finalize(raw, noise_level=1)
    assert threading.active_count() == before
    raw.counts[30, 5] = np.nan
    with pytest.raises(ValueError, match="^scene 30: counts must be finite"):
        pipeline.finalize(raw, noise_level=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("scenes", [[-1], [48], [[0, 1]]])
def test_simulate_raw_rejects_bad_scene_indices(tiny_recipe, scenes):
    with pytest.raises(ValueError, match="indices in"):
        pipeline.simulate_raw(tiny_recipe, scenes=scenes)


@given(recipe=recipes(), irf=st.booleans(), noise=st.integers(0, 3),
       block=st.integers(1, 30), cores=st.integers(1, 5))
def test_generate_dataset_equals_finalize_of_simulate_raw(recipe, irf, noise, block, cores):
    # 4 to 24 scenes: blocks that divide the rows, that do not, and one
    # block larger than all of them; every block finalized on 1 to 5 threads
    recipe = replace(recipe, sim=recipe.sim.with_(irf_dt_s=250e-12 if irf else 0.0,
                                                  noise_level=noise))
    expected = pipeline.finalize(pipeline.simulate_raw(recipe))
    with mock.patch.object(pipeline, "_BLOCK_ROWS", block), \
            mock.patch.object(pipeline, "_THREADED_MIN_BINS", 0), \
            mock.patch.object(pipeline, "_usable_cores", lambda: cores):
        ds = pipeline.generate_dataset(recipe)
    assert (ds.img_w, ds.img_h) == (expected.img_w, expected.img_h)
    assert ds.histograms.tobytes() == expected.histograms.tobytes()
    assert ds.images.tobytes() == expected.images.tobytes()


def test_finalized_pairs_are_views_of_one_record_array(tiny_recipe):
    # both paths write each pair into its record; nothing is copied afterwards
    for ds in (pipeline.finalize(pipeline.simulate_raw(tiny_recipe)),
               pipeline.generate_dataset(tiny_recipe)):
        assert ds.records.flags.c_contiguous and ds.records.flags.owndata
        assert ds.histograms.base is ds.records and ds.images.base is ds.records
        assert ds.records.tobytes() == dataset_records(ds.histograms, ds.images).tobytes()


def test_generate_dataset_holds_one_block_not_the_raw_set(traced_peak, monkeypatch):
    # 400 scenes of one silhouette in 25 blocks, so the rows outweigh what
    # building the scenes allocates on the way
    sim = pipeline.desk_sim(seed=5).with_(img_w=16, img_h=16, bins=2000)
    recipe = pipeline.DatasetRecipe(sim=sim, n_silhouettes=1, depth_steps=10,
                                    lateral_steps=20)
    monkeypatch.setattr(pipeline, "_BLOCK_ROWS", 16)
    dataset = recipe.n_scenes * (sim.bins + sim.img_w * sim.img_h) * 4
    two_blocks = 2 * 16 * sim.bins * 8
    pipeline.build_scenes(recipe)   # so one-time caches do not count as the scene list
    tracemalloc.start()
    try:
        scenes = pipeline.build_scenes(recipe)
        scene_list = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del scenes
    bound = dataset + two_blocks + scene_list
    assert traced_peak(lambda: pipeline.generate_dataset(recipe)) < bound
    # the two-step path holds the float64 raw set as well
    assert traced_peak(lambda: pipeline.finalize(pipeline.simulate_raw(recipe))) > bound


def _with_seed(recipe, seed, **kw):
    return replace(recipe, sim=recipe.sim.with_(seed=seed), **kw)


def test_noise_streams_differ_across_seed_and_scene(tiny_recipe):
    # one histogram, keyed as scene i+1 at seed s and as scene i at seed s+1;
    # `seed + index` seeding gave both the same noise
    raw = pipeline.simulate_raw(tiny_recipe, scenes=[0])
    seed = tiny_recipe.sim.seed

    def noisy(s, index):
        keyed = replace(raw, recipe=_with_seed(tiny_recipe, s), scenes=np.array([index]))
        return pipeline.finalize(keyed, noise_level=2).histograms[0]

    assert np.array_equal(noisy(seed, 4), noisy(seed, 4))
    assert not np.array_equal(noisy(seed, 4), noisy(seed + 1, 3))


def test_reflectivity_streams_differ_across_seed_and_scene(tiny_recipe):
    def draws(seed):
        recipe = _with_seed(tiny_recipe, seed, reflectivity_range=(0.25, 4.0))
        return np.array([s.placements[0].reflectivity for s in pipeline.build_scenes(recipe)])

    a, b = draws(5), draws(6)
    assert (a[1:] != b[:-1]).all()


def test_finalize_normalizes(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    ds = pipeline.finalize(raw)
    assert ds.histograms.min() >= 0.0 and ds.histograms.max() <= 1.0
    assert np.isclose(ds.histograms.max(axis=1), 1.0).all()
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_finalize_irf_and_noise_deterministic(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    a = pipeline.finalize(raw, irf_dt_s=50e-12, noise_level=2)
    b = pipeline.finalize(raw, irf_dt_s=50e-12, noise_level=2)
    assert np.array_equal(a.histograms, b.histograms)
    clean = pipeline.finalize(raw)
    assert not np.array_equal(a.histograms, clean.histograms)


def test_split_dataset_disjoint_and_deterministic(tiny_recipe):
    ds = pipeline.finalize(pipeline.simulate_raw(tiny_recipe))
    (x_tr, y_tr), (x_te, y_te) = pipeline.split_dataset(ds, 8, seed=3)
    assert x_tr.shape[0] == len(ds) - 8 and x_te.shape[0] == 8
    (x_tr2, _), (x_te2, _) = pipeline.split_dataset(ds, 8, seed=3)
    assert np.array_equal(x_tr, x_tr2) and np.array_equal(x_te, x_te2)
    with pytest.raises(ValueError):
        pipeline.split_dataset(ds, len(ds), seed=0)


def test_reflectivity_range_log_uniform(tiny_recipe):
    recipe = replace(tiny_recipe, reflectivity_range=(0.25, 4.0))
    scenes = pipeline.build_scenes(recipe)
    values = np.array([s.placements[0].reflectivity for s in scenes])
    assert values.min() >= 0.25 and values.max() <= 4.0
    assert len(np.unique(values)) > len(values) // 2
    # log-space sampling puts about half the draws below the geometric mean
    frac_below = (values < 1.0).mean()
    assert 0.3 < frac_below < 0.7


def test_evaluate_model_shapes(tiny_recipe):
    ds = pipeline.finalize(pipeline.simulate_raw(tiny_recipe))
    (x_tr, y_tr), (x_te, y_te) = pipeline.split_dataset(ds, 6, seed=1)
    model = mlp.init_model([ds.bins, 16, ds.img_w * ds.img_h], seed=0)
    per, overall = pipeline.evaluate_model(model, x_te, y_te, ds.img_w, ds.img_h)
    assert per.shape == (6,)
    assert overall == pytest.approx(per.mean())


def test_evaluate_model_names_mismatched_sizes(tiny_recipe):
    ds = pipeline.finalize(pipeline.simulate_raw(tiny_recipe))
    x, y = ds.histograms[:4], ds.images[:4]
    narrow = mlp.init_model([ds.bins, 8, 16], seed=0)
    with pytest.raises(ValueError, match=re.escape(
            f"model outputs 16 pixels, images are {ds.img_w} x {ds.img_h} = "
            f"{ds.img_w * ds.img_h} pixels, y rows hold {y.shape[1]}")):
        pipeline.evaluate_model(narrow, x, y, ds.img_w, ds.img_h)
    model = mlp.init_model([ds.bins, 8, ds.img_w * ds.img_h], seed=0)
    with pytest.raises(ValueError, match="y rows hold 16"):
        pipeline.evaluate_model(model, x, y[:, :16], ds.img_w, ds.img_h)
    with pytest.raises(ValueError, match="4 histograms but 3 images"):
        pipeline.evaluate_model(model, x, y[:3], ds.img_w, ds.img_h)


def test_sweep_records_failures_and_continues(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    points = pipeline.sweep_dataset_size(raw, tc, n_test=8, sizes=(16, 10_000))
    assert points[0].mean_ssim is not None
    assert points[1].mean_ssim is None and "10000" in points[1].error
    assert [p.label for p in points] == ["16", "10000"]


def test_sweep_irf_records_a_nonfinite_width_by_its_key(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    points = pipeline.sweep_irf(raw, tc, n_test=8, dts=(math.inf, math.nan))
    assert [p.error for p in points] == [
        "ValueError: irf_dt_s must be finite and >= 0, got inf",
        "ValueError: irf_dt_s must be finite and >= 0, got nan"]
    with pytest.raises(ValueError, match="^noise_level must be an integer in 0..3, got 4$"):
        pipeline.finalize(raw, noise_level=4)


@pytest.mark.parametrize("level", [0, 2])
def test_sweep_noise_matches_finalize(tiny_recipe, level):
    # clean training, then the held-out rows of finalize(raw, noise_level=level)
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=2, batch_size=8, seed=0)
    points = pipeline.sweep_noise(raw, tc, n_test=8, levels=(level,))
    seed = tiny_recipe.sim.seed
    train_pairs, _ = pipeline.split_dataset(pipeline.finalize(raw), 8, seed)
    model, _ = mlp.train(train_pairs, tc)
    noisy = pipeline.finalize(raw, noise_level=level)
    _, test_pairs = pipeline.split_dataset(noisy, 8, seed)
    _, overall = pipeline.evaluate_model(model, test_pairs[0], test_pairs[1],
                                         noisy.img_w, noisy.img_h)
    assert points[0].mean_ssim == overall


@pytest.mark.parametrize("name", ["irf", "dataset_size"])
def test_sweep_matches_finalize_all_then_split(tiny_recipe, name):
    # each point scores as if every row were finalized and then split
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=2, batch_size=8, seed=0)
    seed = tiny_recipe.sim.seed
    if name == "irf":
        dts = (0.0, 250e-12)
        points = pipeline.sweep_irf(raw, tc, n_test=8, dts=dts)
        splits = [pipeline.split_dataset(pipeline.finalize(raw, irf_dt_s=dt), 8, seed)
                  for dt in dts]
    else:
        sizes = (16, 24)
        points = pipeline.sweep_dataset_size(raw, tc, n_test=8, sizes=sizes)
        train_pairs, test_pairs = pipeline.split_dataset(pipeline.finalize(raw), 8, seed)
        splits = [((train_pairs[0][:size], train_pairs[1][:size]), test_pairs)
                  for size in sizes]
    cfg = tiny_recipe.sim
    for point, (train_pairs, test_pairs) in zip(points, splits):
        model, _ = mlp.train(train_pairs, tc)
        _, overall = pipeline.evaluate_model(model, *test_pairs, cfg.img_w, cfg.img_h)
        assert point.mean_ssim == overall


def test_sweep_reflectivity_modes(tiny_recipe):
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    fixed = pipeline.sweep_reflectivity(tiny_recipe, tc, n_test=8, ratios=(1.0,),
                                        training="fixed")
    assert fixed[0].label == "R1" and fixed[0].mean_ssim is not None
    with pytest.raises(ValueError):
        pipeline.sweep_reflectivity(tiny_recipe, tc, 8, training="sometimes")


@pytest.mark.parametrize("training", ["fixed", "varied"])
def test_sweep_reflectivity_renders_each_used_scene_once(tiny_recipe, monkeypatch,
                                                         training):
    # the training scenes once, then the n_test held-out scenes per ratio
    calls = []
    render = scene.render
    monkeypatch.setattr(scene, "render", lambda *a: calls.append(1) or render(*a))
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    ratios = (0.5, 1.0, 2.0)
    points = pipeline.sweep_reflectivity(tiny_recipe, tc, n_test=8, ratios=ratios,
                                         training=training)
    assert all(p.mean_ssim is not None for p in points)
    assert len(calls) == (tiny_recipe.n_scenes - 8) + len(ratios) * 8


def run_sweep(name, recipe, tc):
    """One point of the named sweep on the tiny recipe."""
    if name == "reflectivity":
        return pipeline.sweep_reflectivity(recipe, tc, 8, ratios=(1.0,))
    raw = pipeline.simulate_raw(recipe)
    if name == "irf":
        return pipeline.sweep_irf(raw, tc, 8, dts=(250e-12,))
    if name == "noise":
        return pipeline.sweep_noise(raw, tc, 8, levels=(1,))
    return pipeline.sweep_dataset_size(raw, tc, 8, sizes=(16,))


SWEEPS = ("irf", "noise", "dataset_size", "reflectivity")


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_records_expected_failure(tiny_recipe, monkeypatch, name):
    def diverge(*args, **kwargs):
        raise mlp.TrainingDivergedError("nonfinite gradient")
    monkeypatch.setattr(pipeline, "evaluate_model", diverge)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    points = run_sweep(name, tiny_recipe, tc)
    assert len(points) == 1
    assert points[0].mean_ssim is None and points[0].error == "TrainingDivergedError: nonfinite gradient"


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_propagates_unexpected_error(tiny_recipe, monkeypatch, name):
    def bug(*args, **kwargs):
        raise TypeError("a bug, not a failed point")
    monkeypatch.setattr(pipeline, "evaluate_model", bug)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(name, tiny_recipe, tc)
