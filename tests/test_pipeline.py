import numpy as np
import pytest
from dataclasses import replace

from tdi import mlp, pipeline


def test_recipe_scene_counts():
    assert pipeline.desk_recipe().n_scenes == 2000
    assert pipeline.paper_recipe().n_scenes == 4000
    assert pipeline.desk_recipe().sim.img_w == 32
    assert pipeline.paper_recipe().sim.bins == 8000


def test_simulate_raw_deterministic(tiny_recipe):
    a = pipeline.simulate_raw(tiny_recipe)
    b = pipeline.simulate_raw(tiny_recipe)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.images, b.images)
    assert len(a) == tiny_recipe.n_scenes


def test_simulate_raw_error_names_scene(tiny_recipe):
    # wall at 4 m no longer fits when z_max shrinks, and the failure should
    # say which scene hit it
    bad = replace(tiny_recipe, sim=tiny_recipe.sim.with_(z_max=2.0))
    with pytest.raises(ValueError, match="scene 0"):
        pipeline.simulate_raw(bad)


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


def test_sweep_records_failures_and_continues(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    points = pipeline.sweep_dataset_size(raw, tc, n_test=8, sizes=(16, 10_000))
    assert points[0].mean_ssim is not None
    assert points[1].mean_ssim is None and "10000" in points[1].error
    assert [p.label for p in points] == ["16", "10000"]


def test_sweep_noise_level_zero_matches_clean_training(tiny_recipe):
    raw = pipeline.simulate_raw(tiny_recipe)
    tc = mlp.TrainConfig(epochs=2, batch_size=8, seed=0)
    points = pipeline.sweep_noise(raw, tc, n_test=8, levels=(0,))
    ds = pipeline.finalize(raw)
    train_pairs, test_pairs = pipeline.split_dataset(ds, 8, tiny_recipe.sim.seed)
    model, _ = mlp.train(train_pairs, tc)
    _, overall = pipeline.evaluate_model(model, test_pairs[0], test_pairs[1],
                                         ds.img_w, ds.img_h)
    assert points[0].mean_ssim == pytest.approx(overall, abs=1e-12)


def test_sweep_reflectivity_modes(tiny_recipe):
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    fixed = pipeline.sweep_reflectivity(tiny_recipe, tc, n_test=8, ratios=(1.0,),
                                        training="fixed")
    assert fixed[0].label == "R1" and fixed[0].mean_ssim is not None
    with pytest.raises(ValueError):
        pipeline.sweep_reflectivity(tiny_recipe, tc, 8, training="sometimes")


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
    assert points[0].mean_ssim is None and points[0].error == "nonfinite gradient"


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_propagates_unexpected_error(tiny_recipe, monkeypatch, name):
    def bug(*args, **kwargs):
        raise TypeError("a bug, not a failed point")
    monkeypatch.setattr(pipeline, "evaluate_model", bug)
    tc = mlp.TrainConfig(epochs=1, batch_size=8, seed=0)
    with pytest.raises(TypeError, match="a bug"):
        run_sweep(name, tiny_recipe, tc)
