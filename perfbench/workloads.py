"""The benchmark's workloads, driven through tdi's public API as the CLI drives it.

Each workload makes its inputs from the seed in `setup`, does the timed work
once per `run_round`, and verifies that round's outputs in `check`. Sizes are
dataclass fields so the self-test can run the same code at tiny sizes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from tdi import forward, mlp, pipeline, scene, store

IRF_250PS = 250e-12
# Largest difference allowed between a single `predict` and the same row of
# a batched `mlp.forward`, in normalized depth: the two sum 8000 float32
# products in different orders.
PREDICT_ATOL = 1e-4


class Checks:
    """Correctness checks; each one is an operation counted toward fail_rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []          # first few descriptions, for the report

    def expect(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool).ravel()
        bad = int(ok.size - ok.sum())
        self.attempted += ok.size
        self.failed += bad
        if bad and len(self.failures) < 10:
            self.failures.append(f"{what} ({bad} of {ok.size})")


@dataclass
class Round:
    wall_s: float
    stats: dict                      # this round's stage rates and scores
    outputs: dict = field(repr=False)


def sim_config(seed: int, img: int, bins: int, **kw):
    return pipeline.paper_sim(seed).with_(img_w=img, img_h=img, bins=bins, **kw)


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _datasets_equal(a: store.Dataset, b: store.Dataset) -> bool:
    return (a.img_w, a.img_h) == (b.img_w, b.img_h) and \
        _bits_equal(a.histograms, b.histograms) and _bits_equal(a.images, b.images)


def train_samples(n_pairs: int, config: mlp.TrainConfig) -> int:
    """Samples `mlp.train` pushes through its steps: every epoch, minus the validation tail."""
    n_val = min(int(round(config.validation_fraction * n_pairs)), n_pairs - 1)
    return config.epochs * (n_pairs - n_val)


def expect_same_score(state: dict, rnd: Round, checks: Checks) -> None:
    """Every round repeats the same seeded inputs, so it must score the same."""
    first = state.setdefault("first_mean_ssim", rnd.stats["mean_ssim"])
    checks.expect(rnd.stats["mean_ssim"] == first, "mean_ssim repeats across rounds")


def expected_photon_totals(images: np.ndarray, cfg) -> np.ndarray:
    """Per-scene sum of p0 / r^4 over returning pixels, from normalized images.

    Reflectivity 1 everywhere; depth = image * z_max; r from the pinhole
    geometry (pixel offset / focal length scales the depth laterally).
    """
    depth = images.reshape(-1, cfg.img_h, cfg.img_w) * cfg.z_max
    u = scene.pixel_offsets(cfg.img_w) / cfg.focal_px
    v = scene.pixel_offsets(cfg.img_h) / cfg.focal_px
    r2 = depth ** 2 * (1.0 + u[None, None, :] ** 2 + v[None, :, None] ** 2)
    with np.errstate(divide="ignore"):
        photons = np.where(depth > 0, cfg.p0 / (r2 * r2), 0.0)
    return photons.sum(axis=(1, 2))


@dataclass
class Simulate:
    """scene -> forward -> finalize -> store: every scene simulated once and written."""

    name = "simulate"
    stages = ("gen_pairs_per_s",)
    img: int = 64
    bins: int = 8000
    n_silhouettes: int = 2          # x 10 depths x 20 positions x 2 mirrors = 800 scenes
    depth_steps: int = 10
    lateral_steps: int = 20

    def setup(self, seed: int, workdir: str) -> dict:
        # IRF and noise both on, so both finalize branches run.
        sim = sim_config(seed, self.img, self.bins, irf_dt_s=IRF_250PS, noise_level=2)
        recipe = pipeline.DatasetRecipe(sim=sim, n_silhouettes=self.n_silhouettes,
                                        depth_steps=self.depth_steps,
                                        lateral_steps=self.lateral_steps)
        pipeline.build_scenes(recipe)
        return {"recipe": recipe, "path": os.path.join(workdir, "simulate.tdid")}

    def prepare(self, state: dict) -> None:
        pass

    def sizes(self, state: dict) -> dict:
        sim = state["recipe"].sim
        return {"scenes": state["recipe"].n_scenes, "img": f"{sim.img_w}x{sim.img_h}",
                "bins": sim.bins, "irf_dt_s": sim.irf_dt_s, "noise_level": sim.noise_level}

    def run_round(self, state: dict) -> Round:
        start = time.perf_counter()
        raw = pipeline.simulate_raw(state["recipe"])
        ds = pipeline.finalize(raw)
        store.write_dataset(state["path"], ds)
        back = store.read_dataset(state["path"])
        wall = time.perf_counter() - start
        return Round(wall, {"gen_pairs_per_s": len(raw) / wall},
                     {"raw": raw, "ds": ds, "back": back})

    def check(self, state: dict, rnd: Round, checks: Checks) -> None:
        raw, ds = rnd.outputs["raw"], rnd.outputs["ds"]
        expected = expected_photon_totals(raw.images, raw.recipe.sim)
        actual = raw.counts.sum(axis=1)
        checks.expect(np.abs(actual - expected) <= 1e-9 * expected, "photon total")
        h = ds.histograms
        checks.expect((h.min(axis=1) >= 0) & (h.max(axis=1) == 1), "finalized row range")
        checks.expect(_datasets_equal(ds, rnd.outputs["back"]), "dataset round trip")


@dataclass
class Learn:
    """read -> split -> train -> model round trip -> evaluate -> single predicts."""

    name = "learn"
    stages = ("train_samples_per_s", "eval_pairs_per_s", "predict_requests",
              "predict_p50_ms", "predict_p99_ms", "mean_ssim")
    img: int = 64
    bins: int = 8000
    n_silhouettes: int = 3          # 1200 pairs: 1000 to train, 200 held out
    depth_steps: int = 10
    lateral_steps: int = 20
    n_test: int = 200
    epochs: int = 1
    batch_size: int = 64
    predict_calls: int = 1000

    def setup(self, seed: int, workdir: str) -> dict:
        recipe = pipeline.DatasetRecipe(sim=sim_config(seed, self.img, self.bins),
                                        n_silhouettes=self.n_silhouettes,
                                        depth_steps=self.depth_steps,
                                        lateral_steps=self.lateral_steps)
        ds = pipeline.generate_dataset(recipe)
        path = os.path.join(workdir, "learn.tdid")
        store.write_dataset(path, ds)
        return {"recipe": recipe, "dataset": ds, "path": path,
                "model_path": os.path.join(workdir, "learn.tdim"),
                "train_cfg": mlp.TrainConfig(batch_size=self.batch_size,
                                             epochs=self.epochs, seed=seed)}

    def prepare(self, state: dict) -> None:
        """Score an untrained model on the held-out pairs, for the learning check."""
        ds, sim = state["dataset"], state["recipe"].sim
        _, (x_test, y_test) = pipeline.split_dataset(ds, self.n_test, sim.seed)
        untrained = mlp.init_model([ds.bins, *mlp.DEFAULT_HIDDEN, ds.img_w * ds.img_h],
                                   state["train_cfg"].seed)
        _, state["untrained_ssim"] = pipeline.evaluate_model(
            untrained, x_test, y_test, ds.img_w, ds.img_h)

    def sizes(self, state: dict) -> dict:
        sim, tc = state["recipe"].sim, state["train_cfg"]
        dims = [sim.bins, *mlp.DEFAULT_HIDDEN, sim.img_w * sim.img_h]
        return {"pairs": state["recipe"].n_scenes, "n_test": self.n_test,
                "img": f"{sim.img_w}x{sim.img_h}", "bins": sim.bins,
                "epochs": tc.epochs, "batch_size": tc.batch_size,
                "predict_calls": self.predict_calls, **model_size(dims)}

    def run_round(self, state: dict) -> Round:
        sim, tc = state["recipe"].sim, state["train_cfg"]
        start = time.perf_counter()
        ds = store.read_dataset(state["path"])
        train_pairs, (x_test, y_test) = pipeline.split_dataset(ds, self.n_test, sim.seed)
        t_train = time.perf_counter()
        model, _ = mlp.train(train_pairs, tc)
        train_s = time.perf_counter() - t_train
        store.write_model(state["model_path"], model)
        served = store.read_model(state["model_path"])
        t_eval = time.perf_counter()
        _, mean_ssim = pipeline.evaluate_model(served, x_test, y_test, ds.img_w, ds.img_h)
        eval_s = time.perf_counter() - t_eval
        requests = [forward.Histogram(sim.bin_width_s, x) for x in x_test]
        latencies, depths = [], []
        for i in range(self.predict_calls):
            t = time.perf_counter()
            img = mlp.predict(served, requests[i % len(requests)], sim)
            latencies.append(time.perf_counter() - t)
            depths.append(img.depth_m)
        wall = time.perf_counter() - start
        samples = train_samples(len(train_pairs[0]), tc)
        return Round(wall, {"train_samples_per_s": samples / train_s,
                            "eval_pairs_per_s": len(x_test) / eval_s,
                            "predict_latencies_s": latencies,
                            "mean_ssim": mean_ssim},
                     {"dataset": ds, "model": model, "served": served,
                      "x_test": x_test, "depths": depths})

    def check(self, state: dict, rnd: Round, checks: Checks) -> None:
        out, sim = rnd.outputs, state["recipe"].sim
        checks.expect(_datasets_equal(out["dataset"], state["dataset"]), "dataset round trip")
        model, served = out["model"], out["served"]
        checks.expect(all(_bits_equal(a, b) for a, b in
                          zip(model.weights + model.biases, served.weights + served.biases))
                      and len(model.weights) == len(served.weights), "model round trip")
        x_test = out["x_test"]
        batched = np.clip(mlp.forward(served, x_test.astype(served.dtype)), 0.0, 1.0)
        for i, depth in enumerate(out["depths"]):
            row = batched[i % len(x_test)].reshape(sim.img_h, sim.img_w)
            checks.expect(np.abs(depth / sim.z_max - row).max() <= PREDICT_ATOL,
                          "predict matches batched forward")
        checks.expect(rnd.stats["mean_ssim"] > state["untrained_ssim"],
                      "trained model beats untrained")
        expect_same_score(state, rnd, checks)


@dataclass
class Sweep:
    """One simulate_raw, then the IRF, noise and fixed-training reflectivity sweeps."""

    name = "sweep"
    stages = ("sweep_points_per_s", "mean_ssim")
    img: int = 32
    bins: int = 2000
    n_silhouettes: int = 1          # 400 scenes: 300 to train, 100 scored per point
    depth_steps: int = 10
    lateral_steps: int = 20
    n_test: int = 100
    epochs: int = 1
    batch_size: int = 64

    def setup(self, seed: int, workdir: str) -> dict:
        recipe = pipeline.DatasetRecipe(sim=sim_config(seed, self.img, self.bins),
                                        n_silhouettes=self.n_silhouettes,
                                        depth_steps=self.depth_steps,
                                        lateral_steps=self.lateral_steps)
        pipeline.build_scenes(recipe)
        return {"recipe": recipe,
                "train_cfg": mlp.TrainConfig(batch_size=self.batch_size,
                                             epochs=self.epochs, seed=seed)}

    def prepare(self, state: dict) -> None:
        pass

    def sizes(self, state: dict) -> dict:
        sim, tc = state["recipe"].sim, state["train_cfg"]
        dims = [sim.bins, *mlp.DEFAULT_HIDDEN, sim.img_w * sim.img_h]
        return {"scenes": state["recipe"].n_scenes, "n_test": self.n_test,
                "img": f"{sim.img_w}x{sim.img_h}", "bins": sim.bins,
                "epochs": tc.epochs, "batch_size": tc.batch_size, **model_size(dims)}

    def run_round(self, state: dict) -> Round:
        recipe, tc = state["recipe"], state["train_cfg"]
        start = time.perf_counter()
        raw = pipeline.simulate_raw(recipe)
        points = (pipeline.sweep_irf(raw, tc, self.n_test)
                  + pipeline.sweep_noise(raw, tc, self.n_test)
                  + pipeline.sweep_reflectivity(recipe, tc, self.n_test, training="fixed"))
        wall = time.perf_counter() - start
        scores = [p.mean_ssim for p in points if p.mean_ssim is not None]
        return Round(wall, {"sweep_points_per_s": len(points) / wall,
                            "mean_ssim": float(np.mean(scores)) if scores else float("nan"),
                            # every scene is either trained on or scored
                            "scenes_used": recipe.n_scenes},
                     {"points": points})

    def check(self, state: dict, rnd: Round, checks: Checks) -> None:
        for p in rnd.outputs["points"]:
            checks.expect(p.mean_ssim is not None and np.isfinite(p.mean_ssim),
                          f"sweep point {p.label} finite ({p.error or 'no error'})")
        expect_same_score(state, rnd, checks)


def model_size(dims) -> dict:
    """Parameter count and the bytes of one float32 parameter-sized array."""
    params = sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    return {"model_params": params, "model_mb_per_array": params * 4 / 1e6}


WORKLOADS = {w.name: w for w in (Simulate, Learn, Sweep)}
