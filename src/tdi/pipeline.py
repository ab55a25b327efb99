"""End-to-end pipeline: scenes -> histogram/image pairs -> training -> SSIM.

This module holds the machinery shared by the command-line driver, the demo
scripts, and the study sweeps. Histograms are kept in raw (expected-count)
form as long as possible so the same simulated scenes can be re-finalized
under different IRF widths or noise levels without re-rendering. Rows keep
their scene index, which keys every per-scene random draw, so a subset of
scenes simulates and finalizes to the same bits as those rows of the whole set.
Each scene is drawn on a background rendered once per call, and its histogram
recomputes only the pixels where the scene differs from that background
(`forward.simulate_histogram`). A background that cannot be
simulated, such as one whose returns arrive past the histogram span, fails
once, before any scene, with an error prefixed `background: `. The
background travels with the rows (`RawDataset.backdrop`), so the IRF blurs
its counts once per `finalize` call and each row recomputes only the runs
of bins where it differs from them, to the bytes of the whole-row blur.
The per-scene rows of `finalize` run on all usable cores when histograms
are long and get an IRF or noise; each row's bits do not depend on how
many cores there are.
Both finalizing paths write each pair into its row of the dataset's records.
`generate_dataset` works one block of rows at a time, so its peak is the
float32 records plus one float64 counts block and the scene list.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import forward, metrics, mlp, scene, store
from .config import (IRF_SWEEP_S, DATASET_SIZE_SWEEP, NOISE_FRACTIONS, REFLECTIVITY_SWEEP,
                     REFLECTIVITY_TRAIN_RANGE, SimConfig, check, check_owned, desk_sim,
                     paper_sim)

# Each background kind a recipe may name (config.BACKGROUND_KINDS), with the
# function that builds it.
BACKGROUNDS = {"structured": scene.default_background, "uniform": scene.Background}
# Failures a sweep records for one point before going on to the next; any
# other exception is a bug and propagates.
SWEEP_ERRORS = (ValueError, store.StoreError, mlp.TrainingDivergedError)
# Stream keys that keep each purpose's per-scene draws independent.
REFLECTIVITY_STREAM = 1
NOISE_STREAM = 2
# Shorter histograms, and rows that are only normalized, finalize on one
# thread: their per-row numpy calls are too brief for two threads to overlap,
# and the threads' contention for the GIL cost more than they saved (a
# desk-size sweep round ran 10% slower; finalizing 1200 IRF- and noise-free
# paper-size rows took 82 ms threaded against 67 ms inline).
_THREADED_MIN_BINS = 4000
# Scenes generate_dataset simulates and finalizes per block.
_BLOCK_ROWS = 32


@dataclass
class DatasetRecipe:
    """Everything needed to regenerate a dataset deterministically."""

    sim: SimConfig
    n_silhouettes: int = 10
    depth_steps: int = 10
    lateral_steps: int = 20
    background: str = "structured"
    reflectivity: float = 1.0
    reflectivity_range: tuple | None = None   # loguniform per scene when set

    def __post_init__(self):
        check_owned(self, "recipe")

    @property
    def n_scenes(self) -> int:
        return self.n_silhouettes * self.depth_steps * self.lateral_steps * 2


def desk_recipe(seed: int = 0) -> DatasetRecipe:
    """2000 pairs at 32x32 / 2000 bins; minutes on a laptop."""
    return DatasetRecipe(sim=desk_sim(seed), n_silhouettes=5)


def paper_recipe(seed: int = 0) -> DatasetRecipe:
    """Full-size run: 10 silhouettes x 400 poses = 4000 pairs at 64x64 / 8000 bins."""
    return DatasetRecipe(sim=paper_sim(seed))


def build_scenes(recipe: DatasetRecipe) -> list:
    """Silhouettes + augmentation + per-scene reflectivity assignment."""
    sils = scene.generate_silhouettes(recipe.n_silhouettes, recipe.sim.seed)
    background = BACKGROUNDS[recipe.background]()
    scenes = scene.augment(sils, background, recipe.sim,
                           depth_steps=recipe.depth_steps,
                           lateral_steps=recipe.lateral_steps,
                           reflectivity=recipe.reflectivity)
    if recipe.reflectivity_range is not None:
        lo, hi = recipe.reflectivity_range
        for index, sc in enumerate(scenes):
            rng = np.random.default_rng((recipe.sim.seed, REFLECTIVITY_STREAM, index))
            r = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
            for p in sc.placements:
                p.reflectivity = r
    return scenes


@dataclass
class RawDataset:
    """Noiseless, IRF-free expected-count histograms plus normalized images."""

    counts: np.ndarray        # (n, bins) float64 expected photon counts
    images: np.ndarray        # (n, img_w * img_h) float64 in [0, 1]
    recipe: DatasetRecipe
    scenes: np.ndarray        # (n,) index of each row's scene in build_scenes(recipe)
    backdrop: forward.BackdropReturns   # the background every scene is drawn on

    def __len__(self) -> int:
        return self.counts.shape[0]

    def take(self, rows) -> "RawDataset":
        """The given rows, still keyed by their scene indices."""
        return RawDataset(self.counts[rows], self.images[rows], self.recipe, self.scenes[rows],
                          self.backdrop)


def _named_error(exc: ValueError, where: str) -> ValueError:
    """The same kind of error, its message prefixed with where it arose."""
    return type(exc)(f"{where}: {exc}")


def _backdrop(built: list, cfg: SimConfig) -> forward.BackdropReturns:
    """The render and returns of the background that every scene of a recipe shares.

    A background that cannot be simulated, such as one whose returns arrive
    beyond the histogram span, fails here, before any scene, with an error
    of the same kind prefixed `background: `.
    """
    try:
        return forward.backdrop_returns(scene.render_background(built[0].background, cfg), cfg)
    except ValueError as exc:
        raise _named_error(exc, "background") from exc


def _simulate_rows(built: list, indices: np.ndarray, cfg: SimConfig,
                   backdrop: forward.BackdropReturns, counts: np.ndarray,
                   images: np.ndarray) -> None:
    """Simulate scenes built[indices] into the same rows of `counts` and `images`.

    Each scene is drawn on a copy of the backdrop, `_backdrop(built, cfg)`,
    and its histogram recomputes only the pixels where it differs from the
    backdrop. `images` may be float32, which rounds each value as a cast would.
    """
    for row, index in enumerate(indices):
        img = scene.render(built[index], cfg, backdrop.image)
        counts[row] = forward.simulate_histogram(img, cfg, backdrop).counts
        images[row] = scene.normalize_image(img, cfg.z_max)


def simulate_raw(recipe: DatasetRecipe, scenes=None) -> RawDataset:
    """Render and histogram the listed scenes of build_scenes(recipe), or all.

    The recipe's background is rendered, and its returns computed, once per
    call; every scene's placements are drawn onto a copy of the render, and
    its histogram recomputes only the pixels they change.
    """
    cfg = recipe.sim
    built = build_scenes(recipe)
    indices = np.arange(len(built)) if scenes is None else np.asarray(scenes, dtype=np.int64)
    if indices.ndim != 1 or ((indices < 0) | (indices >= len(built))).any():
        raise ValueError(f"scenes must be a 1-D list of indices in [0, {len(built)})")
    counts = np.empty((len(indices), cfg.bins), dtype=np.float64)
    images = np.empty((len(indices), cfg.img_w * cfg.img_h), dtype=np.float64)
    backdrop = _backdrop(built, cfg)
    _simulate_rows(built, indices, cfg, backdrop, counts, images)
    return RawDataset(counts=counts, images=images, recipe=recipe, scenes=indices,
                      backdrop=backdrop)


def _usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_rows(work, n: int) -> None:
    """Run `work(lo, hi)` on contiguous chunks of range(n), one per usable core.

    Each chunk writes only its own rows of arrays made beforehand, so the
    result does not depend on the number of chunks. The pool lives only for
    the call, so no thread outlives it (a module-level pool would deadlock
    in a child after fork). Results are read in chunk order, so if chunks
    fail, the exception of the lowest one propagates unchanged: it holds the
    first failing row, the one a serial loop would have stopped at.
    """
    chunks = max(1, min(_usable_cores(), n))
    bounds = [n * k // chunks for k in range(chunks + 1)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        list(pool.map(work, bounds[:-1], bounds[1:]))   # results in chunk order


def _irf(cfg: SimConfig, dt: float, backdrop: forward.BackdropReturns):
    """The IRF of rows drawn on this backdrop, or None when dt is 0.

    The backdrop's counts, summed on their first use, are blurred here once;
    each row then blurs only the runs of bins where it differs from them, to
    the bytes of forward.convolve_irf. At dt 0 the counts are not summed.
    """
    if dt == 0:
        return None
    return forward.backdrop_irf(forward.Histogram(cfg.bin_width_s, backdrop.counts), dt)


def _finalize_rows(counts: np.ndarray, scenes: np.ndarray, cfg: SimConfig,
                   irf, level: int, out: np.ndarray) -> None:
    """IRF, noise and normalization of each row of `counts` into float32 `out`.

    Row k is keyed by scene index scenes[k]; `irf` is `_irf(...)`. Rows of
    at least _THREADED_MIN_BINS bins that get an IRF or noise run on all
    usable cores; the bytes are the same either way.
    """
    def rows(lo, hi):
        for row in range(lo, hi):
            index = int(scenes[row])
            try:
                h = forward.Histogram(cfg.bin_width_s, counts[row])
                if irf is not None:
                    h = irf(h)
                if level:
                    h = forward.add_noise(h, level, seed=(cfg.seed, NOISE_STREAM, index))
                # float32 as stored: each row rounds here exactly as the Dataset cast would
                out[row] = forward.normalize_histogram(h)
            except ValueError as exc:
                raise _named_error(exc, f"scene {index}") from exc

    if cfg.bins >= _THREADED_MIN_BINS and (irf is not None or level):
        _map_rows(rows, len(counts))
    else:
        rows(0, len(counts))


def finalize(raw: RawDataset, irf_dt_s: float | None = None,
             noise_level: int | None = None) -> store.Dataset:
    """Apply IRF + per-scene noise, normalize to [0, 1], pack as a storable dataset."""
    cfg = raw.recipe.sim
    dt = check("irf_dt_s", cfg.irf_dt_s if irf_dt_s is None else irf_dt_s)
    level = check("noise_level", cfg.noise_level if noise_level is None else noise_level)
    records = np.empty((len(raw), cfg.bins + cfg.img_w * cfg.img_h), dtype=np.float32)
    _finalize_rows(raw.counts, raw.scenes, cfg, _irf(cfg, dt, raw.backdrop), level,
                   records[:, : cfg.bins])
    records[:, cfg.bins:] = raw.images
    return store.Dataset(records, cfg.img_w, cfg.img_h)


def generate_dataset(recipe: DatasetRecipe) -> store.Dataset:
    """The bytes of finalize(simulate_raw(recipe)), made one block of rows at a time.

    Each block of _BLOCK_ROWS scenes is simulated into one reused float64
    counts block and finalized straight into the float32 records, so the
    peak is the records plus one counts block and the scene list, not the
    whole float64 raw set as well.
    """
    cfg = recipe.sim
    built = build_scenes(recipe)
    n = len(built)
    records = np.empty((n, cfg.bins + cfg.img_w * cfg.img_h), dtype=np.float32)
    histograms, images = records[:, : cfg.bins], records[:, cfg.bins:]
    block = np.empty((min(n, _BLOCK_ROWS), cfg.bins), dtype=np.float64)
    backdrop = _backdrop(built, cfg)
    irf = _irf(cfg, cfg.irf_dt_s, backdrop)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(n, lo + _BLOCK_ROWS)
        indices = np.arange(lo, hi)
        _simulate_rows(built, indices, cfg, backdrop, block[: hi - lo], images[lo:hi])
        _finalize_rows(block[: hi - lo], indices, cfg, irf, cfg.noise_level,
                       histograms[lo:hi])
    return store.Dataset(records, cfg.img_w, cfg.img_h)


def _split_rows(n: int, n_test: int, seed: int):
    """Seeded shuffle of range(n), split into (train, test) row indices."""
    if check("n_test", n_test) >= n:
        raise ValueError(f"n_test must be < {n}, the number of pairs, got {n_test}")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[n_test:], perm[:n_test]


def split_dataset(ds: store.Dataset, n_test: int, seed: int):
    """Seeded shuffle, then (train, test) split with n_test held-out pairs."""
    train, test = _split_rows(len(ds), n_test, seed)
    x, y = ds.histograms, ds.images
    return (x[train], y[train]), (x[test], y[test])


def evaluate_model(model: mlp.MlpModel, x: np.ndarray, y: np.ndarray,
                   img_w: int, img_h: int) -> tuple[np.ndarray, float]:
    """Mean SSIM per test pair (prediction vs truth) and the overall mean.

    Raises ValueError when the model's output width, img_w * img_h and the
    width of y's rows disagree, or when x and y hold different pair counts.
    """
    y = np.asarray(y)
    n_out = model.layer_dims[-1]
    if not n_out == img_w * img_h == y.shape[-1]:
        raise ValueError(f"model outputs {n_out} pixels, images are {img_w} x {img_h} = "
                         f"{img_w * img_h} pixels, y rows hold {y.shape[-1]}")
    if len(x) != len(y):
        raise ValueError(f"{len(x)} histograms but {len(y)} images")
    outputs = mlp.forward(model, np.asarray(x, dtype=model.dtype))
    np.clip(outputs, 0.0, 1.0, out=outputs)
    return metrics.batch_ssim(outputs.reshape(-1, img_h, img_w), y.reshape(-1, img_h, img_w))


@dataclass
class SweepPoint:
    label: str
    mean_ssim: float | None
    error: str | None = None

    @classmethod
    def failed(cls, label: str, exc: Exception) -> "SweepPoint":
        """An unscored point that keeps the exception's type name and message."""
        return cls(label, None, error=f"{type(exc).__name__}: {exc}")


def _mean_ssim(model: mlp.MlpModel, test: store.Dataset) -> float:
    """Mean SSIM of the model's predictions over a finalized test set."""
    return evaluate_model(model, test.histograms, test.images, test.img_w, test.img_h)[1]


def _sweep_points(points, score) -> list:
    """A SweepPoint per (label, value) pair, scored by `score(value)`.

    A point that fails with one of SWEEP_ERRORS is recorded with its error
    and the sweep goes on to the next; any other exception propagates.
    """
    swept = []
    for label, value in points:
        try:
            swept.append(SweepPoint(label, score(value)))
        except SWEEP_ERRORS as exc:
            swept.append(SweepPoint.failed(label, exc))
    return swept


def sweep_irf(raw: RawDataset, train_cfg: mlp.TrainConfig, n_test: int,
              dts=IRF_SWEEP_S) -> list:
    """Retrain once per IRF width on re-blurred histograms; score test SSIM."""
    train_rows, test_rows = _split_rows(len(raw), n_test, raw.recipe.sim.seed)

    def score(dt):
        train = finalize(raw.take(train_rows), irf_dt_s=dt)
        test = finalize(raw.take(test_rows), irf_dt_s=dt)
        model, _ = mlp.train((train.histograms, train.images), train_cfg)
        return _mean_ssim(model, test)

    return _sweep_points(((f"{dt * 1e12:g}ps", dt) for dt in dts), score)


def sweep_noise(raw: RawDataset, train_cfg: mlp.TrainConfig, n_test: int,
                levels=range(len(NOISE_FRACTIONS))) -> list:
    """Fixed training on clean data; noise is applied to the test inputs."""
    train_rows, test_rows = _split_rows(len(raw), n_test, raw.recipe.sim.seed)
    train = finalize(raw.take(train_rows), noise_level=0)
    model, _ = mlp.train((train.histograms, train.images), train_cfg)
    return _sweep_points(
        ((f"level{level}", level) for level in levels),
        lambda level: _mean_ssim(model, finalize(raw.take(test_rows), noise_level=level)))


def sweep_dataset_size(raw: RawDataset, train_cfg: mlp.TrainConfig, n_test: int,
                       sizes=DATASET_SIZE_SWEEP) -> list:
    """Retrain on nested subsets of the training pool; shared test set."""
    train_rows, test_rows = _split_rows(len(raw), n_test, raw.recipe.sim.seed)
    train = finalize(raw.take(train_rows))
    test = finalize(raw.take(test_rows))

    def score(size):
        if size > len(train):
            raise ValueError(f"requested {size} training pairs, pool has {len(train)}")
        model, _ = mlp.train((train.histograms[:size], train.images[:size]), train_cfg)
        return _mean_ssim(model, test)

    return _sweep_points(((str(size), size) for size in sizes), score)


def sweep_reflectivity(recipe: DatasetRecipe, train_cfg: mlp.TrainConfig, n_test: int,
                       ratios=REFLECTIVITY_SWEEP, training: str = "fixed") -> list:
    """Train at R=1 (fixed) or R in [0.25, 4] (varied); test at each ratio.

    Test scenes are identical across ratios; only the silhouette reflectivity
    changes, which rescales its histogram contribution relative to the
    background. Each scene is simulated only where it is trained on or scored.
    """
    check("reflectivity_training", training)
    train_recipe = recipe if training == "fixed" else replace(
        recipe, reflectivity_range=REFLECTIVITY_TRAIN_RANGE)
    train_rows, test_rows = _split_rows(recipe.n_scenes, n_test, recipe.sim.seed)
    train = finalize(simulate_raw(train_recipe, scenes=train_rows))
    model, _ = mlp.train((train.histograms, train.images), train_cfg)
    test_rows = np.sort(test_rows)  # scene order fixes the order the mean SSIM sums in

    def score(ratio):
        test_recipe = replace(recipe, reflectivity=float(ratio), reflectivity_range=None)
        return _mean_ssim(model, finalize(simulate_raw(test_recipe, scenes=test_rows)))

    return _sweep_points(((f"R{ratio:g}", ratio) for ratio in ratios), score)
