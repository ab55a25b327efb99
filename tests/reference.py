"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately written the slow, direct way (explicit loops,
textbook formulas) so it shares no code path with the package.
"""

import math
import re
import struct
from pathlib import Path

import numpy as np


def brute_force_ssim_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Direct per-pixel SSIM: centered window statistics, explicit loops."""
    pad = 5
    big_a = np.pad(np.asarray(a, dtype=np.float64), pad, mode="symmetric")
    big_b = np.pad(np.asarray(b, dtype=np.float64), pad, mode="symmetric")
    k = np.arange(11) - 5.0
    w = np.exp(-np.add.outer(k ** 2, k ** 2) / (2.0 * 1.5 ** 2))
    w /= w.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            wa = big_a[i: i + 11, j: j + 11]
            wb = big_b[i: i + 11, j: j + 11]
            mu_a = (w * wa).sum()
            mu_b = (w * wb).sum()
            var_a = (w * (wa - mu_a) ** 2).sum()
            var_b = (w * (wb - mu_b) ** 2).sum()
            cov = (w * (wa - mu_a) * (wb - mu_b)).sum()
            total += ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
                     ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2))
    return total / a.size


def finite_difference_grads(model, x, s, step=1e-5):
    """Central finite differences of the batch loss for every parameter."""
    from tdi import mlp

    grads = []
    for p in model.weights + model.biases:
        g = np.zeros_like(p, dtype=np.float64)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            up = mlp.mse_loss(mlp.forward(model, x), s)
            p[idx] = orig - step
            down = mlp.mse_loss(mlp.forward(model, x), s)
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def textbook_adam(params, grads_per_step, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Kingma & Ba (arXiv:1412.6980) Algorithm 1, whole arrays, new arrays each step.

    Returns updated copies of `params` after one step per entry of
    `grads_per_step` (each a list of gradients aligned with `params`).
    """
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * (g * g)
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def scaled_adam(params, grads_per_step, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on scaled moments M = m / (1 - beta1), V = v / (1 - beta2), whole arrays.

    The textbook update reordered (Kingma & Ba, section 2): M = beta1 M + g,
    V = beta2 V + g^2, p -= k * (M / (sqrt(V) + eps / s)) with
    s = sqrt((1 - beta2) / c2) and k = lr (1 - beta1) / (c1 s). Same
    arguments and result as textbook_adam, to within float rounding.
    """
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        s = math.sqrt((1.0 - beta2) / (1.0 - beta2 ** t))
        k = lr * (1.0 - beta1) / ((1.0 - beta1 ** t) * s)
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + g
            v[i] = beta2 * v[i] + g * g
            params[i] = params[i] - k * (m[i] / (np.sqrt(v[i]) + eps / s))
    return params


def reference_train(x, y, config, model, losses=None):
    """mlp.train's batch schedule, one fresh gradients() list and adam_step per batch.

    Same seeded permutation, validation tail and per-epoch reshuffle as
    mlp.train, over every input column; returns the trained model (updated
    in place). When `losses` is a dict, its "train" and "val" lists get, per
    epoch, the mean loss of the batches, each scored before its step, and
    the validation loss after the epoch.
    """
    from tdi import mlp

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(x.shape[0])
    n_val = min(int(round(config.validation_fraction * x.shape[0])), x.shape[0] - 1)
    train_idx, val_idx = perm[: x.shape[0] - n_val], perm[x.shape[0] - n_val:]
    state = mlp.AdamState.zeros_like(model)
    t = 0
    for _ in range(config.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        seen = 0.0
        for start in range(0, order.size, config.batch_size):
            batch = order[start: start + config.batch_size]
            if losses is not None:
                seen += mlp.mse_loss(mlp.forward(model, x[batch]), y[batch]) * batch.size
            t += 1
            mlp.adam_step(model, mlp.gradients(model, x[batch], y[batch]), state, t, config)
        if losses is not None:
            losses.setdefault("train", []).append(seen / order.size)
            losses.setdefault("val", []).append(
                mlp.mse_loss(mlp.forward(model, x[val_idx]), y[val_idx]))
    return model


def dataset_records(histograms, images) -> np.ndarray:
    """The float32 records of a dataset: each histogram, then its image, side by side."""
    return np.hstack([histograms, images]).astype("<f4")


def dataset_file_bytes(dataset) -> bytes:
    """A v1 .tdid file built in one piece: header, then every record side by side."""
    header = struct.pack("<4sIIIII", b"TDID", 1, dataset.histograms.shape[1],
                         dataset.img_w, dataset.img_h, dataset.histograms.shape[0])
    return header + dataset_records(dataset.histograms, dataset.images).tobytes()


def read_pgm(path) -> np.ndarray:
    """A binary P5 graymap without header comments, as uint8 or big-endian uint16."""
    data = Path(path).read_bytes()
    head = re.match(rb"(P\d)\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if head is None or head[1] != b"P5":
        raise ValueError(f"{path}: not a binary graymap")
    width, height, maxval = (int(v) for v in head.groups()[1:])
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    raster = data[head.end():]
    if len(raster) != width * height * dtype.itemsize:
        raise ValueError(f"{path}: raster has {len(raster)} bytes, "
                         f"expected {width * height * dtype.itemsize}")
    return np.frombuffer(raster, dtype=dtype).reshape(height, width)


def dense_forward(model, x):
    """The network's output in float64, every input column multiplied: a @ w + b per
    input-major layer, tanh on all but the last."""
    a = np.asarray(x, dtype=np.float64)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ np.asarray(w, dtype=np.float64) + np.asarray(b, dtype=np.float64)
        if i < last:
            a = np.tanh(a)
    return a


def max_grad_rel_error(analytic, numeric, floor=1e-8) -> float:
    """Worst relative disagreement, ignoring entries that are numerically zero."""
    worst = 0.0
    for g_a, g_n in zip(analytic, numeric):
        denom = np.maximum(np.abs(g_n), floor)
        mask = np.abs(g_n) > floor
        if mask.any():
            worst = max(worst, float((np.abs(g_a - g_n) / denom)[mask].max()))
    return worst


def sum_expected_photons(img, cfg) -> float:
    """Exact (fsum) total expected photon count of a depth image."""
    total = []
    f = (cfg.img_w / 2.0) / math.tan(math.radians(cfg.fov_deg) / 2.0)
    for i in range(img.depth_m.shape[0]):
        for j in range(img.depth_m.shape[1]):
            z = img.depth_m[i, j]
            if z <= 0:
                continue
            x = ((j - cfg.img_w / 2.0) + 0.5) / f * z
            y = -((i - cfg.img_h / 2.0) + 0.5) / f * z
            r2 = x * x + y * y + z * z
            total.append(img.reflectance[i, j] * cfg.p0 / (r2 * r2))
    return math.fsum(total)


def placement_footprint(p, cfg) -> np.ndarray:
    """Boolean (H, W) footprint of a placement: its rectangle in a blank frame."""
    from tdi import scene

    r0, c0, sub = scene.placement_rect(p, cfg)
    fp = np.zeros((cfg.img_h, cfg.img_w), dtype=bool)
    fp[r0: r0 + sub.shape[0], c0: c0 + sub.shape[1]] = sub
    return fp


def serial_render(sc, cfg):
    """Whole-scene render as one pass: wall, every box, then every placement."""
    from tdi import scene

    bg = sc.background
    if bg.wall_depth_m > cfg.z_max:
        raise ValueError(f"wall depth {bg.wall_depth_m} m exceeds z_max {cfg.z_max} m")
    depth = np.full((cfg.img_h, cfg.img_w), bg.wall_depth_m, dtype=np.float64)
    refl = np.full((cfg.img_h, cfg.img_w), bg.wall_reflectivity, dtype=np.float64)
    u = scene.pixel_offsets(cfg.img_w)
    v = scene.pixel_offsets(cfg.img_h)
    f = cfg.focal_px
    for box in bg.objects:
        in_x = np.abs((u / f) * box.z - box.x) <= box.width / 2.0
        in_y = np.abs(-(v / f) * box.z - box.y) <= box.height / 2.0
        hit = np.outer(in_y, in_x) & (box.z < depth)
        depth[hit] = box.z
        refl[hit] = box.reflectivity
    for p in sc.placements:
        if not (cfg.z_min <= p.z <= cfg.z_max):
            raise ValueError(f"placement depth {p.z} m outside configured range")
        hit = placement_footprint(p, cfg) & (p.z < depth)
        depth[hit] = p.z
        refl[hit] = p.reflectivity
    return scene.DepthImage(depth_m=depth, reflectance=refl)


def lexsort_histogram(img, cfg) -> np.ndarray:
    """Expected counts summed pixel by pixel in (bin, value) order with np.add.at."""
    from tdi import scene
    from tdi.config import SPEED_OF_LIGHT

    counts = np.zeros(cfg.bins, dtype=np.float64)
    rows, cols = np.nonzero(img.depth_m > 0)
    z = img.depth_m[rows, cols]
    x = (scene.pixel_offsets(cfg.img_w)[cols] / cfg.focal_px) * z
    y = -(scene.pixel_offsets(cfg.img_h)[rows] / cfg.focal_px) * z
    r = np.sqrt(x * x + y * y + z * z)
    factor = 2.0 if cfg.time_convention == "round_trip" else 1.0
    bins = np.floor(factor * r / SPEED_OF_LIGHT / cfg.bin_width_s).astype(np.int64)
    photons = img.reflectance[rows, cols] * cfg.p0 / r ** 4
    order = np.lexsort((photons, bins))
    np.add.at(counts, bins[order], photons[order])
    return counts
