"""Reconstruction quality (windowed SSIM) and physical resolution limits."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT

# Canonical SSIM parameters: 11x11 Gaussian window (sigma 1.5), stability
# constants K1/K2, unit dynamic range for normalized images.
WINDOW_SIZE = 11
WINDOW_SIGMA = 1.5
K1 = 0.01
K2 = 0.03
DYNAMIC_RANGE = 1.0
# Pairs per chunk in batch_ssim; bounds the float64 copies and intermediates.
SSIM_CHUNK = 256


@dataclass
class SsimResult:
    map: np.ndarray   # per-pixel similarity in [-1, 1], same shape as inputs
    mean: float


@functools.lru_cache(maxsize=8)
def _pass_matrix(size: int) -> np.ndarray:
    """(size, size) matrix of one 1-D Gaussian pass with symmetric edge padding.

    Row i holds the 11 taps centred on i; taps that fall off an edge are
    folded back onto the pixel that symmetric padding would copy there.
    """
    k = np.arange(WINDOW_SIZE, dtype=np.float64) - (WINDOW_SIZE - 1) / 2.0
    taps = np.exp(-(k ** 2) / (2.0 * WINDOW_SIGMA ** 2))
    taps /= taps.sum()
    source = np.pad(np.arange(size), WINDOW_SIZE // 2, mode="symmetric")
    cols = np.lib.stride_tricks.sliding_window_view(source, WINDOW_SIZE)
    rows = np.repeat(np.arange(size), WINDOW_SIZE).reshape(size, WINDOW_SIZE)
    mat = np.zeros((size, size))
    np.add.at(mat, (rows, cols), np.broadcast_to(taps, cols.shape))
    mat.flags.writeable = False
    return mat


def _windowed_mean(img: np.ndarray) -> np.ndarray:
    """Gaussian-weighted local mean of an (h, w) image or (n, h, w) stack.

    The 11x11 window is separable, so it is applied as one pass down the
    columns and one along the rows (same size, symmetric padding).
    """
    h, w = img.shape[-2:]
    return _pass_matrix(h) @ img @ _pass_matrix(w).T


def ssim(a: np.ndarray, b: np.ndarray) -> SsimResult:
    """Structural similarity map and mean between normalized images.

    Inputs are equal-shape 2-D images, or (n, h, w) stacks of them, with
    values in [0, 1]. The map has the shape of the inputs (each image is
    padded symmetrically at its edges) and every value lies in [-1, 1];
    identical inputs give exactly 1. The mean is taken over the whole map.
    Empty inputs, such as a (0, h, w) stack, raise ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim not in (2, 3) or a.size == 0:
        raise ValueError(f"images must be equal-shape, nonempty 2-D arrays or (n, h, w) "
                         f"stacks, got {a.shape} vs {b.shape}")

    c1 = (K1 * DYNAMIC_RANGE) ** 2
    c2 = (K2 * DYNAMIC_RANGE) ** 2

    mu_a = _windowed_mean(a)
    mu_b = _windowed_mean(b)
    s_aa = _windowed_mean(a * a) - mu_a * mu_a
    s_bb = _windowed_mean(b * b) - mu_b * mu_b
    s_ab = _windowed_mean(a * b) - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * s_ab + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (s_aa + s_bb + c2)
    smap = num / den
    return SsimResult(map=smap, mean=float(smap.mean()))


def batch_ssim(a, b) -> tuple[np.ndarray, float]:
    """Per-pair mean SSIM of two (n, h, w) stacks, pair k being (a[k], b[k]),
    plus the overall mean.

    Each SSIM_CHUNK pairs are converted to float64 and scored in one `ssim`
    call, so no float64 copy of a whole stack is made.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 3:
        raise ValueError(f"need two equal-shape (n, h, w) stacks, got {a.shape} vs {b.shape}")
    n = len(a)
    if n == 0:
        raise ValueError("need at least one image pair")
    means = np.empty(n)
    for lo in range(0, n, SSIM_CHUNK):
        smap = ssim(a[lo: lo + SSIM_CHUNK], b[lo: lo + SSIM_CHUNK]).map
        means[lo: lo + SSIM_CHUNK] = smap.reshape(smap.shape[0], -1).mean(axis=1)
    return means, float(means.mean())


def lateral_resolution(d: float, dt: float) -> float:
    """Minimum resolvable transverse feature at distance d with timing dt.

    c*dt * sqrt(2d/(c*dt) + 1), algebraically sqrt((d + c*dt)^2 - d^2):
    grows with the square root of distance, so resolution degrades slowly
    far from the sensor.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not 0 <= d < math.inf:
        raise ValueError(f"distance must be finite and >= 0, got {d!r}")
    c_dt = SPEED_OF_LIGHT * dt
    return c_dt * math.sqrt(2.0 * d / c_dt + 1.0)


def depth_resolution(dt: float) -> float:
    """Axial (depth) resolution c * dt, set purely by the timing resolution."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    return SPEED_OF_LIGHT * dt
