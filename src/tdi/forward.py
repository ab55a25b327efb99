"""Forward model: depth image -> single-point photon arrival-time histogram.

Every returning pixel contributes an expected photon count of
reflectivity * p0 / r^4 at arrival time 2r/c (round trip; r is the pixel's
3D distance reconstructed from the pinhole geometry). Expected, real-valued
counts flow through the noiseless path so it stays deterministic and exactly
conservative; discreteness only enters through the Poisson noise stage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import NOISE_FRACTIONS, SPEED_OF_LIGHT, SimConfig
from .scene import DepthImage, Overlay, pixel_offsets


class SpanError(ValueError):
    """A pixel's arrival time falls beyond the last histogram bin."""


@dataclass
class Histogram:
    """Fixed-width time bins of expected (or sampled) photon counts."""

    bin_width_s: float
    counts: np.ndarray
    t0_s: float = 0.0

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.counts.ndim != 1 or self.counts.size < 2:
            raise ValueError("counts must be a 1-D array with at least 2 bins")
        if not (math.isfinite(self.bin_width_s) and self.bin_width_s > 0):
            raise ValueError(f"bin_width_s must be finite and positive, got {self.bin_width_s!r}")
        if not math.isfinite(self.t0_s):
            raise ValueError(f"t0_s must be finite, got {self.t0_s!r}")
        # min and max propagate NaN, so this needs no full-size mask
        if not (self.counts.min() >= 0.0 and math.isfinite(self.counts.max())):
            raise ValueError("counts must be finite and >= 0")

    @property
    def bins(self) -> int:
        return self.counts.size

    def bin_starts(self) -> np.ndarray:
        return self.t0_s + np.arange(self.bins) * self.bin_width_s


@functools.lru_cache(maxsize=16)
def _pixel_slopes(img_w: int, img_h: int, focal_px: float):
    """Per flat pixel index, the lateral offset of its center over its depth
    (x/z, y/z), as two read-only arrays made once per frame geometry."""
    across = pixel_offsets(img_w) / focal_px
    down = -(pixel_offsets(img_h) / focal_px)
    slopes = np.tile(across, img_h), np.repeat(down, img_w)
    for a in slopes:
        a.flags.writeable = False
    return slopes


def _pixel_returns(pixels: np.ndarray, z: np.ndarray, reflectance: np.ndarray,
                   cfg: SimConfig):
    """Arrival bin and expected photons of the pixels at the given flat indices.

    The one place the return of a pixel is computed, from its depth z and
    reflectance: its 3D distance r from the pinhole geometry, the bin of its
    arrival time, and reflectance * p0 / r^4. Raises SpanError when a return
    arrives beyond the last bin.
    """
    across, down = _pixel_slopes(cfg.img_w, cfg.img_h, cfg.focal_px)
    x = across[pixels] * z
    y = down[pixels] * z
    r = np.sqrt(x * x + y * y + z * z)

    factor = 2.0 if cfg.time_convention == "round_trip" else 1.0
    t = factor * r / SPEED_OF_LIGHT
    bins = np.floor(t / cfg.bin_width_s).astype(np.int64)
    if (bins >= cfg.bins).any():
        worst = int(np.argmax(bins))
        raise SpanError(
            f"return from depth {z[worst]:.4f} m (distance {r[worst]:.4f} m) arrives at "
            f"{t[worst]:.3e} s, beyond the histogram span of "
            f"{cfg.bins * cfg.bin_width_s:.3e} s")
    return bins, reflectance * cfg.p0 / r ** 4


def _image_returns(img: DepthImage, pixels: np.ndarray, cfg: SimConfig):
    """`_pixel_returns` of the given pixels of an image."""
    return _pixel_returns(pixels, img.depth_m.ravel()[pixels],
                          img.reflectance.ravel()[pixels], cfg)


@dataclass
class BackdropReturns:
    """A backdrop render and its returns, sorted by photon value.

    `rank` maps each flat pixel index to the position of its return in the
    sorted `bins` and `photons`, or -1 where the pixel returns nothing. All
    three are None when some backdrop return arrives beyond the histogram
    span: a scene may still hide it, so such scenes take the whole-image
    path, which raises only if the return shows.
    """

    image: DepthImage
    rank: np.ndarray | None
    bins: np.ndarray | None
    photons: np.ndarray | None


def backdrop_returns(backdrop: DepthImage, cfg: SimConfig) -> BackdropReturns:
    """Compute a backdrop's returns once, for simulate_histogram to reuse."""
    pixels = np.flatnonzero(backdrop.depth_m > 0)
    try:
        bins, photons = _image_returns(backdrop, pixels, cfg)
    except SpanError:
        return BackdropReturns(backdrop, None, None, None)
    order = np.argsort(photons)
    rank = np.full(backdrop.depth_m.size, -1, dtype=np.int64)
    rank[pixels[order]] = np.arange(pixels.size)
    return BackdropReturns(backdrop, rank, bins[order], photons[order])


def simulate_histogram(img: DepthImage, cfg: SimConfig,
                       backdrop: BackdropReturns | None = None) -> Histogram:
    """Accumulate every returning pixel into its arrival-time bin (noiseless).

    Each bin sums its photons in ascending value order, so the result is
    independent of pixel enumeration order; in particular a scene and its
    exact mirror produce bit-identical histograms.

    There are two paths, with the same bytes. When `img` was drawn by
    `scene.render(sc, cfg, b)` and `backdrop` is `backdrop_returns(b, cfg)`,
    only the pixels of the image's overlay are computed and merged into the
    backdrop's returns, already sorted; no step reads the whole frame. Any
    other input, with or without `backdrop`, computes every pixel of the
    image: that path is the oracle.
    """
    if img.depth_m.shape != (cfg.img_h, cfg.img_w):
        raise ValueError(
            f"image is {img.depth_m.shape}, config expects {(cfg.img_h, cfg.img_w)}")
    drawn = img.overlay
    if (backdrop is not None and backdrop.rank is not None and drawn is not None
            and drawn.backdrop is backdrop.image):
        return Histogram(cfg.bin_width_s, _merged_counts(backdrop, drawn, cfg))
    pixels = np.flatnonzero(img.depth_m > 0)
    bins, photons = _image_returns(img, pixels, cfg)
    # bincount adds its weights in array order, so after sorting by value
    # each bin sums its photons in ascending order; equal values may swap
    # places without changing a bit
    order = np.argsort(photons)
    counts = np.bincount(bins[order], weights=photons[order], minlength=cfg.bins)
    return Histogram(cfg.bin_width_s, counts)


def _merged_counts(backdrop: BackdropReturns, drawn: Overlay, cfg: SimConfig) -> np.ndarray:
    """Bin sums of the backdrop's returns with those of the overlay's pixels
    replaced by the overlay's own; every overlay pixel returns light."""
    # a replaced backdrop return keeps its place with weight 0: every bin
    # sum starts at +0 and stays >= 0, so adding +0 changes no bit
    gone = backdrop.rank[drawn.pixels]
    weights = backdrop.photons.copy()
    weights[gone[gone >= 0]] = 0.0
    new_bins, new_photons = _pixel_returns(drawn.pixels, drawn.depth_m, drawn.reflectance,
                                           cfg)
    order = new_photons.argsort()
    new_bins, new_photons = new_bins[order], new_photons[order]
    # merge: new return k goes before the backdrop returns not smaller
    # than it, after the k new returns before it
    at = backdrop.photons.searchsorted(new_photons) + np.arange(new_photons.size)
    rest = np.ones(weights.size + new_photons.size, dtype=bool)
    rest[at] = False
    photons = np.empty(rest.size)
    photons[at] = new_photons
    photons[rest] = weights
    bins = np.empty(rest.size, dtype=np.int64)
    bins[at] = new_bins
    bins[rest] = backdrop.bins
    return np.bincount(bins, weights=photons, minlength=cfg.bins)


def convolve_irf(h: Histogram, dt_s: float) -> Histogram:
    """Blur a histogram with a Gaussian impulse response exp(-t^2 / dt^2).

    dt_s is the 1/e half-width. The kernel is sampled at bin centers,
    truncated at +/- 4 dt, and renormalized to unit sum, so total counts are
    preserved to better than 1e-6 away from the histogram edges. dt_s = 0
    returns the input unchanged.
    """
    if dt_s < 0:
        raise ValueError("dt_s must be >= 0")
    if dt_s == 0.0:
        return Histogram(h.bin_width_s, h.counts.copy(), h.t0_s)
    half = max(1, math.ceil(4.0 * dt_s / h.bin_width_s))
    offsets = np.arange(-half, half + 1, dtype=np.float64) * h.bin_width_s
    kernel = np.exp(-((offsets / dt_s) ** 2))
    kernel /= kernel.sum()
    blurred = np.convolve(h.counts, kernel, mode="full")[half: half + h.bins]
    return Histogram(h.bin_width_s, np.maximum(blurred, 0.0), h.t0_s)


def _noise_scales(counts: np.ndarray, fraction: float):
    """Per-stage noise parameters hitting the calibration target.

    The target is a mean absolute perturbation of fraction * mean(nonzero
    bins), split evenly (in variance) between the Poisson stage (via count
    scaling) and the Gaussian stage (via sigma). For two roughly Gaussian
    stages of standard deviation s each, E|sum| = (2/sqrt(pi)) * s, so each
    stage uses s = target * sqrt(pi) / 2.
    """
    live = counts[counts > 0]
    if not live.size:
        return 0.0, 0.0
    mean_nz = float(live.mean())
    target = fraction * mean_nz
    s = target * math.sqrt(math.pi) / 2.0
    sqrt_mean = float(np.sqrt(live).mean())
    alpha = (sqrt_mean / s) ** 2  # Poisson(alpha * b) / alpha has std sqrt(b / alpha)
    return alpha, s


def add_noise(h: Histogram, level: int, seed) -> Histogram:
    """Poisson + Gaussian perturbation at noise level 0..3.

    Level 0 returns the input unchanged. Otherwise each bin b becomes
    max(0, Poisson(alpha * b) / alpha + Normal(0, sigma)), with alpha and
    sigma calibrated so the mean absolute perturbation of nonzero bins is
    approximately NOISE_FRACTIONS[level] * mean(nonzero bins). Deterministic
    for a fixed seed, an int or a sequence of ints such as
    (seed, stream, scene index).
    """
    if not 0 <= level < len(NOISE_FRACTIONS):
        raise ValueError(f"noise level must be 0..{len(NOISE_FRACTIONS) - 1}, got {level}")
    if level == 0:
        return Histogram(h.bin_width_s, h.counts.copy(), h.t0_s)
    rng = np.random.default_rng(seed)
    alpha, sigma = _noise_scales(h.counts, NOISE_FRACTIONS[level])
    if alpha == 0.0:  # all-zero histogram: nothing to perturb against
        return Histogram(h.bin_width_s, h.counts.copy(), h.t0_s)
    noisy = rng.poisson(h.counts * alpha).astype(np.float64) / alpha
    noisy += rng.standard_normal(h.bins) * sigma   # the bytes of rng.normal(0.0, sigma)
    return Histogram(h.bin_width_s, np.maximum(noisy, 0.0), h.t0_s)


def normalize_histogram(h: Histogram) -> np.ndarray:
    """Counts divided by the maximum count; an all-zero histogram stays zero."""
    peak = float(h.counts.max())
    if peak == 0.0:
        return np.zeros(h.bins, dtype=np.float64)
    return h.counts / peak
