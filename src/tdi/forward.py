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

from .config import NOISE_FRACTIONS, SPEED_OF_LIGHT, SimConfig, check
from .scene import DepthImage, Overlay, pixel_offsets


# Fewest equal bins between two runs of bins that differ from the backdrop
# for backdrop_irf to blur them apart, so that short kernels do not blur
# each lit bin on its own. Finalizing 400 paper-size rows at 25 ps (49 taps)
# took 51 ms with this floor and 60 ms without it, on a 2-vCPU Xeon.
_MIN_RUN_GAP = 256
# Kernels of at most this many taps, which numpy convolves with an unrolled
# loop rather than a dot product per output, backdrop_irf applies to the
# whole row. Per 8000-bin simulated row on a 2-vCPU Xeon: 7 taps took 53 us
# whole and 65 us by runs, 13 taps 147 us whole and 73 us by runs.
_SHORT_KERNEL_TAPS = 11


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

    t = cfg.path_factor * r / SPEED_OF_LIGHT
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
    sorted `bins` and `photons`, or -1 where the pixel returns nothing.
    """

    image: DepthImage
    n_bins: int
    rank: np.ndarray
    bins: np.ndarray
    photons: np.ndarray

    @functools.cached_property
    def counts(self) -> np.ndarray:
        """The bytes of the backdrop's own simulate_histogram, summed on first use."""
        return np.bincount(self.bins, weights=self.photons, minlength=self.n_bins)


def backdrop_returns(backdrop: DepthImage, cfg: SimConfig) -> BackdropReturns:
    """Compute a backdrop's returns once, for simulate_histogram to reuse.

    Raises SpanError when any of them arrives beyond the last bin. A scene
    drawn on a rendered background only brings pixels closer, so its returns
    fit the span whenever the backdrop's do.
    """
    pixels = np.flatnonzero(backdrop.depth_m > 0)
    bins, photons = _image_returns(backdrop, pixels, cfg)
    order = np.argsort(photons)
    rank = np.full(backdrop.depth_m.size, -1, dtype=np.int64)
    rank[pixels[order]] = np.arange(pixels.size)
    return BackdropReturns(backdrop, cfg.bins, rank, bins[order], photons[order])


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
    if backdrop is not None and drawn is not None and drawn.backdrop is backdrop.image:
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


def _irf_kernel(bin_width_s: float, dt_s: float):
    """Half-width in bins and unit-sum taps of the Gaussian IRF at a bin width."""
    half = max(1, math.ceil(4.0 * dt_s / bin_width_s))
    offsets = np.arange(-half, half + 1, dtype=np.float64) * bin_width_s
    kernel = np.exp(-((offsets / dt_s) ** 2))
    kernel /= kernel.sum()
    return half, kernel


def convolve_irf(h: Histogram, dt_s: float) -> Histogram:
    """Blur a histogram with a Gaussian impulse response exp(-t^2 / dt^2).

    dt_s is the 1/e half-width. The kernel is sampled at bin centers,
    truncated at +/- 4 dt, and renormalized to unit sum, so total counts are
    preserved to better than 1e-6 away from the histogram edges. dt_s = 0
    returns the input unchanged.
    """
    if check("irf_dt_s", dt_s) == 0.0:
        return Histogram(h.bin_width_s, h.counts.copy(), h.t0_s)
    half, kernel = _irf_kernel(h.bin_width_s, dt_s)
    blurred = np.convolve(h.counts, kernel, mode="full")[half: half + h.bins]
    return Histogram(h.bin_width_s, np.maximum(blurred, 0.0), h.t0_s)


def backdrop_irf(backdrop: Histogram, dt_s: float):
    """A function giving the bytes of convolve_irf(h, dt_s) for histograms h
    of the backdrop's bins and width, blurring little more than where h
    differs from the backdrop.

    The backdrop is blurred once. An output bin reads only the 2 * half + 1
    inputs around it, so where all of those hold the backdrop's bits, it is
    copied from the backdrop's blur. The other outputs are recomputed one run
    of differing bins at a time, by np.convolve over exactly the inputs they
    read: each is the same dot product, over the same window, as in the
    whole-row blur. Runs at most max(2 * half, _MIN_RUN_GAP) equal bins
    apart are blurred as one. With a kernel of at most _SHORT_KERNEL_TAPS
    taps, or wider than the backdrop, the function is convolve_irf itself.
    """
    if check("irf_dt_s", dt_s) == 0.0:
        return lambda h: convolve_irf(h, 0.0)
    half, kernel = _irf_kernel(backdrop.bin_width_s, dt_s)
    n, gap = backdrop.bins, max(2 * half, _MIN_RUN_GAP)
    if not _SHORT_KERNEL_TAPS < kernel.size <= n:
        # a short kernel blurs a whole row faster than its runs are found;
        # given a kernel wider than the row, np.convolve swaps its inputs
        return lambda h: convolve_irf(h, dt_s)
    bits = backdrop.counts.view(np.int64).copy()   # bits, not values: -0.0 is not +0.0
    blurred = convolve_irf(backdrop, dt_s).counts

    def blur(h: Histogram) -> Histogram:
        if h.bins != n or h.bin_width_s != backdrop.bin_width_s:
            raise ValueError(f"histogram has {h.bins} bins of {h.bin_width_s!r} s, the "
                             f"backdrop {n} of {backdrop.bin_width_s!r} s")
        counts, out = h.counts, blurred.copy()
        changed = np.flatnonzero(counts.view(np.int64) != bits)
        if not changed.size:   # h holds the backdrop's bits
            return Histogram(h.bin_width_s, out, h.t0_s)
        ends = np.flatnonzero(changed[1:] - changed[:-1] > gap + 1)   # a run ends at each
        firsts = [int(changed[0])] + changed[ends + 1].tolist()
        lasts = changed[ends].tolist() + [int(changed[-1])]
        for first, last in zip(firsts, lasts):
            out_lo, out_hi = max(0, first - half), min(n, last + 1 + half)
            in_lo, in_hi = max(0, out_lo - half), min(n, out_hi + half)
            if in_hi - in_lo == out_hi - out_lo + 2 * half:   # no edge in reach
                part = np.convolve(counts[in_lo:in_hi], kernel, mode="valid")
            else:   # an output per input, those near an edge over part of the kernel
                same = np.convolve(counts[in_lo:in_hi], kernel, mode="same")
                part = same[out_lo - in_lo: out_hi - in_lo]
            np.maximum(part, 0.0, out=out[out_lo:out_hi])
        return Histogram(h.bin_width_s, out, h.t0_s)

    return blur


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
    if check("noise_level", level) == 0:
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
