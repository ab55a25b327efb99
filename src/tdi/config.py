"""Shared configuration for the simulation and retrieval pipeline.

All lengths are meters, all times are seconds. A single SimConfig instance
describes the virtual camera, the depth range of the scene, and the
time-binning of the single-point detector; every stage of the pipeline reads
its knobs from here so that a run is reproducible from the config alone.

SETTINGS is the one table of config-file and manifest keys: each key's owner
and parser. read_settings turns a file into a typed dict and rejects unknown
keys; format_setting writes values that read back exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SPEED_OF_LIGHT = 299792458.0  # m/s

# Fractional noise expectation for noise levels 0..3 (relative perturbation
# of the nonzero histogram bins).
NOISE_FRACTIONS = (0.0, 0.032, 0.10, 0.33)

# Default sweep grids for the study drivers.
IRF_SWEEP_S = (2.3e-12, 25e-12, 250e-12, 1000e-12)
DATASET_SIZE_SWEEP = (500, 1000, 2000, 4000)
REFLECTIVITY_SWEEP = (0.5, 1.0, 1.5, 2.0)
REFLECTIVITY_TRAIN_RANGE = (0.25, 4.0)
# How the reflectivity sweep trains: at R = 1, or over REFLECTIVITY_TRAIN_RANGE.
REFLECTIVITY_TRAININGS = ("fixed", "varied")

TIME_CONVENTIONS = ("round_trip", "one_way")


@dataclass
class SimConfig:
    """Virtual camera + detector description.

    bin_width_s defaults to a value that makes the histogram span the full
    round trip to z_max plus range_margin_m, so every valid scene fits.
    """

    fov_deg: float = 52.0          # full angular field of view
    img_w: int = 64
    img_h: int = 64
    z_min: float = 1.0             # nearest allowed placement depth [m]
    z_max: float = 4.0             # wall depth / farthest return [m]
    bins: int = 8000
    bin_width_s: float | None = None
    p0: float = 100.0              # source power scale (photons at 1 m, unit reflectivity)
    time_convention: str = "round_trip"
    irf_dt_s: float = 0.0          # Gaussian IRF 1/e half-width, 0 = ideal
    noise_level: int = 0           # 0..3
    seed: int = 0
    range_margin_m: float = 1.0    # slack beyond z_max covered by the histogram

    def __post_init__(self):
        if self.fov_deg <= 0 or self.fov_deg >= 180:
            raise ValueError(f"fov_deg must be in (0, 180), got {self.fov_deg}")
        if self.img_w < 8 or self.img_h < 8:
            raise ValueError("image resolution must be at least 8x8")
        if not (0 < self.z_min < self.z_max):
            raise ValueError("need 0 < z_min < z_max")
        if self.bins < 2:
            raise ValueError("need at least 2 histogram bins")
        if self.time_convention not in TIME_CONVENTIONS:
            raise ValueError(f"unknown time convention {self.time_convention!r}")
        if self.irf_dt_s < 0:
            raise ValueError("irf_dt_s must be >= 0")
        if not 0 <= self.noise_level < len(NOISE_FRACTIONS):
            raise ValueError(f"noise_level must be 0..{len(NOISE_FRACTIONS) - 1}")
        if self.p0 <= 0:
            raise ValueError("p0 must be positive")
        if self.bin_width_s is None:
            span = 2.0 * (self.z_max + self.range_margin_m)
            self.bin_width_s = span / (SPEED_OF_LIGHT * self.bins)
        if self.bin_width_s <= 0:
            raise ValueError("bin_width_s must be positive")
        if self.time_convention == "round_trip":
            reach = self.bins * self.bin_width_s * SPEED_OF_LIGHT / 2.0
            if reach < self.z_max:
                raise ValueError(
                    f"histogram spans only {reach:.3f} m round-trip, scene needs {self.z_max} m"
                )

    @property
    def fov_rad(self) -> float:
        return math.radians(self.fov_deg)

    @property
    def focal_px(self) -> float:
        """Pinhole focal length in pixels (square pixels, fov across width)."""
        return (self.img_w / 2.0) / math.tan(self.fov_rad / 2.0)

    def with_(self, **kw) -> "SimConfig":
        if ({"bins", "z_max", "range_margin_m"} & kw.keys()) and "bin_width_s" not in kw:
            kw["bin_width_s"] = None  # re-derive span-covering width for the new geometry
        return replace(self, **kw)


def desk_sim(seed: int = 0) -> SimConfig:
    """Small configuration sized so the full pipeline runs in minutes on a laptop."""
    return SimConfig(img_w=32, img_h=32, bins=2000, seed=seed)


def paper_sim(seed: int = 0) -> SimConfig:
    """Full-size configuration (64x64 images, 8000 bins)."""
    return SimConfig(seed=seed)


# ---------------------------------------------------------------------------
# Plain-text config files: one `key = value` per line, '#' comments, SI units.
# SETTINGS names every key a config file or manifest may hold, with its owner
# and the parser of its value. Owners are names, not imports, because every
# module imports this one: "sim" is SimConfig, "recipe" DatasetRecipe, "train"
# TrainConfig, "sweep" the arguments of the sweeps, and "manifest" what a
# manifest records about its run but no command reads back.

def parse_range(text: str) -> tuple:
    """`lo:hi` as a (lo, hi) float pair."""
    lo, hi = text.split(":")
    return float(lo), float(hi)


def parse_training(text: str) -> str:
    """How the reflectivity sweep trains: `fixed` or `varied`."""
    if text not in REFLECTIVITY_TRAININGS:
        raise ValueError("expected " + " or ".join(REFLECTIVITY_TRAININGS))
    return text


SETTINGS = {
    "command": ("manifest", str),
    "tool_version": ("manifest", str),
    "dataset": ("manifest", str),
    "model": ("manifest", str),
    "histogram": ("manifest", str),
    "gallery": ("manifest", int),
    "fov_deg": ("sim", float),
    "img_w": ("sim", int),
    "img_h": ("sim", int),
    "z_min": ("sim", float),
    "z_max": ("sim", float),
    "bins": ("sim", int),
    "bin_width_s": ("sim", float),
    "p0": ("sim", float),
    "time_convention": ("sim", str),
    "irf_dt_s": ("sim", float),
    "noise_level": ("sim", int),
    "seed": ("sim train", int),        # seeds the simulation and the trainer
    "range_margin_m": ("sim", float),
    "n_silhouettes": ("recipe", int),
    "depth_steps": ("recipe", int),
    "lateral_steps": ("recipe", int),
    "background": ("recipe", str),
    "reflectivity": ("recipe", float),
    "reflectivity_range": ("recipe", parse_range),
    "epochs": ("train", int),
    "batch_size": ("train", int),
    "learning_rate": ("train", float),
    "validation_fraction": ("train", float),
    "n_test": ("sweep", int),
    "reflectivity_training": ("sweep", parse_training),
}

SWEEP_DEFAULTS = {"n_test": 200, "reflectivity_training": "fixed"}


def owned(values: dict, owner: str) -> dict:
    """The items of `values` whose key belongs to `owner`."""
    return {k: v for k, v in values.items()
            if k in SETTINGS and owner in SETTINGS[k][0].split()}


def format_setting(value) -> str:
    """Value text its key's parser reads back exactly: repr for floats, lo:hi for a range."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ":".join(format_setting(float(v)) for v in value)
    return str(value)


def parse_settings(text: str) -> dict:
    """Typed settings from `key = value` lines; manifest-only keys are skipped.

    An unknown key or a value its parser rejects raises ValueError naming the line.
    """
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in SETTINGS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        owners, parse = SETTINGS[key]
        if owners == "manifest":
            continue
        try:
            out[key] = parse(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad {key} {value!r}: {exc}") from None
    return out


def read_settings(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_settings(fh.read())
