"""Shared configuration for the simulation and retrieval pipeline.

All lengths are meters, all times are seconds. A single SimConfig instance
describes the virtual camera, the depth range of the scene, and the
time-binning of the single-point detector; every stage of the pipeline reads
its knobs from here so that a run is reproducible from the config alone.

SETTINGS is the one table of config-file and manifest keys: each key's owner,
parser and rule (its valid values); every boundary that takes a setting holds
it to its rule through `check`. parse_settings turns a file's text into a typed
dict and rejects unknown keys; format_setting writes values that read back exactly.
"""

from __future__ import annotations

import math
import numbers
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
        check_owned(self, "sim")
        if not self.z_min < self.z_max:
            raise ValueError(f"need z_min < z_max, got {self.z_min} and {self.z_max}")
        if self.bin_width_s is None:
            span = 2.0 * (self.z_max + self.range_margin_m)
            self.bin_width_s = check("bin_width_s", span / (SPEED_OF_LIGHT * self.bins))
        reach = self.bins * self.bin_width_s * SPEED_OF_LIGHT / self.path_factor
        if reach < self.z_max:
            raise ValueError(f"histogram reaches only {reach:.3f} m ({self.time_convention}), "
                             f"scene needs {self.z_max} m")

    @property
    def path_factor(self) -> float:
        """Light's path over the distance to the target: 2 round trip, 1 one way."""
        return 2.0 if self.time_convention == "round_trip" else 1.0

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
# SETTINGS names every key a config file or manifest may hold, with its owner,
# the parser of its value and its rule. Owners are names, not imports, because
# every module imports this one: "sim" is SimConfig, "recipe" DatasetRecipe,
# "train" TrainConfig, "sweep" the arguments of the sweeps, and "manifest" what
# a manifest records about its run but no command reads back. A rule is a test,
# false for NaN, and the words that name it; None lets any parsed value through.

def parse_range(text: str) -> tuple:
    """`lo:hi` as a (lo, hi) float pair."""
    lo, hi = text.split(":")
    return float(lo), float(hi)


def _integer(lo: int, hi: int | None = None) -> tuple:
    """Rule of an integer setting: lo..hi, or >= lo (`int` first: the ABC check is slow)."""
    top = math.inf if hi is None else hi
    words = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"
    return (lambda v: isinstance(v, (int, numbers.Integral)) and lo <= v <= top), words


def _one_of(choices) -> tuple:
    return (lambda v: v in choices), " or ".join(choices)


_POSITIVE = (lambda v: 0 < v < math.inf), "finite and > 0"
_NOT_NEGATIVE = (lambda v: 0 <= v < math.inf), "finite and >= 0"

SETTINGS = {
    "command": ("manifest", str, None),
    "tool_version": ("manifest", str, None),
    "dataset": ("manifest", str, None),
    "model": ("manifest", str, None),
    "histogram": ("manifest", str, None),
    "gallery": ("manifest", int, None),
    "fov_deg": ("sim", float, ((lambda v: 0 < v < 180), "in (0, 180)")),
    "img_w": ("sim", int, _integer(8)),
    "img_h": ("sim", int, _integer(8)),
    "z_min": ("sim", float, _POSITIVE),
    "z_max": ("sim", float, _POSITIVE),
    "bins": ("sim", int, _integer(2)),
    "bin_width_s": ("sim", float, _POSITIVE),     # None: derived from the span
    "p0": ("sim", float, _POSITIVE),
    "time_convention": ("sim", str, _one_of(TIME_CONVENTIONS)),
    "irf_dt_s": ("sim", float, _NOT_NEGATIVE),
    "noise_level": ("sim", int, _integer(0, len(NOISE_FRACTIONS) - 1)),
    "seed": ("sim train", int, _integer(0)),     # seeds the simulation and the trainer
    "range_margin_m": ("sim", float, _NOT_NEGATIVE),
    "n_silhouettes": ("recipe", int, _integer(1)),
    "depth_steps": ("recipe", int, _integer(1)),
    "lateral_steps": ("recipe", int, _integer(1)),
    "background": ("recipe", str, None),
    "reflectivity": ("recipe", float, _POSITIVE),
    "reflectivity_range": ("recipe", parse_range,   # None: every scene at `reflectivity`
                           ((lambda r: len(r) == 2 and 0 < r[0] <= r[1] < math.inf),
                            "lo:hi with 0 < lo <= hi < inf")),
    "epochs": ("train", int, _integer(1)),
    "batch_size": ("train", int, _integer(1)),
    "learning_rate": ("train", float, _POSITIVE),
    "validation_fraction": ("train", float, ((lambda v: 0 < v < 1), "in (0, 1)")),
    "n_test": ("sweep", int, _integer(1)),
    "reflectivity_training": ("sweep", str, _one_of(REFLECTIVITY_TRAININGS)),
}

# The only keys whose value may be None; the table's comments say what it means.
NONE_ALLOWED = frozenset({"bin_width_s", "reflectivity_range"})

SWEEP_DEFAULTS = {"n_test": 200, "reflectivity_training": "fixed"}


def owned(values: dict, owner: str) -> dict:
    """The items of `values` whose key belongs to `owner`."""
    return {k: v for k, v in values.items()
            if k in SETTINGS and owner in SETTINGS[k][0].split()}


def check(key: str, value):
    """`value` if it meets `key`'s rule; else a ValueError naming the key.

    None passes only for the keys in NONE_ALLOWED.
    """
    rule = SETTINGS[key][2]
    if value is None:
        if key not in NONE_ALLOWED:
            raise ValueError(f"{key} must be {rule[1] if rule else 'set'}, got None")
    elif rule is not None and not rule[0](value):
        raise ValueError(f"{key} must be {rule[1]}, got {value!r}")
    return value


def check_owned(obj, owner: str) -> None:
    """`check` each field of dataclass `obj` whose key belongs to `owner`."""
    for key, value in owned(vars(obj), owner).items():
        check(key, value)


def format_setting(value) -> str:
    """Value text its key's parser reads back exactly: repr for floats, lo:hi for a range."""
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ":".join(format_setting(float(v)) for v in value)
    return str(value)


def parse_settings(text: str) -> dict:
    """Typed settings from `key = value` lines; manifest-only keys are skipped.

    An unknown key or a value its parser or rule rejects raises ValueError naming the line.
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
        owners, parse, _ = SETTINGS[key]
        if owners == "manifest":
            continue
        try:
            out[key] = check(key, parse(value))
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad {key} {value!r}: {exc}") from None
    return out

