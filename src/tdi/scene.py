"""Synthetic 3D scenes: backgrounds, human-like silhouettes, depth rendering.

The scene model is deliberately flat: a silhouette is a binary raster placed
at a single depth, scaled on screen by 2/d (d = 3D distance of the placement)
and composited against a wall-plus-boxes background with nearest-surface-wins
occlusion. Rendering is a pure function of (scene, config); a pixel belongs
to a surface iff its center falls inside that surface's projected footprint.

A placement's footprint is a rectangle of the frame plus a boolean sub-mask
(`placement_rect`). `render` draws each sub-mask into one copy of the
background render, then compares that frame with the background once to
find the overlay: the ascending flat indices of the pixels the placements
changed, with their new depth and reflectance. The image it returns keeps
the overlay, so the histogram recomputes only those pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig, check

# Silhouette raster canvas (rows x cols). Cells are square; a mask of height
# _CANVAS_H cells represents a figure of native_height_m meters.
_CANVAS_H = 96
_CANVAS_W = 64


@dataclass
class Silhouette:
    """Binary raster of one figure plus its physical height at scale 1."""

    id: int
    mask: np.ndarray            # bool (H_s, W_s), True = figure
    native_height_m: float

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2 or not self.mask.any():
            raise ValueError("silhouette mask must be a 2-D raster with at least one set cell")
        if not 0 < self.native_height_m < math.inf:
            raise ValueError(f"native_height_m must be finite and > 0, got {self.native_height_m}")


@dataclass
class Placement:
    """One silhouette instance positioned in the scene.

    x, y, z are meters in camera coordinates (z along the optical axis,
    x right, y up). A mirrored placement at position x renders exactly as
    the horizontal flip of the unmirrored placement at -x.
    """

    silhouette: Silhouette
    x: float = 0.0
    y: float = 0.0
    z: float = 2.0
    mirrored: bool = False
    reflectivity: float = 1.0

    def __post_init__(self):
        check("reflectivity", self.reflectivity)

    def mirror(self) -> "Placement":
        """The horizontally mirrored counterpart of this placement."""
        return Placement(self.silhouette, -self.x, self.y, self.z,
                         not self.mirrored, self.reflectivity)


@dataclass
class Box:
    """Axis-aligned flat rectangle in the background (center x, y at depth z)."""

    x: float
    y: float
    z: float
    width: float
    height: float
    reflectivity: float = 1.0


@dataclass
class Background:
    """A wall and the boxes in front of it; with no boxes, a bare wall."""

    wall_depth_m: float = 4.0
    wall_reflectivity: float = 1.0
    objects: list = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.wall_depth_m < math.inf:
            raise ValueError(f"wall_depth_m must be finite and > 0, got {self.wall_depth_m}")
        for box in self.objects:
            if box.z >= self.wall_depth_m:
                raise ValueError(
                    f"background object at z={box.z} must be closer than the wall "
                    f"({self.wall_depth_m} m)")


@dataclass
class Scene:
    background: Background
    placements: list = field(default_factory=list)

    def mirror(self) -> "Scene":
        """Scene with every placement mirrored (background is static)."""
        return Scene(self.background, [p.mirror() for p in self.placements])


@dataclass
class DepthImage:
    """Per-pixel axial depth in meters (0 = no return) plus reflectivity.

    `overlay` is set by `render` when it draws a scene on a given backdrop:
    the scene's `Overlay` on that backdrop, which lists every pixel where
    this image differs from it. The arrays of such an image are read-only,
    so the overlay cannot go stale; edit copies of them instead, and a
    `DepthImage` built from the copies has no overlay.
    """

    depth_m: np.ndarray
    reflectance: np.ndarray
    overlay: Overlay | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.depth_m = np.asarray(self.depth_m, dtype=np.float64)
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64)
        if self.depth_m.shape != self.reflectance.shape or self.depth_m.ndim != 2:
            raise ValueError("depth and reflectance must be equal-shape 2-D grids")
        # min and max propagate NaN, so this needs no full-size mask
        if self.depth_m.size and not (self.depth_m.min() >= 0.0
                                      and math.isfinite(self.depth_m.max())):
            raise ValueError("depth values must be finite and >= 0")


def default_background() -> Background:
    """Wall at 4 m plus three boxes at staggered depths in distinct lateral thirds.

    The left/center/right objects sit at different depths, which makes the
    scene laterally asymmetric: a silhouette occludes different background
    content than its mirror image does, so mirrored scenes stop being
    indistinguishable in the time domain.
    """
    return Background(
        wall_depth_m=4.0,
        objects=[
            Box(x=-0.55, y=-0.35, z=1.5, width=0.45, height=0.90),
            Box(x=0.10, y=0.45, z=2.5, width=0.70, height=0.75),
            Box(x=0.80, y=-0.15, z=3.2, width=0.85, height=1.10),
        ],
    )


def scale_factor(d: float) -> float:
    """On-screen size scaling 2/d for an object at 3D distance d meters."""
    if not 0 < d < math.inf:
        raise ValueError(f"distance must be finite and > 0, got {d}")
    return 2.0 / d


def pixel_offsets(n: int) -> np.ndarray:
    """Signed pixel-center offsets from the optical axis, in pixels.

    Computed as (index - n/2) + 0.5 so the grid is exactly antisymmetric:
    offsets[n-1-j] == -offsets[j] bit for bit, which keeps mirrored scenes
    exactly mirror-consistent.
    """
    return (np.arange(n, dtype=np.float64) - n / 2.0) + 0.5


# ---------------------------------------------------------------------------
# Procedural silhouettes


def _fill_disc(mask, cy, cx, r):
    yy, xx = np.ogrid[: mask.shape[0], : mask.shape[1]]
    mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = True


def _fill_rect(mask, r0, r1, c0, c1):
    mask[max(r0, 0): max(r1, 0), max(c0, 0): max(c1, 0)] = True


def _fill_limb(mask, row, col, length, width, angle):
    # Oriented rectangle hinged at (row, col); angle measured from straight
    # down, positive toward +columns. Cells outside the canvas are dropped.
    yy, xx = np.indices(mask.shape)
    dy = yy - row
    dx = xx - col
    ca, sa = math.cos(angle), math.sin(angle)
    along = dy * ca + dx * sa
    across = -dy * sa + dx * ca
    mask[(along >= 0) & (along <= length) & (np.abs(across) <= width / 2.0)] = True


def _human_mask(rng) -> np.ndarray:
    m = np.zeros((_CANVAS_H, _CANVAS_W), dtype=bool)
    cx = _CANVAS_W // 2
    head_r = int(rng.integers(7, 10))
    head_cy = 3 + head_r
    _fill_disc(m, head_cy, cx, head_r)

    shoulder = head_cy + head_r + 3
    hip = int(rng.integers(52, 58))
    half_torso = int(rng.integers(8, 12))
    _fill_rect(m, shoulder, hip, cx - half_torso, cx + half_torso)
    _fill_rect(m, head_cy + head_r - 1, shoulder + 1, cx - 3, cx + 3)  # neck

    for side in (-1, 1):
        angle = side * math.radians(rng.uniform(8.0, 80.0))
        _fill_limb(m, shoulder + 2, cx + side * (half_torso - 2),
                   rng.uniform(26.0, 34.0), rng.uniform(5.0, 7.0), angle)
    for side in (-1, 1):
        angle = side * math.radians(rng.uniform(2.0, 22.0))
        _fill_limb(m, hip - 2, cx + side * (half_torso // 2),
                   rng.uniform(32.0, 38.0), rng.uniform(7.0, 9.0), angle)
    return m


def generate_silhouettes(count: int, seed: int) -> list:
    """Build `count` connected human-like masks, deterministic per seed.

    Every figure is assembled from a head disc, torso rectangle, and four
    limb rectangles hinged inside the torso, so connectivity holds by
    construction. Pose angles and proportions are drawn from the seed.
    """
    check("n_silhouettes", count)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        mask = _human_mask(rng)
        height = float(rng.uniform(1.5, 2.0))  # meters, within (0.5, 2.5)
        out.append(Silhouette(id=i, mask=mask, native_height_m=height))
    return out


# ---------------------------------------------------------------------------
# Rendering


def _silhouette_rect(sil: Silhouette, x: float, y: float, z: float,
                     cfg: SimConfig):
    """In-frame footprint of an unmirrored silhouette at (x, y, z).

    Returns (r0, c0, sub): the footprint covers rows r0 to r0 + sub.shape[0]
    and columns c0 to c0 + sub.shape[1] of the frame, as the boolean sub-mask
    `sub`; no pixel outside that rectangle is covered.
    """
    h_mask, w_mask = sil.mask.shape
    d = math.sqrt(x * x + y * y + z * z)
    f = cfg.focal_px
    # Screen height in pixels: native height scaled by 2/d, calibrated so an
    # on-axis figure matches the pinhole projection of its native height.
    h_px = sil.native_height_m * (f / 2.0) * scale_factor(d)
    cell = h_px / h_mask  # screen pixels per mask cell
    u_c = cfg.img_w / 2.0 + f * (x / z)
    v_c = cfg.img_h / 2.0 - f * (y / z)

    # pixel centers j + 0.5: exactly pixel_offsets(n) + n / 2
    u = np.arange(cfg.img_w) + 0.5    # columns
    v = np.arange(cfg.img_h) + 0.5    # rows
    cols = np.floor((u - u_c) / cell + w_mask / 2.0).astype(np.int64)
    rows = np.floor((v - v_c) / cell + h_mask / 2.0).astype(np.int64)

    # rows and cols are nondecreasing, so the in-mask ones are one range each
    # (array methods: the np.* wrappers cost more than these small calls)
    r0, r1 = rows.searchsorted((0, h_mask)).tolist()
    c0, c1 = cols.searchsorted((0, w_mask)).tolist()
    return r0, c0, sil.mask.take(rows[r0:r1], axis=0).take(cols[c0:c1], axis=1)


def placement_rect(p: Placement, cfg: SimConfig):
    """(r0, c0, sub) of a placement, as `_silhouette_rect` gives them.

    A mirrored placement flips the rectangle and sub-mask of the placement at
    -x, so a scene and its mirror render as exact flips.
    """
    if not p.mirrored:
        return _silhouette_rect(p.silhouette, p.x, p.y, p.z, cfg)
    r0, c0, sub = _silhouette_rect(p.silhouette, -p.x, p.y, p.z, cfg)
    return r0, cfg.img_w - c0 - sub.shape[1], sub[:, ::-1]


def render_background(bg: Background, cfg: SimConfig) -> DepthImage:
    """The background alone: the wall fills the frame, closer boxes overwrite it.

    Its arrays are read-only, as a render's are: `forward.backdrop_returns`
    caches returns computed from them, which a later write would leave stale.
    A wall beyond z_max is refused.
    """
    if bg.wall_depth_m > cfg.z_max:
        raise ValueError(f"wall depth {bg.wall_depth_m} m exceeds z_max {cfg.z_max} m")
    depth = np.full((cfg.img_h, cfg.img_w), bg.wall_depth_m, dtype=np.float64)
    refl = np.full((cfg.img_h, cfg.img_w), bg.wall_reflectivity, dtype=np.float64)

    u = pixel_offsets(cfg.img_w)
    v = pixel_offsets(cfg.img_h)
    f = cfg.focal_px

    for box in bg.objects:
        x_at_z = (u / f) * box.z           # world x of pixel centers at box depth
        y_at_z = -(v / f) * box.z          # world y (rows grow downward)
        in_x = np.abs(x_at_z - box.x) <= box.width / 2.0
        in_y = np.abs(y_at_z - box.y) <= box.height / 2.0
        hit = np.outer(in_y, in_x) & (box.z < depth)
        depth[hit] = box.z
        refl[hit] = box.reflectivity
    depth.flags.writeable = refl.flags.writeable = False
    return DepthImage(depth_m=depth, reflectance=refl)


@dataclass
class Overlay:
    """A scene as what its placements change on its background render.

    `backdrop` is the render it is drawn on, `pixels` the ascending
    row-major flat indices of the changed pixels, and `depth_m` and
    `reflectance` their values once every placement is drawn. Drawing only
    ever brings a pixel closer, so the changed pixels are those whose depth
    dropped.
    """

    backdrop: DepthImage = field(repr=False)
    pixels: np.ndarray          # (k,) int64, ascending
    depth_m: np.ndarray         # (k,) float64
    reflectance: np.ndarray     # (k,) float64


def render(scene: Scene, cfg: SimConfig, backdrop: DepthImage | None = None) -> DepthImage:
    """Project a scene to a depth + reflectance image (nearest surface wins).

    The background wall fills the frame, background boxes and silhouettes
    overwrite pixels they cover whenever they are closer than what is
    already there. Placements that project fully outside the frame simply
    leave no footprint. `backdrop`, when given, must be
    `render_background(scene.background, cfg)`; each placement's sub-mask is
    drawn into one copy of it, so one background render serves many scenes.
    The read-only image keeps its `Overlay` on that backdrop, so
    `forward.simulate_histogram` can recompute only the pixels it lists.
    """
    if backdrop is None:
        backdrop = render_background(scene.background, cfg)
    depth, refl = backdrop.depth_m.copy(), backdrop.reflectance.copy()
    for p in scene.placements:
        if not (cfg.z_min <= p.z <= cfg.z_max):
            raise ValueError(
                f"placement depth {p.z} m outside configured range "
                f"[{cfg.z_min}, {cfg.z_max}] m")
        r0, c0, sub = placement_rect(p, cfg)
        at = (slice(r0, r0 + sub.shape[0]), slice(c0, c0 + sub.shape[1]))
        hit = sub & (p.z < depth[at])
        depth[at][hit] = p.z
        refl[at][hit] = p.reflectivity
    pixels = np.flatnonzero(depth < backdrop.depth_m)
    depth.flags.writeable = refl.flags.writeable = False
    drawn = Overlay(backdrop, pixels, depth.take(pixels), refl.take(pixels))
    return DepthImage(depth_m=depth, reflectance=refl, overlay=drawn)


def augment(silhouettes: list, background: Background, cfg: SimConfig,
            depth_steps: int = 10, lateral_steps: int = 20,
            reflectivity: float = 1.0) -> list:
    """Cartesian product of depths x lateral positions x {plain, mirrored}.

    Depths span [z_min, z_max]; lateral positions span the field of view at
    each depth. Defaults give 10 * 20 * 2 = 400 scenes per silhouette.
    Output order is silhouette-major, then depth, lateral, mirror, so the
    list is fully deterministic.
    """
    if not silhouettes:
        raise ValueError("need at least one silhouette")
    check("depth_steps", depth_steps)
    check("lateral_steps", lateral_steps)
    half_tan = math.tan(cfg.fov_rad / 2.0)
    depths = np.linspace(cfg.z_min, cfg.z_max, depth_steps).tolist()
    scenes = []
    for sil in silhouettes:
        for z in depths:
            base = np.linspace(-z * half_tan, z * half_tan, lateral_steps)
            xs = (base - base[::-1]) / 2.0  # exactly antisymmetric grid
            for x in xs.tolist():
                for mirrored in (False, True):
                    scenes.append(Scene(background, [
                        Placement(sil, x, 0.0, z, mirrored, reflectivity)
                    ]))
    return scenes


def normalize_image(img: DepthImage, z_max: float) -> np.ndarray:
    """Flatten to a row-major vector in [0, 1]: depth / z_max, 0 = no return."""
    check("z_max", z_max)
    peak = float(img.depth_m.max())
    if peak > z_max:
        raise ValueError(f"image contains depth {peak} m beyond z_max {z_max} m")
    return (img.depth_m / z_max).ravel()
