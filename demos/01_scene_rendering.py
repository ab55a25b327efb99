"""Build synthetic scenes and render color-encoded depth images.

Generates a handful of procedural human silhouettes, places one in front of
the default structured background at a few depths, and writes the rendered
depth maps as 16-bit graymaps you can open with any image viewer.

Run:  python demos/01_scene_rendering.py
"""

import pathlib

from tdi import scene, store
from tdi.config import SimConfig

out_dir = pathlib.Path("demo_output/scenes")
out_dir.mkdir(parents=True, exist_ok=True)

cfg = SimConfig()  # 64x64 pixels, 52 degree field of view, 1-4 m depth range
silhouettes = scene.generate_silhouettes(count=4, seed=7)
print(f"generated {len(silhouettes)} silhouettes "
      f"({silhouettes[0].mask.shape[0]}x{silhouettes[0].mask.shape[1]} cells each)")

# The same figure walks away from the camera; note how the footprint shrinks
# with the 2/d scaling and how the background boxes occlude or get occluded.
for z in (1.5, 2.0, 3.0, 3.8):
    sc = scene.Scene(scene.default_background(),
                     [scene.Placement(silhouettes[0], x=0.4, z=z)])
    img = scene.render(sc, cfg)
    path = out_dir / f"depth_z{z:.1f}.pgm"
    store.export_depth_pgm(img.depth_m / cfg.z_max, path)
    footprint = (img.depth_m == z).sum()
    print(f"z = {z:.1f} m: silhouette covers {footprint:4d} pixels -> {path}")

# A mirrored placement renders as the exact horizontal flip.
sc = scene.Scene(scene.Background(),
                 [scene.Placement(silhouettes[1], x=0.6, z=2.0)])
store.export_depth_pgm(scene.render(sc, cfg).depth_m / cfg.z_max,
                       out_dir / "plain.pgm")
store.export_depth_pgm(scene.render(sc.mirror(), cfg).depth_m / cfg.z_max,
                       out_dir / "mirrored.pgm")
print("wrote plain.pgm / mirrored.pgm (exact flips of each other)")
