"""Command-line driver for the simulation / training / evaluation pipeline.

Subcommands: gen, train, eval, predict, sweep, resolve. Every run writes a
manifest.cfg (resolved configuration + seed + tool version) next to its
outputs; feeding that file back through --config reproduces the run.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, forward, metrics, mlp, pipeline, store
from .atomic import write_atomic
from .config import (SimConfig, load_sim_config, parse_config_text,
                     sim_config_items)

_PRESETS = {"desk": pipeline.desk_recipe, "paper": pipeline.paper_recipe}

RESOLVE_DISTANCES_M = (2.0, 4.0, 10.0, 20.0)
RESOLVE_TIMINGS_S = (2.3e-12, 25e-12, 250e-12, 670e-12, 1000e-12)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_manifest(out_dir, command: str, extra: dict, cfg: SimConfig | None = None) -> str:
    lines = [f"# run manifest, written {_utc_now()}",
             f"command = {command}",
             f"tool_version = {__version__}"]
    if cfg is not None:
        lines += [f"{k} = {v}" for k, v in sim_config_items(cfg)]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = os.path.join(out_dir, "manifest.cfg")
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])
    return path


def _load_extras(path) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _build_recipe(args) -> pipeline.DatasetRecipe:
    recipe = _PRESETS[args.preset](seed=getattr(args, "seed", None) or 0)
    extras = _load_extras(getattr(args, "config", None))
    if args.config:
        recipe = replace(recipe, sim=load_sim_config(args.config, base=recipe.sim))
    for key in ("n_silhouettes", "depth_steps", "lateral_steps", "background"):
        if key in extras:
            cast = str if key == "background" else int
            recipe = replace(recipe, **{key: cast(extras[key])})
    if "reflectivity" in extras:
        recipe = replace(recipe, reflectivity=float(extras["reflectivity"]))
    if "reflectivity_range" in extras:
        lo, hi = extras["reflectivity_range"].split(":")
        recipe = replace(recipe, reflectivity_range=(float(lo), float(hi)))

    sim = recipe.sim
    if getattr(args, "seed", None) is not None:
        sim = replace(sim, seed=args.seed)
    if getattr(args, "irf", None) is not None:
        sim = replace(sim, irf_dt_s=args.irf)
    if getattr(args, "noise", None) is not None:
        sim = replace(sim, noise_level=args.noise)
    recipe = replace(recipe, sim=sim)

    if getattr(args, "count", None) is not None:
        recipe = replace(recipe, n_silhouettes=args.count)
    if getattr(args, "background", None) is not None:
        recipe = replace(recipe, background=args.background)
    if getattr(args, "reflectivity", None) is not None:
        recipe = replace(recipe, reflectivity=args.reflectivity, reflectivity_range=None)
    if getattr(args, "reflectivity_range", None) is not None:
        lo, hi = (float(v) for v in args.reflectivity_range.split(":"))
        recipe = replace(recipe, reflectivity_range=(lo, hi))
    return recipe


def _build_train_config(args, extras: dict) -> mlp.TrainConfig:
    tc = mlp.TrainConfig()
    for key, cast in (("epochs", int), ("batch_size", int), ("learning_rate", float),
                      ("validation_fraction", float), ("seed", int)):
        if key in extras:
            tc = replace(tc, **{key: cast(extras[key])})
    if getattr(args, "epochs", None) is not None:
        tc = replace(tc, epochs=args.epochs)
    if getattr(args, "batch", None) is not None:
        tc = replace(tc, batch_size=args.batch)
    if getattr(args, "seed", None) is not None:
        tc = replace(tc, seed=args.seed)
    return tc


def _recipe_items(recipe: pipeline.DatasetRecipe) -> dict:
    items = {"n_silhouettes": recipe.n_silhouettes,
             "depth_steps": recipe.depth_steps,
             "lateral_steps": recipe.lateral_steps,
             "background": recipe.background,
             "reflectivity": repr(recipe.reflectivity)}
    if recipe.reflectivity_range is not None:
        lo, hi = recipe.reflectivity_range
        items["reflectivity_range"] = f"{lo!r}:{hi!r}"
    return items


def cmd_gen(args) -> int:
    recipe = _build_recipe(args)
    os.makedirs(args.out, exist_ok=True)
    ds = pipeline.generate_dataset(recipe)
    path = os.path.join(args.out, "dataset.tdid")
    store.write_dataset(path, ds)
    write_manifest(args.out, "gen", _recipe_items(recipe), cfg=recipe.sim)
    print(f"wrote {len(ds)} pairs to {path}")
    return 0


def cmd_train(args) -> int:
    extras = _load_extras(args.config)
    tc = _build_train_config(args, extras)
    ds = store.read_dataset(args.dataset)
    os.makedirs(args.out, exist_ok=True)
    model, history = mlp.train((ds.histograms, ds.images), tc)
    model_path = os.path.join(args.out, "model.tdim")
    store.write_model(model_path, model)
    store.write_csv(os.path.join(args.out, "history.csv"), "epoch,train_loss,val_loss",
                    [(e + 1, repr(history.train_loss[e]), repr(history.val_loss[e]))
                     for e in range(len(history.train_loss))])
    write_manifest(args.out, "train", {
        "dataset": args.dataset, "bins": ds.bins,
        "img_w": ds.img_w, "img_h": ds.img_h,
        "epochs": tc.epochs, "batch_size": tc.batch_size,
        "validation_fraction": repr(tc.validation_fraction),
        "learning_rate": repr(tc.learning_rate),
        "seed": tc.seed,
    })
    print(f"trained {tc.epochs} epochs, final train loss "
          f"{history.train_loss[-1]:.3e}; wrote {model_path}")
    return 0


def cmd_eval(args) -> int:
    model = store.read_model(args.model)
    ds = store.read_dataset(args.dataset)
    if model.layer_dims[0] != ds.bins:
        raise ValueError(f"model expects {model.layer_dims[0]} bins, dataset has {ds.bins}")
    if model.layer_dims[-1] != ds.img_w * ds.img_h:
        raise ValueError("model output size does not match dataset image size")
    os.makedirs(args.out, exist_ok=True)

    x, y = ds.histograms, ds.images
    per_pair, overall = pipeline.evaluate_model(model, x, y, ds.img_w, ds.img_h)
    rows = [(i, repr(v)) for i, v in enumerate(per_pair)] + [("overall", repr(overall))]
    store.write_csv(os.path.join(args.out, "ssim.csv"), "pair,mean_ssim", rows)

    preds = np.clip(mlp.forward(model, x[: args.gallery]), 0.0, 1.0)
    preds = np.atleast_2d(preds)
    for i in range(min(args.gallery, len(ds))):
        pred = preds[i].reshape(ds.img_h, ds.img_w).astype(np.float64)
        truth = y[i].reshape(ds.img_h, ds.img_w).astype(np.float64)
        smap = metrics.ssim(pred, truth).map
        store.export_depth_pgm(pred, os.path.join(args.out, f"{i:04d}_pred.pgm"))
        store.export_depth_pgm(truth, os.path.join(args.out, f"{i:04d}_truth.pgm"))
        store.export_ssim_pgm(smap, os.path.join(args.out, f"{i:04d}_ssim.pgm"))
    write_manifest(args.out, "eval",
                   {"model": args.model, "dataset": args.dataset,
                    "gallery": args.gallery, "seed": args.seed})
    print(f"overall mean SSIM over {len(ds)} pairs: {overall:.4f}")
    return 0


def cmd_predict(args) -> int:
    model = store.read_model(args.model)
    recipe = _build_recipe(args)
    h = forward.read_histogram_csv(args.histogram)
    os.makedirs(args.out, exist_ok=True)
    img = mlp.predict(model, h, recipe.sim)
    out_path = os.path.join(args.out, "prediction.pgm")
    store.export_depth_pgm(img.depth_m / recipe.sim.z_max, out_path)
    write_manifest(args.out, "predict",
                   {"model": args.model, "histogram": args.histogram},
                   cfg=recipe.sim)
    print(f"wrote {out_path}")
    return 0


def cmd_sweep(args) -> int:
    recipe = _build_recipe(args)
    extras = _load_extras(args.config)
    tc = _build_train_config(args, extras)
    os.makedirs(args.out, exist_ok=True)
    n_test = args.n_test

    if args.kind == "reflectivity":
        points = pipeline.sweep_reflectivity(recipe, tc, n_test,
                                             training=args.reflectivity_training)
    else:
        raw = pipeline.simulate_raw(recipe)
        if args.kind == "irf":
            points = pipeline.sweep_irf(raw, tc, n_test)
        elif args.kind == "noise":
            points = pipeline.sweep_noise(raw, tc, n_test)
        else:
            points = pipeline.sweep_dataset_size(raw, tc, n_test)

    rows = []
    for p in points:
        if p.mean_ssim is None:
            rows.append((p.label, "failed"))
            print(f"sweep point {p.label} failed: {p.error}", file=sys.stderr)
        else:
            rows.append((p.label, repr(p.mean_ssim)))
    store.write_csv(os.path.join(args.out, "sweep.csv"), "point,mean_ssim", rows)
    write_manifest(args.out, f"sweep:{args.kind}", {
        **_recipe_items(recipe), "epochs": tc.epochs, "batch_size": tc.batch_size,
        "n_test": n_test,
    }, cfg=recipe.sim)
    for label, value in rows:
        print(f"{label}: {value}")
    return 0


def cmd_resolve(args) -> int:
    distances = [args.distance] if args.distance is not None else list(RESOLVE_DISTANCES_M)
    timings = [args.irf] if args.irf is not None else list(RESOLVE_TIMINGS_S)
    print(f"{'distance_m':>10} {'irf_s':>10} {'lateral_m':>10} {'depth_m':>10}")
    for d in distances:
        for dt in timings:
            lat = metrics.lateral_resolution(d, dt)
            dep = metrics.depth_resolution(dt)
            print(f"{d:>10.2f} {dt:>10.3e} {lat:>10.4f} {dep:>10.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdi",
        description="Single-point time-of-flight imaging pipeline")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--preset", choices=sorted(_PRESETS), default="desk")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a histogram/image dataset")
    common(p)
    p.add_argument("--count", type=int, help="number of silhouettes")
    p.add_argument("--background", choices=pipeline.BACKGROUND_KINDS)
    p.add_argument("--reflectivity", type=float, help="fixed silhouette reflectivity")
    p.add_argument("--reflectivity-range", dest="reflectivity_range", metavar="LO:HI",
                   help="per-scene log-uniform silhouette reflectivity")
    p.add_argument("--irf", type=float, help="Gaussian IRF 1/e half-width [s]")
    p.add_argument("--noise", type=int, choices=(0, 1, 2, 3))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the inverse model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on a dataset (SSIM)")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gallery", type=int, default=8,
                   help="export graymaps for the first K pairs (0 = none)")
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="reconstruct one histogram CSV into a graymap")
    p.add_argument("--model", required=True)
    p.add_argument("--histogram", required=True, help="CSV with bin_start_s,count rows")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="run one of the study sweeps")
    p.add_argument("--kind", required=True,
                   choices=("irf", "noise", "dataset-size", "reflectivity"))
    common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--n-test", dest="n_test", type=int, default=200)
    p.add_argument("--reflectivity-training", dest="reflectivity_training",
                   choices=("fixed", "varied"), default="fixed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("resolve", help="print the resolution model table")
    p.add_argument("--distance", type=float, help="distance from the sensor [m]")
    p.add_argument("--irf", type=float, help="timing resolution [s]")
    p.set_defaults(func=cmd_resolve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
