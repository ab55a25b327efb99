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

from . import __version__, metrics, mlp, pipeline, store
from .config import (NOISE_FRACTIONS, REFLECTIVITY_TRAININGS, SETTINGS, SWEEP_DEFAULTS,
                     format_setting, owned, parse_range)

_PRESETS = {"desk": pipeline.desk_recipe, "paper": pipeline.paper_recipe}
# Each sweep kind and the pipeline function that runs it.
_SWEEPS = {"irf": pipeline.sweep_irf, "noise": pipeline.sweep_noise,
           "dataset-size": pipeline.sweep_dataset_size,
           "reflectivity": pipeline.sweep_reflectivity}

RESOLVE_DISTANCES_M = (2.0, 4.0, 10.0, 20.0)
RESOLVE_TIMINGS_S = (2.3e-12, 25e-12, 250e-12, 670e-12, 1000e-12)


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_manifest(out_dir, command: str, run: dict, *resolved) -> str:
    """Record `run`'s manifest-only keys and every setting that the resolved
    objects (configs, recipes, datasets, dicts) hold, one line per key."""
    values = owned(run, "manifest")
    for source in resolved:
        values.update(source if isinstance(source, dict) else
                      {k: getattr(source, k) for k in SETTINGS if hasattr(source, k)})
    values.update(command=command, tool_version=__version__)
    lines = [f"# run manifest, written {_utc_now()}"]
    lines += [f"{k} = {format_setting(values[k])}" for k in SETTINGS if values.get(k) is not None]
    path = os.path.join(out_dir, "manifest.cfg")
    store.write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])
    return path


def _count(text: str) -> int:
    """argparse type for a count: an int, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _settings(args) -> dict:
    """The --config file's settings, overridden by every flag given."""
    settings = store.read_settings(args.config) if getattr(args, "config", None) else {}
    if getattr(args, "reflectivity", None) is not None:
        settings.pop("reflectivity_range", None)  # a fixed ratio replaces the file's range
    settings.update((k, v) for k, v in vars(args).items() if k in SETTINGS and v is not None)
    return settings


def _recipe(preset: str, settings: dict) -> pipeline.DatasetRecipe:
    recipe = _PRESETS[preset]()
    return replace(recipe, sim=recipe.sim.with_(**owned(settings, "sim")),
                   **owned(settings, "recipe"))


def cmd_gen(args) -> int:
    settings = _settings(args)
    recipe = _recipe(args.preset, settings)
    ds = pipeline.generate_dataset(recipe)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dataset.tdid")
    store.write_dataset(path, ds)
    write_manifest(args.out, "gen", settings, recipe.sim, recipe)
    print(f"wrote {len(ds)} pairs to {path}")
    return 0


def cmd_train(args) -> int:
    settings = _settings(args)
    tc = mlp.TrainConfig(**owned(settings, "train"))
    ds = store.read_dataset(args.dataset)
    model, history = mlp.train((ds.histograms, ds.images), tc)
    os.makedirs(args.out, exist_ok=True)   # only once training has taken the data
    model_path = os.path.join(args.out, "model.tdim")
    store.write_model(model_path, model)
    store.write_csv(os.path.join(args.out, "history.csv"), "epoch,train_loss,val_loss",
                    [(e + 1, repr(history.train_loss[e]), repr(history.val_loss[e]))
                     for e in range(len(history.train_loss))])
    write_manifest(args.out, "train", settings, ds, tc)  # ds records the data's shape
    print(f"trained {tc.epochs} epochs, final train loss "
          f"{history.train_loss[-1]:.3e}; wrote {model_path}")
    return 0


def cmd_eval(args) -> int:
    model = store.read_model(args.model)
    ds = store.read_dataset(args.dataset)
    x, y = ds.histograms, ds.images
    per_pair, overall = pipeline.evaluate_model(model, x, y, ds.img_w, ds.img_h)
    os.makedirs(args.out, exist_ok=True)
    rows = [(i, repr(v)) for i, v in enumerate(per_pair)] + [("overall", repr(overall))]
    store.write_csv(os.path.join(args.out, "ssim.csv"), "pair,mean_ssim", rows)

    if args.gallery:
        shape = (-1, ds.img_h, ds.img_w)
        preds = np.clip(mlp.forward(model, x[: args.gallery]), 0.0, 1.0).reshape(shape)
        preds = preds.astype(np.float64)
        truths = y[: args.gallery].reshape(shape).astype(np.float64)
        maps = metrics.ssim(preds, truths).map   # one stacked call, same maps as per image
        for i, (pred, truth, smap) in enumerate(zip(preds, truths, maps)):
            store.export_depth_pgm(pred, os.path.join(args.out, f"{i:04d}_pred.pgm"))
            store.export_depth_pgm(truth, os.path.join(args.out, f"{i:04d}_truth.pgm"))
            store.export_ssim_pgm(smap, os.path.join(args.out, f"{i:04d}_ssim.pgm"))
    write_manifest(args.out, "eval", _settings(args))
    print(f"overall mean SSIM over {len(ds)} pairs: {overall:.4f}")
    return 0


def cmd_predict(args) -> int:
    model = store.read_model(args.model)
    settings = _settings(args)
    recipe = _recipe(args.preset, settings)
    h = store.read_histogram_csv(args.histogram)
    img = mlp.predict(model, h, recipe.sim)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "prediction.pgm")
    store.export_depth_pgm(img.depth_m / recipe.sim.z_max, out_path)
    write_manifest(args.out, "predict", settings, recipe.sim)
    print(f"wrote {out_path}")
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    recipe = _recipe(args.preset, settings)
    tc = mlp.TrainConfig(**owned(settings, "train"))
    sweep = {**SWEEP_DEFAULTS, **owned(settings, "sweep")}
    run, n_test = _SWEEPS[args.kind], sweep["n_test"]
    if args.kind == "reflectivity":   # simulates only the scenes it trains on or scores
        points = run(recipe, tc, n_test, training=sweep["reflectivity_training"])
    else:
        points = run(pipeline.simulate_raw(recipe), tc, n_test)
    rows = []
    for p in points:
        if p.mean_ssim is None:
            rows.append((p.label, "failed"))
            print(f"sweep point {p.label} failed: {p.error}", file=sys.stderr)
        else:
            rows.append((p.label, repr(p.mean_ssim)))
    os.makedirs(args.out, exist_ok=True)
    store.write_csv(os.path.join(args.out, "sweep.csv"), "point,mean_ssim", rows)
    write_manifest(args.out, f"sweep:{args.kind}", settings, recipe.sim, recipe, tc, sweep)
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

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="key-value config file")
        p.add_argument("--preset", choices=sorted(_PRESETS), default="desk")

    p = sub.add_parser("gen", help="generate a histogram/image dataset")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", dest="n_silhouettes", type=int, help="number of silhouettes")
    p.add_argument("--background", choices=pipeline.BACKGROUND_KINDS)
    p.add_argument("--reflectivity", type=float, help="fixed silhouette reflectivity")
    p.add_argument("--reflectivity-range", dest="reflectivity_range", metavar="LO:HI",
                   type=parse_range, help="per-scene log-uniform silhouette reflectivity")
    p.add_argument("--irf", dest="irf_dt_s", type=float,
                   help="Gaussian IRF 1/e half-width [s]")
    p.add_argument("--noise", dest="noise_level", type=int, choices=range(len(NOISE_FRACTIONS)))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the inverse model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model on a dataset (SSIM)")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gallery", type=_count, default=8,
                   help="export graymaps for the first K pairs (0 = none)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="reconstruct one histogram CSV into a graymap")
    p.add_argument("--model", required=True)
    p.add_argument("--histogram", required=True, help="CSV with bin_start_s,count rows")
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="run one of the study sweeps")
    p.add_argument("--kind", required=True, choices=tuple(_SWEEPS))
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--n-test", dest="n_test", type=int)
    p.add_argument("--reflectivity-training", dest="reflectivity_training",
                   choices=REFLECTIVITY_TRAININGS)
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
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
