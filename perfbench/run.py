"""tdi benchmark: one workload, one seed, one process; prints a JSON result line.

    python3 perfbench/run.py --workload simulate|learn|sweep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`. After
several timed set-ups, rounds of the workload run one after another (a closed
loop with one caller) until the next round would end past `--seconds`. Every
round's outputs are checked. `--trace 0` reports the end-to-end metrics named
in BENCHMARK.json; `--trace 1` alternates untraced and traced rounds and
reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Set-up runs SETUP_REPEATS times before the first round. After each round it
# runs again while set-ups have taken less than SETUP_SHARE of the run, so a
# set-up of a few milliseconds is sampled across the whole run, as rounds are.
SETUP_REPEATS = 5
SETUP_SHARE = 0.05

# One BLAS thread per available core, fixed before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run rounds until the time is spent, check them; return the raw record."""
    from tracer import Tracer       # these load numpy: only after pin_blas_threads()
    from workloads import Checks

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        setups = []

        def set_up():
            start = time.perf_counter()
            state = workload.setup(seed, workdir)
            setups.append(time.perf_counter() - start)
            return state

        began = time.perf_counter()
        for _ in range(SETUP_REPEATS):
            state = set_up()
        workload.prepare(state)

        checks = Checks()
        tracer = Tracer() if trace else None
        plain, traced, layer = [], [], []
        start = time.perf_counter()
        while True:
            tracing = trace and len(traced) < len(plain)
            if tracing:
                tracer.round_id += 1
                tracer.install()
            try:
                rnd = workload.run_round(state)
            except Exception:               # recorded as a failed operation
                traceback.print_exc()
                checks.expect(False, f"{workload.name} round raised")
                break
            finally:
                if tracing:
                    tracer.remove()
            workload.check(state, rnd, checks)
            (traced if tracing else plain).append((rnd.wall_s, rnd.stats))
            if tracing:
                layer.append(tracer.round_metrics(tracer.round_id))
            while sum(setups) < SETUP_SHARE * (time.perf_counter() - began):
                set_up()                    # timed only; the rounds keep `state`
            walls = [w for w, _ in plain + traced]
            enough = plain and (traced or not trace)
            if enough and time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        sizes = workload.sizes(state)
    return {"setups": setups, "plain": plain, "traced": traced, "layer": layer,
            "checks": checks, "tracer": tracer, "sizes": sizes}


def stage_metrics(plain) -> dict:
    """Workload-specific rates and scores over the untraced rounds (0 if not run)."""
    stats = [s for _, s in plain]

    def med(key):
        values = [s[key] for s in stats if key in s]
        return statistics.median(values) if values else 0.0

    latencies = [v for s in stats for v in s.get("predict_latencies_s", [])]
    out = {name: med(name) for name in ("gen_pairs_per_s", "train_samples_per_s",
                                        "eval_pairs_per_s", "sweep_points_per_s")}
    out["predict_requests"] = len(latencies)
    out["predict_p50_ms"] = 1e3 * percentile(latencies, 50) if latencies else 0.0
    out["predict_p99_ms"] = 1e3 * percentile(latencies, 99) if latencies else 0.0
    out["mean_ssim"] = stats[0].get("mean_ssim", 0.0) if stats else 0.0
    return out


def layer_metrics(record) -> dict:
    """Per-layer numbers: medians over traced rounds, plus overhead and useful ratio."""
    layer = record["layer"]
    out = {key: statistics.median(r.get(key, 0.0) for r in layer)
           for key in set().union(*layer)}
    scenes = out.get("pipeline.simulate_raw.scenes", 0.0)
    used = statistics.median(s.get("scenes_used", 0) for _, s in record["plain"])
    out["pipeline.simulate_raw.useful_ratio"] = used / scenes if scenes else 0.0
    out["trace.overhead_s"] = (statistics.median(w for w, _ in record["traced"])
                               - statistics.median(w for w, _ in record["plain"]))
    out.update(stage_metrics(record["plain"]))
    return out


def environment(seed: int, sizes: dict) -> dict:
    import numpy as np

    import tdi

    env = {"python": sys.version.split()[0], "numpy": np.__version__,
           "tdi": tdi.__version__, "nproc": NPROC,
           "blas_threads": os.environ.get(BLAS_THREAD_VARS[0], "library default"),
           "seed": seed, "sizes": sizes}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):           # older numpy: no dict mode
        env["blas"] = "unknown"
    try:                                    # look only at this checkout, not its parents
        env["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        env["commit"] = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for name in sorted(os.listdir(os.path.join(SRC, "tdi"))):
        if name.endswith(".py"):
            with open(os.path.join(SRC, "tdi", name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    env["src_sha256"] = digest.hexdigest()      # identifies the code without git
    env["cpu"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for level in (2, 3):
        env[f"l{level}_kib"] = _cache_kib(level)
    return env


def _cache_kib(level: int):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                return int(fh.read().strip().rstrip("K"))
    except (OSError, ValueError):
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tdi", "__init__.py")):
        print(f"perfbench: no tdi sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    record = measure(workload, args.seed, args.seconds, bool(args.trace))
    if not record["plain"]:
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    result = report(spec, workload, args, record)
    print(json.dumps(result))
    return 0


def report(spec: dict, workload, args, record) -> dict:
    """Print the human-readable report, save the full record, return the result line."""
    name, checks = workload.name, record["checks"]
    env = environment(args.seed, record["sizes"])
    e2e = {"setup_s": statistics.median(record["setups"]),
           "run_s": statistics.median(w for w, _ in record["plain"]),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    stages = stage_metrics(record["plain"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={len(record['plain'])}+{len(record['traced'])} traced")
    print("env " + json.dumps(env))
    shown = {**e2e, **{key: stages[key] for key in workload.stages}}
    for key, value in shown.items():
        print(f"metric {key} {value:.6g} {units[key]}")
    print(f"metric fail_rate {checks.failed / checks.attempted:.6g} fraction "
          f"({checks.failed} of {checks.attempted} operations)")
    for failure in checks.failures:
        print(f"failed: {failure}")

    saved = {"workload": name, "env": env, "setups_s": record["setups"],
             "rounds_s": [w for w, _ in record["plain"]], "end_to_end": e2e,
             "stages": stages, "attempted": checks.attempted, "failed": checks.failed}
    base = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        layer = layer_metrics(record)
        saved["per_layer"] = layer
        record["tracer"].write_spans(base + "-spans.json")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {key: layer.get(key, 0.0) for key in names}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1)
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
