"""Span tracing from outside the library.

`Tracer.install()` replaces each public function named in `TRACED` with a
wrapper wherever a `tdi` module binds it (so `mlp.predict`'s own call to
`normalize_histogram` is seen too), and `Tracer.remove()` puts the originals
back. Spans (name, start, end, parent id, round id) stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from workloads import train_samples

TRACED = (
    ("scene", "render"),
    ("scene", "augment"),
    ("forward", "simulate_histogram"),
    ("forward", "convolve_irf"),
    ("forward", "add_noise"),
    ("forward", "normalize_histogram"),
    ("pipeline", "simulate_raw"),
    ("pipeline", "finalize"),
    ("pipeline", "evaluate_model"),
    ("mlp", "train"),
    ("mlp", "adam_step"),
    ("mlp", "forward"),
    ("mlp", "predict"),
    ("metrics", "ssim"),
    ("metrics", "batch_ssim"),
    ("store", "write_dataset"),
    ("store", "read_dataset"),
    ("store", "write_model"),
    ("store", "read_model"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _train_counts(args, kwargs, model) -> dict:
    """Samples pushed through training, and the flops they cost, computed."""
    config = args[1] if len(args) > 1 else kwargs["config"]
    samples = train_samples(len(args[0][0]), config)
    weights = sum(w.size for w in model.weights)
    # 2 flops per multiply-add; forward + two backward matmuls per weight.
    return {"samples": samples, "gflop": 6.0 * samples * weights / 1e9}


def _adam_counts(args, kwargs, result) -> dict:
    """Bytes an Adam step moves, computed: read p, g, m, v; write p, m, v."""
    model = args[0]
    nbytes = sum(p.nbytes for p in model.weights + model.biases)
    return {"mbytes": 7 * nbytes / 1e6}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Counts recorded at the boundary, from each call's arguments and result.
COUNTERS = {
    "pipeline.simulate_raw": lambda a, k, r: {"scenes": len(r)},
    "pipeline.finalize": lambda a, k, r: {"rows": len(a[0])},
    "pipeline.evaluate_model": lambda a, k, r: {"pairs": len(a[1])},
    "mlp.forward": lambda a, k, r: {"rows": 1 if getattr(a[1], "ndim", 2) == 1 else len(a[1])},
    "mlp.train": lambda a, k, r: _train_counts(a, k, r[0]),
    "mlp.adam_step": _adam_counts,
    "store.write_dataset": _file_bytes,
    "store.read_dataset": _file_bytes,
    "store.write_model": _file_bytes,
    "store.read_model": _file_bytes,
}


class Tracer:
    """Records spans and boundary counts for the calls made while installed."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent_id, round_id)
        self.counts = defaultdict(float)   # (round_id, "<span>.<count>") -> total
        self.round_id = 0
        self._stack = []
        self._patched = []         # (module, attribute, original)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "tdi" or name.startswith("tdi.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"tdi.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)     # reserve the id; children append after it
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.round_id)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(self.round_id, f"{name}.{key}")] += value
            return result

        return wrapper

    def round_metrics(self, round_id: int) -> dict:
        """Per-layer numbers of one traced round: calls, busy and self time, counts."""
        spans = [s for s in self.spans if s[5] == round_id]
        by_id = {s[0]: s for s in spans}
        busy = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        train_child = defaultdict(float)
        for sid, name, start, end, parent, _ in spans:
            busy[name] += end - start
            calls[name] += 1
            if parent in by_id:
                child[parent] += end - start
                if by_id[parent][1] == "mlp.train":
                    train_child[name] += end - start
        self_s = defaultdict(float)
        for sid, name, start, end, parent, _ in spans:
            self_s[name] += (end - start) - child[sid]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update({key: value for (rid, key), value in self.counts.items()
                    if rid == round_id})
        out["mlp.train.steps"] = sum(1 for s in spans if s[1] == "mlp.adam_step"
                                     and by_id.get(s[4], (0, ""))[1] == "mlp.train")
        # Train time not spent in Adam or in the per-epoch validation forward pass.
        out["mlp.fwd_bwd_s"] = (busy["mlp.train"] - train_child["mlp.adam_step"]
                                - train_child["mlp.forward"])
        return out

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "round")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
