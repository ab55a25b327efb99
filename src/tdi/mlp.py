"""Fully-connected inverse model: histogram vector -> depth image vector.

Plain numpy multilayer perceptron with tanh hidden activations, a linear
output layer, mean-squared-error loss, and Adam. Weights are held
input-major, one (fan_in, fan_out) matrix per layer, so each layer computes
a @ w + b and each row of the first weight belongs to one histogram bin.
The first layer multiplies only the runs of bins that are nonzero in some
input row: a histogram lights a few runs of its bins, so a single predict
reads those rows of the first weight and no others. Adam keeps its moments
scaled by 1 / (1 - beta), the reordering Kingma & Ba note in section 2, so
each element costs ten array passes; the result stays within float rounding
of the textbook update. Parameters default to float32 (the storage
precision); gradient checking uses float64 models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SimConfig, check_owned
from .forward import Histogram, normalize_histogram
from .scene import DepthImage

DEFAULT_HIDDEN = (1024, 512, 256)
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per block of the in-place Adam update (two scratch blocks of this size).
ADAM_BLOCK = 1 << 15
# Elements, about, per row block of a weight gradient built from its factors.
MATMUL_BLOCK = 1 << 18
# Lit input columns fewer than this many unlit ones apart share one run of
# the first layer's product: a short gap costs less to multiply through
# than another matmul call.
RUN_GAP = 64


class TrainingDivergedError(RuntimeError):
    """A nonfinite gradient or parameter was encountered during training."""


@dataclass
class MlpModel:
    weights: list       # one (fan_in, fan_out) matrix per layer, input-major
    biases: list        # one (fan_out,) vector per layer

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("need one bias vector per weight matrix")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError("weight/bias shapes disagree")
        for wa, wb in zip(self.weights, self.weights[1:]):
            if wb.shape[0] != wa.shape[1]:
                raise ValueError("adjacent layer dimensions disagree")

    @property
    def layer_dims(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def dtype(self):
        return self.weights[0].dtype

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights], [b.copy() for b in self.biases])


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 200
    validation_fraction: float = 0.07
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_owned(self, "train")


@dataclass
class TrainHistory:
    train_loss: np.ndarray     # one entry per epoch
    val_loss: np.ndarray


@dataclass
class AdamState:
    """Adam's moments, one array per weight then per bias, kept scaled.

    With m and v the textbook moments (Kingma & Ba, Algorithm 1), `m` holds
    m / (1 - BETA1) and `v` holds v / (1 - BETA2), so adam_step adds g and
    g^2 to them unscaled.
    """
    m: list
    v: list

    @classmethod
    def zeros_like(cls, model: MlpModel) -> "AdamState":
        return cls(m=[np.zeros_like(w) for w in model.weights + model.biases],
                   v=[np.zeros_like(w) for w in model.weights + model.biases])


def init_model(layer_dims, seed: int, dtype=np.float32) -> MlpModel:
    """Glorot-uniform weights (+/- sqrt(6/(fan_in+fan_out))), zero biases.

    Each weight holds one row-major (fan_in, fan_out) draw cast to dtype.
    """
    dims = list(layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError("layer_dims needs at least 2 entries, all >= 1")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        # Drawn ADAM_BLOCK values at a time: the stream continues across
        # calls, so the bytes are those of one whole-matrix draw.
        w = np.empty((fan_in, fan_out), dtype=dtype)
        flat = w.reshape(-1)
        for lo in range(0, flat.size, ADAM_BLOCK):
            flat[lo: lo + ADAM_BLOCK] = rng.uniform(-limit, limit, min(ADAM_BLOCK, flat.size - lo))
        weights.append(w)
        biases.append(np.zeros(fan_out, dtype=dtype))
    return MlpModel(weights, biases)


def _lit_runs(a: np.ndarray) -> list:
    """(start, stop) of each run of columns nonzero in some row of `a`.

    Two lit columns fewer than RUN_GAP unlit columns apart share a run.
    """
    lit = np.flatnonzero(np.any(a, axis=0))
    if not lit.size:
        return []
    cut = np.flatnonzero(np.diff(lit) > RUN_GAP)
    starts = lit[np.concatenate(([0], cut + 1))]
    stops = lit[np.concatenate((cut, [lit.size - 1]))] + 1
    return list(zip(starts.tolist(), stops.tolist()))


def _first_layer(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ w + b, reading only the rows of w whose input columns are lit.

    An unlit column adds exactly zero to every sum, so the product is the
    bias plus a[:, s:e] @ w[s:e] over the lit runs: exactly the bias when no
    column is lit, and one product when the lit columns form one run.
    """
    z = np.empty((a.shape[0], w.shape[1]), dtype=np.result_type(a, w, b))
    z[:] = b
    for start, stop in _lit_runs(a):
        z += a[:, start:stop] @ w[start:stop]
    return z


def _activations(model: MlpModel, x: np.ndarray) -> list:
    """Layer activations for a batch (rows = samples); tanh except the last."""
    acts = [x]
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = _first_layer(a, w, b) if i == 0 else a @ w + b
        a = z if i == last else np.tanh(z, out=z)
        acts.append(a)
    return acts


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output for a single vector or a batch of row vectors."""
    x = np.asarray(x)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input length {x.shape[1]} != input layer {model.layer_dims[0]}")
    out = _activations(model, x.astype(model.dtype, copy=False))[-1]
    return out[0] if single else out


def mse_loss(y: np.ndarray, s: np.ndarray) -> float:
    """Mean over all entries of (y - s)^2; for a batch, mean over the batch."""
    y = np.asarray(y)
    s = np.asarray(s)
    if y.shape != s.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {s.shape}")
    diff = (y - s).astype(np.float64, copy=False)
    return float(np.mean(diff * diff))


def _backward(model: MlpModel, x: np.ndarray, s: np.ndarray):
    """Batch loss and gradients: each weight's as its factors, each bias's whole.

    In AdamState order: one (delta, act) pair per weight matrix, whose
    gradient is act.T @ delta, then one array per bias vector. The factors
    are batch-sized; adam_step builds the weight gradients from them.
    """
    acts = _activations(model, x)
    diff = (acts[-1] - s).astype(np.float64, copy=False)
    loss = float(np.mean(diff * diff))
    n = x.shape[0] * s.shape[1]
    delta = (2.0 / n) * (acts[-1] - s)           # d loss / d output
    layers = len(model.weights)
    grads = [None] * (2 * layers)
    for i in range(layers - 1, -1, -1):
        grads[i] = (delta, acts[i])
        grads[layers + i] = np.sum(delta, axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (1.0 - acts[i] * acts[i])  # tanh'
    return loss, grads


def gradients(model: MlpModel, batch_x: np.ndarray, batch_s: np.ndarray) -> list:
    """Exact gradients of the mean batch MSE for every weight and bias.

    Returned in the same order AdamState stores moments: all weight
    matrices, then all bias vectors.
    """
    x = np.atleast_2d(np.asarray(batch_x, dtype=model.dtype))
    s = np.atleast_2d(np.asarray(batch_s, dtype=model.dtype))
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if x.shape[1] != model.layer_dims[0] or s.shape[1] != model.layer_dims[-1]:
        raise ValueError("batch shapes disagree with the model")
    if x.shape[0] != s.shape[0]:
        raise ValueError("inputs and targets have different batch sizes")
    grads = _backward(model, x, s)[1]
    layers = len(model.weights)
    return [np.matmul(act.T, delta) for delta, act in grads[:layers]] + grads[layers:]


def _row_bounds(rows: int, row_size: int) -> list:
    """Even split of range(rows) into blocks of about MATMUL_BLOCK elements.

    Every block has at least 2 rows unless `rows` is 1: numpy sends a
    one-row product to gemv, whose sums need not match the whole-matrix gemm.
    """
    count = max(1, min(rows // 2, -(-rows * row_size // MATMUL_BLOCK)))
    return [rows * k // count for k in range(count + 1)]


def _gradient_shape(g) -> tuple:
    if not isinstance(g, tuple):
        return np.shape(g)
    delta, act = g
    if delta.ndim != 2 or act.ndim != 2 or delta.shape[0] != act.shape[0]:
        raise ValueError(f"gradient factors of shapes {delta.shape} and {act.shape} "
                         "are not (batch, fan_out) and (batch, fan_in)")
    return (act.shape[1], delta.shape[1])


def _diverged(name: str, t: int) -> TrainingDivergedError:
    return TrainingDivergedError(f"nonfinite gradient for {name} at step {t}")


def _factors_bound_products(delta: np.ndarray, act: np.ndarray, dtype, name: str,
                            t: int) -> bool:
    """Check a weight gradient's factors once; True when no sum can overflow.

    A nonfinite factor makes a nonfinite gradient, so it raises here, before
    any parameter is touched. Every entry of act.T @ delta is a sum of batch
    products, each at most max|delta| * max|act|; when batch times that is
    below half the largest float of the parameter dtype (the margin covers
    float rounding), every entry is finite and the per-block check can go.
    The bound uses the parameter's dtype, which the products are built in.
    """
    d_max = float(np.max(np.abs(delta), initial=0.0))    # max propagates NaN
    a_max = float(np.max(np.abs(act), initial=0.0))
    if not (math.isfinite(d_max) and math.isfinite(a_max)):
        raise _diverged(name, t)
    return delta.shape[0] * d_max * a_max < float(np.finfo(dtype).max) / 2


def adam_step(model: MlpModel, grads: list, state: AdamState, t: int,
              config: TrainConfig) -> tuple[MlpModel, AdamState]:
    """One bias-corrected Adam update, in place; t counts from 1.

    Each entry of `grads` is either a gradient shaped like its parameter or,
    for a weight matrix, its factors (delta, act), whose gradient is
    act.T @ delta. Each parameter is walked in row blocks of about
    MATMUL_BLOCK elements, each of at least 2 rows; a factored gradient is
    built one row block at a time, by one matmul into a reused buffer, so no
    parameter-sized gradient is ever held. Each row block is updated in
    sub-blocks of ADAM_BLOCK elements through two scratch buffers, on the
    scaled moments AdamState holds: M = b1 M + g, V = b2 V + g^2 and
    p -= k M / (sqrt(V) + eps'), with s = sqrt((1 - b2) / c2),
    k = lr (1 - b1) / (c1 s) and eps' = eps / s. That is the textbook update
    lr (m / c1) / (sqrt(v / c2) + eps) reordered (Kingma & Ba, section 2),
    and the result is bit-identical to the same scaled update made on whole
    arrays, not to the textbook form. A gradient that is not finite raises
    TrainingDivergedError: factors are checked once, before any parameter
    changes, and a gradient sub-block is checked before it is used unless
    its factors bound every sum below overflow; the error names the
    parameter by role and index ("weight 0", "bias 2"), which a model with
    packed input rows shares with its full-width self. `grads` is never
    written.
    """
    if t < 1:
        raise ValueError("step index t starts at 1")
    params = model.weights + model.biases
    if len(grads) != len(params):
        raise ValueError("gradient list does not match parameter list")
    layers = len(model.weights)
    plan, buffer_size = [], 0
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        name = f"weight {i}" if i < layers else f"bias {i - layers}"
        if not (p.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ValueError("parameters and Adam moments must be C-contiguous")
        shape = _gradient_shape(g)
        if shape != p.shape:
            raise ValueError(f"gradient shape {shape} != parameter shape {p.shape}")
        row_size = math.prod(p.shape[1:])
        bounds = _row_bounds(p.shape[0], row_size)
        check = True
        if isinstance(g, tuple):
            widest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
            buffer_size = max(buffer_size, widest * row_size)
            check = not _factors_bound_products(*g, p.dtype, name, t)
        plan.append((bounds, row_size, check, name))
    correction1 = 1.0 - BETA1 ** t
    correction2 = 1.0 - BETA2 ** t
    scale = math.sqrt((1.0 - BETA2) / correction2)
    k = config.learning_rate * (1.0 - BETA1) / (correction1 * scale)
    eps = EPS / scale
    buffer = np.empty(buffer_size, dtype=model.dtype)
    scratch_a = np.empty(ADAM_BLOCK, dtype=model.dtype)
    scratch_b = np.empty(ADAM_BLOCK, dtype=model.dtype)
    for p, g, m, v, (bounds, row_size, check, name) in zip(params, grads, state.m, state.v,
                                                           plan):
        p_flat, m_flat, v_flat = p.reshape(-1), m.reshape(-1), v.reshape(-1)
        if not isinstance(g, tuple):
            g_flat = np.ascontiguousarray(g).reshape(-1)
        for r0, r1 in zip(bounds, bounds[1:]):
            start, stop = r0 * row_size, r1 * row_size
            if isinstance(g, tuple):
                delta, act = g
                rows = buffer[: stop - start]
                np.matmul(act[:, r0:r1].T, delta, out=rows.reshape(r1 - r0, row_size))
            else:
                rows = g_flat[start:stop]
            for lo in range(start, stop, ADAM_BLOCK):
                hi = min(lo + ADAM_BLOCK, stop)
                gb = rows[lo - start: hi - start]
                pb, mb, vb = p_flat[lo:hi], m_flat[lo:hi], v_flat[lo:hi]
                a, b = scratch_a[: hi - lo], scratch_b[: hi - lo]
                if check and not np.isfinite(gb).all():
                    raise _diverged(name, t)
                mb *= BETA1
                mb += gb
                np.multiply(gb, gb, out=a)
                vb *= BETA2
                vb += a
                np.sqrt(vb, out=a)
                a += eps
                np.divide(mb, a, out=b)
                b *= k
                pb -= b
    return model, state


def _pack_rows(w: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Move the `live` rows of w, in order, to the front of w; returns that view.

    The rows after them are left stale until _unpack_rows. Blocks of about
    MATMUL_BLOCK elements go in ascending order, each through a block-sized
    copy: live[k] >= k, so no block writes a row a later block reads.
    """
    bounds = _row_bounds(live.size, w.shape[1])
    for k0, k1 in zip(bounds, bounds[1:]):
        w[k0:k1] = w.take(live[k0:k1], axis=0)
    return w[: live.size]


def _unpack_rows(w: np.ndarray, live: np.ndarray, dead: np.ndarray,
                 saved: np.ndarray) -> None:
    """Undo _pack_rows: the packed rows back to their `live` rows, `saved` into the `dead` ones.

    Blocks go in descending order, each through a block-sized copy, so a
    block overwrites only packed rows already moved back.
    """
    bounds = _row_bounds(live.size, w.shape[1])
    for k0, k1 in reversed(list(zip(bounds, bounds[1:]))):
        w[live[k0:k1]] = w[k0:k1].copy()
    w[dead] = saved


def train(dataset, config: TrainConfig,
          model: MlpModel | None = None) -> tuple[MlpModel, TrainHistory]:
    """Train on (X, Y) pairs of normalized vectors; returns model + history.

    Without `model`, a new one with DEFAULT_HIDDEN layers is made from
    config.seed; pass `model` for other widths or to continue training.

    The shuffled tail (validation_fraction of the data) is held out once,
    before the first epoch, and scored after every epoch; the rest is
    reshuffled each epoch with the seeded generator. Runs
    epochs * ceil(n_train / batch_size) Adam steps. Besides the data, it
    holds the model and the two Adam moments: each step hands adam_step the
    batch-sized factors of the weight gradients, not the gradients.

    Only the live input columns, those nonzero in some train or validation
    row, are trained. A dead column's gradient is zero at every step, so
    Adam would leave its weights, one row of the first weight, as they are.
    Instead, once per call, the dead rows of the first weight are copied
    aside and the live ones moved, whole rows, to the front of its own
    buffer; that compact weight is trained with compact moments, and each
    batch gathers the same columns of its rows. When training ends or
    raises, both go back into their rows, so the model keeps its full width
    and its dead rows their bytes. Besides the data, training then holds
    three parameter sets less the dead rows' share of the first weight;
    with no dead column, the model is trained as it is. The returned model
    is `model` (or the new one).
    """
    x, y = dataset
    x = np.asarray(x)
    y = np.asarray(y)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValueError("dataset must be two nonempty aligned 2-D arrays")
    if x.shape[0] < config.batch_size:
        raise ValueError(f"dataset of {x.shape[0]} pairs is smaller than one batch")
    for name, arr in (("inputs", x), ("targets", y)):
        lo, hi = arr.min(), arr.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):   # min/max propagate NaN
            raise ValueError(f"{name} contain NaN or inf")
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"{name} must be normalized to [0, 1]")

    if model is None:
        model = init_model([x.shape[1], *DEFAULT_HIDDEN, y.shape[1]], config.seed)
    for name, width, end, layer in (("inputs", x.shape[1], "input", model.layer_dims[0]),
                                    ("targets", y.shape[1], "output", model.layer_dims[-1])):
        if width != layer:
            raise ValueError(f"{name} have width {width}, the model's {end} layer {layer}")
    x = x.astype(model.dtype, copy=False)
    y = y.astype(model.dtype, copy=False)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(x.shape[0])
    n_val = int(round(config.validation_fraction * x.shape[0]))
    n_val = min(n_val, x.shape[0] - 1)
    val_idx = perm[x.shape[0] - n_val:]
    train_idx = perm[: x.shape[0] - n_val]

    lit = np.any(x, axis=0)
    live, dead = np.flatnonzero(lit), np.flatnonzero(~lit)
    first = model.weights[0]
    if not dead.size:
        compact, inputs = model, x.__getitem__
    else:
        saved = first.take(dead, axis=0)
        compact = MlpModel([_pack_rows(first, live), *model.weights[1:]], model.biases)

        def inputs(rows):
            return x[rows].take(live, axis=1)
    train_hist = np.zeros(config.epochs)
    val_hist = np.full(config.epochs, np.nan)
    t = 0
    try:
        state = AdamState.zeros_like(compact)
        for epoch in range(config.epochs):
            order = train_idx[rng.permutation(train_idx.size)]
            seen = 0.0
            for start in range(0, order.size, config.batch_size):
                batch = order[start: start + config.batch_size]
                loss, grads = _backward(compact, inputs(batch), y[batch])
                t += 1
                adam_step(compact, grads, state, t, config)
                seen += loss * batch.size
            train_hist[epoch] = seen / order.size
            if n_val:
                val_hist[epoch] = mse_loss(forward(compact, inputs(val_idx)), y[val_idx])
    finally:
        if dead.size:
            _unpack_rows(first, live, dead, saved)
    return model, TrainHistory(train_loss=train_hist, val_loss=val_hist)


def predict(model: MlpModel, h: Histogram, cfg: SimConfig) -> DepthImage:
    """Reconstruct a depth image from one histogram.

    normalize -> forward -> clip to [0, 1] -> reshape row-major to
    (img_h, img_w) -> rescale by z_max. Reflectance is not predicted and is
    reported as 1 everywhere. The histogram must be binned as cfg bins: same
    bin count and width, starting at t0 = 0.
    """
    if h.bins != model.layer_dims[0]:
        raise ValueError(f"histogram has {h.bins} bins, model expects {model.layer_dims[0]}")
    # the tolerance store.read_histogram_csv allows on each bin start
    if abs(h.bin_width_s - cfg.bin_width_s) > 1e-9 * cfg.bin_width_s:
        raise ValueError(f"histogram bin width {h.bin_width_s!r} s differs from the "
                         f"configured {cfg.bin_width_s!r} s")
    if h.t0_s != 0.0:
        raise ValueError(f"histogram starts at t0 = {h.t0_s!r} s, config expects t0 = 0")
    n_out = model.layer_dims[-1]
    if n_out != cfg.img_w * cfg.img_h:
        raise ValueError(
            f"model outputs {n_out} pixels, config expects {cfg.img_w * cfg.img_h}")
    out = forward(model, normalize_histogram(h).astype(model.dtype))
    grid = np.clip(out, 0.0, 1.0).reshape(cfg.img_h, cfg.img_w).astype(np.float64)
    return DepthImage(depth_m=grid * cfg.z_max,
                      reflectance=np.ones_like(grid))
