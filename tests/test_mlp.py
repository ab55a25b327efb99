import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import (dense_forward, finite_difference_grads, max_grad_rel_error,
                       reference_train, scaled_adam, textbook_adam)
from tdi import forward, mlp
from tdi.config import SimConfig


def small_f64_model(dims, seed=0):
    return mlp.init_model(dims, seed=seed, dtype=np.float64)


# ---------------------------------------------------------------------------
# initialization


def test_init_default_architecture_shapes():
    model = mlp.init_model([8000, 1024, 512, 256, 4096], seed=0)
    shapes = [w.shape for w in model.weights]
    assert shapes == [(8000, 1024), (1024, 512), (512, 256), (256, 4096)]
    assert model.layer_dims == [8000, 1024, 512, 256, 4096]


def test_init_deterministic():
    a = mlp.init_model([20, 8, 4], seed=42)
    b = mlp.init_model([20, 8, 4], seed=42)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_matches_whole_matrix_draw():
    # drawn block by block, each weight is one (fan_in, fan_out) draw; the
    # first layer's rows span several per block, the second's are longer than
    # a block, and no layer's size is a whole number of blocks
    dims = [mlp.ADAM_BLOCK // 16 + 3, 40, mlp.ADAM_BLOCK + 5, 3]
    model = mlp.init_model(dims, seed=11)
    rng = np.random.default_rng(11)
    for w, (fan_in, fan_out) in zip(model.weights, zip(dims[:-1], dims[1:])):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        want = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)
        assert w.shape == (fan_in, fan_out)
        assert w.tobytes() == want.tobytes()


def test_init_peak_memory_is_parameters_plus_one_block(traced_peak):
    dims = [4096, 512, 64]
    param_bytes = 4 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    peak = traced_peak(lambda: mlp.init_model(dims, seed=0))
    # one float64 block of draws at a time, a little for Python objects
    assert peak < param_bytes + 8 * mlp.ADAM_BLOCK + 16 * 1024


def test_init_glorot_bounds_and_zero_biases():
    model = small_f64_model([2, 3])
    limit = math.sqrt(6.0 / 5.0)
    assert np.all(np.abs(model.weights[0]) <= limit)
    assert np.all(model.biases[0] == 0.0)


def test_init_rejects_bad_dims():
    for dims in ([5], [5, 0], []):
        with pytest.raises(ValueError):
            mlp.init_model(dims, seed=0)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_parameters_give_zero_output():
    model = small_f64_model([4, 3, 2])
    for p in model.weights + model.biases:
        p[:] = 0.0
    out = mlp.forward(model, np.ones(4))
    assert np.all(out == 0.0)


def test_forward_tanh_hidden_identity_output():
    # one hidden unit (tanh), pass-through output layer
    model = mlp.MlpModel(
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1)])
    out = mlp.forward(model, np.array([0.5]))
    assert out[0] == 0.46211715726000974  # tanh(0.5)


def test_forward_output_layer_is_linear():
    model = mlp.MlpModel(weights=[np.array([[3.0]])], biases=[np.zeros(1)])
    assert mlp.forward(model, np.array([2.0]))[0] == 6.0  # no squashing


def test_forward_default_dims_output_length():
    model = mlp.init_model([8000, 1024, 512, 256, 4096], seed=1)
    out = mlp.forward(model, np.zeros(8000, dtype=np.float32))
    assert out.shape == (4096,)


def test_forward_batched_matches_single():
    model = small_f64_model([6, 5, 3], seed=2)
    x = np.random.default_rng(0).uniform(0, 1, (4, 6))
    batch = mlp.forward(model, x)
    for i in range(4):
        np.testing.assert_allclose(batch[i], mlp.forward(model, x[i]), rtol=1e-15)


LIT_PATTERNS = ("none", "first", "last", "gap_under", "gap_at", "gap_over", "dense",
                "sparse")


@st.composite
def lit_batches(draw, pattern, rows):
    """(x, lit): `rows` inputs in [0, 1] whose columns lit in some row follow `pattern`."""
    n_in = draw(st.integers(mlp.RUN_GAP + 3, 4 * mlp.RUN_GAP))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    lit = np.zeros(n_in, dtype=bool)
    if pattern == "first":
        lit[0] = True
    elif pattern == "last":
        lit[-1] = True
    elif pattern.startswith("gap"):
        # two lit columns with just under, exactly or just over RUN_GAP unlit ones between
        gap = mlp.RUN_GAP + {"gap_under": -1, "gap_at": 0, "gap_over": 1}[pattern]
        start = draw(st.integers(0, n_in - gap - 2))
        lit[[start, start + gap + 1]] = True
    elif pattern == "dense":
        lit[:] = True
    elif pattern == "sparse":
        lit = rng.random(n_in) < draw(st.floats(0.0, 0.2))
    x = np.where(lit & (rng.random((rows, n_in)) < 0.5), rng.random((rows, n_in)), 0.0)
    x[rng.integers(rows), lit] = rng.uniform(0.5, 1.0, int(lit.sum()))  # lit in some row
    return x, lit


@pytest.mark.parametrize("pattern", LIT_PATTERNS)
@given(data=st.data(), single=st.booleans(), hidden=st.integers(1, 9),
       n_out=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_run_sliced_forward_matches_dense_float64(pattern, data, single, hidden, n_out,
                                                  seed):
    x, lit = data.draw(lit_batches(pattern, 1 if single else data.draw(st.integers(2, 5))))
    model = mlp.init_model([x.shape[1], hidden, n_out], seed=seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.uniform(-1.0, 1.0, b.size)
    runs = mlp._lit_runs(x)
    covered = np.zeros_like(lit)
    for start, stop in runs:
        assert lit[start] and lit[stop - 1]
        covered[start:stop] = True
    # every lit column is in a run; runs are apart by RUN_GAP or more unlit columns
    assert np.array_equal(covered & lit, lit)
    assert all(b[0] - a[1] >= mlp.RUN_GAP for a, b in zip(runs, runs[1:]))
    if pattern.startswith("gap"):
        assert len(runs) == (1 if pattern == "gap_under" else 2)
    x32 = x.astype(np.float32)
    got = mlp.forward(model, x32[0] if single else x32)
    want = dense_forward(model, x32)
    np.testing.assert_allclose(got, want[0] if single else want, rtol=1e-5, atol=1e-5)
    if not lit.any():                  # nothing lit: exactly the bias
        first = mlp._first_layer(x32, model.weights[0], model.biases[0])
        assert np.array_equal(first, np.tile(model.biases[0], (x.shape[0], 1)))


def test_forward_rejects_bad_length():
    model = small_f64_model([6, 3])
    with pytest.raises(ValueError):
        mlp.forward(model, np.zeros(5))


# ---------------------------------------------------------------------------
# loss


def test_mse_reference_values():
    assert mlp.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mlp.mse_loss(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 1.0
    assert mlp.mse_loss(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == 0.25


def test_mse_batch_is_mean_over_batch():
    y = np.array([[1.0, 1.0], [0.0, 0.0]])
    s = np.zeros((2, 2))
    assert mlp.mse_loss(y, s) == 0.5


def test_mse_rejects_mismatch():
    with pytest.raises(ValueError):
        mlp.mse_loss(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------------------
# gradients


def test_gradients_zero_at_exact_fit():
    model = small_f64_model([3, 2], seed=3)
    x = np.random.default_rng(1).uniform(0, 1, (5, 3))
    s = mlp.forward(model, x)
    grads = mlp.gradients(model, x, s)
    assert all(np.all(g == 0.0) for g in grads)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for seed in range(3):
        model = small_f64_model([2, 2, 1], seed=seed)
        x = rng.uniform(0, 1, (4, 2))
        s = rng.uniform(0, 1, (4, 1))
        analytic = mlp.gradients(model, x, s)
        numeric = finite_difference_grads(model, x, s)
        assert max_grad_rel_error(analytic, numeric) < 1e-4


def test_gradients_invariant_under_batch_duplication():
    model = small_f64_model([3, 2], seed=5)
    x = np.random.default_rng(2).uniform(0, 1, (4, 3))
    s = np.random.default_rng(3).uniform(0, 1, (4, 2))
    single = mlp.gradients(model, x, s)
    doubled = mlp.gradients(model, np.vstack([x, x]), np.vstack([s, s]))
    for a, b in zip(single, doubled):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_gradients_reject_bad_shapes():
    model = small_f64_model([3, 2])
    with pytest.raises(ValueError):
        mlp.gradients(model, np.zeros((2, 4)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        mlp.gradients(model, np.zeros((2, 3)), np.zeros((3, 2)))


def test_gradients_return_new_arrays():
    model = small_f64_model([4, 3, 2], seed=1)
    rng = np.random.default_rng(2)
    x, s = rng.uniform(0, 1, (5, 4)), rng.uniform(0, 1, (5, 2))
    first, second = mlp.gradients(model, x, s), mlp.gradients(model, x, s)
    for a, b in zip(first, second):
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_hand_evaluated():
    model = small_f64_model([1, 1], seed=0)
    model.weights[0][:] = 0.25
    state = mlp.AdamState.zeros_like(model)
    grads = [np.ones((1, 1)), np.zeros(1)]
    cfg = mlp.TrainConfig()
    mlp.adam_step(model, grads, state, t=1, config=cfg)
    # m_hat = v_hat = 1 after bias correction, so the step is lr / (1 + eps)
    expected_delta = cfg.learning_rate / (1.0 + mlp.EPS)
    assert 0.25 - model.weights[0][0, 0] == pytest.approx(expected_delta, rel=1e-12)
    assert model.biases[0][0] == 0.0


def test_adam_zero_gradient_keeps_parameters():
    model = small_f64_model([2, 2], seed=1)
    before = model.copy()
    state = mlp.AdamState.zeros_like(model)
    grads = [np.zeros_like(p) for p in model.weights + model.biases]
    mlp.adam_step(model, grads, state, t=1, config=mlp.TrainConfig())
    for a, b in zip(model.weights + model.biases, before.weights + before.biases):
        assert np.array_equal(a, b)


def test_adam_rejects_nonfinite_gradient():
    model = small_f64_model([2, 2], seed=1)
    state = mlp.AdamState.zeros_like(model)
    grads = [np.full_like(p, np.nan) for p in model.weights + model.biases]
    with pytest.raises(mlp.TrainingDivergedError):
        mlp.adam_step(model, grads, state, t=1, config=mlp.TrainConfig())


def test_adam_rejects_bad_step_index():
    model = small_f64_model([2, 2])
    state = mlp.AdamState.zeros_like(model)
    grads = [np.zeros_like(p) for p in model.weights + model.biases]
    with pytest.raises(ValueError):
        mlp.adam_step(model, grads, state, t=0, config=mlp.TrainConfig())


def multi_block_model():
    """float32 model whose first weight spans two full Adam blocks plus a partial one."""
    model = mlp.init_model([mlp.ADAM_BLOCK // 16 + 3, 32, 3], seed=0)
    size = model.weights[0].size
    assert size > 2 * mlp.ADAM_BLOCK and size % mlp.ADAM_BLOCK != 0
    return model


def test_adam_matches_scaled_reference_bytes():
    model = multi_block_model()
    params = model.weights + model.biases
    rng = np.random.default_rng(5)
    steps = [[rng.standard_normal(p.shape).astype(np.float32) * 1e-2 for p in params]
             for _ in range(5)]
    cfg = mlp.TrainConfig()
    expected = scaled_adam(params, steps, cfg.learning_rate, mlp.BETA1, mlp.BETA2, mlp.EPS)
    state = mlp.AdamState.zeros_like(model)
    for t, grads in enumerate(steps, start=1):
        mlp.adam_step(model, grads, state, t, cfg)
    for got, want in zip(model.weights + model.biases, expected):
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


def test_adam_stays_within_float_rounding_of_textbook_adam():
    # the scaled moments reorder the textbook arithmetic; measured 1.5e-8 here
    model = multi_block_model()
    params = model.weights + model.biases
    rng = np.random.default_rng(12)
    steps = [[rng.standard_normal(p.shape).astype(np.float32) * 1e-2 for p in params]
             for _ in range(20)]
    cfg = mlp.TrainConfig()
    expected = textbook_adam(params, steps, cfg.learning_rate, mlp.BETA1, mlp.BETA2, mlp.EPS)
    state = mlp.AdamState.zeros_like(model)
    for t, grads in enumerate(steps, start=1):
        mlp.adam_step(model, grads, state, t, cfg)
    worst = max(float(np.max(np.abs(got - want)))
                for got, want in zip(model.weights + model.biases, expected))
    assert worst < 1e-6


def test_adam_leaves_gradients_unchanged():
    model = multi_block_model()
    rng = np.random.default_rng(6)
    grads = [rng.standard_normal(p.shape).astype(np.float32)
             for p in model.weights + model.biases]
    before = [g.copy() for g in grads]
    state = mlp.AdamState.zeros_like(model)
    for t in (1, 2):
        mlp.adam_step(model, grads, state, t, mlp.TrainConfig())
    for g, b in zip(grads, before):
        assert g.tobytes() == b.tobytes()


def test_adam_nonfinite_in_last_block_raises():
    model = multi_block_model()
    grads = [np.zeros_like(p) for p in model.weights + model.biases]
    grads[0].reshape(-1)[-1] = np.nan          # only the final, partial block
    state = mlp.AdamState.zeros_like(model)
    with pytest.raises(mlp.TrainingDivergedError):
        mlp.adam_step(model, grads, state, t=1, config=mlp.TrainConfig())


HALF = mlp.MATMUL_BLOCK // 2


@given(fan_out=st.integers(1, 900), fan_in=st.integers(1, 1200),
       wide=st.booleans(), tail=st.booleans(), batch=st.integers(1, 70),
       seed=st.integers(0, 2 ** 16))
@example(fan_out=1, fan_in=7, wide=False, tail=False, batch=1, seed=0)
@example(fan_out=2, fan_in=300, wide=False, tail=True, batch=70, seed=1)
@example(fan_out=3, fan_in=1000, wide=False, tail=False, batch=33, seed=5)
@example(fan_out=3, fan_in=1200, wide=True, tail=False, batch=2, seed=2)
@example(fan_out=6, fan_in=1, wide=True, tail=True, batch=70, seed=3)
@example(fan_out=900, fan_in=1163, wide=False, tail=True, batch=64, seed=4)
def test_adam_factored_matches_dense_bytes(fan_out, fan_in, wide, tail, batch, seed):
    # `wide` puts the first weight's rows above half a block: 2- and 3-row blocks
    if wide:
        fan_in, fan_out = 1 + fan_in % 7, HALF + fan_out
    dims = [fan_in, fan_out] + ([3] if tail else [])
    rng = np.random.default_rng(seed)
    dense, factored = mlp.init_model(dims, seed=seed), mlp.init_model(dims, seed=seed)
    dense_state = mlp.AdamState.zeros_like(dense)
    factored_state = mlp.AdamState.zeros_like(factored)
    initial = [p.copy() for p in dense.weights + dense.biases]
    cfg = mlp.TrainConfig()
    steps = []
    for t in (1, 2):
        x = rng.uniform(0, 1, (batch, fan_in)).astype(np.float32)
        s = rng.uniform(0, 1, (batch, dims[-1])).astype(np.float32)
        steps.append(mlp.gradients(dense, x, s))
        mlp.adam_step(dense, steps[-1], dense_state, t, cfg)
        mlp.adam_step(factored, mlp._backward(factored, x, s)[1], factored_state, t, cfg)
    expected = scaled_adam(initial, steps, cfg.learning_rate, mlp.BETA1, mlp.BETA2, mlp.EPS)
    for got, dense_p, want in zip(factored.weights + factored.biases,
                                  dense.weights + dense.biases, expected):
        assert got.tobytes() == dense_p.tobytes() == want.tobytes()


def test_row_blocks_have_two_rows_and_about_a_block():
    for rows, row_size in ((1, 5), (2, HALF + 1), (3, HALF + 1), (5, HALF + 1),
                           (1024, 8000), (4096, 256), (900, 1163), (7, 3)):
        bounds = mlp._row_bounds(rows, row_size)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == rows
        assert sizes.min() >= min(2, rows)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.max() * row_size <= max(mlp.MATMUL_BLOCK + row_size, 3 * row_size)


def test_adam_nonfinite_in_last_factored_row_block_names_shape_and_step():
    model = mlp.init_model([4101, 150, 3], seed=0)  # first weight: three row blocks
    assert len(mlp._row_bounds(4101, 150)) == 4
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (8, 4101)).astype(np.float32)
    s = rng.uniform(0, 1, (8, 3)).astype(np.float32)
    _, grads = mlp._backward(model, x, s)
    grads[0][1][:, -1] = np.nan                # only the weight's last row
    state = mlp.AdamState.zeros_like(model)
    with pytest.raises(mlp.TrainingDivergedError, match="weight 0 at step 4"):
        mlp.adam_step(model, grads, state, t=4, config=mlp.TrainConfig())


def test_adam_nonfinite_factor_raises_before_any_parameter_changes():
    model = mlp.init_model([4101, 150, 3], seed=0)
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, (8, 4101)).astype(np.float32)
    s = rng.uniform(0, 1, (8, 3)).astype(np.float32)
    state = mlp.AdamState.zeros_like(model)
    cfg = mlp.TrainConfig()
    mlp.adam_step(model, mlp._backward(model, x, s)[1], state, 1, cfg)  # nonzero moments
    _, grads = mlp._backward(model, x, s)
    grads[1][1][3, 7] = np.nan                 # the last weight's act, not its product
    arrays = model.weights + model.biases + state.m + state.v
    before = [a.tobytes() for a in arrays]
    with pytest.raises(mlp.TrainingDivergedError, match="weight 1 at step 2"):
        mlp.adam_step(model, grads, state, t=2, config=cfg)
    assert [a.tobytes() for a in arrays] == before


def test_adam_overflowing_products_of_finite_factors_raise_per_block():
    model = mlp.init_model([4, 3], seed=0)
    bias = np.zeros(3, dtype=np.float32)
    big = [(np.full((2, 3), 1e20, dtype=np.float32), np.full((2, 4), 1e20, dtype=np.float32)),
           bias]                               # factors finite, each sum 2e40
    near = [(np.full((2, 3), 1e19, dtype=np.float32), np.full((2, 4), 1e19, dtype=np.float32)),
            bias]                              # past the bound, each sum 2e38 still finite
    with np.errstate(over="ignore"):
        with pytest.raises(mlp.TrainingDivergedError, match="weight 0 at step 5"):
            mlp.adam_step(model, big, mlp.AdamState.zeros_like(model), 5, mlp.TrainConfig())
        mlp.adam_step(model, near, mlp.AdamState.zeros_like(model), 5, mlp.TrainConfig())
    assert np.isfinite(model.weights[0]).all()


def test_adam_rejects_mismatched_factors():
    model = small_f64_model([4, 3])
    state = mlp.AdamState.zeros_like(model)
    bias = np.zeros(3)
    with pytest.raises(ValueError, match="gradient shape"):
        mlp.adam_step(model, [(np.ones((2, 3)), np.ones((2, 5))), bias], state, 1,
                      mlp.TrainConfig())
    with pytest.raises(ValueError, match="factors"):
        mlp.adam_step(model, [(np.ones((2, 3)), np.ones((1, 4))), bias], state, 1,
                      mlp.TrainConfig())


# ---------------------------------------------------------------------------
# training


def toy_task(n=96, n_in=12, n_out=6, seed=0):
    # a linear map plus mild noise keeps the task learnable in a few epochs
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, n_in))
    mix = rng.uniform(0, 1.0 / n_in, (n_in, n_out))
    y = np.clip(x @ mix + 0.2, 0, 1)
    return x, y


def train_new(dataset, cfg, hidden):
    """mlp.train on a new model of the given hidden widths, made as train makes its own."""
    x, y = dataset
    return mlp.train(dataset, cfg, mlp.init_model([x.shape[1], *hidden, y.shape[1]], cfg.seed))


def test_train_loss_decreases():
    x, y = toy_task()
    cfg = mlp.TrainConfig(epochs=20, batch_size=16, seed=1)
    _, hist = train_new((x, y), cfg, (8,))
    assert hist.train_loss[-1] < hist.train_loss[0]
    assert len(hist.train_loss) == len(hist.val_loss) == 20


def test_train_validation_improves_early():
    x, y = toy_task(n=160)
    cfg = mlp.TrainConfig(epochs=10, batch_size=16, seed=3)
    _, hist = train_new((x, y), cfg, (8,))
    assert hist.val_loss[9] < hist.val_loss[0]


def test_train_memorizes_repeated_pair():
    rng = np.random.default_rng(4)
    x = np.tile(rng.uniform(0, 1, 10), (64, 1))
    y = np.tile(rng.uniform(0, 1, 4), (64, 1))
    cfg = mlp.TrainConfig(epochs=50, batch_size=8, seed=0)
    _, hist = train_new((x, y), cfg, (16,))
    assert hist.train_loss[-1] < 1e-4


def test_train_deterministic_history_and_model():
    x, y = toy_task()
    cfg = mlp.TrainConfig(epochs=5, batch_size=16, seed=9)
    m1, h1 = train_new((x, y), cfg, (8,))
    m2, h2 = train_new((x, y), cfg, (8,))
    assert np.array_equal(h1.train_loss, h2.train_loss)
    assert np.array_equal(h1.val_loss, h2.val_loss)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert np.array_equal(a, b)


def test_train_matches_gradients_and_adam_loop(monkeypatch):
    # factored gradients give the bytes of a fresh gradients() list per step
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 1, (100, 600)).astype(np.float32)
    y = rng.uniform(0, 1, (100, 16)).astype(np.float32)
    dims = [600, 64, 16]                      # first weight spans two Adam blocks, one partial
    cfg = mlp.TrainConfig(epochs=2, batch_size=16, seed=2)
    expected = reference_train(x, y, cfg, mlp.init_model(dims, seed=7))
    steps = []
    adam_step = mlp.adam_step
    monkeypatch.setattr(mlp, "adam_step", lambda *a: steps.append(a[3]) or adam_step(*a))
    model, _ = mlp.train((x, y), cfg, model=mlp.init_model(dims, seed=7))
    for got, want in zip(model.weights + model.biases, expected.weights + expected.biases):
        assert got.tobytes() == want.tobytes()
    # one call per step through the module attribute, as tracers count them;
    # 93 of the 100 pairs train, the rest are the validation tail
    assert steps == list(range(1, cfg.epochs * math.ceil(93 / 16) + 1))


def test_train_peak_memory_is_three_parameter_sets(traced_peak):
    # the model and two Adam moments, one row-block buffer, plus batch-sized work
    dims = [4096, 512, 64]                    # first weight: eight 1 MiB row blocks
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (128, dims[0])).astype(np.float32)
    y = rng.uniform(0, 1, (128, dims[-1])).astype(np.float32)
    param_bytes = 4 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    cfg = mlp.TrainConfig(epochs=2, batch_size=32, seed=0)
    peak = traced_peak(lambda: train_new((x, y), cfg, dims[1:-1]))
    assert peak < 3 * param_bytes + 4 * mlp.MATMUL_BLOCK + x.nbytes + y.nbytes


# Skipping exact zeros regroups the first-layer sums, so training with dead
# columns differs from full-width training in the last bits. Adam scales
# each step to about the learning rate, so rounding noise in a gradient near
# zero can change one element's step by up to that; the parameters stay
# within one learning rate of full-width training (worst measured 4.8e-5,
# one element, over some 4000 draws) and the losses within 1e-4 relative
# (worst measured 5.8e-6).
LOSS_RTOL = 1e-4


def dead_column_task(seed, dead_share, n_in=300):
    """toy_task in float32 with each input column zero in every row with
    probability dead_share; returns x, y and the dead-column mask."""
    x, y = toy_task(n=96, n_in=n_in, seed=seed)
    dead = np.random.default_rng(seed).random(n_in) < dead_share
    x[:, dead] = 0.0
    return x.astype(np.float32), y.astype(np.float32), dead


@given(seed=st.integers(0, 2 ** 16), dead_share=st.floats(0.0, 1.0),
       batch=st.integers(4, 40))
@example(seed=0, dead_share=0.0, batch=16)        # every column live
@example(seed=1, dead_share=0.4, batch=16)
@example(seed=4955, dead_share=0.3203125, batch=14)   # the 4.8e-5 element
@example(seed=2, dead_share=1.0, batch=16)        # every column dead
def test_train_with_dead_columns_tracks_full_width_training(seed, dead_share, batch):
    x, y, dead = dead_column_task(seed, dead_share)
    init = mlp.init_model([x.shape[1], 32, y.shape[1]], seed=seed)
    cfg = mlp.TrainConfig(epochs=3, batch_size=batch, seed=seed)
    losses = {}
    want = reference_train(x, y, cfg, init.copy(), losses)
    model = init.copy()
    got, hist = mlp.train((x, y), cfg, model=model)
    assert got is model
    # a dead column's gradient is zero at every step: its weights keep their bytes
    assert got.weights[0][dead].tobytes() == init.weights[0][dead].tobytes()
    pairs = list(zip(got.weights + got.biases, want.weights + want.biases))
    if not dead.any():
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)
    assert max(float(np.max(np.abs(a - b))) for a, b in pairs) < cfg.learning_rate
    np.testing.assert_allclose(hist.train_loss, losses["train"], rtol=LOSS_RTOL)
    np.testing.assert_allclose(hist.val_loss, losses["val"], rtol=LOSS_RTOL)


@pytest.mark.parametrize("stride", [4, 2, 1])
def test_train_peak_memory_with_dead_columns_is_below_three_parameter_sets(traced_peak,
                                                                             stride):
    # as test_train_peak_memory_is_three_parameter_sets, with every stride-th
    # input column dead (a quarter, half, all): the moments of their weight
    # rows go and a copy of those rows comes in, so the bound sits below that
    # test's by the dead rows' bytes, however few of them there are
    dims = [4096, 512, 64]
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (128, dims[0])).astype(np.float32)
    y = rng.uniform(0, 1, (128, dims[-1])).astype(np.float32)
    x[:, ::stride] = 0.0
    param_bytes = 4 * sum(a * b + b for a, b in zip(dims[:-1], dims[1:]))
    dead_bytes = 4 * dims[1] * (dims[0] // stride)
    cfg = mlp.TrainConfig(epochs=2, batch_size=32, seed=0)
    peak = traced_peak(lambda: train_new((x, y), cfg, dims[1:-1]))
    assert peak < 3 * param_bytes - dead_bytes + 4 * mlp.MATMUL_BLOCK + x.nbytes + y.nbytes


@given(rows=st.integers(1, 160), width=st.integers(1, 5000), live_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
@example(rows=150, width=4101, live_share=0.5, seed=0)     # several row blocks
@example(rows=1, width=3, live_share=0.0, seed=1)
def test_packed_columns_unpack_into_place(rows, width, live_share, seed):
    # an input column's weights are one row of the input-major first weight;
    # `width` input columns, each of `rows` weights
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((width, rows)).astype(np.float32)
    before = w.copy()
    lit = rng.random(width) < live_share
    live, dead = np.flatnonzero(lit), np.flatnonzero(~lit)
    saved = w.take(dead, axis=0)
    packed = mlp._pack_rows(w, live)
    assert packed.flags.c_contiguous and (np.shares_memory(packed, w) or not live.size)
    assert packed.tobytes() == before[live].tobytes()
    packed += 1.0                                  # as training moves them
    mlp._unpack_rows(w, live, dead, saved)
    assert w[live].tobytes() == (before[live] + 1.0).tobytes()
    assert w[dead].tobytes() == before[dead].tobytes()


def test_train_on_all_zero_inputs_keeps_the_first_weight():
    rng = np.random.default_rng(5)
    x = np.zeros((64, 20), dtype=np.float32)
    y = rng.uniform(0, 1, (64, 4)).astype(np.float32)
    init = mlp.init_model([20, 8, 4], seed=3)
    model, hist = mlp.train((x, y), mlp.TrainConfig(epochs=3, batch_size=16, seed=1),
                            model=init.copy())
    assert model.weights[0].tobytes() == init.weights[0].tobytes()
    assert np.isfinite(hist.train_loss).all() and np.isfinite(hist.val_loss).all()
    assert hist.train_loss[-1] < hist.train_loss[0]     # the biases and later layers learn
    assert not np.array_equal(model.biases[0], init.biases[0])


def test_train_diverging_with_dead_columns_writes_back_the_trained_columns(monkeypatch):
    x, y, dead = dead_column_task(seed=4, dead_share=0.5)
    init = mlp.init_model([x.shape[1], 32, y.shape[1]], seed=4)
    trained = []
    adam_step = mlp.adam_step

    def poisoned(compact, grads, state, t, config):
        # a nonfinite factor raises before any parameter changes
        trained[:] = [compact.weights[0].copy()]
        if t == 3:                              # after two good steps
            delta, act = grads[0]
            grads[0] = (np.full_like(delta, np.nan), act)
        return adam_step(compact, grads, state, t, config)

    monkeypatch.setattr(mlp, "adam_step", poisoned)
    model = init.copy()
    with pytest.raises(mlp.TrainingDivergedError, match="for weight 0 at step 3"):
        mlp.train((x, y), mlp.TrainConfig(epochs=2, batch_size=16, seed=4), model=model)
    first = model.weights[0]
    assert trained[0].shape == (int((~dead).sum()), 32)
    assert first[~dead].tobytes() == trained[0].tobytes()
    assert not np.array_equal(first[~dead], init.weights[0][~dead])
    assert first[dead].tobytes() == init.weights[0][dead].tobytes()


def test_train_rejects_bad_datasets():
    x, y = toy_task(n=32)
    with pytest.raises(ValueError):
        mlp.train((x[:0], y[:0]), mlp.TrainConfig())
    with pytest.raises(ValueError):
        mlp.train((x, y[:-1]), mlp.TrainConfig(batch_size=8))
    with pytest.raises(ValueError):
        mlp.train((x, y), mlp.TrainConfig(batch_size=64))  # fewer pairs than a batch
    with pytest.raises(ValueError):
        mlp.train((x * 3.0, y), mlp.TrainConfig(batch_size=8))  # not normalized


def test_train_rejects_model_of_other_input_width():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 1, (32, 50)), rng.uniform(0, 1, (32, 16))
    model = mlp.init_model([40, 8, 16], seed=0)
    before = [p.tobytes() for p in model.weights + model.biases]
    with pytest.raises(ValueError, match="inputs have width 50, the model's input layer 40"):
        mlp.train((x, y), mlp.TrainConfig(batch_size=8, epochs=1), model=model)
    assert [p.tobytes() for p in model.weights + model.biases] == before


def test_train_rejects_model_of_other_output_width():
    rng = np.random.default_rng(4)
    x, y = rng.uniform(0, 1, (32, 50)), rng.uniform(0, 1, (32, 16))
    model = mlp.init_model([50, 8, 12], seed=0)
    before = [p.tobytes() for p in model.weights + model.biases]
    with pytest.raises(ValueError, match="targets have width 16, the model's output layer 12"):
        mlp.train((x, y), mlp.TrainConfig(batch_size=8, epochs=1), model=model)
    assert [p.tobytes() for p in model.weights + model.biases] == before


def test_train_rejects_nan_inputs():
    x, y = toy_task(n=32)
    x[5, 2] = np.nan
    with pytest.raises(ValueError, match="inputs contain NaN or inf"):
        mlp.train((x, y), mlp.TrainConfig(batch_size=8))


def test_train_rejects_inf_targets():
    x, y = toy_task(n=32)
    y[7, 1] = np.inf
    with pytest.raises(ValueError, match="targets contain NaN or inf"):
        mlp.train((x, y), mlp.TrainConfig(batch_size=8))


def test_train_config_validation():
    with pytest.raises(ValueError):
        mlp.TrainConfig(validation_fraction=0.0)
    with pytest.raises(ValueError):
        mlp.TrainConfig(batch_size=0)


# ---------------------------------------------------------------------------
# predict


def test_predict_shape_and_bounds():
    cfg = SimConfig(img_w=16, img_h=16, bins=128)
    model = mlp.init_model([128, 32, 256], seed=0)
    counts = np.zeros(128)
    counts[40] = 10.0
    img = mlp.predict(model, forward.Histogram(cfg.bin_width_s, counts), cfg)
    assert img.depth_m.shape == (16, 16)
    assert img.depth_m.min() >= 0.0 and img.depth_m.max() <= cfg.z_max


def test_predict_reshapes_row_major():
    cfg = SimConfig(img_w=16, img_h=8, bins=16)
    # bias-only model writes a recognizable gradient into the output vector
    model = mlp.MlpModel(weights=[np.zeros((16, 128), dtype=np.float64)],
                         biases=[np.linspace(0, 1, 128)])
    img = mlp.predict(model, forward.Histogram(cfg.bin_width_s, np.zeros(16)), cfg)
    expected = (np.linspace(0, 1, 128).reshape(8, 16)) * cfg.z_max
    np.testing.assert_allclose(img.depth_m, expected, rtol=1e-12)


def test_predict_rejects_mismatched_dims():
    cfg = SimConfig(img_w=16, img_h=16, bins=128)
    model = mlp.init_model([64, 16, 256], seed=0)
    with pytest.raises(ValueError):
        mlp.predict(model, forward.Histogram(cfg.bin_width_s, np.zeros(128)), cfg)
    model2 = mlp.init_model([128, 16, 100], seed=0)
    with pytest.raises(ValueError):
        mlp.predict(model2, forward.Histogram(cfg.bin_width_s, np.zeros(128)), cfg)


def test_predict_rejects_other_bin_width_and_offset():
    cfg = SimConfig(img_w=8, img_h=8, bins=16)
    model = mlp.init_model([16, 8, 64], seed=0)
    wide = forward.Histogram(3 * cfg.bin_width_s, np.ones(16))
    with pytest.raises(ValueError) as info:
        mlp.predict(model, wide, cfg)
    assert repr(wide.bin_width_s) in str(info.value)
    assert repr(cfg.bin_width_s) in str(info.value)
    late = forward.Histogram(cfg.bin_width_s, np.ones(16), t0_s=1e-9)
    with pytest.raises(ValueError, match="t0 = 1e-09"):
        mlp.predict(model, late, cfg)
    # a width read back from CSV carries rounding well inside the tolerance
    near = forward.Histogram(cfg.bin_width_s * (1 + 1e-12), np.ones(16))
    assert mlp.predict(model, near, cfg).depth_m.shape == (8, 8)
