"""Property tests of the file formats and of SSIM.

`.tdid` datasets and `.tdim` models of finite values must read back bit for
bit for any shape, an empty dataset included, and with any block size, and
a model's file must hold each weight transposed, (fan_out, fan_in). A
histogram CSV must read back its counts and its first bin start, also when
that is not 0, and refuse a start that is not finite, naming its line. SSIM
must be symmetric to the last bit and score an image against itself as
exactly 1.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tdi import forward, metrics, mlp, store

FINITE_F4 = st.floats(width=32, allow_nan=False, allow_infinity=False)
UNIT_F4 = st.floats(0.0, 1.0, width=32)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 7))
    bins = draw(st.integers(1, 12))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return store.Dataset(histograms=draw(arrays(np.float32, (n, bins), elements=FINITE_F4)),
                         images=draw(arrays(np.float32, (n, w * h), elements=UNIT_F4)),
                         img_w=w, img_h=h)


@given(ds=datasets(), block_bytes=st.integers(1, 256))
def test_dataset_file_round_trips_any_shape(tmp_path_factory, ds, block_bytes):
    # small blocks split the records into several, some ending short
    path = tmp_path_factory.mktemp("tdid") / "pairs.tdid"
    with mock.patch.object(store, "_BLOCK_BYTES", block_bytes):
        store.write_dataset(path, ds)
        back = store.read_dataset(path)
    assert (back.img_w, back.img_h, len(back), back.bins) == (ds.img_w, ds.img_h,
                                                              len(ds), ds.bins)
    assert back.histograms.tobytes() == ds.histograms.tobytes()
    assert back.images.tobytes() == ds.images.tobytes()


@st.composite
def models(draw):
    dims = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    weights = [draw(arrays(np.float32, (din, dout), elements=FINITE_F4))
               for din, dout in zip(dims[:-1], dims[1:])]
    biases = [draw(arrays(np.float32, dout, elements=FINITE_F4)) for dout in dims[1:]]
    return mlp.MlpModel(weights, biases)


@given(model=models(), block_bytes=st.integers(1, 64))
def test_model_file_round_trips_any_shape(tmp_path_factory, model, block_bytes):
    # small blocks split each weight's on-disk rows into several, some ending short
    path = tmp_path_factory.mktemp("tdim") / "model.tdim"
    with mock.patch.object(store, "_BLOCK_BYTES", block_bytes):
        store.write_model(path, model)
        back = store.read_model(path)
    # on disk, each weight is its (fan_out, fan_in) transpose, row-major
    dims = model.layer_dims
    layers = [w.T.tobytes() + b.tobytes() for w, b in zip(model.weights, model.biases)]
    assert path.read_bytes() == struct.pack(f"<4sII{len(dims)}I", b"TDIM", 1, len(dims),
                                            *dims) + b"".join(layers)
    assert back.layer_dims == model.layer_dims
    for got, want in zip(back.weights + back.biases, model.weights + model.biases):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(counts=arrays(np.float64, st.integers(2, 300), elements=st.floats(0.0, 1e12)),
       width=st.floats(1e-13, 1e-9),
       offset=st.floats(-1e6, 1e6).filter(lambda offset: offset != 0.0))
def test_histogram_csv_round_trips_a_late_or_early_start(tmp_path_factory, counts,
                                                          width, offset):
    # t0 up to a million bins either side of 0; a 1 us start at 1.25 ps bins is 800 000
    h = forward.Histogram(width, counts, t0_s=offset * width)
    path = tmp_path_factory.mktemp("csv") / "hist.csv"
    store.write_histogram_csv(h, path)
    back = store.read_histogram_csv(path)
    assert back.t0_s == h.t0_s
    assert back.bin_width_s == pytest.approx(width, rel=1e-9)
    assert back.counts.tobytes() == h.counts.tobytes()


@given(bins=st.integers(2, 40), where=st.sampled_from(["first", "middle", "last"]),
       bad=st.sampled_from(["nan", "inf", "-inf"]))
def test_histogram_csv_refuses_a_nonfinite_start_naming_its_line(tmp_path_factory, bins,
                                                                  where, bad):
    path = tmp_path_factory.mktemp("csv") / "hist.csv"
    store.write_histogram_csv(forward.Histogram(1e-11, np.ones(bins)), path)
    lines = path.read_text().splitlines()
    row = {"first": 0, "middle": bins // 2, "last": bins - 1}[where]
    lines[1 + row] = f"{bad},1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"histogram CSV line {row + 2}: "):
        store.read_histogram_csv(path)


@st.composite
def image_pairs(draw):
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 20)),
                                                       draw(st.integers(1, 20)))
    images = arrays(np.float64, shape, elements=st.floats(0.0, 1.0))
    return draw(images), draw(images)


@given(pair=image_pairs())
def test_ssim_is_symmetric_and_one_on_itself(pair):
    a, b = pair
    ab, ba = metrics.ssim(a, b), metrics.ssim(b, a)
    assert ab.map.tobytes() == ba.map.tobytes() and ab.mean == ba.mean
    for img in pair:
        same = metrics.ssim(img, img)
        assert np.all(same.map == 1.0) and same.mean == 1.0
