"""Property tests of the file formats and of SSIM.

`.tdid` datasets and `.tdim` models of finite values must read back bit for
bit for any shape, an empty dataset included. A dataset's file must hold its
records as the dataset does, and a model's file each weight as the model
does, (fan_in, fan_out). A histogram CSV must read back its counts and its
first bin start, also when that is not 0, and refuse a start that is not
finite, naming its line. Each of the four readers, given any bytes, must
either read them or raise StoreError or ValueError with a message, without
allocating much more than the file's size. SSIM must be symmetric to the
last bit and score an image against itself as exactly 1.
"""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reference import dataset_records
from tdi import forward, metrics, mlp, store

FINITE_F4 = st.floats(width=32, allow_nan=False, allow_infinity=False)
UNIT_F4 = st.floats(0.0, 1.0, width=32)


@st.composite
def datasets(draw):
    n = draw(st.integers(0, 7))
    bins = draw(st.integers(1, 12))
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    records = dataset_records(draw(arrays(np.float32, (n, bins), elements=FINITE_F4)),
                              draw(arrays(np.float32, (n, w * h), elements=UNIT_F4)))
    return store.Dataset(records, img_w=w, img_h=h)


@given(ds=datasets())
def test_dataset_file_round_trips_any_shape(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("tdid") / "pairs.tdid"
    store.write_dataset(path, ds)
    header = struct.pack("<4sIIIII", b"TDID", 1, ds.bins, ds.img_w, ds.img_h, len(ds))
    assert path.read_bytes() == header + ds.records.tobytes()
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


@given(model=models())
def test_model_file_round_trips_any_shape(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("tdim") / "model.tdim"
    store.write_model(path, model)
    # v2: the header, then per layer the weight as the model holds it and the bias
    dims = model.layer_dims
    layers = [w.tobytes() + b.tobytes() for w, b in zip(model.weights, model.biases)]
    assert path.read_bytes() == struct.pack(f"<4sII{len(dims)}I", b"TDIM", 2, len(dims),
                                            *dims) + b"".join(layers)
    back = store.read_model(path)
    assert back.layer_dims == model.layer_dims
    for got, want in zip(back.weights + back.biases, model.weights + model.biases):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


READERS = {"dataset": store.read_dataset, "model": store.read_model,
           "histogram CSV": store.read_histogram_csv, "settings": store.read_settings}
# Bytes a reader may allocate beyond the file's size: its Python objects and
# numpy's small buffers, not a payload the header only declares.
READ_SLACK = 64 << 10


@st.composite
def any_file_bytes(draw):
    """A file's start, then u32 header fields of any value, then any bytes."""
    start = draw(st.sampled_from([b"", b"TDID", b"TDIM", b"bin_start_s,count\n",
                                  b"bins = "]))
    fields = draw(st.lists(st.integers(0, 2 ** 32 - 1), max_size=6))
    return start + struct.pack(f"<{len(fields)}I", *fields) + draw(st.binary(max_size=64))


@given(reader=st.sampled_from(sorted(READERS)), blob=any_file_bytes())
# a model header that declares 2^31 - 1 layer dims, 8 GiB of them, and holds none
@example(reader="model", blob=struct.pack("<4sII", b"TDIM", 2, 2 ** 31 - 1))
def test_any_bytes_read_or_fail_by_name_within_their_size(tmp_path_factory, reader, blob):
    path = tmp_path_factory.mktemp("fuzz") / "file"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        try:
            READERS[reader](path)
        except (store.StoreError, ValueError) as exc:
            assert str(exc), f"{type(exc).__name__} without a message"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(blob) + READ_SLACK


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
