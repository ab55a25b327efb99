import os
import re
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from reference import dataset_file_bytes, dataset_records, read_pgm
from tdi import forward, mlp, store

# A v2 model file, each weight input-major, (fan_in, fan_out): a [9, 6, 4]
# model whose biases are arange(fan_out) / 8 - 0.25.
TINY_MODEL = Path(__file__).parent / "data" / "tiny.tdim"


def random_dataset(n=5, bins=32, w=4, h=4, seed=0):
    rng = np.random.default_rng(seed)
    return store.Dataset(dataset_records(rng.uniform(0, 100, (n, bins)),
                                         rng.uniform(0, 1, (n, w * h))), img_w=w, img_h=h)


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_round_trip_bit_exact(tmp_path):
    ds = random_dataset()
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    back = store.read_dataset(path)
    assert np.array_equal(back.histograms, ds.histograms)
    assert np.array_equal(back.images, ds.images)
    assert (back.img_w, back.img_h) == (4, 4)


def test_dataset_file_length_formula(tmp_path):
    ds = random_dataset(n=3, bins=10, w=2, h=2)
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    assert path.stat().st_size == 24 + 3 * (10 + 4) * 4


def test_dataset_empty_is_header_only(tmp_path):
    ds = store.Dataset(np.zeros((0, 16 + 4), np.float32), img_w=2, img_h=2)
    path = tmp_path / "empty.tdid"
    store.write_dataset(path, ds)
    assert path.stat().st_size == 24
    assert len(store.read_dataset(path)) == 0


def test_dataset_bad_magic(tmp_path):
    ds = random_dataset()
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(store.BadMagicError):
        store.read_dataset(path)


def test_dataset_truncation(tmp_path):
    ds = random_dataset()
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(store.TruncatedFileError, match=re.escape(
            f"{path}: expected 960 payload bytes for 5 records, got 953")):
        store.read_dataset(path)
    path.write_bytes(blob[:10])  # inside the header
    with pytest.raises(store.TruncatedFileError,
                       match=re.escape(f"{path}: truncated while reading header")):
        store.read_dataset(path)


def file_shrinks_after_fstat(monkeypatch, path, cut):
    """Cut `cut` bytes off the file while fstat still reports the old size."""
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-cut])
    fstat = os.fstat
    monkeypatch.setattr(store.os, "fstat",
                        lambda fd: os.stat_result((*fstat(fd)[:6], size, *fstat(fd)[7:])))


def test_dataset_short_read_is_truncation(tmp_path, monkeypatch):
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, random_dataset())
    file_shrinks_after_fstat(monkeypatch, path, 7)
    with pytest.raises(store.TruncatedFileError,
                       match=re.escape(f"{path}: truncated while reading records")):
        store.read_dataset(path)


@pytest.mark.parametrize("n", [0, 1, 991, 992, 993])
def test_dataset_round_trip_across_blocks(tmp_path, n):
    # 992 records of 200 bins and 8x8 pixels fill about 1 MiB
    ds = random_dataset(n=n, bins=200, w=8, h=8, seed=n)
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    assert path.read_bytes() == dataset_file_bytes(ds)
    back = store.read_dataset(path)
    assert back.histograms.tobytes() == ds.histograms.tobytes()
    assert back.images.tobytes() == ds.images.tobytes()
    assert (back.img_w, back.img_h, back.bins) == (8, 8, 200)


def test_dataset_read_peak_memory(tmp_path, traced_peak):
    # the records read straight into the result; no second copy of the payload
    ds = random_dataset(n=3000, bins=400, w=8, h=8)
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    assert traced_peak(lambda: store.read_dataset(path)) < ds.records.nbytes + (64 << 10)


def test_dataset_write_peak_memory(tmp_path, traced_peak):
    # the records go out as the dataset holds them; no copy of any size
    ds = random_dataset(n=3000, bins=400, w=8, h=8)
    assert ds.records.nbytes > 5 << 20
    peak = traced_peak(lambda: store.write_dataset(tmp_path / "pairs.tdid", ds))
    assert peak < 64 << 10


def test_dataset_version_mismatch(tmp_path):
    ds = random_dataset()
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", store.DATASET_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(store.VersionError):
        store.read_dataset(path)


def test_dataset_trailing_bytes(tmp_path):
    ds = random_dataset()
    path = tmp_path / "pairs.tdid"
    store.write_dataset(path, ds)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(store.HeaderMismatchError, match=re.escape(
            f"{path}: 2 trailing bytes beyond the declared 5 records")):
        store.read_dataset(path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="normalized"):
        store.Dataset(dataset_records(np.zeros((2, 4)), np.full((2, 4), 1.5)), img_w=2, img_h=2)
    with pytest.raises(ValueError, match="normalized"):
        store.Dataset(dataset_records(np.zeros((2, 4)), np.full((2, 4), np.nan)),
                      img_w=2, img_h=2)
    with pytest.raises(ValueError, match="finite"):
        store.Dataset(dataset_records(np.full((2, 4), np.inf), np.zeros((2, 4))),
                      img_w=2, img_h=2)
    for img_w in (2, 0):   # no histogram column, a zero image side
        with pytest.raises(ValueError, match="need img_w, img_h >= 1 and 1 or more histogram"):
            store.Dataset(np.zeros((2, 4), np.float32), img_w=img_w, img_h=2)


@pytest.mark.parametrize("field", ["bins", "img_w", "img_h"])
def test_dataset_header_with_a_zero_dimension_fails_naming_it(tmp_path, field):
    # 3 records whose payload size agrees with the header
    dims = {"bins": 5, "img_w": 2, "img_h": 3, field: 0}
    record_len = dims["bins"] + dims["img_w"] * dims["img_h"]
    path = tmp_path / "pairs.tdid"
    path.write_bytes(struct.pack("<4sIIIII", b"TDID", 1, *dims.values(), 3)
                     + np.zeros(3 * record_len, "<f4").tobytes())
    with pytest.raises(store.HeaderMismatchError,
                       match=re.escape(f"{path}: header field {field} is 0")):
        store.read_dataset(path)


# ---------------------------------------------------------------------------
# model files


def test_model_round_trip(tmp_path):
    model = mlp.init_model([16, 8, 4], seed=3)
    path = tmp_path / "model.tdim"
    store.write_model(path, model)
    back = store.read_model(path)
    assert back.layer_dims == [16, 8, 4]
    for a, b in zip(model.weights + model.biases, back.weights + back.biases):
        assert np.array_equal(np.asarray(a, np.float32), b)

    # a second round trip is bit-stable and predictions agree exactly
    path2 = tmp_path / "model2.tdim"
    store.write_model(path2, back)
    again = store.read_model(path2)
    x = np.random.default_rng(0).uniform(0, 1, (10, 16)).astype(np.float32)
    assert np.array_equal(mlp.forward(back, x), mlp.forward(again, x))


def test_model_bad_magic_and_version(tmp_path):
    model = mlp.init_model([6, 3], seed=0)
    path = tmp_path / "model.tdim"
    store.write_model(path, model)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(store.BadMagicError):
        store.read_model(path)
    blob[0] ^= 0xFF
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(store.VersionError):
        store.read_model(path)


def test_model_payload_mismatch(tmp_path):
    model = mlp.init_model([6, 3], seed=0)
    path = tmp_path / "model.tdim"
    store.write_model(path, model)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(store.TruncatedFileError,
                       match=re.escape(f"{path}: expected 84 parameter bytes, got 80")):
        store.read_model(path)
    path.write_bytes(blob + b"\x00" * 4)
    with pytest.raises(store.HeaderMismatchError,
                       match=re.escape(f"{path}: 4 trailing parameter bytes")):
        store.read_model(path)


@pytest.mark.parametrize("dims", [(0, 4, 2), (9, 0, 4), (9, 4, 0)])
def test_model_with_a_zero_layer_width_fails_the_read(tmp_path, dims):
    path = tmp_path / "model.tdim"
    # the payload the dims declare, so only the zero is wrong
    n_params = sum(dout * din + dout for din, dout in zip(dims[:-1], dims[1:]))
    path.write_bytes(struct.pack("<4sII3I", b"TDIM", 2, 3, *dims) + bytes(4 * n_params))
    with pytest.raises(store.HeaderMismatchError,
                       match=re.escape(f"layer dim {dims.index(0)} of {list(dims)} is 0")):
        store.read_model(path)


def test_model_fixture_reads_its_numbers_and_writes_back_its_bytes(tmp_path):
    model = store.read_model(TINY_MODEL)
    assert model.layer_dims == [9, 6, 4]
    assert [w.shape for w in model.weights] == [(9, 6), (6, 4)]
    # numbers read from the file: the first weight's column 0 is output unit 0
    # over inputs 0..8
    assert model.weights[0][:3, 0].tolist() == [-0.1273692399263382, 0.27501022815704346,
                                                -0.27723899483680725]
    assert model.weights[0][8, 5] == np.float32(-0.19213602)
    assert model.weights[1][5, 3] == np.float32(0.25288975)
    for b in model.biases:
        assert b.tolist() == (np.arange(b.size, dtype=np.float32) / 8 - 0.25).tolist()
    # the output the file's model gave, to float32 rounding of its sums
    np.testing.assert_allclose(mlp.forward(model, np.linspace(0, 1, 9)),
                               [-0.9755359292030334, -0.08345702290534973,
                                -0.07100537419319153, -0.3246138095855713], rtol=1e-6)
    # written back, the file's bytes
    store.write_model(tmp_path / "back.tdim", model)
    assert (tmp_path / "back.tdim").read_bytes() == TINY_MODEL.read_bytes()


def test_v1_model_is_refused_naming_the_supported_version(tmp_path):
    # a v1 file held each weight output-major, (fan_out, fan_in); a well-formed
    # one, whose payload its dims declare, fails on its version alone
    blob = bytearray(TINY_MODEL.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    path = tmp_path / "v1.tdim"
    path.write_bytes(bytes(blob))
    with pytest.raises(store.VersionError,
                       match=re.escape(f"{path}: format version 1, reader supports 2")):
        store.read_model(path)


def test_model_header_declaring_more_dims_than_the_file_holds_is_truncation(tmp_path):
    # a 12-byte file that declares 2^31 - 1 layer dims, 8 GiB of them, is
    # refused before the dims are read
    path = tmp_path / "huge.tdim"
    path.write_bytes(struct.pack("<4sII", b"TDIM", 2, 2 ** 31 - 1))
    with pytest.raises(store.TruncatedFileError, match=re.escape(
            f"{path}: n_dims = 2147483647 needs 8589934588 bytes of layer dims, "
            f"0 follow the header")):
        store.read_model(path)


@pytest.mark.parametrize("layer, part, value", [(0, "weights", np.nan),
                                                (1, "weights", -np.inf),
                                                (0, "biases", np.nan),
                                                (1, "biases", np.inf)])
def test_model_with_a_nonfinite_parameter_fails_the_read(tmp_path, layer, part, value):
    model = mlp.init_model([16, 8, 4], seed=0)
    getattr(model, part)[layer][..., 3] = value
    path = tmp_path / "bad.tdim"
    store.write_model(path, model)
    with pytest.raises(store.StoreError,
                       match=re.escape(f"{path}: layer {layer} {part} hold NaN or inf")):
        store.read_model(path)


def test_model_with_nan_in_an_unlit_row_fails_the_read(tmp_path):
    # a NaN weight for input bin 11: a histogram that leaves bin 11 unlit
    # skips that row, a batch that lights it propagates the NaN, so a single
    # predict and a batched evaluation would disagree; the read refuses it
    model = mlp.init_model([16, 8, 4], seed=0)
    model.weights[0][11, 5] = np.nan
    x = np.zeros((2, 16), dtype=np.float32)
    x[0, 2] = 1.0
    assert np.isfinite(mlp.forward(model, x[0])).all()
    x[1, 11] = 1.0
    assert not np.isfinite(mlp.forward(model, x)).any()
    path = tmp_path / "nan.tdim"
    store.write_model(path, model)
    with pytest.raises(store.StoreError, match="layer 0 weights hold NaN or inf"):
        store.read_model(path)


@pytest.mark.parametrize("cut, what", [(4, "biases"), (20, "weights")])
def test_model_short_read_is_truncation(tmp_path, monkeypatch, cut, what):
    path = tmp_path / "model.tdim"
    store.write_model(path, mlp.init_model([6, 3], seed=0))
    file_shrinks_after_fstat(monkeypatch, path, cut)
    with pytest.raises(store.TruncatedFileError,
                       match=re.escape(f"{path}: truncated while reading {what}")):
        store.read_model(path)


# ---------------------------------------------------------------------------
# graymaps


def test_depth_pgm_extremes(tmp_path):
    path = tmp_path / "depth.pgm"
    store.export_depth_pgm(np.ones((4, 6)), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n6 4\n65535\n")
    values = np.frombuffer(raw[len(b"P5\n6 4\n65535\n"):], dtype=">u2")
    assert np.all(values == 65535)

    store.export_depth_pgm(np.zeros((4, 6)), path)
    values = read_pgm(path)
    assert values.dtype == np.dtype(">u2") and np.all(values == 0)


def test_depth_pgm_header_for_64(tmp_path):
    path = tmp_path / "d.pgm"
    store.export_depth_pgm(np.full((64, 64), 0.5), path)
    assert path.read_bytes().startswith(b"P5\n64 64\n65535\n")


def test_depth_pgm_rejects_unnormalized(tmp_path):
    with pytest.raises(ValueError):
        store.export_depth_pgm(np.full((4, 4), 2.0), tmp_path / "bad.pgm")


def test_pgm_round_trip_values(tmp_path):
    img = np.random.default_rng(1).uniform(0, 1, (8, 5))
    path = tmp_path / "r.pgm"
    store.export_depth_pgm(img, path)
    back = read_pgm(path)
    np.testing.assert_allclose(back / 65535.0, img, atol=0.5 / 65535)


def test_ssim_pgm_affine_mapping(tmp_path):
    smap = np.array([[-1.0, 0.0], [0.5, 1.0]])
    path = tmp_path / "s.pgm"
    store.export_ssim_pgm(smap, path)
    back = read_pgm(path)
    assert back.dtype == np.uint8
    assert back.tolist() == [[0, 128], [191, 255]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_depth_pgm_rejects_nonfinite_pixels(tmp_path, bad):
    img = np.full((4, 4), 0.5)
    img[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        store.export_depth_pgm(img, tmp_path / "bad.pgm")
    assert not (tmp_path / "bad.pgm").exists()


def test_read_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError, match="not a binary graymap"):
        read_pgm(path)
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 3)
    with pytest.raises(ValueError, match="raster has 3 bytes, expected 16"):
        read_pgm(path)


def test_write_errors_surface_path(tmp_path):
    missing = tmp_path / "nope" / "deep.pgm"
    with pytest.raises(store.StoreError, match="deep.pgm"):
        store.export_depth_pgm(np.zeros((2, 2)), missing)


CSV_WRITERS = {
    "write_csv": lambda path: store.write_csv(path, "a,b", [(1, 2), (3, 4)]),
    "write_histogram_csv": lambda path: store.write_histogram_csv(
        forward.Histogram(1e-11, np.ones(4)), path),
}


@pytest.mark.parametrize("name", sorted(CSV_WRITERS))
def test_csv_write_into_missing_directory(tmp_path, name):
    with pytest.raises(store.StoreError, match="out.csv"):
        CSV_WRITERS[name](tmp_path / "nope" / "out.csv")
    assert not list(tmp_path.rglob("*.tmp.*"))


@pytest.mark.parametrize("name", sorted(CSV_WRITERS))
def test_failed_csv_write_keeps_previous_file(tmp_path, monkeypatch, name):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(store.os, "replace", refuse)
    with pytest.raises(store.StoreError, match="disk full"):
        CSV_WRITERS[name](path)
    assert path.read_text() == "previous\n"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_write_csv_failing_rows_keep_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("previous\n")

    def rows():
        yield (1, 2)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        store.write_csv(path, "a,b", rows())
    assert path.read_text() == "previous\n"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_write_atomic_failing_chunks_keep_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous")

    def chunks():
        yield b"ab"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        store.write_atomic(path, chunks())
    assert path.read_bytes() == b"previous"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_concurrent_writes_to_one_path(tmp_path):
    # each thread has its own temp file, so no writer loses its rename
    path = tmp_path / "shared.csv"
    errors = []

    def writer(k):
        try:
            for _ in range(25):
                store.write_csv(path, "k", [(k,)])
        except store.StoreError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert path.read_text() in {f"k\n{k}\n" for k in range(4)}
    assert not list(tmp_path.glob("*.tmp.*"))
