"""All file I/O of the package: datasets, models, graymaps, silhouettes,
histogram CSV, other CSV, and `write_atomic`, through which every file is
written (the run manifest too). Only `config.read_settings`, which reads a
`--config` file, opens a file elsewhere.

Dataset file ("TDID"): 24-byte header
    magic 4s | version u32 | bins u32 | img_w u32 | img_h u32 | n_records u32
followed by n_records records, each `bins` float32 histogram values then
img_w*img_h float32 normalized image values. Everything little-endian.

Model file ("TDIM"): magic 4s | version u32 | n_dims u32 | n_dims * u32 dims,
then per layer: weights row-major float32, (fan_out, fan_in) on disk,
transposed on read/write; biases float32. On disk a weight is fan_out
records of fan_in floats, so it streams like dataset records. A model holds
its weights input-major, (fan_in, fan_out), so each block of records is
transposed through one reused buffer. A zero layer width, or a weight or
bias that is not finite, fails the read.

Every write goes through `write_atomic`: a temp file beside the target,
then one rename, so readers never observe a partially written file and a
failed write leaves the previous file as it was. Dataset records and
weight rows are streamed through one reused buffer of about _BLOCK_BYTES
in both directions, so no whole-payload copy is ever made.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .forward import Histogram
from .mlp import MlpModel
from .scene import Silhouette

DATASET_MAGIC = b"TDID"
MODEL_MAGIC = b"TDIM"
FORMAT_VERSION = 1

_F4 = np.dtype("<f4")
# Bytes of dataset records or on-disk weight rows staged per read or write;
# a whole record or row when larger.
_BLOCK_BYTES = 1 << 20
# Source rows per tile of a transposing copy, so that a tile's strided
# reads stay in cache.
_TILE_ROWS = 256


class StoreError(Exception):
    """Base class for persistence failures."""


class BadMagicError(StoreError):
    pass


class TruncatedFileError(StoreError):
    pass


class VersionError(StoreError):
    pass


class HeaderMismatchError(StoreError):
    """Declared header sizes disagree with the payload."""


@dataclass
class Dataset:
    histograms: np.ndarray   # (n, bins) float32
    images: np.ndarray       # (n, img_w * img_h) float32, values in [0, 1]
    img_w: int
    img_h: int

    def __post_init__(self):
        self.histograms = np.ascontiguousarray(self.histograms, dtype=_F4)
        self.images = np.ascontiguousarray(self.images, dtype=_F4)
        if self.histograms.ndim != 2 or self.images.ndim != 2:
            raise ValueError("histograms and images must be 2-D arrays")
        if self.histograms.shape[0] != self.images.shape[0]:
            raise ValueError("histogram and image record counts differ")
        if self.images.shape[1] != self.img_w * self.img_h:
            raise ValueError("image vector length does not match img_w * img_h")
        if not (_finite(self.histograms) and _finite(self.images)):
            raise ValueError("stored values must be finite")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("images must be normalized to [0, 1]")

    def __len__(self) -> int:
        return self.histograms.shape[0]

    @property
    def bins(self) -> int:
        return self.histograms.shape[1]


def _finite(arr: np.ndarray) -> bool:
    """No NaN or inf, without a full-size mask: min and max propagate NaN."""
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def write_atomic(path, chunks) -> None:
    """Write an iterable of chunks (bytes or C-contiguous arrays) to `path`, in order.

    The iterable is consumed lazily: each chunk is written before the next is
    asked for, so a generator may hand out one reused buffer. If it raises,
    the previous file stays as it was. The temp name is unique per process
    and thread, so concurrent writers of one path never share a temp file;
    the last rename wins.
    """
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise StoreError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_exact(fh, n: int, path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFileError(f"{path}: truncated while reading {what}")
    return data


def _read_into(fh, arr: np.ndarray, path, what: str) -> None:
    """Fill a C-contiguous array from the file, or raise TruncatedFileError."""
    if fh.readinto(arr) != arr.nbytes:
        raise TruncatedFileError(f"{path}: truncated while reading {what}")


def _record_blocks(n: int, record_len: int):
    """(first row, buffer) per block of n records; every block reuses one buffer.

    A weight is walked as its on-disk rows: _record_blocks(fan_out, fan_in)
    pairs the buffer at `lo` with the columns w[:, lo: lo + len(buffer)].
    """
    rows = max(1, _BLOCK_BYTES // max(1, 4 * record_len))
    block = np.empty((min(n, rows), record_len), dtype=_F4)
    for lo in range(0, n, rows):
        yield lo, block[: min(rows, n - lo)]


def _dataset_chunks(header: bytes, dataset: Dataset):
    """The header, then the records, assembled block by block."""
    yield header
    bins = dataset.bins
    for lo, part in _record_blocks(len(dataset), bins + dataset.images.shape[1]):
        part[:, :bins] = dataset.histograms[lo: lo + len(part)]
        part[:, bins:] = dataset.images[lo: lo + len(part)]
        yield part


def write_dataset(path, dataset: Dataset) -> None:
    header = struct.pack("<4sIIIII", DATASET_MAGIC, FORMAT_VERSION,
                         dataset.bins, dataset.img_w, dataset.img_h, len(dataset))
    write_atomic(path, _dataset_chunks(header, dataset))


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        head = _read_exact(fh, 24, path, "header")
        magic, version, bins, img_w, img_h, n = struct.unpack("<4sIIIII", head)
        if magic != DATASET_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: format version {version}, reader supports {FORMAT_VERSION}")
        record_len = bins + img_w * img_h
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = n * record_len * 4
        if size < expected:
            raise TruncatedFileError(
                f"{path}: expected {expected} payload bytes for {n} records, got {size}")
        if size > expected:
            raise HeaderMismatchError(
                f"{path}: {size - expected} trailing bytes beyond the declared {n} records")
        histograms = np.empty((n, bins), dtype=_F4)
        images = np.empty((n, img_w * img_h), dtype=_F4)
        for lo, part in _record_blocks(n, record_len):
            _read_into(fh, part, path, "records")
            histograms[lo: lo + len(part)] = part[:, :bins]
            images[lo: lo + len(part)] = part[:, bins:]
    return Dataset(histograms=histograms, images=images, img_w=img_w, img_h=img_h)


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src.T, _TILE_ROWS rows of src at a time."""
    for lo in range(0, dst.shape[1], _TILE_ROWS):
        dst[:, lo: lo + _TILE_ROWS] = src[lo: lo + _TILE_ROWS].T


def _model_chunks(header: bytes, model):
    """The header, then per layer the weight's on-disk rows block by block and the bias."""
    yield header
    for w, b in zip(model.weights, model.biases):
        for lo, block in _record_blocks(w.shape[1], w.shape[0]):
            _transpose_into(block, w[:, lo: lo + len(block)])
            yield block
        yield np.ascontiguousarray(b, dtype=_F4)


def write_model(path, model) -> None:
    dims = model.layer_dims
    header = (struct.pack("<4sII", MODEL_MAGIC, FORMAT_VERSION, len(dims))
              + struct.pack(f"<{len(dims)}I", *dims))
    write_atomic(path, _model_chunks(header, model))


def read_model(path):
    with open(path, "rb") as fh:
        magic, version, n_dims = struct.unpack("<4sII", _read_exact(fh, 12, path, "header"))
        if magic != MODEL_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        if version != FORMAT_VERSION:
            raise VersionError(f"{path}: format version {version}, reader supports {FORMAT_VERSION}")
        if n_dims < 2:
            raise HeaderMismatchError(f"{path}: model needs at least 2 layer dims, got {n_dims}")
        dims = struct.unpack(f"<{n_dims}I", _read_exact(fh, 4 * n_dims, path, "layer dims"))
        if 0 in dims:
            raise HeaderMismatchError(
                f"{path}: layer dim {dims.index(0)} of {list(dims)} is 0")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = sum(4 * (dout * din + dout) for din, dout in zip(dims[:-1], dims[1:]))
        if size < expected:
            raise TruncatedFileError(f"{path}: expected {expected} parameter bytes, got {size}")
        if size > expected:
            raise HeaderMismatchError(f"{path}: {size - expected} trailing parameter bytes")
        weights = [np.empty((din, dout), dtype=_F4) for din, dout in zip(dims[:-1], dims[1:])]
        biases = [np.empty(dout, dtype=_F4) for dout in dims[1:]]
        for layer, (w, b) in enumerate(zip(weights, biases)):
            for lo, block in _record_blocks(w.shape[1], w.shape[0]):
                _read_into(fh, block, path, "weights")
                if not _finite(block):
                    raise StoreError(f"{path}: layer {layer} weights hold NaN or inf")
                _transpose_into(w[:, lo: lo + len(block)], block)
            _read_into(fh, b, path, "biases")
            if not _finite(b):
                raise StoreError(f"{path}: layer {layer} biases hold NaN or inf")
    return MlpModel(weights, biases)


# ---------------------------------------------------------------------------
# Portable graymaps (binary P5), silhouettes and CSV


def export_depth_pgm(img: np.ndarray, path) -> None:
    """Write a normalized [0, 1] image as a 16-bit binary graymap."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D normalized image")
    # min and max propagate NaN, so a nonfinite pixel fails this check too
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise ValueError("image must be finite and normalized to [0, 1]")
    values = np.round(arr * 65535.0).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    write_atomic(path, [header + values.tobytes()])


def export_ssim_pgm(ssim_map: np.ndarray, path) -> None:
    """Write an SSIM map ([-1, 1]) as an 8-bit graymap (affine to 0..255)."""
    arr = np.asarray(ssim_map, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D SSIM map")
    values = np.round(np.clip((arr + 1.0) / 2.0, 0.0, 1.0) * 255.0).astype(np.uint8)
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii")
    write_atomic(path, [header + values.tobytes()])


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 graymap into a uint8 or uint16 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos: pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos: pos + 1] == b"#":
            while pos < len(data) and data[pos: pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace():
            pos += 1
        if start == pos:
            raise StoreError(f"{path}: malformed graymap header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise BadMagicError(f"{path}: not a binary graymap (magic {tokens[0]!r})")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
    n_bytes = width * height * dtype.itemsize
    raster = data[pos: pos + n_bytes]
    if len(raster) != n_bytes:
        raise TruncatedFileError(f"{path}: raster has {len(raster)} bytes, expected {n_bytes}")
    return np.frombuffer(raster, dtype=dtype).reshape(height, width).copy()


def load_silhouette_mask(path) -> np.ndarray:
    """Binarize an 8-bit graymap at 128 (>= 128 means figure)."""
    raw = read_pgm(path)
    if raw.dtype != np.uint8:
        raise StoreError(f"{path}: graymap is 16-bit; silhouettes must be 8-bit")
    return raw >= 128


def read_silhouette(path, id: int = 0, native_height_m: float = 1.75) -> Silhouette:
    """A silhouette from an 8-bit binary graymap, binarized at 128."""
    return Silhouette(id=id, mask=load_silhouette_mask(path), native_height_m=native_height_m)


def write_csv(path, header: str, rows) -> None:
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    write_atomic(path, [("\n".join(lines) + "\n").encode("utf-8")])


def write_histogram_csv(h: Histogram, path) -> None:
    """CSV export: header `bin_start_s,count`, one row per bin; written atomically."""
    rows = "".join(f"{float(t)!r},{float(c)!r}\n" for t, c in zip(h.bin_starts(), h.counts))
    write_atomic(path, [("bin_start_s,count\n" + rows).encode("utf-8")])


def read_histogram_csv(path) -> Histogram:
    """A histogram from `bin_start_s,count` rows: finite, evenly spaced starts
    and finite counts >= 0.

    A bad row is named by its file line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "bin_start_s,count":
            raise ValueError(f"unexpected histogram CSV header: {header!r}")
        starts, counts, lines = [], [], []
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                t, c = (float(v) for v in line.split(","))
            except ValueError:
                raise ValueError(f"histogram CSV line {number}: expected two numbers "
                                 f"'bin_start_s,count', got {line!r}") from None
            if not (math.isfinite(t) and math.isfinite(c) and c >= 0):
                raise ValueError(f"histogram CSV line {number}: expected a finite start "
                                 f"and a finite count >= 0, got {line!r}")
            starts.append(t)
            counts.append(c)
            lines.append(number)
    if len(starts) < 2:
        raise ValueError("histogram CSV needs at least 2 bins")
    # width from the end points: the first gap alone carries the rounding of
    # t0, which grows k-fold by bin k
    width = (starts[-1] - starts[0]) / (len(starts) - 1)
    deviation = np.abs(np.asarray(starts) - (starts[0] + np.arange(len(starts)) * width))
    # negated so that a NaN deviation (an overflowing width) counts as uneven
    uneven = np.flatnonzero(~(deviation <= 1e-9 * abs(width)))
    if uneven.size:
        k = int(uneven[0])
        raise ValueError(f"histogram CSV line {lines[k]}: bins are unevenly spaced, "
                         f"start {starts[k]!r} s, expected t0 + {k} * width = "
                         f"{starts[0] + k * width!r} s")
    return Histogram(width, np.asarray(counts), t0_s=starts[0])
