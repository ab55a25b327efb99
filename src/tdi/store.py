"""All file I/O of the package: datasets, models, graymaps, histogram CSV,
other CSV, `--config` settings files, and `write_atomic`, through which
every file is written (the run manifest too). Every file the package opens
is opened here.

Dataset file ("TDID", version 1): 24-byte header
    magic 4s | version u32 | bins u32 | img_w u32 | img_h u32 | n_records u32
followed by n_records records, each `bins` float32 histogram values then
img_w*img_h float32 normalized image values. Everything little-endian.
A `Dataset` holds the records as the file does, one (n, bins + img_w*img_h)
float32 array, written as it is and read with one `readinto`. A zero
`bins`, `img_w` or `img_h` fails the read.

Model file ("TDIM", version 2): magic 4s | version u32 | n_dims u32 |
n_dims * u32 dims, then per layer its float32 weight as the model holds it,
input-major, (fan_in, fan_out) row-major, then its float32 bias. Each array
is written as it is and read with one `readinto`. Only version 2 is read;
a version 1 file, which held each weight output-major, is refused. A zero
layer width, or a weight or bias that is not finite, fails the read.

Every write goes through `write_atomic`: a temp file beside the target,
then one rename, so readers never observe a partially written file and a
failed write leaves the previous file as it was. A read checks the payload
size against the header before it allocates anything.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .config import parse_settings
from .forward import Histogram
from .mlp import MlpModel

DATASET_MAGIC = b"TDID"
MODEL_MAGIC = b"TDIM"
DATASET_VERSION = 1
MODEL_VERSION = 2

_F4 = np.dtype("<f4")


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
    """Histogram/image pairs held as the file's records: row k of `records`
    is pair k, its `bins` histogram values, then its image values in [0, 1].

    `histograms` and `images` are views of the two column ranges, so they
    are not C-contiguous: the rows are a whole record apart. Code that
    needs a contiguous buffer, such as `hashlib.sha256`, takes
    `np.ascontiguousarray` of a view first.
    """

    records: np.ndarray      # (n, bins + img_w * img_h) float32
    img_w: int
    img_h: int

    def __post_init__(self):
        self.records = np.ascontiguousarray(self.records, dtype=_F4)
        if self.records.ndim != 2:
            raise ValueError("records must be a 2-D array")
        if self.img_w < 1 or self.img_h < 1 or self.bins < 1:
            raise ValueError(f"need img_w, img_h >= 1 and 1 or more histogram bins, got a "
                             f"{self.img_w} x {self.img_h} image in records of "
                             f"{self.records.shape[1]} values")
        if not _finite(self.histograms):
            raise ValueError("stored values must be finite")
        images = self.images
        # negated so that NaN, which fails every comparison, is refused too
        if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
            raise ValueError("images must be finite and normalized to [0, 1]")

    def __len__(self) -> int:
        return self.records.shape[0]

    @property
    def bins(self) -> int:
        return self.records.shape[1] - self.img_w * self.img_h

    @property
    def histograms(self) -> np.ndarray:
        return self.records[:, : self.bins]

    @property
    def images(self) -> np.ndarray:
        return self.records[:, self.bins:]


def _finite(arr: np.ndarray) -> bool:
    """No NaN or inf, without a full-size mask: min and max propagate NaN."""
    return not arr.size or bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def write_atomic(path, chunks) -> None:
    """Write an iterable of chunks (bytes or C-contiguous arrays) to `path`, in order.

    The iterable is consumed lazily: each chunk is written before the next is
    asked for. If it raises, the previous file stays as it was. The temp name
    is unique per process and thread, so concurrent writers of one path
    never share a temp file; the last rename wins.
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


def write_dataset(path, dataset: Dataset) -> None:
    header = struct.pack("<4sIIIII", DATASET_MAGIC, DATASET_VERSION,
                         dataset.bins, dataset.img_w, dataset.img_h, len(dataset))
    write_atomic(path, [header, dataset.records])


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        head = _read_exact(fh, 24, path, "header")
        magic, version, bins, img_w, img_h, n = struct.unpack("<4sIIIII", head)
        if magic != DATASET_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {DATASET_MAGIC!r}")
        if version != DATASET_VERSION:
            raise VersionError(
                f"{path}: format version {version}, reader supports {DATASET_VERSION}")
        for field, value in (("bins", bins), ("img_w", img_w), ("img_h", img_h)):
            if value == 0:
                raise HeaderMismatchError(f"{path}: header field {field} is 0")
        record_len = bins + img_w * img_h
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = n * record_len * 4
        if size < expected:
            raise TruncatedFileError(
                f"{path}: expected {expected} payload bytes for {n} records, got {size}")
        if size > expected:
            raise HeaderMismatchError(
                f"{path}: {size - expected} trailing bytes beyond the declared {n} records")
        records = np.empty((n, record_len), dtype=_F4)
        _read_into(fh, records, path, "records")
    return Dataset(records, img_w=img_w, img_h=img_h)


def _model_chunks(header: bytes, model):
    """The header, then per layer the weight and the bias as float32 arrays."""
    yield header
    for w, b in zip(model.weights, model.biases):
        yield np.ascontiguousarray(w, dtype=_F4)
        yield np.ascontiguousarray(b, dtype=_F4)


def write_model(path, model) -> None:
    dims = model.layer_dims
    header = (struct.pack("<4sII", MODEL_MAGIC, MODEL_VERSION, len(dims))
              + struct.pack(f"<{len(dims)}I", *dims))
    write_atomic(path, _model_chunks(header, model))


def read_model(path):
    with open(path, "rb") as fh:
        magic, version, n_dims = struct.unpack("<4sII", _read_exact(fh, 12, path, "header"))
        if magic != MODEL_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        if version != MODEL_VERSION:
            raise VersionError(
                f"{path}: format version {version}, reader supports {MODEL_VERSION}")
        if n_dims < 2:
            raise HeaderMismatchError(f"{path}: model needs at least 2 layer dims, got {n_dims}")
        end = os.fstat(fh.fileno()).st_size
        if 4 * n_dims > end - fh.tell():
            raise TruncatedFileError(f"{path}: n_dims = {n_dims} needs {4 * n_dims} bytes of "
                                     f"layer dims, {end - fh.tell()} follow the header")
        dims = struct.unpack(f"<{n_dims}I", _read_exact(fh, 4 * n_dims, path, "layer dims"))
        if 0 in dims:
            raise HeaderMismatchError(
                f"{path}: layer dim {dims.index(0)} of {list(dims)} is 0")
        size = end - fh.tell()
        expected = sum(4 * (dout * din + dout) for din, dout in zip(dims[:-1], dims[1:]))
        if size < expected:
            raise TruncatedFileError(f"{path}: expected {expected} parameter bytes, got {size}")
        if size > expected:
            raise HeaderMismatchError(f"{path}: {size - expected} trailing parameter bytes")
        weights, biases = [], []
        for layer, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            w = np.empty((din, dout), dtype=_F4)
            _read_into(fh, w, path, "weights")
            if not _finite(w):
                raise StoreError(f"{path}: layer {layer} weights hold NaN or inf")
            b = np.empty(dout, dtype=_F4)
            _read_into(fh, b, path, "biases")
            if not _finite(b):
                raise StoreError(f"{path}: layer {layer} biases hold NaN or inf")
            weights.append(w)
            biases.append(b)
    return MlpModel(weights, biases)


# ---------------------------------------------------------------------------
# Portable graymaps (binary P5) and CSV


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


def read_settings(path) -> dict:
    """Typed settings of a `key = value` config file (`config.parse_settings`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_settings(fh.read())


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
