"""Binary tensor file format "TEN1".

Layout: magic bytes ``TEN1``, u8 ndim, ndim x u32 little-endian dims,
then the float32 little-endian payload in row-major order.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"TEN1"


def write_tensor(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim > 255:
        raise DataError(f"TEN1 supports at most 255 dims, got {arr.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f4").tobytes())


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"tensor file not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"bad TEN1 magic in {path}: {blob[:4]!r}")
    if len(blob) < 5:
        raise DataError(f"truncated TEN1 header in {path}: no ndim byte")
    (ndim,) = struct.unpack_from("<B", blob, 4)
    offset = 5 + 4 * ndim
    if len(blob) < offset:
        raise DataError(f"truncated TEN1 header in {path}: {ndim} dims need {offset} bytes, got {len(blob)}")
    dims = struct.unpack_from(f"<{ndim}I", blob, 5)
    count = math.prod(dims)  # Python ints: np.prod wraps at 2**64
    expected = offset + 4 * count
    if len(blob) != expected:
        raise DataError(f"TEN1 payload size mismatch in {path}: expected {expected} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    try:
        return data.reshape(dims).astype(np.float32)
    except ValueError as err:  # more than 64 dims, or zero dims beside ones too large for NumPy
        raise DataError(f"TEN1 dims {dims} in {path} are not a valid array shape: {err}") from err
