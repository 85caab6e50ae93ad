"""Binary tensor format "TEN1".

Layout: magic bytes ``TEN1``, u8 ndim, ndim x u32 little-endian dims,
then the float32 little-endian payload in row-major order. A ``.ten``
file holds one such record, a checkpoint one per tensor.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"TEN1"


def encode_tensor(array) -> bytes:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim > 255:
        raise DataError(f"TEN1 supports at most 255 dims, got {arr.ndim}")
    return MAGIC + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape) + arr.astype("<f4").tobytes()


def decode_tensor(blob: bytes, offset: int, where) -> tuple[np.ndarray, int]:
    """Decode the record at ``blob[offset:]``; returns it and the offset just past it."""
    if blob[offset : offset + 4] != MAGIC:
        raise DataError(f"bad TEN1 magic in {where}: {blob[offset : offset + 4]!r}")
    if len(blob) < offset + 5:
        raise DataError(f"truncated TEN1 header in {where}: no ndim byte")
    ndim = blob[offset + 4]
    start = offset + 5 + 4 * ndim
    if len(blob) < start:
        raise DataError(f"truncated TEN1 header in {where}: {ndim} dims need {start} bytes, got {len(blob)}")
    dims = struct.unpack_from(f"<{ndim}I", blob, offset + 5)
    count = math.prod(dims)  # Python ints: np.prod wraps at 2**64
    end = start + 4 * count
    if len(blob) < end:
        raise DataError(f"TEN1 payload size mismatch in {where}: expected {end} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
    try:
        return data.reshape(dims).astype(np.float32), end
    except ValueError as err:  # more than 64 dims, or zero dims beside ones too large for NumPy
        raise DataError(f"TEN1 dims {dims} in {where} are not a valid array shape: {err}") from err


def write_tensor(path, array) -> None:
    Path(path).write_bytes(encode_tensor(array))


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise DataError(f"tensor file not found: {path}")
    blob = path.read_bytes()
    arr, end = decode_tensor(blob, 0, path)
    if end != len(blob):
        raise DataError(f"TEN1 payload size mismatch in {path}: expected {end} bytes, got {len(blob)}")
    return arr
