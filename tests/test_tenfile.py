import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport.errors import DataError
from mvreport.tenfile import decode_tensor, read_tensor, write_tensor


def test_roundtrip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "x.ten"
    write_tensor(path, arr)
    back = read_tensor(path)
    np.testing.assert_array_equal(back, arr)
    assert back.dtype == np.float32


def test_roundtrip_1d_and_scalar_like(tmp_path):
    path = tmp_path / "v.ten"
    write_tensor(path, np.array([1.5, -2.5], dtype=np.float32))
    np.testing.assert_array_equal(read_tensor(path), [1.5, -2.5])


def test_header_layout(tmp_path):
    path = tmp_path / "h.ten"
    write_tensor(path, np.zeros((2, 5), dtype=np.float32))
    blob = path.read_bytes()
    assert blob[:4] == b"TEN1"
    assert blob[4] == 2  # ndim
    assert int.from_bytes(blob[5:9], "little") == 2
    assert int.from_bytes(blob[9:13], "little") == 5
    assert len(blob) == 13 + 4 * 10


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_tensor(path)


@pytest.mark.parametrize("cut", [4, 6, 9, -4])
def test_truncated_payload(tmp_path, cut):
    path = tmp_path / "t.ten"
    write_tensor(path, np.zeros((3, 3), dtype=np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:cut])
    with pytest.raises(DataError, match="truncated TEN1 header" if cut > 0 else "size"):
        read_tensor(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_tensor(tmp_path / "absent.ten")


def test_dims_whose_product_overflows_int64_are_a_data_error(tmp_path):
    # 65536**4 == 2**64 wraps to 0 in int64, which matched an empty payload
    path = tmp_path / "o.ten"
    path.write_bytes(b"TEN1" + struct.pack("<B4I", 4, *(65536,) * 4))
    with pytest.raises(DataError, match="size"):
        read_tensor(path)


# Headers with a few dims drawn from edge values (powers of two whose
# product wraps in 64 bits, zero, u32 max) and a payload of whole floats,
# besides arbitrary bytes.
_DIM = st.one_of(st.sampled_from([0, 1, 2, 3, 2**16, 2**31, 2**32 - 1]), st.integers(0, 2**32 - 1))
_STRUCTURED = st.builds(
    lambda dims, floats, tail: struct.pack(f"<B{len(dims)}I", len(dims), *dims) + b"\0" * (4 * floats) + tail,
    st.lists(_DIM, max_size=6),
    st.integers(0, 8),
    st.binary(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(tail=st.one_of(st.binary(max_size=64), _STRUCTURED), prefix=st.binary(min_size=1, max_size=8))
def test_any_bytes_after_magic_read_as_float32_or_data_error(tmp_path_factory, tail, prefix):
    path = tmp_path_factory.getbasetemp() / "fuzz.ten"
    path.write_bytes(b"TEN1" + tail)
    try:
        arr = read_tensor(path)
    except DataError:
        arr = None
    else:
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float32
    # the same record decodes alike after other bytes, as it does inside a checkpoint
    blob = prefix + b"TEN1" + tail
    try:
        decoded, end = decode_tensor(blob, len(prefix), "fuzz")
    except DataError:
        assert arr is None
        return
    assert decoded.dtype == np.float32 and end <= len(blob)
    assert (end == len(blob)) == (arr is not None)
    if arr is not None:
        np.testing.assert_array_equal(decoded, arr)
