import hashlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport import autodiff as ad
from mvreport.checkpoint import (
    check_compatibility,
    load_checkpoint,
    save_checkpoint,
)
from mvreport.errors import CheckpointError, DataError
from mvreport.rng import Rng


def _params(seed=0):
    rng = Rng(seed)
    return {
        "stage1.vis.conv0.w": ad.parameter(rng.normal((4, 1, 3, 3))),
        "stage1.txt.embed": ad.parameter(rng.normal((10, 8))),
    }


def _dir_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_checkpoint_roundtrip(tmp_path):
    params = _params()
    extras = {"opt.stage1.txt.embed.m": np.ones((10, 8), dtype=np.float32)}
    meta = {"stage": "stage1", "vocab_hash": "abc"}
    save_checkpoint(tmp_path / "ck", params, meta, extras)
    loaded, loaded_extras, loaded_meta = load_checkpoint(tmp_path / "ck")
    assert set(loaded) == set(params)
    for name in params:
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
        assert loaded[name].requires_grad
    np.testing.assert_array_equal(
        loaded_extras["opt.stage1.txt.embed.m"], extras["opt.stage1.txt.embed.m"])
    assert loaded_meta["stage"] == "stage1"
    assert loaded_meta["vocab_hash"] == "abc"


def test_save_load_save_is_byte_identical(tmp_path):
    params = _params(seed=1)
    meta = {"stage": "stage1", "seed": 3}
    save_checkpoint(tmp_path / "a", params, meta)
    loaded, _, loaded_meta = load_checkpoint(tmp_path / "a")
    assert loaded_meta == meta
    save_checkpoint(tmp_path / "b", loaded, loaded_meta)
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_load_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "nothing")


def test_old_directory_layout_is_refused(tmp_path):
    (tmp_path / "tensors").mkdir()
    (tmp_path / "meta.json").write_text('{"stage": "stage1", "param_names": []}')
    with pytest.raises(CheckpointError, match="old layout"):
        load_checkpoint(tmp_path)


class _Unwritable:
    """An array-like whose conversion fails, as a write that runs out of disk would."""

    def __array__(self, *args, **kwargs):
        raise RuntimeError("disk full")


def test_failed_save_leaves_the_previous_checkpoint_whole(tmp_path):
    first, second = _params(seed=0), _params(seed=1)
    save_checkpoint(tmp_path, first, {"stage": "stage1", "step": 1})
    # sorts between the two real tensors, so the save fails after writing one
    second["stage1.txt.zz"] = SimpleNamespace(data=_Unwritable())
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(tmp_path, second, {"stage": "stage1", "step": 2})
    loaded, _, meta = load_checkpoint(tmp_path)
    assert meta == {"stage": "stage1", "step": 1}
    assert set(loaded) == set(first)
    for name in first:
        np.testing.assert_array_equal(loaded[name].data, first[name].data)

    del second["stage1.txt.zz"]
    save_checkpoint(tmp_path, second, {"stage": "stage1", "step": 2})
    assert [path.name for path in tmp_path.iterdir()] == ["checkpoint.ten"]
    loaded, _, meta = load_checkpoint(tmp_path)
    assert meta == {"stage": "stage1", "step": 2}
    for name in second:
        np.testing.assert_array_equal(loaded[name].data, second[name].data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_loads_or_raises_checkpoint_or_data_error(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp()
    save_checkpoint(root / "good", _params(), {"stage": "stage1", "vocab": ["<pad>", "opacity"]},
                    {"opt.m": np.ones((2, 3), dtype=np.float32)})
    blob = (root / "good" / "checkpoint.ten").read_bytes()
    kind = data.draw(st.sampled_from(["truncate", "append", "change"]))
    if kind == "truncate":
        damaged = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "append":
        damaged = blob + data.draw(st.binary(min_size=1, max_size=16))
    else:
        damaged = bytearray(blob)
        for at, byte in data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)),
                                           min_size=1, max_size=4)):
            damaged[at] = byte
    (root / "bad").mkdir(exist_ok=True)
    (root / "bad" / "checkpoint.ten").write_bytes(bytes(damaged))
    try:
        load_checkpoint(root / "bad")
    except (CheckpointError, DataError):
        return
    assert kind == "change"  # a cut or an appended tail never loads


def _shapes(params):
    return {name: t.shape for name, t in params.items()}


def test_check_compatibility_accepts_match():
    params = _params()
    meta = {"stage": "stage1", "vocab_hash": "h"}
    check_compatibility(meta, params, _shapes(params), "h", "stage1")


def test_check_compatibility_reports_every_mismatch():
    params = _params()
    expected = dict(_shapes(params), **{"stage1.txt.embed": (10, 99), "stage1.txt.pos": (8, 8)})
    del expected["stage1.vis.conv0.w"]
    meta = {"stage": "stage2", "vocab_hash": "other"}
    with pytest.raises(CheckpointError) as err:
        check_compatibility(meta, params, expected, "h", "stage1")
    text = str(err.value)
    assert "stage:" in text
    assert "vocab_hash:" in text
    assert "stage1.txt.embed: checkpoint=(10, 8) config=(10, 99)" in text
    assert "stage1.txt.pos: checkpoint=missing config=(8, 8)" in text
    assert "stage1.vis.conv0.w: checkpoint=(4, 1, 3, 3) config=missing" in text


def test_check_compatibility_tolerates_missing_fields():
    params = _params()
    check_compatibility({"stage": "stage1"}, params, _shapes(params), "h", "stage1")
