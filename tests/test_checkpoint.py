import hashlib
from pathlib import Path

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.checkpoint import (
    check_compatibility,
    load_checkpoint,
    save_checkpoint,
)
from mvreport.errors import CheckpointError
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
    save_checkpoint(tmp_path / "b",
                    loaded,
                    {k: v for k, v in loaded_meta.items()
                     if k not in ("param_names", "extra_names")})
    assert _dir_digest(tmp_path / "a") == _dir_digest(tmp_path / "b")


def test_load_missing_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint metadata"):
        load_checkpoint(tmp_path / "nothing")


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
