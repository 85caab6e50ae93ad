"""Checkpoints: one file, ``<dir>/checkpoint.ten``, holding a JSON header
line (the metadata plus the tensor names) and then one TEN1 record per
tensor in header order."""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import autodiff as ad
from .errors import CheckpointError
from .tenfile import decode_tensor, encode_tensor

CHECKPOINT_NAME = "checkpoint.ten"


def save_checkpoint(out_dir, params: dict, meta: dict, extra_arrays: dict | None = None) -> None:
    """Write ``meta`` and every named tensor to ``<out_dir>/checkpoint.ten`` through a temporary
    file and one ``os.replace``, so a reader sees the old checkpoint or the new one, never a mix."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    extras = extra_arrays or {}
    header = dict(meta, param_names=sorted(params), extra_names=sorted(extras))
    arrays = [params[name].data for name in header["param_names"]] + [extras[name] for name in header["extra_names"]]
    tmp = out / (CHECKPOINT_NAME + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.writelines(encode_tensor(array) for array in arrays)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, out / CHECKPOINT_NAME)


def load_checkpoint(ckpt_dir):
    """Returns (params dict of trainable Tensors, extra arrays, meta)."""
    path = Path(ckpt_dir) / CHECKPOINT_NAME
    try:
        blob = path.read_bytes()
    except OSError as err:
        old = path.with_name("meta.json").exists()
        hint = "; the directory holds the old layout (meta.json plus tensors/): re-run its stage" if old else ""
        raise CheckpointError(f"cannot read checkpoint {path}: {err.strerror}{hint}") from err
    offset = blob.find(b"\n") + 1
    try:
        meta = json.loads(blob[:offset])
    except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
        meta = None
    names = [meta.pop(key, None) for key in ("param_names", "extra_names")] if isinstance(meta, dict) else [None]
    if not all(isinstance(n, list) and all(isinstance(s, str) for s in n) for n in names):
        raise CheckpointError(f"malformed checkpoint header in {path}: expected a JSON object line "
                              "with 'param_names' and 'extra_names' lists of strings")
    arrays = []
    for name in names[0] + names[1]:
        array, offset = decode_tensor(blob, offset, f"{path} ({name})")
        arrays.append(array)
    if offset != len(blob):
        raise CheckpointError(f"{path} has {len(blob) - offset} bytes after its last tensor")
    params = {name: ad.parameter(array) for name, array in zip(names[0], arrays)}
    return params, dict(zip(names[1], arrays[len(names[0]):])), meta


def check_compatibility(meta: dict, params: dict, expected_shapes: dict, vocab_hash: str, expected_stage: str) -> None:
    """Raise with an explicit diff when the stage, the vocabulary or the
    tensors do not line up. ``expected_shapes`` maps every tensor name the
    config would initialise to its shape; the checkpoint's ``params`` must
    hold exactly those names, with those shapes."""
    problems = []
    if meta.get("stage") != expected_stage:
        problems.append(f"stage: checkpoint={meta.get('stage')!r} expected={expected_stage!r}")
    if meta.get("vocab_hash") not in (None, vocab_hash):
        problems.append(f"vocab_hash: checkpoint={str(meta.get('vocab_hash'))[:12]}... ours={vocab_hash[:12]}...")
    for name in sorted(set(params) | set(expected_shapes)):
        theirs = tuple(params[name].shape) if name in params else "missing"
        ours = tuple(expected_shapes[name]) if name in expected_shapes else "missing"
        if theirs != ours:
            problems.append(f"{name}: checkpoint={theirs} config={ours}")
    if problems:
        raise CheckpointError("incompatible checkpoint: " + "; ".join(problems))
