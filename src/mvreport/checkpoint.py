"""Checkpoints: a directory of named TEN1 tensors plus JSON metadata."""

from __future__ import annotations

import json
from pathlib import Path

from . import autodiff as ad
from .errors import CheckpointError
from .tenfile import read_tensor, write_tensor

META_NAME = "meta.json"


def _tensor_filename(name: str) -> str:
    return name.replace("/", "_") + ".ten"


def save_checkpoint(out_dir, params: dict, meta: dict, extra_arrays: dict | None = None) -> None:
    """Write all named parameter tensors and metadata under ``out_dir``."""
    out = Path(out_dir)
    tensors_dir = out / "tensors"
    tensors_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for name in sorted(params):
        write_tensor(tensors_dir / _tensor_filename(name), params[name].data)
        names.append(name)
    extra_names = []
    if extra_arrays:
        for name in sorted(extra_arrays):
            write_tensor(tensors_dir / _tensor_filename(name), extra_arrays[name])
            extra_names.append(name)
    payload = dict(meta)
    payload["param_names"] = names
    payload["extra_names"] = extra_names
    (out / META_NAME).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_checkpoint(ckpt_dir):
    """Returns (params dict of trainable Tensors, extra arrays, meta)."""
    ckpt = Path(ckpt_dir)
    meta_path = ckpt / META_NAME
    if not meta_path.exists():
        raise CheckpointError(f"no checkpoint metadata at {meta_path}")
    meta = json.loads(meta_path.read_text())
    params = {}
    for name in meta.get("param_names", []):
        path = ckpt / "tensors" / _tensor_filename(name)
        params[name] = ad.parameter(read_tensor(path))
    extras = {}
    for name in meta.get("extra_names", []):
        path = ckpt / "tensors" / _tensor_filename(name)
        extras[name] = read_tensor(path)
    return params, extras, meta


def check_compatibility(meta: dict, params: dict, expected_shapes: dict, vocab_hash: str, expected_stage: str) -> None:
    """Raise with an explicit diff when the stage, the vocabulary or the
    tensors do not line up. ``expected_shapes`` maps every tensor name the
    config would initialise to its shape; the checkpoint's ``params`` must
    hold exactly those names, with those shapes."""
    problems = []
    if meta.get("stage") != expected_stage:
        problems.append(f"stage: checkpoint={meta.get('stage')!r} expected={expected_stage!r}")
    if meta.get("vocab_hash") not in (None, vocab_hash):
        problems.append(f"vocab_hash: checkpoint={meta.get('vocab_hash')[:12]}... ours={vocab_hash[:12]}...")
    for name in sorted(set(params) | set(expected_shapes)):
        theirs = tuple(params[name].shape) if name in params else "missing"
        ours = tuple(expected_shapes[name]) if name in expected_shapes else "missing"
        if theirs != ours:
            problems.append(f"{name}: checkpoint={theirs} config={ours}")
    if problems:
        raise CheckpointError("incompatible checkpoint: " + "; ".join(problems))
