"""Run configuration: JSON file with CLI flag overrides (flags win)."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError


@dataclass
class RunConfig:
    seed: int = 0

    # model dims (desk scale)
    image_size: int = 32
    d1: int = 64          # visual channels and text feature width (they share the bridge space)
    d: int = 32           # shared projection width
    n_b: int = 4          # transition bridge tokens
    memory_rows: int = 8
    bridge_blocks: int = 1
    text_layers: int = 2
    dec_layers: int = 1
    ffn_mult: int = 2
    k_t: int = 24         # max text tokens incl. BOS/EOS

    # losses / optimization
    tau1: float = 0.5
    tau2: float = 0.5
    batch_size: int = 32
    lr_stage1: float = 5e-5
    lr_stage2_pretrained: float = 5e-6
    lr_stage2_fresh: float = 5e-5
    weight_decay: float = 0.0
    epochs: int = 50
    max_steps: int = 0    # 0 = no cap

    # generation
    max_tokens: int = 100

    # synthetic data
    n_studies: int = 64
    view_count_min: int = 1
    view_count_max: int = 3
    indication_rate: float = 0.66
    split_train: float = 0.7
    split_val: float = 0.15
    split_test: float = 0.15

    # paths
    data_dir: str = "data"
    out_dir: str = "runs/default"

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            # each value has its default's type; an int may stand for a float, a bool for no number
            value, expected = getattr(self, f.name), type(f.default)
            if type(value) is not expected and not (expected is float and type(value) is int):
                raise UsageError(f"config field '{f.name}' must be of type {expected.__name__}, got {value!r}")
        positives = (
            "image_size", "d1", "d", "n_b", "memory_rows", "bridge_blocks", "text_layers", "dec_layers",
            "ffn_mult", "tau1", "tau2", "batch_size", "lr_stage1", "lr_stage2_pretrained",
            "lr_stage2_fresh", "epochs", "max_tokens", "n_studies",
        )
        for name in positives:
            if getattr(self, name) <= 0:
                raise UsageError(f"config field '{name}' must be positive, got {getattr(self, name)}")
        for name in ("max_steps", "weight_decay"):
            if getattr(self, name) < 0:
                raise UsageError(f"config field '{name}' must not be negative, got {getattr(self, name)}")
        if self.k_t < 2:
            raise UsageError(f"config field 'k_t' must be at least 2, for the BOS and EOS tokens, got {self.k_t}")
        if self.image_size % 8 != 0:
            raise UsageError(f"image_size must be a multiple of 8 (three stride-2 blocks), got {self.image_size}")
        for name in ("indication_rate", "split_train", "split_val", "split_test"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise UsageError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        splits = self.split_train + self.split_val + self.split_test
        if abs(splits - 1.0) > 1e-9:  # the test split takes every study after train and val
            raise UsageError(f"split_train + split_val + split_test must sum to 1, got {splits:g}")
        if not 1 <= self.view_count_min <= self.view_count_max:
            raise UsageError(f"view counts must satisfy 1 <= view_count_min <= view_count_max, "
                             f"got {self.view_count_min} and {self.view_count_max}")

    @property
    def p(self) -> int:
        """Flattened feature-map positions after the three stride-2 blocks."""
        side = self.image_size // 8
        return side * side


def load_config(path=None, overrides=None) -> RunConfig:
    values = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            values = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise UsageError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(values, dict):
            raise UsageError(f"config file {path} must hold a JSON object, got {values!r}")
        unknown = set(values) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise UsageError(f"unknown config fields in {path}: {sorted(unknown)}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    config = RunConfig(**values)
    config.validate()
    return config
