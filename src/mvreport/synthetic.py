"""Synthetic desk-scale corpus generator.

Each study plants a block pattern into its views; the report is a
deterministic function of that pattern plus a severity word that is
*not* visible in the image. When present, the indication mentions the
severity word, so indications carry report-predictive signal the images
lack. Multi-view studies share the pattern across views up to noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import write_manifest
from .errors import DataError
from .rng import Rng
from .tenfile import write_tensor
from .text import Vocabulary, fallback_serialize

PATTERN_WORDS = [
    "nodular", "linear", "patchy", "diffuse", "focal", "streaky", "hazy", "dense",
    "rounded", "wedge", "band", "reticular", "coarse", "faint", "mottled", "confluent",
]
REGION_WORDS = ["apical", "basal", "hilar", "peripheral"]
SEVERITY_WORDS = ["mild", "moderate", "severe"]

GRID = 4  # patterns live on a GRID x GRID block layout
N_PATTERNS = GRID * GRID
NOISE_STD = 0.05  # per-pixel Gaussian noise on every view


@dataclass
class SynthSpec:
    n_studies: int
    view_count_range: tuple = (1, 3)
    image_size: int = 32
    indication_rate: float = 0.66
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.indication_rate <= 1.0:
            raise DataError(f"indication_rate must be in [0, 1], got {self.indication_rate}")
        lo, hi = self.view_count_range
        if lo < 1 or hi < lo:
            raise DataError(f"invalid view_count_range {self.view_count_range}")
        if self.image_size % GRID != 0:
            raise DataError(f"image_size must be divisible by {GRID}, got {self.image_size}")


def _pattern_image(pattern: int, size: int, rng: Rng) -> np.ndarray:
    block = size // GRID
    img = np.full((size, size), 0.1, dtype=np.float32)
    r, c = divmod(pattern, GRID)
    img[r * block : (r + 1) * block, c * block : (c + 1) * block] = 2.0
    img += rng.normal((size, size), std=NOISE_STD).astype(np.float32)
    return img


def _report_for(pattern: int, severity: int) -> str:
    return (
        f"{PATTERN_WORDS[pattern]} opacity in the {REGION_WORDS[pattern % len(REGION_WORDS)]} region "
        f"with {SEVERITY_WORDS[severity]} severity."
    )


def _raw_indication(severity: int, rng: Rng) -> str:
    sex = "M" if rng.random() < 0.5 else "F"
    return f"___{sex} with {SEVERITY_WORDS[severity]} discomfort // eval"


def generate_records(spec: SynthSpec) -> list[dict]:
    """Raw study records (view arrays + uncleaned indication text)."""
    rng = Rng(spec.seed)
    pattern_order = list(range(N_PATTERNS))
    rng.child("patterns").shuffle(pattern_order)
    img_rng = rng.child("images")
    records = []
    for i in range(spec.n_studies):
        pattern = pattern_order[i % N_PATTERNS]
        severity = rng.integers(0, len(SEVERITY_WORDS))
        m = rng.integers(spec.view_count_range[0], spec.view_count_range[1] + 1)
        views = [_pattern_image(pattern, spec.image_size, img_rng) for _ in range(m)]
        indication = _raw_indication(severity, rng) if rng.random() < spec.indication_rate else None
        report = _report_for(pattern, severity)
        records.append(
            {
                "study_id": f"synth-{spec.seed}-{i:05d}",
                "views": views,
                "anchor_index": 0,
                "indication": indication,
                "report": report,
                "factual_serialization": fallback_serialize(report),
            }
        )
    return records


def build_vocabulary(studies) -> Vocabulary:
    """Vocabulary over report, serialization, and indication tokens."""
    from .text import tokenize

    sequences = []
    for s in studies:
        sequences.append(tokenize(s.report))
        sequences.append(s.factual_serialization)
        if s.indication:
            sequences.append(tokenize(s.indication))
    return Vocabulary.build(sequences)


def write_corpus(records, out_dir, split_fractions=(0.7, 0.15, 0.15)) -> dict:
    """Write TEN1 view files plus train/val/test manifests; returns stats.

    Splits are contiguous over the (i.i.d.) generation order.
    """
    out = Path(out_dir)
    views_dir = out / "views"
    views_dir.mkdir(parents=True, exist_ok=True)
    n = len(records)
    n_train = int(round(n * split_fractions[0]))
    n_val = int(round(n * split_fractions[1]))
    splits = {
        "train": records[:n_train],
        "val": records[n_train : n_train + n_val],
        "test": records[n_train + n_val :],
    }
    stats = {}
    for name, split_records in splits.items():
        manifest_records = []
        for r in split_records:
            paths = []
            for j, view in enumerate(r["views"]):
                rel = f"views/{r['study_id']}-v{j}.ten"
                write_tensor(out / rel, view)
                paths.append(rel)
            rec = {
                "study_id": r["study_id"],
                "views": paths,
                "anchor_index": r["anchor_index"],
                "report": r["report"],
                "factual_serialization": r["factual_serialization"],
            }
            if r["indication"] is not None:
                rec["indication"] = r["indication"]
            manifest_records.append(rec)
        write_manifest(out / f"{name}.jsonl", manifest_records)
        n_rpt = len(split_records)
        n_img = sum(len(r["views"]) for r in split_records)
        n_ind = sum(1 for r in split_records if r["indication"] is not None)
        stats[name] = {
            "#Img": n_img,
            "#Rpt": n_rpt,
            "%Ind": round(100.0 * n_ind / n_rpt, 1) if n_rpt else 0.0,
        }
    return stats
