"""Study/batch data model and JSONL manifest ingestion."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import Rng
from .tenfile import read_tensor
from .text import clean_indication, fallback_serialize

log = logging.getLogger(__name__)

# Reports consisting solely of one of these phrases carry no clinical
# content and are skipped at load time (configurable).
DEFAULT_REPORT_BLACKLIST = (
    "portable ap upright chest film at 09:31 is submitted",
)


@dataclass
class Study:
    """One examination: views, anchor, optional indication, report."""

    study_id: str
    views: list  # list of H x W float32 arrays
    anchor_index: int
    indication: str | None
    report: str
    factual_serialization: list[str]

    def __post_init__(self):
        if not self.views:
            raise DataError(f"study {self.study_id}: must have at least one view")
        if not 0 <= self.anchor_index < len(self.views):
            raise DataError(
                f"study {self.study_id}: anchor_index {self.anchor_index} out of range for {len(self.views)} views"
            )
        if self.report and not self.factual_serialization:
            raise DataError(f"study {self.study_id}: empty factual_serialization for non-empty report")

    @property
    def num_views(self) -> int:
        return len(self.views)


@dataclass
class Batch:
    """A group of studies with derived counts.

    B is the study count, M_imgs the total view count, and K the total
    view count over multi-view studies only.
    """

    studies: list
    B: int = field(init=False)
    M_imgs: int = field(init=False)
    K: int = field(init=False)

    def __post_init__(self):
        if not self.studies:
            raise DataError("batch must contain at least one study")
        self.B = len(self.studies)
        self.M_imgs = sum(s.num_views for s in self.studies)
        self.K = sum(s.num_views for s in self.studies if s.num_views > 1)

    def view_offsets(self) -> list[int]:
        """Start index of each study's views in the stacked [M_imgs, ...] order."""
        offsets, acc = [], 0
        for s in self.studies:
            offsets.append(acc)
            acc += s.num_views
        return offsets


def load_manifest(path, base_dir=None, report_blacklist=DEFAULT_REPORT_BLACKLIST) -> list[Study]:
    """Read a JSONL manifest; each line describes one study.

    View paths resolve relative to ``base_dir`` (default: the manifest's
    directory). Indications are cleaned; a missing factual_serialization
    falls back to the rule-based splitter. Studies whose report is empty
    or blacklisted are skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    base = Path(base_dir) if base_dir is not None else path.parent
    studies = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{path}:{lineno}: malformed JSON: {err}") from err
            study = _study_from_record(record, base, f"{path}:{lineno}", report_blacklist)
            if study is None:
                continue
            studies.append(study)
    return studies


def _study_from_record(record: dict, base: Path, where: str, report_blacklist) -> Study | None:
    for key in ("study_id", "views", "report"):
        if key not in record:
            raise DataError(f"{where}: missing required field '{key}'")
    if not isinstance(record["report"], str):
        raise DataError(f"{where}: field 'report' must be a string, got {record['report']!r}")
    report = record["report"].strip()
    normalized = " ".join(report.lower().split())
    if not normalized or normalized.rstrip(".") in {b.rstrip(".") for b in report_blacklist}:
        log.warning("%s: skipping study %s with empty or insignificant report", where, record["study_id"])
        return None
    view_paths = record["views"]
    if not isinstance(view_paths, list) or not view_paths or not all(isinstance(v, str) for v in view_paths):
        raise DataError(f"{where}: field 'views' must be a non-empty list of paths, got {view_paths!r}")
    views = []
    for rel in view_paths:
        full = base / rel
        if not full.exists():
            raise DataError(f"{where}: view file not found: {full}")
        views.append(read_tensor(full))
    anchor_index = record.get("anchor_index", 0)
    if type(anchor_index) is not int or not 0 <= anchor_index < len(views):
        raise DataError(f"{where}: field 'anchor_index' must be a view index below {len(views)}, got {anchor_index!r}")
    serialization = record.get("factual_serialization")
    if not serialization:
        serialization = fallback_serialize(report)
    return Study(
        study_id=str(record["study_id"]),
        views=views,
        anchor_index=anchor_index,
        indication=clean_indication(record.get("indication")),
        report=report,
        factual_serialization=list(serialization),
    )


def make_batches(studies, batch_size: int, seed: int) -> list[Batch]:
    """Seeded shuffle, then contiguous slices; the last partial batch is kept."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = list(studies)
    Rng(seed).shuffle(order)
    return [Batch(order[i : i + batch_size]) for i in range(0, len(order), batch_size)]


def write_manifest(path, records) -> None:
    """Write study records (plain dicts) as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def stack_views(batch: Batch) -> np.ndarray:
    """All views in study order as one [M_imgs, 1, H, W] float32 array."""
    arrays = [v for s in batch.studies for v in s.views]
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise DataError(f"inconsistent view sizes in batch: {sorted(shapes)}")
    return np.stack(arrays).astype(np.float32, copy=False)[:, None, :, :]
