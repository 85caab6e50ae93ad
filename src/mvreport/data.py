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
# content and are skipped at load time.
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
    """A group of studies and the layout of their stacked views.

    B is the study count and M_imgs the total view count. Study i's views
    are rows ``view_offsets[i] : view_offsets[i] + view_counts[i]`` of the
    stacked [M_imgs, ...] order (int64 arrays of length B).
    """

    studies: list
    B: int = field(init=False)
    M_imgs: int = field(init=False)
    view_counts: np.ndarray = field(init=False, compare=False)
    view_offsets: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if not self.studies:
            raise DataError("batch must contain at least one study")
        self.B = len(self.studies)
        self.view_counts = np.asarray([s.num_views for s in self.studies], dtype=np.int64)
        self.view_offsets = np.cumsum(self.view_counts) - self.view_counts
        self.M_imgs = int(self.view_counts.sum())


def read_jsonl(path):
    """Yield ``("path:line", record)`` for every non-blank line of a JSONL
    file; a line that is not a JSON object raises ``DataError``."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"{where}: malformed JSON: {err}") from err
            if not isinstance(record, dict):
                raise DataError(f"{where}: expected a JSON object, got {record!r}")
            yield where, record


_REQUIRED = object()


def read_field(record: dict, key: str, where: str, valid, description: str, default=_REQUIRED):
    """``record[key]``, or ``default`` when the key is absent; ``DataError`` at ``where`` when a key without
    a default is absent or ``valid(value)`` is false (``description`` completes "must be ...")."""
    if key not in record:
        if default is _REQUIRED:
            raise DataError(f"{where}: missing required field '{key}'")
        return default
    if not valid(record[key]):
        raise DataError(f"{where}: field '{key}' must be {description}, got {record[key]!r:.80}")
    return record[key]


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def load_manifest(path) -> list[Study]:
    """Read a JSONL manifest; each line describes one study.

    View paths resolve relative to the manifest's directory. Indications
    are cleaned; a missing factual_serialization falls back to the
    rule-based splitter. Studies whose report is empty or blacklisted are
    skipped with a warning.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    studies = (_study_from_record(record, path.parent, where) for where, record in read_jsonl(path))
    return [study for study in studies if study is not None]


def _study_from_record(record: dict, base: Path, where: str) -> Study | None:
    study_id = read_field(record, "study_id", where, lambda v: isinstance(v, str) or type(v) is int,
                          "a string or an integer")
    view_paths = read_field(record, "views", where, lambda v: _is_str_list(v) and v, "a non-empty list of paths")
    report = read_field(record, "report", where, lambda v: isinstance(v, str), "a string").strip()
    anchor_index = read_field(record, "anchor_index", where, lambda v: type(v) is int and 0 <= v < len(view_paths),
                              f"a view index below {len(view_paths)}", default=0)
    indication = read_field(record, "indication", where, lambda v: v is None or isinstance(v, str),
                            "a string or null", default=None)
    serialization = read_field(record, "factual_serialization", where, lambda v: v is None or _is_str_list(v),
                               "a list of token strings or null", default=None)
    normalized = " ".join(report.lower().split())
    if not normalized or normalized.rstrip(".") in {b.rstrip(".") for b in DEFAULT_REPORT_BLACKLIST}:
        log.warning("%s: skipping study %s with empty or insignificant report", where, study_id)
        return None
    views = []
    for rel in view_paths:
        full = base / rel
        if not full.exists():
            raise DataError(f"{where}: view file not found: {full}")
        views.append(read_tensor(full))
    return Study(
        study_id=str(study_id),
        views=views,
        anchor_index=anchor_index,
        indication=clean_indication(indication),
        report=report,
        factual_serialization=list(serialization or fallback_serialize(report)),
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
