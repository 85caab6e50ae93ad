import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport.data import Batch, Study, load_manifest, make_batches, stack_views, write_manifest
from mvreport.errors import DataError
from mvreport.rng import Rng
from mvreport.tenfile import write_tensor

from conftest import make_study


def _write_corpus(tmp_path, records):
    for rec in records:
        for j, rel in enumerate(rec["views"]):
            write_tensor(tmp_path / rel, np.full((4, 4), float(j), dtype=np.float32))
    path = tmp_path / "train.jsonl"
    write_manifest(path, records)
    return path


def _record(i, n_views=1, **extra):
    rec = {
        "study_id": f"s{i}",
        "views": [f"s{i}-v{j}.ten" for j in range(n_views)],
        "report": "Patchy opacity in the left base.",
    }
    rec.update(extra)
    return rec


def test_study_invariants():
    with pytest.raises(DataError, match="at least one view"):
        Study("x", [], 0, None, "r", ["r"])
    with pytest.raises(DataError, match="anchor_index"):
        Study("x", [np.zeros((2, 2))], 3, None, "r", ["r"])
    with pytest.raises(DataError, match="factual_serialization"):
        Study("x", [np.zeros((2, 2))], 0, None, "r", [])


def test_batch_counts():
    rng = Rng(0)
    studies = [make_study(f"s{m}", m, rng) for m in (1, 2, 3)]
    batch = Batch(studies)
    assert batch.B == 3
    assert batch.M_imgs == 6
    assert batch.view_offsets.tolist() == [0, 1, 3]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8))
def test_batch_counts_match_brute_force(view_counts):
    rng = Rng(1)
    studies = [make_study(f"s{i}", m, rng, image_size=2) for i, m in enumerate(view_counts)]
    batch = Batch(studies)
    assert batch.B == len(view_counts)
    assert batch.M_imgs == sum(view_counts)
    assert batch.view_offsets.tolist() == [sum(view_counts[:i]) for i in range(len(view_counts))]


def test_load_manifest_roundtrip(tmp_path):
    records = [_record(0), _record(1, n_views=2, indication="___F with cough"),
               _record(2, factual_serialization=["patchy", "opacity"])]
    path = _write_corpus(tmp_path, records)
    studies = load_manifest(path)
    assert len(studies) == 3
    assert studies[0].indication is None
    assert studies[1].indication == "female with cough"
    assert studies[1].num_views == 2
    assert studies[2].factual_serialization == ["patchy", "opacity"]
    # fallback serialization applied where the field is missing
    assert studies[0].factual_serialization == ["patchy", "opacity", "in", "the", "left", "base"]


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_manifest(tmp_path / "none.jsonl")


def test_load_manifest_malformed_line_names_lineno(tmp_path):
    path = _write_corpus(tmp_path, [_record(0)])
    with open(path, "a") as fh:
        fh.write("not json\n")
    with pytest.raises(DataError, match=r":2.*malformed"):
        load_manifest(path)


def test_load_manifest_anchor_out_of_range(tmp_path):
    records = [_record(0, n_views=2, anchor_index=5)]
    path = _write_corpus(tmp_path, records)
    with pytest.raises(DataError, match="anchor_index"):
        load_manifest(path)


def test_load_manifest_missing_view_file(tmp_path):
    path = tmp_path / "v.jsonl"
    write_manifest(path, [_record(0)])
    with pytest.raises(DataError, match="view file not found"):
        load_manifest(path)


def test_load_manifest_skips_empty_report(tmp_path, caplog):
    records = [_record(0), _record(1, report="   ")]
    records[1]["views"] = records[0]["views"]
    path = _write_corpus(tmp_path, [records[0]])
    with open(path, "a") as fh:
        fh.write(json.dumps(records[1]) + "\n")
    with caplog.at_level("WARNING"):
        studies = load_manifest(path)
    assert len(studies) == 1
    assert any("skipping" in rec.getMessage() for rec in caplog.records)


def test_load_manifest_skips_blacklisted_report(tmp_path):
    rec = _record(0, report="Portable AP upright chest film at 09:31 is submitted.")
    path = _write_corpus(tmp_path, [rec])
    assert load_manifest(path) == []


def test_make_batches_sizes_and_determinism():
    rng = Rng(2)
    studies = [make_study(f"s{i}", 1, rng) for i in range(5)]
    batches = make_batches(studies, 2, seed=9)
    assert [b.B for b in batches] == [2, 2, 1]
    again = make_batches(studies, 2, seed=9)
    assert [[s.study_id for s in b.studies] for b in batches] == \
           [[s.study_id for s in b.studies] for b in again]
    other = make_batches(studies, 2, seed=10)
    assert [[s.study_id for s in b.studies] for b in batches] != \
           [[s.study_id for s in b.studies] for b in other]


def test_make_batches_bad_batch_size():
    with pytest.raises(DataError):
        make_batches([], 0, seed=1)


def test_stack_views_shape_and_order():
    rng = Rng(3)
    studies = [make_study("a", 2, rng, image_size=4), make_study("b", 1, rng, image_size=4)]
    stacked = stack_views(Batch(studies))
    assert stacked.shape == (3, 1, 4, 4)
    np.testing.assert_array_equal(stacked[0, 0], studies[0].views[0])
    np.testing.assert_array_equal(stacked[2, 0], studies[1].views[0])


def test_stack_views_inconsistent_sizes():
    rng = Rng(4)
    studies = [make_study("a", 1, rng, image_size=4), make_study("b", 1, rng, image_size=8)]
    with pytest.raises(DataError, match="inconsistent"):
        stack_views(Batch(studies))
