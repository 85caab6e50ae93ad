import hashlib
from pathlib import Path

import numpy as np
import pytest

from mvreport.data import load_manifest
from mvreport.errors import DataError
from mvreport.synthetic import (
    PATTERN_WORDS,
    SEVERITY_WORDS,
    SynthSpec,
    build_vocabulary,
    generate_records,
    write_corpus,
)

from conftest import synth_studies


def _dir_hash(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(n_studies=4, indication_rate=1.5)
    with pytest.raises(DataError):
        SynthSpec(n_studies=4, view_count_range=(3, 1))
    with pytest.raises(DataError):
        SynthSpec(n_studies=4, image_size=10)


def test_determinism_same_seed():
    spec = SynthSpec(n_studies=8, seed=7, image_size=16)
    r1 = generate_records(spec)
    r2 = generate_records(spec)
    assert len(r1) == len(r2) == 8
    for a, b in zip(r1, r2):
        assert a["report"] == b["report"]
        assert a["indication"] == b["indication"]
        for va, vb in zip(a["views"], b["views"]):
            np.testing.assert_array_equal(va, vb)


def test_different_seeds_differ():
    a = generate_records(SynthSpec(n_studies=8, seed=1, image_size=16))
    b = generate_records(SynthSpec(n_studies=8, seed=2, image_size=16))
    assert [r["report"] for r in a] != [r["report"] for r in b]


def test_indication_rate_zero():
    records = generate_records(SynthSpec(n_studies=20, seed=3, indication_rate=0.0, image_size=16))
    assert all(r["indication"] is None for r in records)


def test_indication_rate_empirical():
    records = generate_records(SynthSpec(n_studies=1000, seed=4, indication_rate=0.66,
                                         image_size=16, view_count_range=(1, 1)))
    rate = sum(1 for r in records if r["indication"] is not None) / 1000
    assert abs(rate - 0.66) < 0.05


def test_small_corpus_patterns_distinct():
    records = generate_records(SynthSpec(n_studies=8, seed=5, image_size=16))
    pattern_words = [r["report"].split()[0] for r in records]
    assert len(set(pattern_words)) == 8


def test_views_share_pattern_within_study():
    records = generate_records(SynthSpec(n_studies=6, seed=6, image_size=16,
                                         view_count_range=(2, 3)))
    for rec in records:
        # the planted bright block sits in the same cell across views
        cells = [np.unravel_index(np.argmax(v), v.shape) for v in rec["views"]]
        rows = {c[0] // 4 for c in cells}
        cols = {c[1] // 4 for c in cells}
        assert len(rows) == 1 and len(cols) == 1


def test_indication_carries_severity_word():
    records = generate_records(SynthSpec(n_studies=50, seed=8, indication_rate=1.0, image_size=16))
    for rec in records:
        severity = next(w for w in SEVERITY_WORDS if w in rec["report"].split())
        assert severity in rec["indication"]


def test_report_is_function_of_pattern_and_severity():
    records = generate_records(SynthSpec(n_studies=40, seed=9, image_size=16))
    for rec in records:
        words = rec["report"].split()
        assert words[0] in PATTERN_WORDS
        assert words[1] == "opacity"


def test_loaded_studies_have_cleaned_indications():
    studies, _ = synth_studies(SynthSpec(n_studies=30, seed=10, indication_rate=1.0, image_size=16))
    for s in studies:
        assert "___" not in (s.indication or "")
        assert "male" in s.indication or "female" in s.indication


def test_build_vocabulary_covers_corpus():
    studies, vocab = synth_studies(SynthSpec(n_studies=16, seed=11, indication_rate=1.0, image_size=16))
    for s in studies:
        for tok in s.report.lower().replace(".", "").split():
            assert tok in vocab.token_to_id


def test_write_corpus_roundtrip_and_stats(tmp_path):
    records = generate_records(SynthSpec(n_studies=10, seed=12, image_size=16))
    stats = write_corpus(records, tmp_path, split_fractions=(0.6, 0.2, 0.2))
    assert set(stats) == {"train", "val", "test"}
    assert sum(row["#Rpt"] for row in stats.values()) == 10
    train = load_manifest(tmp_path / "train.jsonl")
    assert len(train) == stats["train"]["#Rpt"]
    assert sum(s.num_views for s in train) == stats["train"]["#Img"]


def test_write_corpus_hash_identical_across_runs(tmp_path):
    spec = SynthSpec(n_studies=8, seed=13, image_size=16)
    write_corpus(generate_records(spec), tmp_path / "a")
    write_corpus(generate_records(spec), tmp_path / "b")
    assert _dir_hash(tmp_path / "a") == _dir_hash(tmp_path / "b")
