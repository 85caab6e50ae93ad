import json
from pathlib import Path

import pytest

from mvreport import training
from mvreport.checkpoint import load_checkpoint
from mvreport.data import load_manifest
from mvreport.errors import CheckpointError, DataError
from mvreport.kgrg import generate
from mvreport.synthetic import SynthSpec, generate_records, write_corpus
from mvreport.training import (
    evaluate_run,
    finetune_run,
    generate_run,
    pretrain_run,
    validation_bleu4,
    validation_lm_loss,
    validation_stage1_loss,
)

from conftest import tiny_config


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    records = generate_records(SynthSpec(n_studies=10, seed=17, image_size=8))
    write_corpus(records, root, split_fractions=(0.6, 0.2, 0.2))
    return root


def _config(corpus_dir, out_dir, **over):
    over.setdefault("epochs", 1)
    over.setdefault("max_steps", 2)
    over.setdefault("batch_size", 3)
    over.setdefault("max_tokens", 16)
    return tiny_config(data_dir=str(corpus_dir), out_dir=str(out_dir), **over)


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def test_pretrain_run_writes_log_and_checkpoint(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run")
    ckpt = pretrain_run(config)
    assert (ckpt / "checkpoint.ten").exists()
    params, _, meta = load_checkpoint(ckpt)
    assert meta["stage"] == "stage1"
    assert meta["vocab"]
    assert all(name.startswith("stage1.") for name in params)
    rows = _read_jsonl(tmp_path / "run" / "pretrain_log.jsonl")
    step_rows = [r for r in rows if "step" in r and "mpc" in r]
    assert len(step_rows) == 2
    assert set(step_rows[0]) == {"step", "mpc", "inst", "tok", "total", "lr", "seed"}
    assert any("val_total" in r for r in rows)


def test_pretrain_run_deterministic_logs(corpus_dir, tmp_path):
    config_a = _config(corpus_dir, tmp_path / "a")
    config_b = _config(corpus_dir, tmp_path / "b")
    pretrain_run(config_a)
    pretrain_run(config_b)
    assert (tmp_path / "a" / "pretrain_log.jsonl").read_text() == \
           (tmp_path / "b" / "pretrain_log.jsonl").read_text()


def test_finetune_requires_stage1_checkpoint(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run")
    with pytest.raises(CheckpointError, match="cold-start"):
        finetune_run(config)


def test_finetune_rejects_incompatible_checkpoint(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "s1")
    ckpt = pretrain_run(config)
    bad = _config(corpus_dir, tmp_path / "s2", d1=16)
    with pytest.raises(CheckpointError, match="incompatible"):
        finetune_run(bad, stage1_ckpt=ckpt)


def test_full_pipeline_and_evaluate(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run")
    s1 = pretrain_run(config)
    s2 = finetune_run(config, stage1_ckpt=s1)
    _, _, meta = load_checkpoint(s2)
    assert meta["stage"] == "stage2"
    rows = _read_jsonl(tmp_path / "run" / "finetune_log.jsonl")
    assert any("lm" in r for r in rows)
    assert any("val_bleu4" in r for r in rows)

    gen_path = generate_run(s2, Path(corpus_dir) / "test.jsonl", config,
                            mode="greedy", beam_width=1,
                            out_path=tmp_path / "run" / "gen.jsonl")
    gens = _read_jsonl(gen_path)
    assert len(gens) == 2
    assert set(gens[0]) == {"study_id", "generated", "reference", "logprob_sum", "stopped_by"}
    assert gens[0]["logprob_sum"] <= 0.0

    report = evaluate_run(gen_path, tmp_path / "run" / "eval")
    assert len(report["bleu"]) == 4
    assert 0.0 <= report["rouge_l"] <= 1.0
    assert report["n_reports"] == 2
    assert "ce_f1_14" not in report and "green" not in report
    assert (tmp_path / "run" / "eval" / "metrics.json").exists()
    assert not (tmp_path / "run" / "eval" / "table.csv").exists()


def test_finetune_cold_start_allowed(corpus_dir, tmp_path, caplog):
    config = _config(corpus_dir, tmp_path / "run", max_steps=1)
    with caplog.at_level("WARNING"):
        ckpt = finetune_run(config, allow_cold_start=True)
    assert (ckpt / "checkpoint.ten").exists()
    assert any("cold start" in rec.getMessage() for rec in caplog.records)


@pytest.fixture(scope="module")
def stage2_ckpt(corpus_dir, tmp_path_factory):
    config = _config(corpus_dir, tmp_path_factory.mktemp("stage2"))
    return finetune_run(config, stage1_ckpt=pretrain_run(config))


@pytest.fixture
def chunk_sizes(monkeypatch):
    """The number of studies in each ``generate_batch`` call made from training."""
    sizes = []

    def spy(studies, *args, **kwargs):
        sizes.append(len(studies))
        return real(studies, *args, **kwargs)

    real = training.generate_batch
    monkeypatch.setattr(training, "generate_batch", spy)
    return sizes


def test_generate_run_on_no_usable_study_writes_empty_file(corpus_dir, stage2_ckpt, tmp_path, chunk_sizes):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text(json.dumps({"study_id": "x", "views": ["x.ten"], "report": " "}) + "\n")
    config = _config(corpus_dir, tmp_path / "run")
    gen_path = generate_run(stage2_ckpt, manifest, config, mode="beam", beam_width=2,
                            out_path=tmp_path / "run" / "gen.jsonl")
    assert gen_path.read_text() == ""
    assert chunk_sizes == []


@pytest.mark.parametrize("mode,width", [("greedy", 1), ("beam", 2)])
def test_generate_run_chunks_keep_manifest_order(corpus_dir, stage2_ckpt, tmp_path, chunk_sizes, mode, width):
    manifest = tmp_path / "five.jsonl"
    records = _read_jsonl(Path(corpus_dir) / "train.jsonl")[:5]
    for record in records:
        record["views"] = [str(Path(corpus_dir) / view) for view in record["views"]]
    manifest.write_text("".join(json.dumps(record) + "\n" for record in records))
    config = _config(corpus_dir, tmp_path / "run", batch_size=2)
    gens = _read_jsonl(generate_run(stage2_ckpt, manifest, config, mode=mode, beam_width=width,
                                    out_path=tmp_path / "run" / "gen.jsonl"))
    assert chunk_sizes == [2, 2, 1]
    studies = load_manifest(manifest)
    assert [g["study_id"] for g in gens] == [s.study_id for s in studies]
    params, _, meta = load_checkpoint(stage2_ckpt)
    vocab = training._vocab_from_meta(meta)
    for study, gen in zip(studies, gens):
        alone = generate(study, params, vocab, config, mode=mode, beam_width=width)
        assert gen["generated"] == " ".join(vocab.decode(alone.token_ids))
        assert gen["stopped_by"] == alone.stopped_by
        assert gen["logprob_sum"] == pytest.approx(sum(alone.token_logprobs), abs=1e-5)


def test_validation_bleu4_decodes_in_batch_size_chunks(corpus_dir, stage2_ckpt, tmp_path, chunk_sizes):
    params, _, meta = load_checkpoint(stage2_ckpt)
    vocab = training._vocab_from_meta(meta)
    train = load_manifest(Path(corpus_dir) / "train.jsonl")
    config = _config(corpus_dir, tmp_path / "run", batch_size=4)
    score = validation_bleu4(train, params, vocab, config)
    assert chunk_sizes == [4, 2]
    assert 0.0 <= score <= 1.0


def test_generate_run_rejects_stage1_checkpoint(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run")
    s1 = pretrain_run(config)
    with pytest.raises(CheckpointError, match="stage"):
        generate_run(s1, Path(corpus_dir) / "test.jsonl", config,
                     mode="greedy", beam_width=1, out_path=tmp_path / "g.jsonl")


def test_evaluate_run_with_labels_and_green(tmp_path):
    rows = [
        {"generated": "patchy opacity seen", "reference": "patchy opacity seen",
         "labels_pred": [1] + [0] * 13, "labels_gold": [1] + [0] * 13,
         "green_counts": {"matched_findings": 3, "errors": [1, 0, 0, 0, 0, 0]}},
        {"generated": "clear lungs", "reference": "lungs are clear",
         "labels_pred": [0] * 14, "labels_gold": [0, 1] + [0] * 12,
         "green_counts": {"matched_findings": 1, "errors": [0, 0, 0, 0, 0, 0]}},
    ]
    path = tmp_path / "gen.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    report = evaluate_run(path, tmp_path / "eval")
    assert report["ce_f1_14"]["micro"]["precision"] == 1.0
    assert report["ce_f1_14"]["micro"]["recall"] == 0.5
    assert report["ce_f1_5"]["macro"]["f1"] == 0.0  # only Cardiomegaly gold, missed
    assert report["green"]["score"] == pytest.approx(4 / 5)
    assert not report["green"]["degenerate"]
    table = (tmp_path / "eval" / "table.csv").read_text().splitlines()
    assert table[0] == "Observation,P,R,F1"
    assert len(table) == 1 + 14 + 2


def test_evaluate_run_errors(tmp_path):
    with pytest.raises(DataError, match="not found"):
        evaluate_run(tmp_path / "none.jsonl", tmp_path / "eval")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"generated": "x"}\n')
    with pytest.raises(DataError, match="reference"):
        evaluate_run(bad, tmp_path / "eval")
    malformed = tmp_path / "mal.jsonl"
    malformed.write_text("not json\n")
    with pytest.raises(DataError, match=":1.*malformed"):
        evaluate_run(malformed, tmp_path / "eval")


def test_validation_helpers_are_deterministic(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run")
    ckpt = pretrain_run(config)
    params, _, meta = load_checkpoint(ckpt)
    from mvreport.training import _vocab_from_meta
    vocab = _vocab_from_meta(meta)
    from mvreport.data import load_manifest
    val = load_manifest(Path(corpus_dir) / "val.jsonl")
    a = validation_stage1_loss(val, params, vocab, config)
    b = validation_stage1_loss(val, params, vocab, config)
    assert a == b


def test_same_seed_finetune_runs_write_identical_logs(corpus_dir, tmp_path):
    config_a = _config(corpus_dir, tmp_path / "a", max_steps=3)
    config_b = _config(corpus_dir, tmp_path / "b", max_steps=3)
    s1 = pretrain_run(_config(corpus_dir, tmp_path / "s1"))
    finetune_run(config_a, stage1_ckpt=s1)
    finetune_run(config_b, stage1_ckpt=s1)
    assert (tmp_path / "a" / "finetune_log.jsonl").read_text() == \
           (tmp_path / "b" / "finetune_log.jsonl").read_text()


def test_best_checkpoint_is_the_best_logged_epoch(corpus_dir, tmp_path):
    config = _config(corpus_dir, tmp_path / "run", epochs=3, max_steps=0)
    s1 = pretrain_run(config)
    s2 = finetune_run(config, stage1_ckpt=s1)

    def epochs(log_name):
        """(step reached, validation fields) of each epoch, in order."""
        rows, step = [], 0
        for row in _read_jsonl(tmp_path / "run" / log_name):
            if "epoch" in row:
                rows.append((step, row))
            else:
                step = row["step"]
        assert [row["epoch"] for _, row in rows] == [0, 1, 2]
        return rows

    # lowest val_total, the earliest epoch on ties
    pre = epochs("pretrain_log.jsonl")
    best = min(range(len(pre)), key=lambda i: (pre[i][1]["val_total"], i))
    meta = load_checkpoint(s1)[2]
    assert (meta["step"], meta["val_total"]) == (pre[best][0], pre[best][1]["val_total"])

    # highest (BLEU-4 to 6 places, -val_lm), the earliest epoch on ties
    ft = epochs("finetune_log.jsonl")
    best = max(range(len(ft)), key=lambda i: (round(ft[i][1]["val_bleu4"], 6), -ft[i][1]["val_lm"], -i))
    meta = load_checkpoint(s2)[2]
    assert (meta["step"], meta["val_lm"], meta["val_bleu4"]) == \
           (ft[best][0], ft[best][1]["val_lm"], ft[best][1]["val_bleu4"])
