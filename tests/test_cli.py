import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mvreport import cli
from mvreport.errors import NumericalAbort, UsageError
from mvreport.optim import AdamW


def _write_config(path, **over):
    config = {
        "seed": 11,
        "image_size": 8,
        "d1": 8, "d": 4,
        "n_b": 2, "memory_rows": 2, "bridge_blocks": 1,
        "text_layers": 1, "dec_layers": 1, "ffn_mult": 1,
        "k_t": 8, "max_tokens": 16,
        "batch_size": 3, "epochs": 1, "max_steps": 2,
        "n_studies": 10,
    }
    config.update(over)
    path.write_text(json.dumps(config))
    return path


def test_dry_run_exits_zero(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json")
    assert cli.main(["pretrain", "--config", str(cfg), "--dry-run"]) == 0
    assert "config ok" in capsys.readouterr().out
    # an int stands for a float
    cfg = _write_config(tmp_path / "c.json", tau1=1, split_train=1, split_val=0, split_test=0)
    assert cli.main(["synth", "--config", str(cfg), "--dry-run"]) == 0


@pytest.mark.parametrize("fields, message", [
    ({"d1": "64"}, "config field 'd1' must be of type int, got '64'"),
    ({"epochs": True}, "config field 'epochs' must be of type int"),
    ({"batch_size": 3.0}, "config field 'batch_size' must be of type int"),
    ({"tau1": False}, "config field 'tau1' must be of type float"),
    ({"data_dir": 5}, "config field 'data_dir' must be of type str"),
    ({"ffn_mult": -1}, "config field 'ffn_mult' must be positive"),
    ({"split_train": -0.5}, "split_train must be in [0, 1]"),
    ({"split_test": 1.5}, "split_test must be in [0, 1]"),
    ({"split_train": 0.7, "split_val": 0.2, "split_test": 0.2},
     "split_train + split_val + split_test must not exceed 1, got 1.1"),
    ({"max_steps": -1}, "config field 'max_steps' must not be negative, got -1"),
    ({"weight_decay": -0.5}, "config field 'weight_decay' must not be negative, got -0.5"),
    (None, "config file {cfg} must hold a JSON object, got None"),
    ([], "config file {cfg} must hold a JSON object, got []"),
], ids=["str_for_int", "bool_for_int", "float_for_int", "bool_for_float", "int_for_str", "ffn_mult_negative",
        "split_negative", "split_above_one", "split_sum_above_one", "max_steps_negative", "weight_decay_negative",
        "null_file", "list_file"])
def test_wrong_config_value_fails_dry_run(tmp_path, capsys, fields, message):
    if isinstance(fields, dict):
        cfg = _write_config(tmp_path / "c.json", **fields)
    else:  # the whole file is JSON, but not an object
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(fields))
    assert cli.main(["synth", "--config", str(cfg), "--dry-run"]) == 1
    assert f"usage error: {message.format(cfg=cfg)}" in capsys.readouterr().err


@pytest.mark.parametrize("views", [{"view_count_min": 0}, {"view_count_min": 3, "view_count_max": 2}])
def test_bad_view_counts_fail_dry_run(tmp_path, capsys, views):
    cfg = _write_config(tmp_path / "c.json", **views)
    assert cli.main(["synth", "--config", str(cfg), "--dry-run"]) == 1
    assert "view_count_min" in capsys.readouterr().err


@pytest.mark.parametrize("k_t", [0, 1])
def test_pretrain_with_k_t_below_two_exits_1_without_a_traceback(tmp_path, capsys, k_t):
    """BOS and EOS alone take two text positions, so a smaller ``k_t`` is a
    usage error before any training, not a reshape error in the text encoder."""
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "corpus"), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    cfg = _write_config(tmp_path / "c.json", k_t=k_t, data_dir=str(tmp_path / "corpus"), out_dir=str(tmp_path / "run"))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 1
    assert f"usage error: config field 'k_t' must be at least 2, for the BOS and EOS tokens, got {k_t}" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]])
def test_bad_mode_is_usage_error(tmp_path, capsys, dry_run):
    cfg = _write_config(tmp_path / "c.json")
    argv = ["generate", "--config", str(cfg), "--ckpt", "ckpt", "--manifest", "m.jsonl", "--mode", "sample"]
    assert cli.main(argv + dry_run) == 1
    assert "--mode must be" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["synth", "--bogus"]) == 1


def test_bad_config_field_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"seed": 1, "not_a_field": 2}))
    assert cli.main(["pretrain", "--config", str(cfg), "--dry-run"]) == 1
    assert "not_a_field" in capsys.readouterr().err


def test_parse_mode():
    assert cli._parse_mode("greedy") == ("greedy", 1)
    assert cli._parse_mode("beam:3") == ("beam", 3)
    for bad in ("beam:x", "beam:0", "sample"):
        with pytest.raises(UsageError):
            cli._parse_mode(bad)


def test_missing_data_is_data_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "nowhere"))
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["pretrain"], ["finetune", "--allow-cold-start"]])
def test_data_error_leaves_no_output_directory(tmp_path, capsys, command):
    out_dir = tmp_path / "run"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "nowhere"), out_dir=str(out_dir))
    assert cli.main(command + ["--config", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_stage1_checkpoint_leaves_no_output_directory(tmp_path, capsys):
    data_dir, out_dir = tmp_path / "corpus", tmp_path / "run"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(out_dir))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    assert cli.main(["finetune", "--config", str(cfg), "--stage1-ckpt", str(tmp_path / "no_ckpt")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out_dir.exists()


def test_truncated_view_is_data_error(tmp_path, capsys):
    data_dir = tmp_path / "corpus"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    first = json.loads((data_dir / "train.jsonl").read_text().splitlines()[0])
    view = data_dir / first["views"][0]
    view.write_bytes(view.read_bytes()[:6])
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    assert "data error: truncated TEN1 header" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("report", 7), ("anchor_index", "x"), ("views", ["v.ten", 3]), ("indication", 5), ("indication", ["a"]),
    ("factual_serialization", 5), ("factual_serialization", "abc def"), ("factual_serialization", [1, 2]),
    ("study_id", [1]),
], ids=["report", "anchor_index", "views", "indication_int", "indication_list", "serialization_int",
        "serialization_string", "serialization_ints", "study_id_list"])
def test_wrong_typed_manifest_field_is_data_error(tmp_path, capsys, field, value):
    data_dir = tmp_path / "corpus"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    manifest = data_dir / "train.jsonl"
    lines = manifest.read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    assert f"data error: {manifest}:2: field '{field}' must be" in capsys.readouterr().err


def test_manifest_line_that_is_not_an_object_is_data_error(tmp_path, capsys):
    data_dir = tmp_path / "corpus"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    manifest = data_dir / "train.jsonl"
    lines = manifest.read_text().splitlines()
    lines[1] = "null"
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg)]) == 2
    assert f"data error: {manifest}:2: expected a JSON object, got None" in capsys.readouterr().err


def test_generations_line_that_is_not_an_object_is_data_error(tmp_path, capsys):
    generations = tmp_path / "gen.jsonl"
    generations.write_text(json.dumps({"generated": "patchy opacity", "reference": "patchy opacity"}) + "\n42\n")
    cfg = _write_config(tmp_path / "c.json", out_dir=str(tmp_path / "eval"))
    assert cli.main(["evaluate", "--config", str(cfg), "--generations", str(generations)]) == 2
    assert f"data error: {generations}:2: expected a JSON object, got 42" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


@pytest.mark.parametrize("bad", [
    {"labels_gold": [0] * 13},
    {"labels_pred": ["x"] + [0] * 13},
    {"labels_gold": [None] + [0] * 13},
    {"labels_pred": [0] * 13 + [2]},
    {"green_counts": {"errors": [0] * 6}},
    {"green_counts": {"matched_findings": 1, "errors": [0, 0]}},
    {"generated": 5},
    {"reference": None},
], ids=["label_row_length", "label_string", "label_null", "label_two", "green_without_matched", "green_errors_length",
        "generated_int", "reference_null"])
def test_wrong_typed_generations_field_is_data_error(tmp_path, capsys, bad):
    row = {"generated": "patchy opacity", "reference": "patchy opacity", "labels_pred": [0] * 14,
           "labels_gold": [0] * 14, "green_counts": {"matched_findings": 1, "errors": [0] * 6}}
    generations = tmp_path / "gen.jsonl"
    generations.write_text(json.dumps(row) + "\n" + json.dumps({**row, **bad}) + "\n")
    cfg = _write_config(tmp_path / "c.json", out_dir=str(tmp_path / "eval"))
    assert cli.main(["evaluate", "--config", str(cfg), "--generations", str(generations)]) == 2
    field = next(iter(bad))
    assert f"data error: {generations}:2: field '{field}' must" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "metrics.json").exists()


def test_numerical_abort_writes_dump(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "c.json", out_dir=str(tmp_path / "run"))

    def boom(config, out_dir=None):
        raise NumericalAbort("loss became nan", dump={"step": 7, "loss": None})

    monkeypatch.setattr(cli, "pretrain_run", boom)
    monkeypatch.chdir(tmp_path)
    for extra, out_dir in (([], tmp_path / "run"), (["--out", "other"], tmp_path / "other")):
        assert cli.main(["pretrain", "--config", str(cfg)] + extra) == 3
        dump = json.loads((out_dir / "numerical_abort_dump.json").read_text())
        assert dump["step"] == 7
        assert "numerical abort" in capsys.readouterr().err
    assert not (tmp_path / "numerical_abort_dump.json").exists()


def test_non_finite_gradient_with_finite_loss_exits_3(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "corpus"), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    real_step = AdamW.step

    def poisoned_step(self):
        params, _ = self.groups[0]
        params["stage1.vis.conv0.w"].grad[0, 0, 0, 0] = np.nan
        real_step(self)

    monkeypatch.setattr(AdamW, "step", poisoned_step)
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg)]) == 3
    dump = json.loads((tmp_path / "run" / "numerical_abort_dump.json").read_text())
    assert dump == {"non_finite_grads": ["stage1.vis.conv0.w"]}
    assert "non-finite gradient" in capsys.readouterr().err


def test_synth_prints_stats_table(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "corpus"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "#Img" in out and "#Rpt" in out and "%Ind" in out
    for split in ("train", "val", "test"):
        assert split in out
        assert (tmp_path / "corpus" / f"{split}.jsonl").exists()


def test_full_cli_pipeline(tmp_path, capsys):
    data_dir = tmp_path / "corpus"
    out_dir = tmp_path / "run"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(out_dir))

    assert cli.main(["synth", "--config", str(cfg)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg)]) == 0
    s1 = out_dir / "stage1_best"
    assert cli.main(["finetune", "--config", str(cfg), "--stage1-ckpt", str(s1)]) == 0
    s2 = out_dir / "stage2_best"
    assert cli.main(["generate", "--config", str(cfg),
                     "--ckpt", str(s2), "--manifest", str(data_dir / "test.jsonl"),
                     "--mode", "beam:2"]) == 0
    gen_path = out_dir / "generations.jsonl"
    assert gen_path.exists()
    assert cli.main(["evaluate", "--config", str(cfg), "--generations", str(gen_path)]) == 0
    out = capsys.readouterr().out
    assert "bleu" in out
    assert (out_dir / "metrics.json").exists()


@pytest.mark.parametrize("field", ["dec_layers", "max_tokens"])
def test_generate_with_mismatched_config_is_checkpoint_error(tmp_path, capsys, field):
    data_dir = tmp_path / "corpus"
    out_dir = tmp_path / "run"
    base = {"data_dir": str(data_dir), "out_dir": str(out_dir)}
    cfg = _write_config(tmp_path / "c.json", **base)
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg)]) == 0
    assert cli.main(["finetune", "--config", str(cfg), "--stage1-ckpt", str(out_dir / "stage1_best")]) == 0
    capsys.readouterr()

    grown = json.loads(cfg.read_text())[field] + 1
    other = _write_config(tmp_path / "other.json", **base, **{field: grown})
    assert cli.main(["generate", "--config", str(other), "--ckpt", str(out_dir / "stage2_best"),
                     "--manifest", str(data_dir / "test.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "data error: incompatible checkpoint" in err
    expected = "stage2.dec.l1.cross.wk: checkpoint=missing" if field == "dec_layers" else "stage2.dec.pos:"
    assert expected in err
    assert not (out_dir / "generations.jsonl").exists()


def test_finetune_without_checkpoint_is_data_error(tmp_path, capsys):
    data_dir = tmp_path / "corpus"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(data_dir), out_dir=str(tmp_path / "run"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    assert cli.main(["finetune", "--config", str(cfg)]) == 2
    assert "cold-start" in capsys.readouterr().err


def test_seed_override_changes_corpus(tmp_path):
    cfg_a = _write_config(tmp_path / "a.json", data_dir=str(tmp_path / "ca"))
    cfg_b = _write_config(tmp_path / "b.json", data_dir=str(tmp_path / "cb"))
    assert cli.main(["synth", "--config", str(cfg_a)]) == 0
    assert cli.main(["synth", "--config", str(cfg_b), "--seed", "99"]) == 0
    assert (tmp_path / "ca" / "train.jsonl").read_text() != \
           (tmp_path / "cb" / "train.jsonl").read_text()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A corpus plus the Stage-1 and Stage-2 checkpoints trained on it, under ``root/run``."""
    root = tmp_path_factory.mktemp("trained")
    cfg = _write_config(root / "c.json", data_dir=str(root / "corpus"), out_dir=str(root / "run"))
    for argv in (["synth"], ["pretrain"], ["finetune", "--stage1-ckpt", str(root / "run" / "stage1_best")]):
        assert cli.main(argv + ["--config", str(cfg)]) == 0
    return root


def _edit_header(ckpt_dir, edit):
    """Replace the JSON header line of ``ckpt_dir``'s checkpoint with ``edit(header)``."""
    path = ckpt_dir / "checkpoint.ten"
    blob = path.read_bytes()
    end = blob.index(b"\n")
    path.write_bytes(edit(json.loads(blob[:end])).encode() + blob[end:])


def _without_hash(header):
    return {key: value for key, value in header.items() if key != "vocab_hash"}


@pytest.mark.parametrize("edit, message", [
    (lambda h: json.dumps(h)[:-9], "malformed checkpoint header"),
    (lambda h: json.dumps([h]), "malformed checkpoint header"),
    (lambda h: "[" * 100_000, "malformed checkpoint header"),
    (lambda h: json.dumps({**h, "vocab_hash": 5}), "incompatible checkpoint: vocab_hash: checkpoint=5..."),
    (lambda h: json.dumps({**h, "param_names": [1]}), "malformed checkpoint header"),
    (lambda h: json.dumps({**h, "vocab": [1, 2, 3, 4, 5]}), "checkpoint metadata has no vocabulary"),
    (lambda h: json.dumps({**_without_hash(h), "vocab": ["x0", "x1", "x2", "x3", *h["vocab"][4:]]}),
     "checkpoint vocabulary does not round-trip"),
    (lambda h: json.dumps({**_without_hash(h), "vocab": [*h["vocab"][:-1], h["vocab"][4]]}),
     "checkpoint vocabulary does not round-trip"),
], ids=["garbled_json", "json_list", "nested_too_deep", "vocab_hash_int", "param_name_int", "vocab_ints",
        "vocab_reserved_renamed", "vocab_duplicate"])
def test_malformed_checkpoint_header_is_data_error(trained, tmp_path, capsys, edit, message):
    ckpt = tmp_path / "stage1_best"
    shutil.copytree(trained / "run" / "stage1_best", ckpt)
    _edit_header(ckpt, edit)
    cfg = _write_config(tmp_path / "c.json", data_dir=str(trained / "corpus"), out_dir=str(tmp_path / "run"))
    capsys.readouterr()
    assert cli.main(["finetune", "--config", str(cfg), "--stage1-ckpt", str(ckpt)]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("layout", ["truncated", "old"])
def test_generate_on_unreadable_checkpoint_is_data_error(trained, tmp_path, capsys, layout):
    ckpt = tmp_path / "stage2_best"
    if layout == "truncated":
        shutil.copytree(trained / "run" / "stage2_best", ckpt)
        path = ckpt / "checkpoint.ten"
        path.write_bytes(path.read_bytes()[:-100])
        message = "TEN1 payload size mismatch"
    else:  # a directory checkpoint as written before the one-file layout
        (ckpt / "tensors").mkdir(parents=True)
        (ckpt / "meta.json").write_text(json.dumps({"stage": "stage2", "param_names": []}))
        message = "holds the old layout (meta.json plus tensors/): re-run its stage"
    cfg = _write_config(tmp_path / "c.json", data_dir=str(trained / "corpus"), out_dir=str(tmp_path / "run"))
    capsys.readouterr()
    assert cli.main(["generate", "--config", str(cfg), "--ckpt", str(ckpt),
                     "--manifest", str(trained / "corpus" / "test.jsonl")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run" / "generations.jsonl").exists()


def test_synth_into_a_directory_under_a_file_is_data_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = _write_config(tmp_path / "c.json", data_dir=str(blocker / "corpus"))
    assert cli.main(["synth", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(blocker) in err


def test_pretrain_out_under_a_file_is_data_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = _write_config(tmp_path / "c.json", data_dir=str(tmp_path / "corpus"))
    assert cli.main(["synth", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["pretrain", "--config", str(cfg), "--out", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(blocker) in err
