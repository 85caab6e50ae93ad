import json
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
        "d1": 8, "d2": 8, "d": 4,
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
], ids=["str_for_int", "bool_for_int", "float_for_int", "bool_for_float", "int_for_str", "ffn_mult_negative",
        "split_negative", "split_above_one", "split_sum_above_one"])
def test_wrong_config_value_fails_dry_run(tmp_path, capsys, fields, message):
    cfg = _write_config(tmp_path / "c.json", **fields)
    assert cli.main(["synth", "--config", str(cfg), "--dry-run"]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("views", [{"view_count_min": 0}, {"view_count_min": 3, "view_count_max": 2}])
def test_bad_view_counts_fail_dry_run(tmp_path, capsys, views):
    cfg = _write_config(tmp_path / "c.json", **views)
    assert cli.main(["synth", "--config", str(cfg), "--dry-run"]) == 1
    assert "view_count_min" in capsys.readouterr().err


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


@pytest.mark.parametrize("field, value", [("report", 7), ("anchor_index", "x"), ("views", ["v.ten", 3])],
                         ids=["report", "anchor_index", "views"])
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


@pytest.mark.parametrize("bad", [
    {"labels_gold": [0] * 13},
    {"green_counts": {"errors": [0] * 6}},
    {"green_counts": {"matched_findings": 1, "errors": [0, 0]}},
], ids=["label_row_length", "green_without_matched", "green_errors_length"])
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
