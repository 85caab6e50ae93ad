"""Training orchestration for both stages, plus generation/evaluation runs."""

from __future__ import annotations

import json
import logging
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import check_compatibility, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import load_manifest, make_batches, read_field, read_jsonl
from .encoders import init_stage1_params
from .errors import CheckpointError, DataError
from .kgrg import finetune_step, generate_batch, init_stage2_params, lm_loss, split_param_groups
# the one-study entry point stays importable from here: perfbench/tests checks that the
# tracer patches this binding too
from .kgrg import generate  # noqa: F401
from .metrics import OBSERVATIONS, GreenCounts, bleu, ce_f1, green_score, meteor_simplified, rouge_l
from .mvcl import pretrain_step, stage1_forward
from .optim import AdamW
from .rng import Rng, derive_seed
from .synthetic import build_vocabulary
from .text import RESERVED, Vocabulary, tokenize

log = logging.getLogger(__name__)


def _load_split(config: RunConfig, name: str):
    path = Path(config.data_dir) / f"{name}.jsonl"
    studies = load_manifest(path)
    if not studies:
        raise DataError(f"split '{name}' in {path} contains no usable studies")
    return studies


def _vocab_from_meta(meta: dict) -> Vocabulary:
    tokens = meta.get("vocab")
    if not (isinstance(tokens, list) and tokens and all(isinstance(tok, str) for tok in tokens)):
        raise CheckpointError(f"checkpoint metadata has no vocabulary (a list of strings), got {tokens!r:.80}")
    vocab = Vocabulary(tokens[len(RESERVED) :])
    if vocab.id_to_token != tokens:
        raise CheckpointError(f"checkpoint vocabulary does not round-trip: it must begin with {RESERVED} "
                              "and hold no token twice")
    return vocab


def _load_stage(ckpt, config: RunConfig, stage: str):
    """Load a ``stage`` checkpoint, rebuild its vocabulary and check both
    against ``config``; returns ``(params, vocab)``."""
    params, _, meta = load_checkpoint(ckpt)
    vocab = _vocab_from_meta(meta)
    check_compatibility(meta, params, _param_shapes(config, vocab, stage), vocab.content_hash(), expected_stage=stage)
    return params, vocab


def _append_jsonl(path: Path, record: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _mean_val_loss(loss_fn, studies, params, vocab, config: RunConfig) -> float:
    """Batch-weighted mean of ``loss_fn(batch, params, vocab, config)`` without an autodiff graph."""
    total, count = 0.0, 0
    with ad.no_grad():
        for batch in make_batches(studies, config.batch_size, seed=derive_seed(config.seed, "val-order")):
            total += loss_fn(batch, params, vocab, config).item() * batch.B
            count += batch.B
    return total / count


def validation_stage1_loss(studies, params, vocab, config: RunConfig) -> float:
    return _mean_val_loss(lambda *args: stage1_forward(*args)[0], studies, params, vocab, config)


def validation_lm_loss(studies, params, vocab, config: RunConfig) -> float:
    return _mean_val_loss(lm_loss, studies, params, vocab, config)


def _train_epochs(config: RunConfig, stage: str, epoch_label: str, log_path: Path,
                  train, params, vocab, step_fn, validate) -> Path:
    """The epoch loop of both stages; returns the ``<stage>_best`` directory.

    ``step_fn(batch)`` trains one step and returns its log fields; after each
    epoch ``validate()`` returns ``(score, fields)``. ``<stage>_best`` is
    saved after the first epoch and whenever ``score`` is higher."""
    ckpt_dir = log_path.parent / f"{stage}_best"
    log_path.write_text("")
    best = None
    step = 0
    for epoch in range(config.epochs):
        for batch in make_batches(train, config.batch_size, seed=derive_seed(config.seed, f"{epoch_label}-{epoch}")):
            step += 1
            _append_jsonl(log_path, {"step": step, **step_fn(batch), "seed": config.seed})
            if config.max_steps and step >= config.max_steps:
                break
        score, fields = validate()
        _append_jsonl(log_path, {"epoch": epoch, **fields, "seed": config.seed})
        if best is None or score > best:
            best = score
            meta = {"stage": stage, "vocab_hash": vocab.content_hash(), "vocab": vocab.id_to_token,
                    "seed": config.seed, **fields, "step": step}
            save_checkpoint(ckpt_dir, params, meta)
        if config.max_steps and step >= config.max_steps:
            break
    return ckpt_dir


def pretrain_run(config: RunConfig) -> Path:
    """Stage-1 training loop; returns the best-checkpoint directory."""
    train = _load_split(config, "train")
    val = _load_split(config, "val")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = build_vocabulary(train)
    params = mvcl_init_params(config, vocab)
    optimizer = AdamW([(params, config.lr_stage1)], weight_decay=config.weight_decay)

    def step_fn(batch):
        losses = pretrain_step(batch, params, vocab, optimizer, config)
        return {"mpc": losses.mpc, "inst": losses.inst, "tok": losses.tok, "total": losses.total,
                "lr": config.lr_stage1}

    def validate():
        val_total = validation_stage1_loss(val, params, vocab, config)
        return -val_total, {"val_total": val_total}

    return _train_epochs(config, "stage1", "epoch", out / "pretrain_log.jsonl",
                         train, params, vocab, step_fn, validate)


def mvcl_init_params(config: RunConfig, vocab) -> dict:
    return init_stage1_params(config, len(vocab), Rng(derive_seed(config.seed, "stage1-init")))


class _ShapesOnly:
    """Stands in for the initialisers' Rng when only the shapes are needed."""

    def normal(self, shape, std=1.0):
        return np.zeros(shape, dtype=np.float32)


def _param_shapes(config: RunConfig, vocab, stage: str) -> dict:
    """Name -> shape of every tensor a ``stage`` checkpoint holds under ``config``."""
    params = init_stage1_params(config, len(vocab), _ShapesOnly())
    if stage == "stage2":
        params.update(init_stage2_params(config, len(vocab), _ShapesOnly()))
    return {name: t.shape for name, t in params.items()}


def _decode(studies, params, vocab, config: RunConfig, mode: str = "greedy", beam_width: int = 1):
    """``(study, GenerationOutput)`` for every study, in order, decoded
    ``config.batch_size`` studies at a time."""
    for start in range(0, len(studies), config.batch_size):
        chunk = studies[start:start + config.batch_size]
        yield from zip(chunk, generate_batch(chunk, params, vocab, config, mode=mode, beam_width=beam_width))


def validation_bleu4(studies, params, vocab, config: RunConfig) -> float:
    cands, refs = [], []
    for study, output in _decode(studies, params, vocab, config):
        cands.append(vocab.decode(output.token_ids))
        refs.append(tokenize(study.report))
    return bleu(cands, refs)[3]


def finetune_run(config: RunConfig, stage1_ckpt=None, allow_cold_start: bool = False) -> Path:
    """Stage-2 training loop with two learning-rate groups."""
    train = _load_split(config, "train")
    val = _load_split(config, "val")
    if stage1_ckpt is not None:
        stage1_params, vocab = _load_stage(stage1_ckpt, config, "stage1")
    elif allow_cold_start:
        vocab = build_vocabulary(train)
        stage1_params = mvcl_init_params(config, vocab)
        log.warning("cold start: Stage-2 runs without a Stage-1 checkpoint")
    else:
        raise CheckpointError("Stage-1 checkpoint required (pass --allow-cold-start to override)")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    params = dict(stage1_params)
    params.update(init_stage2_params(config, len(vocab), Rng(derive_seed(config.seed, "stage2-init"))))
    group1, group2 = split_param_groups(params)
    optimizer = AdamW(
        [(group1, config.lr_stage2_pretrained), (group2, config.lr_stage2_fresh)],
        weight_decay=config.weight_decay,
    )

    def step_fn(batch):
        return {"lm": finetune_step(batch, params, vocab, optimizer, config),
                "lr_pretrained": config.lr_stage2_pretrained, "lr_fresh": config.lr_stage2_fresh}

    def validate():
        val_lm = validation_lm_loss(val, params, vocab, config)
        val_b4 = validation_bleu4(val, params, vocab, config)
        return (round(val_b4, 6), -val_lm), {"val_lm": val_lm, "val_bleu4": val_b4}

    return _train_epochs(config, "stage2", "ft-epoch", out / "finetune_log.jsonl",
                         train, params, vocab, step_fn, validate)


def generate_run(ckpt_dir, manifest_path, config: RunConfig, mode: str, beam_width: int, out_path) -> Path:
    """Decode every study in the manifest; one JSONL line per study."""
    params, vocab = _load_stage(ckpt_dir, config, "stage2")
    studies = load_manifest(manifest_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        for study, output in _decode(studies, params, vocab, config, mode, beam_width):
            fh.write(json.dumps({
                "study_id": study.study_id,
                "generated": " ".join(vocab.decode(output.token_ids)),
                "reference": study.report,
                "logprob_sum": float(sum(output.token_logprobs)),
                "stopped_by": output.stopped_by,
            }, sort_keys=True) + "\n")
    return out_path


def evaluate_run(generations_path, out_dir) -> dict:
    """Compute the metric report (plus F1/GREEN when inputs carry labels)."""
    path = Path(generations_path)
    if not path.exists():
        raise DataError(f"generations file not found: {path}")
    cands, refs = [], []
    labels_pred, labels_gold = [], []
    green_matched, green_errors = 0, np.zeros(6, dtype=np.int64)
    has_green = False
    for where, rec in read_jsonl(path):
        generated, reference = (read_field(rec, key, where, lambda v: isinstance(v, str), "a string")
                                for key in ("generated", "reference"))
        pred, gold = (read_field(rec, key, where, _is_label_row, f"a list of {len(OBSERVATIONS)} labels, each 0 or 1",
                                 default=None) for key in ("labels_pred", "labels_gold"))
        cands.append(tokenize(generated))
        refs.append(tokenize(reference))
        if pred is not None and gold is not None:
            labels_pred.append(pred)
            labels_gold.append(gold)
        if "green_counts" in rec:
            has_green = True
            gc = rec["green_counts"]
            try:
                counts = GreenCounts(int(gc["matched_findings"]), [int(e) for e in gc["errors"]])
            except (DataError, KeyError, TypeError, ValueError) as err:
                raise DataError(f"{where}: field 'green_counts' must hold a non-negative "
                                f"'matched_findings' and six non-negative 'errors', got {gc!r}") from err
            green_matched += counts.matched_findings
            green_errors += np.asarray(counts.errors, dtype=np.int64)

    report = {
        "bleu": bleu(cands, refs),
        "rouge_l": rouge_l(cands, refs),
        "meteor": meteor_simplified(cands, refs),
        "n_reports": len(cands),
    }
    csv_rows = None
    if labels_pred:
        f1_14 = ce_f1(labels_pred, labels_gold, subset=14)
        f1_5 = ce_f1(labels_pred, labels_gold, subset=5)
        report["ce_f1_14"] = f1_14
        report["ce_f1_5"] = f1_5
        csv_rows = f1_14
    if has_green:
        score, degenerate = green_score(GreenCounts(green_matched, green_errors.tolist()))
        report["green"] = {
            "matched_findings": int(green_matched),
            "errors": green_errors.tolist(),
            "score": score,
            "degenerate": degenerate,
        }

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if csv_rows is not None:
        _write_f1_csv(out / "table.csv", csv_rows)
    return report


def _is_label_row(value) -> bool:
    return isinstance(value, list) and len(value) == len(OBSERVATIONS) and all(v in (0, 1) for v in value)


def _write_f1_csv(path, f1_result) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Observation", "P", "R", "F1"])
        for name, values in f1_result["per_obs"].items():
            writer.writerow([name, f"{values['precision']:.3f}", f"{values['recall']:.3f}", f"{values['f1']:.3f}"])
        for row_name in ("micro", "macro"):
            values = f1_result[row_name]
            writer.writerow([f"{row_name} avg", f"{values['precision']:.3f}",
                             f"{values['recall']:.3f}", f"{values['f1']:.3f}"])
