"""Command-line entry points: synth, pretrain, finetune, generate, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import CheckpointError, DataError, NumericalAbort, UsageError
from .synthetic import SynthSpec, generate_records, write_corpus
from .training import evaluate_run, finetune_run, generate_run, pretrain_run

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_mode(mode: str):
    if mode == "greedy":
        return "greedy", 1
    if mode.startswith("beam:"):
        try:
            width = int(mode.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad beam width in --mode {mode!r}")
        if width < 1:
            raise UsageError(f"beam width must be >= 1, got {width}")
        return "beam", width
    raise UsageError(f"--mode must be 'greedy' or 'beam:K', got {mode!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mvreport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--dry-run", action="store_true", help="validate config and exit")

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    common(p_synth)

    p_pre = sub.add_parser("pretrain", help="Stage-1 contrastive pretraining")
    common(p_pre)

    p_ft = sub.add_parser("finetune", help="Stage-2 report-generation finetuning")
    common(p_ft)
    p_ft.add_argument("--stage1-ckpt", default=None, help="Stage-1 checkpoint directory")
    p_ft.add_argument("--allow-cold-start", action="store_true",
                      help="permit finetuning without a Stage-1 checkpoint")

    p_gen = sub.add_parser("generate", help="decode reports for a manifest")
    common(p_gen)
    p_gen.add_argument("--ckpt", required=True, help="Stage-2 checkpoint directory")
    p_gen.add_argument("--manifest", required=True, help="input manifest JSONL")
    p_gen.add_argument("--mode", default="greedy", type=_parse_mode, help="greedy | beam:K")

    p_eval = sub.add_parser("evaluate", help="score a generations JSONL")
    common(p_eval)
    p_eval.add_argument("--generations", required=True, help="generations JSONL path")

    return parser


def _config_from_args(args) -> "RunConfig":
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    return load_config(args.config, overrides)


def cmd_synth(args, config) -> int:
    spec = SynthSpec(
        n_studies=config.n_studies,
        view_count_range=(config.view_count_min, config.view_count_max),
        image_size=config.image_size,
        indication_rate=config.indication_rate,
        seed=config.seed,
    )
    records = generate_records(spec)
    stats = write_corpus(records, config.data_dir,
                         split_fractions=(config.split_train, config.split_val, config.split_test))
    print(f"{'Split':<8}{'#Img':>8}{'#Rpt':>8}{'%Ind':>8}")
    for name, row in stats.items():
        print(f"{name:<8}{row['#Img']:>8}{row['#Rpt']:>8}{row['%Ind']:>8}")
    return EXIT_OK


def cmd_pretrain(args, config) -> int:
    ckpt = pretrain_run(config)
    print(f"stage-1 checkpoint: {ckpt}")
    return EXIT_OK


def cmd_finetune(args, config) -> int:
    ckpt = finetune_run(config, stage1_ckpt=args.stage1_ckpt, allow_cold_start=args.allow_cold_start)
    print(f"stage-2 checkpoint: {ckpt}")
    return EXIT_OK


def cmd_generate(args, config) -> int:
    mode, width = args.mode
    out_path = Path(config.out_dir) / "generations.jsonl"
    generate_run(args.ckpt, args.manifest, config, mode, width, out_path)
    print(f"generations: {out_path}")
    return EXIT_OK


def cmd_evaluate(args, config) -> int:
    report = evaluate_run(args.generations, config.out_dir)
    print(json.dumps({k: report[k] for k in ("bleu", "rouge_l", "meteor")}, indent=2))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "generate": cmd_generate,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)
        if args.dry_run:
            print("config ok")
            return EXIT_OK
        return _COMMANDS[args.command](args, config)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as err:  # an OSError's message names its path
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericalAbort as err:
        dump_path = Path(config.out_dir) / "numerical_abort_dump.json"
        dump_path.parent.mkdir(parents=True, exist_ok=True)
        dump_path.write_text(json.dumps(err.dump, indent=2))
        print(f"numerical abort: {err} (diagnostics in {dump_path})", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
