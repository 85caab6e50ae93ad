"""The three benchmark workloads: their inputs, operations and output checks.

Each workload is a closed loop of cycles; a cycle runs two timed
operations, ``op1`` then ``op2``, and checks their outputs outside the
timed region. The next cycle starts when the last one has returned.

- ``train_large_batch``: op1 is a Stage-1 step (``mvcl.pretrain_step``),
  op2 a Stage-2 step (``kgrg.finetune_step``), both at B=256. The per-study
  ``narrow``/``concat`` loops and their backward passes do most of the
  work; decoding, the package RNG and file I/O are absent.
- ``decode_long``: op1 decodes one study greedily, op2 decodes it with
  ``beam:3``, under freshly initialised weights whose EOS logit is
  suppressed, so every hypothesis runs to ``max_tokens``. This stands in
  for real-length reports, which the 9-token synthetic reports are not.
  Only inference runs: no backward pass and no optimizer.
- ``pipeline_cold``: the user's path through the public functions. op1
  is synth -> pretrain (Stage 1), op2 is finetune -> generate (greedy,
  test split) -> evaluate (Stage 2); a cycle is one whole pipeline in a
  fresh directory. It is
  the only workload that exercises ``rng``, ``synthetic``, ``tenfile``,
  ``data``, ``checkpoint`` and ``metrics``, small-batch training and
  short, EOS-stopped decoding.

Studies and initial weights of the first two workloads come from the
benchmark's own NumPy generator, so a change to ``mvreport.rng`` changes
only ``pipeline_cold``'s inputs.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mvreport import data, kgrg, mvcl, optim, synthetic, text, training
from mvreport.config import RunConfig
from mvreport.encoders import init_stage1_params

# Scales: "full" is what BENCHMARK.json runs; "tiny" is for the benchmark's own tests.
SCALES = {
    "full": {
        "train_batch": 256, "train_pool_batches": 4,
        "decode_pool": 512, "decode_max_tokens": 100, "decode_trace_studies": 8,
        "pipeline_studies": 128, "pipeline_epochs": 6, "pipeline_bleu4_floor": 0.30,
    },
    "tiny": {
        "train_batch": 8, "train_pool_batches": 2,
        "decode_pool": 16, "decode_max_tokens": 12, "decode_trace_studies": 2,
        "pipeline_studies": 48, "pipeline_epochs": 5, "pipeline_bleu4_floor": 0.20,
    },
}

# EOS logit bias in decode_long: far below any real logit, so EOS is never in a beam.
EOS_SUPPRESSION = -1.0e4
LOGPROB_TOLERANCE = 1e-4


@dataclass
class OpResult:
    op: int            # 1 or 2
    seconds: float     # NaN when the operation raised
    items: int         # work done: studies (training, pipeline) or tokens (decoding)
    output: object = None
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class NumpyNormal:
    """The ``.normal(shape, std=)`` interface of ``mvreport.rng.Rng`` on a NumPy generator."""

    def __init__(self, gen: np.random.Generator):
        self.gen = gen

    def normal(self, size, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        return mean + std * self.gen.standard_normal(size)


def make_studies(gen: np.random.Generator, n: int, image_size: int = 32,
                 indication_rate: float = 0.66) -> list:
    """Synthetic-corpus-style studies: 1-3 views of a block pattern, a
    report naming it, and (66% of the time) an indication naming the severity."""
    grid = synthetic.GRID
    block = image_size // grid
    studies = []
    for i in range(n):
        pattern = int(gen.integers(synthetic.N_PATTERNS))
        severity = synthetic.SEVERITY_WORDS[int(gen.integers(len(synthetic.SEVERITY_WORDS)))]
        r, c = divmod(pattern, grid)
        views = []
        for _ in range(int(gen.integers(1, 4))):
            img = np.full((image_size, image_size), 0.1, dtype=np.float32)
            img[r * block:(r + 1) * block, c * block:(c + 1) * block] = 2.0
            img += (0.05 * gen.standard_normal((image_size, image_size))).astype(np.float32)
            views.append(img)
        region = synthetic.REGION_WORDS[pattern % len(synthetic.REGION_WORDS)]
        report = f"{synthetic.PATTERN_WORDS[pattern]} opacity in the {region} region with {severity} severity."
        indication = None
        if gen.random() < indication_rate:
            sex = "M" if gen.random() < 0.5 else "F"
            indication = text.clean_indication(f"___{sex} with {severity} discomfort // eval")
        studies.append(data.Study(
            study_id=f"bench-{i:05d}", views=views, anchor_index=0, indication=indication,
            report=report, factual_serialization=text.fallback_serialize(report),
        ))
    return studies


def timed_op(op: int, items: int, fn, *args, **kwargs) -> OpResult:
    """Run and time one operation; an exception it raises is a failed operation."""
    start = time.perf_counter()
    try:
        output = fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - counted and reported, the loop goes on
        return OpResult(op, math.nan, 0, errors=[f"op{op}: {type(err).__name__}: {err}"])
    return OpResult(op, time.perf_counter() - start, items, output)


# Every workload has ``cycle(k) -> [OpResult, OpResult]``, which runs the
# timed operations of cycle ``k``, and ``check(k, results)``, which checks
# their outputs and appends to ``errors``; checks are neither timed nor
# traced. ``run_errors(results)`` checks the run as a whole; its errors
# fail the run's last operation. A traced run repeats cycles
# 0 .. ``trace_cycles`` - 1, so that its counts are the same on every run
# of a seed.


class TrainLargeBatch:
    """Back-to-back Stage-1 and Stage-2 training steps at B=256."""

    trace_cycles = 1

    def __init__(self, seed: int, scale: dict):
        gen = np.random.default_rng([seed, 1])
        b = scale["train_batch"]
        pool = make_studies(gen, b * scale["train_pool_batches"])
        self.batches = [data.Batch(pool[i:i + b]) for i in range(0, len(pool), b)]
        self.vocab = synthetic.build_vocabulary(pool)
        self.config = RunConfig(batch_size=b)
        weights = NumpyNormal(gen)
        self.stage1 = init_stage1_params(self.config, len(self.vocab), weights)
        self.stage2 = init_stage1_params(self.config, len(self.vocab), weights)
        self.stage2.update(kgrg.init_stage2_params(self.config, len(self.vocab), weights))
        self.opt1 = optim.AdamW([(self.stage1, self.config.lr_stage1)], weight_decay=self.config.weight_decay)
        pretrained, fresh = kgrg.split_param_groups(self.stage2)
        self.opt2 = optim.AdamW(
            [(pretrained, self.config.lr_stage2_pretrained), (fresh, self.config.lr_stage2_fresh)],
            weight_decay=self.config.weight_decay,
        )

    def cycle(self, k: int) -> list:
        batch = self.batches[k % len(self.batches)]
        return [
            timed_op(1, batch.B, mvcl.pretrain_step, batch, self.stage1, self.vocab, self.opt1, self.config),
            timed_op(2, batch.B, kgrg.finetune_step, batch, self.stage2, self.vocab, self.opt2, self.config),
        ]

    def check(self, k: int, results: list) -> None:
        stage1, stage2 = results
        if stage1.output is not None and not np.isfinite(stage1.output.total):
            stage1.errors.append(f"op1: non-finite Stage-1 loss {stage1.output.total}")
        if stage2.output is not None and not np.isfinite(stage2.output):
            stage2.errors.append(f"op2: non-finite Stage-2 loss {stage2.output}")

    def run_errors(self, results: list) -> list:
        return []


class DecodeLong:
    """One study at a time, greedy then beam:3, every hypothesis to max_tokens."""

    beam1_checks = 2  # cycles on which beam:1 output is compared with greedy output

    def __init__(self, seed: int, scale: dict):
        gen = np.random.default_rng([seed, 2])
        self.studies = make_studies(gen, scale["decode_pool"])
        self.vocab = synthetic.build_vocabulary(self.studies)
        self.config = RunConfig(max_tokens=scale["decode_max_tokens"])
        weights = NumpyNormal(gen)
        self.params = init_stage1_params(self.config, len(self.vocab), weights)
        self.params.update(kgrg.init_stage2_params(self.config, len(self.vocab), weights))
        self.params["stage2.dec.out.b"].data[text.EOS_ID] = EOS_SUPPRESSION
        self.trace_cycles = scale["decode_trace_studies"]

    def cycle(self, k: int) -> list:
        study = self.studies[k % len(self.studies)]
        n = self.config.max_tokens
        return [
            timed_op(1, n, kgrg.generate, study, self.params, self.vocab, self.config, mode="greedy"),
            timed_op(2, n, kgrg.generate, study, self.params, self.vocab, self.config, mode="beam", beam_width=3),
        ]

    def check(self, k: int, results: list) -> None:
        study = self.studies[k % len(self.studies)]
        for result in results:
            if result.output is not None:
                result.errors.extend(self._check_output(study, result.output, f"op{result.op}"))
        greedy = results[0]
        if greedy.output is not None and k < self.beam1_checks:
            beam1 = kgrg.generate(study, self.params, self.vocab, self.config, mode="beam", beam_width=1)
            if beam1.token_ids != greedy.output.token_ids:
                greedy.errors.append("op1: beam:1 output differs from greedy output")

    def _check_output(self, study, output, where: str) -> list:
        errors = []
        if len(output.token_ids) != self.config.max_tokens or output.stopped_by != "max_len":
            errors.append(f"{where}: {len(output.token_ids)} tokens, stopped by {output.stopped_by}; "
                          f"expected {self.config.max_tokens} with EOS suppressed")
        rescored = kgrg.teacher_forced_logprobs(study, output.token_ids, self.params, self.vocab, self.config)
        given = np.asarray(output.token_logprobs, dtype=np.float64)
        if rescored.shape != given.shape or not np.all(np.isfinite(given)):
            errors.append(f"{where}: logprobs missing or non-finite")
        elif np.max(np.abs(rescored - given), initial=0.0) > LOGPROB_TOLERANCE:
            errors.append(f"{where}: teacher-forced logprobs differ by {np.max(np.abs(rescored - given)):.2e}")
        return errors

    def run_errors(self, results: list) -> list:
        return []


class PipelineCold:
    """synth -> pretrain, then finetune -> generate -> evaluate, from scratch each cycle."""

    trace_cycles = 1

    def __init__(self, seed: int, scale: dict, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir

    def config(self, k: int) -> RunConfig:
        # Each cycle is a fresh corpus, so a run's median spans several corpora.
        # The learning rates make training converge within the epochs: at the
        # defaults, decode length flips between 9 and 100 tokens by seed. The
        # validation decodes of the first epochs still run to max_tokens on
        # some corpora; 16 (reports are 9 tokens) keeps that chance small.
        cycle_dir = self.work_dir / f"cycle-{k}"
        return RunConfig(
            seed=int(np.random.SeedSequence([self.seed, 3, k]).generate_state(1)[0]),
            n_studies=self.scale["pipeline_studies"], epochs=self.scale["pipeline_epochs"], batch_size=32,
            lr_stage1=1e-3, lr_stage2_pretrained=1e-4, lr_stage2_fresh=1e-3, max_tokens=16,
            data_dir=str(cycle_dir / "corpus"), out_dir=str(cycle_dir / "out"),
        )

    def cycle(self, k: int) -> list:
        config = self.config(k)
        shutil.rmtree(Path(config.data_dir).parent, ignore_errors=True)
        spec = synthetic.SynthSpec(
            n_studies=config.n_studies, view_count_range=(config.view_count_min, config.view_count_max),
            image_size=config.image_size, indication_rate=config.indication_rate, seed=config.seed,
        )
        out = Path(config.out_dir)
        test_manifest = Path(config.data_dir) / "test.jsonl"

        def stage1():
            records = synthetic.generate_records(spec)
            synthetic.write_corpus(records, config.data_dir,
                                   split_fractions=(config.split_train, config.split_val, config.split_test))
            return training.pretrain_run(config)

        def stage2(stage1_ckpt):
            stage2_ckpt = training.finetune_run(config, stage1_ckpt=stage1_ckpt)
            training.generate_run(stage2_ckpt, test_manifest, config, "greedy", 1, out / "generations.jsonl")
            return training.evaluate_run(out / "generations.jsonl", out)

        first = timed_op(1, config.n_studies, stage1)
        if first.output is None:
            return [first, OpResult(2, math.nan, 0, errors=["op2: not run, op1 failed"])]
        return [first, timed_op(2, config.n_studies, stage2, first.output)]

    def check(self, k: int, results: list) -> None:
        config = self.config(k)
        try:
            out = Path(config.out_dir)
            if results[0].output is not None:
                results[0].errors.extend(_check_logs(out))
            if results[1].output is not None:
                results[1].errors.extend(_check_generations(Path(config.data_dir) / "test.jsonl",
                                                            out / "generations.jsonl", results[1].output))
        finally:
            shutil.rmtree(Path(config.data_dir).parent, ignore_errors=True)

    def run_errors(self, results: list) -> list:
        # Test BLEU-4 is 0.32-0.65 on 77 of 80 probed corpora and 0.14-0.23
        # on the other 3, where part of the test set decodes to an empty
        # report. The floor applies to the run's median so that such a
        # corpus passes while a pipeline that stopped learning does not.
        scores = [r.output["bleu"][3] for r in results if r.op == 2 and r.output is not None]
        floor = self.scale["pipeline_bleu4_floor"]
        if scores and not statistics.median(scores) > floor:
            return [f"run: median test BLEU-4 {statistics.median(scores):.3f} not above {floor}"]
        return []


def _check_logs(out: Path) -> list:
    errors = []
    for name in ("pretrain_log.jsonl", "finetune_log.jsonl"):
        for line in (out / name).read_text().splitlines():
            record = json.loads(line)
            for key in ("total", "lm", "val_total", "val_lm"):
                if key in record and not math.isfinite(record[key]):
                    errors.append(f"op1: non-finite {key} in {name}")
    return errors


def _check_generations(test_manifest: Path, path: Path, report: dict) -> list:
    errors = []
    n_test = sum(1 for line in test_manifest.read_text().splitlines() if line.strip())
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if len(rows) != n_test:
        errors.append(f"op2: {len(rows)} generations for {n_test} test studies")
    not_eos = sum(1 for row in rows if row["stopped_by"] != "eos")
    if not_eos:
        errors.append(f"op2: {not_eos} generations not stopped by EOS")
    if report["n_reports"] != n_test:
        errors.append(f"op2: metrics.json scores {report['n_reports']} reports for {n_test} test studies")
    return errors


WORKLOADS = ("train_large_batch", "decode_long", "pipeline_cold")


def build(name: str, seed: int, scale: dict, work_dir: Path):
    if name == "train_large_batch":
        return TrainLargeBatch(seed, scale)
    if name == "decode_long":
        return DecodeLong(seed, scale)
    if name == "pipeline_cold":
        return PipelineCold(seed, scale, work_dir)
    raise ValueError(f"unknown workload {name!r}")
