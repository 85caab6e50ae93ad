"""Spans and counters around the public functions of ``mvreport``.

The tracer is installed from outside the program: ``Tracer.install``
replaces each traced function with a timing wrapper in every
``mvreport`` module namespace that binds it (``from .x import y`` makes
a second binding), and on class attributes for methods.
``Tracer.uninstall`` puts every original back.

Each span records inclusive time and self time (inclusive time minus
the inclusive time of the spans nested in it). Counters are taken by
hooks that run after the wrapped call; the time a hook takes is
excluded from every open span, so walking an autodiff graph does not
show up as program time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# Forward ops whose calls and time are reported one by one.
TRACED_OPS = (
    "conv2d", "matmul", "narrow", "concat", "gather_rows",
    "scaled_dot_attention", "layer_norm", "softmax_rows",
)
# Ops whose backward allocates a zeros_like of their parent and scatters into it.
SCATTER_OPS = ("narrow", "gather_rows", "take_last")
# Tape entries counted by op (scaled_dot_attention records matmul/softmax_rows nodes, not its own).
TAPE_OPS = ("conv2d", "matmul", "narrow", "concat", "gather_rows", "take_last", "layer_norm", "softmax_rows")

# (module, attribute path inside the module, metric prefix)
TARGETS = (
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    *(("autodiff", op, f"autodiff.op.{op}") for op in TRACED_OPS),
    ("encoders", "encode_views", "encoders.encode_views"),
    ("encoders", "encode_text", "encoders.encode_text"),
    ("mvcl", "mpc_distributions", "mvcl.mpc_distributions"),
    ("mvcl", "multi_view_fuse", "mvcl.multi_view_fuse"),
    ("mvcl", "instance_alignment_loss", "mvcl.instance_alignment_loss"),
    ("mvcl", "token_alignment_loss", "mvcl.token_alignment_loss"),
    ("mvcl", "pretrain_step", "mvcl.pretrain_step"),
    ("kgrg", "encode_indications", "kgrg.encode_indications"),
    ("kgrg", "bridge_forward", "kgrg.bridge_forward"),
    ("kgrg", "decoder_forward", "kgrg.decoder_forward"),
    ("kgrg", "generate", "kgrg.generate"),
    ("kgrg", "finetune_step", "kgrg.finetune_step"),
    ("optim", "AdamW.step", "optim.AdamW.step"),
    ("rng", "Rng.normal", "rng.Rng.normal"),
    ("synthetic", "generate_records", "synthetic.generate_records"),
    ("synthetic", "write_corpus", "synthetic.write_corpus"),
    ("tenfile", "read_tensor", "tenfile.read_tensor"),
    ("tenfile", "write_tensor", "tenfile.write_tensor"),
    ("data", "load_manifest", "data.load_manifest"),
    ("data", "make_batches", "data.make_batches"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("metrics", "bleu", "metrics.bleu"),
    ("metrics", "rouge_l", "metrics.rouge_l"),
    ("metrics", "meteor_simplified", "metrics.meteor_simplified"),
    ("training", "pretrain_run", "training.pretrain_run"),
    ("training", "finetune_run", "training.finetune_run"),
    ("training", "validation_bleu4", "training.validation_bleu4"),
    ("training", "generate_run", "training.generate_run"),
    ("training", "evaluate_run", "training.evaluate_run"),
)

SPAN_NAMES = tuple(prefix for _, _, prefix in TARGETS)

# Per-layer metrics that are counts rather than times; every one is
# reported per cycle unless its name says otherwise (see metrics()).
COUNT_METRICS = (
    *(f"autodiff.op.{op}.calls" for op in TRACED_OPS),
    "autodiff.tape.nodes",
    *(f"autodiff.tape.nodes.{op}" for op in TAPE_OPS),
    "autodiff.tape.scatter_zero_bytes",
    "encoders.encode_views.views",
    "encoders.encode_text.tokens",
    "kgrg.decoder_forward.calls",
    "kgrg.decoder_forward.positions",
    "kgrg.decoder_forward.graph_nodes",
    "kgrg.generate.greedy_positions",
    "rng.Rng.normal.values",
    "tenfile.read_tensor.bytes",
    "tenfile.write_tensor.bytes",
    "checkpoint.save_checkpoint.calls",
    "checkpoint.save_checkpoint.bytes",
)

WRAPPED_MARK = "__perfbench_span__"


def tape_nodes(root):
    """Recorded ops reachable from ``root`` through ``_parents``."""
    seen, stack, nodes = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class _Frame:
    __slots__ = ("name", "start", "hidden_at_start", "child", "tag")

    def __init__(self, name, start, hidden_at_start, tag):
        self.name = name
        self.start = start
        self.hidden_at_start = hidden_at_start
        self.child = 0.0
        self.tag = tag


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []
        self._hidden = 0.0  # tracer time that open spans must not count
        self._patches = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mvreport" or name.startswith("mvreport."))]
        try:
            for module_name, path, prefix in TARGETS:
                owner = sys.modules[f"mvreport.{module_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], prefix))
                    continue
                original = getattr(owner, path)
                wrapper = self._wrap(original, prefix)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ----------------------------------------------------------

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            tag = None
            if name == "kgrg.generate":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = bound.arguments["mode"]
            frame = _Frame(name, clock(), tracer._hidden, tag)
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                total = end - frame.start - (tracer._hidden - frame.hidden_at_start)
                tracer.total_s[name] += total
                tracer.self_s[name] += total - frame.child
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1].child += total
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result, tag)
                tracer._hidden += clock() - end
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def enclosing_tag(self, name):
        for frame in reversed(self._stack):
            if frame.name == name:
                return frame.tag
        return None

    # -- results --------------------------------------------------------

    def metrics(self, cycles: int) -> dict:
        """Per-layer values, per cycle except where ``PER_CALL`` says otherwise."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.ms"] = 1000.0 * self.self_s[name] / cycles
            out[f"{name}.total_ms"] = 1000.0 * self.total_s[name] / cycles
        counts = dict(self.counts)
        for span in ("autodiff.backward", "kgrg.decoder_forward", "checkpoint.save_checkpoint",
                     *(f"autodiff.op.{op}" for op in TRACED_OPS)):
            counts[f"{span}.calls"] = self.calls[span]
        for name in COUNT_METRICS:
            per = next((unit for prefix, unit in PER_CALL.items() if name.startswith(prefix)), None)
            base = cycles if per is None else counts.get(per, 0)
            out[name] = counts.get(name, 0) / base if base else 0.0
        return out


# Count metrics reported per call of something other than a cycle:
# metric-name prefix -> the count it is divided by.
PER_CALL = {
    "autodiff.tape.": "autodiff.backward.calls",
    "kgrg.decoder_forward.graph_nodes": "kgrg.decoder_forward.calls",
    "kgrg.generate.greedy_positions": "kgrg.generate.greedy_calls",
}


# -- counter hooks: (tracer, bound arguments, result, span tag) -------------


def _backward_hook(tracer, args, result, tag):
    nodes = tape_nodes(args["self"])
    tracer.counts["autodiff.tape.nodes"] += len(nodes)
    for node in nodes:
        if node._op in TAPE_OPS:
            tracer.counts[f"autodiff.tape.nodes.{node._op}"] += 1
        if node._op in SCATTER_OPS:
            tracer.counts["autodiff.tape.scatter_zero_bytes"] += node._parents[0].data.nbytes


def _decoder_hook(tracer, args, result, tag):
    positions = int(np.asarray(args["prefix_ids"]).size)
    tracer.counts["kgrg.decoder_forward.positions"] += positions
    tracer.counts["kgrg.decoder_forward.graph_nodes"] += len(tape_nodes(result))
    if tracer.enclosing_tag("kgrg.generate") == "greedy":
        tracer.counts["kgrg.generate.greedy_positions"] += positions


def _generate_hook(tracer, args, result, tag):
    if tag == "greedy":
        tracer.counts["kgrg.generate.greedy_calls"] += 1


def _save_checkpoint_hook(tracer, args, result, tag):
    arrays = [p.data for p in args["params"].values()] + list((args["extra_arrays"] or {}).values())
    tracer.counts["checkpoint.save_checkpoint.bytes"] += sum(np.asarray(a, dtype=np.float32).nbytes for a in arrays)


def _counter(key, measure):
    def hook(tracer, args, result, tag):
        tracer.counts[key] += measure(args, result)
    return hook


_HOOKS = {
    "autodiff.backward": _backward_hook,
    "kgrg.decoder_forward": _decoder_hook,
    "kgrg.generate": _generate_hook,
    "checkpoint.save_checkpoint": _save_checkpoint_hook,
    "encoders.encode_views": _counter("encoders.encode_views.views", lambda a, r: a["views"].shape[0]),
    "encoders.encode_text": _counter("encoders.encode_text.tokens", lambda a, r: r.ids.size),
    "rng.Rng.normal": _counter("rng.Rng.normal.values", lambda a, r: r.size),
    "tenfile.read_tensor": _counter("tenfile.read_tensor.bytes", lambda a, r: r.nbytes),
    "tenfile.write_tensor": _counter("tenfile.write_tensor.bytes", lambda a, r: 4 * np.asarray(a["array"]).size),
}
