"""Reference decoding loops.

``reference_generate`` makes one full-prefix decoder call per hypothesis
per step: the loop that ``kgrg.generate`` replaced with cached steps that
decode all live hypotheses as one batch; the tests require both to agree.
It records the autodiff graph of every call, as the loop did.

``concat_decoder_step`` and ``concat_generate_batch`` are the cached step
and batched loop that kgrg's preallocated key/value buffers and array
kernels replaced; the tests require kgrg's outputs to equal theirs byte
for byte.
"""

from dataclasses import dataclass, field

import numpy as np

from mvreport import autodiff as ad
from mvreport.data import Batch
from mvreport.encoders import _mlp
from mvreport.errors import DimensionError
from mvreport.kgrg import GenerationOutput, decoder_forward, stage2_knowledge
from mvreport.text import BOS_ID, EOS_ID, PAD_ID


def next_logprobs(prefix, knowledge, params, config) -> np.ndarray:
    ids = np.asarray([prefix], dtype=np.int64)
    logits = decoder_forward(ids, knowledge, params, config)
    logp = ad.log_softmax_rows(logits)
    return logp.data[0, -1].astype(np.float64)


def reference_generate(study, params, vocab, config, mode="greedy", beam_width=1) -> GenerationOutput:
    knowledge = stage2_knowledge(Batch([study]), params, vocab, config)
    if mode == "greedy":
        beam_width = 1
    # hypothesis: (ids-after-BOS tuple, logprobs tuple, score, finished)
    hyps = [((), (), 0.0, False)]
    for _ in range(config.max_tokens):
        candidates = []
        for ids, lps, score, finished in hyps:
            if finished:
                candidates.append((ids, lps, score, True))
                continue
            logp = next_logprobs([BOS_ID, *ids], knowledge, params, config)
            order = np.argsort(-logp, kind="stable")[:beam_width]
            for tok in order:
                tok = int(tok)
                if tok == EOS_ID:
                    candidates.append((ids, lps, score + logp[tok], True))
                else:
                    candidates.append((ids + (tok,), lps + (logp[tok],), score + logp[tok], False))
        candidates.sort(key=lambda c: (-c[2], c[0]))
        hyps = candidates[:beam_width]
        if all(h[3] for h in hyps):
            break
    best = hyps[0]
    return GenerationOutput(
        token_ids=list(best[0]),
        token_logprobs=[float(v) for v in best[1]],
        stopped_by="eos" if best[3] else "max_len",
    )


@dataclass
class ConcatCache:
    """The cache of the concat-based cached step: each layer's self-attention
    keys/values of the positions decoded so far, as tensors that every step
    concatenates with its own, and ``real_keys`` [rows, positions]."""

    cross: list = field(default_factory=list)
    self_kv: list = field(default_factory=list)
    real_keys: np.ndarray = field(default_factory=lambda: np.zeros((1, 0), dtype=bool))

    @property
    def length(self) -> int:
        return self.real_keys.shape[1]

    def reorder(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        if np.array_equal(rows, np.arange(len(self.real_keys))):
            return

        def keep(pairs):
            return [(ad.constant(k.data[rows], dtype=k.dtype), ad.constant(v.data[rows], dtype=v.dtype))
                    for k, v in pairs]

        self.cross = keep(self.cross)
        self.self_kv = keep(self.self_kv)
        self.real_keys = self.real_keys[rows]


def concat_decoder_step(prefix_ids, knowledge, params, config, cache: ConcatCache) -> ad.Tensor:
    """The cached decoder call that ``kgrg``'s preallocated buffers replaced:
    the same ops as the uncached call, with the past keys/values
    concatenated in front of the new ones at every step. Records the graph
    when one is recorded, so its arithmetic is that of the recorded ops."""
    ids = np.asarray(prefix_ids, dtype=np.int64)
    t = ids.shape[1]
    offset = cache.length
    if offset + t > config.max_tokens + 1:
        raise DimensionError(f"prefix length {offset + t} exceeds max context {config.max_tokens + 1}")
    x = ad.gather_rows(params["stage2.dec.embed"], ids)
    pos = ad.narrow(params["stage2.dec.pos"], 0, offset, t)
    x = x + ad.reshape(pos, (1, t, x.shape[-1]))

    real_keys = np.concatenate([cache.real_keys, ids != PAD_ID], axis=1) if offset else ids != PAD_ID
    self_mask = np.tri(t, offset + t, k=offset, dtype=bool) & real_keys[:, None, :]  # causal, real keys
    diag = np.arange(t)
    self_mask[:, diag, offset + diag] = True  # every query may at least attend to itself

    if not cache.cross:
        memory = params["stage2.dec.memory"]
        mem_rows = ad.broadcast_to(memory, (knowledge.shape[0],) + memory.shape)
        kv_source = ad.concat([knowledge, mem_rows], axis=1)
        cache.cross = [(ad.matmul(kv_source, params[f"stage2.dec.l{layer}.cross.wk"]),
                        ad.matmul(kv_source, params[f"stage2.dec.l{layer}.cross.wv"]))
                       for layer in range(config.dec_layers)]
    self_kv = []
    for layer in range(config.dec_layers):
        prefix = f"stage2.dec.l{layer}"
        q = ad.matmul(x, params[f"{prefix}.self.wq"])
        k = ad.matmul(x, params[f"{prefix}.self.wk"])
        v = ad.matmul(x, params[f"{prefix}.self.wv"])
        if offset:
            past_k, past_v = cache.self_kv[layer]
            k = ad.concat([past_k, k], axis=1)
            v = ad.concat([past_v, v], axis=1)
        self_kv.append((k, v))
        attended = ad.scaled_dot_attention(q, k, v, key_mask=self_mask)
        x = ad.add_layer_norm(x, ad.matmul(attended, params[f"{prefix}.self.wo"]),
                              params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
        cq = ad.matmul(x, params[f"{prefix}.cross.wq"])
        ck, cv = cache.cross[layer]
        cross = ad.scaled_dot_attention(cq, ck, cv)
        x = ad.add_layer_norm(x, ad.matmul(cross, params[f"{prefix}.cross.wo"]),
                              params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
        x = ad.add_layer_norm(x, _mlp(x, params, f"{prefix}.ffn"), params[f"{prefix}.ln3.g"], params[f"{prefix}.ln3.b"])
    cache.self_kv = self_kv
    cache.real_keys = real_keys
    return ad.affine(x, params["stage2.dec.out.w"], params["stage2.dec.out.b"])


def concat_generate_batch(studies, params, vocab, config, mode="greedy", beam_width=1) -> list:
    """``kgrg.generate_batch`` as it ran on ``concat_decoder_step``, with
    NumPy logprob scalars and a reorder at every step; records the graph."""
    if mode == "greedy":
        beam_width = 1
    knowledge = stage2_knowledge(Batch(studies), params, vocab, config)
    cache = ConcatCache()
    beams = [[((), (), 0.0, False, i)] for i in range(len(studies))]
    for _ in range(config.max_tokens):
        live = [h for hyps in beams for h in hyps if not h[3]]
        tokens = np.asarray([[h[0][-1] if h[0] else BOS_ID] for h in live], dtype=np.int64)
        logits = concat_decoder_step(tokens, knowledge, params, config, cache)
        logp_rows = ad.log_softmax_rows(logits).data[:, -1].astype(np.float64)
        top = np.argsort(-logp_rows, axis=1, kind="stable")[:, :beam_width]
        row = 0
        for s, hyps in enumerate(beams):
            candidates = []
            for hyp in hyps:
                ids, lps, score, finished, _ = hyp
                if finished:
                    candidates.append(hyp)
                    continue
                logp = logp_rows[row]
                for tok in top[row].tolist():
                    if tok == EOS_ID:
                        candidates.append((ids, lps, score + logp[tok], True, row))
                    else:
                        candidates.append((ids + (tok,), lps + (logp[tok],), score + logp[tok], False, row))
                row += 1
            candidates.sort(key=lambda c: (-c[2], c[0]))
            beams[s] = candidates[:beam_width]
        live_rows = [h[4] for hyps in beams for h in hyps if not h[3]]
        if not live_rows:
            break
        cache.reorder(live_rows)
    return [GenerationOutput(token_ids=list(best[0]), token_logprobs=[float(v) for v in best[1]],
                             stopped_by="eos" if best[3] else "max_len")
            for best in (hyps[0] for hyps in beams)]
