"""Stage-2 knowledge-guided generation: transition bridge over optional
indications, a memory-augmented decoder, the LM loss, and decoding."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .data import Batch, stack_views
from .encoders import ParamInit, TextFeatures, _mlp, encode_text, encode_views
from .errors import DimensionError, NumericalAbort
from .mvcl import multi_view_fuse
from .rng import Rng
from .text import BOS_ID, EOS_ID, PAD_ID, tokenize


@dataclass
class GenerationOutput:
    token_ids: list
    token_logprobs: list
    stopped_by: str  # "eos" | "max_len"


def init_stage2_params(config: RunConfig, vocab_size: int, rng: Rng) -> dict:
    """Fresh Stage-2 parameters: bridge, decoder, memory, output head.

    Bridge tokens start at zero so the absent-indication path begins as a
    near-identity (attention over zero values adds nothing).
    """
    init = ParamInit(rng)
    dm = config.d1
    params = {}
    params["stage2.bridge.tokens"] = init.zeros((config.n_b, dm))
    for block in range(config.bridge_blocks):
        init.layer_norm(params, f"stage2.bridge.b{block}.ln", dm)

    params["stage2.dec.embed"] = init.normal((vocab_size, dm), std=0.02)
    params["stage2.dec.pos"] = init.normal((config.max_tokens + 2, dm), std=0.02)
    params["stage2.dec.memory"] = init.normal((config.memory_rows, dm), std=0.02)
    for layer in range(config.dec_layers):
        prefix = f"stage2.dec.l{layer}"
        for block in ("self", "cross"):
            for name in ("wq", "wk", "wv", "wo"):
                params[f"{prefix}.{block}.{name}"] = init.normal((dm, dm), std=1.0 / np.sqrt(dm))
        init.layer_norm(params, f"{prefix}.ln1", dm)
        init.layer_norm(params, f"{prefix}.ln2", dm)
        init.mlp(params, f"{prefix}.ffn", dm, config.ffn_mult * dm, dm)
        init.layer_norm(params, f"{prefix}.ln3", dm)
    params["stage2.dec.out.w"] = init.normal((dm, vocab_size), std=1.0 / np.sqrt(dm))
    params["stage2.dec.out.b"] = init.zeros((vocab_size,))
    return params


def split_param_groups(params: dict):
    """(stage1-initialized, fresh stage-2) parameter groups by name prefix."""
    stage1 = {k: v for k, v in params.items() if k.startswith("stage1.")}
    stage2 = {k: v for k, v in params.items() if k.startswith("stage2.")}
    return stage1, stage2


def encode_indications(batch: Batch, params: dict, vocab, config: RunConfig) -> TextFeatures | None:
    """Indication token features [B, L, d2], padded, or None when no study
    has an indication.

    Indications run through the Stage-1 text encoder. ``pad_mask`` is True
    at a study's real indication tokens; a study without an indication has
    an all-False row.
    """
    present = np.asarray([bool(s.indication) for s in batch.studies])
    if not present.any():
        return None
    token_lists = [tokenize(s.indication) for s in batch.studies if s.indication]
    feats = encode_text(token_lists, params, vocab, config)
    # absent studies borrow the first encoded row; their mask row is all False
    rows = np.maximum(np.cumsum(present) - 1, 0)
    pad_mask = feats.pad_mask[rows] & present[:, None]
    return TextFeatures(tokens=ad.gather_rows(feats.tokens, rows), pad_mask=pad_mask,
                        ids=np.where(pad_mask, feats.ids[rows], PAD_ID))


def bridge_forward(fused_vis: Tensor, indications: TextFeatures | None, params: dict, config: RunConfig) -> Tensor:
    """Condition fused visual tokens on [bridge ; indication] keys/values.

    Keys are the n_b bridge tokens followed by the study's indication
    tokens, padded to [B, n_b + L, dm] under a key mask; the bridge tokens
    are never masked. The output shape always equals the input shape,
    whether or not an indication is present.
    """
    bridge = params["stage2.bridge.tokens"]
    kv, key_mask = bridge, None
    if indications is not None:
        b = fused_vis.shape[0]
        kv = ad.concat([ad.broadcast_to(bridge, (b,) + bridge.shape), indications.tokens], axis=1)
        key_mask = np.concatenate([np.ones((b, bridge.shape[0]), dtype=bool), indications.pad_mask], axis=1)[:, None, :]
    x = fused_vis
    for block in range(config.bridge_blocks):
        attended = ad.scaled_dot_attention(x, kv, kv, key_mask=key_mask)  # [B, p, dm]
        x = ad.layer_norm(x + attended, params[f"stage2.bridge.b{block}.ln.g"],
                          params[f"stage2.bridge.b{block}.ln.b"])
    return x


def stage2_knowledge(batch: Batch, params: dict, vocab, config: RunConfig) -> Tensor:
    """Fused, bridge-conditioned visual tokens [B, p, dm] for the decoder."""
    vis = encode_views(stack_views(batch), params, config)
    fused = multi_view_fuse(vis, batch, params)
    ind_feats = encode_indications(batch, params, vocab, config)
    return bridge_forward(fused, ind_feats, params, config)


@dataclass
class DecoderCache:
    """Incremental decoding state, one row per decoded sequence.

    ``cross`` holds each layer's cross-attention keys/values over
    [knowledge ; memory], projected on the first call. ``self_kv`` holds
    each layer's self-attention keys/values of the positions decoded so
    far, and ``real_keys`` [rows, positions] which of them are not PAD.
    """

    cross: list = field(default_factory=list)
    self_kv: list = field(default_factory=list)
    real_keys: np.ndarray = field(default_factory=lambda: np.zeros((1, 0), dtype=bool))

    @property
    def length(self) -> int:
        return self.real_keys.shape[1]

    def reorder(self, rows) -> None:
        """Keep the given rows of the cache, in order (a row may repeat):
        cross-attention and self-attention keys/values and the PAD mask
        alike. The result records no graph."""
        rows = np.asarray(rows, dtype=np.int64)
        if np.array_equal(rows, np.arange(len(self.real_keys))):
            return

        def keep(pairs):
            return [(ad.constant(k.data[rows], dtype=k.dtype), ad.constant(v.data[rows], dtype=v.dtype))
                    for k, v in pairs]

        self.cross = keep(self.cross)
        self.self_kv = keep(self.self_kv)
        self.real_keys = self.real_keys[rows]


def decoder_forward(prefix_ids: np.ndarray, knowledge: Tensor, params: dict, config: RunConfig,
                    cache: DecoderCache | None = None) -> Tensor:
    """Causal decoder logits [B, T, vocab] for the positions in ``prefix_ids``.

    Without ``cache``, ``prefix_ids`` is the whole prefix. With ``cache``,
    it holds only the new positions: they follow the cached ones, attend
    to their keys/values under the cached PAD mask, and are appended to
    the cache. Cross-attention keys/values are the knowledge tokens
    concatenated with the learnable memory rows, projected once per cache.
    """
    ids = np.asarray(prefix_ids, dtype=np.int64)
    t = ids.shape[1]
    if cache is None:
        cache = DecoderCache()
    offset = cache.length
    if offset + t > config.max_tokens + 1:
        raise DimensionError(f"prefix length {offset + t} exceeds max context {config.max_tokens + 1}")
    x = ad.gather_rows(params["stage2.dec.embed"], ids)
    pos = ad.narrow(params["stage2.dec.pos"], 0, offset, t)
    x = x + ad.reshape(pos, (1, t, x.shape[-1]))

    real_keys = np.concatenate([cache.real_keys, ids != PAD_ID], axis=1) if offset else ids != PAD_ID
    self_mask = np.tri(t, offset + t, k=offset, dtype=bool) & real_keys[:, None, :]  # causal, real keys
    # every query may at least attend to itself
    diag = np.arange(t)
    self_mask[:, diag, offset + diag] = True

    if not cache.cross:
        memory = params["stage2.dec.memory"]
        mem_rows = ad.broadcast_to(memory, (knowledge.shape[0],) + memory.shape)  # [B, R, dm]
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
        x = ad.layer_norm(x + ad.matmul(attended, params[f"{prefix}.self.wo"]),
                          params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
        cq = ad.matmul(x, params[f"{prefix}.cross.wq"])
        ck, cv = cache.cross[layer]
        cross = ad.scaled_dot_attention(cq, ck, cv)
        x = ad.layer_norm(x + ad.matmul(cross, params[f"{prefix}.cross.wo"]),
                          params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
        x = ad.layer_norm(x + _mlp(x, params, f"{prefix}.ffn"), params[f"{prefix}.ln3.g"], params[f"{prefix}.ln3.b"])
    cache.self_kv = self_kv
    cache.real_keys = real_keys
    return ad.affine(x, params["stage2.dec.out.w"], params["stage2.dec.out.b"])


def report_target_ids(batch: Batch, vocab, config: RunConfig):
    """Teacher-forcing inputs/targets/mask for the batch's reports."""
    sequences = [vocab.encode(tokenize(s.report), max_len=config.max_tokens - 1) for s in batch.studies]
    max_len = max(len(seq) for seq in sequences) + 1  # room for EOS/BOS shift
    inputs = np.full((batch.B, max_len), PAD_ID, dtype=np.int64)
    targets = np.full((batch.B, max_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((batch.B, max_len), dtype=np.float32)
    for i, seq in enumerate(sequences):
        inputs[i, 0] = BOS_ID
        inputs[i, 1 : 1 + len(seq)] = seq
        targets[i, : len(seq)] = seq
        targets[i, len(seq)] = EOS_ID
        mask[i, : len(seq) + 1] = 1.0
    return inputs, targets, mask


def lm_loss_from_ids(inputs, targets, mask, knowledge: Tensor, params: dict, config: RunConfig) -> Tensor:
    """Mean over studies of the per-study summed token NLL."""
    logits = decoder_forward(inputs, knowledge, params, config)
    logp = ad.log_softmax_rows(logits)
    token_logp = ad.take_last(logp, targets)  # [B, T]
    masked = token_logp * ad.constant(mask)
    per_study = ad.tsum(masked, axis=1)  # [B]
    return -ad.tmean(per_study)


def lm_loss(batch: Batch, params: dict, vocab, config: RunConfig) -> Tensor:
    knowledge = stage2_knowledge(batch, params, vocab, config)
    inputs, targets, mask = report_target_ids(batch, vocab, config)
    return lm_loss_from_ids(inputs, targets, mask, knowledge, params, config)


def finetune_step(batch: Batch, params: dict, vocab, optimizer, config: RunConfig) -> float:
    """One forward/backward/AdamW update on the LM objective."""
    loss = lm_loss(batch, params, vocab, config)
    value = loss.item()
    if not np.isfinite(value):
        raise NumericalAbort("non-finite Stage-2 LM loss", dump={"lm": value})
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    optimizer.zero_grad()
    return value


def generate(study, params: dict, vocab, config: RunConfig, mode: str = "greedy", beam_width: int = 1) -> GenerationOutput:
    """Autoregressive decoding for one study; stops at EOS or max_tokens.

    Greedy picks the argmax each step; beam keeps ``beam_width``
    hypotheses ranked by summed logprob, ties resolved toward lower
    token ids so beam(1) reproduces greedy exactly. Each step decodes
    the newest token of every live hypothesis as one row of a single
    cached decoder call, then reorders the cache rows to the surviving
    hypotheses' parents. No graph is recorded.
    """
    return generate_batch([study], params, vocab, config, mode=mode, beam_width=beam_width)[0]


def generate_batch(studies, params: dict, vocab, config: RunConfig, mode: str = "greedy",
                   beam_width: int = 1) -> list[GenerationOutput]:
    """``generate`` for several studies at once, one output per study, in order.

    The live hypotheses of all studies are the rows of one cached decoder
    call per step; each study ranks its own candidates, so its output does
    not depend on the studies that share its batch. Rows of finished
    hypotheses drop out of the cache.
    """
    if mode == "greedy":
        beam_width = 1
    elif mode != "beam":
        raise ValueError(f"unknown decoding mode: {mode}")
    if beam_width < 1:
        raise ValueError(f"beam width must be >= 1, got {beam_width}")

    with ad.no_grad():
        knowledge = stage2_knowledge(Batch(studies), params, vocab, config)
        cache = DecoderCache()
        # per study, its hypotheses: (ids-after-BOS tuple, logprobs tuple, score,
        #                              finished, cache row of its parent in the last step)
        beams = [[((), (), 0.0, False, i)] for i in range(len(studies))]
        for _ in range(config.max_tokens):
            live = [h for hyps in beams for h in hyps if not h[3]]
            tokens = np.asarray([[h[0][-1] if h[0] else BOS_ID] for h in live], dtype=np.int64)
            logits = decoder_forward(tokens, knowledge, params, config, cache=cache)
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


def teacher_forced_logprobs(study, token_ids, params: dict, vocab, config: RunConfig) -> np.ndarray:
    """Per-token logprobs of a given sequence under the current model."""
    with ad.no_grad():
        knowledge = stage2_knowledge(Batch([study]), params, vocab, config)
        inputs = np.asarray([[BOS_ID, *token_ids]], dtype=np.int64)
        logits = decoder_forward(inputs, knowledge, params, config)
        logp = ad.log_softmax_rows(logits).data[0]
    return np.array([logp[t, tok] for t, tok in enumerate(token_ids)], dtype=np.float64)
