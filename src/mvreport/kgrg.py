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
from .errors import DimensionError, GraphError, NumericalAbort
from .mvcl import multi_view_fuse
from .rng import Rng
from .text import BOS_ID, EOS_ID, PAD_ID, pad_ids, tokenize


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
    """Indication token features [B, L, d1], padded, or None when no study
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
        x = ad.add_layer_norm(x, attended, params[f"stage2.bridge.b{block}.ln.g"],
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
    """Incremental decoding state, one row per decoded sequence; inference only.

    ``weights`` holds each layer's weight arrays by their names after
    ``stage2.dec.l{layer}.``, looked up once, so a cache belongs to one
    parameter dict. ``cross`` holds each layer's cross-attention key/value
    arrays over [knowledge ; memory], and ``self_kv`` each layer's
    self-attention key and value buffers [rows, max_tokens + 1, dm];
    ``real_keys`` [rows, max_tokens + 1] marks which positions are not
    PAD. The first call fills ``weights`` and ``cross`` and allocates the
    buffers; every call writes its positions into them in place, so the
    first ``length`` positions are filled. The buffers are plain arrays,
    which keep no gradient path through past positions: ``decoder_forward`` with a cache runs only under
    ``ad.no_grad()``, and raises ``GraphError`` while a graph is recorded.
    """

    weights: list = field(default_factory=list)
    cross: list = field(default_factory=list)
    self_kv: list = field(default_factory=list)
    real_keys: np.ndarray = field(default_factory=lambda: np.zeros((1, 0), dtype=bool))
    length: int = 0

    def reorder(self, rows) -> None:
        """Keep the given rows of the cache, in order (a row may repeat):
        cross-attention and self-attention keys/values and the PAD mask
        alike. The self-attention buffers are new ones, into which only
        the filled positions are copied; the rows are copied even when
        they are all the rows in order, so a caller skips that reorder."""
        rows = np.asarray(rows, dtype=np.int64)
        filled = self.length

        def keep(buf):
            out = np.empty((len(rows),) + buf.shape[1:], dtype=buf.dtype)
            out[:, :filled] = buf[rows, :filled]
            return out

        self.cross = [(k[rows], v[rows]) for k, v in self.cross]
        self.self_kv = [(keep(k), keep(v)) for k, v in self.self_kv]
        self.real_keys = keep(self.real_keys)


def _self_attention_mask(real_keys: np.ndarray, offset: int, t: int) -> np.ndarray:
    """[rows, t, offset + t]: query i attends to the keys up to its own
    position offset + i that are not PAD, and always to itself."""
    if t == 1:  # the one query follows every key
        mask = real_keys[:, None, :offset + 1].copy()
        mask[:, :, offset] = True
        return mask
    mask = np.tri(t, offset + t, k=offset, dtype=bool) & real_keys[:, None, :offset + t]
    diag = np.arange(t)
    mask[:, diag, offset + diag] = True
    return mask


def _cached_decoder_step(ids: np.ndarray, knowledge: Tensor, params: dict, config: RunConfig,
                         cache: DecoderCache) -> np.ndarray:
    """``decoder_forward``'s layers on arrays for the positions ``ids``
    after the cached ones: the arithmetic of the ops the uncached call
    records, op by op, with no nodes. Updates ``cache``."""
    t = ids.shape[1]
    offset = cache.length
    length = offset + t
    x = ad.gather_rows(params["stage2.dec.embed"], ids).data + params["stage2.dec.pos"].data[offset:length]
    if not offset:  # the first call: look up the weights, project the cross keys/values, allocate the buffers
        memory = params["stage2.dec.memory"].data
        kv_source = np.concatenate([knowledge.data, np.broadcast_to(memory, (len(knowledge.data),) + memory.shape)],
                                   axis=1)
        shape = (len(ids), config.max_tokens + 1, x.shape[-1])
        cache.weights = [{name[len(prefix):]: t.data for name, t in params.items() if name.startswith(prefix)}
                         for prefix in (f"stage2.dec.l{layer}." for layer in range(config.dec_layers))]
        cache.cross = [(kv_source @ params[f"stage2.dec.l{layer}.cross.wk"].data,
                        kv_source @ params[f"stage2.dec.l{layer}.cross.wv"].data) for layer in range(config.dec_layers)]
        cache.self_kv = [(np.empty(shape, dtype=x.dtype), np.empty(shape, dtype=x.dtype))
                         for _ in range(config.dec_layers)]
        cache.real_keys = np.zeros(shape[:2], dtype=bool)
    cache.real_keys[:, offset:length] = ids != PAD_ID
    self_mask = _self_attention_mask(cache.real_keys, offset, t)
    for w, (ck, cv), (k_buf, v_buf) in zip(cache.weights, cache.cross, cache.self_kv):
        q = x @ w["self.wq"]
        k_buf[:, offset:length] = x @ w["self.wk"]
        v_buf[:, offset:length] = x @ w["self.wv"]
        attended = ad.attention_kernel(q, k_buf[:, :length], v_buf[:, :length], self_mask)
        x = ad.layer_norm_kernel(x + attended @ w["self.wo"], w["ln1.g"], w["ln1.b"])
        cross = ad.attention_kernel(x @ w["cross.wq"], ck, cv, None)
        x = ad.layer_norm_kernel(x + cross @ w["cross.wo"], w["ln2.g"], w["ln2.b"])
        hidden = x @ w["ffn.w1"]
        hidden += w["ffn.b1"]
        np.maximum(hidden, 0, out=hidden)
        ffn = hidden @ w["ffn.w2"]
        ffn += w["ffn.b2"]
        x = ad.layer_norm_kernel(x + ffn, w["ln3.g"], w["ln3.b"])
    cache.length = length
    logits = x @ params["stage2.dec.out.w"].data
    logits += params["stage2.dec.out.b"].data
    return logits


def decoder_forward(prefix_ids: np.ndarray, knowledge: Tensor, params: dict, config: RunConfig,
                    cache: DecoderCache | None = None) -> Tensor:
    """Causal decoder logits [B, T, vocab] for the positions in ``prefix_ids``.

    Without ``cache``, ``prefix_ids`` is the whole prefix. With ``cache``,
    it holds only the new positions: they follow the cached ones, attend
    to their keys/values under the cached PAD mask, and are written into
    the cache; a cached call records no graph and raises ``GraphError``
    outside ``ad.no_grad()`` (see ``DecoderCache``). Cross-attention
    keys/values are the knowledge tokens concatenated with the learnable
    memory rows, projected once per cache.
    """
    ids = np.asarray(prefix_ids, dtype=np.int64)
    t = ids.shape[1]
    offset = 0 if cache is None else cache.length
    if offset + t > config.max_tokens + 1:
        raise DimensionError(f"prefix length {offset + t} exceeds max context {config.max_tokens + 1}")
    if cache is not None:
        if ad.GRAD_ENABLED:
            raise GraphError("cached decoding records no graph: call decoder_forward with a cache under no_grad()")
        return Tensor(_cached_decoder_step(ids, knowledge, params, config, cache))
    x = ad.gather_rows(params["stage2.dec.embed"], ids)
    x = ad.add(x, ad.narrow(params["stage2.dec.pos"], 0, 0, t))  # [B, t, dm] + [t, dm]
    self_mask = _self_attention_mask(ids != PAD_ID, 0, t)

    memory = params["stage2.dec.memory"]
    mem_rows = ad.broadcast_to(memory, (knowledge.shape[0],) + memory.shape)  # [B, R, dm]
    kv_source = ad.concat([knowledge, mem_rows], axis=1)
    for layer in range(config.dec_layers):
        prefix = f"stage2.dec.l{layer}"
        q = ad.matmul(x, params[f"{prefix}.self.wq"])
        k = ad.matmul(x, params[f"{prefix}.self.wk"])
        v = ad.matmul(x, params[f"{prefix}.self.wv"])
        attended = ad.scaled_dot_attention(q, k, v, key_mask=self_mask)
        x = ad.add_layer_norm(x, ad.matmul(attended, params[f"{prefix}.self.wo"]),
                              params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
        cq = ad.matmul(x, params[f"{prefix}.cross.wq"])
        ck = ad.matmul(kv_source, params[f"{prefix}.cross.wk"])
        cv = ad.matmul(kv_source, params[f"{prefix}.cross.wv"])
        cross = ad.scaled_dot_attention(cq, ck, cv)
        x = ad.add_layer_norm(x, ad.matmul(cross, params[f"{prefix}.cross.wo"]),
                              params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
        x = ad.add_layer_norm(x, _mlp(x, params, f"{prefix}.ffn"), params[f"{prefix}.ln3.g"], params[f"{prefix}.ln3.b"])
    return ad.affine(x, params["stage2.dec.out.w"], params["stage2.dec.out.b"])


def report_target_ids(batch: Batch, vocab, config: RunConfig):
    """Teacher-forcing inputs/targets/mask for the batch's reports."""
    sequences = [vocab.encode(tokenize(s.report), max_len=config.max_tokens - 1) for s in batch.studies]
    inputs = pad_ids([[BOS_ID, *seq] for seq in sequences])
    targets = pad_ids([[*seq, EOS_ID] for seq in sequences])
    # no report token is PAD_ID: tokenize never yields "<pad>"
    return inputs, targets, (targets != PAD_ID).astype(np.float32)


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
            # each row's best tokens and its logprobs, as Python ints and floats
            top_ids = (-logp_rows).argsort(axis=1, kind="stable")[:, :beam_width].tolist()
            logps = logp_rows.tolist()
            row = 0
            for s, hyps in enumerate(beams):
                candidates = []
                for hyp in hyps:
                    ids, lps, score, finished, _ = hyp
                    if finished:
                        candidates.append(hyp)
                        continue
                    logp = logps[row]
                    for tok in top_ids[row]:
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
            if live_rows != list(range(row)):  # row counts the rows decoded this step
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
