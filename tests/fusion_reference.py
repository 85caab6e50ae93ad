"""Reference per-study loops for fusion, token alignment and the bridge.

These are the loops that ``mvcl.multi_view_fuse``,
``mvcl.token_alignment_loss``, ``kgrg.encode_indications`` and
``kgrg.bridge_forward`` replaced with padded tensors under key masks; the
tests require both to agree. Each study is cut out of its batch with
``narrow`` and handled on its own.
"""

import numpy as np

from mvreport import autodiff as ad
from mvreport.encoders import encode_text
from mvreport.text import tokenize


def reference_multi_view_fuse(vis, batch, params):
    """[B, p, d1]: each anchor attends over its own auxiliary views."""
    gain, bias = params["stage1.fuse.ln.g"], params["stage1.fuse.ln.b"]
    fused_rows = []
    for study, offset in zip(batch.studies, batch.view_offsets):
        m = study.num_views
        study_feats = ad.narrow(vis.per_view, 0, offset, m)  # [m, p, d1]
        anchor = ad.narrow(study_feats, 0, study.anchor_index, 1)  # [1, p, d1]
        if m == 1:
            fused_rows.append(anchor)
            continue
        aux_parts = []
        if study.anchor_index > 0:
            aux_parts.append(ad.narrow(study_feats, 0, 0, study.anchor_index))
        if study.anchor_index < m - 1:
            aux_parts.append(ad.narrow(study_feats, 0, study.anchor_index + 1, m - 1 - study.anchor_index))
        aux = ad.concat(aux_parts, axis=0) if len(aux_parts) > 1 else aux_parts[0]  # [m-1, p, d1]
        queries = ad.transpose(anchor, (1, 0, 2))        # [p, 1, d1]
        keys = ad.transpose(aux, (1, 0, 2))              # [p, m-1, d1]
        attended = ad.scaled_dot_attention(queries, keys, keys)  # [p, 1, d1]
        attended = ad.transpose(attended, (1, 0, 2))     # [1, p, d1]
        fused_rows.append(ad.layer_norm(anchor + attended, gain, bias))
    return ad.concat(fused_rows, axis=0)


def reference_token_alignment_loss(pp, tau2):
    """InfoNCE per unmasked token, one study at a time."""
    b = pp.txt.shape[0]
    per_study_losses = []
    total_tokens = 0
    for i in range(b):
        unmasked = np.flatnonzero(pp.txt_mask[i])
        n_tok = len(unmasked)
        if n_tok < 2:
            continue
        txt_i = ad.reshape(ad.narrow(pp.txt, 0, i, 1), pp.txt.shape[1:])  # [L, d]
        if unmasked[-1] == n_tok - 1 and unmasked[0] == 0:
            tokens = ad.narrow(txt_i, 0, 0, n_tok)
        else:
            tokens = ad.gather_rows(txt_i, unmasked)
        vis_i = ad.reshape(ad.narrow(pp.vis, 0, i, 1), pp.vis.shape[1:])  # [p, d]
        contexts = ad.scaled_dot_attention(tokens, vis_i, vis_i)          # [n_tok, d]
        t_norm = ad.l2_normalize(tokens)
        c_norm = ad.l2_normalize(contexts)
        logits = ad.matmul(t_norm, ad.swap_last2(c_norm))  # [n_tok, n_tok]
        logp = ad.log_softmax_rows(logits, temperature=tau2)
        diag = ad.take_last(logp, np.arange(n_tok))
        per_study_losses.append(-ad.tsum(diag))
        total_tokens += n_tok
    if not per_study_losses:
        return ad.constant(0.0)
    total = per_study_losses[0]
    for extra in per_study_losses[1:]:
        total = total + extra
    return total * (1.0 / total_tokens)


def reference_encode_indications(batch, params, vocab, config):
    """Per-study [L_i, d2] indication token features, None where absent."""
    present = [i for i, s in enumerate(batch.studies) if s.indication]
    if not present:
        return [None] * batch.B
    token_lists = [tokenize(batch.studies[i].indication) for i in present]
    feats = encode_text(token_lists, params, vocab, config)
    out = [None] * batch.B
    for row, study_index in enumerate(present):
        n_tok = int(feats.pad_mask[row].sum())
        tokens = ad.reshape(ad.narrow(feats.tokens, 0, row, 1), feats.tokens.shape[1:])
        out[study_index] = ad.narrow(tokens, 0, 0, n_tok)
    return out


def reference_bridge_forward(fused_vis, indication_feats, params, config):
    """Each study attends over [bridge ; its own indication tokens]."""
    b = fused_vis.shape[0]
    bridge = params["stage2.bridge.tokens"]
    x = fused_vis
    for block in range(config.bridge_blocks):
        gain = params[f"stage2.bridge.b{block}.ln.g"]
        bias = params[f"stage2.bridge.b{block}.ln.b"]
        rows = []
        for i in range(b):
            study_x = ad.narrow(x, 0, i, 1)  # [1, p, dm]
            kv = bridge if indication_feats[i] is None else ad.concat([bridge, indication_feats[i]], axis=0)
            queries = ad.reshape(study_x, study_x.shape[1:])
            attended = ad.scaled_dot_attention(queries, kv, kv)  # [p, dm]
            out = ad.layer_norm(queries + attended, gain, bias)
            rows.append(ad.reshape(out, (1,) + out.shape))
        x = ad.concat(rows, axis=0)
    return x
