"""Stage-1 objective: multi-positive contrastive loss across views,
multi-view fusion, and instance-/token-wise cross-modal alignment."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .data import Batch, stack_views
from .encoders import ProjectedPair, VisualFeatures, encode_text, encode_views, per_view_globals, project_and_pool
from .errors import NumericalAbort, ParameterError

log = logging.getLogger(__name__)


@dataclass
class MpcDistributions:
    q: Tensor                 # [K, K-1] row-stochastic, differentiable
    p: np.ndarray             # [K, K-1] row-stochastic ground truth
    anchor_index_map: list    # row -> (study_index, view_index)


@dataclass
class LossBreakdown:
    mpc: float
    inst: float
    tok: float
    total: float


def mpc_distributions(v_globals: Tensor, batch: Batch, tau1: float) -> MpcDistributions | None:
    """Contrastive (q) and ground-truth (p) distributions over the K views
    of multi-view studies. Returns None when K < 2 (mpc not applicable).

    ``v_globals`` holds one l2-normalized global vector per view in study
    order ([M_imgs, d]).
    """
    if tau1 <= 0:
        raise ParameterError(f"tau1 must be positive, got {tau1}")
    study_of_view = np.repeat(np.arange(batch.B), batch.view_counts)
    view_in_study = np.arange(batch.M_imgs) - batch.view_offsets[study_of_view]
    keep_rows = np.flatnonzero(batch.view_counts[study_of_view] > 1)
    k = len(keep_rows)
    if k < 2:
        return None

    pool = ad.gather_rows(v_globals, keep_rows)
    sims = ad.matmul(pool, ad.swap_last2(pool))  # [K, K]
    # flat [K*K] index of each row's off-diagonal entries, in column order: [K, K-1]
    off_diag = np.flatnonzero(~np.eye(k, dtype=bool)).reshape(k, k - 1)
    q = ad.softmax_rows(ad.gather_rows(ad.reshape(sims, (k * k,)), off_diag), temperature=tau1)

    study_ids = study_of_view[keep_rows]
    same = (study_ids[:, None] == study_ids[None, :]).astype(np.float32)
    off_same = same.reshape(-1)[off_diag]
    p = off_same / off_same.sum(axis=1, keepdims=True)
    index_map = list(zip(study_ids.tolist(), view_in_study[keep_rows].tolist()))
    return MpcDistributions(q=q, p=p, anchor_index_map=index_map)


def mpc_loss(dists: MpcDistributions | None) -> Tensor:
    """Cross entropy between p and q, averaged over the K rows; zero when
    mpc is not applicable."""
    if dists is None:
        return ad.constant(0.0)
    return ad.cross_entropy_rows(ad.constant(dists.p), dists.q)


def multi_view_fuse(vis: VisualFeatures, batch: Batch, params: dict) -> Tensor:
    """Fuse each study's views into anchor-shaped features [B, p, d1].

    Anchor positions query the auxiliary views' features at the same
    spatial position (cross-attention over the view axis), followed by a
    skip connection and layer normalization. Single-view studies bypass
    fusion and pass their anchor features through unchanged.

    The multi-view studies attend at once: their auxiliary views are
    padded to the largest count A under a [B_multi, A] key mask.
    """
    gain, bias = params["stage1.fuse.ln.g"], params["stage1.fuse.ln.b"]
    offsets, counts = batch.view_offsets, batch.view_counts
    anchors = np.asarray([study.anchor_index for study in batch.studies])
    rows = offsets + anchors  # the anchor view's row of each study
    multi = np.flatnonzero(counts > 1)
    if len(multi) == 0:
        return ad.gather_rows(vis.per_view, rows)
    m_offsets, m_counts, m_anchors = offsets[multi], counts[multi], anchors[multi]
    # auxiliary slot j holds view j before the anchor and view j + 1 from
    # it on; padded slots repeat the anchor row and are masked out
    slots = np.arange(m_counts.max() - 1)[None, :]
    valid = slots < (m_counts - 1)[:, None]  # [B_multi, A]
    aux_rows = m_offsets[:, None] + np.where(valid, slots + (slots >= m_anchors[:, None]), m_anchors[:, None])
    anchor = ad.gather_rows(vis.per_view, rows[multi])  # [B_multi, p, d1]
    aux = ad.gather_rows(vis.per_view, aux_rows)        # [B_multi, A, p, d1]
    b, p, d1 = anchor.shape
    queries = ad.reshape(anchor, (b, p, 1, d1))
    keys = ad.transpose(aux, (0, 2, 1, 3))  # [B_multi, p, A, d1]
    attended = ad.scaled_dot_attention(queries, keys, keys, key_mask=valid[:, None, None, :])  # [B_multi, p, 1, d1]
    fused = ad.add_layer_norm(anchor, ad.reshape(attended, (b, p, d1)), gain, bias)
    # where(multi-view, fused, anchor) as a selection of rows, so that
    # single-view studies keep their anchor features exactly
    rows[multi] = vis.per_view.shape[0] + np.arange(b)
    return ad.gather_rows(ad.concat([vis.per_view, fused], axis=0), rows)


def global_ground_truth(reports) -> np.ndarray:
    """p^g rows: uniform over studies whose reports are string-identical."""
    _, report_ids = np.unique(np.asarray(reports), return_inverse=True)
    match = (report_ids[:, None] == report_ids[None, :]).astype(np.float32)
    return match / match.sum(axis=1, keepdims=True)


@dataclass
class AlignmentDistributions:
    q_v2t: Tensor
    q_t2v: Tensor
    p_g: np.ndarray


def instance_alignment_loss(pp: ProjectedPair, reports, tau2: float):
    """Bidirectional instance-level alignment between global visual and
    textual embeddings (returns the loss and the distributions)."""
    if tau2 <= 0:
        raise ParameterError(f"tau2 must be positive, got {tau2}")
    sims = ad.matmul(pp.vis_global, ad.swap_last2(pp.txt_global))  # [B, B]
    q_v2t = ad.softmax_rows(sims, temperature=tau2)
    q_t2v = ad.softmax_rows(ad.swap_last2(sims), temperature=tau2)
    p_g = global_ground_truth(reports)
    p_const = ad.constant(p_g)
    loss = ad.cross_entropy_rows(p_const, q_v2t) + ad.cross_entropy_rows(p_const, q_t2v)
    return loss, AlignmentDistributions(q_v2t=q_v2t, q_t2v=q_t2v, p_g=p_g)


def token_alignment_loss(pp: ProjectedPair, tau2: float) -> Tensor:
    """Single-positive InfoNCE per unmasked text token against its
    attention-pooled visual context, negatives from the same study.

    Studies with fewer than two unmasked tokens contribute nothing. All
    studies share one [B, L, L] logit tensor with PAD keys masked out.
    """
    if tau2 <= 0:
        raise ParameterError(f"tau2 must be positive, got {tau2}")
    n_tok = pp.txt_mask.sum(axis=1)
    weights = (pp.txt_mask & (n_tok >= 2)[:, None]).astype(np.float32)  # [B, L]
    total_tokens = weights.sum()
    if total_tokens == 0:
        return ad.constant(0.0)
    b, length = pp.txt_mask.shape
    contexts = ad.scaled_dot_attention(pp.txt, pp.vis, pp.vis)  # [B, L, d]
    t_norm = ad.l2_normalize(pp.txt)
    c_norm = ad.l2_normalize(contexts)
    logits = ad.matmul(t_norm, ad.swap_last2(c_norm))  # [B, L, L]
    logp = ad.log_softmax_rows(logits, temperature=tau2, key_mask=pp.txt_mask[:, None, :])
    diag = ad.take_last(logp, np.broadcast_to(np.arange(length), (b, length)))  # [B, L]
    nll = -ad.tsum(diag * ad.constant(weights, dtype=diag.dtype))
    return nll * (1.0 / float(total_tokens))


def stage1_forward(batch: Batch, params: dict, vocab, config: RunConfig):
    """All Stage-1 losses for one batch; returns the total plus its parts."""
    vis = encode_views(stack_views(batch), params, config)
    view_globals = per_view_globals(vis)
    dists = mpc_distributions(view_globals, batch, config.tau1)
    loss_mpc = mpc_loss(dists)
    fused = multi_view_fuse(vis, batch, params)
    text = encode_text([s.factual_serialization for s in batch.studies], params, vocab, config)
    pp = project_and_pool(fused, text, params)
    loss_inst, align = instance_alignment_loss(pp, [s.report for s in batch.studies], config.tau2)
    loss_tok = token_alignment_loss(pp, config.tau2)
    total = loss_mpc + loss_inst + loss_tok
    return total, loss_mpc, loss_inst, loss_tok, dists, align


def pretrain_step(batch: Batch, params: dict, vocab, optimizer, config: RunConfig) -> LossBreakdown:
    """One forward/backward/AdamW update on the Stage-1 objective."""
    total, loss_mpc, loss_inst, loss_tok, dists, align = stage1_forward(batch, params, vocab, config)
    breakdown = LossBreakdown(
        mpc=loss_mpc.item(), inst=loss_inst.item(), tok=loss_tok.item(),
        total=loss_mpc.item() + loss_inst.item() + loss_tok.item(),
    )
    if not np.isfinite(breakdown.total):
        dump = {
            "mpc": breakdown.mpc, "inst": breakdown.inst, "tok": breakdown.tok,
            "q_v2t": align.q_v2t.data.tolist(), "q_t2v": align.q_t2v.data.tolist(),
            "p_g": align.p_g.tolist(),
        }
        if dists is not None:
            dump["q_mpc"] = dists.q.data.tolist()
            dump["p_mpc"] = dists.p.tolist()
        raise NumericalAbort("non-finite Stage-1 loss", dump=dump)
    optimizer.zero_grad()
    total.backward()
    optimizer.step()
    optimizer.zero_grad()
    return breakdown
