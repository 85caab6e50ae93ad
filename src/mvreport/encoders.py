"""Desk-scale encoders: a 3-block strided conv net for views, a small
transformer encoder for text, and the shared projection/pooling head."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import RunConfig
from .errors import DataError
from .rng import Rng
from .text import BOS_ID, EOS_ID, PAD_ID

NEG_INF = -1e9


def conv_channels(config: RunConfig) -> list:
    """Channel widths of the three conv blocks, scaled from d1."""
    d1 = config.d1
    return [1, max(d1 // 4, 2), max(d1 // 2, 4), d1]


@dataclass
class VisualFeatures:
    per_view: Tensor  # [M_imgs, p, d1]


@dataclass
class TextFeatures:
    tokens: Tensor        # [B, L, d2]
    pad_mask: np.ndarray  # [B, L] bool, True where the position is real
    ids: np.ndarray       # [B, L] int64


@dataclass
class ProjectedPair:
    vis: Tensor         # [B, p, d]
    txt: Tensor         # [B, L, d]
    vis_global: Tensor  # [B, d], unit norm
    txt_global: Tensor  # [B, d], unit norm
    txt_mask: np.ndarray


def init_stage1_params(config: RunConfig, vocab_size: int, rng: Rng) -> dict:
    """Named stage-1 parameter tensors (conv encoder, text encoder, heads)."""

    def normal(shape, std):
        return ad.parameter(rng.normal(shape, std=std))

    def ones(shape):
        return ad.parameter(np.ones(shape, dtype=np.float32))

    def zeros(shape):
        return ad.parameter(np.zeros(shape, dtype=np.float32))

    d1, d2, d = config.d1, config.d2, config.d
    params = {}
    channels = conv_channels(config)
    for i in range(3):
        cin, cout = channels[i], channels[i + 1]
        params[f"stage1.vis.conv{i}.w"] = normal((cout, cin, 3, 3), std=np.sqrt(2.0 / (cin * 9)))
        params[f"stage1.vis.conv{i}.b"] = zeros((cout,))

    params["stage1.txt.embed"] = normal((vocab_size, d2), std=0.02)
    params["stage1.txt.pos"] = normal((config.k_t, d2), std=0.02)
    for layer in range(config.text_layers):
        prefix = f"stage1.txt.l{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.{name}"] = normal((d2, d2), std=1.0 / np.sqrt(d2))
        params[f"{prefix}.ln1.g"] = ones((d2,))
        params[f"{prefix}.ln1.b"] = zeros((d2,))
        h = config.ffn_mult * d2
        params[f"{prefix}.ffn.w1"] = normal((d2, h), std=1.0 / np.sqrt(d2))
        params[f"{prefix}.ffn.b1"] = zeros((h,))
        params[f"{prefix}.ffn.w2"] = normal((h, d2), std=1.0 / np.sqrt(h))
        params[f"{prefix}.ffn.b2"] = zeros((d2,))
        params[f"{prefix}.ln2.g"] = ones((d2,))
        params[f"{prefix}.ln2.b"] = zeros((d2,))

    for side, din in (("vis", d1), ("txt", d2)):
        params[f"stage1.proj.{side}.w1"] = normal((din, din), std=1.0 / np.sqrt(din))
        params[f"stage1.proj.{side}.b1"] = zeros((din,))
        params[f"stage1.proj.{side}.w2"] = normal((din, d), std=1.0 / np.sqrt(din))
        params[f"stage1.proj.{side}.b2"] = zeros((d,))

    params["stage1.fuse.ln.g"] = ones((d1,))
    params["stage1.fuse.ln.b"] = zeros((d1,))
    return params


def encode_views(views: np.ndarray, params: dict, config: RunConfig) -> VisualFeatures:
    """[M, 1, H, W] images -> per-view feature maps [M, p, d1]."""
    if views.ndim != 4 or views.shape[1] != 1:
        raise DataError(f"encode_views expects [M, 1, H, W], got shape {views.shape}")
    m, _, h, w = views.shape
    if h != w or h != config.image_size:
        raise DataError(f"view size {views.shape[2:]} does not match configured image_size {config.image_size}")
    x = ad.constant(views.reshape(m, h, w, 1))  # channels last; free because C == 1
    for i in range(3):
        x = ad.conv2d(x, params[f"stage1.vis.conv{i}.w"], params[f"stage1.vis.conv{i}.b"], stride=2, padding=1)
        x = ad.relu(x)
    _, ho, wo, d1 = x.shape
    return VisualFeatures(per_view=ad.reshape(x, (m, ho * wo, d1)))


def _encoder_layer(x: Tensor, params: dict, prefix: str, key_mask: np.ndarray) -> Tensor:
    q = ad.matmul(x, params[f"{prefix}.wq"])
    k = ad.matmul(x, params[f"{prefix}.wk"])
    v = ad.matmul(x, params[f"{prefix}.wv"])
    add_mask = np.where(key_mask[:, None, :], 0.0, NEG_INF).astype(np.float32)
    attended = ad.scaled_dot_attention(q, k, v, mask=add_mask)
    x = ad.layer_norm(x + ad.matmul(attended, params[f"{prefix}.wo"]),
                      params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    hidden = ad.relu(ad.affine(x, params[f"{prefix}.ffn.w1"], params[f"{prefix}.ffn.b1"]))
    ffn = ad.affine(hidden, params[f"{prefix}.ffn.w2"], params[f"{prefix}.ffn.b2"])
    return ad.layer_norm(x + ffn, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


def encode_text(token_lists, params: dict, vocab, config: RunConfig) -> TextFeatures:
    """Token-string lists -> contextual features with a pad mask.

    Sequences are BOS/EOS-wrapped and truncated to k_t; an empty token
    list yields a valid BOS/EOS-only row.
    """
    encoded = [vocab.encode(toks, add_bos_eos=True, max_len=config.k_t) for toks in token_lists]
    max_len = max(len(ids) for ids in encoded)
    batch = np.full((len(encoded), max_len), PAD_ID, dtype=np.int64)
    for i, ids in enumerate(encoded):
        batch[i, : len(ids)] = ids
    pad_mask = batch != PAD_ID
    x = ad.gather_rows(params["stage1.txt.embed"], batch)
    pos = ad.narrow(params["stage1.txt.pos"], 0, 0, max_len)
    x = x + ad.reshape(pos, (1, max_len, config.d2))
    for layer in range(config.text_layers):
        x = _encoder_layer(x, params, f"stage1.txt.l{layer}", pad_mask)
    return TextFeatures(tokens=x, pad_mask=pad_mask, ids=batch)


def masked_mean(tokens: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked positions per row; rows with no unmasked
    position fall back to position 0."""
    mask = mask.copy()
    empty = ~mask.any(axis=-1)
    if empty.any():
        mask[empty, 0] = True
    weights = mask.astype(np.float32)
    weights = weights / weights.sum(axis=-1, keepdims=True)
    weighted = tokens * ad.constant(weights[..., None])
    return ad.tsum(weighted, axis=-2)


def _project_tokens(x: Tensor, params: dict, side: str) -> Tensor:
    hidden = ad.relu(ad.affine(x, params[f"stage1.proj.{side}.w1"], params[f"stage1.proj.{side}.b1"]))
    return ad.affine(hidden, params[f"stage1.proj.{side}.w2"], params[f"stage1.proj.{side}.b2"])


def project_and_pool(fused_vis: Tensor, text: TextFeatures, params: dict) -> ProjectedPair:
    """Per-token projection into the shared space, then masked pooling and
    l2 normalization of the global vectors."""
    vis = _project_tokens(fused_vis, params, "vis")
    txt = _project_tokens(text.tokens, params, "txt")
    vis_mask = np.ones(vis.shape[:2], dtype=bool)
    vis_global = ad.l2_normalize(masked_mean(vis, vis_mask))
    txt_global = ad.l2_normalize(masked_mean(txt, text.pad_mask))
    return ProjectedPair(vis=vis, txt=txt, vis_global=vis_global, txt_global=txt_global, txt_mask=text.pad_mask)


def per_view_globals(vis: VisualFeatures) -> Tensor:
    """Per-view pooled, l2-normalized global vectors [M_imgs, d1]."""
    return ad.l2_normalize(ad.tmean(vis.per_view, axis=1))
