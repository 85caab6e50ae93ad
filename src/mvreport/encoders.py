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


class ParamInit:
    """The parameter makers both stages initialise with. ``normal`` draws
    from ``rng`` in call order; ``ones`` and ``zeros`` draw nothing."""

    def __init__(self, rng: Rng):
        self.rng = rng

    def normal(self, shape, std):
        return ad.parameter(self.rng.normal(shape, std=std))

    def ones(self, shape):
        return ad.parameter(np.ones(shape, dtype=np.float32))

    def zeros(self, shape):
        return ad.parameter(np.zeros(shape, dtype=np.float32))

    def layer_norm(self, params: dict, prefix: str, d: int) -> None:
        params[f"{prefix}.g"] = self.ones((d,))
        params[f"{prefix}.b"] = self.zeros((d,))

    def mlp(self, params: dict, prefix: str, d_in: int, hidden: int, d_out: int) -> None:
        """The weights of ``_mlp`` under ``prefix``, fan-in scaled."""
        params[f"{prefix}.w1"] = self.normal((d_in, hidden), std=1.0 / np.sqrt(d_in))
        params[f"{prefix}.b1"] = self.zeros((hidden,))
        params[f"{prefix}.w2"] = self.normal((hidden, d_out), std=1.0 / np.sqrt(hidden))
        params[f"{prefix}.b2"] = self.zeros((d_out,))


def init_stage1_params(config: RunConfig, vocab_size: int, rng: Rng) -> dict:
    """Named stage-1 parameter tensors (conv encoder, text encoder, heads)."""
    init = ParamInit(rng)
    d1, d2, d = config.d1, config.d2, config.d
    params = {}
    channels = conv_channels(config)
    for i in range(3):
        cin, cout = channels[i], channels[i + 1]
        params[f"stage1.vis.conv{i}.w"] = init.normal((cout, cin, 3, 3), std=np.sqrt(2.0 / (cin * 9)))
        params[f"stage1.vis.conv{i}.b"] = init.zeros((cout,))

    params["stage1.txt.embed"] = init.normal((vocab_size, d2), std=0.02)
    params["stage1.txt.pos"] = init.normal((config.k_t, d2), std=0.02)
    for layer in range(config.text_layers):
        prefix = f"stage1.txt.l{layer}"
        for name in ("wq", "wk", "wv", "wo"):
            params[f"{prefix}.{name}"] = init.normal((d2, d2), std=1.0 / np.sqrt(d2))
        init.layer_norm(params, f"{prefix}.ln1", d2)
        init.mlp(params, f"{prefix}.ffn", d2, config.ffn_mult * d2, d2)
        init.layer_norm(params, f"{prefix}.ln2", d2)

    for side, din in (("vis", d1), ("txt", d2)):
        init.mlp(params, f"stage1.proj.{side}", din, din, d)
    init.layer_norm(params, "stage1.fuse.ln", d1)
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


def _mlp(x: Tensor, params: dict, prefix: str) -> Tensor:
    """Two affine layers with a ReLU between, over the last axis."""
    hidden = ad.relu(ad.affine(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return ad.affine(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _encoder_layer(x: Tensor, params: dict, prefix: str, key_mask: np.ndarray) -> Tensor:
    q = ad.matmul(x, params[f"{prefix}.wq"])
    k = ad.matmul(x, params[f"{prefix}.wk"])
    v = ad.matmul(x, params[f"{prefix}.wv"])
    attended = ad.scaled_dot_attention(q, k, v, key_mask=key_mask[:, None, :])
    x = ad.layer_norm(x + ad.matmul(attended, params[f"{prefix}.wo"]),
                      params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    return ad.layer_norm(x + _mlp(x, params, f"{prefix}.ffn"), params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


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


def project_and_pool(fused_vis: Tensor, text: TextFeatures, params: dict) -> ProjectedPair:
    """Per-token projection into the shared space, then masked pooling and
    l2 normalization of the global vectors."""
    vis = _mlp(fused_vis, params, "stage1.proj.vis")
    txt = _mlp(text.tokens, params, "stage1.proj.txt")
    vis_mask = np.ones(vis.shape[:2], dtype=bool)
    vis_global = ad.l2_normalize(masked_mean(vis, vis_mask))
    txt_global = ad.l2_normalize(masked_mean(txt, text.pad_mask))
    return ProjectedPair(vis=vis, txt=txt, vis_global=vis_global, txt_global=txt_global, txt_mask=text.pad_mask)


def per_view_globals(vis: VisualFeatures) -> Tensor:
    """Per-view pooled, l2-normalized global vectors [M_imgs, d1]."""
    return ad.l2_normalize(ad.tmean(vis.per_view, axis=1))
