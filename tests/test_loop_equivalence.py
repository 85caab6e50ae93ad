"""The batched fusion, token alignment and bridge equal the per-study loops
of ``fusion_reference`` in value and in every gradient (float64)."""

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.data import Batch
from mvreport.encoders import ProjectedPair, VisualFeatures, init_stage1_params
from mvreport.kgrg import bridge_forward, encode_indications, init_stage2_params
from mvreport.mvcl import multi_view_fuse, token_alignment_loss
from mvreport.rng import Rng
from mvreport.text import Vocabulary

from conftest import make_study, tiny_config
from fusion_reference import (
    reference_bridge_forward,
    reference_encode_indications,
    reference_multi_view_fuse,
    reference_token_alignment_loss,
)
from gradcheck import analytic_grads

F64 = np.float64
# Same arithmetic up to summation order and exact zeros from masked keys.
TOL = 1e-10


def p64(rng, shape, std=1.0):
    return ad.parameter(np.asarray(rng.normal(shape, std=std), dtype=F64), dtype=F64)


def assert_same(batched_fn, reference_fn, tensors, rng):
    """Equal outputs, and equal gradients of a random linear functional of them."""
    out, ref = batched_fn(), reference_fn()
    np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=TOL)
    weights = ad.constant(np.asarray(rng.normal(out.shape), dtype=F64), dtype=F64)
    grads = analytic_grads(lambda: ad.tsum(batched_fn() * weights), tensors)
    ref_grads = analytic_grads(lambda: ad.tsum(reference_fn() * weights), tensors)
    for tensor, g, ref_g in zip(tensors, grads, ref_grads):
        assert (g is None) == (ref_g is None), tensor
        if g is not None:
            np.testing.assert_allclose(g, ref_g, rtol=0, atol=TOL)


# (num_views, anchor_index) per study
FUSE_BATCHES = {
    "anchor first, middle and last": [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
    "one multi-view study among single views": [(1, 0), (3, 2), (1, 0)],
    "all single view": [(1, 0), (1, 0), (1, 0)],
    "one study": [(3, 1)],
}


@pytest.mark.parametrize("case", FUSE_BATCHES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multi_view_fuse_matches_loop(case, seed):
    rng = Rng(seed)
    batch = Batch([make_study(f"s{i}", m, rng, anchor_index=a) for i, (m, a) in enumerate(FUSE_BATCHES[case])])
    per_view = p64(rng, (batch.M_imgs, 5, 4))
    params = {"stage1.fuse.ln.g": p64(rng, (4,)), "stage1.fuse.ln.b": p64(rng, (4,))}
    vis = VisualFeatures(per_view)
    assert_same(lambda: multi_view_fuse(vis, batch, params),
                lambda: reference_multi_view_fuse(vis, batch, params),
                [per_view, *params.values()], rng)


def test_multi_view_fuse_all_single_view_is_exact_copy():
    rng = Rng(3)
    batch = Batch([make_study(f"s{i}", 1, rng) for i in range(3)])
    per_view = p64(rng, (3, 5, 4))
    params = {"stage1.fuse.ln.g": p64(rng, (4,)), "stage1.fuse.ln.b": p64(rng, (4,))}
    np.testing.assert_array_equal(multi_view_fuse(VisualFeatures(per_view), batch, params).data, per_view.data)


TOKEN_MASKS = {
    "full and prefix masks": [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]],
    "non-contiguous mask": [[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]],
    "one study below two tokens": [[1, 1, 1, 1, 0], [1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 1, 0, 1, 1]],
    "every study below two tokens": [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
}


@pytest.mark.parametrize("case", TOKEN_MASKS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_token_alignment_loss_matches_loop(case, seed):
    rng = Rng(10 + seed)
    mask = np.asarray(TOKEN_MASKS[case], dtype=bool)
    b, length = mask.shape
    vis = p64(rng, (b, 3, 6))
    txt = p64(rng, (b, length, 6))
    pp = ProjectedPair(vis=vis, txt=txt, vis_global=None, txt_global=None, txt_mask=mask)
    assert_same(lambda: token_alignment_loss(pp, tau2=0.3),
                lambda: reference_token_alignment_loss(pp, tau2=0.3),
                [vis, txt], rng)


INDICATIONS = {
    "mixed": ["male with cough", None, "female with fever", None],
    "all absent": [None, None, None],
    "all present": ["female with cough", "male with fever and cough", "fever"],
    "one study": ["male with cough"],
}


@pytest.mark.parametrize("case", INDICATIONS)
@pytest.mark.parametrize("bridge_blocks", [1, 2])
def test_indication_bridge_matches_loop(case, bridge_blocks):
    config = tiny_config(bridge_blocks=bridge_blocks)
    rng = Rng(20 + bridge_blocks)
    indications = INDICATIONS[case]
    batch = Batch([make_study(f"s{i}", 1, rng, indication=ind) for i, ind in enumerate(indications)])
    vocab = Vocabulary.build([["male", "female", "with", "cough", "fever", "and"]])
    params = init_stage1_params(config, len(vocab), Rng(1))
    params.update(init_stage2_params(config, len(vocab), Rng(2)))
    params = {name: ad.parameter(np.asarray(t.data, dtype=F64), dtype=F64) for name, t in params.items()}
    # non-zero bridge tokens, so that keys other than the indication's matter
    params["stage2.bridge.tokens"] = p64(rng, params["stage2.bridge.tokens"].shape)
    fused = p64(rng, (batch.B, config.p, config.d1), std=2.0)

    def batched():
        return bridge_forward(fused, encode_indications(batch, params, vocab, config), params, config)

    def reference():
        return reference_bridge_forward(fused, reference_encode_indications(batch, params, vocab, config),
                                        params, config)

    assert_same(batched, reference, [fused, *params.values()], rng)
