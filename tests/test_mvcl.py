import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.data import Batch
from mvreport.encoders import ProjectedPair, VisualFeatures, init_stage1_params
from mvreport.errors import NumericalAbort, ParameterError
from mvreport.mvcl import (
    MpcDistributions,
    global_ground_truth,
    instance_alignment_loss,
    mpc_distributions,
    mpc_loss,
    multi_view_fuse,
    pretrain_step,
    stage1_forward,
    token_alignment_loss,
)
from mvreport.optim import AdamW
from mvreport.rng import Rng
from mvreport.synthetic import SynthSpec
from mvreport.text import Vocabulary

from conftest import make_study, synth_studies, tiny_config
from gradcheck import check_grads, to_f64_params

F64 = np.float64


def _fuse_params(d1):
    return {
        "stage1.fuse.ln.g": ad.parameter(np.ones(d1, dtype=np.float32)),
        "stage1.fuse.ln.b": ad.parameter(np.zeros(d1, dtype=np.float32)),
    }


def _pp(vis_global, txt_global, vis=None, txt=None, txt_mask=None):
    b, d = np.asarray(vis_global).shape
    vis = ad.constant(vis if vis is not None else np.zeros((b, 2, d)))
    txt = ad.constant(txt if txt is not None else np.zeros((b, 2, d)))
    if txt_mask is None:
        txt_mask = np.ones((b, txt.shape[1]), dtype=bool)
    return ProjectedPair(vis=vis, txt=txt, vis_global=ad.constant(vis_global),
                         txt_global=ad.constant(txt_global), txt_mask=txt_mask)


# -- mpc ---------------------------------------------------------------------


def test_mpc_single_two_view_study(rng):
    batch = Batch([make_study("a", 2, rng)])
    v = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    dists = mpc_distributions(v, batch, tau1=0.5)
    np.testing.assert_allclose(dists.q.data, [[1.0], [1.0]])
    np.testing.assert_allclose(dists.p, [[1.0], [1.0]])
    assert abs(mpc_loss(dists).item()) < 1e-6


def test_mpc_closed_form_orthogonal(rng):
    batch = Batch([make_study("a", 2, rng), make_study("b", 2, rng)])
    v = ad.constant([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    dists = mpc_distributions(v, batch, tau1=0.5)
    assert dists.q.shape == (4, 3)
    for row, p_row in zip(dists.q.data, dists.p):
        np.testing.assert_allclose(sorted(row, reverse=True), [0.7870, 0.1065, 0.1065], atol=1e-3)
        assert p_row.sum() == pytest.approx(1.0)
        assert (p_row > 0).sum() == 1
    assert mpc_loss(dists).item() == pytest.approx(0.2395, abs=1e-3)


def test_mpc_not_applicable_cases(rng):
    single_only = Batch([make_study("a", 1, rng), make_study("b", 1, rng)])
    v = ad.constant(np.zeros((2, 4)))
    assert mpc_distributions(v, single_only, tau1=0.5) is None
    assert abs(mpc_loss(None).item()) < 1e-12


def test_mpc_temperature_validation(rng):
    batch = Batch([make_study("a", 2, rng)])
    with pytest.raises(ParameterError):
        mpc_distributions(ad.constant(np.zeros((2, 2))), batch, tau1=0.0)


def test_mpc_p_row_nonzero_counts(rng):
    counts = [1, 3, 2, 4]
    batch = Batch([make_study(f"s{i}", m, rng) for i, m in enumerate(counts)])
    k = sum(m for m in counts if m > 1)
    v_data = np.asarray(Rng(42).normal((batch.M_imgs, 6)), dtype=np.float32)
    v_data /= np.linalg.norm(v_data, axis=-1, keepdims=True)
    dists = mpc_distributions(ad.constant(v_data), batch, tau1=0.5)
    assert dists.q.shape == (k, k - 1)
    np.testing.assert_allclose(dists.q.data.sum(axis=-1), 1.0, atol=1e-5)
    np.testing.assert_allclose(dists.p.sum(axis=-1), 1.0, atol=1e-6)
    for row, (si, _) in zip(dists.p, dists.anchor_index_map):
        m_i = batch.studies[si].num_views
        nonzero = row[row > 0]
        assert len(nonzero) == m_i - 1
        np.testing.assert_allclose(nonzero, nonzero[0])


@pytest.mark.parametrize("counts", [[3], [2, 1, 3], [4, 2, 1], [1, 4, 3], [2, 4, 1, 2, 3]],
                         ids=["K3", "K5", "K6", "K7", "K14"])
def test_mpc_off_diagonal_matches_numpy_selection(rng, counts):
    batch = Batch([make_study(f"s{i}", m, rng) for i, m in enumerate(counts)])
    tau1 = 0.3
    v = np.asarray(Rng(7).normal((batch.M_imgs, 5)), dtype=F64)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    dists = mpc_distributions(ad.constant(v, dtype=F64), batch, tau1=tau1)
    keep = np.flatnonzero(np.repeat(counts, counts) > 1)
    k = len(keep)
    off = ~np.eye(k, dtype=bool)
    logits = (v[keep] @ v[keep].T)[off].reshape(k, k - 1) / tau1
    q = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(dists.q.data, q / q.sum(axis=1, keepdims=True), rtol=0, atol=1e-12)
    study = np.repeat(np.arange(len(counts)), counts)[keep]
    same = (study[:, None] == study[None, :]).astype(np.float32)[off].reshape(k, k - 1)
    np.testing.assert_array_equal(dists.p, same / same.sum(axis=1, keepdims=True))

    v_param = ad.parameter(v, dtype=F64)
    check_grads(lambda: mpc_loss(mpc_distributions(v_param, batch, tau1=tau1)), [v_param])


def test_mpc_loss_at_optimum_is_entropy(rng):
    p = np.array([[0.5, 0.25, 0.25], [1.0, 0.0, 0.0]], dtype=np.float32)
    dists = MpcDistributions(q=ad.constant(p), p=p, anchor_index_map=[])
    entropy = float(-(p[p > 0] * np.log(p[p > 0])).sum() / p.shape[0])
    assert mpc_loss(dists).item() == pytest.approx(entropy, abs=1e-5)


def test_mpc_loss_gibbs_bound(rng):
    batch = Batch([make_study("a", 3, rng), make_study("b", 2, rng)])
    for seed in range(5):
        v = np.asarray(Rng(seed).normal((5, 4)), dtype=np.float32)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        dists = mpc_distributions(ad.constant(v), batch, tau1=0.5)
        p = dists.p
        entropy = float(-(p[p > 0] * np.log(p[p > 0])).sum() / p.shape[0])
        assert mpc_loss(dists).item() >= entropy - 1e-5


# -- fusion ------------------------------------------------------------------


def test_fuse_single_view_bypass_exact(rng):
    batch = Batch([make_study("a", 1, rng)])
    feats = np.asarray(Rng(0).normal((1, 3, 4)), dtype=np.float32)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, _fuse_params(4))
    np.testing.assert_array_equal(fused.data, feats)


def test_fuse_duplicate_auxiliary_is_layer_norm(rng):
    batch = Batch([make_study("a", 2, rng)])
    anchor = np.asarray(Rng(1).normal((1, 3, 4), std=2.0), dtype=np.float32)
    feats = np.concatenate([anchor, anchor], axis=0)
    params = _fuse_params(4)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, params)
    expected = ad.layer_norm(ad.constant(anchor), params["stage1.fuse.ln.g"],
                             params["stage1.fuse.ln.b"])
    np.testing.assert_allclose(fused.data, expected.data, atol=1e-5)


def test_fuse_hand_case_single_aux(rng):
    # anchor position features and the single auxiliary sum to a constant
    # row, so the normalized output is exactly zero
    batch = Batch([make_study("a", 2, rng)])
    feats = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]], dtype=np.float32)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, _fuse_params(2))
    np.testing.assert_allclose(fused.data, 0.0, atol=1e-4)


def test_fuse_hand_case_two_aux(rng):
    batch = Batch([make_study("a", 3, rng)])
    feats = np.array([[[1.0, 0.0]], [[2.0, 0.0]], [[0.0, 2.0]]], dtype=np.float32)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, _fuse_params(2))
    np.testing.assert_allclose(fused.data[0, 0], [0.999996, -0.999996], atol=1e-4)


def test_fuse_auxiliary_permutation_invariance(rng):
    batch = Batch([make_study("a", 4, rng)])
    feats = np.asarray(Rng(2).normal((4, 3, 5)), dtype=np.float32)
    params = _fuse_params(5)
    base = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, params)
    permuted = feats[[0, 3, 1, 2]]  # anchor fixed, auxiliaries shuffled
    alt = multi_view_fuse(VisualFeatures(ad.constant(permuted)), batch, params)
    np.testing.assert_allclose(base.data, alt.data, atol=1e-6)


def test_fuse_respects_anchor_index(rng):
    batch = Batch([make_study("a", 3, rng, anchor_index=1)])
    feats = np.asarray(Rng(3).normal((3, 2, 4)), dtype=np.float32)
    params = _fuse_params(4)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, params)
    # same study re-ordered so the anchor is first must give the same output
    reordered = feats[[1, 0, 2]]
    batch2 = Batch([make_study("a", 3, rng, anchor_index=0)])
    batch2.studies[0].views = batch.studies[0].views
    fused2 = multi_view_fuse(VisualFeatures(ad.constant(reordered)), batch2, params)
    np.testing.assert_allclose(fused.data, fused2.data, atol=1e-6)


def test_fuse_mixed_batch_shape(rng):
    batch = Batch([make_study("a", 1, rng), make_study("b", 3, rng), make_study("c", 2, rng)])
    feats = np.asarray(Rng(4).normal((6, 2, 4)), dtype=np.float32)
    fused = multi_view_fuse(VisualFeatures(ad.constant(feats)), batch, _fuse_params(4))
    assert fused.shape == (3, 2, 4)


# -- instance alignment ------------------------------------------------------


def test_global_ground_truth_identical_reports():
    p = global_ground_truth(["r1", "r1"])
    np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])


def test_global_ground_truth_matches_brute_force():
    reports = ["a", "b", "a", "c", "b", "a"]
    p = global_ground_truth(reports)
    n = len(reports)
    for i in range(n):
        for j in range(n):
            same = reports[i] == reports[j]
            expected = (1.0 / sum(reports[i] == r for r in reports)) if same else 0.0
            assert p[i, j] == pytest.approx(expected)
    np.testing.assert_allclose(p, p.T)


def test_instance_alignment_single_study():
    pp = _pp([[1.0, 0.0]], [[1.0, 0.0]])
    loss, dists = instance_alignment_loss(pp, ["r"], tau2=0.5)
    np.testing.assert_allclose(dists.q_v2t.data, [[1.0]])
    np.testing.assert_allclose(dists.p_g, [[1.0]])
    assert abs(loss.item()) < 1e-6


def test_instance_alignment_closed_form():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    loss, dists = instance_alignment_loss(_pp(eye, eye), ["r1", "r2"], tau2=0.5)
    np.testing.assert_allclose(np.diag(dists.q_v2t.data), [0.8808, 0.8808], atol=1e-3)
    assert loss.item() == pytest.approx(0.2539, abs=1e-3)


def test_instance_alignment_temperature_validation():
    with pytest.raises(ParameterError):
        instance_alignment_loss(_pp([[1.0]], [[1.0]]), ["r"], tau2=-1.0)


# -- token alignment ---------------------------------------------------------


def test_token_alignment_single_token_studies_zero():
    txt = np.zeros((2, 3, 4), dtype=np.float32)
    mask = np.zeros((2, 3), dtype=bool)
    mask[:, 0] = True
    pp = _pp(np.zeros((2, 4)), np.zeros((2, 4)), txt=txt, txt_mask=mask)
    assert abs(token_alignment_loss(pp, tau2=0.5).item()) < 1e-12


def test_token_alignment_closed_form_orthogonal():
    # two visual tokens on orthogonal axes; text tokens aligned with them,
    # so each token's attention context collapses onto its own axis
    scale = 50.0
    vis = np.zeros((1, 2, 4), dtype=np.float32)
    vis[0, 0, 0] = scale
    vis[0, 1, 1] = scale
    txt = vis.copy()
    pp = _pp(np.zeros((1, 4)), np.zeros((1, 4)), vis=vis, txt=txt,
             txt_mask=np.ones((1, 2), dtype=bool))
    assert token_alignment_loss(pp, tau2=0.5).item() == pytest.approx(0.1269, abs=1e-3)


def test_token_alignment_non_negative():
    for seed in range(5):
        r = Rng(seed)
        vis = np.asarray(r.normal((2, 3, 4)), dtype=np.float32)
        txt = np.asarray(r.normal((2, 4, 4)), dtype=np.float32)
        mask = np.ones((2, 4), dtype=bool)
        pp = _pp(np.zeros((2, 4)), np.zeros((2, 4)), vis=vis, txt=txt, txt_mask=mask)
        assert token_alignment_loss(pp, tau2=0.5).item() >= 0.0


def test_token_alignment_respects_mask():
    r = Rng(9)
    vis = np.asarray(r.normal((1, 3, 4)), dtype=np.float32)
    txt = np.asarray(r.normal((1, 4, 4)), dtype=np.float32)
    mask_full = np.array([[True, True, True, False]])
    pp_masked = _pp(np.zeros((1, 4)), np.zeros((1, 4)), vis=vis, txt=txt, txt_mask=mask_full)
    pp_trimmed = _pp(np.zeros((1, 4)), np.zeros((1, 4)), vis=vis, txt=txt[:, :3],
                     txt_mask=np.ones((1, 3), dtype=bool))
    assert token_alignment_loss(pp_masked, tau2=0.5).item() == pytest.approx(
        token_alignment_loss(pp_trimmed, tau2=0.5).item(), abs=1e-6)


# -- full objective ----------------------------------------------------------


def _toy_setup(view_counts, seed=0, **config_over):
    config = tiny_config(**config_over)
    rng = Rng(seed)
    reports = ["patchy opacity seen", "heart size enlarged", "dense shadow noted",
               "faint lines visible"]
    studies = [make_study(f"s{i}", m, rng, report=reports[i % len(reports)])
               for i, m in enumerate(view_counts)]
    vocab = Vocabulary.build([s.factual_serialization for s in studies])
    params = init_stage1_params(config, len(vocab), Rng(seed + 1))
    return config, Batch(studies), vocab, params


def test_stage1_forward_all_single_view():
    config, batch, vocab, params = _toy_setup([1, 1, 1])
    total, mpc, inst, tok, dists, _ = stage1_forward(batch, params, vocab, config)
    assert dists is None
    assert abs(mpc.item()) < 1e-12
    assert total.item() == pytest.approx(inst.item() + tok.item(), abs=1e-5)


def test_stage1_batch_order_invariance():
    config, batch, vocab, params = _toy_setup([2, 1, 3])
    params64 = to_f64_params(params)
    total, mpc, inst, tok, *_ = stage1_forward(batch, params64, vocab, config)
    rev = Batch(batch.studies[::-1])
    total2, mpc2, inst2, tok2, *_ = stage1_forward(rev, params64, vocab, config)
    for a, b in ((mpc, mpc2), (inst, inst2), (tok, tok2), (total, total2)):
        assert a.item() == pytest.approx(b.item(), abs=1e-6)


def test_stage1_full_gradient_matches_finite_differences():
    config, batch, vocab, params = _toy_setup([2, 1])
    params64 = to_f64_params(params)
    tensors = list(params64.values())

    def loss_fn():
        return stage1_forward(batch, params64, vocab, config)[0]

    check_grads(loss_fn, tensors, rtol=1e-3, atol=1e-6)


def test_pretrain_step_decreases_loss():
    config = tiny_config(tau1=0.5, tau2=0.5)
    studies, vocab = synth_studies(SynthSpec(n_studies=4, seed=3, image_size=8))
    batch = Batch(studies)
    params = init_stage1_params(config, len(vocab), Rng(5))
    optimizer = AdamW([(params, 1e-3)])
    first = pretrain_step(batch, params, vocab, optimizer, config)
    for _ in range(30):
        last = pretrain_step(batch, params, vocab, optimizer, config)
    assert last.total < first.total
    assert first.total == pytest.approx(first.mpc + first.inst + first.tok, abs=1e-6)


def test_pretrain_step_aborts_on_non_finite():
    config, batch, vocab, params = _toy_setup([2, 1])
    params["stage1.fuse.ln.g"].data[:] = np.nan
    optimizer = AdamW([(params, 1e-3)])
    with pytest.raises(NumericalAbort) as excinfo:
        pretrain_step(batch, params, vocab, optimizer, config)
    assert "q_v2t" in excinfo.value.dump
