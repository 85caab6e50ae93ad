"""Acceptance suite: one test per acceptance criterion, each printing a
single ``[criterion N] PASS/FAIL`` summary line."""

import copy
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport import cli
from mvreport.config import RunConfig
from mvreport.data import Batch, make_batches
from mvreport.encoders import ProjectedPair, VisualFeatures, init_stage1_params
from mvreport.kgrg import (
    bridge_forward,
    finetune_step,
    generate,
    init_stage2_params,
    lm_loss,
    split_param_groups,
)
from mvreport.metrics import (
    OBSERVATIONS,
    GreenCounts,
    bleu,
    ce_f1,
    green_score,
    meteor_simplified,
    rouge_l,
)
from mvreport.mvcl import (
    instance_alignment_loss,
    mpc_distributions,
    mpc_loss,
    multi_view_fuse,
    pretrain_step,
    stage1_forward,
)
from mvreport.optim import AdamW
from mvreport.rng import Rng
from mvreport.synthetic import SynthSpec
from mvreport.text import Vocabulary, tokenize

from conftest import make_study, padded_indications, synth_studies, tiny_config
from gradcheck import check_grads, directional_check, to_f64_params
from op_reference import div, exp, relu, sub

F64 = np.float64


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criterion 1: gradient correctness ----------------------------------------


def _p(rng, shape, std=1.0, offset=0.0):
    data = np.asarray(rng.normal(shape, std=std), dtype=F64) + offset
    return ad.parameter(data, dtype=F64)

def _margin(t, margin=0.1):
    t.data = np.sign(t.data) * (np.abs(t.data) + margin)
    return t

def _dot(rng, shape):
    """A fixed random linear functional that turns ``shape`` into a scalar."""
    w = ad.constant(np.asarray(rng.normal(shape), dtype=F64), dtype=F64)
    return lambda y: ad.tsum(y * w)


def _op_cases(rng):
    def two(shape=(3, 4), **kw):
        return _p(rng, shape, **kw), _p(rng, shape, **kw)

    def case_add():
        a, b = two()
        dot = _dot(rng, (3, 4))
        return lambda: dot(a + b), [a, b]

    def case_sub():
        a, b = two()
        dot = _dot(rng, (3, 4))
        return lambda: dot(sub(a, b)), [a, b]

    def case_mul():
        a, b = two()
        dot = _dot(rng, (3, 4))
        return lambda: dot(a * b), [a, b]

    def case_div():
        a = _p(rng, (3, 4))
        b = _p(rng, (3, 4), std=0.5, offset=3.0)
        dot = _dot(rng, (3, 4))
        return lambda: dot(div(a, b)), [a, b]

    def case_relu():
        a = _margin(_p(rng, (3, 4)))
        dot = _dot(rng, (3, 4))
        return lambda: dot(relu(a)), [a]

    def case_exp():
        a = _p(rng, (3, 4), std=0.5)
        dot = _dot(rng, (3, 4))
        return lambda: dot(exp(a)), [a]

    def case_log():
        a = _p(rng, (3, 4), std=0.5, offset=3.0)
        dot = _dot(rng, (3, 4))
        return lambda: dot(ad.log(a)), [a]

    def case_matmul():
        a, b = _p(rng, (3, 4)), _p(rng, (4, 2))
        dot = _dot(rng, (3, 2))
        return lambda: dot(ad.matmul(a, b)), [a, b]

    def case_reshape_swap():
        a = _p(rng, (3, 4))
        dot = _dot(rng, (6, 2))
        return lambda: dot(ad.swap_last2(ad.reshape(a, (2, 6)))), [a]

    def case_concat_narrow():
        a, b = two((2, 3))
        dot = _dot(rng, (2, 4))
        return lambda: dot(ad.narrow(ad.concat([a, b], axis=1), 1, 1, 4)), [a, b]

    def case_broadcast_to():
        a = _p(rng, (2, 1))
        dot = _dot(rng, (3, 2, 4))
        return lambda: dot(ad.broadcast_to(a, (3, 2, 4))), [a]

    def case_gather_rows():
        a = _p(rng, (5, 3))
        idx = np.array([0, 2, 2, 4])
        dot = _dot(rng, (4, 3))
        return lambda: dot(ad.gather_rows(a, idx)), [a]

    def case_take_last():
        a = _p(rng, (4, 5))
        idx = np.array([1, 0, 3, 2])
        dot = _dot(rng, (4,))
        return lambda: dot(ad.take_last(a, idx)), [a]

    def case_sum_mean():
        a = _p(rng, (3, 4))
        return lambda: ad.tsum(ad.tmean(a * a, axis=0)), [a]

    def case_softmax():
        a = _p(rng, (3, 4))
        dot = _dot(rng, (3, 4))
        return lambda: dot(ad.softmax_rows(a, temperature=0.7)), [a]

    def case_log_softmax():
        a = _p(rng, (3, 4))
        dot = _dot(rng, (3, 4))
        return lambda: dot(ad.log_softmax_rows(a, temperature=0.7)), [a]

    def case_layer_norm():
        x = _p(rng, (3, 5), std=2.0)
        g = _p(rng, (5,), offset=1.0)
        b = _p(rng, (5,))
        dot = _dot(rng, (3, 5))
        return lambda: dot(ad.layer_norm(x, g, b)), [x, g, b]

    def case_l2_normalize():
        x = _p(rng, (3, 5))
        dot = _dot(rng, (3, 5))
        return lambda: dot(ad.l2_normalize(x)), [x]

    def case_attention():
        q, k, v = _p(rng, (1, 2, 3)), _p(rng, (1, 4, 3)), _p(rng, (1, 4, 3))
        dot = _dot(rng, (1, 2, 3))
        return lambda: dot(ad.scaled_dot_attention(q, k, v)), [q, k, v]

    def case_cross_entropy():
        z = _p(rng, (3, 4))
        raw = np.abs(np.asarray(rng.normal((3, 4)), dtype=F64)) + 0.1
        target = ad.constant(raw / raw.sum(axis=-1, keepdims=True), dtype=F64)
        return lambda: ad.cross_entropy_rows(target, ad.softmax_rows(z)), [z]

    def case_conv2d():
        x = ad.parameter(np.ascontiguousarray(_p(rng, (2, 1, 6, 6)).data.transpose(0, 2, 3, 1)), dtype=F64)  # NHWC
        w = _p(rng, (2, 1, 3, 3), std=0.5)
        b = _p(rng, (2,))
        dot = _dot(rng, (2, 3, 3, 2))
        return lambda: dot(ad.conv2d(x, w, b, stride=2, padding=1)), [x, w, b]

    def case_conv2d_relu():
        x = ad.parameter(np.ascontiguousarray(_p(rng, (2, 1, 6, 6)).data.transpose(0, 2, 3, 1)), dtype=F64)  # NHWC
        w = _p(rng, (2, 1, 3, 3), std=0.5)
        b = _p(rng, (2,))
        dot = _dot(rng, (2, 3, 3, 2))
        return lambda: dot(ad.conv2d_relu(x, w, b, stride=2, padding=1)), [x, w, b]

    def case_affine():
        x, w, b = _p(rng, (3, 4)), _p(rng, (4, 2)), _p(rng, (2,))
        dot = _dot(rng, (3, 2))
        return lambda: dot(ad.affine(x, w, b)), [x, w, b]

    def case_affine_relu():
        x, w, b = _p(rng, (3, 4)), _p(rng, (4, 2)), _p(rng, (2,))
        dot = _dot(rng, (3, 2))
        return lambda: dot(ad.affine_relu(x, w, b)), [x, w, b]

    def case_add_layer_norm():
        x, y = _p(rng, (3, 5), std=2.0), _p(rng, (3, 5))
        g = _p(rng, (5,), offset=1.0)
        b = _p(rng, (5,))
        dot = _dot(rng, (3, 5))
        return lambda: dot(ad.add_layer_norm(x, y, g, b)), [x, y, g, b]

    return {
        "add": case_add, "sub": case_sub, "mul": case_mul, "div": case_div,
        "relu": case_relu, "exp": case_exp, "log": case_log,
        "matmul": case_matmul, "reshape_swap": case_reshape_swap,
        "concat_narrow": case_concat_narrow, "broadcast_to": case_broadcast_to,
        "gather_rows": case_gather_rows, "take_last": case_take_last,
        "sum_mean": case_sum_mean, "softmax": case_softmax,
        "log_softmax": case_log_softmax, "layer_norm": case_layer_norm,
        "l2_normalize": case_l2_normalize, "attention": case_attention,
        "cross_entropy": case_cross_entropy, "conv2d": case_conv2d,
        "conv2d_relu": case_conv2d_relu, "affine": case_affine,
        "affine_relu": case_affine_relu, "add_layer_norm": case_add_layer_norm,
    }


def _composed_setup():
    config = tiny_config()
    rng = Rng(100)
    reports = ["patchy opacity seen", "heart size enlarged", "dense shadow noted"]
    studies = [make_study("s0", 2, rng, report=reports[0], indication="male with cough"),
               make_study("s1", 1, rng, report=reports[1])]
    vocab = Vocabulary.build([s.factual_serialization for s in studies]
                             + [["male", "with", "cough"]])
    params = init_stage1_params(config, len(vocab), Rng(101))
    params.update(init_stage2_params(config, len(vocab), Rng(102)))
    return config, Batch(studies), vocab, to_f64_params(params)


def test_criterion_1_gradient_correctness(capsys):
    start = time.monotonic()
    worst_op = 0.0
    rng = Rng(2024)
    for name, builder in _op_cases(rng).items():
        for _ in range(20):
            loss_fn, tensors = builder()
            worst_op = max(worst_op, check_grads(loss_fn, tensors, rtol=1e-4, atol=1e-7))

    config, batch, vocab, params64 = _composed_setup()
    tensors = list(params64.values())
    composed = {
        "mpc": lambda: stage1_forward(batch, params64, vocab, config)[1],
        "instance_align": lambda: stage1_forward(batch, params64, vocab, config)[2],
        "token_align": lambda: stage1_forward(batch, params64, vocab, config)[3],
        "pretrain_total": lambda: stage1_forward(batch, params64, vocab, config)[0],
        "lm": lambda: lm_loss(batch, params64, vocab, config),
    }
    worst_composed = 0.0
    dir_rng = Rng(2025)
    for loss_fn in composed.values():
        for _ in range(20):
            worst_composed = max(
                worst_composed, directional_check(loss_fn, tensors, dir_rng, rtol=1e-3))
    elapsed = time.monotonic() - start
    ok = worst_op < 1e-4 and worst_composed < 1e-3 and elapsed < 60.0
    _verdict(capsys, 1, ok,
             f"per-op rel err {worst_op:.2e} (<1e-4), composed rel err "
             f"{worst_composed:.2e} (<1e-3), {elapsed:.1f}s (<60s)")


# -- criterion 2: distribution contracts --------------------------------------


def test_criterion_2_distribution_contracts(capsys):
    rng = Rng(7)
    report_pool = ["patchy opacity", "clear lungs", "dense shadow"]
    checked = 0
    ok = True
    for trial in range(100):
        counts = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
        studies = [make_study(f"t{trial}-{i}", m, rng, image_size=2,
                              report=report_pool[int(rng.integers(0, 3))])
                   for i, m in enumerate(counts)]
        batch = Batch(studies)
        ok &= batch.M_imgs == sum(counts)

        v = np.asarray(rng.normal((batch.M_imgs, 6)), dtype=np.float32)
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        dists = mpc_distributions(ad.constant(v), batch, tau1=0.5)
        k = sum(m for m in counts if m > 1)  # the views of multi-view studies
        ok &= (dists is None) == (k == 0)
        if dists is not None:
            ok &= dists.p.shape[0] == k
            ok &= bool(np.allclose(dists.q.data.sum(axis=-1), 1.0, atol=1e-5))
            ok &= bool(np.allclose(dists.p.sum(axis=-1), 1.0, atol=1e-5))
            for row, (si, _) in zip(dists.p, dists.anchor_index_map):
                nonzero = row[row > 0]
                ok &= len(nonzero) == batch.studies[si].num_views - 1
                ok &= bool(np.all(nonzero == nonzero[0]))

        b = batch.B
        vg = np.asarray(rng.normal((b, 6)), dtype=np.float32)
        tg = np.asarray(rng.normal((b, 6)), dtype=np.float32)
        vg /= np.linalg.norm(vg, axis=-1, keepdims=True)
        tg /= np.linalg.norm(tg, axis=-1, keepdims=True)
        pp = ProjectedPair(vis=ad.constant(np.zeros((b, 2, 6))),
                           txt=ad.constant(np.zeros((b, 2, 6))),
                           vis_global=ad.constant(vg), txt_global=ad.constant(tg),
                           txt_mask=np.ones((b, 2), dtype=bool))
        _, align = instance_alignment_loss(pp, [s.report for s in studies], tau2=0.5)
        for q in (align.q_v2t.data, align.q_t2v.data, align.p_g):
            ok &= bool(np.allclose(q.sum(axis=-1), 1.0, atol=1e-5))
        checked += 1
        if not ok:
            break
    _verdict(capsys, 2, ok and checked == 100,
             f"{checked}/100 random batches satisfy row-stochastic + count contracts")


# -- criterion 3: closed-form loss oracles ------------------------------------


def test_criterion_3_closed_form_losses(capsys):
    rng = Rng(11)
    batch = Batch([make_study("a", 2, rng), make_study("b", 2, rng)])
    v = ad.constant([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    loss_mpc = mpc_loss(mpc_distributions(v, batch, tau1=0.5)).item()

    eye = [[1.0, 0.0], [0.0, 1.0]]
    pp = ProjectedPair(vis=ad.constant(np.zeros((2, 2, 2))),
                       txt=ad.constant(np.zeros((2, 2, 2))),
                       vis_global=ad.constant(eye), txt_global=ad.constant(eye),
                       txt_mask=np.ones((2, 2), dtype=bool))
    loss_inst, _ = instance_alignment_loss(pp, ["r1", "r2"], tau2=0.5)
    loss_inst = loss_inst.item()

    ok = abs(loss_mpc - 0.2395) < 1e-3 and abs(loss_inst - 0.2539) < 1e-3
    _verdict(capsys, 3, ok,
             f"contrastive loss {loss_mpc:.4f} (0.2395±1e-3), "
             f"instance loss {loss_inst:.4f} (0.2539±1e-3)")


# -- criterion 4: fusion properties -------------------------------------------


def _fuse_params(d1):
    return {
        "stage1.fuse.ln.g": ad.parameter(np.ones(d1, dtype=np.float32)),
        "stage1.fuse.ln.b": ad.parameter(np.zeros(d1, dtype=np.float32)),
    }


def test_criterion_4_fusion_properties(capsys):
    rng = Rng(13)
    params = _fuse_params(4)

    single = Batch([make_study("a", 1, rng)])
    feats = np.asarray(Rng(1).normal((1, 3, 4)), dtype=np.float32)
    bypass_ok = np.array_equal(
        multi_view_fuse(VisualFeatures(ad.constant(feats)), single, params).data, feats)

    dup = Batch([make_study("b", 2, rng)])
    anchor = np.asarray(Rng(2).normal((1, 3, 4), std=2.0), dtype=np.float32)
    fused = multi_view_fuse(
        VisualFeatures(ad.constant(np.concatenate([anchor, anchor], axis=0))), dup, params)
    expected = ad.layer_norm(ad.constant(anchor), params["stage1.fuse.ln.g"],
                             params["stage1.fuse.ln.b"])
    dup_err = float(np.abs(fused.data - expected.data).max())

    multi = Batch([make_study("c", 4, rng)])
    base_feats = np.asarray(Rng(3).normal((4, 3, 4)), dtype=np.float32)
    base = multi_view_fuse(VisualFeatures(ad.constant(base_feats)), multi, params)
    perm = multi_view_fuse(
        VisualFeatures(ad.constant(base_feats[[0, 3, 1, 2]])), multi, params)
    perm_err = float(np.abs(base.data - perm.data).max())

    ok = bypass_ok and dup_err < 1e-5 and perm_err < 1e-6
    _verdict(capsys, 4, ok,
             f"single-view bypass exact={bypass_ok}, duplicate-aux err {dup_err:.1e} "
             f"(<1e-5), aux permutation err {perm_err:.1e} (<1e-6)")


# -- criterion 5: bridge contract ---------------------------------------------


def test_criterion_5_bridge_contract(capsys):
    config = tiny_config()
    params = init_stage2_params(config, 16, Rng(17))
    rng = Rng(18)
    shape_ok = True
    zero_err = 0.0
    for _ in range(50):
        b = int(rng.integers(1, 5))
        fused = ad.constant(np.asarray(rng.normal((b, config.p, config.d1), std=2.0),
                                       dtype=np.float32))
        mask = [rng.random() < 0.5 for _ in range(b)]
        ind = [np.asarray(rng.normal((int(rng.integers(2, 7)), config.d1)), dtype=np.float32)
               if present else None for present in mask]
        out = bridge_forward(fused, padded_indications(ind) if any(mask) else None, params, config)
        shape_ok &= out.shape == fused.shape

        absent = bridge_forward(fused, None, params, config)
        expected = ad.layer_norm(fused, params["stage2.bridge.b0.ln.g"],
                                 params["stage2.bridge.b0.ln.b"])
        zero_err = max(zero_err, float(np.abs(absent.data - expected.data).max()))
    ok = shape_ok and zero_err < 1e-5
    _verdict(capsys, 5, ok,
             f"shape invariant over 50 presence masks={shape_ok}, "
             f"zero-init absent-case err {zero_err:.1e} (<1e-5)")


# -- criterion 6: end-to-end overfit ------------------------------------------


def _overfit_config(seed):
    return RunConfig(seed=seed, image_size=16, d1=32, d=16, n_b=2,
                     memory_rows=4, bridge_blocks=1, text_layers=1, dec_layers=1,
                     ffn_mult=2, k_t=16, max_tokens=24, batch_size=8,
                     tau1=0.1, tau2=0.1)


def test_criterion_6_end_to_end_overfit(capsys):
    start = time.monotonic()
    config = _overfit_config(seed=7)
    spec = SynthSpec(n_studies=8, view_count_range=(1, 3), image_size=16,
                     indication_rate=0.66, seed=config.seed)
    studies, vocab = synth_studies(spec)
    batch = Batch(studies)

    params = init_stage1_params(config, len(vocab), Rng(1))
    opt1 = AdamW([(params, 1e-3)])
    initial = None
    stage1_hit = None
    final_total = None
    for step in range(500):
        total = pretrain_step(batch, params, vocab, opt1, config).total
        if initial is None:
            initial = total
        final_total = total
        if total < 0.25 * initial:
            stage1_hit = step + 1
            break

    params.update(init_stage2_params(config, len(vocab), Rng(2)))
    group1, group2 = split_param_groups(params)
    opt2 = AdamW([(group1, 1e-4), (group2, 1e-3)])
    refs = [tokenize(s.report) for s in studies]
    exact = 0
    for step in range(1, 501):
        finetune_step(batch, params, vocab, opt2, config)
        if step % 25 == 0:
            outs = [generate(s, params, vocab, config, mode="greedy") for s in studies]
            exact = sum(vocab.decode(o.token_ids) == r for o, r in zip(outs, refs))
            if exact == 8:
                break
    elapsed = time.monotonic() - start
    ok = stage1_hit is not None and exact == 8 and elapsed < 600.0
    _verdict(capsys, 6, ok,
             f"stage-1 loss {final_total:.2f} vs initial {initial:.2f} "
             f"(<25% at step {stage1_hit}), greedy exact {exact}/8, "
             f"{elapsed:.1f}s (<600s)")


# -- criterion 7: indication ablation direction --------------------------------


def test_criterion_7_indication_ablation(capsys):
    start = time.monotonic()
    seed = 42
    config = _overfit_config(seed)
    config.batch_size = 16
    spec = SynthSpec(n_studies=64, view_count_range=(1, 2), image_size=16,
                     indication_rate=1.0, seed=seed)
    studies, vocab = synth_studies(spec)
    train, val = studies[:48], studies[48:]

    shared = init_stage1_params(config, len(vocab), Rng(seed + 1))
    opt1 = AdamW([(shared, 1e-3)])
    for epoch in range(5):
        for batch in make_batches(train, config.batch_size, seed=epoch):
            pretrain_step(batch, shared, vocab, opt1, config)

    def run(strip_indications):
        tr = [copy.copy(s) for s in train]
        va = [copy.copy(s) for s in val]
        if strip_indications:
            for s in tr + va:
                s.indication = None
        params = {name: ad.parameter(t.data.copy()) for name, t in shared.items()}
        params.update(init_stage2_params(config, len(vocab), Rng(seed + 2)))
        group1, group2 = split_param_groups(params)
        opt = AdamW([(group1, 1e-4), (group2, 1e-3)])
        step, epoch = 0, 0
        while step < 400:
            for batch in make_batches(tr, config.batch_size, seed=100 + epoch):
                finetune_step(batch, params, vocab, opt, config)
                step += 1
                if step >= 400:
                    break
            epoch += 1
        losses = [lm_loss(Batch([s]), params, vocab, config).item() for s in va]
        return sum(losses) / len(losses)

    with_ind = run(strip_indications=False)
    without_ind = run(strip_indications=True)
    elapsed = time.monotonic() - start
    ok = with_ind < without_ind and elapsed < 1200.0
    _verdict(capsys, 7, ok,
             f"val LM loss with indications {with_ind:.4f} < stripped "
             f"{without_ind:.4f}, {elapsed:.1f}s (<1200s)")


# -- criterion 8: metric oracles ----------------------------------------------


def test_criterion_8_metric_oracles(capsys):
    identity = [["patchy", "opacity", "in", "the", "left", "base"]]
    bleu_ok = bleu(identity, identity) == pytest.approx([1.0] * 4)
    rouge_ok = rouge_l(identity, identity) == pytest.approx(1.0)
    meteor_3 = meteor_simplified([["a", "b", "c"]], [["a", "b", "c"]])
    meteor_ok = meteor_3 == pytest.approx(1.0 - 0.5 / 27.0)

    rng = Rng(23)
    n_obs = len(OBSERVATIONS)
    preds = [[int(rng.random() < 0.3) for _ in range(n_obs)] for _ in range(1000)]
    golds = [[int(rng.random() < 0.3) for _ in range(n_obs)] for _ in range(1000)]
    report = ce_f1(preds, golds)
    f1_ok = True
    tp_all = fp_all = fn_all = 0
    macro_f1 = 0.0
    for j, name in enumerate(OBSERVATIONS):
        tp = sum(p[j] and g[j] for p, g in zip(preds, golds))
        fp = sum(p[j] and not g[j] for p, g in zip(preds, golds))
        fn = sum(not p[j] and g[j] for p, g in zip(preds, golds))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        f1_ok &= report["per_obs"][name]["f1"] == f1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        macro_f1 += f1 / n_obs
    micro_f1 = 2 * tp_all / (2 * tp_all + fp_all + fn_all)
    f1_ok &= abs(report["micro"]["f1"] - micro_f1) < 1e-12
    f1_ok &= abs(report["macro"]["f1"] - macro_f1) < 1e-12

    score, degenerate = green_score(GreenCounts(3, [1, 0, 0, 0, 0, 0]))
    green_ok = score == 0.75 and not degenerate

    ok = bleu_ok and rouge_ok and meteor_ok and f1_ok and green_ok
    _verdict(capsys, 8, ok,
             f"identity BLEU/ROUGE-L ok={bleu_ok and rouge_ok}, METEOR "
             f"{meteor_3:.6f}, 1000-sample F1 matches brute force={f1_ok}, "
             f"green(3,1)=0.75 ok={green_ok}")


# -- criterion 9: determinism --------------------------------------------------


def _dir_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_criterion_9_determinism(capsys, tmp_path):
    config_fields = {
        "seed": 31, "image_size": 8, "d1": 8, "d": 4,
        "n_b": 2, "memory_rows": 2, "bridge_blocks": 1,
        "text_layers": 1, "dec_layers": 1, "ffn_mult": 1,
        "k_t": 8, "max_tokens": 16, "batch_size": 3,
        "epochs": 1, "max_steps": 2, "n_studies": 10,
    }
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        data_dir = root / "corpus"
        out_dir = root / "out"
        cfg = root / "config.json"
        root.mkdir()
        cfg.write_text(json.dumps(dict(config_fields, data_dir=str(data_dir),
                                       out_dir=str(out_dir))))
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        assert cli.main(["pretrain", "--config", str(cfg)]) == 0
        assert cli.main(["finetune", "--config", str(cfg),
                         "--stage1-ckpt", str(out_dir / "stage1_best")]) == 0
        assert cli.main(["generate", "--config", str(cfg),
                         "--ckpt", str(out_dir / "stage2_best"),
                         "--manifest", str(data_dir / "test.jsonl"),
                         "--mode", "greedy"]) == 0
        digests.append({
            "corpus": _dir_digest(data_dir),
            "pretrain_log": hashlib.sha256(
                (out_dir / "pretrain_log.jsonl").read_bytes()).hexdigest(),
            "finetune_log": hashlib.sha256(
                (out_dir / "finetune_log.jsonl").read_bytes()).hexdigest(),
            "generations": hashlib.sha256(
                (out_dir / "generations.jsonl").read_bytes()).hexdigest(),
        })
    ok = digests[0] == digests[1]
    _verdict(capsys, 9, ok,
             "same seed gives hash-identical corpus, loss logs, and greedy "
             f"generations across two runs={ok}")
