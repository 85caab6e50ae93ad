import math

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.data import Batch
from mvreport.encoders import init_stage1_params
from mvreport.errors import DimensionError, NumericalAbort
from mvreport.kgrg import (
    DecoderCache,
    bridge_forward,
    decoder_forward,
    encode_indications,
    finetune_step,
    generate,
    generate_batch,
    init_stage2_params,
    lm_loss,
    lm_loss_from_ids,
    report_target_ids,
    split_param_groups,
    stage2_knowledge,
    teacher_forced_logprobs,
)
from mvreport.mvcl import stage1_forward
from mvreport.optim import AdamW
from mvreport.rng import Rng
from mvreport.synthetic import SynthSpec, build_vocabulary, synth_corpus
from mvreport.text import BOS_ID, EOS_ID, PAD_ID, Vocabulary

from conftest import make_study, padded_indications, tiny_config
from decode_reference import reference_generate
from gradcheck import directional_check, to_f64_params

F64 = np.float64
# Cached/batched decoding vs the full-prefix reference: same math, other summation shapes.
DECODE_TOL = {np.float32: 1e-5, np.float64: 1e-10}


def _setup(view_counts=(1, 2), indications=None, seed=0, **config_over):
    config = tiny_config(**config_over)
    rng = Rng(seed)
    reports = ["patchy opacity seen", "heart size enlarged", "dense shadow noted"]
    indications = indications or [None] * len(view_counts)
    studies = [
        make_study(f"s{i}", m, rng, report=reports[i % len(reports)], indication=ind)
        for i, (m, ind) in enumerate(zip(view_counts, indications))
    ]
    vocab = Vocabulary.build([s.factual_serialization for s in studies]
                             + [["male", "female", "with", "cough", "fever"]])
    params = init_stage1_params(config, len(vocab), Rng(seed + 1))
    params.update(init_stage2_params(config, len(vocab), Rng(seed + 2)))
    return config, Batch(studies), vocab, params


def test_stage2_param_names_and_groups():
    config, _, vocab, params = _setup()
    group1, group2 = split_param_groups(params)
    assert set(group1) | set(group2) == set(params)
    assert not set(group1) & set(group2)
    assert all(name.startswith("stage1.") for name in group1)
    assert all(name.startswith("stage2.") for name in group2)
    assert group1 and group2


def test_bridge_tokens_start_at_zero():
    _, _, _, params = _setup()
    np.testing.assert_array_equal(params["stage2.bridge.tokens"].data, 0.0)


def test_encode_indications_mixed_presence():
    config, batch, vocab, params = _setup(
        view_counts=(1, 1, 2),
        indications=["male with cough", None, "female with fever"])
    feats = encode_indications(batch, params, vocab, config)
    assert not feats.pad_mask[1].any()
    assert feats.pad_mask.sum(axis=1).tolist() == [5, 0, 5]  # BOS + 3 tokens + EOS
    assert feats.tokens.shape == (3, feats.pad_mask.shape[1], config.d2)


def test_encode_indications_all_absent():
    config, batch, vocab, params = _setup(view_counts=(1, 2))
    assert encode_indications(batch, params, vocab, config) is None


def test_bridge_zero_init_absent_equals_layer_norm():
    config, _, _, params = _setup()
    fused = ad.constant(Rng(3).normal((2, config.p, config.d1), std=2.0))
    out = bridge_forward(fused, None, params, config)
    expected = ad.layer_norm(fused, params["stage2.bridge.b0.ln.g"],
                             params["stage2.bridge.b0.ln.b"])
    np.testing.assert_allclose(out.data, expected.data, atol=1e-5)


def test_bridge_shape_independent_of_indication():
    config, _, _, params = _setup()
    fused = ad.constant(Rng(4).normal((3, config.p, config.d1)))
    absent = bridge_forward(fused, None, params, config)
    ind = padded_indications([None, Rng(5).normal((4, config.d1)), Rng(6).normal((7, config.d1))])
    present = bridge_forward(fused, ind, params, config)
    assert absent.shape == present.shape == fused.shape
    # a study without an indication attends over the bridge tokens alone
    np.testing.assert_allclose(present.data[0], absent.data[0], atol=1e-6)


def test_bridge_indication_changes_output_after_training_signal():
    # non-zero bridge/indication values must actually influence the output
    config, _, _, params = _setup()
    fused = ad.constant(Rng(7).normal((1, config.p, config.d1)))
    ind = padded_indications([Rng(8).normal((3, config.d1), std=2.0)])
    absent = bridge_forward(fused, None, params, config)
    present = bridge_forward(fused, ind, params, config)
    assert np.abs(absent.data - present.data).max() > 1e-4


def test_decoder_logits_shape_and_prefix_bound():
    config, batch, vocab, params = _setup()
    knowledge = ad.constant(Rng(9).normal((2, config.p, config.d1)))
    ids = np.full((2, 4), 4, dtype=np.int64)
    ids[:, 0] = BOS_ID
    logits = decoder_forward(ids, knowledge, params, config)
    assert logits.shape == (2, 4, len(vocab))
    too_long = np.full((2, config.max_tokens + 2), 4, dtype=np.int64)
    with pytest.raises(DimensionError):
        decoder_forward(too_long, knowledge, params, config)


def test_decoder_causality():
    config, batch, vocab, params = _setup()
    knowledge = ad.constant(Rng(10).normal((1, config.p, config.d1)))
    ids = np.array([[BOS_ID, 4, 5, 6]], dtype=np.int64)
    logits = decoder_forward(ids, knowledge, params, config).data
    edited = ids.copy()
    edited[0, 3] = 7  # future token, must not affect earlier positions
    logits2 = decoder_forward(edited, knowledge, params, config).data
    np.testing.assert_allclose(logits[:, :3], logits2[:, :3], atol=1e-6)
    assert np.abs(logits[:, 3] - logits2[:, 3]).max() > 0


def test_report_target_ids_layout():
    config, batch, vocab, params = _setup(view_counts=(1, 1))
    inputs, targets, mask = report_target_ids(batch, vocab, config)
    assert inputs.shape == targets.shape == mask.shape
    for i, study in enumerate(batch.studies):
        seq = vocab.encode(study.factual_serialization[:0] or [], max_len=None)
        n = int(mask[i].sum())
        assert inputs[i, 0] == BOS_ID
        assert targets[i, n - 1] == EOS_ID
        np.testing.assert_array_equal(inputs[i, 1:n], targets[i, : n - 1])
        assert (inputs[i, n:] == PAD_ID).all()


def test_report_target_ids_truncation():
    config, _, vocab, params = _setup(max_tokens=4)
    rng = Rng(11)
    long_report = " ".join(["patchy"] * 30)
    batch = Batch([make_study("s", 1, rng, report=long_report)])
    inputs, targets, mask = report_target_ids(batch, vocab, config)
    assert inputs.shape[1] <= config.max_tokens


def test_lm_loss_uniform_logits_oracle():
    config, _, _, params = _setup()
    vocab_size = params["stage2.dec.out.w"].shape[1]
    params["stage2.dec.out.w"].data[:] = 0.0
    params["stage2.dec.out.b"].data[:] = 0.0
    knowledge = ad.constant(Rng(12).normal((1, config.p, config.d1)))
    inputs = np.array([[BOS_ID, 4, 5, 6, 7]], dtype=np.int64)
    targets = np.array([[4, 5, 6, 7, EOS_ID]], dtype=np.int64)
    mask = np.ones((1, 5), dtype=np.float32)
    loss = lm_loss_from_ids(inputs, targets, mask, knowledge, params, config)
    assert loss.item() == pytest.approx(5 * math.log(vocab_size), rel=1e-5)


def test_lm_loss_all_masked_is_zero():
    config, _, _, params = _setup()
    knowledge = ad.constant(Rng(13).normal((1, config.p, config.d1)))
    inputs = np.array([[BOS_ID, 4]], dtype=np.int64)
    targets = np.array([[4, EOS_ID]], dtype=np.int64)
    mask = np.zeros((1, 2), dtype=np.float32)
    loss = lm_loss_from_ids(inputs, targets, mask, knowledge, params, config)
    assert abs(loss.item()) < 1e-12


def test_lm_loss_batch_isolation():
    config, batch, vocab, params = _setup(
        view_counts=(1, 2, 1),
        indications=["male with cough", "female with fever", None])
    params64 = to_f64_params(params)
    singles = [lm_loss(Batch([s]), params64, vocab, config).item() for s in batch.studies]
    batch_loss = lm_loss(batch, params64, vocab, config).item()
    assert batch_loss == pytest.approx(sum(singles) / 3, abs=1e-9)

    batch.studies[0].indication = "female with fever"
    singles2 = [lm_loss(Batch([s]), params64, vocab, config).item() for s in batch.studies]
    assert singles2[0] != pytest.approx(singles[0], abs=1e-12)
    assert singles2[1] == pytest.approx(singles[1], abs=1e-9)
    assert singles2[2] == pytest.approx(singles[2], abs=1e-9)
    batch_loss2 = lm_loss(batch, params64, vocab, config).item()
    assert batch_loss2 - batch_loss == pytest.approx((singles2[0] - singles[0]) / 3, abs=1e-9)


def test_lm_loss_gradient_directional():
    config, batch, vocab, params = _setup(
        view_counts=(2, 1), indications=["male with cough", None])
    params64 = to_f64_params(params)
    tensors = list(params64.values())
    rng = Rng(77)
    for _ in range(5):
        directional_check(lambda: lm_loss(batch, params64, vocab, config), tensors, rng)


def test_finetune_step_decreases_loss():
    config = tiny_config(max_tokens=16)
    studies, vocab = synth_corpus(SynthSpec(n_studies=4, seed=21, image_size=8))
    batch = Batch(studies)
    params = init_stage1_params(config, len(vocab), Rng(30))
    params.update(init_stage2_params(config, len(vocab), Rng(31)))
    group1, group2 = split_param_groups(params)
    optimizer = AdamW([(group1, 1e-4), (group2, 1e-3)])
    first = finetune_step(batch, params, vocab, optimizer, config)
    for _ in range(40):
        last = finetune_step(batch, params, vocab, optimizer, config)
    assert last < first


def _tape_size(loss) -> int:
    """Recorded ops reachable from ``loss`` (leaves and constants excluded)."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward_fn is not None
            stack.extend(node._parents)
    return count


def test_tape_size_does_not_depend_on_batch_size():
    sizes = []
    for repeats in (1, 4):
        indications = ["male with cough", None, "female with fever", None] * repeats
        config, batch, vocab, params = _setup(view_counts=(1, 2, 3, 1) * repeats, indications=indications)
        assert batch.B == 4 * repeats
        sizes.append((_tape_size(stage1_forward(batch, params, vocab, config)[0]),
                      _tape_size(lm_loss(batch, params, vocab, config))))
    assert sizes[0] == sizes[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_finetune_step_aborts_on_non_finite():
    config, batch, vocab, params = _setup()
    params["stage2.dec.out.b"].data[:] = np.inf
    optimizer = AdamW([(params, 1e-3)])
    with pytest.raises(NumericalAbort):
        finetune_step(batch, params, vocab, optimizer, config)


def test_generate_greedy_deterministic():
    config, batch, vocab, params = _setup()
    study = batch.studies[0]
    out1 = generate(study, params, vocab, config, mode="greedy")
    out2 = generate(study, params, vocab, config, mode="greedy")
    assert out1.token_ids == out2.token_ids
    assert out1.token_logprobs == out2.token_logprobs
    assert out1.stopped_by in ("eos", "max_len")


def test_generate_output_invariants():
    config, batch, vocab, params = _setup()
    out = generate(batch.studies[1], params, vocab, config, mode="beam", beam_width=3)
    assert len(out.token_ids) <= config.max_tokens
    assert len(out.token_logprobs) == len(out.token_ids)
    assert all(lp <= 0.0 for lp in out.token_logprobs)
    assert EOS_ID not in out.token_ids
    assert (out.stopped_by == "max_len") == (len(out.token_ids) == config.max_tokens)


def test_beam_one_equals_greedy():
    config, batch, vocab, params = _setup(seed=5)
    for study in batch.studies:
        greedy = generate(study, params, vocab, config, mode="greedy")
        beam1 = generate(study, params, vocab, config, mode="beam", beam_width=1)
        assert greedy.token_ids == beam1.token_ids
        assert greedy.stopped_by == beam1.stopped_by


def test_generate_unknown_mode():
    config, batch, vocab, params = _setup()
    with pytest.raises(ValueError, match="unknown decoding mode"):
        generate(batch.studies[0], params, vocab, config, mode="sampling")
    with pytest.raises(ValueError, match="beam width"):
        generate(batch.studies[0], params, vocab, config, mode="beam", beam_width=0)


def test_decode_score_consistency():
    config, batch, vocab, params = _setup(seed=8)
    study = batch.studies[0]
    out = generate(study, params, vocab, config, mode="greedy")
    if not out.token_ids:
        pytest.skip("degenerate greedy output")
    rescored = teacher_forced_logprobs(study, out.token_ids, params, vocab, config)
    np.testing.assert_allclose(rescored, out.token_logprobs, atol=1e-5)


def _decode_setup(seed, dec_layers, dtype, pad_bias=1.5):
    """Three studies, with a PAD logit bias so that decodes emit PAD tokens."""
    config, batch, vocab, params = _setup(view_counts=(1, 2, 3), seed=seed, dec_layers=dec_layers,
                                          indications=["male with cough", None, "female with fever"])
    if dtype == np.float64:
        params = to_f64_params(params)
    params["stage2.dec.out.b"].data[PAD_ID] += pad_bias
    return config, batch, vocab, params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dec_layers", [1, 2])
def test_generate_matches_full_prefix_reference(dec_layers, dtype):
    tokens = []
    for seed in (0, 1, 2):
        config, batch, vocab, params = _decode_setup(seed, dec_layers, dtype)
        for study in batch.studies:
            for mode, width in (("greedy", 1), ("beam", 3)):
                out = generate(study, params, vocab, config, mode=mode, beam_width=width)
                ref = reference_generate(study, params, vocab, config, mode=mode, beam_width=width)
                assert out.token_ids == ref.token_ids
                assert out.stopped_by == ref.stopped_by
                np.testing.assert_allclose(out.token_logprobs, ref.token_logprobs,
                                           rtol=0, atol=DECODE_TOL[dtype])
                tokens.extend(out.token_ids)
    assert PAD_ID in tokens


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dec_layers", [1, 2])
def test_cached_decoder_steps_match_full_prefix(dec_layers, dtype):
    config, batch, vocab, params = _decode_setup(0, dec_layers, dtype)
    knowledge = stage2_knowledge(batch, params, vocab, config)  # one row per study
    origin = np.arange(3)  # the knowledge row each sequence decodes from
    seqs = np.random.default_rng(dec_layers).integers(3, len(vocab), size=(3, config.max_tokens + 1))
    seqs[:, 0] = BOS_ID
    seqs[:, 2] = PAD_ID
    seqs[1, 5:7] = PAD_ID
    tol = DECODE_TOL[dtype]
    cache = DecoderCache()
    with ad.no_grad():
        # a 3-position first call, then one position per call
        starts = [0, *range(3, config.max_tokens + 1)]
        for start, stop in zip(starts, starts[1:] + [config.max_tokens + 1]):
            if start == 6:  # beam-style reorder: rows 1 and 2 continue row 0, row 0 continues row 2
                seqs = np.concatenate([seqs[[2, 0, 0], :start], seqs[:, start:]], axis=1)
                origin = origin[[2, 0, 0]]
                cache.reorder([2, 0, 0])
            step = decoder_forward(seqs[:, start:stop], knowledge, params, config, cache=cache)
            assert cache.length == stop
            for row in range(3):
                own = ad.constant(knowledge.data[origin[row]:origin[row] + 1], dtype=knowledge.dtype)
                full = decoder_forward(seqs[row:row + 1, :stop], own, params, config)
                np.testing.assert_allclose(step.data[row], full.data[0, start:stop], rtol=0, atol=tol)
        with pytest.raises(DimensionError):
            decoder_forward(seqs[:, :1], knowledge, params, config, cache=cache)
    assert cache.length == config.max_tokens + 1


def _batch_decode_setup(seed, dec_layers, dtype, eos_bias=0.75):
    """Five studies of 1-3 views, some with an indication, with an EOS logit
    bias under which the studies of a batch stop at different steps."""
    config, batch, vocab, params = _setup(
        view_counts=(1, 3, 2, 1, 2), seed=seed, dec_layers=dec_layers,
        indications=["male with cough", None, "female with fever", None, "male with fever"])
    if dtype == np.float64:
        params = to_f64_params(params)
    params["stage2.dec.out.b"].data[EOS_ID] += eos_bias
    return config, batch.studies, vocab, params


def _assert_same_output(out, ref, tol):
    assert out.token_ids == ref.token_ids
    assert out.stopped_by == ref.stopped_by
    np.testing.assert_allclose(out.token_logprobs, ref.token_logprobs, rtol=0, atol=tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dec_layers", [1, 2])
@pytest.mark.parametrize("mode,width", [("greedy", 1), ("beam", 3)])
def test_generate_batch_matches_per_study_reference(mode, width, dec_layers, dtype):
    lengths = []
    for seed in (0, 2, 3):
        config, studies, vocab, params = _batch_decode_setup(seed, dec_layers, dtype)
        outputs = generate_batch(studies, params, vocab, config, mode=mode, beam_width=width)
        assert len(outputs) == len(studies)
        for study, out in zip(studies, outputs):
            ref = reference_generate(study, params, vocab, config, mode=mode, beam_width=width)
            _assert_same_output(out, ref, DECODE_TOL[dtype])
        lengths.append([len(out.token_ids) for out in outputs])
    # some batch has rows that finish while others decode on
    assert any(len(set(batch_lengths)) > 1 for batch_lengths in lengths), lengths


@pytest.mark.parametrize("dec_layers", [1, 2])
def test_generate_batch_beam_one_equals_greedy(dec_layers):
    for seed in (0, 2, 3):
        config, studies, vocab, params = _batch_decode_setup(seed, dec_layers, np.float32)
        greedy = generate_batch(studies, params, vocab, config, mode="greedy")
        beam1 = generate_batch(studies, params, vocab, config, mode="beam", beam_width=1)
        for g, b in zip(greedy, beam1):
            _assert_same_output(b, g, 0.0)


@pytest.mark.parametrize("mode,width", [("greedy", 1), ("beam", 3)])
def test_generate_batch_output_independent_of_batch_mates(mode, width):
    config, studies, vocab, params = _batch_decode_setup(0, 2, np.float64)
    together = generate_batch(studies, params, vocab, config, mode=mode, beam_width=width)
    reversed_ = generate_batch(studies[::-1], params, vocab, config, mode=mode, beam_width=width)[::-1]
    pairs = generate_batch(studies[1:3], params, vocab, config, mode=mode, beam_width=width)
    alone = [generate(study, params, vocab, config, mode=mode, beam_width=width) for study in studies]
    for i, out in enumerate(together):
        for other in (reversed_[i], alone[i], *([pairs[i - 1]] if i in (1, 2) else [])):
            _assert_same_output(other, out, DECODE_TOL[np.float64])


def test_decoder_forward_under_no_grad_records_no_graph():
    config, batch, vocab, params = _setup()
    ids = np.array([[BOS_ID, 4, 5], [BOS_ID, 6, PAD_ID]], dtype=np.int64)
    with ad.no_grad():
        knowledge = stage2_knowledge(batch, params, vocab, config)
        logits = decoder_forward(ids, knowledge, params, config)
    assert logits._parents == () and logits._backward_fn is None
    recorded = decoder_forward(ids, stage2_knowledge(batch, params, vocab, config), params, config)
    assert recorded._parents
    np.testing.assert_array_equal(logits.data, recorded.data)


def test_generate_leaves_no_parameter_grads():
    config, batch, vocab, params = _setup()
    generate(batch.studies[0], params, vocab, config, mode="beam", beam_width=3)
    teacher_forced_logprobs(batch.studies[0], [4, 5], params, vocab, config)
    assert all(p.grad is None for p in params.values())
    assert ad.GRAD_ENABLED
