import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from mvreport.errors import DataError, DimensionError
from mvreport.metrics import (
    BLEU_EPS,
    OBSERVATIONS,
    OBSERVATIONS_5,
    GreenCounts,
    bleu,
    ce_f1,
    green_score,
    meteor_simplified,
    rouge_l,
)

TOKENS = st.lists(st.sampled_from("a b c d the cat sat".split()), min_size=0, max_size=8)
CORPUS = st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=6)


def test_bleu_identity_corpus_is_one():
    corpus = [["patchy", "opacity", "in", "the", "left", "base"]]
    scores = bleu(corpus, corpus)
    assert scores == pytest.approx([1.0, 1.0, 1.0, 1.0])


def test_bleu_clipped_unigram_precision():
    # "the the the" vs "the cat": clipping allows one "the"; no brevity penalty
    scores = bleu([["the", "the", "the"]], [["the", "cat"]])
    assert scores[0] == pytest.approx(1.0 / 3.0)


def test_bleu_brevity_penalty():
    scores = bleu([["the", "cat"]], [["the", "cat", "sat", "down"]])
    assert scores[0] == pytest.approx(math.exp(1.0 - 4.0 / 2.0))


def test_bleu_disjoint_uses_epsilon_floor():
    scores = bleu([["a", "b"]], [["c", "d"]])
    assert scores[0] == pytest.approx(BLEU_EPS, rel=1e-9)


def test_bleu_corpus_level_pooling():
    # counts pool across the corpus before the ratio, so per-sentence
    # averaging would give a different number
    cands = [["a", "b"], ["c"]]
    refs = [["a", "x"], ["c"]]
    # matches 1+1=2, totals 2+1=3, equal lengths -> bp 1
    assert bleu(cands, refs)[0] == pytest.approx(2.0 / 3.0)


def _bleu_brute(cands, refs, max_n=4):
    clipped = [0] * max_n
    totals = [0] * max_n
    c_len = sum(len(c) for c in cands)
    r_len = sum(len(r) for r in refs)
    for c, r in zip(cands, refs):
        for n in range(1, max_n + 1):
            cgrams = [tuple(c[i : i + n]) for i in range(max(len(c) - n + 1, 0))]
            rgrams = [tuple(r[i : i + n]) for i in range(max(len(r) - n + 1, 0))]
            for g in set(cgrams):
                clipped[n - 1] += min(cgrams.count(g), rgrams.count(g))
            totals[n - 1] += len(cgrams)
    if c_len == 0:
        bp = 0.0
    elif c_len > r_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - r_len / c_len)
    out = []
    for n in range(1, max_n + 1):
        acc = 0.0
        for k in range(n):
            p = clipped[k] / totals[k] if totals[k] else 0.0
            acc += math.log(p if p > 0 else BLEU_EPS)
        out.append(bp * math.exp(acc / n))
    return out


@settings(max_examples=100, deadline=None)
@given(CORPUS)
def test_bleu_matches_brute_force(pairs):
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    got = bleu(cands, refs)
    want = _bleu_brute(cands, refs)
    assert got == pytest.approx(want, abs=1e-12)
    assert all(0.0 <= s <= 1.0 for s in got)


def test_bleu_length_mismatch_and_empty():
    with pytest.raises(DimensionError):
        bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(DataError):
        bleu([], [])


def test_rouge_l_oracle():
    # lcs("a b c d", "a c d") = 3; P = 3/4, R = 1, beta = 1.2
    score = rouge_l([["a", "b", "c", "d"]], [["a", "c", "d"]])
    beta2 = 1.2 ** 2
    expected = (1 + beta2) * 0.75 * 1.0 / (1.0 + beta2 * 0.75)
    assert score == pytest.approx(expected)
    assert score == pytest.approx(0.8798077, abs=1e-7)


def test_rouge_l_identity_and_disjoint():
    assert rouge_l([["a", "b"]], [["a", "b"]]) == pytest.approx(1.0)
    assert rouge_l([["a"]], [["b"]]) == 0.0


def _lcs_brute(a, b):
    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


@settings(max_examples=100, deadline=None)
@given(TOKENS, TOKENS)
def test_rouge_l_matches_brute_force_lcs(cand, ref):
    lcs = _lcs_brute(tuple(cand), tuple(ref))
    if lcs == 0:
        expected = 0.0
    else:
        p, r = lcs / len(cand), lcs / len(ref)
        beta2 = 1.2 ** 2
        expected = (1 + beta2) * p * r / (r + beta2 * p)
    assert rouge_l([cand], [ref]) == pytest.approx(expected, abs=1e-12)


def test_meteor_identity_three_tokens():
    # m=3, P=R=1, fmean=1, one chunk: penalty = 0.5 * (1/3)^3
    score = meteor_simplified([["a", "b", "c"]], [["a", "b", "c"]])
    assert score == pytest.approx(1.0 - 0.5 / 27.0)
    assert score == pytest.approx(0.9814815, abs=1e-7)


def test_meteor_identity_single_token():
    # a single match is its own chunk: penalty = 0.5
    assert meteor_simplified([["cat"]], [["cat"]]) == pytest.approx(0.5)


def test_meteor_stem_matching():
    # "walking"/"walked" both stem to "walk"
    score = meteor_simplified([["walking"]], [["walked"]])
    assert score == pytest.approx(0.5)
    assert meteor_simplified([["walking"]], [["sitting"]]) == 0.0


def test_meteor_fragmentation_lowers_score():
    contiguous = meteor_simplified([["a", "b", "c", "d"]], [["a", "b", "c", "d"]])
    scrambled = meteor_simplified([["a", "b", "c", "d"]], [["c", "d", "a", "b"]])
    assert scrambled < contiguous


@settings(max_examples=100, deadline=None)
@given(CORPUS)
def test_meteor_and_rouge_in_unit_interval(pairs):
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    assert 0.0 <= rouge_l(cands, refs) <= 1.0
    assert 0.0 <= meteor_simplified(cands, refs) <= 1.0


def _row(**hot):
    row = [0] * len(OBSERVATIONS)
    for name, value in hot.items():
        row[OBSERVATIONS.index(name.replace("_", " "))] = value
    return row


def test_ce_f1_hand_oracle():
    preds = [_row(Cardiomegaly=1, Edema=1), _row(Cardiomegaly=1, Edema=1),
             _row(Edema=1), _row()]
    golds = [_row(Cardiomegaly=1, Edema=1), _row(Edema=1),
             _row(Cardiomegaly=1), _row()]
    report = ce_f1(preds, golds)
    # Cardiomegaly: tp=1 fp=1 fn=1 -> P=R=F1=0.5
    assert report["per_obs"]["Cardiomegaly"]["f1"] == pytest.approx(0.5)
    # Edema: tp=2 fp=1 fn=0 -> P=2/3, R=1, F1=0.8
    assert report["per_obs"]["Edema"]["precision"] == pytest.approx(2 / 3)
    assert report["per_obs"]["Edema"]["recall"] == pytest.approx(1.0)
    assert report["per_obs"]["Edema"]["f1"] == pytest.approx(0.8)
    # pooled: tp=3 fp=2 fn=1 -> micro P=0.6, R=0.75, F1=2/3
    assert report["micro"]["precision"] == pytest.approx(0.6)
    assert report["micro"]["recall"] == pytest.approx(0.75)
    assert report["micro"]["f1"] == pytest.approx(2 / 3)
    assert report["macro"]["f1"] == pytest.approx((0.5 + 0.8) / 14)


def test_ce_f1_zero_denominators_score_zero():
    preds = [_row()]
    golds = [_row()]
    report = ce_f1(preds, golds)
    assert report["micro"]["f1"] == 0.0
    assert all(stats["f1"] == 0.0 for stats in report["per_obs"].values())


def test_ce_f1_subset_five():
    preds = [_row(Cardiomegaly=1, Fracture=1)]
    golds = [_row(Cardiomegaly=1)]
    report = ce_f1(preds, golds, subset=5)
    assert set(report["per_obs"]) == set(OBSERVATIONS_5)
    # Fracture is outside the subset, so the false positive vanishes
    assert report["micro"]["f1"] == pytest.approx(1.0)


def test_ce_f1_micro_matches_count_identity():
    # micro F1 must equal 2tp / (2tp + fp + fn)
    preds = [_row(Edema=1, Pneumonia=1), _row(Pneumonia=1)]
    golds = [_row(Edema=1), _row(Edema=1)]
    report = ce_f1(preds, golds)
    tp, fp, fn = 1, 2, 1
    assert report["micro"]["f1"] == pytest.approx(2 * tp / (2 * tp + fp + fn))


def _loop_ce_f1(pred_labels, gold_labels, subset):
    """``ce_f1`` with its counts taken by one Python loop over the studies
    per observation: the reference its array counts must equal."""
    names = OBSERVATIONS if subset == 14 else OBSERVATIONS_5
    per_obs, ps, rs, f1s = {}, [], [], []
    tp_all = fp_all = fn_all = 0
    for name in names:
        idx = OBSERVATIONS.index(name)
        tp = fp = fn = 0
        for pred, gold in zip(pred_labels, gold_labels):
            p, g = int(pred[idx]), int(gold[idx])
            tp += p & g
            fp += p & (1 - g)
            fn += (1 - p) & g
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_obs[name] = {"precision": precision, "recall": recall, "f1": f1}
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        ps.append(precision)
        rs.append(recall)
        f1s.append(f1)
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro_f1 = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r else 0.0
    return {"per_obs": per_obs, "micro": {"precision": micro_p, "recall": micro_r, "f1": micro_f1},
            "macro": {"precision": sum(ps) / len(ps), "recall": sum(rs) / len(rs), "f1": sum(f1s) / len(f1s)}}


LABEL_ROW = st.lists(st.integers(0, 1), min_size=len(OBSERVATIONS), max_size=len(OBSERVATIONS))


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(LABEL_ROW, LABEL_ROW), max_size=40), subset=st.sampled_from([14, 5]))
def test_ce_f1_equals_the_per_study_loop_exactly(pairs, subset):
    preds, golds = [p for p, _ in pairs], [g for _, g in pairs]
    report = ce_f1(preds, golds, subset=subset)
    assert report == _loop_ce_f1(preds, golds, subset)
    assert all(type(v) is float for row in (report["micro"], report["macro"], *report["per_obs"].values())
               for v in row.values())


def test_ce_f1_validation():
    with pytest.raises(DimensionError):
        ce_f1([_row()], [])
    with pytest.raises(DimensionError):
        ce_f1([[0, 1]], [[0, 1]])
    with pytest.raises(DataError):
        ce_f1([_row()], [_row()], subset=7)


def test_green_score_oracle():
    score, degenerate = green_score(GreenCounts(3, [1, 0, 0, 0, 0, 0]))
    assert score == pytest.approx(0.75)
    assert not degenerate


def test_green_score_degenerate():
    score, degenerate = green_score(GreenCounts(0, [0] * 6))
    assert score == 0.0
    assert degenerate


def test_green_score_monotone_in_errors():
    base = green_score(GreenCounts(4, [0, 1, 0, 0, 0, 0]))[0]
    worse = green_score(GreenCounts(4, [0, 1, 0, 2, 0, 0]))[0]
    assert worse < base
    assert green_score(GreenCounts(4, [0] * 6))[0] == 1.0


def test_green_counts_validation():
    with pytest.raises(DataError):
        GreenCounts(-1, [0] * 6)
    with pytest.raises(DataError):
        GreenCounts(1, [0, -2, 0, 0, 0, 0])
    with pytest.raises(DataError):
        GreenCounts(1, [0] * 5)


def test_corpus_metrics_invariant_to_pair_order():
    pairs = [(["a", "b"], ["a", "c"]), (["the", "cat"], ["the", "cat", "sat"]),
             (["d"], ["d"])]
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    rev_c = cands[::-1]
    rev_r = refs[::-1]
    assert bleu(cands, refs) == pytest.approx(bleu(rev_c, rev_r))
    assert rouge_l(cands, refs) == pytest.approx(rouge_l(rev_c, rev_r))
    assert meteor_simplified(cands, refs) == pytest.approx(meteor_simplified(rev_c, rev_r))
