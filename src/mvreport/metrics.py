"""Evaluation formulas: corpus BLEU-n, ROUGE-L, simplified METEOR,
micro/macro multi-label F1, and the matched-findings/error score."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError

BLEU_EPS = 1e-9
BLEU_MAX_N = 4
ROUGE_BETA = 1.2
METEOR_ALPHA = 0.9
METEOR_GAMMA = 0.5
METEOR_BETA = 3.0

OBSERVATIONS = [
    "Enlarged Cardiomediastinum",
    "Cardiomegaly",
    "Lung Opacity",
    "Lung Lesion",
    "Edema",
    "Consolidation",
    "Pneumonia",
    "Atelectasis",
    "Pneumothorax",
    "Pleural Effusion",
    "Pleural Other",
    "Fracture",
    "Support Devices",
    "No Finding",
]
# CheXpert competition subset
OBSERVATIONS_5 = ["Atelectasis", "Cardiomegaly", "Consolidation", "Edema", "Pleural Effusion"]


def _check_corpus(candidates, references):
    if len(candidates) != len(references):
        raise DimensionError(f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}")
    if not candidates:
        raise DataError("empty corpus")


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates, references) -> list:
    """Corpus BLEU-1..BLEU_MAX_N: clipped n-gram precision with brevity
    penalty; zero counts are epsilon-smoothed to avoid log(0)."""
    _check_corpus(candidates, references)
    cand_len = ref_len = 0
    matches = [0] * BLEU_MAX_N
    totals = [0] * BLEU_MAX_N
    for cand, ref in zip(candidates, references):
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
            cand_counts = _ngrams(cand, n)
            ref_counts = _ngrams(ref, n)
            matches[n - 1] += sum(min(count, ref_counts[gram]) for gram, count in cand_counts.items())
            totals[n - 1] += max(len(cand) - n + 1, 0)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0
    scores = []
    for n in range(1, BLEU_MAX_N + 1):
        log_sum = 0.0
        for k in range(n):
            precision = matches[k] / totals[k] if totals[k] > 0 else 0.0
            log_sum += math.log(precision if precision > 0 else BLEU_EPS)
        scores.append(bp * math.exp(log_sum / n))
    return scores


def _lcs_length(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(candidates, references) -> float:
    """Corpus-averaged LCS F-measure with recall-favoring beta."""
    _check_corpus(candidates, references)
    total = 0.0
    for cand, ref in zip(candidates, references):
        lcs = _lcs_length(cand, ref)
        if lcs == 0 or not cand or not ref:
            continue
        precision = lcs / len(cand)
        recall = lcs / len(ref)
        beta2 = ROUGE_BETA ** 2
        total += (1 + beta2) * precision * recall / (recall + beta2 * precision)
    return total / len(candidates)


def _stem(token: str) -> str:
    for suffix in ("ing", "ed", "es", "s"):
        if token.endswith(suffix) and len(token) > len(suffix) + 2:
            return token[: -len(suffix)]
    return token


def _meteor_alignment(cand, ref):
    """One-to-one unigram alignment (exact first, then stemmed), returning
    matched (cand_pos, ref_pos) pairs in candidate order."""
    used = [False] * len(ref)
    pairs = []
    for exact in (True, False):
        for i, tok in enumerate(cand):
            if any(p[0] == i for p in pairs):
                continue
            for j, rtok in enumerate(ref):
                if used[j]:
                    continue
                hit = tok == rtok if exact else _stem(tok) == _stem(rtok)
                if hit:
                    pairs.append((i, j))
                    used[j] = True
                    break
    pairs.sort()
    return pairs


def _meteor_chunks(pairs) -> int:
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def meteor_simplified(candidates, references) -> float:
    """Unigram METEOR with exact + suffix-stem matching (no synonymy):
    recall-weighted harmonic mean with a fragmentation penalty,
    averaged over the corpus."""
    _check_corpus(candidates, references)
    total = 0.0
    for cand, ref in zip(candidates, references):
        pairs = _meteor_alignment(cand, ref)
        m = len(pairs)
        if m == 0 or not cand or not ref:
            continue
        precision = m / len(cand)
        recall = m / len(ref)
        fmean = precision * recall / (METEOR_ALPHA * precision + (1 - METEOR_ALPHA) * recall)
        chunks = _meteor_chunks(pairs)
        penalty = METEOR_GAMMA * (chunks / m) ** METEOR_BETA
        total += fmean * (1.0 - penalty)
    return total / len(candidates)


def ce_f1(pred_labels, gold_labels, subset: int = 14):
    """Per-observation P/R/F1 plus micro (pooled) and macro (averaged).

    Labels are aligned lists of 14 binary values in the fixed observation
    order. ``subset=5`` restricts scoring to the competition
    observations.
    """
    if len(pred_labels) != len(gold_labels):
        raise DimensionError(f"label list length mismatch: {len(pred_labels)} vs {len(gold_labels)}")
    if subset not in (14, 5):
        raise DataError(f"subset must be 14 or 5, got {subset}")
    names = OBSERVATIONS if subset == 14 else OBSERVATIONS_5
    indices = [OBSERVATIONS.index(name) for name in names]
    for row in list(pred_labels) + list(gold_labels):
        if len(row) != len(OBSERVATIONS):
            raise DimensionError(f"each label row must have {len(OBSERVATIONS)} entries, got {len(row)}")

    pred = np.asarray(pred_labels, dtype=np.int64).reshape(-1, len(OBSERVATIONS))[:, indices]
    gold = np.asarray(gold_labels, dtype=np.int64).reshape(-1, len(OBSERVATIONS))[:, indices]
    tps, fps, fns = (c.sum(axis=0).tolist() for c in (pred & gold, pred & (1 - gold), (1 - pred) & gold))

    per_obs = {}
    tp_all = fp_all = fn_all = 0
    f1s, ps, rs = [], [], []
    for name, tp, fp, fn in zip(names, tps, fps, fns):
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
    return {
        "per_obs": per_obs,
        "micro": {"precision": micro_p, "recall": micro_r, "f1": micro_f1},
        "macro": {
            "precision": sum(ps) / len(ps),
            "recall": sum(rs) / len(rs),
            "f1": sum(f1s) / len(f1s),
        },
    }


@dataclass
class GreenCounts:
    matched_findings: int
    errors: list  # six counts, error types (a)-(f)

    def __post_init__(self):
        if self.matched_findings < 0 or any(e < 0 for e in self.errors):
            raise DataError("green counts must be non-negative")
        if len(self.errors) != 6:
            raise DataError(f"expected 6 error counts, got {len(self.errors)}")


def green_score(counts: GreenCounts):
    """matched / (matched + total errors); (0, 0.0) is scored 0 and flagged."""
    denom = counts.matched_findings + sum(counts.errors)
    if denom == 0:
        return 0.0, True
    return counts.matched_findings / denom, False
