"""Reference decoding loop: one full-prefix decoder call per hypothesis per step.

This is the loop that ``kgrg.generate`` replaced with cached steps that
decode all live hypotheses as one batch; the tests require both to agree.
It records the autodiff graph of every call, as the loop did.
"""

import numpy as np

from mvreport import autodiff as ad
from mvreport.data import Batch
from mvreport.kgrg import GenerationOutput, decoder_forward, stage2_knowledge
from mvreport.text import BOS_ID, EOS_ID


def next_logprobs(prefix, knowledge, params, config) -> np.ndarray:
    ids = np.asarray([prefix], dtype=np.int64)
    logits = decoder_forward(ids, knowledge, params, config)
    logp = ad.log_softmax_rows(logits)
    return logp.data[0, -1].astype(np.float64)


def reference_generate(study, params, vocab, config, mode="greedy", beam_width=1) -> GenerationOutput:
    knowledge = stage2_knowledge(Batch([study]), params, vocab, config)
    if mode == "greedy":
        beam_width = 1
    # hypothesis: (ids-after-BOS tuple, logprobs tuple, score, finished)
    hyps = [((), (), 0.0, False)]
    for _ in range(config.max_tokens):
        candidates = []
        for ids, lps, score, finished in hyps:
            if finished:
                candidates.append((ids, lps, score, True))
                continue
            logp = next_logprobs([BOS_ID, *ids], knowledge, params, config)
            order = np.argsort(-logp, kind="stable")[:beam_width]
            for tok in order:
                tok = int(tok)
                if tok == EOS_ID:
                    candidates.append((ids, lps, score + logp[tok], True))
                else:
                    candidates.append((ids + (tok,), lps + (logp[tok],), score + logp[tok], False))
        candidates.sort(key=lambda c: (-c[2], c[0]))
        hyps = candidates[:beam_width]
        if all(h[3] for h in hyps):
            break
    best = hyps[0]
    return GenerationOutput(
        token_ids=list(best[0]),
        token_logprobs=[float(v) for v in best[1]],
        stopped_by="eos" if best[3] else "max_len",
    )
