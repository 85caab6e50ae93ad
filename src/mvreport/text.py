"""Text utilities: tokenization, indication cleaning, fallback report
serialization, and the vocabulary."""

from __future__ import annotations

import hashlib
import re

import numpy as np

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED = ["<pad>", "<bos>", "<eos>", "<unk>"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")
_GENDER_MALE_RE = re.compile(r"\b(?:m|man)\b", re.IGNORECASE)
_GENDER_FEMALE_RE = re.compile(r"\b(?:f|woman)\b", re.IGNORECASE)
_STRAY_HYPHEN_RE = re.compile(r"(?<![a-zA-Z0-9])-|-(?![a-zA-Z0-9])")

# Sentences opening with these phrases are treated as pure negations.
NEGATION_PREFIXES = ("no ", "not ", "without ", "negative for ", "free of ")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens; punctuation splits except word-internal hyphens."""
    return _TOKEN_RE.findall(text.lower())


def pad_ids(sequences: list) -> np.ndarray:
    """A list of id sequences as one ``[n, longest]`` int64 array, right-padded with ``PAD_ID``."""
    ids = np.full((len(sequences), max(map(len, sequences))), PAD_ID, dtype=np.int64)
    for row, seq in zip(ids, sequences):
        row[: len(seq)] = seq
    return ids


def clean_indication(raw: str | None) -> str | None:
    """Strip de-identification noise and normalize gender words.

    Removes underscore runs and ``@``, drops punctuation other than
    word-internal hyphens, maps M/F/man/woman to male/female, lowercases,
    and collapses whitespace. Returns None when nothing remains.
    """
    if raw is None:
        return None
    s = re.sub(r"[_@]+", " ", raw)
    s = re.sub(r"[^a-zA-Z0-9\s-]+", " ", s)
    s = _STRAY_HYPHEN_RE.sub(" ", s)
    s = _GENDER_FEMALE_RE.sub("female", s)
    s = _GENDER_MALE_RE.sub("male", s)
    s = " ".join(s.lower().split())
    return s or None


def fallback_serialize(report: str) -> list[str]:
    """Keyword-style serialization when no external one is provided.

    Splits into sentences, drops pure-negation sentences, and returns the
    remaining content tokens in order. Falls back to the full report
    tokens so the result is never empty for a non-empty report.
    """
    tokens: list[str] = []
    for sentence in re.split(r"[.!?;]+", report):
        stripped = sentence.strip().lower()
        if not stripped:
            continue
        if any(stripped.startswith(prefix) for prefix in NEGATION_PREFIXES):
            continue
        tokens.extend(tokenize(stripped))
    return tokens if tokens else tokenize(report)


class Vocabulary:
    """Token <-> id map with reserved PAD/BOS/EOS/UNK ids."""

    def __init__(self, tokens=()):
        self.token_to_id: dict[str, int] = {}
        self.id_to_token: list[str] = []
        for tok in (*RESERVED, *tokens):
            self.add(tok)

    def add(self, token: str) -> int:
        if token not in self.token_to_id:
            self.token_to_id[token] = len(self.id_to_token)
            self.id_to_token.append(token)
        return self.token_to_id[token]

    @classmethod
    def build(cls, token_sequences) -> "Vocabulary":
        """First-occurrence-ordered vocabulary over an iterable of token lists."""
        return cls(tok for seq in token_sequences for tok in seq)

    def __len__(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens, add_bos_eos: bool = False, max_len: int | None = None) -> list[int]:
        ids = [self.token_to_id.get(tok, UNK_ID) for tok in tokens]
        if max_len is not None:
            budget = max_len - (2 if add_bos_eos else 0)
            ids = ids[: max(budget, 0)]
        if add_bos_eos:
            ids = [BOS_ID] + ids + [EOS_ID]
        return ids

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[i] for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID)]

    def content_hash(self) -> str:
        payload = "\x00".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
