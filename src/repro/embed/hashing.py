"""Word + character-n-gram feature-hashing embeddings.

Stand-in for the paper's all-MiniLM-L6-v2 sentence embeddings (not
available offline). Each record's serialized text is mapped to a dense
L2-normalised vector by hashing its word unigrams *and* character
4-grams into ``dim`` signed buckets. Word features give clean
cross-entity separation; the character features keep typo'd duplicates
close — so LSH bucketing, MDG's similarity guardrail and CMR's cluster
matching behave like they would on sentence embeddings.

The embedder is deterministic (fixed FNV-1a hash). ``embed_batch`` is
its one kernel: it hashes each distinct word of a batch once, through
a memo that lives only for that call, and turns each row's signed
buckets into a vector with one ``np.bincount``. ``embed_text`` is a
batch of one, and the pandas UDF (`embed_udf`) maps ``embed_batch``
over each Arrow batch of the distributed pipeline.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import functions as F
from pyspark.sql.types import ArrayType, FloatType

DEFAULT_DIM = 256
_CHAR_NGRAM = 4
_FNV_OFFSET = 0xCBF29CE484222325


def _fnv1a(s: str, h: int = _FNV_OFFSET) -> int:
    """Deterministic 64-bit FNV-1a hash (stable across processes).

    ``h`` is the state after a prefix, so ``_fnv1a(b, _fnv1a(a))`` equals
    ``_fnv1a(a + b)``.
    """
    for ch in s:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


_WORD_PREFIX = _fnv1a("W:")
_GRAM_PREFIX = _fnv1a("G:")


def _words(text: str) -> list[str]:
    """Lower-cased words with surrounding punctuation stripped."""
    words = (raw.strip(".,:;|()[]") for raw in str(text).lower().split())
    return [w for w in words if w]


def _word_codes(w: str, dim: int) -> list[int]:
    """Signed buckets of one word's features, as ``bucket * 2 + sign``.

    The features are the unigram ``W:<w>`` and every ``G:`` character
    4-gram of ``" <w> "``; sign 1 adds +1 to the bucket, sign 0 adds -1.
    """
    padded = f" {w} "
    hashes = [_fnv1a(w, _WORD_PREFIX)] + [
        _fnv1a(padded[i : i + _CHAR_NGRAM], _GRAM_PREFIX)
        for i in range(len(padded) - _CHAR_NGRAM + 1)
    ]
    return [(h % dim) * 2 + ((h >> 32) & 1) for h in hashes]


def embed_batch(texts: "list[str] | pd.Series", dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed a batch of strings → (n, dim) float32 matrix of unit rows.

    Each distinct word is hashed once per call: ``memo`` maps it to the
    ``bucket * 2 + sign`` codes of its features. A row is then one
    ``np.bincount`` with ±1 weights. Its counts are small integers in
    float64, so they are exact in any summation order.
    """
    out = np.zeros((len(texts), dim), dtype=np.float32)
    memo: dict[str, list[int]] = {}
    for row, text in enumerate(texts):
        codes: list[int] = []
        for w in _words(text):
            wc = memo.get(w)
            if wc is None:
                wc = memo[w] = _word_codes(w, dim)
            codes.extend(wc)
        if not codes:
            continue
        c = np.asarray(codes)
        v = np.bincount(c >> 1, weights=(c & 1) * 2.0 - 1.0, minlength=dim)
        n = np.linalg.norm(v)
        if n > 0:
            v /= n
        out[row] = v
    return out


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed one string into a unit-norm float32 vector."""
    return embed_batch([text], dim)[0]


def embed_udf(dim: int = DEFAULT_DIM):
    """pandas UDF: string column → array<float> embedding column."""

    @F.pandas_udf(ArrayType(FloatType()))
    def _embed(texts: pd.Series) -> pd.Series:
        return pd.Series(embed_batch(texts, dim).tolist())

    return _embed


def tokens(text: str) -> frozenset[str]:
    """Whitespace/punctuation token set used for Jaccard similarity."""
    out = []
    for raw in str(text).lower().replace("|", " ").split():
        w = raw.strip(".,:;()[]")
        if w and w not in ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8",
                           "t9", "t10", "t11", "t12", "n1", "n2", "n3", "c1"):
            out.append(w)
    return frozenset(out)
