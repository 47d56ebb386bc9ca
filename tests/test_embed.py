"""Unit tests for the hashing embedder and similarity kernels."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.embed.hashing import (
    DEFAULT_DIM, embed_batch, embed_text, tokens,
)
from repro.embed.similarity import cosine, cosine_matrix, jaccard


def _fnv1a_reference(s):
    h = 0xCBF29CE484222325
    for ch in s:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _features_reference(text):
    feats = []
    for raw in str(text).lower().split():
        w = raw.strip(".,:;|()[]")
        if not w:
            continue
        feats.append("W:" + w)
        padded = f" {w} "
        for i in range(len(padded) - 4 + 1):
            feats.append("G:" + padded[i : i + 4])
    return feats


def _embed_text_reference(text, dim=DEFAULT_DIM):
    """The per-text, per-feature loop the batch kernel must reproduce."""
    v = np.zeros(dim, dtype=np.float64)
    for f in _features_reference(text):
        h = _fnv1a_reference(f)
        v[h % dim] += 1.0 if (h >> 32) & 1 else -1.0
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v.astype(np.float32)


_ODD_TEXTS = [
    "", "   \t\n ", ".,:;|()[]", "(.) [;] |", "ab", "x",
    "naïve café Ünïcödé 東京 ß", "word word word word", "a. a, a; (a)",
    "MiXeD CaSe mixed case", "t1: sony | n1: 12.5",
]
_texts = st.lists(
    st.one_of(
        st.sampled_from(_ODD_TEXTS),
        st.text(max_size=40),
        st.lists(
            st.sampled_from(["sony", "camera", "dsc-w80", "7.2mp", "é", "."]),
            max_size=12,
        ).map(" ".join),
    ),
    max_size=12,
)


class TestBatchIdentity:
    """``embed_batch`` is bit-for-bit the per-text reference loop."""

    @settings(max_examples=150, deadline=None)
    @given(_texts, st.sampled_from([DEFAULT_DIM, 32, 7]))
    @example(_ODD_TEXTS, DEFAULT_DIM)
    @example(["same words", "same words", "same"], DEFAULT_DIM)
    def test_batch_equals_reference(self, texts, dim):
        got = embed_batch(texts, dim)
        want = (
            np.stack([_embed_text_reference(t, dim) for t in texts])
            if texts
            else np.zeros((0, dim), dtype=np.float32)
        )
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", _ODD_TEXTS)
    def test_text_is_batch_of_one(self, text):
        assert embed_text(text).tobytes() == embed_batch([text])[0].tobytes()
        assert embed_text(text).tobytes() == _embed_text_reference(text).tobytes()

    def test_records_df_equals_build_records(self, spark):
        """The Spark UDF path and the driver path give the same bits."""
        from repro.core.records import build_records
        from repro.core.spark_pipeline import records_df
        from repro.datasets.generator import generate
        from repro.datasets.registry import spec as get_spec

        sp = get_spec("cora", 0.08)
        pdf = generate(sp)
        recs, _ = build_records(pdf, sp)
        rows = records_df(spark, pdf, sp).select("record_id", "vec").collect()
        spark_vecs = {
            int(r["record_id"]): np.array(r["vec"], dtype=np.float32)
            for r in rows
        }
        assert sorted(spark_vecs) == sorted(r.rid for r in recs)
        for r in recs:
            assert spark_vecs[r.rid].tobytes() == r.vec.tobytes(), r.rid


class TestEmbedText:
    def test_unit_norm(self):
        v = embed_text("hello world example")
        assert np.isclose(np.linalg.norm(v), 1.0, atol=1e-5)

    def test_deterministic(self):
        assert np.array_equal(embed_text("abc def"), embed_text("abc def"))

    def test_dim(self):
        assert embed_text("x", dim=32).shape == (32,)
        assert embed_text("x").shape == (DEFAULT_DIM,)

    def test_empty_string_zero_vector(self):
        assert np.linalg.norm(embed_text("")) == 0.0

    def test_similar_strings_close(self):
        a = embed_text("konstantin research paper entity resolution")
        b = embed_text("konstantin reserch paper entity resolution")  # typo
        assert cosine(a, b) > 0.75

    def test_dissimilar_strings_far(self):
        a = embed_text("konstantin research paper")
        b = embed_text("zebra quantum flux oscillator")
        assert cosine(a, b) < 0.25

    def test_case_insensitive(self):
        assert np.array_equal(embed_text("Hello World"), embed_text("hello world"))

    def test_word_order_invariant(self):
        # bag-of-features: permuting words should not change the vector
        assert np.allclose(
            embed_text("alpha beta gamma"), embed_text("gamma alpha beta")
        )


class TestEmbedBatch:
    def test_matches_single(self):
        texts = ["one two", "three four", ""]
        batch = embed_batch(texts)
        for i, t in enumerate(texts):
            assert np.array_equal(batch[i], embed_text(t))

    def test_empty_batch(self):
        assert embed_batch([]).shape == (0, DEFAULT_DIM)


class TestTokens:
    def test_strips_attr_labels(self):
        assert tokens("t1: foo bar | n1: 3") >= {"foo", "bar", "3"}
        assert "t1" not in tokens("t1: foo")

    def test_lowercases(self):
        assert tokens("FOO Bar") == frozenset({"foo", "bar"})

    def test_empty(self):
        assert tokens("") == frozenset()


class TestCosine:
    def test_identical(self):
        v = embed_text("same text")
        assert np.isclose(cosine(v, v), 1.0)

    def test_zero_vector(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0

    def test_symmetric(self):
        a, b = embed_text("aa bb"), embed_text("cc dd")
        assert np.isclose(cosine(a, b), cosine(b, a))


class TestCosineMatrix:
    def test_shape_and_diagonal(self):
        m = np.stack([embed_text(t) for t in ["a b", "c d", "e f"]])
        s = cosine_matrix(m)
        assert s.shape == (3, 3)
        assert np.allclose(np.diag(s), 1.0)

    def test_symmetric(self):
        m = np.stack([embed_text(t) for t in ["ab cd", "ef gh"]])
        s = cosine_matrix(m)
        assert np.allclose(s, s.T)

    def test_matches_pairwise(self):
        m = np.stack([embed_text(t) for t in ["aa", "bb", "aa bb"]])
        s = cosine_matrix(m)
        assert np.isclose(s[0, 2], cosine(m[0], m[2]), atol=1e-6)

    def test_empty(self):
        assert cosine_matrix(np.zeros((0, 4))).shape == (0, 0)

    def test_zero_rows_safe(self):
        m = np.vstack([np.zeros(8), np.ones(8)])
        s = cosine_matrix(m)
        assert s[0, 1] == 0.0


class TestJaccard:
    def test_identical(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_one_empty(self):
        assert jaccard(frozenset(), frozenset("a")) == 0.0

    def test_half_overlap(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert jaccard(a, b) == pytest.approx(1 / 3)


class TestEmbedUDF:
    def test_udf_matches_local(self, spark):
        from pyspark.sql import functions as F

        from repro.embed.hashing import embed_udf

        texts = ["alpha beta", "gamma delta epsilon", ""]
        df = spark.createDataFrame([(t,) for t in texts], ["text"])
        rows = (
            df.withColumn("vec", embed_udf(32)(F.col("text")))
            .orderBy("text")
            .collect()
        )
        for row in rows:
            expected = embed_text(row["text"], 32)
            assert np.allclose(np.array(row["vec"]), expected, atol=1e-6)
