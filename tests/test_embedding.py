"""Cosine, similarity-matrix, and batch-embedding behavior."""

from __future__ import annotations

import math
import random

import pytest

from rmoa.accounting import TokenUsage, UsageLedger
from rmoa.backends import EmbeddingBatch
from rmoa.embedding import (
    EmbeddingVector,
    SimilarityMatrix,
    build_similarity_matrix,
    cosine,
    embed_batch,
)
from rmoa.errors import (
    DegenerateEmbeddingError,
    DimensionMismatchError,
    ProtocolError,
)
from rmoa.mockbackend import MockEmbeddingBackend, mock_embed

from oracles import naive_cosine, naive_norm, random_vectors


def vec(*components: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(components))


class TestEmbeddingVector:
    @pytest.mark.parametrize(
        ("components", "error", "message"),
        [
            ((math.nan, 1.0), ValueError, "embedding components must be finite"),
            ((math.inf, 1.0), ValueError, "embedding components must be finite"),
            ((math.inf, 1e154, 1e154), ValueError, "embedding components must be finite"),
            ((1e154, 1e154), DegenerateEmbeddingError, "vector 0 has a norm that overflows"),
            ((1e-170, 1e-170), DegenerateEmbeddingError, "vector 0 has zero norm"),
            ((), ValueError, "an embedding vector needs at least one component"),
        ],
        ids=["nan", "inf", "inf-and-overflow", "overflow", "underflow", "empty"],
    )
    def test_rejected_inputs(self, components, error, message):
        # Non-finite and empty rows are refused when the vector is built; a
        # finite row whose squares sum past the float range (or all underflow
        # to zero, though its hypot size is positive) is built with the norm
        # inf (or 0) and refused where the layer compares it.
        with pytest.raises(error) as caught:
            build_similarity_matrix([EmbeddingVector(components)])
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_huge_finite_components_give_an_infinite_norm(self):
        assert vec(1e200, 1.0).norm() == math.inf
        # each square is finite, but their sum overflows inside fsum
        assert vec(1e154, 1e154).norm() == math.inf

    def test_components_are_converted_to_floats(self):
        v = EmbeddingVector(("1.5", 2))
        assert v.components == (1.5, 2.0)
        assert type(v.components) is tuple
        assert all(type(c) is float for c in v.components)
        assert v.norm() == 2.5
        assert v.size == 2.5


class TestCosine:
    def test_self_similarity_is_one(self):
        rng = random.Random(11)
        for v in [vec(3.0, 4.0), vec(-1.0, 2.0, 5.0), *random_vectors(rng, 5, 8)]:
            assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine(vec(1.0, 0.0), vec(0.0, 1.0)) == 0.0

    def test_forty_five_degrees(self):
        assert cosine(vec(1.0, 0.0), vec(1.0, 1.0)) == pytest.approx(
            math.sqrt(2) / 2, abs=1e-9
        )

    def test_symmetric_in_arguments(self):
        rng = random.Random(7)
        for _ in range(50):
            a, b = random_vectors(rng, 2, rng.randint(2, 32))
            assert cosine(a, b) == cosine(b, a)

    def test_scale_invariance(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b = random_vectors(rng, 2, rng.randint(2, 16))
            alpha = rng.uniform(1e-3, 1e3)
            assert cosine(a.scaled(alpha), b) == pytest.approx(
                cosine(a, b), abs=1e-9
            )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine(vec(1.0, 0.0), vec(1.0, 0.0, 0.0))

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine(vec(0.0, 0.0), vec(1.0, 0.0))

    @pytest.mark.parametrize(
        ("a", "b"),
        [
            ((1e200, 1e200), (1e200, -1e200)),
            ((1e200, 1e200), (1e200, 1.0)),
            ((1.0, 0.0), (1e200, 1.0)),
        ],
        ids=["inf-minus-inf-dot", "nan-ratio", "one-overflowing-norm"],
    )
    def test_overflowing_norm_rejected(self, a, b):
        with pytest.raises(DegenerateEmbeddingError, match="norm overflows"):
            cosine(vec(*a), vec(*b))
        with pytest.raises(DegenerateEmbeddingError, match="norm overflows"):
            cosine(vec(*b), vec(*a))

    def test_nonfinite_components_rejected(self):
        with pytest.raises(ValueError):
            vec(float("nan"), 1.0)
        with pytest.raises(ValueError):
            vec(float("inf"), 1.0)


class TestSimilarityMatrix:
    def test_single_vector(self):
        matrix = build_similarity_matrix([vec(2.0, 1.0)])
        assert matrix.entries == ((1.0,),)

    def test_orthogonal_pair(self):
        matrix = build_similarity_matrix([vec(1.0, 0.0), vec(0.0, 1.0)])
        assert matrix.entries == ((1.0, 0.0), (0.0, 1.0))

    def test_three_vector_fixture(self):
        matrix = build_similarity_matrix(
            [vec(1.0, 0.0), vec(1.0, 1.0), vec(0.0, 1.0)]
        )
        r = math.sqrt(2) / 2
        expected = ((1.0, r, 0.0), (r, 1.0, r), (0.0, r, 1.0))
        for i in range(3):
            for j in range(3):
                assert matrix.entries[i][j] == pytest.approx(expected[i][j], abs=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_similarity_matrix([])

    def test_degenerate_vector_named(self):
        with pytest.raises(DegenerateEmbeddingError, match="1"):
            build_similarity_matrix([vec(1.0, 0.0), vec(0.0, 0.0)])

    def test_overflowing_norm_named(self):
        with pytest.raises(DegenerateEmbeddingError, match="^vector 1 has a norm that overflows$"):
            build_similarity_matrix([vec(1.0, 0.0), vec(1e200, 1e200), vec(1e200, -1e200)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_similarity_matrix([vec(1.0, 0.0), vec(1.0, 0.0, 0.0)])

    def test_invariants_on_random_inputs(self):
        rng = random.Random(29)
        for _ in range(200):
            dim = rng.randint(2, 64)
            vectors = random_vectors(rng, rng.randint(1, 6), dim)
            matrix = build_similarity_matrix(vectors)
            n = matrix.n
            for i in range(n):
                assert matrix.entries[i][i] == 1.0
                for j in range(n):
                    assert matrix.entries[i][j] == matrix.entries[j][i]
                    assert -1.0 <= matrix.entries[i][j] <= 1.0

    @pytest.mark.parametrize("dim", [2, 3, 16, 64, 300, 1024])
    def test_bit_identical_to_naive_oracle(self, dim):
        rng = random.Random(dim)
        vectors = random_vectors(rng, 6, dim)
        vectors += [v.scaled(10.0 ** rng.randint(-6, 6)) for v in vectors[:3]]
        matrix = build_similarity_matrix(vectors)
        for i, a in enumerate(vectors):
            assert a.norm() == naive_norm(a)
            assert matrix.entries[i][i] == 1.0
            for j, b in enumerate(vectors):
                if i != j:
                    assert cosine(a, b) == naive_cosine(a, b)
                    assert matrix.entries[i][j] == naive_cosine(a, b)

    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            SimilarityMatrix(((1.0, 0.5), (0.25, 1.0)))

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(((0.9, 0.0), (0.0, 1.0)))

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SimilarityMatrix(((1.0, 1.5), (1.5, 1.0)))


class TestEmbedBatch:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            embed_batch([], MockEmbeddingBackend())

    def test_deterministic_and_order_preserving(self):
        backend = MockEmbeddingBackend(seed=3, dim=16)
        first = embed_batch(["a", "b"], backend)
        second = embed_batch(["a", "b"], backend)
        assert first == second
        assert first[0] == mock_embed("a", 3, 16)
        assert first[1] == mock_embed("b", 3, 16)

    def test_duplicates_embed_identically(self):
        backend = MockEmbeddingBackend()
        vectors = embed_batch(["x", "x"], backend)
        assert vectors[0] == vectors[1]

    def test_truncation_is_reported(self):
        backend = MockEmbeddingBackend(seed=1, dim=8, max_input_chars=10)
        events: list[str] = []
        long_text = "y" * 50
        vectors = embed_batch(["short", long_text], backend, on_event=events.append)
        assert vectors[1] == mock_embed(long_text[:10], 1, 8)
        assert len(events) == 1 and "truncated" in events[0]

    def test_ledger_records_one_embedding_entry(self):
        ledger = UsageLedger()
        embed_batch(["a", "bb"], MockEmbeddingBackend(), ledger=ledger)
        entries = ledger.entries
        assert len(entries) == 1
        assert entries[0].kind == "embedding"
        assert entries[0].usage.prompt_tokens == 2  # ceil(1/4) + ceil(2/4)

    def test_wrong_count_is_protocol_error(self):
        class ShortBackend:
            model = "stub"
            max_input_chars = None

            def embed(self, texts):
                return EmbeddingBatch(
                    vectors=((1.0, 0.0),), usage=TokenUsage(0, 0), model=self.model
                )

        with pytest.raises(ProtocolError):
            embed_batch(["a", "b"], ShortBackend())

    def test_inconsistent_dimensions_is_protocol_error(self):
        class RaggedBackend:
            model = "stub"
            max_input_chars = None

            def embed(self, texts):
                return EmbeddingBatch(
                    vectors=((1.0, 0.0), (1.0, 0.0, 0.0)),
                    usage=TokenUsage(0, 0),
                    model=self.model,
                )

        with pytest.raises(ProtocolError, match="dimension"):
            embed_batch(["a", "b"], RaggedBackend())

    @pytest.mark.parametrize(
        ("rows", "expected"),
        [
            ([[3.0, 4.0], ["0.5", 0]], ((3.0, 4.0), (0.5, 0.0))),
            (((1, 0), (0.0, 2.0)), ((1.0, 0.0), (0.0, 2.0))),
        ],
        ids=["lists", "tuples"],
    )
    def test_rows_become_float_tuples(self, rows, expected):
        class RowBackend:
            model = "stub"
            max_input_chars = None

            def embed(self, texts):
                return EmbeddingBatch(vectors=rows, usage=TokenUsage(0, 0), model=self.model)

        vectors = embed_batch(["a", "b"], RowBackend())
        assert tuple(v.components for v in vectors) == expected
        assert all(type(c) is float for v in vectors for c in v.components)
        assert [v.norm() for v in vectors] == [naive_norm(v) for v in vectors]

    def test_nan_row_is_value_error(self):
        class NanBackend:
            model = "stub"
            max_input_chars = None

            def embed(self, texts):
                return EmbeddingBatch(
                    vectors=((1.0, 0.0), (math.nan, 0.0)),
                    usage=TokenUsage(0, 0),
                    model=self.model,
                )

        with pytest.raises(ValueError, match="finite"):
            embed_batch(["a", "b"], NanBackend())
