"""Cosine, similarity-matrix, and batch-embedding behavior."""

from __future__ import annotations

import math
import random
from functools import partial

import pytest

from rmoa.accounting import TokenUsage
from rmoa.backends import EmbeddingBatch, HttpEmbeddingBackend
from rmoa.embedding import (
    EmbeddingVector,
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

from conftest import make_mock_bundle
from faults import FaultPlan
from oracles import (
    exact_entries,
    exact_matrix,
    naive_cosine,
    naive_norm,
    random_vectors,
    scaled,
)


def faulty_embedding(fault: str):
    """Mock embeddings whose first call gets ``fault``."""
    return FaultPlan(make_mock_bundle(), {("embedding", 1): fault}).embedding


def vec(*components: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(components))


def refused(size: str) -> str:
    return f"embedding size {size} is outside [1e-140, 1e140]"


class RowBackend:
    """Returns ``rows`` as the batch, whatever the texts."""

    model = "stub"
    max_input_chars = None

    def __init__(self, rows) -> None:
        self.rows = rows

    def embed(self, texts):
        return EmbeddingBatch(vectors=self.rows, usage=TokenUsage(0, 0), model=self.model)


class TestEmbeddingVector:
    @pytest.mark.parametrize(
        ("components", "error", "message"),
        [
            ((math.nan, 1.0), ValueError, "embedding components must be finite"),
            ((math.inf, 1.0), ValueError, "embedding components must be finite"),
            ((math.inf, 1e154, 1e154), ValueError, "embedding components must be finite"),
            ((1e200, 1.0), DegenerateEmbeddingError, refused("1e+200")),
            # each square is finite, but their sum would overflow inside fsum
            ((1e154, 1e154), DegenerateEmbeddingError, refused("1.41e+154")),
            ((1e-170, 1e-170), DegenerateEmbeddingError, refused("1.41e-170")),
            ((0.5e-140,), DegenerateEmbeddingError, refused("5e-141")),
            ((2e140,), DegenerateEmbeddingError, refused("2e+140")),
            ((math.nextafter(1e-140, 0.0),), DegenerateEmbeddingError, refused("1e-140")),
            ((math.nextafter(-1e140, -math.inf),), DegenerateEmbeddingError, refused("1e+140")),
            ((0.0, 0.0), DegenerateEmbeddingError, refused("0")),
            ((1.5e308, 1.5e308), DegenerateEmbeddingError, refused("inf")),
            ((), ValueError, "an embedding vector needs at least one component"),
        ],
        ids=[
            "nan", "inf", "inf-and-overflow", "huge", "overflow", "underflow", "below-range",
            "above-range", "just-below", "just-above", "zero", "size-overflows", "empty",
        ],
    )
    def test_rejected_inputs(self, components, error, message):
        # Non-finite and empty rows raise plain ValueError. A finite row whose
        # size lies outside [1e-140, 1e140], where its squares could sum past
        # the float range or all underflow to zero, raises the subclass.
        with pytest.raises(error) as caught:
            EmbeddingVector(components)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "components",
        [(1e-140,), (-1e140,), (math.nextafter(1e-140, 1.0),), (math.nextafter(1e140, 0.0),)],
        ids=["low-edge", "high-edge", "just-above-low", "just-below-high"],
    )
    def test_sizes_at_and_just_inside_the_edges_are_built(self, components):
        v = EmbeddingVector(components)
        assert v.size == abs(components[0]) == v.norm()
        assert cosine(v, v) == 1.0

    def test_components_are_kept_as_given(self):
        row = (1.5, 2)
        v = EmbeddingVector(row)
        assert v.components is row
        assert [type(c) for c in v.components] == [float, int]
        assert v.norm() == 2.5
        assert v.size == 2.5
        assert EmbeddingVector([3, 4.0]).components == (3, 4.0)
        with pytest.raises(TypeError):
            EmbeddingVector(("1.5", 2))


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
            assert cosine(scaled(a, alpha), b) == pytest.approx(
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
        # refused when the vector is built, before any cosine
        with pytest.raises(DegenerateEmbeddingError, match="outside"):
            cosine(vec(*a), vec(*b))
        with pytest.raises(DegenerateEmbeddingError, match="outside"):
            cosine(vec(*b), vec(*a))

    def test_nonfinite_components_rejected(self):
        with pytest.raises(ValueError):
            vec(float("nan"), 1.0)
        with pytest.raises(ValueError):
            vec(float("inf"), 1.0)


class TestSimilarityMatrix:
    def test_single_vector(self):
        matrix = build_similarity_matrix([vec(2.0, 1.0)])
        assert exact_entries(matrix) == ((1.0,),)

    def test_orthogonal_pair(self):
        matrix = build_similarity_matrix([vec(1.0, 0.0), vec(0.0, 1.0)])
        assert exact_entries(matrix) == ((1.0, 0.0), (0.0, 1.0))

    def test_three_vector_fixture(self):
        matrix = build_similarity_matrix(
            [vec(1.0, 0.0), vec(1.0, 1.0), vec(0.0, 1.0)]
        )
        r = math.sqrt(2) / 2
        expected = ((1.0, r, 0.0), (r, 1.0, r), (0.0, r, 1.0))
        entries = exact_entries(matrix)
        for i in range(3):
            for j in range(3):
                assert entries[i][j] == pytest.approx(expected[i][j], abs=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_similarity_matrix([])

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
            entries = exact_entries(matrix)
            for i in range(n):
                assert entries[i][i] == 1.0
                for j in range(n):
                    assert entries[i][j] == entries[j][i]
                    assert -1.0 <= entries[i][j] <= 1.0

    @pytest.mark.parametrize("dim", [2, 3, 16, 64, 300, 1024])
    def test_bit_identical_to_naive_oracle(self, dim):
        rng = random.Random(dim)
        vectors = random_vectors(rng, 6, dim)
        vectors += [scaled(v, 10.0 ** rng.randint(-6, 6)) for v in vectors[:3]]
        entries = exact_entries(build_similarity_matrix(vectors))
        for i, a in enumerate(vectors):
            assert a.norm() == naive_norm(a)
            assert entries[i][i] == 1.0
            for j, b in enumerate(vectors):
                if i != j:
                    assert cosine(a, b) == naive_cosine(a, b)
                    assert entries[i][j] == naive_cosine(a, b)

    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            exact_matrix(((1.0, 0.5), (0.25, 1.0)))

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            exact_matrix(((0.9, 0.0), (0.0, 1.0)))

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            exact_matrix(((1.0, 1.5), (1.5, 1.0)))


class TestEmbedBatch:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            embed_batch([], MockEmbeddingBackend(), on_event=pytest.fail)

    def test_deterministic_and_order_preserving(self):
        backend = MockEmbeddingBackend(seed=3, dim=16)
        first, _ = embed_batch(["a", "b"], backend, on_event=pytest.fail)
        second, _ = embed_batch(["a", "b"], backend, on_event=pytest.fail)
        assert first == second
        assert first[0] == EmbeddingVector(mock_embed("a", 3, 16))
        assert first[1] == EmbeddingVector(mock_embed("b", 3, 16))

    def test_duplicates_embed_identically(self):
        backend = MockEmbeddingBackend()
        vectors, _ = embed_batch(["x", "x"], backend, on_event=pytest.fail)
        assert vectors[0] == vectors[1]

    def test_truncation_is_reported(self):
        backend = MockEmbeddingBackend(seed=1, dim=8, max_input_chars=10)
        events: list[str] = []
        long_text = "y" * 50
        vectors, _ = embed_batch(["short", long_text], backend, on_event=events.append)
        assert vectors[1] == EmbeddingVector(mock_embed(long_text[:10], 1, 8))
        assert len(events) == 1 and "truncated" in events[0]

    def test_event_sink_is_required(self):
        with pytest.raises(TypeError, match="on_event"):
            embed_batch(["a"], MockEmbeddingBackend())

    @pytest.mark.parametrize("limit", [0, -5])
    @pytest.mark.parametrize(
        "make",
        [MockEmbeddingBackend, partial(HttpEmbeddingBackend, "http://127.0.0.1:1/v1", "m")],
        ids=["mock", "http"],
    )
    def test_input_limit_below_one_is_refused(self, make, limit):
        with pytest.raises(ValueError, match="max_input_chars must be at least 1"):
            make(max_input_chars=limit)

    def test_returns_the_backend_usage(self):
        _, usage = embed_batch(["a", "bb"], MockEmbeddingBackend(), on_event=pytest.fail)
        assert usage == TokenUsage(2, 0)  # ceil(1/4) + ceil(2/4)

    def test_wrong_count_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            embed_batch(["a", "b"], faulty_embedding("short"), on_event=pytest.fail)

    def test_inconsistent_dimensions_is_protocol_error(self):
        with pytest.raises(ProtocolError, match="dimension"):
            embed_batch(["a", "b"], faulty_embedding("ragged"), on_event=pytest.fail)

    @pytest.mark.parametrize(
        "rows", [[[3.0, 4.0], [5, 0]], ((1, 0), (0.0, 2.0))], ids=["lists", "tuples"]
    )
    def test_rows_are_kept_as_given(self, rows):
        vectors, _ = embed_batch(["a", "b"], RowBackend(rows), on_event=pytest.fail)
        for vector, row in zip(vectors, rows):
            assert type(vector.components) is tuple
            assert vector.components == tuple(row)
            assert [type(c) for c in vector.components] == [type(c) for c in row]
            # a tuple is kept, not copied
            assert (vector.components is row) == (type(row) is tuple)
        assert [v.norm() for v in vectors] == [naive_norm(v) for v in vectors]

    def test_string_component_is_a_protocol_error_naming_its_row(self):
        rows = [[3.0, 4.0], ["0.5", 0]]
        with pytest.raises(ProtocolError, match=r"^vector 1: ") as caught:
            embed_batch(["a", "b"], RowBackend(rows), on_event=pytest.fail)
        assert isinstance(caught.value.__cause__, TypeError)

    def test_http_rows_are_kept_as_orjson_decodes_them(self, http_stub):
        rows = [[3, 4.0], [2**53 + 1, -0.5]]
        data = [{"index": i, "embedding": row} for i, row in enumerate(rows)]
        http_stub.script.append((200, {"data": data}))
        backend = HttpEmbeddingBackend(http_stub.base_url, "m")
        vectors, _ = embed_batch(["a", "b"], backend, on_event=pytest.fail)
        # 3 and 2**53 + 1 are JSON integers, which orjson decodes as ints
        assert [list(v.components) for v in vectors] == rows
        assert [[type(c) for c in v.components] for v in vectors] == [[int, float]] * 2

    def test_nan_row_is_value_error(self):
        with pytest.raises(ValueError, match="finite") as caught:
            embed_batch(["a", "b"], faulty_embedding("nan"), on_event=pytest.fail)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ([(1.0, 0.0), (0.0, 0.0)], "vector 1: " + refused("0")),
            ([(1.0, 0.0), (1e200, 1e200), (1e200, -1e200)], "vector 1: " + refused("1.41e+200")),
        ],
        ids=["zero", "overflow"],
    )
    def test_refused_row_is_named(self, rows, message):
        texts = ["t"] * len(rows)
        with pytest.raises(DegenerateEmbeddingError) as caught:
            embed_batch(texts, RowBackend(rows), on_event=pytest.fail)
        assert str(caught.value) == message
