"""Embedding vectors and the pairwise cosine-similarity matrix.

All arithmetic runs through ``math.fsum``, which returns the correctly
rounded sum regardless of operand order. That makes cosine exactly
symmetric in its arguments and makes similarity matrices reproducible
across platforms, which the selection stage relies on for deterministic
tie-breaking. Each vector's norm is computed once, when the vector is
built, so repeated cosines against the same vector pay only for the dot
product.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

from .backends import EmbeddingBackend
from .errors import DegenerateEmbeddingError, DimensionMismatchError, ProtocolError

logger = logging.getLogger(__name__)

# Validation slack for matrix invariants; fsum accumulation error over
# realistic embedding dimensions is orders of magnitude below this.
MATRIX_TOLERANCE = 1e-9


@dataclass(frozen=True)
class EmbeddingVector:
    """An immutable real vector with finite components."""

    components: tuple[float, ...]
    _norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(map(float, self.components))
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("an embedding vector needs at least one component")
        # A NaN or infinite component makes the norm NaN or infinite, so the
        # components are scanned only then. Finite components whose sum of
        # squares overflows inside fsum get the norm inf, as a square would.
        try:
            norm = math.sqrt(math.fsum(map(mul, components, components)))
        except OverflowError:
            norm = math.inf
        if not math.isfinite(norm):
            _require_finite(components)
        object.__setattr__(self, "_norm", norm)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def norm(self) -> float:
        return self._norm

    def scaled(self, factor: float) -> "EmbeddingVector":
        return EmbeddingVector(tuple(c * factor for c in self.components))


def _require_finite(components: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, components)):
        raise ValueError("embedding components must be finite")


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity of two vectors with nonzero finite norms, clamped to [-1, 1]."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    norm_a = a.norm()
    norm_b = b.norm()
    if norm_a == 0.0 or norm_b == 0.0:
        raise DegenerateEmbeddingError("cosine is undefined for zero-norm vectors")
    if norm_a == math.inf or norm_b == math.inf:
        raise DegenerateEmbeddingError("cosine is undefined for vectors whose norm overflows")
    dot = math.fsum(map(mul, a.components, b.components))
    return max(-1.0, min(1.0, dot / (norm_a * norm_b)))


class SimilarityMatrix:
    """Symmetric matrix of pairwise cosine similarities with unit diagonal.

    Entries are stored as nested tuples, so instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[Sequence[float]]) -> None:
        rows = tuple(tuple(float(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0:
            raise ValueError("similarity matrix must have at least one row")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        tol = MATRIX_TOLERANCE
        for i in range(n):
            if abs(rows[i][i] - 1.0) > tol:
                raise ValueError(f"diagonal entry ({i},{i}) is {rows[i][i]!r}, not 1")
            for j in range(n):
                value = rows[i][j]
                if not math.isfinite(value) or not -1.0 - tol <= value <= 1.0 + tol:
                    raise ValueError(f"entry ({i},{j}) out of range: {value!r}")
                if abs(value - rows[j][i]) > tol:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
        object.__setattr__(self, "_entries", rows)

    @property
    def n(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[tuple[float, ...], ...]:
        return self._entries


def build_similarity_matrix(vectors: Sequence[EmbeddingVector]) -> SimilarityMatrix:
    """Pairwise cosine similarities of ``vectors``; exactly symmetric.

    Each off-diagonal entry is computed once and mirrored; the diagonal is
    pinned to 1.0, which is the mathematically exact self-similarity.
    """
    if not vectors:
        raise ValueError("at least one vector is required")
    dimension = vectors[0].dimension
    for index, vector in enumerate(vectors):
        if vector.dimension != dimension:
            raise DimensionMismatchError(
                f"vector {index} has dimension {vector.dimension}, expected {dimension}"
            )
        if vector.norm() == 0.0:
            raise DegenerateEmbeddingError(f"vector {index} has zero norm")
        if vector.norm() == math.inf:
            raise DegenerateEmbeddingError(f"vector {index} has a norm that overflows")
    n = len(vectors)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1.0
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = cosine(vectors[i], vectors[j])
    return SimilarityMatrix(rows)


def embed_batch(
    texts: Sequence[str],
    backend: EmbeddingBackend,
    *,
    ledger=None,
    on_event: Callable[[str], None] | None = None,
) -> list[EmbeddingVector]:
    """Embed ``texts`` in order through ``backend``.

    Texts beyond the backend's declared input limit are truncated first and
    the truncation is reported through ``on_event`` (default: module log).
    The backend must return one row per text, all of one dimension.
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    report = on_event if on_event is not None else logger.info
    limit = getattr(backend, "max_input_chars", None)
    prepared = []
    for index, text in enumerate(texts):
        if limit is not None and len(text) > limit:
            report(
                f"embedding input {index} truncated from {len(text)} to {limit} chars"
            )
            text = text[:limit]
        prepared.append(text)
    batch = backend.embed(prepared)
    if len(batch.vectors) != len(texts):
        raise ProtocolError(
            f"backend returned {len(batch.vectors)} embeddings for {len(texts)} texts"
        )
    vectors = []
    dimension: int | None = None
    for index, row in enumerate(batch.vectors):
        if dimension is None:
            dimension = len(row)
        elif len(row) != dimension:
            raise ProtocolError(
                f"embedding {index} has dimension {len(row)}, expected {dimension}"
            )
        vectors.append(EmbeddingVector(row))
    if ledger is not None:
        ledger.append("embedding", batch.model, batch.usage)
    return vectors
