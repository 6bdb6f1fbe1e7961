"""Embedding vectors and the pairwise cosine-similarity matrix.

Exact values run through ``math.fsum``, which returns the correctly
rounded sum regardless of operand order. That makes ``cosine`` exactly
symmetric in its arguments and makes similarity matrices reproducible
across platforms, which the selection stage relies on for deterministic
tie-breaking.

Exact values are also costly: one ``fsum`` dot product over a 1024-dim
vector takes about ten times as long as ``math.hypot`` over it. Selection
and the similarity stop only ever compare cosines, so they decide on
screened cosines (``screened_cosine``), each built from C-loop norms and
carrying a proven error radius, and ask for an exact value only when an
interval is too close to call. A vector's exact norm is computed on first
use; its ``size`` (``math.hypot``) is computed when it is built and serves
the screen and the checks that the vector can be compared at all: its
components are finite and its size lies in ``[1e-140, 1e140]``, where the
exact norm is positive and finite and the screen's error bound holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence

from .accounting import TokenUsage
from .backends import EmbeddingBackend
from .errors import DegenerateEmbeddingError, DimensionMismatchError, ProtocolError

# The sizes a vector may have: in this range the exact norm is provably
# positive and finite and the screen's error bound holds, since no square
# overflows and what underflows is negligible against the bound.
_MIN_SIZE, _MAX_SIZE = 1e-140, 1e140

# The screen's error unit, 64u with u = 2**-53; see ``screened_cosine``.
_SCREEN_UNIT = 64 * 2.0**-53


@dataclass(frozen=True)
class EmbeddingVector:
    """An immutable real vector with finite components and a size in
    ``[1e-140, 1e140]``.

    Components are floats or ints, kept as given (a tuple is not copied);
    ``size`` is their ``math.hypot``, within 1 ulp of the Euclidean norm, and
    ``norm()`` the exact ``fsum`` norm, computed once on first call. A
    non-number component raises ``TypeError``; a NaN, infinite or empty row
    ``ValueError``; a finite row of any other size ``DegenerateEmbeddingError``.
    """

    components: tuple[float, ...]
    size: float = field(init=False, repr=False, compare=False)
    _norm: float | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(self.components)
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("an embedding vector needs at least one component")
        # hypot checks every component: a non-number raises TypeError, and a
        # NaN or infinity makes the size non-finite, the one case scanned again.
        size = math.hypot(*components)
        if not math.isfinite(size) and not all(map(math.isfinite, components)):
            raise ValueError("embedding components must be finite")
        if not _MIN_SIZE <= size <= _MAX_SIZE:
            raise DegenerateEmbeddingError(
                f"embedding size {size:.3g} is outside [1e-140, 1e140]"
            )
        object.__setattr__(self, "size", size)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def norm(self) -> float:
        """The ``fsum`` norm."""
        norm = self._norm
        if norm is None:
            norm = math.sqrt(math.fsum(map(mul, self.components, self.components)))
            object.__setattr__(self, "_norm", norm)
        return norm


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    dot = math.fsum(map(mul, a.components, b.components))
    return max(-1.0, min(1.0, dot / (a.norm() * b.norm())))


def screened_cosine(a: EmbeddingVector, b: EmbeddingVector) -> tuple[float, float]:
    """An estimate of ``cosine(a, b)`` and a radius its error cannot exceed.

    ``a`` and ``b`` must have equal dimensions. The estimate is
    ``(A² + B² − D²) / (2AB)`` clamped to [-1, 1], with ``A``, ``B`` their
    sizes and ``D = math.dist(a, b)``: no ``fsum`` runs.

    The radius is ``64u·(A/B + B/A + 1)`` with ``u = 2**-53``. Let ``a``,
    ``b``, ``d`` be the true norms of the two vectors and of their
    difference, and ``c`` the true cosine, so ``2abc = a² + b² − d²``.

    - ``hypot`` and ``dist`` err by under 1 ulp (documented for CPython
      >= 3.10), so ``A`` and ``B`` lie within 2u of ``a`` and ``b``
      (relative). ``dist`` also rounds each difference (relative u), so
      ``D`` lies within 3.01u of ``d``.
    - Squaring and adding then put the numerator within
      ``6.02u(a² + b²) + 7.03u·d² + u·(a² + b²) ≤ 21.1u(a² + b²)`` of
      ``2abc``, using ``d² ≤ 2(a² + b²)``. The denominator and the
      division add a relative 6.02u, so the quotient lies within
      ``10.6u(a/b + b/a) + 6.1u`` of ``c``.
    - ``cosine`` lies within 8.2u of ``c``: each product rounds (relative
      u, at most ``u·ab`` in all by Cauchy–Schwarz), ``fsum`` rounds once,
      each norm is within 2.01u and the last product and division add 2u.
    - Clamping to [-1, 1] is 1-Lipschitz and adds nothing.

    So the two values differ by at most ``16u·(A/B + B/A + 1)``, since
    ``A/B + B/A ≥ 2`` and ``A/B`` is within ``1 + 5u`` of ``a/b``. The
    factor 4 left over covers the rounding of the radius and of the bounds
    ``estimate ± radius`` that callers form. Every size lies in
    ``[1e-140, 1e140]`` (``EmbeddingVector``), so no square overflows, and a
    product that underflows errs by under ``2**-1074``, which is negligible
    against ``u·ab ≥ 1e-296``. ``hypot`` and ``dist`` round an int beyond
    2**53 (relative u), which moves the estimate by at most 2u more.

    On the 10k seeded pairs of ``tests/test_screen.py`` (dimensions 2 to
    1024, scales 1e±100, size ratios up to 1e3, near-parallel and
    near-antiparallel pairs) the largest error is 2.8 units of
    ``u·(A/B + B/A + 1)``.
    """
    size_a = a.size
    size_b = b.size
    gap = math.dist(a.components, b.components)
    estimate = (size_a * size_a + size_b * size_b - gap * gap) / (2.0 * size_a * size_b)
    radius = _SCREEN_UNIT * (size_a / size_b + size_b / size_a + 1.0)
    return max(-1.0, min(1.0, estimate)), radius


class SimilarityMatrix:
    """Square matrix of pairwise cosine similarities with unit diagonal.

    ``build_similarity_matrix`` builds it. Each entry is kept as an
    interval around its screened cosine (``low`` and ``high``), together
    with the vectors: ``exact(i, j)`` refines one entry with ``cosine`` and
    caches it. An entry whose bounds meet is exact: the diagonal or a
    refined entry.

    The caches are idempotent: a refinement computes the same value
    whichever thread runs it first, and the bounds hold the entry at every
    step of its update, so instances are still safe to share across threads.
    """

    __slots__ = ("_low", "_high", "_vectors", "_twins")

    def __init__(
        self,
        low: list[list[float]],
        high: list[list[float]],
        vectors: tuple[EmbeddingVector, ...],
        twins: tuple[int, ...],
    ) -> None:
        self._low = low
        self._high = high
        self._vectors = vectors
        self._twins = twins

    @property
    def n(self) -> int:
        return len(self._twins)

    def twin(self, i: int) -> int:
        """Lowest index whose vector has the components of vector ``i``.

        Equal vectors have equal exact entries against every other index;
        only equal int and float rows may differ by rounding against an int
        beyond 2**53.
        """
        return self._twins[i]

    def bounds(self, i: int, columns: Iterable[int]) -> tuple[list[float], list[float]]:
        """Lower and upper bounds of the entries ``(i, j)``, ``j`` in ``columns``."""
        low = self._low[i]
        high = self._high[i]
        return [low[j] for j in columns], [high[j] for j in columns]

    def exact(self, i: int, j: int) -> float:
        """The exact entry ``(i, j)``: ``cosine`` of the two vectors, 1.0 on the diagonal."""
        low = self._low[i][j]
        if low == self._high[i][j]:
            return low
        value = cosine(self._vectors[min(i, j)], self._vectors[max(i, j)])
        self._low[i][j] = self._low[j][i] = value
        self._high[i][j] = self._high[j][i] = value
        return value


def build_similarity_matrix(vectors: Sequence[EmbeddingVector]) -> SimilarityMatrix:
    """Pairwise cosine similarities of ``vectors``; exactly symmetric.

    Each off-diagonal pair is screened once (``screened_cosine``) and
    refined to its exact ``cosine`` only when asked; the diagonal is pinned
    to 1.0, which is the mathematically exact self-similarity.
    """
    if not vectors:
        raise ValueError("at least one vector is required")
    dimension = vectors[0].dimension
    for index, vector in enumerate(vectors):
        if vector.dimension != dimension:
            raise DimensionMismatchError(
                f"vector {index} has dimension {vector.dimension}, expected {dimension}"
            )
    n = len(vectors)
    low = [[1.0] * n for _ in range(n)]
    high = [[1.0] * n for _ in range(n)]
    twins = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            estimate, radius = screened_cosine(vectors[i], vectors[j])
            low[i][j] = low[j][i] = estimate - radius
            high[i][j] = high[j][i] = estimate + radius
            if twins[j] == j and vectors[i] == vectors[j]:
                twins[j] = i
    return SimilarityMatrix(low, high, tuple(vectors), tuple(twins))


def embed_batch(
    texts: Sequence[str],
    backend: EmbeddingBackend,
    *,
    on_event: Callable[[str], None],
) -> tuple[list[EmbeddingVector], TokenUsage]:
    """Embed ``texts`` in order through ``backend``; return the vectors and the usage.

    Texts beyond the backend's declared input limit are truncated first and
    the truncation is reported through ``on_event``. The backend must
    return one row per text, all of one dimension and of floats or ints; a
    row holding a non-number raises ``ProtocolError`` and a finite row outside
    the size range ``DegenerateEmbeddingError``, naming it (``vector i: ...``).
    """
    if not texts:
        raise ValueError("texts must be nonempty")
    limit = getattr(backend, "max_input_chars", None)
    prepared = []
    for index, text in enumerate(texts):
        if limit is not None and len(text) > limit:
            on_event(
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
        try:
            vectors.append(EmbeddingVector(row))
        except DegenerateEmbeddingError as exc:
            raise DegenerateEmbeddingError(f"vector {index}: {exc}") from None
        except TypeError as exc:
            raise ProtocolError(f"vector {index}: {exc}") from exc
    return vectors, batch.usage
