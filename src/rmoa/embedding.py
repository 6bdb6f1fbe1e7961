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
the screen and the non-finite check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Iterable, Sequence

from .backends import EmbeddingBackend
from .errors import DegenerateEmbeddingError, DimensionMismatchError, ProtocolError

logger = logging.getLogger(__name__)

# Validation slack for matrix invariants; fsum accumulation error over
# realistic embedding dimensions is orders of magnitude below this.
MATRIX_TOLERANCE = 1e-9

# Sizes for which the exact norm is provably positive and finite and the
# screen's error bound holds: no square overflows, and what underflows is
# negligible against the bound.
_SCREENABLE_SIZES = (1e-140, 1e140)

# The screen's error unit, 64u with u = 2**-53; see ``screened_cosine``.
_SCREEN_UNIT = 64 * 2.0**-53


@dataclass(frozen=True)
class EmbeddingVector:
    """An immutable real vector with finite components.

    ``size`` is ``math.hypot`` of the components, within 1 ulp of the
    Euclidean norm; ``norm()`` is the exact ``fsum`` norm, computed once on
    first call.
    """

    components: tuple[float, ...]
    size: float = field(init=False, repr=False, compare=False)
    _norm: float | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple(map(float, self.components))
        object.__setattr__(self, "components", components)
        if not components:
            raise ValueError("an embedding vector needs at least one component")
        # A NaN or infinite component makes the size NaN or infinite, so the
        # components are scanned only then.
        size = math.hypot(*components)
        if not math.isfinite(size):
            _require_finite(components)
        object.__setattr__(self, "size", size)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def norm(self) -> float:
        """The ``fsum`` norm; finite components whose sum of squares
        overflows get ``inf``, as a square would."""
        norm = self._norm
        if norm is None:
            try:
                norm = math.sqrt(math.fsum(map(mul, self.components, self.components)))
            except OverflowError:
                norm = math.inf
            object.__setattr__(self, "_norm", norm)
        return norm

    def scaled(self, factor: float) -> "EmbeddingVector":
        return EmbeddingVector(tuple(c * factor for c in self.components))


def _require_finite(components: tuple[float, ...]) -> None:
    if not all(map(math.isfinite, components)):
        raise ValueError("embedding components must be finite")


def screenable(vector: EmbeddingVector) -> bool:
    """Is ``vector.size`` in the range where the screen's bound holds?

    There the exact norm is also positive and finite, so a cosine against
    a vector of the same dimension cannot raise.
    """
    low, high = _SCREENABLE_SIZES
    return low <= vector.size <= high


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


def screened_cosine(a: EmbeddingVector, b: EmbeddingVector) -> tuple[float, float]:
    """An estimate of ``cosine(a, b)`` and a radius its error cannot exceed.

    ``a`` and ``b`` must have equal dimensions. When both are
    ``screenable``, the estimate is ``(A² + B² − D²) / (2AB)`` clamped to
    [-1, 1], with ``A``, ``B`` their sizes and ``D = math.dist(a, b)``: no
    ``fsum`` runs. Otherwise it is ``cosine(a, b)`` with radius 0.

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
    ``estimate ± radius`` that callers form. Inside the screenable range no
    square overflows, and a product that underflows errs by under
    ``2**-1074``, which is negligible against ``u·ab ≥ 1e-296``.

    On the 10k seeded pairs of ``tests/test_screen.py`` (dimensions 2 to
    1024, scales 1e±100, size ratios up to 1e3, near-parallel and
    near-antiparallel pairs) the largest error is 2.8 units of
    ``u·(A/B + B/A + 1)``.
    """
    if not (screenable(a) and screenable(b)):
        return cosine(a, b), 0.0
    size_a = a.size
    size_b = b.size
    gap = math.dist(a.components, b.components)
    estimate = (size_a * size_a + size_b * size_b - gap * gap) / (2.0 * size_a * size_b)
    radius = _SCREEN_UNIT * (size_a / size_b + size_b / size_a + 1.0)
    return max(-1.0, min(1.0, estimate)), radius


class SimilarityMatrix:
    """Square matrix of pairwise cosine similarities with unit diagonal.

    A matrix built from explicit ``entries`` validates and keeps them: each
    entry is known exactly. A matrix from ``build_similarity_matrix`` keeps
    each entry as an interval around its screened cosine, plus the vectors:
    ``exact(i, j)`` refines one entry with ``cosine`` and caches it, and
    ``entries`` returns the full exact matrix, built on first read. Both
    kinds answer ``bounds``, ``exact`` and ``twin`` alike, so selection runs
    one code path over them. An entry whose bounds meet is exact: the
    diagonal, a refined entry, or one whose vectors lie outside the
    screenable range.

    The caches are idempotent: a refinement computes the same value
    whichever thread runs it first, and the bounds hold the entry at every
    step of its update, so instances are still safe to share across threads.
    """

    __slots__ = ("_low", "_high", "_vectors", "_twins", "_entries")

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
        self._low = self._high = self._entries = rows
        self._vectors = ()
        self._twins = tuple(range(n))

    @classmethod
    def _screened(
        cls,
        low: list[list[float]],
        high: list[list[float]],
        vectors: tuple[EmbeddingVector, ...],
        twins: tuple[int, ...],
    ) -> "SimilarityMatrix":
        matrix = cls.__new__(cls)
        matrix._low = low
        matrix._high = high
        matrix._vectors = vectors
        matrix._twins = twins
        matrix._entries = None
        return matrix

    @property
    def n(self) -> int:
        return len(self._twins)

    def twin(self, i: int) -> int:
        """Lowest index whose vector has the components of vector ``i``.

        Equal vectors have equal exact entries against every other index.
        An explicit matrix has no vectors, so each index is its own twin.
        """
        return self._twins[i]

    def bounds(self, i: int, columns: Iterable[int]) -> tuple[list[float], list[float]]:
        """Lower and upper bounds of the entries ``(i, j)``, ``j`` in ``columns``."""
        low = self._low[i]
        high = self._high[i]
        return [low[j] for j in columns], [high[j] for j in columns]

    def exact(self, i: int, j: int) -> float:
        """Entry ``(i, j)`` as ``entries`` holds it."""
        low = self._low[i][j]
        if low == self._high[i][j]:
            return low
        value = cosine(self._vectors[min(i, j)], self._vectors[max(i, j)])
        self._low[i][j] = self._low[j][i] = value
        self._high[i][j] = self._high[j][i] = value
        return value

    @property
    def entries(self) -> tuple[tuple[float, ...], ...]:
        if self._entries is None:
            n = self.n
            self._entries = tuple(
                tuple(self.exact(i, j) for j in range(n)) for i in range(n)
            )
        return self._entries


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
        if screenable(vector):
            continue
        if vector.norm() == 0.0:
            raise DegenerateEmbeddingError(f"vector {index} has zero norm")
        if vector.norm() == math.inf:
            raise DegenerateEmbeddingError(f"vector {index} has a norm that overflows")
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
    return SimilarityMatrix._screened(low, high, tuple(vectors), tuple(twins))


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
