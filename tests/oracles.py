"""Independent reference implementations used to check the real code.

Everything here is written as literally as possible (plain loops, plain
sums, no shortcuts shared with the implementation under test).
"""

from __future__ import annotations

import math
import random

from rmoa.embedding import EmbeddingVector, SimilarityMatrix, build_similarity_matrix


def naive_greedy_select(rows: list[list[float]], k: int, total=sum) -> list[int]:
    """Step-by-step diversity selection: literal translation of the rules.

    Start at the row minimizing the mean over all columns (diagonal
    included); each later step takes the candidate minimizing its maximum
    similarity to the chosen set. Ties go to the lowest index. Row sums use
    ``total``; ``math.fsum`` makes the means the implementation's, exact
    ties included.
    """
    n = len(rows)
    if k >= n:
        return list(range(n))
    best_i = None
    best_mean = None
    for i in range(n):
        mean = total(rows[i][j] for j in range(n)) / n
        if best_mean is None or mean < best_mean:
            best_i = i
            best_mean = mean
    chosen = [best_i]
    candidates = [i for i in range(n) if i != best_i]
    for _ in range(k - 1):
        best_i = None
        best_score = None
        for i in candidates:
            score = None
            for q in chosen:
                if score is None or rows[i][q] > score:
                    score = rows[i][q]
            if best_score is None or score < best_score:
                best_i = i
                best_score = score
        chosen.append(best_i)
        candidates.remove(best_i)
    return chosen


def naive_norm(vector: EmbeddingVector) -> float:
    """Euclidean norm, recomputed from the components on every call."""
    return math.sqrt(math.fsum(c * c for c in vector.components))


def naive_cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Clamped cosine with both norms recomputed and a generator dot product."""
    dot = math.fsum(x * y for x, y in zip(a.components, b.components))
    return max(-1.0, min(1.0, dot / (naive_norm(a) * naive_norm(b))))


def naive_entries(vectors: list[EmbeddingVector]) -> list[list[float]]:
    """The similarity matrix by ``naive_cosine``, with a unit diagonal."""
    return [
        [1.0 if i == j else naive_cosine(a, b) for j, b in enumerate(vectors)]
        for i, a in enumerate(vectors)
    ]


def random_vectors(
    rng: random.Random, count: int, dim: int
) -> list[EmbeddingVector]:
    return [
        EmbeddingVector(tuple(rng.gauss(0.0, 1.0) for _ in range(dim)))
        for _ in range(count)
    ]


def random_similarity_matrix(rng: random.Random, n: int) -> SimilarityMatrix:
    dim = rng.randint(2, 16)
    return build_similarity_matrix(random_vectors(rng, n, dim))
