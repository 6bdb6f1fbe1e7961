"""Independent reference implementations used to check the real code.

Everything here is written as literally as possible (plain loops, plain
sums, no shortcuts shared with the implementation under test).
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from rmoa.accounting import UsageLedger
from rmoa.agents import Response
from rmoa.embedding import EmbeddingVector, SimilarityMatrix, build_similarity_matrix
from rmoa.pipeline import Transcript

# Slack for the invariants of an explicit matrix; fsum accumulation error
# over realistic embedding dimensions is orders of magnitude below this.
MATRIX_TOLERANCE = 1e-9


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


def exact_matrix(entries: Sequence[Sequence[float]]) -> SimilarityMatrix:
    """A matrix whose entries are given, each exact: its bounds meet.

    The entries must form a square, symmetric matrix of finite values in
    [-1, 1] with a unit diagonal, within ``MATRIX_TOLERANCE``. It has no
    vectors, so each index is its own twin.
    """
    rows = [[float(x) for x in row] for row in entries]
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
    return SimilarityMatrix(rows, rows, (), tuple(range(n)))


def exact_entries(matrix: SimilarityMatrix) -> tuple[tuple[float, ...], ...]:
    """Every entry of ``matrix`` through ``exact``, refining whatever is not yet exact."""
    n = matrix.n
    return tuple(tuple(matrix.exact(i, j) for j in range(n)) for i in range(n))


def scaled(vector: EmbeddingVector, factor: float) -> EmbeddingVector:
    """``vector`` with every component multiplied by ``factor``."""
    return EmbeddingVector(tuple(c * factor for c in vector.components))


def concatenated(ledgers: Iterable[UsageLedger]) -> UsageLedger:
    """One ledger holding the entries of ``ledgers`` in order.

    The ledgers must share a price; their parameter tables are combined.
    """
    ledgers = list(ledgers)
    if not ledgers:
        return UsageLedger()
    out = UsageLedger(ledgers[0].price_per_million_tokens, ledgers[0].params_per_model)
    for ledger in ledgers:
        if ledger.price_per_million_tokens != out.price_per_million_tokens:
            raise ValueError("cannot concatenate ledgers with different prices")
        out.params_per_model.update(ledger.params_per_model)
        for entry in ledger.entries:
            out.append(entry.kind, entry.model, entry.usage)
    return out


def response_dict(response: Response) -> dict:
    return {
        "text": response.text,
        "layer": response.layer,
        "agent_index": response.agent_index,
        "role_name": response.role_name,
        "usage": {
            "prompt_tokens": response.usage.prompt_tokens,
            "completion_tokens": response.usage.completion_tokens,
        },
    }


def transcript_dict(transcript: Transcript) -> dict:
    """The whole transcript as one dict.

    ``json.dumps(transcript_dict(t), sort_keys=True)`` plus a newline is the
    text of ``transcript.json``.
    """
    final = transcript.final_response
    return {
        "config": transcript.config.to_json_dict(),
        "query": transcript.query,
        "layer_states": [state.to_json_dict() for state in transcript.layer_states],
        "final_response": response_dict(final) if final else None,
        "ledger": transcript.ledger.to_json_dict(),
        "stop_reason": transcript.stop_reason,
        "events": list(transcript.events),
    }
