"""Screened cosines: their error bound, decisions equal to the exact path,
and the exact work that selection and the similarity stop leave to do."""

from __future__ import annotations

import math
import random

import pytest

from rmoa import embedding, termination
from rmoa.embedding import (
    EmbeddingVector,
    build_similarity_matrix,
    cosine,
    screened_cosine,
)
from rmoa.errors import DegenerateEmbeddingError
from rmoa.selection import greedy_diverse_select, initial_index
from rmoa.termination import similarity_threshold_stop

from oracles import (
    exact_entries,
    naive_cosine,
    naive_entries,
    naive_greedy_select,
    random_vectors,
    scaled,
)

U = 2.0**-53


def screen_pair(rng: random.Random, kind: int) -> tuple[EmbeddingVector, EmbeddingVector]:
    """Two vectors of 2 to 1024 dimensions at scales 1e±100, sizes up to 1e3
    apart: unrelated (kind 0), near-parallel (1) or near-antiparallel (2)."""
    dim = int(2 ** rng.uniform(1, 10))
    a = [rng.random() - 0.5 for _ in range(dim)]
    if kind == 0:
        b = [rng.random() - 0.5 for _ in range(dim)]
    else:
        sign = -1.0 if kind == 2 else 1.0
        spread = 10 ** rng.uniform(-16, -1)
        b = [sign * x + spread * (rng.random() - 0.5) for x in a]
    scale_a = 10 ** rng.uniform(-100, 100)
    scale_b = scale_a * 10 ** rng.uniform(-3, 3)
    return (
        EmbeddingVector(tuple(x * scale_a for x in a)),
        EmbeddingVector(tuple(x * scale_b for x in b)),
    )


def copy(vector: EmbeddingVector) -> EmbeddingVector:
    return EmbeddingVector(tuple(list(vector.components)))


def last_ulp(vector: EmbeddingVector, every: bool) -> EmbeddingVector:
    """``vector`` with its first component, or every one, moved by one ulp."""
    components = list(vector.components)
    for i in range(len(components) if every else 1):
        components[i] = math.nextafter(components[i], math.inf)
    return EmbeddingVector(tuple(components))


def to_size(vector: EmbeddingVector, size: float) -> EmbeddingVector:
    return scaled(vector, size / vector.size)


def mirrored_layer(rng: random.Random, dim: int) -> list[EmbeddingVector]:
    """Rows 1 and 3 have exactly equal means without being equal vectors.

    Vector 3 is vector 1 reversed, and the others are palindromes, so
    both rows hold the same products and so the same ``fsum`` cosines.
    The palindromes are close to one another, so rows 1 and 3 have the
    lowest means.
    """
    half = dim // 2

    def palindrome(values: list[float]) -> tuple[float, ...]:
        return tuple(values + values[::-1])

    base = [rng.gauss(0.0, 1.0) for _ in range(half)]
    near = [
        EmbeddingVector(palindrome([x + rng.gauss(0.0, 0.3) for x in base]))
        for _ in range(4)
    ]
    x = EmbeddingVector(tuple(rng.gauss(0.0, 1.0) for _ in range(2 * half)))
    y = EmbeddingVector(x.components[::-1])
    return [near[0], x, near[1], y, near[2], near[3]]


def int_layer(rng: random.Random, dim: int) -> list[EmbeddingVector]:
    """Six rows of ints up to 2**54, kept as ints. Rows 0 and 1 differ only
    in a first component of 2**53 + 1 against 2**53, which ``hypot`` and
    ``dist`` round alike, so only ``cosine``'s exact products tell them apart."""
    rows = [[rng.randint(-(2**54), 2**54) for _ in range(dim)] for _ in range(5)]
    rows[0][0] = 2**53 + 1
    rows.insert(1, [2**53, *rows[0][1:]])
    return [EmbeddingVector(tuple(row)) for row in rows]


def adversarial_layers(rng: random.Random) -> dict[str, list[EmbeddingVector]]:
    """Layers of six vectors on which screened decisions are close calls."""
    dim = rng.choice([2, 3, 16, 64])
    v = random_vectors(rng, 4, dim)
    return {
        "duplicates": [v[0], v[1], copy(v[0]), v[2], copy(v[1]), v[0]],
        "last-ulp": [v[0], last_ulp(v[0], False), v[1], last_ulp(v[0], True), v[2], v[1]],
        "size-ratio": [v[0], scaled(v[0], 1e3), v[1], scaled(v[1], 1e-3), v[2], scaled(v[3], 1e3)],
        # just inside the size range, since scaling to 1e-140 itself can
        # round below it
        "safe-range-edges": [
            to_size(v[0], 1.000001e-140),
            to_size(v[1], 2e-140),
            to_size(v[2], 0.999999e140),
            to_size(v[3], 0.5e140),
            to_size(v[0], 1e-139),
            to_size(v[1], 1e139),
        ],
        "mirrored": mirrored_layer(rng, 2 * dim),
        # seeded from a value already drawn, so the other layers draw as before
        "ints": int_layer(random.Random(v[0].components[0]), dim),
    }


class TestScreenedCosine:
    def test_error_within_radius(self):
        rng = random.Random(2026)
        worst = 0.0
        for trial in range(10_000):
            a, b = screen_pair(rng, trial % 3)
            estimate, radius = screened_cosine(a, b)
            error = abs(estimate - cosine(a, b))
            assert error <= radius
            ratio = a.size / b.size
            worst = max(worst, error / (U * (ratio + 1 / ratio + 1)))
        # the docstring's derivation bounds the error by 16 of these units;
        # the radius allows 64
        assert worst <= 16

    @pytest.mark.parametrize("size", [1e-150, 0.5e-140, 2e140, 1e150])
    def test_outside_the_size_range_is_refused(self, size):
        (a,) = random_vectors(random.Random(3), 1, 8)
        with pytest.raises(DegenerateEmbeddingError, match=r"outside \[1e-140, 1e140\]$"):
            to_size(a, size)


class TestDecisionsMatchExactPath:
    def test_selection(self):
        rng = random.Random(83)
        for _ in range(40):
            for name, vectors in adversarial_layers(rng).items():
                rows = naive_entries(vectors)
                screened = build_similarity_matrix(vectors)
                for i, row in enumerate(rows):
                    lows, highs = screened.bounds(i, range(len(row)))
                    assert all(low <= x <= high for low, x, high in zip(lows, row, highs)), name
                for k in range(1, len(vectors) + 1):
                    matrix = build_similarity_matrix(vectors)
                    chosen = greedy_diverse_select(matrix, k).selected_indices
                    assert chosen == tuple(naive_greedy_select(rows, k, total=math.fsum)), name
                    assert [list(row) for row in exact_entries(matrix)] == rows, name

    def test_similarity_stop(self):
        rng = random.Random(89)
        for _ in range(40):
            for name, vectors in adversarial_layers(rng).items():
                prev, curr = vectors[:3], vectors[3:]
                sims = [naive_cosine(p, c) for p in prev for c in curr]
                at = rng.choice(sims)
                for theta in (at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)):
                    expected = all(s > theta for s in sims)
                    # fresh copies, whose exact norms are not yet cached
                    fresh_prev = [copy(v) for v in prev]
                    fresh_curr = [copy(v) for v in curr]
                    assert similarity_threshold_stop(fresh_prev, fresh_curr, theta) is expected, name


@pytest.fixture
def exact_work(monkeypatch):
    """Records every exact cosine, as its pair of vectors, and every exact norm."""
    work = {"cosine": [], "norm": []}
    real_cosine = embedding.cosine
    real_norm = EmbeddingVector.norm

    def counting_cosine(a, b):
        work["cosine"].append((a, b))
        return real_cosine(a, b)

    def counting_norm(vector):
        work["norm"].append(vector)
        return real_norm(vector)

    monkeypatch.setattr(embedding, "cosine", counting_cosine)
    monkeypatch.setattr(termination, "cosine", counting_cosine)
    monkeypatch.setattr(EmbeddingVector, "norm", counting_norm)
    return work


def bench_layer(rng: random.Random, base: list[float]) -> list[EmbeddingVector]:
    """Six 1024-dim unit vectors of four distinct replies, as when six
    proposers cycle through four roles: 0 equals 4 and 1 equals 5.

    Each reply is ``base`` plus noise; a zero ``base`` makes them unrelated.
    """
    distinct = []
    for _ in range(4):
        row = [x + rng.gauss(0.0, 0.2) for x in base]
        norm = math.hypot(*row)
        distinct.append(EmbeddingVector(tuple(x / norm for x in row)))
    return [distinct[i % 4] if i < 4 else copy(distinct[i % 4]) for i in range(6)]


class TestExactWork:
    @pytest.mark.parametrize(("related", "stops"), [(False, False), (True, True)])
    def test_bench_shaped_layer_runs_no_fsum(self, exact_work, related, stops):
        # related replies are about 0.96 apart, unrelated ones about 0
        rng = random.Random(97)
        base = [rng.gauss(0.0, 1.0) if related else 0.0 for _ in range(1024)]
        prev_layer, curr_layer = bench_layer(rng, base), bench_layer(rng, base)
        prev_chosen = greedy_diverse_select(build_similarity_matrix(prev_layer), 3)
        matrix = build_similarity_matrix(curr_layer)
        chosen = greedy_diverse_select(matrix, 3).selected_indices
        stopped = similarity_threshold_stop(
            [prev_layer[i] for i in prev_chosen.selected_indices],
            [curr_layer[i] for i in chosen],
            0.9,
        )
        assert exact_work == {"cosine": [], "norm": []}
        assert stopped is stops
        rows = naive_entries(curr_layer)
        assert chosen == tuple(naive_greedy_select(rows, 3, total=math.fsum))

    def test_near_tie_refines_only_the_contenders(self, exact_work):
        layer = mirrored_layer(random.Random(101), 1024)
        matrix = build_similarity_matrix(layer)
        assert exact_work["cosine"] == []
        # rows 1 and 3 tie exactly, so the lower index wins
        assert initial_index(matrix) == 1
        position = {id(v): i for i, v in enumerate(layer)}
        refined = [
            tuple(sorted((position[id(a)], position[id(b)])))
            for a, b in exact_work["cosine"]
        ]
        assert sorted(refined) == sorted(
            {tuple(sorted((row, j))) for row in (1, 3) for j in range(6) if j != row}
        )
