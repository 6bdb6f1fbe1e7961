"""Greedy diversity selection against hand traces and the naive oracle."""

from __future__ import annotations

import math
import random
from itertools import combinations
from operator import mul

import pytest

from rmoa.embedding import EmbeddingVector, build_similarity_matrix
from rmoa.selection import (
    SelectionResult,
    greedy_diverse_select,
    initial_index,
    next_index,
)

from oracles import (
    exact_entries,
    exact_matrix,
    naive_entries,
    naive_greedy_select,
    random_similarity_matrix,
    random_vectors,
    scaled,
)


class TestInitialIndex:
    def test_single_candidate(self):
        assert initial_index(exact_matrix(((1.0,),))) == 0

    def test_symmetric_tie_prefers_lowest(self):
        matrix = exact_matrix(((1.0, 0.5), (0.5, 1.0)))
        assert initial_index(matrix) == 0

    def test_angle_fixture_row_means(self, angle_matrix):
        means = [
            math.fsum(exact_entries(angle_matrix)[i]) / angle_matrix.n for i in range(4)
        ]
        assert means[0] == pytest.approx(0.4528, abs=5e-4)
        assert means[1] == pytest.approx(0.5396, abs=5e-4)
        assert means[2] == means[1]
        assert means[3] == means[0]
        assert initial_index(angle_matrix) == 0


class TestNextIndex:
    def test_single_candidate(self):
        matrix = exact_matrix(((1.0, 0.2), (0.2, 1.0)))
        assert next_index(matrix, {0}, {1}) == 1

    def test_angle_fixture_picks_least_similar(self, angle_matrix):
        # max similarities to {0}: 1 -> cos10, 2 -> cos90, 3 -> cos100
        assert next_index(angle_matrix, {0}, {1, 2, 3}) == 3

    def test_tie_prefers_lowest_index(self):
        matrix = exact_matrix(
            ((1.0, 0.5, 0.5), (0.5, 1.0, 0.0), (0.5, 0.0, 1.0))
        )
        assert next_index(matrix, {0}, {1, 2}) == 1

    def test_empty_candidates_rejected(self):
        matrix = exact_matrix(((1.0, 0.2), (0.2, 1.0)))
        with pytest.raises(ValueError):
            next_index(matrix, {0}, set())

    def test_overlapping_sets_rejected(self):
        matrix = exact_matrix(((1.0, 0.2), (0.2, 1.0)))
        with pytest.raises(ValueError):
            next_index(matrix, {0}, {0, 1})


class TestGreedyDiverseSelect:
    def test_k_at_least_n_returns_everything(self):
        matrix = random_similarity_matrix(random.Random(5), 3)
        assert greedy_diverse_select(matrix, 3).selected_indices == (0, 1, 2)
        assert greedy_diverse_select(matrix, 7).selected_indices == (0, 1, 2)

    def test_angle_fixture_k2(self, angle_matrix):
        assert greedy_diverse_select(angle_matrix, 2).selected_indices == (0, 3)

    def test_k_below_one_rejected(self):
        matrix = exact_matrix(((1.0,),))
        with pytest.raises(ValueError):
            greedy_diverse_select(matrix, 0)

    def test_operating_point_selects_three_of_six(self):
        matrix = random_similarity_matrix(random.Random(17), 6)
        result = greedy_diverse_select(matrix, 3)
        assert len(result.selected_indices) == 3
        assert result.k == 3
        assert len(set(result.selected_indices)) == 3

    def test_deterministic(self):
        matrix = random_similarity_matrix(random.Random(23), 7)
        runs = {greedy_diverse_select(matrix, 4).selected_indices for _ in range(5)}
        assert len(runs) == 1

    def test_matches_naive_oracle(self):
        # each selection runs on a fresh matrix, before its entries are read,
        # so it decides on screened intervals, not on cached exact values
        rng = random.Random(101)
        for _ in range(300):
            n = rng.randint(1, 8)
            vectors = random_vectors(rng, n, rng.randint(2, 16))
            rows = naive_entries(vectors)
            for k in range(1, n + 1):
                matrix = build_similarity_matrix(vectors)
                assert greedy_diverse_select(matrix, k).selected_indices == tuple(
                    naive_greedy_select(rows, k)
                )
                assert [list(row) for row in exact_entries(matrix)] == rows

    def test_permutation_consistency(self):
        # n = 2 is excluded: both row means are identical by construction,
        # so the lowest-index tie-break legitimately defeats the mapping
        rng = random.Random(53)
        for _ in range(200):
            n = rng.randint(3, 8)
            matrix = random_similarity_matrix(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            entries = exact_entries(matrix)
            permuted = exact_matrix(
                tuple(
                    tuple(entries[perm[i]][perm[j]] for j in range(n))
                    for i in range(n)
                )
            )
            k = rng.randint(1, n - 1) if n > 1 else 1
            base = greedy_diverse_select(matrix, k).selected_indices
            mapped = greedy_diverse_select(permuted, k).selected_indices
            # permuted[i][j] = matrix[perm[i]][perm[j]], so position p in the
            # permuted matrix is original index perm[p]
            assert tuple(perm[p] for p in mapped) == base

    def test_scale_invariant_end_to_end(self):
        rng = random.Random(71)
        for _ in range(50):
            vectors = random_vectors(rng, 6, rng.randint(2, 16))
            alpha = rng.uniform(1e-2, 1e2)
            rescaled = [scaled(v, alpha) for v in vectors]
            base = greedy_diverse_select(build_similarity_matrix(vectors), 3)
            scale = greedy_diverse_select(build_similarity_matrix(rescaled), 3)
            assert base.selected_indices == scale.selected_indices


def angle(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """The angle between ``a`` and ``b``: ``atan2`` of the norm of their wedge
    product (the cross product's magnitude, in any dimension) and their dot
    product, so ``acos`` rounding near 0 cannot decide a case."""
    x, y = a.components, b.components
    wedge = math.fsum((x[i] * y[j] - x[j] * y[i]) ** 2 for i in range(len(x)) for j in range(i))
    return math.atan2(math.sqrt(wedge), math.fsum(map(mul, x, y)))


def least_angle(angles: list[list[float]], indices) -> float:
    return min(angles[i][j] for i, j in combinations(indices, 2))


class TestDispersionGuarantee:
    """The greedy choice is farthest-first traversal under the angular metric:
    each pick has the least worst-case cosine, so the largest least angle, to
    the chosen set."""

    # the chosen set's least angle may fall short of the bound by this much,
    # since the choice is made on cosines and the bound checked on angles
    TOLERANCE = 1e-9

    def test_least_angle_is_at_least_half_the_best(self):
        # from any start, a 2-approximation of max-min dispersion (Gonzalez,
        # TCS 1985), checked against every k-subset
        rng = random.Random(1985)
        for _ in range(400):
            n = rng.randint(3, 9)
            vectors = random_vectors(rng, n, rng.choice([2, 3, 5, 8]))
            angles = [[angle(a, b) for b in vectors] for a in vectors]
            for k in range(2, n):
                chosen = greedy_diverse_select(build_similarity_matrix(vectors), k)
                best = max(least_angle(angles, s) for s in combinations(range(n), k))
                got = least_angle(angles, chosen.selected_indices)
                assert got >= best / 2 - self.TOLERANCE, (n, k, got, best)

    def test_one_pick_from_each_separated_cluster(self):
        # k clusters whose widest angle inside a cluster is below half the
        # narrowest angle between two, so no pick is a close call: every pick
        # after the first lies at least that narrowest angle from the chosen
        # set, so it opens a new cluster
        rng = random.Random(1994)
        checked = 0
        for _ in range(300):
            k = rng.randint(2, 5)
            centers = random_vectors(rng, k, rng.choice([2, 3, 8, 32]))
            spread = rng.uniform(0.005, 0.05)
            labels = [c for c in range(k) for _ in range(rng.randint(1, 3))]
            rng.shuffle(labels)
            vectors = [
                EmbeddingVector(tuple(x + rng.gauss(0.0, spread) for x in centers[c].components))
                for c in labels
            ]
            pairs = list(combinations(range(len(vectors)), 2))
            inside = [angle(vectors[i], vectors[j]) for i, j in pairs if labels[i] == labels[j]]
            across = [angle(vectors[i], vectors[j]) for i, j in pairs if labels[i] != labels[j]]
            if max(inside, default=0.0) >= min(across) / 2:
                continue
            checked += 1
            chosen = greedy_diverse_select(build_similarity_matrix(vectors), k)
            assert sorted(labels[i] for i in chosen.selected_indices) == list(range(k))
        assert checked >= 200


class TestSelectionResult:
    def test_indices_must_be_distinct(self):
        with pytest.raises(ValueError):
            SelectionResult((0, 0))
