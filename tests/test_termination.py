"""Stop policies: window rule, similarity floor, variance bound."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from rmoa import termination
from rmoa.embedding import EmbeddingVector, cosine, screened_cosine
from rmoa.errors import ConfigError, DegenerateEmbeddingError
from rmoa.termination import (
    ResidualWindow,
    TerminationConfig,
    adaptive_should_stop,
    layer_converged,
    pairwise_similarities,
    similarity_threshold_stop,
    squared_deviation_sum,
    variance_stop,
)

from oracles import random_vectors


def window(history, m):
    return ResidualWindow(tuple(history), m)


class TestAdaptiveShouldStop:
    def test_single_quiet_layer_with_m1(self):
        assert adaptive_should_stop(window([False], 1)) is True

    def test_one_trailing_quiet_layer_is_not_enough_for_m2(self):
        assert adaptive_should_stop(window([True, False], 2)) is False

    def test_two_trailing_quiet_layers_stop_with_m2(self):
        assert adaptive_should_stop(window([True, False, False], 2)) is True

    def test_short_history_never_stops(self):
        assert adaptive_should_stop(window([], 1)) is False
        assert adaptive_should_stop(window([False], 2)) is False

    def test_exhaustive_against_restated_rule(self):
        for m in (1, 2, 3):
            for length in range(0, 7):
                for bits in range(2**length):
                    history = [bool((bits >> i) & 1) for i in range(length)]
                    expected = length >= m and not any(history[-m:])
                    assert adaptive_should_stop(window(history, m)) == expected

    def test_appending_quiet_layer_never_revokes_a_stop(self):
        rng = random.Random(3)
        for _ in range(200):
            history = [rng.random() < 0.5 for _ in range(rng.randint(1, 6))]
            m = rng.randint(1, 3)
            w = window(history, m)
            if adaptive_should_stop(w):
                assert adaptive_should_stop(w.extended(False))

    def test_m_validation(self):
        with pytest.raises(ValueError):
            window([], 0)


def unit(x: float, y: float) -> EmbeddingVector:
    return EmbeddingVector((x, y))


class TestSimilarityThresholdStop:
    def test_identical_singletons(self):
        v = unit(1.0, 0.0)
        assert similarity_threshold_stop([v], [v], 0.9) is True

    def test_min_similarity_between_thresholds(self):
        prev = [unit(1.0, 0.0)]
        curr = [unit(0.95, 0.3122498999199199), unit(0.85, 0.5267826876426369)]
        assert similarity_threshold_stop(prev, curr, 0.8) is True
        assert similarity_threshold_stop(prev, curr, 0.9) is False

    def test_boundary_equality_does_not_stop(self):
        a = unit(1.0, 0.0)
        b = unit(0.8, 0.6)  # cosine with a is exactly 0.8
        assert similarity_threshold_stop([a], [b], 0.8) is False

    def test_antitone_in_theta(self):
        rng = random.Random(41)
        for _ in range(200):
            dim = rng.randint(2, 8)
            prev = random_vectors(rng, rng.randint(1, 3), dim)
            curr = random_vectors(rng, rng.randint(1, 3), dim)
            lo, hi = sorted((rng.uniform(-0.99, 1.0), rng.uniform(-0.99, 1.0)))
            if similarity_threshold_stop(prev, curr, hi):
                assert similarity_threshold_stop(prev, curr, lo)

    def test_degenerate_vector_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            similarity_threshold_stop([unit(0.0, 0.0)], [unit(1.0, 0.0)], 0.5)

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError):
            pairwise_similarities([], [unit(1.0, 0.0)])
        with pytest.raises(ValueError):
            similarity_threshold_stop([unit(1.0, 0.0)], [], 0.5)


def perturbed(rng: random.Random, base: EmbeddingVector, scale: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(c + rng.gauss(0.0, scale) for c in base.components))


def copies(vectors: list[EmbeddingVector]) -> list[EmbeddingVector]:
    return [EmbeddingVector(v.components) for v in vectors]


class TestSimilarityThresholdStopShortCircuit:
    def test_decision_matches_every_pair(self):
        rng = random.Random(67)
        outcomes = {True: 0, False: 0}
        ties = 0
        for trial in range(600):
            dim = rng.randint(2, 16)
            prev_count, curr_count = rng.randint(1, 3), rng.randint(1, 3)
            if trial % 3 == 0:
                # perturbed copies of one vector: usually every pair is above theta
                base = random_vectors(rng, 1, dim)[0]
                prev = [perturbed(rng, base, 0.01) for _ in range(prev_count)]
                curr = [perturbed(rng, base, 0.01) for _ in range(curr_count)]
            else:
                prev = random_vectors(rng, prev_count, dim)
                curr = random_vectors(rng, curr_count, dim)
            # the similarities come from copies, so the stop below runs on
            # vectors whose exact norms are not yet cached
            sims = pairwise_similarities(copies(prev), copies(curr))
            if trial % 3 == 1:
                theta = rng.choice(sims)  # one cosine exactly at theta
                ties += 1
            elif trial % 3 == 0:
                theta = rng.uniform(0.9, 0.999)
            else:
                theta = rng.uniform(-1.0, 1.0)
            expected = all(s > theta for s in sims)
            assert similarity_threshold_stop(prev, curr, theta) is expected
            outcomes[expected] += 1
        assert ties == 200
        assert min(outcomes.values()) >= 100

    def test_equal_cosine_among_higher_ones_does_not_stop(self):
        a = unit(1.0, 0.0)
        b = unit(0.8, 0.6)  # cosine with a is exactly 0.8
        assert similarity_threshold_stop([a, a], [a, a, b], 0.8) is False
        assert similarity_threshold_stop([a, a], [a, a, b], 0.7999999999999999) is True

    def test_first_failing_pair_is_the_only_cosine(self, monkeypatch):
        screened, exact = [], []

        def counting_screen(p, c):
            screened.append((p, c))
            return screened_cosine(p, c)

        def counting_exact(p, c):
            exact.append((p, c))
            return cosine(p, c)

        monkeypatch.setattr(termination, "screened_cosine", counting_screen)
        monkeypatch.setattr(termination, "cosine", counting_exact)
        a, b = unit(1.0, 0.0), unit(0.0, 1.0)
        assert similarity_threshold_stop([a, a, a], [b, a, a], 0.5) is False
        assert screened == [(a, b)]

        screened.clear()
        assert similarity_threshold_stop([a, a, a], [a, a, a], 0.5) is True
        assert len(screened) == 9
        # every cosine is far from theta, so the screen decides each pair alone
        assert exact == []

    @pytest.mark.parametrize(
        ("prev_last", "curr_last"),
        [
            ((0.0, 0.0), (1.0, 0.0)),
            ((1.0, 0.0), (0.0, 0.0)),
            ((1.0, 0.0, 0.0), (1.0, 0.0)),
            ((1.0, 0.0), (1.0, 0.0, 0.0)),
            ((0.0, 0.0), (1.0, 0.0, 0.0)),
            ((1e200, -1e200), (1e200, 1e200)),  # norms overflow to inf
        ],
        ids=[
            "prev-zero", "curr-zero", "prev-dimension", "curr-dimension", "both",
            "infinite-norms",
        ],
    )
    def test_bad_vector_late_in_either_list_still_raises(self, prev_last, curr_last):
        # the first pair is orthogonal, so the decision is known after one cosine
        a, b = unit(1.0, 0.0), unit(0.0, 1.0)
        prev = [a, a, EmbeddingVector(prev_last)]
        curr = [b, a, EmbeddingVector(curr_last)]
        with pytest.raises(Exception) as full:
            pairwise_similarities(prev, curr)
        with pytest.raises(type(full.value)) as lazy:
            similarity_threshold_stop(prev, curr, 0.5)
        assert type(lazy.value) is type(full.value)
        assert str(lazy.value) == str(full.value)


class TestVarianceStop:
    def test_zero_spread_always_stops(self):
        v = unit(1.0, 0.0)
        assert variance_stop([v, v], [v, v], 1e-9) is True

    def test_hand_fixture_spread(self):
        prev = [unit(1.0, 0.0), unit(0.8, 0.6)]
        curr = [unit(1.0, 0.0), unit(0.8, 0.6)]
        sims = pairwise_similarities(prev, curr)
        assert sorted(sims) == [0.8, 0.8, 1.0, 1.0]
        assert squared_deviation_sum(sims) == pytest.approx(0.04, abs=1e-12)
        assert variance_stop(prev, curr, 1e-3) is False
        assert variance_stop(prev, curr, 0.05) is True

    def test_rational_arithmetic_is_exact(self):
        sims = [Fraction(1), Fraction(4, 5), Fraction(4, 5), Fraction(1)]
        assert squared_deviation_sum(sims) == Fraction(1, 25)

    def test_monotone_in_sigma2(self):
        rng = random.Random(59)
        for _ in range(200):
            dim = rng.randint(2, 8)
            k = rng.randint(1, 3)
            prev = random_vectors(rng, k, dim)
            curr = random_vectors(rng, k, dim)
            lo, hi = sorted((rng.uniform(1e-6, 2.0), rng.uniform(1e-6, 2.0)))
            if variance_stop(prev, curr, lo):
                assert variance_stop(prev, curr, hi)


class TestTerminationConfig:
    def test_studied_settings_accepted(self):
        for theta in (0.7, 0.8, 0.9):
            TerminationConfig(policy="sim_threshold", theta=theta)
        TerminationConfig(policy="variance", sigma2=1e-3)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            TerminationConfig(policy="judge")

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            TerminationConfig(theta=-1.0)
        with pytest.raises(ConfigError):
            TerminationConfig(theta=1.5)
        with pytest.raises(ConfigError):
            TerminationConfig(sigma2=0.0)
        with pytest.raises(ConfigError):
            TerminationConfig(m=0)


class TestLayerConverged:
    def test_llm_policy_follows_residual_flag(self):
        config = TerminationConfig(policy="llm")
        assert layer_converged(config, residual_detected=False,
                               prev_selected_vecs=None, curr_selected_vecs=None)
        assert not layer_converged(config, residual_detected=True,
                                   prev_selected_vecs=None, curr_selected_vecs=None)

    def test_none_policy_never_converges(self):
        config = TerminationConfig(policy="none")
        assert not layer_converged(config, False, None, None)

    def test_quantitative_policies_use_vectors(self):
        v = unit(1.0, 0.0)
        sim = TerminationConfig(policy="sim_threshold", theta=0.9)
        assert layer_converged(sim, True, [v], [v])
        assert not layer_converged(sim, True, None, [v])
        var = TerminationConfig(policy="variance", sigma2=0.5)
        assert layer_converged(var, True, [v], [v])
