"""Early-stop policies: residual-flag window, similarity floor, variance bound.

All three policies are pure functions. The window rule stops once the last
``m`` completed layers all reported no residual; the quantitative policies
translate a layer's embedding geometry into the same converged/not signal,
so a single window mechanism drives every policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embedding import EmbeddingVector, cosine, screened_cosine
from .errors import ConfigError

TERMINATION_POLICIES = ("llm", "sim_threshold", "variance", "none")


def adaptive_should_stop(history: Sequence[bool], m: int) -> bool:
    """True once the last ``m`` completed layers all looked converged.

    ``history`` holds one not-converged flag per completed layer, most
    recent last.
    """
    if m < 1:
        raise ValueError("window size m must be at least 1")
    return len(history) >= m and not any(history[-m:])


def _cross_pairs(
    prev_vecs: Sequence[EmbeddingVector], curr_vecs: Sequence[EmbeddingVector]
) -> list[tuple[EmbeddingVector, EmbeddingVector]]:
    """Every (previous, current) pair, row-major."""
    if not prev_vecs or not curr_vecs:
        raise ValueError("both vector lists must be nonempty")
    return [(p, c) for p in prev_vecs for c in curr_vecs]


def pairwise_similarities(
    prev_vecs: Sequence[EmbeddingVector], curr_vecs: Sequence[EmbeddingVector]
) -> list[float]:
    """Cosine similarity of every (previous, current) pair, row-major."""
    return [cosine(p, c) for p, c in _cross_pairs(prev_vecs, curr_vecs)]


def _exceeds(p: EmbeddingVector, c: EmbeddingVector, theta: float) -> bool:
    """``cosine(p, c) > theta``, computing the exact cosine only when the
    screened interval contains ``theta``."""
    estimate, radius = screened_cosine(p, c)
    if estimate - radius > theta:
        return True
    if estimate + radius <= theta:
        return False
    return cosine(p, c) > theta


def similarity_threshold_stop(
    prev_selected_vecs: Sequence[EmbeddingVector],
    curr_selected_vecs: Sequence[EmbeddingVector],
    theta: float,
) -> bool:
    """True iff every cross-round similarity strictly exceeds ``theta``.

    Pairs are evaluated in the row-major order of ``pairwise_similarities``
    until the first one at or below ``theta``; the decision is the same as
    checking them all. Each pair is decided on its screened cosine
    (``screened_cosine``) when the interval it spans lies on one side of
    ``theta``, and on the exact ``cosine`` only when it contains ``theta``.
    Before that, the first pair of unequal dimensions, the only pair whose
    cosine can raise, has its cosine computed, so a mismatch anywhere in
    either list raises the error the full list of similarities would.
    """
    pairs = _cross_pairs(prev_selected_vecs, curr_selected_vecs)
    for p, c in pairs:
        if p.dimension != c.dimension:
            cosine(p, c)
    return all(_exceeds(p, c, theta) for p, c in pairs)


def squared_deviation_sum(sims: Sequence) -> object:
    """Sum of squared deviations from the mean, in the input's arithmetic.

    Plain ``sum`` and ``/`` are used deliberately so exact number types
    (fractions, decimals) pass through without losing exactness.
    """
    mean = sum(sims) / len(sims)
    return sum((s - mean) ** 2 for s in sims)


def variance_stop(
    prev_selected_vecs: Sequence[EmbeddingVector],
    curr_selected_vecs: Sequence[EmbeddingVector],
    sigma2: float,
) -> bool:
    """True iff the spread of cross-round similarities is strictly below ``sigma2``."""
    sims = pairwise_similarities(prev_selected_vecs, curr_selected_vecs)
    return squared_deviation_sum(sims) < sigma2


@dataclass(frozen=True)
class TerminationConfig:
    """Which stop policy a run uses and its parameters.

    ``theta`` and ``sigma2`` are validated regardless of policy so a config
    can switch policies without suddenly discovering bad parameters.
    """

    policy: str = "llm"
    m: int = 1
    theta: float = 0.9
    sigma2: float = 1e-3

    def __post_init__(self) -> None:
        if self.policy not in TERMINATION_POLICIES:
            raise ConfigError(
                f"unknown termination policy {self.policy!r} "
                f"(known: {', '.join(TERMINATION_POLICIES)})"
            )
        if self.m < 1:
            raise ConfigError("termination.m must be at least 1")
        if not -1.0 < self.theta <= 1.0:
            raise ConfigError("termination.theta must lie in (-1, 1]")
        if not self.sigma2 > 0:
            raise ConfigError("termination.sigma2 must be positive")


def layer_converged(
    config: TerminationConfig,
    residual_detected: bool,
    prev_selected_vecs: Sequence[EmbeddingVector] | None,
    curr_selected_vecs: Sequence[EmbeddingVector] | None,
) -> bool:
    """Did this layer look converged under the configured policy?"""
    if config.policy == "llm":
        return not residual_detected
    if config.policy == "sim_threshold":
        if not prev_selected_vecs or not curr_selected_vecs:
            return False
        return similarity_threshold_stop(
            prev_selected_vecs, curr_selected_vecs, config.theta
        )
    if config.policy == "variance":
        if not prev_selected_vecs or not curr_selected_vecs:
            return False
        return variance_stop(prev_selected_vecs, curr_selected_vecs, config.sigma2)
    return False
