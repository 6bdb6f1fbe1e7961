"""Greedy diversity selection over a similarity matrix.

Start from the row with the smallest mean similarity to everything
(diagonal included, which shifts every row mean by the same constant), then
repeatedly add the candidate whose worst-case similarity to the already
selected set is smallest. Every argmin breaks ties toward the lowest index,
so the result is a pure function of the matrix and k.

Each argmin is decided on the matrix's entry intervals: only the indices
whose interval could hold the least value are contenders, and only they
are settled on exact values (``SimilarityMatrix.exact``), by the exact
rule. Of several indices with equal vectors only the lowest contends,
since their true values are equal and the lowest would win the tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .embedding import SimilarityMatrix


@dataclass(frozen=True)
class SelectionResult:
    """Chosen indices in selection order."""

    selected_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(int(i) for i in self.selected_indices)
        object.__setattr__(self, "selected_indices", indices)
        if len(set(indices)) != len(indices):
            raise ValueError("selected indices must be distinct")

    @property
    def k(self) -> int:
        """The effective count, below the configured k when a layer has fewer replies."""
        return len(self.selected_indices)


def _argmin(
    intervals: dict[int, tuple[float, float]], exact: Callable[[int], float]
) -> int:
    """Lowest index with the least exact value.

    ``intervals`` maps indices, in ascending order, to bounds of their
    values. An index whose interval starts above the lowest upper end
    cannot hold the least value, so only the others have ``exact`` computed.
    """
    ceiling = min(high for _, high in intervals.values())
    contenders = [i for i, (low, _) in intervals.items() if low <= ceiling]
    if len(contenders) == 1:
        return contenders[0]
    return min(contenders, key=exact)


def _distinct(matrix: SimilarityMatrix, indices: Iterable[int]) -> list[int]:
    """``indices`` in ascending order, without any whose lower twin is among them."""
    kept: dict[int, int] = {}
    for i in sorted(indices):
        kept.setdefault(matrix.twin(i), i)
    return list(kept.values())


def initial_index(matrix: SimilarityMatrix) -> int:
    """Index of the row with the lowest mean similarity; ties pick lowest.

    Row means use ``math.fsum``, so permuting a row's entries cannot change
    its mean and exact ties stay exact. A row's mean lies between the means
    of its entries' lower and upper bounds, taken the same way, since a
    correctly rounded sum or quotient is monotone in its operands. Only the
    rows whose range overlaps the best one have their exact means computed.
    """
    n = matrix.n
    intervals = {}
    for i in _distinct(matrix, range(n)):
        lows, highs = matrix.bounds(i, range(n))
        intervals[i] = (math.fsum(lows) / n, math.fsum(highs) / n)
    return _argmin(
        intervals, lambda i: math.fsum(matrix.exact(i, j) for j in range(n)) / n
    )


def next_index(
    matrix: SimilarityMatrix,
    selected: Iterable[int],
    candidates: Iterable[int],
) -> int:
    """Candidate whose max similarity to the selected set is smallest; ties pick lowest.

    A candidate's max lies between the max of its entries' lower bounds
    and the max of their upper bounds; only candidates whose range
    overlaps the best one have their exact max computed.
    """
    selected = set(selected)
    candidates = set(candidates)
    if not selected or not candidates:
        raise ValueError("selected and candidates must both be nonempty")
    if selected & candidates:
        raise ValueError("selected and candidates must be disjoint")
    n = matrix.n
    if any(not 0 <= i < n for i in selected | candidates):
        raise ValueError(f"indices must lie in [0, {n})")
    intervals = {}
    for i in _distinct(matrix, candidates):
        lows, highs = matrix.bounds(i, selected)
        intervals[i] = (max(lows), max(highs))
    return _argmin(intervals, lambda i: max(matrix.exact(i, q) for q in selected))


def greedy_diverse_select(matrix: SimilarityMatrix, k: int) -> SelectionResult:
    """Pick up to ``k`` mutually diverse indices from ``matrix``.

    When ``k`` is at least the matrix size, every index is returned in
    natural order; downstream layers can legitimately have fewer live
    candidates than the configured k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = matrix.n
    if k >= n:
        return SelectionResult(tuple(range(n)))
    chosen = [initial_index(matrix)]
    candidates = set(range(n)) - set(chosen)
    while len(chosen) < k:
        index = next_index(matrix, chosen, candidates)
        chosen.append(index)
        candidates.remove(index)
    return SelectionResult(tuple(chosen))
