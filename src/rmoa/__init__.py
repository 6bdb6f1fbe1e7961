"""Layered multi-agent inference with diversity selection, residual
propagation, adaptive early stopping, and full cost accounting.

Chat and embedding backends are pluggable; deterministic in-process mocks
make every pipeline behavior testable offline.

The package exports the names the README documents, plus the types a
caller builds to use them; every other helper is imported from its
submodule (``rmoa.agents``, ``rmoa.embedding``, ...).
"""

# Set before the submodules load: the HTTP clients name it in their User-Agent.
__version__ = "0.1.0"

from .accounting import (
    UsageLedger,
    dollar_cost,
    hallucination_rate,
    tflops_estimate,
)
from .agents import SamplingParams, parse_residual_flag
from .backends import Backends, HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from .embedding import EmbeddingVector, build_similarity_matrix
from .harness import (
    BenchmarkItem,
    BenchmarkReport,
    grade_boxed,
    load_dataset,
    run_benchmark,
)
from .mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule
from .pipeline import RunConfig, Transcript, run_pipeline
from .selection import greedy_diverse_select
from .termination import (
    TerminationConfig,
    adaptive_should_stop,
    similarity_threshold_stop,
    variance_stop,
)

__all__ = [
    "Backends",
    "BenchmarkItem",
    "BenchmarkReport",
    "EmbeddingVector",
    "HttpChatBackend",
    "HttpEmbeddingBackend",
    "MockChatBackend",
    "MockEmbeddingBackend",
    "MockRule",
    "RetryPolicy",
    "RunConfig",
    "SamplingParams",
    "TerminationConfig",
    "Transcript",
    "UsageLedger",
    "adaptive_should_stop",
    "build_similarity_matrix",
    "dollar_cost",
    "grade_boxed",
    "greedy_diverse_select",
    "hallucination_rate",
    "load_dataset",
    "parse_residual_flag",
    "run_benchmark",
    "run_pipeline",
    "similarity_threshold_stop",
    "tflops_estimate",
    "variance_stop",
]
