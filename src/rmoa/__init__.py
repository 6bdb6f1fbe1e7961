"""Layered multi-agent inference with diversity selection, residual
propagation, adaptive early stopping, and full cost accounting.

Chat and embedding backends are pluggable; deterministic in-process mocks
make every pipeline behavior testable offline.
"""

from .accounting import (
    GradedRound,
    TokenUsage,
    UsageLedger,
    dollar_cost,
    format_dollars,
    hallucination_rate,
    tflops_estimate,
)
from .agents import (
    NO_RESIDUAL,
    Residual,
    Response,
    SamplingParams,
    aggregate,
    extract_residual,
    parse_residual_flag,
    propose,
)
from .backends import Backends, HttpChatBackend, HttpEmbeddingBackend, RetryPolicy
from .embedding import (
    EmbeddingVector,
    SimilarityMatrix,
    build_similarity_matrix,
    cosine,
    embed_batch,
)
from .harness import (
    BenchmarkItem,
    BenchmarkReport,
    grade_boxed,
    grade_exact,
    load_dataset,
    run_benchmark,
)
from .mockbackend import MockChatBackend, MockEmbeddingBackend, MockRule, mock_embed
from .pipeline import (
    LayerState,
    RunConfig,
    Transcript,
    build_reference_context,
    run_pipeline,
)
from .prompts import PromptSet, PromptTemplate, load_prompt_set
from .selection import (
    SelectionResult,
    greedy_diverse_select,
    initial_index,
    next_index,
)
from .termination import (
    ResidualWindow,
    TerminationConfig,
    adaptive_should_stop,
    similarity_threshold_stop,
    variance_stop,
)

__version__ = "0.1.0"

__all__ = [
    "Backends",
    "BenchmarkItem",
    "BenchmarkReport",
    "EmbeddingVector",
    "GradedRound",
    "HttpChatBackend",
    "HttpEmbeddingBackend",
    "LayerState",
    "MockChatBackend",
    "MockEmbeddingBackend",
    "MockRule",
    "NO_RESIDUAL",
    "PromptSet",
    "PromptTemplate",
    "Residual",
    "ResidualWindow",
    "Response",
    "RetryPolicy",
    "RunConfig",
    "SamplingParams",
    "SelectionResult",
    "SimilarityMatrix",
    "TerminationConfig",
    "TokenUsage",
    "Transcript",
    "UsageLedger",
    "adaptive_should_stop",
    "aggregate",
    "build_reference_context",
    "build_similarity_matrix",
    "cosine",
    "dollar_cost",
    "embed_batch",
    "extract_residual",
    "format_dollars",
    "grade_boxed",
    "grade_exact",
    "greedy_diverse_select",
    "hallucination_rate",
    "initial_index",
    "load_dataset",
    "load_prompt_set",
    "mock_embed",
    "next_index",
    "parse_residual_flag",
    "propose",
    "run_benchmark",
    "run_pipeline",
    "similarity_threshold_stop",
    "tflops_estimate",
    "variance_stop",
]
