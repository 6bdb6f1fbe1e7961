"""The layer engine: one loop for the refinement mode and its baseline.

Every layer fans out to the proposers, then turns their replies into the
next layer's reference; ``RunConfig.mode`` decides that one step. In
``rmoa`` mode a layer embeds the replies, keeps a diverse top-k, extracts a
residual against the previous layer's selection, builds the reference from
the previous selection plus that residual, and checks the early-stop
window. In ``moa`` mode every reply is forwarded with no residual and no
early stop. Per-layer snapshots, persistence and the final aggregation
are shared; the aggregation template follows the mode.

An item has one guarded path: a failed call, a degenerate or mismatched
embedding, or a layer whose proposers all failed ends it as
``backend_abort`` with the event ``aborted: <stage>: <reason>``; the stage
is ``layer N``, ``layer N snapshot`` or ``final aggregation``.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .accounting import UsageLedger
from .agents import (
    NO_RESIDUAL,
    Residual,
    Response,
    SamplingParams,
    aggregate,
    extract_residual,
    propose,
    render_numbered_responses,
)
from .backends import Backends
from .embedding import (
    EmbeddingVector,
    build_similarity_matrix,
    embed_batch,
)
from .errors import (
    BackendUnavailableError,
    ConfigError,
    DegenerateEmbeddingError,
    DimensionMismatchError,
    EmptyResponseError,
    ProtocolError,
)
from .prompts import PromptSet, load_prompt_set
from .selection import SelectionResult, greedy_diverse_select
from .termination import (
    ResidualWindow,
    TerminationConfig,
    adaptive_should_stop,
    layer_converged,
)

MODES = ("rmoa", "moa")

STOP_MAX_LAYERS = "max_layers"
STOP_ADAPTIVE = "adaptive_stop"
STOP_BACKEND_ABORT = "backend_abort"

# Exceptions that mean "this call failed", as opposed to caller bugs.
_CALL_FAILURES = (BackendUnavailableError, ProtocolError, EmptyResponseError)


class _Abort(Exception):
    """A layer that cannot go on although no single call raised."""


# Everything that ends an item early as ``backend_abort``.
_ABORTS = _CALL_FAILURES + (DegenerateEmbeddingError, DimensionMismatchError, _Abort)


@dataclass(frozen=True)
class RunConfig:
    """Shape of one pipeline run.

    Defaults are the recommended operating point: six layers of six
    proposers with three responses kept per layer, sampled at temperature
    0.7 with a 1024-token cap.
    """

    layers: int = 6
    proposers_per_layer: int = 6
    select_k: int = 3
    termination: TerminationConfig = field(default_factory=TerminationConfig)
    sampling: SamplingParams = field(default_factory=SamplingParams)
    mode: str = "rmoa"
    benchmark: str = "generic"
    capture_layer_answers: bool = False

    def __post_init__(self) -> None:
        if self.layers < 1:
            raise ConfigError("layers must be at least 1")
        if self.proposers_per_layer < 1:
            raise ConfigError("proposers_per_layer must be at least 1")
        if not 1 <= self.select_k <= self.proposers_per_layer:
            raise ConfigError("select_k must satisfy 1 <= k <= proposers_per_layer")
        if not 1 <= self.termination.m <= self.layers:
            raise ConfigError("termination.m must satisfy 1 <= m <= layers")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class LayerState:
    """Everything one layer produced."""

    layer: int
    responses: list[Response]
    selected: SelectionResult
    residual: Residual
    reference_context: str
    terminated_here: bool
    snapshot_answer: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "layer": self.layer,
            "responses": [_response_dict(r) for r in self.responses],
            "selected": {
                "selected_indices": list(self.selected.selected_indices),
                "k": self.selected.k,
            },
            "residual": {"kind": self.residual.kind, "text": self.residual.text},
            "reference_context": self.reference_context,
            "terminated_here": self.terminated_here,
            "snapshot_answer": self.snapshot_answer,
        }


@dataclass
class Transcript:
    """Full record of one run.

    With a persist directory, each finished layer is appended to
    ``layers.jsonl``; ``transcript.json`` and ``ledger.json`` are written
    once, atomically, when the run completes or aborts.
    """

    config: RunConfig
    query: str
    layer_states: list[LayerState]
    final_response: Response | None
    ledger: UsageLedger
    stop_reason: str | None
    events: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "query": self.query,
            "layer_states": [state.to_json_dict() for state in self.layer_states],
            "final_response": (
                _response_dict(self.final_response) if self.final_response else None
            ),
            "ledger": self.ledger.to_json_dict(),
            "stop_reason": self.stop_reason,
            "events": list(self.events),
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )


def _response_dict(response: Response) -> dict:
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


def build_reference_context(
    previous_selected: list[Response] | tuple[Response, ...],
    residual: Residual,
) -> str:
    """Numbered reference blocks in selection order, then the residual block."""
    if not previous_selected:
        raise ValueError("previous_selected must be nonempty")
    return (
        f"{render_numbered_responses(list(previous_selected))}\n\n"
        f"Residual:\n{residual.prompt_text}"
    )


def _append_layer(persist_dir: Path | None, state: LayerState) -> None:
    """Append one compact line for ``state`` to the item's layer log.

    Layer 1 starts a fresh log and removes the final files of an earlier
    run in the same directory, so a log without ``transcript.json`` always
    means an interrupted run.
    """
    if persist_dir is None:
        return
    persist_dir = Path(persist_dir)
    first = state.layer == 1
    if first:
        persist_dir.mkdir(parents=True, exist_ok=True)
        for name in ("transcript.json", "ledger.json"):
            (persist_dir / name).unlink(missing_ok=True)
    line = json.dumps(state.to_json_dict(), sort_keys=True) + "\n"
    mode = "w" if first else "a"
    with (persist_dir / "layers.jsonl").open(mode, encoding="utf-8") as handle:
        handle.write(line)


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` to a temp file beside ``path``, then rename it into place.

    There is no fsync: the file survives a process crash, not a power loss.
    """
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    os.replace(temp, path)


def _flush(persist_dir: Path | None, transcript: Transcript) -> None:
    """Write the final ``transcript.json`` and ``ledger.json``, then drop the log.

    Each file is streamed from ``iterencode`` rather than built by one
    ``json.dumps``: the whole indented text of a deep transcript never sits
    in memory at once. One string per file cost ``http-fanout`` 2.6 MB of
    peak RSS (41.4 to 44.0 MB in a 10 s run on a 2-vCPU VM) and saved no CPU.
    """
    if persist_dir is None:
        return
    persist_dir = Path(persist_dir)
    persist_dir.mkdir(parents=True, exist_ok=True)
    payload = transcript.to_json_dict()
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    for name, part in (("transcript.json", payload), ("ledger.json", payload["ledger"])):
        write_atomic(persist_dir / name, chain(encoder.iterencode(part), "\n"))
    (persist_dir / "layers.jsonl").unlink(missing_ok=True)


def ordered_map(fn: Callable, args: Sequence, pool: Executor | None) -> list:
    """``fn`` applied to each of ``args``, results in input order.

    With no pool, or at most one argument, the calls run inline on the
    calling thread; otherwise they run on ``pool``, which other maps may be
    using at the same time. The first exception in input order propagates,
    and this map's calls not yet started are then cancelled; calls already
    running finish on the pool.
    """
    if pool is None or len(args) <= 1:
        return [fn(arg) for arg in args]
    return list(pool.map(fn, args))


def run_pipeline(
    query: str,
    config: RunConfig,
    backends: Backends,
    *,
    prompts: PromptSet | None = None,
    ledger: UsageLedger | None = None,
    persist_dir: Path | None = None,
    executor: Executor | None = None,
) -> Transcript:
    """Run the layered pipeline for one query in the mode named in the config.

    Each layer's proposer calls run on ``executor`` when one is given, for
    example a ``ThreadPoolExecutor`` of n workers for up to n concurrent
    calls (a benchmark run shares one across its items); the caller owns
    and closes it. Without one, the calls run inline on the calling
    thread, one after another.
    """
    refine = config.mode == "rmoa"
    if refine and backends.embedding is None:
        raise ConfigError("rmoa mode needs an embedding backend")
    if not query:
        raise ValueError("query must be nonempty")
    prompts = prompts or load_prompt_set(config.benchmark)
    ledger = ledger if ledger is not None else UsageLedger()
    transcript = Transcript(config, query, [], None, ledger, None)
    events = transcript.events
    task = prompts.render_task(query)
    template = prompts.aggregation if refine else prompts.baseline_aggregation
    count = config.proposers_per_layer

    def propose_layer(layer: int, references: str | None) -> list[Response]:
        # Failed slots are dropped and noted; usage goes to the ledger in
        # agent-index order after the barrier, never in thread order.
        def call(agent_index: int) -> Response | Exception:
            try:
                return propose(
                    task, references, prompts.roles[agent_index % len(prompts.roles)],
                    backends.chat, config.sampling, layer=layer, agent_index=agent_index,
                    refinement_template=prompts.refinement,
                )
            except _CALL_FAILURES as exc:
                return exc

        responses: list[Response] = []
        for i, outcome in enumerate(ordered_map(call, range(count), executor)):
            if isinstance(outcome, Exception):
                events.append(f"layer {layer} proposer {i} failed: {outcome}")
            else:
                responses.append(outcome)
                ledger.append("proposer", backends.chat.model, outcome.usage)
        return responses

    def fuse(layer: int) -> Response:
        return aggregate(
            aggregation_base, residual, backends.chat, query=query, template=template,
            params=config.sampling, layer=layer, ledger=ledger,
        )

    window = ResidualWindow((), config.termination.m)
    previous_selected: list[Response] = []
    previous_vectors: list[EmbeddingVector] = []
    reference: str | None = None
    aggregation_base: list[Response] = []
    residual: Residual = NO_RESIDUAL
    snapshot: Response | None = None

    try:
        for layer in range(1, config.layers + 1):
            stage = f"layer {layer}"
            responses = propose_layer(layer, reference)
            if not responses:
                raise _Abort("every proposer failed")

            terminated_here = False
            if refine:
                vectors = embed_batch(
                    [r.text for r in responses], backends.embedding,
                    ledger=ledger, on_event=events.append,
                )
                matrix = build_similarity_matrix(vectors)
                selection = greedy_diverse_select(matrix, config.select_k)
                selected = [responses[i] for i in selection.selected_indices]
                selected_vectors = [vectors[i] for i in selection.selected_indices]
                residual = extract_residual(
                    selected, previous_selected, backends.chat,
                    template=prompts.extraction, params=config.sampling, ledger=ledger,
                )
                if layer >= 2:
                    converged = layer_converged(
                        config.termination, residual.detected, previous_vectors, selected_vectors
                    )
                    window = window.extended(not converged)
                    terminated_here = layer < config.layers and adaptive_should_stop(window)
                aggregation_base = previous_selected or selected
                reference = build_reference_context(aggregation_base, residual)
                previous_selected = selected
                previous_vectors = selected_vectors
            else:
                selection = SelectionResult(tuple(range(len(responses))))
                aggregation_base = responses
                reference = render_numbered_responses(responses)

            state = LayerState(layer, responses, selection, residual, reference, terminated_here)
            transcript.layer_states.append(state)
            if config.capture_layer_answers:
                stage = f"layer {layer} snapshot"
                snapshot = fuse(layer)
                state.snapshot_answer = snapshot.text
            _append_layer(persist_dir, state)
            if terminated_here:
                break

        stage = "final aggregation"
        transcript.final_response = snapshot if snapshot is not None else fuse(layer)
        transcript.stop_reason = STOP_ADAPTIVE if terminated_here else STOP_MAX_LAYERS
    except _ABORTS as exc:
        events.append(f"aborted: {stage}: {exc}")
        transcript.stop_reason = STOP_BACKEND_ABORT
    _flush(persist_dir, transcript)
    return transcript
