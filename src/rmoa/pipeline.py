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
``backend_abort`` with one ``aborted`` event (see ``Transcript``).
"""

from __future__ import annotations

import contextlib
import json
import os
from concurrent.futures import Executor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .accounting import UsageLedger
from .agents import (
    NO_RESIDUAL,
    Residual,
    Response,
    SamplingParams,
    aggregate,
    extract_residual,
    parse_residual_flag,
    propose,
    proposer_messages,
    proposer_prompt,
    proposer_response,
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

# The one text format of layers.jsonl, transcript.json and ledger.json:
# compact, key-sorted JSON from one encoder's one-shot ``encode`` (the C
# encoder). A persisted layer is encoded once, for its log line, and
# transcript.json splices those lines. ASCII-only output, so a line never
# holds a raw newline. Stateless, so threads share it.
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


def event_record(kind: str, layer: int, reason: str, *, stage=None, agent=None) -> dict:
    """One entry of ``Transcript.events``; its fields are described there."""
    return {"kind": kind, "stage": stage, "layer": layer, "agent": agent, "reason": reason}


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
    """Everything one layer produced; ``converged`` is its stop policy's verdict.

    The reference the layer handed to the next layer's proposers is not
    kept: it follows from the persisted fields. In ``rmoa`` mode it is
    ``build_reference_context`` of the previous layer's selected responses
    (at layer 1, this layer's own) and this layer's residual; in ``moa``
    mode it is ``render_numbered_responses`` of this layer's responses.
    """

    layer: int
    responses: list[Response]
    selected: SelectionResult
    residual: Residual
    converged: bool | None  # None at layer 1 and in moa mode, where no verdict is made
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
            "converged": self.converged,
            "snapshot_answer": self.snapshot_answer,
        }


@dataclass
class Transcript:
    """Full record of one run.

    With a persist directory, ``layers.jsonl`` is created empty when the
    run starts and each stored layer is appended to it as one line: when
    the layer finishes, or when its snapshot call fails. ``ledger.json``
    and then ``transcript.json`` are written once, atomically, when the run
    completes or aborts, so ``transcript.json`` exists only for a finished
    item. ``transcript.json`` is spliced from the log alone, so each
    persisted layer is encoded once. All three hold compact, key-sorted
    JSON, and ``to_json_bytes``, which encodes in memory, is the bytes of
    ``transcript.json``.

    Each event holds ``kind``, ``layer``, ``agent``, ``stage`` and ``reason``
    (its text): ``proposer_failed`` with its agent, ``truncated`` (an
    embedding input cut short) or ``aborted`` with its stage: ``layer`` (the
    failing one), ``snapshot`` or ``final`` (of the last layer run).
    """

    config: RunConfig
    query: str
    layer_states: list[LayerState]
    final_response: Response | None
    ledger: UsageLedger
    stop_reason: str | None
    events: list[dict] = field(default_factory=list)

    def to_json_bytes(self) -> bytes:
        ledger = _JSON_ENCODER.encode(self.ledger.to_json_dict())
        layers = map(_layer_json, self.layer_states)
        return "".join(_transcript_pieces(self, ledger, layers)).encode("utf-8")


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


@contextlib.contextmanager
def _layer_log(persist_dir: Path | None) -> Iterator[TextIO | None]:
    """The item's layer log, open for writing from the item's start to its end.

    Opening it makes the directory, removes the final files of an earlier
    run in it and empties the log, so a log without ``transcript.json``
    always means an interrupted run. The handle is closed on every exit.
    Without a persist directory there is no log.
    """
    if persist_dir is None:
        yield None
        return
    persist_dir = Path(persist_dir)
    persist_dir.mkdir(parents=True, exist_ok=True)
    for name in ("transcript.json", "ledger.json"):
        (persist_dir / name).unlink(missing_ok=True)
    with (persist_dir / "layers.jsonl").open("w", encoding="utf-8") as log:
        yield log


def _append_layer(log: TextIO | None, state: LayerState) -> None:
    """Write one compact line for ``state`` to the layer log and hand it to the OS.

    The flush means a crash in a later layer leaves every finished layer's
    line complete in the file.
    """
    if log is None:
        return
    log.write(_layer_json(state) + "\n")
    log.flush()


def write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Stream ``chunks`` to a temp file beside ``path``, then rename it into place.

    There is no fsync: the file survives a process crash, not a power loss.
    """
    temp = path.with_name(path.name + ".tmp")
    with temp.open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    os.replace(temp, path)


def _layer_json(state: LayerState) -> str:
    return _JSON_ENCODER.encode(state.to_json_dict())


def _transcript_pieces(transcript: Transcript, ledger: str, layers: Iterable[str]) -> Iterator[str]:
    """The text of ``transcript.json``: a head, one piece per layer, a tail.

    The head holds the keys that sort before ``layer_states``; the tail holds
    ``ledger`` (the ledger's text) and the keys after it. ``layers`` is the
    text of each layer state.
    """
    final = transcript.final_response
    head = {"config": transcript.config.to_json_dict(), "events": transcript.events,
            "final_response": _response_dict(final) if final else None}
    yield _JSON_ENCODER.encode(head)[:-1] + ', "layer_states": ['
    for i, layer in enumerate(layers):
        yield (", " if i else "") + layer
    tail = {"query": transcript.query, "stop_reason": transcript.stop_reason}
    yield '], "ledger": ' + ledger + ", " + _JSON_ENCODER.encode(tail)[1:] + "\n"


def _flush(persist_dir: Path | None, transcript: Transcript) -> None:
    """Write the final ``ledger.json`` and ``transcript.json``, then drop the log.

    ``transcript.json`` is renamed into place last, so its presence means
    the item finished. The log holds every stored layer, so its lines alone
    are streamed between the head and the tail: no layer is encoded a
    second time and the whole text never sits in memory at once.
    """
    if persist_dir is None:
        return
    persist_dir = Path(persist_dir)
    ledger = _JSON_ENCODER.encode(transcript.ledger.to_json_dict())
    write_atomic(persist_dir / "ledger.json", (ledger, "\n"))
    log_path = persist_dir / "layers.jsonl"
    with log_path.open(encoding="utf-8") as log:
        pieces = _transcript_pieces(transcript, ledger, (line[:-1] for line in log))
        write_atomic(persist_dir / "transcript.json", pieces)
    log_path.unlink()


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
    in_flight: int = 1,
) -> Transcript:
    """Run the layered pipeline for one query in the mode named in the config.

    A chat backend with a ``chat_many`` method, such as the HTTP client,
    gets each layer's proposer calls in one fan-out when ``in_flight`` is
    above 1: it keeps up to ``in_flight`` of them in flight from the
    calling thread. Otherwise the calls run on ``executor`` when one is
    given, for example a ``ThreadPoolExecutor`` of n workers for up to n
    concurrent calls (a benchmark run shares one across its items); the
    caller owns and closes it. Without either, the calls run inline on the
    calling thread, one after another.
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
    roles = [prompts.roles[i % len(prompts.roles)] for i in range(count)]
    chat_many = getattr(backends.chat, "chat_many", None)

    def propose_layer(layer: int, references: str | None) -> list[Response]:
        # Failed slots are dropped and noted; usage goes to the ledger in
        # agent-index order after the barrier, never in thread order.
        def call(agent_index: int) -> Response | Exception:
            try:
                return propose(
                    task, references, roles[agent_index], backends.chat, config.sampling,
                    layer=layer, agent_index=agent_index, refinement_template=prompts.refinement,
                )
            except _CALL_FAILURES as exc:
                return exc

        if chat_many is None or min(in_flight, count) <= 1:
            outcomes = ordered_map(call, range(count), executor)
        else:
            outcomes = fan_out(layer, references)
        responses: list[Response] = []
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                events.append(event_record("proposer_failed", layer, str(outcome), agent=i))
            else:
                responses.append(outcome)
                ledger.append("proposer", backends.chat.model, outcome.usage)
        return responses

    def fan_out(layer: int, references: str | None) -> list[Response | Exception]:
        # one chat_many call; the shared user message is rendered once
        prompt = proposer_prompt(task, references, prompts.refinement)
        replies = chat_many(
            [proposer_messages(role, prompt) for role in roles],
            temperature=config.sampling.temperature,
            max_tokens=config.sampling.max_tokens,
            in_flight=in_flight,
        )
        outcomes: list[Response | Exception] = []
        for i, reply in enumerate(replies):
            if not isinstance(reply, Exception):
                try:
                    reply = proposer_response(reply, roles[i], layer=layer, agent_index=i)
                except EmptyResponseError as exc:
                    reply = exc
            outcomes.append(reply)
        return outcomes

    def fuse(layer: int) -> Response:
        response = aggregate(
            aggregation_base, residual, backends.chat, query=query, template=template,
            params=config.sampling, layer=layer,
        )
        ledger.append("aggregator", backends.chat.model, response.usage)
        return response

    not_converged: list[bool] = []
    previous_selected: list[Response] = []
    previous_vectors: list[EmbeddingVector] = []
    reference: str | None = None
    aggregation_base: list[Response] = []
    residual: Residual = NO_RESIDUAL
    snapshot: Response | None = None

    with _layer_log(persist_dir) as log:
        try:
            for layer in range(1, config.layers + 1):
                stage = "layer"
                responses = propose_layer(layer, reference)
                if not responses:
                    raise _Abort("every proposer failed")

                stop_here, converged = False, None
                if refine:
                    vectors, usage = embed_batch(
                        [r.text for r in responses], backends.embedding,
                        on_event=lambda cut: events.append(event_record("truncated", layer, cut)),
                    )
                    ledger.append("embedding", backends.embedding.model, usage)
                    matrix = build_similarity_matrix(vectors)
                    selection = greedy_diverse_select(matrix, config.select_k)
                    selected = [responses[i] for i in selection.selected_indices]
                    selected_vectors = [vectors[i] for i in selection.selected_indices]
                    if previous_selected:
                        reply = extract_residual(
                            selected, previous_selected, backends.chat,
                            template=prompts.extraction, params=config.sampling,
                        )
                        ledger.append("extractor", backends.chat.model, reply.usage)
                        residual = parse_residual_flag(reply.text)
                        converged = layer_converged(
                            config.termination, residual.detected,
                            previous_vectors, selected_vectors,
                        )
                        not_converged.append(not converged)
                        stop_here = layer < config.layers and adaptive_should_stop(
                            not_converged, config.termination.m
                        )
                    aggregation_base = previous_selected or selected
                    reference = build_reference_context(aggregation_base, residual)
                    previous_selected = selected
                    previous_vectors = selected_vectors
                else:
                    selection = SelectionResult(tuple(range(len(responses))))
                    aggregation_base = responses
                    reference = render_numbered_responses(responses)

                state = LayerState(layer, responses, selection, residual, converged)
                transcript.layer_states.append(state)
                if config.capture_layer_answers:
                    stage = "snapshot"
                    snapshot = fuse(layer)
                    state.snapshot_answer = snapshot.text
                _append_layer(log, state)
                if stop_here:
                    break

            stage = "final"
            transcript.final_response = snapshot if snapshot is not None else fuse(layer)
            transcript.stop_reason = STOP_ADAPTIVE if stop_here else STOP_MAX_LAYERS
        except _ABORTS as exc:
            if stage == "snapshot":  # the one stored layer not yet in the log
                _append_layer(log, state)
            events.append(event_record("aborted", layer, str(exc), stage=stage))
            transcript.stop_reason = STOP_BACKEND_ABORT
    _flush(persist_dir, transcript)
    return transcript
