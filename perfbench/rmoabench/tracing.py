"""Spans recorded from outside the program, around the calls into each layer.

Nothing in ``src/`` changes. While a :class:`Tracer` or :class:`ItemTimer` is
active it replaces names in ``rmoa.harness`` and ``rmoa.pipeline`` (the
layer functions those modules call), ``UsageLedger.to_json_dict``, and the
backend objects, then puts every original back.

Item identity reaches proposer pool threads through the backends: the
harness calls ``fork_for_run`` on the chat backend, then on the embedding
backend, once per item in the item's worker thread, so the wrapper's fork
hands both a fresh item key. Every span carries its item key, the item's
current layer and the span that caused it. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path

from rmoa import harness, pipeline
from rmoa.accounting import UsageLedger
from rmoa.backends import Backends

_now = time.perf_counter_ns


class _Patches:
    """Replace attributes and put the originals back on exit."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class ItemTimer:
    """The untraced run's only instrumentation: one timer per item's pipeline call."""

    def __init__(self) -> None:
        self.walls: dict[str, tuple[float, float]] = {}
        self._patches = _Patches()

    def __enter__(self) -> "ItemTimer":
        run_pipeline = harness.run_pipeline

        def timed(query, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run_pipeline(query, *args, **kwargs)
            finally:
                self.walls[query] = (start, time.perf_counter())

        self._patches.set(harness, "run_pipeline", timed)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()


class Span:
    """One call into a layer. ``value`` holds a proposer's prompt tokens, or
    the bytes on disk after a flush."""

    __slots__ = ("id", "name", "start", "end", "parent", "item", "layer", "value")

    def __init__(self, span_id, name, start, parent, item, layer) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.layer = layer
        self.value = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans for one traced phase; use as a context manager."""

    def __init__(self, item_ids: dict[str, str]) -> None:
        self.item_ids = item_ids
        self.spans: list[Span] = []
        self.walls: dict[str, tuple[float, float]] = {}
        self.key_items: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._keys = itertools.count(1)
        self._local = threading.local()
        self._roots: dict[int, int] = {}
        self._layers: dict[int, int] = {}
        self._run_span: int | None = None
        self._patches = _Patches()

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, item: int | None = None, layer: int | None = None) -> Span:
        stack = self._stack()
        if item is None and stack:
            item = stack[-1].item
        if stack:
            parent = stack[-1].id
        else:
            parent = self._roots.get(item, self._run_span)
        if layer is None:
            layer = self._layers.get(item)
        span = Span(next(self._ids), name, _now(), parent, item, layer)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = _now()
        self._stack().pop()
        self.spans.append(span)

    def new_item_key(self) -> int:
        key = next(self._keys)
        self._local.fork_key = key
        return key

    def last_item_key(self) -> int:
        """The key this thread's last chat fork made; the harness forks chat first."""
        return self._local.fork_key

    def _wrap(self, owner, name: str, span_name: str, item_of=None, layer_of=None) -> None:
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            item = item_of(args, kwargs) if item_of else None
            layer = layer_of(args, kwargs) if layer_of else None
            span = self.start(span_name, item, layer)
            try:
                return inner(*args, **kwargs)
            finally:
                self.finish(span)

        self._patches.set(owner, name, wrapper)

    # -- installation -----------------------------------------------------

    def wrap_backends(self, backends: Backends) -> Backends:
        return Backends(
            chat=TracedChat(backends.chat, self, None),
            embedding=TracedEmbedding(backends.embedding, self, None),
        )

    def __enter__(self) -> "Tracer":
        self._wrap_run_benchmark()
        self._wrap_item()
        self._wrap_propose()
        self._wrap(pipeline, "extract_residual", "agents.extract", _backend_item(2))
        self._wrap(pipeline, "aggregate", "agents.aggregate", _backend_item(2), _layer_kwarg)
        self._wrap(pipeline, "embed_batch", "embedding.embed_batch", _backend_item(1))
        self._wrap(pipeline, "build_similarity_matrix", "embedding.similarity")
        self._wrap(pipeline, "greedy_diverse_select", "selection.select")
        self._wrap(pipeline, "layer_converged", "termination.converged")
        self._wrap_flush()
        self._wrap(UsageLedger, "to_json_dict", "accounting.ledger_json")
        self._wrap(harness, "write_report_files", "harness.report")
        return self

    def __exit__(self, *exc) -> None:
        self._patches.restore()

    def _wrap_run_benchmark(self) -> None:
        inner = harness.run_benchmark

        def run_benchmark(*args, **kwargs):
            span = self.start("harness.run")
            self._run_span = span.id
            try:
                return inner(*args, **kwargs)
            finally:
                self.finish(span)
                self._run_span = None

        self._patches.set(harness, "run_benchmark", run_benchmark)

    def _wrap_item(self) -> None:
        inner = harness.run_pipeline

        def run_pipeline(query, config, backends, **kwargs):
            key = backends.chat.item
            self.key_items[key] = self.item_ids[query]
            started = time.perf_counter()
            span = self.start("harness.item", key)
            self._roots[key] = span.id
            try:
                return inner(query, config, backends, **kwargs)
            finally:
                self.finish(span)
                self.walls[query] = (started, time.perf_counter())

        self._patches.set(harness, "run_pipeline", run_pipeline)

    def _wrap_propose(self) -> None:
        inner = pipeline.propose

        def propose(*args, **kwargs):
            item = _item_of(args, kwargs, 3)
            layer = kwargs["layer"]
            self._layers[item] = layer
            span = self.start("agents.propose", item, layer)
            try:
                response = inner(*args, **kwargs)
                span.value = response.usage.prompt_tokens
                return response
            finally:
                self.finish(span)

        self._patches.set(pipeline, "propose", propose)

    def _wrap_flush(self) -> None:
        inner = pipeline._flush

        def flush(persist_dir, transcript):
            span = self.start("pipeline.flush")
            try:
                inner(persist_dir, transcript)
            finally:
                self.finish(span)
            if persist_dir is not None:
                span.value = sum(
                    (Path(persist_dir) / name).stat().st_size
                    for name in ("transcript.json", "ledger.json")
                )

        self._patches.set(pipeline, "_flush", flush)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = {
                    "id": span.id,
                    "name": span.name,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "parent": span.parent,
                    "item": self.key_items.get(span.item),
                    "layer": span.layer,
                }
                if span.value is not None:
                    record["value"] = span.value
                handle.write(json.dumps(record) + "\n")


def _item_of(args, kwargs, index: int) -> int | None:
    backend = args[index] if len(args) > index else kwargs.get("backend")
    return getattr(backend, "item", None)


def _backend_item(index: int):
    """Item key of the traced backend passed as positional argument ``index``."""
    return lambda args, kwargs: _item_of(args, kwargs, index)


def _layer_kwarg(args, kwargs) -> int | None:
    return kwargs.get("layer")


class TracedChat:
    """Chat backend wrapper: one ``backends.chat`` span per call."""

    def __init__(self, inner, tracer: Tracer, item: int | None) -> None:
        self.inner = inner
        self.model = inner.model
        self.tracer = tracer
        self.item = item

    def chat(self, messages, **kwargs):
        span = self.tracer.start("backends.chat", self.item)
        try:
            return self.inner.chat(messages, **kwargs)
        finally:
            self.tracer.finish(span)

    def fork_for_run(self) -> "TracedChat":
        return TracedChat(harness._fork(self.inner), self.tracer, self.tracer.new_item_key())


class TracedEmbedding:
    """Embedding backend wrapper: one ``backends.embed`` span per call."""

    def __init__(self, inner, tracer: Tracer, item: int | None) -> None:
        self.inner = inner
        self.model = inner.model
        self.max_input_chars = inner.max_input_chars
        self.tracer = tracer
        self.item = item

    def embed(self, texts):
        span = self.tracer.start("backends.embed", self.item)
        try:
            return self.inner.embed(texts)
        finally:
            self.tracer.finish(span)

    def fork_for_run(self) -> "TracedEmbedding":
        key = self.tracer.last_item_key()
        return TracedEmbedding(harness._fork(self.inner), self.tracer, key)
