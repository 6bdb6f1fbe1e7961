"""``FaultPlan``: backends that fail chosen calls, each named by what the call is.

A plan maps ``(kind, layer, agent_index)``, plus optionally the question of
the one item it applies to, to a fault. The key is read from each request,
never from call order, so a plan means the same at any parallelism. A
system persona marks a proposer call: its place in the prompt set's roles
is the agent index (so ``proposers_per_layer <= len(roles)``), and that
agent's calls so far give the layer. A call holding ``EXTRACTION_MARKER``
is the extractor, any other chat call an aggregator, both at the highest
proposer layer so far; the n-th embedding call is layer n. These three use
agent index 0. ``fork_for_run`` starts fresh counts, as for each item of
``run_benchmark``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from types import SimpleNamespace

from rmoa.errors import BackendUnavailableError, ProtocolError
from rmoa.mockbackend import EXTRACTION_MARKER
from rmoa.prompts import load_prompt_set

# Faults that raise: the error and the start of its message.
RAISED = {
    "unavailable": (BackendUnavailableError, "backend unavailable"),
    "protocol": (ProtocolError, "protocol error"),
    "bug": (RuntimeError, "caller bug"),
}
CHAT_FAULTS = (*RAISED, "empty")  # "empty" is a blank completion
# Faults that replace an embedding batch's rows.
ROW_FAULTS = {
    "short": lambda rows: rows[:-1],
    "ragged": lambda rows: (*rows[:-1], (*rows[-1], 0.0)),
    "dimension": lambda rows: tuple(row + row for row in rows),
    "overflow": lambda rows: tuple((1e200, 1e200 * (-1) ** i) for i in range(len(rows))),
    "sum_overflow": lambda rows: ((1e154, 1e154),) * len(rows),
    "tiny": lambda rows: ((1e-150, 1e-150),) * len(rows),
    "nan": lambda rows: tuple((math.nan, *row[1:]) for row in rows),
    "empty": lambda rows: ((),) * len(rows),
    "string": lambda rows: (("x", *rows[0][1:]), *rows[1:]),
}
EMBEDDING_FAULTS = (*RAISED, *ROW_FAULTS)


def _key(kind: str, layer: int, agent_index: int = 0, question: str | None = None) -> tuple:
    return kind, layer, agent_index, question


def _new_run(agents: int) -> SimpleNamespace:
    """One run's counts so far, and the plan's questions it has shown."""
    return SimpleNamespace(lock=threading.Lock(), proposer_calls=[0] * agents, layer=0,
                           embed_calls=0, questions=set())


class FaultPlan:
    """``backends`` with ``faults`` injected; pass it where ``Backends`` go."""

    def __init__(self, backends, faults: dict, roles=None) -> None:
        self.personas = [role.render() for role in roles or load_prompt_set().roles]
        if len(set(self.personas)) < len(self.personas):
            raise ValueError("a persona maps to more than one agent")
        self.faults = {_key(*key): fault for key, fault in faults.items()}
        for key, fault in self.faults.items():
            if fault not in (EMBEDDING_FAULTS if key[0] == "embedding" else CHAT_FAULTS):
                raise ValueError(f"cannot inject {fault!r} at {key}")
        self.forked = threading.local()
        run = _new_run(len(self.personas))
        self.chat = _Side(self, backends.chat, run)
        self.embedding = backends.embedding and _Side(self, backends.embedding, run)


class _Side:
    """The chat or the embedding side of a plan, counting calls in ``run``."""

    def __init__(self, plan: FaultPlan, inner, run: SimpleNamespace) -> None:
        self.plan, self.inner, self.run = plan, inner, run
        self.model = inner.model
        self.max_input_chars = getattr(inner, "max_input_chars", None)

    def chat(self, messages, *, temperature, max_tokens):
        plan, run, agent = self.plan, self.run, 0
        with run.lock:
            if messages[0]["role"] == "system":
                kind, agent = "proposer", plan.personas.index(messages[0]["content"])
                run.proposer_calls[agent] += 1
                layer = run.proposer_calls[agent]
                run.layer = max(run.layer, layer)
                content = messages[-1]["content"]
                run.questions.update(key[3] for key in plan.faults if key[3] and key[3] in content)
            else:
                marked = any(EXTRACTION_MARKER in m["content"] for m in messages)
                kind, layer = "extractor" if marked else "aggregator", run.layer
            fault = self._fault(kind, layer, agent)
        result = self.inner.chat(messages, temperature=temperature, max_tokens=max_tokens)
        return replace(result, text=" \n") if fault == "empty" else result

    def embed(self, texts):
        with self.run.lock:
            self.run.embed_calls += 1
            fault = self._fault("embedding", self.run.embed_calls)
        batch = self.inner.embed(texts)
        return replace(batch, vectors=ROW_FAULTS[fault](batch.vectors)) if fault else batch

    def _fault(self, kind: str, layer: int, agent_index: int = 0) -> str | None:
        """The fault planned for this call, raised if it raises."""
        keys = [_key(kind, layer, agent_index, q) for q in (None, *self.run.questions)]
        fault = next((self.plan.faults[key] for key in keys if key in self.plan.faults), None)
        if fault in RAISED:
            error, words = RAISED[fault]
            where = f"proposer {agent_index}" if kind == "proposer" else kind
            raise error(f"{words} at layer {layer} {where}")
        return fault

    def fork_for_run(self) -> _Side:
        # run_benchmark forks an item's chat, then its embedding side, on one thread
        forked = self.plan.forked
        if self is self.plan.chat or not hasattr(forked, "run"):
            forked.run = _new_run(len(self.plan.personas))
        return _Side(self.plan, self.inner.fork_for_run(), forked.run)
