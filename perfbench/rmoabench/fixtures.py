"""Seeded benchmark inputs and the pure reply functions both backends share.

Everything here is a function of the seed and of the request content only,
never of arrival order, so a reply, a verdict or a delay is the same
whichever thread or connection asks for it. The module does not import
``rmoa``: the loopback stub process uses it as well.

Each question names the layer at which its answers converge, and every
reply carries a ``[difficulty/layer]`` tag, which the next layer's prompts
quote. The extractor says "No" exactly at that layer. Every block of
``len(DEPTH_PLAN)`` items holds the same mix of depths in a seeded order,
so a seed changes the inputs but not the shape of the workload: with an
early-stopping policy, the mean depth does not vary from seed to seed.

Two entries of the depth plan, ``LONG_ENTRIES``, are long-form items: their
answers come from a pool of replies about seven times as long. They move
with the seeded order, and every block has them at the same depths. A real
question set mixes short and long answers, and the per-item tail then
measures how the program handles the long ones (every layer rewrites the
whole transcript) rather than the few slowest seconds of a shared host.

The package's own ``MockEmbeddingBackend`` is deliberately not used. Its
SHA-256 expansion of every vector is about half of a mock run, so a change
to that test fixture would read as a framework gain. Here embeddings come
from a precomputed pool and cost one short hash per text.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from statistics import NormalDist

EMBED_DIM = 1024
REPLY_POOL = 256
LONG_REPLY_POOL = 64
VECTOR_POOL = 128
DETAIL_POOL = 64
VOCABULARY = 4000
REPLY_WORDS = (150, 450)
LONG_REPLY_WORDS = (1500, 3000)
DETAIL_WORDS = (20, 60)
QUESTION_WORDS = (20, 60)

# The extraction template's title; only extractor prompts contain it.
EXTRACTOR_MARKER = "Residuals Simulation"
# The layer at which each item's extractor says "No". The mix follows a
# quarter chance of "No" per extractor call over six layers; 7 means never.
DEPTH_PLAN = (2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 5, 6, 7, 7, 7, 7)
# The plan entries that are long-form items: one that stops at layer 3 and
# one that never stops.
LONG_ENTRIES = (4, 12)
_DIFFICULTY = re.compile(r"\(difficulty (\d+)(, long-form)?\)")
_TAG = re.compile(r"\[(\d+)/(\d+)\]")

DELAY_MEDIAN_S = 0.020
DELAY_SIGMA = 0.5

_UNIT = NormalDist()


def token_count(text: str) -> int:
    """Tokens under a fixed four-characters-per-token model."""
    return math.ceil(len(text) / 4)


class Fixture:
    """The seeded pools and items of one benchmark seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._key = f"rmoabench-{seed}".encode()
        rng = random.Random(f"rmoabench-pools-{seed}")
        letters = "abcdefghijklmnopqrstuvwxyz"
        self.vocabulary = [
            "".join(rng.choice(letters) for _ in range(rng.randint(2, 10)))
            for _ in range(VOCABULARY)
        ]
        self.replies = [self._words(rng, *REPLY_WORDS) for _ in range(REPLY_POOL)]
        self.details = [self._words(rng, *DETAIL_WORDS) for _ in range(DETAIL_POOL)]
        self.vectors = [_unit_vector(rng) for _ in range(VECTOR_POOL)]
        self.long_replies = [self._words(rng, *LONG_REPLY_WORDS) for _ in range(LONG_REPLY_POOL)]

    def _words(self, rng: random.Random, low: int, high: int) -> str:
        return " ".join(rng.choice(self.vocabulary) for _ in range(rng.randint(low, high)))

    def _hash(self, data: bytes, person: bytes) -> int:
        digest = hashlib.blake2b(data, digest_size=8, key=self._key, person=person)
        return int.from_bytes(digest.digest(), "big")

    def item(self, index: int) -> tuple[str, str]:
        """The ``(id, question)`` of item ``index``; questions are unique."""
        block, slot = divmod(index, len(DEPTH_PLAN))
        order = list(range(len(DEPTH_PLAN)))
        random.Random(f"rmoabench-plan-{self.seed}-{block}").shuffle(order)
        entry = order[slot]
        form = ", long-form" if entry in LONG_ENTRIES else ""
        rng = random.Random(f"rmoabench-item-{self.seed}-{index}")
        words = self._words(rng, *QUESTION_WORDS)
        question = f"Question {index} (difficulty {DEPTH_PLAN[entry]}{form}): {words}?"
        return f"s{self.seed}-{index:05d}", question

    def reply(self, prompt: str) -> str:
        """The completion for a chat prompt (message contents joined by newlines)."""
        tags = [(int(d), int(layer)) for d, layer in _TAG.findall(prompt)]
        pick = self._hash(prompt.encode(), b"reply")
        if EXTRACTOR_MARKER in prompt:
            difficulty = tags[0][0] if tags else 0
            layer = max((layer for _, layer in tags), default=0)
            if layer == difficulty:
                return "Residuals Detected: No"
            detail = self.details[pick % DETAIL_POOL]
            return f"Residuals Detected: Yes\nResidual Details:\n1. [{difficulty}/{layer}] {detail}"
        found = _DIFFICULTY.search(prompt)
        difficulty = int(found.group(1)) if found else 0
        pool = self.long_replies if found and found.group(2) else self.replies
        layer = max((layer for _, layer in tags), default=0) + 1
        return f"[{difficulty}/{layer}] {pool[pick % len(pool)]}"

    def vector_index(self, text: str) -> int:
        return self._hash(text.encode(), b"embed") % VECTOR_POOL

    def delay_s(self, body: bytes) -> float:
        """Lognormal service time with a 20 ms median, drawn from the body."""
        u = (self._hash(body, b"delay") >> 11) / 2.0**53
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        return DELAY_MEDIAN_S * math.exp(DELAY_SIGMA * _UNIT.inv_cdf(u))

    def vector_json(self) -> list[str]:
        """Each pool vector serialised once as a JSON array."""
        return [json.dumps(vector) for vector in self.vectors]


def _unit_vector(rng: random.Random) -> tuple[float, ...]:
    components = [rng.gauss(0.0, 1.0) for _ in range(EMBED_DIM)]
    norm = math.sqrt(math.fsum(c * c for c in components))
    return tuple(c / norm for c in components)
