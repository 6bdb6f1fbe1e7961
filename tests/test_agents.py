"""Proposer/extractor/aggregator calls and residual-flag parsing."""

from __future__ import annotations

import math
import random
import string

import pytest

from rmoa.accounting import TokenUsage
from rmoa.agents import (
    NO_RESIDUAL,
    Residual,
    Response,
    SamplingParams,
    aggregate,
    extract_residual,
    parse_residual_flag,
    propose,
    render_numbered_responses,
)
from rmoa.errors import EmptyResponseError
from rmoa.mockbackend import MockChatBackend, MockRule
from rmoa.prompts import load_prompt_set

from conftest import make_mock_bundle
from faults import FaultPlan


def response(text: str, layer: int = 1, index: int = 0) -> Response:
    return Response(text, layer, index, "role", TokenUsage(1, 1))


class TestParseResidualFlag:
    def test_flag_no_case_insensitive(self):
        assert parse_residual_flag("residuals detected: no") == NO_RESIDUAL

    def test_flag_yes_with_details(self):
        residual = parse_residual_flag(
            "Residuals Detected: Yes\nResidual Details:\n1. Extra fact."
        )
        assert residual.detected
        assert residual.text == "Residual Details:\n1. Extra fact."

    def test_flag_yes_without_details_keeps_completion(self):
        completion = "Residuals Detected: Yes"
        residual = parse_residual_flag(completion)
        assert residual.detected
        assert residual.text == completion

    def test_whole_completion_no_update(self):
        assert parse_residual_flag("No update") == NO_RESIDUAL
        assert parse_residual_flag("  no change.  ") == NO_RESIDUAL

    def test_free_text_is_conservative(self):
        residual = parse_residual_flag("The answer improved.")
        assert residual == Residual.found("The answer improved.")

    def test_none_is_not_mistaken_for_no(self):
        # "None"/"Nothing" start with "no" but are not the word "no"
        assert parse_residual_flag("Residuals Detected: None were checked").detected
        assert parse_residual_flag("Residuals Detected: Nothing").detected

    def test_first_matching_line_wins(self):
        completion = "Residuals Detected: No\nResiduals Detected: Yes"
        assert parse_residual_flag(completion) == NO_RESIDUAL

    def test_never_raises_on_fuzz(self):
        rng = random.Random(97)
        alphabet = string.printable + "Ω≠京"
        words = ["yes", "no", "Residuals", "Detected:", "\n", ":", "no change"]
        for _ in range(2000):
            if rng.random() < 0.5:
                text = "".join(rng.choices(alphabet, k=rng.randint(0, 60)))
            else:
                text = " ".join(rng.choices(words, k=rng.randint(0, 10)))
            residual = parse_residual_flag(text)
            assert residual.kind in ("has_residual", "no_residual")


class TestPropose:
    def setup_method(self):
        self.prompts = load_prompt_set("generic")
        self.backend = MockChatBackend(MockRule())
        self.params = SamplingParams(temperature=0.7, max_tokens=1024)

    def test_completion_contains_query(self):
        result = propose(
            "What is the capital of France?",
            None,
            self.prompts.roles[0],
            self.backend,
            self.params,
        )
        assert "What is the capital of France?" in result.text
        assert result.role_name == self.prompts.roles[0].name

    def test_first_layer_has_no_reference_block(self):
        propose("Q1", None, self.prompts.roles[0], self.backend, self.params)
        prompt = self.backend.call_log[-1]["prompt"]
        assert "References:" not in prompt

    def test_references_rendered_into_prompt(self):
        propose(
            "Q1",
            "Response 1:\nprior answer",
            self.prompts.roles[0],
            self.backend,
            self.params,
            refinement_template=self.prompts.refinement,
        )
        prompt = self.backend.call_log[-1]["prompt"]
        assert "References:" in prompt
        assert "prior answer" in prompt
        assert "Q1" in prompt

    def test_operating_point_params_accepted(self):
        result = propose(
            "Q", None, self.prompts.roles[0], self.backend,
            SamplingParams(temperature=0.7, max_tokens=1024),
        )
        assert self.backend.call_log[-1]["temperature"] == 0.7
        assert self.backend.call_log[-1]["max_tokens"] == 1024
        assert result.usage.total > 0

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            propose("", None, self.prompts.roles[0], self.backend, self.params)

    def test_empty_completion_is_error(self):
        blank = FaultPlan(make_mock_bundle(), {("proposer", 1, 0): "empty"}).chat
        with pytest.raises(EmptyResponseError):
            propose("Q", None, self.prompts.roles[0], blank, self.params)


class TestExtractResidual:
    def setup_method(self):
        self.prompts = load_prompt_set("generic")
        self.params = SamplingParams()

    def test_empty_previous_rejected_before_backend(self):
        backend = MockChatBackend(MockRule())
        with pytest.raises(ValueError):
            extract_residual(
                [response("current")], [], backend,
                template=self.prompts.extraction, params=self.params,
            )
        assert backend.call_log == []

    def test_renders_both_blocks_once(self):
        backend = MockChatBackend(MockRule())
        extract_residual(
            [response("CURRENT-TEXT")],
            [response("PREVIOUS-TEXT")],
            backend,
            template=self.prompts.extraction,
            params=self.params,
        )
        prompt = backend.call_log[-1]["prompt"]
        assert prompt.count("CURRENT-TEXT") == 1
        assert prompt.count("PREVIOUS-TEXT") == 1
        assert prompt.count("Current round responses:") == 1
        assert prompt.count("Previous round responses:") == 1

    def test_scripted_verdicts(self):
        backend = MockChatBackend(MockRule(behavior="residual_script", script=(True, False)))
        first = extract_residual(
            [response("a")], [response("b")], backend,
            template=self.prompts.extraction, params=self.params,
        )
        second = extract_residual(
            [response("a")], [response("b")], backend,
            template=self.prompts.extraction, params=self.params,
        )
        assert parse_residual_flag(first.text).detected
        assert parse_residual_flag(second.text) == NO_RESIDUAL

    def test_empty_current_rejected(self):
        with pytest.raises(ValueError):
            extract_residual(
                [], [response("b")], MockChatBackend(MockRule()),
                template=self.prompts.extraction, params=self.params,
            )


class TestAggregate:
    def setup_method(self):
        self.prompts = load_prompt_set("generic")
        self.params = SamplingParams()

    def test_no_residual_renders_none_marker(self):
        backend = MockChatBackend(MockRule())
        aggregate(
            [response("ref")], NO_RESIDUAL, backend,
            query="Q", template=self.prompts.aggregation, params=self.params,
        )
        prompt = backend.call_log[-1]["prompt"]
        assert "(none)" in prompt

    def test_reference_and_residual_blocks_exactly_once(self):
        backend = MockChatBackend(MockRule())
        aggregate(
            [response("REF-BLOCK")], Residual.found("DELTA-BLOCK"), backend,
            query="QUERY-TEXT", template=self.prompts.aggregation, params=self.params,
        )
        prompt = backend.call_log[-1]["prompt"]
        assert prompt.count("REF-BLOCK") == 1
        assert prompt.count("DELTA-BLOCK") == 1
        assert prompt.count("QUERY-TEXT") == 1

    def test_deterministic(self):
        results = [
            aggregate(
                [response("ref")], NO_RESIDUAL, MockChatBackend(MockRule()),
                query="Q", template=self.prompts.aggregation, params=self.params,
            ).text
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_empty_references_rejected(self):
        with pytest.raises(ValueError):
            aggregate(
                [], NO_RESIDUAL, MockChatBackend(MockRule()),
                query="Q", template=self.prompts.aggregation, params=self.params,
            )


class TestTypes:
    def test_no_residual_cannot_carry_text(self):
        with pytest.raises(ValueError):
            Residual("no_residual", "leftover")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Residual("maybe")

    def test_sampling_params_validation(self):
        for temperature in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SamplingParams(temperature=temperature)
        with pytest.raises(ValueError):
            SamplingParams(max_tokens=0)

    def test_numbered_rendering(self):
        block = render_numbered_responses([response("one"), response("two")])
        assert block == "Response 1:\none\n\nResponse 2:\ntwo"
