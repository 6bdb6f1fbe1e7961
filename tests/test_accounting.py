"""Ledger arithmetic: dollars, compute estimates, flip rates."""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from rmoa.accounting import (
    TokenUsage,
    UsageLedger,
    dollar_cost,
    format_dollars,
    hallucination_rate,
    tflops_estimate,
)
from rmoa.errors import ConfigError

from oracles import concatenated


def ledger_with(entries, price="0.30", params=None):
    ledger = UsageLedger(price, params)
    for kind, model, prompt, completion in entries:
        ledger.append(kind, model, TokenUsage(prompt, completion))
    return ledger


def random_ledger(rng: random.Random, params=None) -> UsageLedger:
    kinds = ("proposer", "extractor", "aggregator", "embedding")
    models = ("m7", "m9")
    entries = [
        (
            rng.choice(kinds),
            rng.choice(models),
            rng.randint(0, 50_000),
            rng.randint(0, 50_000),
        )
        for _ in range(rng.randint(0, 12))
    ]
    return ledger_with(entries, params=params)


class TestDollarCost:
    def test_zero_tokens(self):
        assert dollar_cost(ledger_with([])) == Decimal("0")
        assert format_dollars(dollar_cost(ledger_with([]))) == Decimal("0.00")

    def test_one_million_tokens_at_thirty_cents(self):
        ledger = ledger_with([("proposer", "m", 600_000, 400_000)])
        assert dollar_cost(ledger) == Decimal("0.30")

    def test_two_and_a_half_million_tokens(self):
        ledger = ledger_with([("proposer", "m", 2_000_000, 500_000)])
        assert dollar_cost(ledger) == Decimal("0.75")

    def test_reported_to_cents_half_even(self):
        assert format_dollars(Decimal("0.0045")) == Decimal("0.00")
        assert format_dollars(Decimal("0.0055")) == Decimal("0.01")
        # exact half-cent ties round to the even cent
        assert format_dollars(Decimal("0.005")) == Decimal("0.00")
        assert format_dollars(Decimal("0.015")) == Decimal("0.02")
        assert format_dollars(Decimal("0.025")) == Decimal("0.02")

    def test_huge_amounts_keep_their_cents(self):
        whole = "1" + "0" * 30
        assert str(format_dollars(Decimal("1e30"))) == whole + ".00"
        assert str(format_dollars(Decimal(whole + ".125"))) == whole + ".12"

    def test_additive_over_concatenation(self):
        rng = random.Random(31)
        for _ in range(200):
            a = random_ledger(rng)
            b = random_ledger(rng)
            merged = concatenated([a, b])
            assert dollar_cost(merged) == dollar_cost(a) + dollar_cost(b)

    def test_homogeneous_in_token_counts(self):
        rng = random.Random(37)
        for _ in range(100):
            ledger = random_ledger(rng)
            factor = rng.randint(1, 9)
            scaled = ledger_with(
                [
                    (e.kind, e.model, e.usage.prompt_tokens * factor,
                     e.usage.completion_tokens * factor)
                    for e in ledger.entries
                ]
            )
            assert dollar_cost(scaled) == factor * dollar_cost(ledger)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            UsageLedger("-0.1")

    @pytest.mark.parametrize("params", [0, -7_000_000_000])
    def test_parameter_count_below_one_rejected(self, params):
        with pytest.raises(ValueError, match="parameter count of 'm' must be at least 1"):
            UsageLedger("0.30", {"m": params})

    @pytest.mark.parametrize("price", ["NaN", "sNaN", "Infinity", "-Infinity", float("inf")])
    def test_price_that_is_not_finite_is_rejected(self, price):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            UsageLedger(price)


class TestTflopsEstimate:
    def test_zero_tokens(self):
        assert tflops_estimate(ledger_with([], params={"m": 7})) == 0.0

    def test_seven_billion_params_thousand_tokens(self):
        ledger = ledger_with(
            [("proposer", "m7", 600, 400)], params={"m7": 7_000_000_000}
        )
        assert tflops_estimate(ledger) == 14.0

    def test_two_models_add(self):
        ledger = ledger_with(
            [("proposer", "m7", 600, 400), ("aggregator", "m9", 300, 200)],
            params={"m7": 7_000_000_000, "m9": 9_000_000_000},
        )
        assert tflops_estimate(ledger) == 23.0

    def test_embedding_entries_excluded(self):
        ledger = ledger_with(
            [("proposer", "m7", 600, 400), ("embedding", "emb", 10_000, 0)],
            params={"m7": 7_000_000_000},
        )
        assert tflops_estimate(ledger) == 14.0

    def test_unknown_model_names_the_model(self):
        ledger = ledger_with([("proposer", "mystery", 10, 10)])
        with pytest.raises(ConfigError, match="mystery"):
            tflops_estimate(ledger)

    def test_additive_over_concatenation(self):
        rng = random.Random(43)
        params = {"m7": 7_000_000_000, "m9": 9_000_000_000}
        for _ in range(200):
            a = random_ledger(rng, params=params)
            b = random_ledger(rng, params=params)
            merged = concatenated([a, b])
            assert tflops_estimate(merged) == pytest.approx(
                tflops_estimate(a) + tflops_estimate(b), rel=1e-12, abs=1e-12
            )


class TestUsageLedger:
    def test_totals_recompute_from_entries(self):
        ledger = ledger_with(
            [("proposer", "m", 10, 5), ("extractor", "m", 3, 2)]
        )
        assert ledger.prompt_tokens() == 13
        assert ledger.completion_tokens() == 7
        assert ledger.total_tokens() == 20
        assert ledger.count("proposer") == 1

    def test_unknown_kind_rejected(self):
        ledger = UsageLedger()
        with pytest.raises(ValueError):
            ledger.append("judge", "m", TokenUsage(1, 1))

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            TokenUsage(-1, 0)

    def test_json_dict_shape(self):
        ledger = ledger_with(
            [("proposer", "m7", 600, 400)], params={"m7": 7_000_000_000}
        )
        payload = ledger.to_json_dict()
        assert payload["totals"]["total_tokens"] == 1000
        assert payload["totals"]["dollar_cost"] == "0.00"
        assert payload["totals"]["tflops"] == 14.0
        assert payload["entries"][0]["kind"] == "proposer"

    def test_json_dict_tflops_null_without_params(self):
        payload = ledger_with([("proposer", "m", 1, 1)]).to_json_dict()
        assert payload["totals"]["tflops"] is None


class TestHallucinationRate:
    def test_no_flips(self):
        prev = [True] * 50
        curr = [True] * 50
        assert hallucination_rate(prev, curr) == 0.0

    def test_three_flips_of_forty(self):
        prev = [True] * 40 + [False] * 10
        curr_flags = [True] * 40 + [False] * 10
        for i in (0, 5, 11):
            curr_flags[i] = False
        assert hallucination_rate(prev, curr_flags) == 0.075

    def test_undefined_without_previously_correct(self):
        assert hallucination_rate((False, False), (True, False)) is None

    def test_mismatched_item_counts_rejected(self):
        with pytest.raises(ValueError):
            hallucination_rate((True,), (True, False))

    def test_permutation_invariant(self):
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(1, 20)
            prev = [rng.random() < 0.6 for _ in range(n)]
            curr = [rng.random() < 0.6 for _ in range(n)]
            if not any(prev):
                prev[0] = True
            order = list(range(n))
            rng.shuffle(order)
            base = hallucination_rate(prev, curr)
            shuffled = hallucination_rate(
                [prev[i] for i in order], [curr[i] for i in order]
            )
            assert base == shuffled
