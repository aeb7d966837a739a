"""The model-agnostic language-model interface used by evaluators.

Both the trained transformer (:class:`TransformerLM`) and the simulated
external baselines (:mod:`repro.simulated`) implement
:class:`LanguageModel`, so DimEval and Q-MWP evaluation loops don't care
which one they score.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.llm.generation import greedy_decode, greedy_decode_batch
from repro.llm.model import TransformerModel
from repro.llm.tokenizer import Tokenizer


@runtime_checkable
class LanguageModel(Protocol):
    """Anything that maps a prompt string to a completion string.

    Models may additionally expose ``generate_batch(prompts) ->
    list[str]`` (same order as the input); the evaluation engine's
    :class:`repro.engine.BatchRunner` prefers it over per-prompt
    ``generate`` fan-out when present.
    """

    name: str

    def generate(self, prompt: str) -> str:
        """Complete a prompt."""
        ...


class TransformerLM:
    """Wraps tokenizer + transformer + greedy decoding as a LanguageModel."""

    def __init__(
        self,
        model: TransformerModel,
        tokenizer: Tokenizer,
        name: str = "transformer",
        max_new_tokens: int = 48,
        cache_key: str | None = None,
        use_kv_cache: bool = True,
    ):
        """``cache_key`` identifies this model in the evaluation engine's
        completion memo; pass one that fingerprints the loaded weights
        when several same-named checkpoints live in one process.

        ``use_kv_cache`` selects the incremental-decoding path (on by
        default; outputs are token-identical either way).
        """
        self.model = model
        self.tokenizer = tokenizer
        self.name = name
        self.max_new_tokens = max_new_tokens
        self.cache_key = cache_key or name
        self.use_kv_cache = use_kv_cache

    def generate(self, prompt: str) -> str:
        """Greedy-decode a completion for a symbolic prompt."""
        prompt_ids = self.tokenizer.encode(prompt)
        output_ids = greedy_decode(
            self.model, prompt_ids, max_new_tokens=self.max_new_tokens,
            use_kv_cache=self.use_kv_cache,
        )
        return self.tokenizer.decode(output_ids)

    def generate_batch(self, prompts: list[str]) -> list[str]:
        """Greedy-decode many prompts through shared prefill/step passes.

        Token-for-token identical to per-prompt :meth:`generate`; the
        batched decoder shares the KV-cached forward work across rows
        and amortises the numpy dispatch overhead.
        """
        prompt_ids = [self.tokenizer.encode(prompt) for prompt in prompts]
        output_ids = greedy_decode_batch(
            self.model, prompt_ids, max_new_tokens=self.max_new_tokens,
            use_kv_cache=self.use_kv_cache,
        )
        return [self.tokenizer.decode(ids) for ids in output_ids]
