"""KV-cached incremental decoding: parity, cache hygiene, stats.

The contract under test: ``greedy_decode`` / ``greedy_decode_batch``
(prefill + per-token steps) produce *token-identical* outputs to the
full-forward reference decoders across batch sizes, ragged prompts,
early-EOS rows, one-token budgets, and prompts at/over the context
window -- plus unit guarantees on the :class:`KVCache` itself.
"""

import numpy as np
import pytest

from repro.llm import (
    Seq2SeqExample,
    Seq2SeqTrainer,
    Tokenizer,
    TransformerConfig,
    TransformerLM,
    TransformerModel,
)
from repro.llm.generation import (
    DecodeStats,
    greedy_decode,
    greedy_decode_batch,
    greedy_decode_batch_full_forward,
    greedy_decode_full_forward,
)


def random_model(max_len=24, seed=5, vocab_size=37, **overrides):
    config = dict(vocab_size=vocab_size, d_model=16, n_layers=2, n_heads=4,
                  d_ff=32, max_len=max_len, seed=seed)
    config.update(overrides)
    return TransformerModel(TransformerConfig(**config))


def ragged_prompts(model, count, seed=7, longest=None):
    """Random prompts with lengths from 1 up past the context window."""
    rng = np.random.default_rng(seed)
    longest = longest or model.config.max_len + 6
    lengths = rng.integers(1, longest, size=count)
    return [list(map(int, rng.integers(6, model.config.vocab_size, size=n)))
            for n in lengths]


@pytest.fixture(scope="module")
def trained_copy_lm():
    """The overfit 'say X' -> 'X' toy: rows hit EOS after one token."""
    words = ["red", "blue", "green", "gold", "grey", "pink"]
    examples = [Seq2SeqExample(f"say {w}", w) for w in words]
    tok = Tokenizer().fit(
        [e.prompt for e in examples] + [e.target for e in examples]
    )
    model = TransformerModel(TransformerConfig(
        vocab_size=tok.vocab_size, d_model=32, n_layers=2, n_heads=2,
        d_ff=64, max_len=16, seed=1,
    ))
    Seq2SeqTrainer(model, tok, learning_rate=3e-3, batch_size=6,
                   seed=0).train(examples, steps=220)
    return model, tok, examples


class TestParity:
    @pytest.mark.parametrize("batch_size", [1, 4, 17])
    def test_kv_matches_full_forward_across_batch_sizes(self, batch_size):
        model = random_model()
        prompts = ragged_prompts(model, batch_size)
        for max_new in (1, 5, 48):
            full = greedy_decode_batch_full_forward(model, prompts, max_new)
            kv = greedy_decode_batch(model, prompts, max_new)
            assert kv == full

    def test_batch_matches_sequential_decode(self):
        model = random_model(seed=11)
        prompts = ragged_prompts(model, 9, seed=3)
        batched = greedy_decode_batch(model, prompts, 12)
        assert batched == [greedy_decode(model, p, 12) for p in prompts]
        assert batched == [
            greedy_decode_full_forward(model, p, 12) for p in prompts
        ]

    def test_early_eos_rows_retire_and_match(self, trained_copy_lm):
        """Trained rows emit EOS after ~1 token while junk prompts run
        long -- the mixed batch exercises KV-row compaction."""
        model, tok, examples = trained_copy_lm
        prompts = [tok.encode(e.prompt) for e in examples]
        prompts.insert(2, tok.encode("say say say say"))
        prompts.append(tok.encode("red blue green say"))
        full = greedy_decode_batch_full_forward(model, prompts, 10)
        kv = greedy_decode_batch(model, prompts, 10)
        assert kv == full
        lengths = sorted({len(ids) for ids in kv})
        assert lengths[0] == 1          # trained rows stop right away
        assert len(lengths) > 1         # junk rows keep generating

    def test_trained_lm_still_solves_the_copy_task(self, trained_copy_lm):
        model, tok, examples = trained_copy_lm
        lm = TransformerLM(model, tok)
        assert all(lm.generate(e.prompt) == e.target for e in examples)
        assert lm.generate_batch([e.prompt for e in examples]) == [
            e.target for e in examples
        ]

    def test_single_token_budget(self):
        model = random_model(seed=2)
        prompts = ragged_prompts(model, 5, seed=9)
        assert greedy_decode_batch(model, prompts, 1) == \
            greedy_decode_batch_full_forward(model, prompts, 1)

    @pytest.mark.parametrize("prompt_len", [22, 23, 24, 30])
    def test_prompts_at_and_over_the_window(self, prompt_len):
        """max_len=24 and <bos> makes 23 the last fully-cached prompt
        length; longer prompts left-truncate and slide per step."""
        model = random_model()
        prompt = list(range(6, 6 + prompt_len))
        prompt = [6 + (p % 30) for p in prompt]
        for max_new in (1, 8, 40):
            kv = greedy_decode(model, prompt, max_new, eos_id=-1)
            full = greedy_decode_full_forward(model, prompt, max_new,
                                              eos_id=-1)
            assert kv == full
            assert len(kv) == max_new   # eos disabled: full budget

    def test_window_crossing_batch(self):
        """Rows migrate to the sliding-window fallback mid-decode."""
        model = random_model()
        prompts = [list(range(6, 6 + n)) for n in (4, 18, 23, 26)]
        assert greedy_decode_batch(model, prompts, 30, eos_id=-1) == \
            greedy_decode_batch_full_forward(model, prompts, 30, eos_id=-1)

    def test_empty_batch_and_bad_budget(self):
        model = random_model()
        assert greedy_decode_batch(model, [], 4) == []
        with pytest.raises(ValueError):
            greedy_decode_batch(model, [[7]], 0)
        with pytest.raises(ValueError):
            greedy_decode(model, [7], 0)


class TestKVCacheHygiene:
    def test_infer_step_never_reads_beyond_the_cursor(self):
        """Poisoning every position past the write slot with a huge
        finite value must not change the step's logits bitwise: any
        nonzero attention weight on a poisoned slot would shift them
        detectably.  (Finite, not NaN: value slots beyond the cursor
        multiply an exactly-zero weight, and the buffers are
        zero-initialized precisely so that product stays zero.)"""
        model = random_model()
        prompts = ragged_prompts(model, 4, seed=1, longest=10)
        contexts = [p[:model.config.max_len] for p in prompts]
        lengths = np.array([len(c) for c in contexts], dtype=np.int64)
        batch = np.zeros((len(contexts), int(lengths.max())), dtype=np.int64)
        for row, context in enumerate(contexts):
            batch[row, :len(context)] = context
        _, clean = model.infer_prefill(batch, lengths)
        _, poisoned = model.infer_prefill(batch, lengths)
        for layer in range(model.config.n_layers):
            for row in range(len(contexts)):
                cursor = int(lengths[row])
                poisoned.keys[layer][row, :, cursor + 1:] = 1e30
                poisoned.values[layer][row, :, cursor + 1:] = 1e30
        next_ids = np.array([7, 8, 9, 10], dtype=np.int64)
        expected = model.infer_step(next_ids, clean)
        observed = model.infer_step(next_ids, poisoned)
        assert np.isfinite(observed).all()
        assert np.array_equal(expected, observed)

    def test_prefill_logits_match_full_forward_last_positions(self):
        model = random_model()
        contexts = [[7, 8, 9], [10, 11, 12]]
        batch = np.asarray(contexts, dtype=np.int64)
        prefill_logits, cache = model.infer_prefill(batch)
        full_logits, _ = model.forward(batch, need_cache=False)
        assert np.array_equal(prefill_logits, full_logits[:, -1])
        assert cache.batch_size == 2
        assert cache.capacity == model.config.max_len
        assert list(cache.lengths) == [3, 3]

    def test_select_compacts_rows_in_order(self):
        model = random_model()
        batch = np.asarray([[7, 8], [9, 10], [11, 12]], dtype=np.int64)
        _, cache = model.infer_prefill(batch)
        picked = cache.select([2, 0])
        assert picked.batch_size == 2
        for layer in range(model.config.n_layers):
            assert np.array_equal(picked.keys[layer][0],
                                  cache.keys[layer][2])
            assert np.array_equal(picked.values[layer][1],
                                  cache.values[layer][0])
        # Selected buffers are copies: stepping one must not touch the other.
        model.infer_step(np.array([7, 8], dtype=np.int64), picked)
        assert list(cache.lengths) == [2, 2, 2]

    def test_step_on_full_cache_raises(self):
        model = random_model(max_len=4)
        batch = np.asarray([[7, 8, 9, 10]], dtype=np.int64)
        _, cache = model.infer_prefill(batch)
        with pytest.raises(ValueError):
            model.infer_step(np.array([7], dtype=np.int64), cache)

    def test_capacity_bounds_validated(self):
        model = random_model(max_len=8)
        batch = np.asarray([[7, 8, 9]], dtype=np.int64)
        with pytest.raises(ValueError):
            model.infer_prefill(batch, capacity=2)      # < time
        with pytest.raises(ValueError):
            model.infer_prefill(batch, capacity=9)      # > max_len
        _, cache = model.infer_prefill(batch, capacity=5)
        assert cache.capacity == 5

    def test_ragged_lengths_validated(self):
        model = random_model()
        batch = np.asarray([[7, 8, 9]], dtype=np.int64)
        with pytest.raises(ValueError):
            model.infer_prefill(batch, np.array([0]))
        with pytest.raises(ValueError):
            model.infer_prefill(batch, np.array([4]))
        with pytest.raises(ValueError):
            model.infer_prefill(batch, np.array([2, 2]))


class TestForwardFlags:
    def test_need_cache_false_matches_and_skips_cache(self):
        model = random_model()
        ids = np.asarray([[7, 8, 9, 10]], dtype=np.int64)
        with_cache, cache = model.forward(ids)
        without, none = model.forward(ids, need_cache=False)
        assert np.array_equal(with_cache, without)
        assert cache is not None and none is None

    def test_causal_mask_memoized_and_immutable(self):
        model = random_model(max_len=12)
        first = model._causal_mask(5)
        again = model._causal_mask(5)
        assert first.base is model._causal_mask_full
        assert again.base is first.base       # one allocation, sliced views
        assert np.array_equal(
            first, np.triu(np.full((5, 5), -1e9), k=1)
        )
        with pytest.raises(ValueError):
            first[0, 1] = 0.0

    def test_infer_window_matches_forward(self):
        model = random_model()
        contexts = [[7, 8, 9, 0], [10, 11, 12, 13]]
        lengths = np.array([3, 4], dtype=np.int64)
        batch = np.asarray(contexts, dtype=np.int64)
        logits = model.infer_window(batch, lengths)
        full, _ = model.forward(batch, need_cache=False)
        assert np.array_equal(logits[0], full[0, 2])
        assert np.array_equal(logits[1], full[1, 3])


class TestDecodeStats:
    def test_counts_tokens_steps_and_prefills(self):
        model = random_model()
        prompts = ragged_prompts(model, 6, seed=4, longest=10)
        stats = DecodeStats()
        generated = greedy_decode_batch(model, prompts, 16, eos_id=-1,
                                        stats=stats)
        assert stats.prompts == 6
        assert stats.prefills == 1
        assert stats.tokens == sum(len(ids) for ids in generated) == 96
        assert stats.steps == 15          # budget-1 rounds after prefill
        assert stats.step_seconds > 0.0
        assert stats.prefill_seconds > 0.0

    def test_full_forward_path_records_stats_too(self):
        """use_kv_cache=False must not silently zero the decode
        counters."""
        model = random_model()
        prompts = ragged_prompts(model, 3, seed=8, longest=10)
        stats = DecodeStats()
        generated = greedy_decode_batch(model, prompts, 8, eos_id=-1,
                                        use_kv_cache=False, stats=stats)
        assert stats.prompts == 3
        assert stats.prefills == 0          # no prefill on this path
        assert stats.steps == 8             # one full forward per round
        assert stats.tokens == sum(len(ids) for ids in generated) == 24
        assert stats.step_seconds > 0.0
