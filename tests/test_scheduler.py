"""Continuous-batching scheduler corners: parity, ordering, backpressure.

The invariants under test, from ``repro.service.scheduler`` /
``repro.llm.generation.DecodeSession``:

- a request admitted *mid-flight* -- prefilled into KV rows freed by
  earlier retirements -- generates byte-identical output to decoding it
  alone (continuous batching is a scheduling decision, never a
  semantics decision);
- a long generation never delays an already-finished short one: rows
  retire the step they finish;
- exhausting the in-flight budget *and* the admission queue returns
  ``BatcherSaturated`` (HTTP 429), not a hang;
- dedupe, memo, drain/close and error fan-out keep the future-based
  contract: queued work completes, new work is refused.
"""

import time

import pytest

from repro.engine.cache import LRUCache
from repro.llm import TransformerLM
from repro.llm.generation import (
    DecodeSession,
    greedy_decode,
    greedy_decode_batch,
)
from repro.service.scheduler import (
    BatcherClosed,
    BatcherSaturated,
    ContinuousBatcher,
)
from test_llm_decoding import (  # noqa: F401 -- shared model fixtures
    ragged_prompts,
    random_model,
    trained_copy_lm,
)


def wait_until(predicate, timeout=10.0, interval=0.002):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _SlowModel:
    """Delegating model proxy that slows (or breaks) decode steps."""

    def __init__(self, model, delay=0.0):
        self._model = model
        self.delay = delay
        self.fail_steps = False

    def __getattr__(self, name):
        return getattr(self._model, name)

    def infer_step(self, *args, **kwargs):
        if self.fail_steps:
            raise RuntimeError("injected step failure")
        if self.delay:
            time.sleep(self.delay)
        return self._model.infer_step(*args, **kwargs)


class TestDecodeSessionStaggeredAdmit:
    """Admitting into a live (partially retired) session is exact."""

    def test_mid_flight_admission_matches_solo_decode(self):
        model = random_model(seed=13)
        first = ragged_prompts(model, 5, seed=21)
        late = ragged_prompts(model, 4, seed=22)
        solo = {
            id(p): greedy_decode(model, p, 12)
            for batch in (first, late) for p in batch
        }

        session = DecodeSession(model)
        generated: dict[int, list[int]] = {}
        slot_to_prompt = dict(zip(session.admit(first, 12),
                                  (id(p) for p in first)))
        for _ in range(4):  # run part-way; some rows may retire
            for slot, ids in session.step():
                generated[slot_to_prompt[slot]] = ids
        slot_to_prompt.update(zip(session.admit(late, 12),
                                  (id(p) for p in late)))
        while session.active:
            for slot, ids in session.step():
                generated[slot_to_prompt[slot]] = ids

        assert generated == solo

    def test_admission_into_freed_rows_after_full_retirement(
        self, trained_copy_lm  # noqa: F811
    ):
        """Retire an entire admission wave (early EOS), then admit into
        the emptied session: outputs still match solo decoding."""
        model, tok, examples = trained_copy_lm
        trained = [tok.encode(e.prompt) for e in examples[:3]]
        junk = [tok.encode("say say say say"),
                tok.encode("red blue green say")]

        session = DecodeSession(model)
        generated: dict[int, list[int]] = {}
        session.admit(trained, 10)
        while session.active:  # trained rows all hit EOS immediately
            for slot, ids in session.step():
                generated[slot] = ids
        late_slots = session.admit(junk, 10)
        while session.active:
            for slot, ids in session.step():
                generated[slot] = ids

        solo = greedy_decode_batch(model, junk, 10)
        assert [generated[slot] for slot in late_slots] == solo
        assert all(len(generated[s]) == 1 for s in range(len(trained)))


@pytest.fixture()
def toy_lm(trained_copy_lm):  # noqa: F811
    model, tok, examples = trained_copy_lm
    return TransformerLM(model, tok, name="toy", max_new_tokens=10)


def long_junk_prompt(toy_lm, min_tokens=4):
    """A prompt this model decodes for several steps (asserted)."""
    for candidate in ("say say say say", "red blue green say",
                      "blue gold say grey"):
        ids = greedy_decode(
            toy_lm.model, toy_lm.tokenizer.encode(candidate),
            toy_lm.max_new_tokens,
        )
        if len(ids) >= min_tokens:
            return candidate
    pytest.skip("no junk prompt decodes long enough on this model")


class TestContinuousBatcher:
    def test_results_match_solo_generate(self, toy_lm):
        batcher = ContinuousBatcher(toy_lm, max_inflight_rows=3)
        try:
            prompts = ["say red", "say blue", "say say say say",
                       "say green", "say gold", "red blue green say",
                       "say grey", "say pink"]
            futures = [batcher.submit((p,)) for p in prompts]
            results = [f.result(timeout=30) for f in futures]
        finally:
            batcher.close()
        assert results == [toy_lm.generate(p) for p in prompts]

    def test_short_request_not_delayed_by_long_one(self, toy_lm):
        """The trained prompt retires (and resolves) while the junk
        prompt is still decoding -- continuous batching's whole point."""
        slow = TransformerLM(_SlowModel(toy_lm.model, delay=0.05),
                             toy_lm.tokenizer, max_new_tokens=10)
        junk = long_junk_prompt(toy_lm)
        batcher = ContinuousBatcher(slow, max_inflight_rows=4)
        order: list[str] = []
        try:
            long_future = batcher.submit((junk,))
            short_future = batcher.submit(("say red",))
            long_future.add_done_callback(lambda f: order.append("long"))
            short_future.add_done_callback(lambda f: order.append("short"))
            assert short_future.result(timeout=30) == "red"
            assert long_future.result(timeout=30) == toy_lm.generate(junk)
        finally:
            batcher.close()
        assert order == ["short", "long"]

    def test_budget_exhaustion_returns_429_not_a_hang(self, toy_lm):
        slow = TransformerLM(_SlowModel(toy_lm.model, delay=0.05),
                             toy_lm.tokenizer, max_new_tokens=10)
        junk = long_junk_prompt(toy_lm)
        batcher = ContinuousBatcher(slow, max_inflight_rows=1, max_queue=1)
        try:
            first = batcher.submit((junk,))
            assert wait_until(lambda: batcher.inflight_rows() == 1)
            second = batcher.submit(("say blue",))
            assert wait_until(lambda: batcher.pending() == 1)
            with pytest.raises(BatcherSaturated):
                batcher.submit(("say green",))
            # Saturation refused the overflow; admitted work completes.
            assert first.result(timeout=30) == toy_lm.generate(junk)
            assert second.result(timeout=30) == "blue"
        finally:
            batcher.close()

    def test_duplicate_prompts_share_one_decode(self, toy_lm):
        admitted: list[int] = []
        slow = TransformerLM(_SlowModel(toy_lm.model, delay=0.02),
                             toy_lm.tokenizer, max_new_tokens=10)
        batcher = ContinuousBatcher(
            slow, max_inflight_rows=4,
            on_admit=lambda name, size: admitted.append(size),
        )
        try:
            first = batcher.submit(("say gold",))
            assert wait_until(lambda: batcher.inflight_rows() == 1)
            second = batcher.submit(("say gold",))  # joins the flight
            assert first.result(timeout=30) == "gold"
            assert second.result(timeout=30) == "gold"
        finally:
            batcher.close()
        assert sum(admitted) == 1

    def test_completion_memo_answers_repeats_without_decoding(self, toy_lm):
        admitted: list[int] = []
        memo = LRUCache(8)
        batcher = ContinuousBatcher(
            toy_lm, completion_cache=memo,
            on_admit=lambda name, size: admitted.append(size),
        )
        try:
            assert batcher(("say pink",)) == "pink"
            decodes_before = sum(admitted)
            repeat = batcher.submit(("say pink",))
            assert repeat.done()  # resolved at submit, no queueing
            assert repeat.result() == "pink"
        finally:
            batcher.close()
        assert sum(admitted) == decodes_before
        assert memo.get(("toy", "say pink")) == "pink"

    def test_finish_failure_fails_only_its_own_request(self, toy_lm):
        def finish(item, output):
            if item[1] == "boom":
                raise ValueError("bad request payload")
            return output.upper()

        batcher = ContinuousBatcher(toy_lm, finish=finish)
        try:
            bad = batcher.submit(("say red", "boom"))
            good = batcher.submit(("say blue", "fine"))
            with pytest.raises(ValueError):
                bad.result(timeout=30)
            assert good.result(timeout=30) == "BLUE"
        finally:
            batcher.close()

    def test_step_failure_fans_out_and_worker_survives(self, toy_lm):
        broken = _SlowModel(toy_lm.model)
        slow = TransformerLM(broken, toy_lm.tokenizer, max_new_tokens=10)
        junk = long_junk_prompt(toy_lm)
        batcher = ContinuousBatcher(slow, max_inflight_rows=2)
        try:
            broken.fail_steps = True
            doomed = batcher.submit((junk,))
            with pytest.raises(RuntimeError, match="injected step failure"):
                doomed.result(timeout=30)
            broken.fail_steps = False
            assert batcher(("say red",)) == "red"  # fresh session works
        finally:
            batcher.close()

    def test_close_drains_then_refuses(self, toy_lm):
        batcher = ContinuousBatcher(toy_lm)
        future = batcher.submit(("say grey",))
        batcher.close()
        assert future.result(timeout=1) == "grey"
        with pytest.raises(BatcherClosed):
            batcher.submit(("say red",))

    def test_drain_rejects_new_but_finishes_queued(self, toy_lm):
        batcher = ContinuousBatcher(toy_lm, max_inflight_rows=1)
        prompts = ["say red", "say blue", "say gold"]
        futures = [batcher.submit((prompt,)) for prompt in prompts]
        batcher.drain()
        with pytest.raises(BatcherClosed):
            batcher.submit(("say grey",))
        # drain() must not abandon what was already queued
        assert [future.result(timeout=30) for future in futures] \
            == ["red", "blue", "gold"]
        batcher.close()
