"""The /solve backend: free text -> slots -> trained decode -> answer.

Offline MWP evaluation starts from gold problems whose slot map is part
of the dataset.  A serving request is just text, so the solver grounds
the problem itself: the shared :class:`~repro.quantity.QuantityGrounder`
locates every numeric literal (and its unit, when one follows), the
literals become equation slots ``N1..Nk`` in reading order, and the
slotted prompt goes through the *same* tokenisation as training
(:func:`repro.core.encoding.slotted_prompt`).  The continuous decode
scheduler (:class:`~repro.service.scheduler.ContinuousBatcher`)
prefills each prepared prompt into a live KV row and retires it the
step it finishes; :meth:`MWPSolver.finish` then executes the predicted
equation with the repo's safe calculator over the extracted slot
values.  A result that is not a finite number answers ``None``, so
every response body stays valid JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import faults
from repro.core.encoding import equation_from_output, slotted_prompt
from repro.llm.interface import TransformerLM
from repro.mwp.equation import EquationError, evaluate_equation
from repro.quantity.grounder import QuantityGrounder
from repro.service.schemas import UnprocessableRequest, encode_quantity
from repro.text.extraction import ExtractedQuantity


@dataclass(frozen=True)
class SolveResult:
    """One solved problem: the decoded equation and its evaluation."""

    equation: str
    answer: float | None
    quantities: tuple[ExtractedQuantity, ...]
    prompt: str

    def to_wire(self) -> dict:
        """The JSON-shaped response body for this result."""
        return {
            "equation": self.equation,
            "answer": self.answer,
            "quantities": [encode_quantity(q) for q in self.quantities],
            "prompt": self.prompt,
        }


def slot_text(text: str, quantities: list[ExtractedQuantity]) -> str:
    """Replace each numeric literal with its space-delimited slot marker.

    Unit mentions stay in place (they are the signal dimension-aware
    augmentation trains on); only the value span ``[start, start +
    len(value_text))`` is substituted, exactly where extraction found it.
    """
    pieces: list[str] = []
    cursor = 0
    for slot, quantity in enumerate(quantities, start=1):
        value_end = quantity.start + len(quantity.value_text)
        pieces.append(text[cursor:quantity.start])
        pieces.append(f" N{slot} ")
        cursor = value_end
    pieces.append(text[cursor:])
    return "".join(pieces)


class MWPSolver:
    """Ground + decode + calculate for one problem text at a time."""

    def __init__(self, grounder: QuantityGrounder, lm: TransformerLM):
        self.grounder = grounder
        self.lm = lm

    def prepare(self, text: str) -> tuple[str, tuple[ExtractedQuantity, ...]]:
        """The slotted prompt and the slot quantities for one text.

        Called in the submitting thread, *before* the request enters the
        scheduler queue: a problem with no extractable quantities fails
        alone (422) without spending a queue slot.
        """
        quantities = tuple(self.grounder.extract(text))
        if not quantities:
            raise UnprocessableRequest(
                "no numeric quantities found in problem text"
            )
        return slotted_prompt(slot_text(text, list(quantities))), quantities

    def finish(
        self,
        prepared: tuple[str, tuple[ExtractedQuantity, ...]],
        output: str,
    ) -> SolveResult:
        """Turn one decoded completion into a :class:`SolveResult`.

        The deterministic tail of a solve -- equation extraction plus the
        safe-calculator evaluation over the request's own slot values.
        The scheduler calls it per retired KV row (two requests
        deduplicated onto one decode still evaluate against their own
        quantities here).  An equation that fails to evaluate, or whose
        value overflows to ``inf``/``nan``, answers ``None``.
        """
        # fault site: a resolver crash fails only this waiter (the
        # scheduler's per-request error isolation is exactly what the
        # chaos harness exercises here)
        faults.check("solve.resolve")
        prompt, quantities = prepared
        equation = equation_from_output(output)
        try:
            answer = evaluate_equation(
                equation, [quantity.value for quantity in quantities]
            )
        except EquationError:
            answer = None
        if answer is not None and not math.isfinite(answer):
            answer = None
        return SolveResult(
            equation=equation, answer=answer,
            quantities=quantities, prompt=prompt,
        )
