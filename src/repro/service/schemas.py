"""Wire schemas: JSON request parsing and response encoding.

The quantity wire format follows the ``{magnitude, unit}`` Dimension
schema (see SNIPPETS.md): every served quantity carries ``magnitude``
(the numeric part) and ``unit`` (the canonical symbol string, ``null``
for bare numbers), with the KB metadata the paper's Table II schema
adds (identifier, bilingual labels, quantity kind, dimension vector,
SI conversion) nested under ``record``.

Request validation is deliberately strict and shallow: a missing or
mistyped field raises :class:`BadRequest` (HTTP 400) with a message
naming the field, and domain failures downstream (unlinkable units,
dimension-law violations) surface as :class:`UnprocessableRequest`
(HTTP 422) so clients can tell malformed JSON from valid-but-impossible
asks.
"""

from __future__ import annotations

import math

from repro.dimension import DimensionVector
from repro.text.extraction import ExtractedQuantity
from repro.units.schema import UnitRecord


class BadRequest(ValueError):
    """Malformed request body (HTTP 400)."""


class UnprocessableRequest(ValueError):
    """Well-formed request the domain cannot satisfy (HTTP 422)."""


# -- request field helpers ----------------------------------------------------


def require(payload: dict, field: str, kind: type | tuple[type, ...]):
    """``payload[field]`` checked against ``kind``; BadRequest otherwise."""
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    if field not in payload:
        raise BadRequest(f"missing required field {field!r}")
    value = payload[field]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        expected = getattr(kind, "__name__", str(kind))
        raise BadRequest(
            f"field {field!r} must be of type {expected}, "
            f"got {type(value).__name__}"
        )
    return value


def optional(payload: dict, field: str, kind, default):
    """Typed optional field with a default."""
    if not isinstance(payload, dict) or field not in payload:
        return default
    return require(payload, field, kind)


def require_text(payload: dict, field: str = "text") -> str:
    """A non-empty string field."""
    value = require(payload, field, str)
    if not value.strip():
        raise BadRequest(f"field {field!r} must not be empty")
    return value


def require_string_list(payload: dict, field: str) -> list[str]:
    """A non-empty list-of-strings field."""
    value = require(payload, field, list)
    if not value or not all(isinstance(item, str) for item in value):
        raise BadRequest(f"field {field!r} must be a non-empty list of strings")
    return value


def require_finite(values: list[float], what: str) -> None:
    """UnprocessableRequest unless every result is finite.

    A magnitude that overflows to ``inf`` (or turns ``nan``) has no
    RFC 8259 JSON encoding, so it is a 422, never a 200 body.
    """
    if not all(math.isfinite(value) for value in values):
        raise UnprocessableRequest(
            f"{what} is not finite (overflows a 64-bit float)"
        )


# -- response encoding --------------------------------------------------------


def encode_dimension(dimension: DimensionVector) -> dict:
    """A dimension vector in all three renderings the KB uses."""
    return {
        "vector": dimension.to_vector_string(),
        "formula": dimension.to_formula() or "D",
        "si": dimension.to_si_expression(),
    }


def encode_unit(unit: UnitRecord) -> dict:
    """One KB record's wire projection (Table II essentials)."""
    return {
        "id": unit.unit_id,
        "symbol": unit.symbol,
        "label_en": unit.label_en,
        "label_zh": unit.label_zh,
        "quantity_kind": unit.quantity_kind,
        "dimension": encode_dimension(unit.dimension),
        "si_factor": unit.conversion_value,
        "si_offset": unit.conversion_offset,
    }


def encode_quantity(quantity: ExtractedQuantity) -> dict:
    """One extracted/grounded quantity as a ``{magnitude, unit}`` object."""
    return {
        "magnitude": quantity.value,
        "unit": quantity.unit.symbol if quantity.unit is not None else None,
        "text": quantity.quantity_text,
        "value_text": quantity.value_text,
        "unit_text": quantity.unit_text,
        "span": [quantity.start, quantity.end],
        "grounded": quantity.is_grounded,
        "record": (encode_unit(quantity.unit)
                   if quantity.unit is not None else None),
    }
