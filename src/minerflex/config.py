"""The one reader of JSON config files.

Every config (fleet, programs, regulation and risk instances, synthesis
specs) goes through :func:`load_config`, so each malformed file fails the
same way: an ``InvalidInputError`` whose message starts with the file name.
Every parser reads its numbers through :func:`finite`.
"""

from __future__ import annotations

import json
import math

from .errors import InvalidInputError, ModelViolationError


def _literal(text: str) -> float:
    """A JSON number literal or constant as it decodes, unless it is not finite."""
    if not math.isfinite(number := float(text)):
        raise ValueError(f"number must be finite, got {text!r}")
    return number


def finite(value, name: str) -> float:
    """``float(value)`` of a config field, raising ``ValueError`` that names ``name`` unless it is a finite number.

    Booleans and strings are not numbers, though ``float()`` reads ``true`` as
    1.0, ``"12"`` as 12.0 and ``"nan"`` as nan.
    """
    if isinstance(value, (bool, str)) or not math.isfinite(number := float(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def load_config(path, parse):
    """Decode the JSON file at ``path`` and return ``parse(data)``.

    Non-finite numbers (``NaN``, ``Infinity``, overflowing literals) are
    rejected. Unreadable files, invalid JSON and any lookup, type, value or
    overflow error raised by ``parse`` become ``InvalidInputError`` naming the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_literal, parse_constant=_literal)
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read config ({exc.strerror})") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from None
    try:
        return parse(data)
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError, AttributeError, IndexError, InvalidInputError,
            ModelViolationError) as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
