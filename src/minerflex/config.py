"""The one reader of JSON config files.

Every config (fleet, programs, regulation and risk instances, synthesis
specs) goes through :func:`load_config`, so each malformed file fails the
same way: an ``InvalidInputError`` whose message starts with the file name.
Every parser reads its numbers through :func:`finite`; every scalar
precondition, read from a config or passed by a caller, is :func:`at_least`.
"""

from __future__ import annotations

import json
import math
from operator import index

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


def at_least(value, name: str, lo: float = 0.0, strict: bool = False, integer: bool = False):
    """``value`` unchanged if it is finite and at least ``lo`` (above it when ``strict``), else ``InvalidInputError``.

    NaN fails as infinities do, where a bare ``value < lo`` passes it. With
    ``integer`` the value must also be an integer (``operator.index`` takes
    it), so a count of 1.5 fails here and not in a later ``range``.
    """
    if integer:
        try:
            index(value)
        except TypeError:
            raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
    if not -math.inf < value < math.inf:
        raise InvalidInputError(f"{name} must be finite, got {value}")
    if not (value > lo if strict else value >= lo):
        raise InvalidInputError(f"{name} must be {'>' if strict else '>='} {lo:g}, got {value}")
    return value


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
