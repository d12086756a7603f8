"""The one reader of JSON config files.

Every config (fleet, programs, regulation and risk instances, synthesis
specs) goes through :func:`load_config`, so each malformed file fails the
same way: an ``InvalidInputError`` whose message starts with the file name.
"""

from __future__ import annotations

import json
import math

from .errors import InvalidInputError, ModelViolationError


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def load_config(path, parse):
    """Decode the JSON file at ``path`` and return ``parse(data)``.

    Non-finite numbers (``NaN``, ``Infinity``, overflowing literals) are
    rejected. Unreadable files, invalid JSON and any lookup, type, value or
    overflow error raised by ``parse`` become ``InvalidInputError`` naming the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite, parse_constant=_finite)
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
