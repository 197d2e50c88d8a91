"""The input rules, one definition each: a real field, an integer field, a
JSON object with known fields, a JSON file and a lookup by name.  Each
refuses bad input with a ValueError that names it."""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np


def real_field(value, name: str) -> float:
    """``value`` as a float, or a ValueError naming the field when it is not
    a number (a JSON null, a string, a list) or lies beyond float range."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise ValueError(f"{name} must lie within float range, got {value!r}") from None


def integer_field(value, name: str, minimum: int | None = None) -> int:
    """The one integer rule: ``value`` as an int, or a ValueError naming the
    field when it is not a number, not integral (Python and NumPy bools,
    NaN and +-inf included) or, given ``minimum``, below it.  A plain int
    is taken as it is, however large."""
    if type(value) is not int:
        if isinstance(value, (bool, np.bool_)) or not real_field(value, name).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def json_object(data, what: str, required: tuple[str, ...] = (),
                optional: tuple[str, ...] = ()) -> dict:
    """``data`` after checking that it is a JSON object holding every
    ``required`` field and no field outside ``required`` and ``optional``;
    a ValueError names ``what`` and the offending fields."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"{what} is missing fields: {missing}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what} fields: {unknown}")
    return data


def read_json(path, what: str):
    """The parsed contents of the JSON file at ``path``; a file that does
    not decode or parse is a ValueError naming ``what`` and the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as err:  # bad syntax, encoding or nesting
            raise ValueError(f"malformed {what} {path}: {err}") from None


def lookup(table: Mapping, name, what: str):
    """``table[name]``, or a ValueError listing the names it knows."""
    try:
        return table[name]
    except (KeyError, TypeError):
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {name!r} (known: {known})") from None
