"""Readers for JSON documents and the values in them: parse reads a
document, and each value reader checks the type that int() and float()
would coerce ("7", " 7 ", True) and raises `error`. distinct holds the
one rule for ids that must not repeat, in documents and in code-built
values alike."""

import json
import sys


def parse(text: str, error: type[ValueError]):
    """The JSON document in text. An object that repeats a key raises
    error as distinct words it ("duplicate key 'a'"), where json alone
    would keep the last value without a word."""
    def unique(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            distinct((k for k, _ in pairs), "key", error)
        return doc
    return json.loads(text, object_pairs_hook=unique)


def _int(value) -> bool:
    """Not a bool, and within the float range: mixed with floats it never overflows."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def whole(value, what: str, error: type[ValueError]) -> int:
    """An int as above, or an integral float (3.0 gives 3)."""
    if (isinstance(value, float) and value.is_integer()) or _int(value):
        return int(value)
    raise error(f"{what} must be a whole number, got {value!r}")


def number(value, what: str, error: type[ValueError]) -> float:
    """An int as above, or a float, NaN and infinity included."""
    if isinstance(value, float) or _int(value):
        return float(value)
    raise error(f"{what} must be a number, got {value!r}")


def key(text, what: str, error: type[ValueError]) -> int:
    """An object key naming an id as str() writes it, so no two keys alias: "013" raises."""
    try:
        if str(int(text)) == text:
            return int(text)
    except (TypeError, ValueError):
        pass
    raise error(f"{what} must be canonical decimal, got {text!r}")


def record(value, fields: set[str], what: str, error: type[ValueError], required=()):
    """A mapping with every field in required and none outside fields."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a mapping")
    unknown = set(value) - fields
    if unknown:
        raise error(f"{what} has unknown fields: {sorted(unknown)}")
    for name in required:
        if name not in value:
            raise error(f"{what} missing field {name!r}")


def distinct(items, what: str, error: type[ValueError]) -> list:
    """items as a list, in order, or error naming the first item that
    comes twice: "duplicate {what} {item!r}"."""
    seen = {}
    for item in items:
        if item in seen:
            raise error(f"duplicate {what} {item!r}")
        seen[item] = None
    return list(seen)
