"""File helpers: JSON with positioned errors and byte-stable output.

stable_json writes the bytes of json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False) + "\\n": it builds the package's documents itself and
hands any other document to that call.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from pathlib import Path

from .errors import ParseError, PreconditionError


def read_json(path: str | Path) -> object:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        # e.g. an integer literal beyond the interpreter's digit limit
        raise ParseError(f"{p}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{p}: invalid JSON: nested too deeply") from exc


# the text of a leaf, by its exact type: an int subclass or a float is none
_LEAVES = {str: encode_basestring, int: int.__repr__, type(None): lambda _: "null",
           bool: lambda b: "true" if b else "false"}


def _canonical(doc: object, indent: str) -> str:
    """json.dumps's text of a dict, list or tuple at the level of indent, a
    newline and its spaces; TypeError on anything it leaves to json.dumps."""
    inner = indent + "  "
    if type(doc) is dict:
        brackets, items = "{}", []
        for key in sorted(doc):   # encode_basestring: TypeError on a non-str
            leaf = _LEAVES.get(type(value := doc[key]))
            items.append(encode_basestring(key) + ": "
                         + (leaf(value) if leaf else _canonical(value, inner)))
    elif type(doc) is list or type(doc) is tuple:
        brackets = "[]"
        try:
            items = [_LEAVES[type(x)](x) for x in doc]
        except KeyError:
            items = [leaf(x) if (leaf := _LEAVES.get(type(x))) else _canonical(x, inner)
                     for x in doc]
    else:
        raise TypeError
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def stable_json(doc: object) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline at end.

    Byte for byte json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)
    + "\\n", which it calls for a float, a non-str key, an int or str subclass,
    a bare leaf or a document nested too deeply; identical documents give
    identical bytes. An integer beyond the interpreter's digit limit raises
    PreconditionError, whose message does not echo it.
    """
    try:
        try:
            return _canonical(doc, "\n") + "\n"
        except (TypeError, RecursionError):
            return json.dumps(doc, sort_keys=True, indent=2,
                              ensure_ascii=False) + "\n"
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise   # json.dumps's own, as "Circular reference detected"
        raise PreconditionError(
            "the report holds an integer too long to render as JSON") from exc


def write_json(path: str | Path, doc: object) -> None:
    Path(path).write_text(stable_json(doc), encoding="utf-8")
