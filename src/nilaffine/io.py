"""File helpers: JSON with positioned errors and byte-stable output."""

from __future__ import annotations

import json
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


def stable_json(doc: object) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline at end.

    Identical documents serialize to identical bytes, which the CLI's
    --json mode relies on. An integer beyond the interpreter's digit limit
    for int-to-str conversion raises PreconditionError, whose message does
    not echo the number.
    """
    try:
        return json.dumps(doc, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    except ValueError as exc:
        raise PreconditionError(
            "the report holds an integer too long to render as JSON") from exc


def write_json(path: str | Path, doc: object) -> None:
    Path(path).write_text(stable_json(doc), encoding="utf-8")
