"""The JSON codec of every artifact and CLI output.

Types describe their documents: `to_doc()` gives the document (nested
objects may stay objects; they are encoded in turn, and a large part may
come as `Encoded` text, which `encode_ints` writes from integer arrays)
and, for types that are read back, `from_doc(doc)` rebuilds the object.
This module alone decides the bytes: sorted keys, no whitespace, no NaN
or infinity.  So `dumps(json.loads(text)) == text` for every text `dumps`
writes, and a rerun that builds the same objects writes the same bytes.
`loads` is the one reader, for `read_artifact` and every `from_json`;
`collector_paused` is for callers that build many acyclic containers at
once (an instance's load, a constraint stream's block).
"""

from __future__ import annotations

import dataclasses
import gc
import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DomainError, MissingArtifact, PreconditionError


def _encode(obj):
    if hasattr(obj, "to_doc"):
        return obj.to_doc()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


class Encoded:
    """A value already written as canonical JSON text, for values too large
    to build as objects first; `dumps` copies it where the value sits."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def encode_ints(items: list[str], values: np.ndarray) -> Encoded:
    """The JSON list of `items`, texts with %d slots, filled in order with
    the integers of `values` in one format call."""
    return Encoded(("[" + ",".join(items) + "]") % tuple(values.tolist()))


_SLOT = "\udfff"  # a lone surrogate, written as the escape \udfff


def dumps(doc) -> str:
    """Canonical JSON text of `doc`; raises ValueError on NaN or infinity."""
    texts: list[str] = []

    def encode(obj):
        if isinstance(obj, Encoded):
            texts.append(obj.text)
            return _SLOT
        return _encode(obj)

    out = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False, default=encode)
    if not texts:
        return out
    parts = out.split(json.dumps(_SLOT))
    if len(parts) != len(texts) + 1:
        raise ValueError("a string in the document reads as an Encoded slot")
    return "".join(chain.from_iterable(zip(parts, texts))) + parts[-1]


@contextmanager
def collector_paused():
    """The cyclic collector off within, and after, as the caller had it,
    whatever happens.  For code building many acyclic containers, where a
    collection frees nothing and only traverses the caller's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loads(text: str, parse):
    """parse(doc) of the JSON document `text`."""
    return parse(json.loads(text))


def read_artifact(path, parse, what: str = "file"):
    """parse(doc) of the JSON document in the file at `path`.

    A missing file raises MissingArtifact; malformed JSON, or a parse that
    fails with ValueError, KeyError, TypeError, IndexError or OverflowError
    (a missing key, a wrongly shaped value, an integer past int64) or with a
    precondition error of its own, raises DomainError.  Both name the file.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingArtifact(f"{what} not found: {path}")
    try:
        return loads(path.read_text(), parse)
    except (ValueError, KeyError, TypeError, IndexError, OverflowError, PreconditionError) as exc:
        raise DomainError(
            f"malformed {what} {path}: {type(exc).__name__}: {exc}"
        ) from exc
