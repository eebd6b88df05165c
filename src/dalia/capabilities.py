"""Capability declarations: parsing, validation, canonical serialization.

A capability is a declared executable operation: a two-segment id, role and
domain tags, named input/output slots, and precondition/postcondition fact
tokens. Declarations travel as JSON objects with a fixed field order:

    {"capability_id": "restaurant.search",
     "role": "information_retrieval",
     "domain": "food",
     "inputs": ["location", "date", "party_size"],
     "outputs": ["restaurant_list"],
     "preconditions": ["location_known"],
     "postconditions": ["results_available"]}

All values in this module are immutable after construction.
"""

from __future__ import annotations

import re
import threading
from functools import total_ordering
from typing import Any, Callable, Iterable, TypeVar

from .canonical import strict_loads
from .errors import (
    InvariantViolation,
    MalformedDocument,
    SchemaViolation,
    ValidationError,
    ValidationReport,
    _Value,
)

# Identifier grammar shared by slot names, fact tokens, intents, server ids
# and both segments of a capability id; a capability id is two of them
# joined by one dot. ``\Z``, not ``$``: "a\n" is no identifier.
IDENTIFIER = r"[a-z][a-z0-9_]*"
IDENTIFIER_RE = re.compile(rf"{IDENTIFIER}\Z")
CAPABILITY_ID_RE = re.compile(rf"({IDENTIFIER})\.({IDENTIFIER})\Z")

# The document memo keeps at most MEMO_SIZE documents, whose text (see
# DocumentMemo) is at most MEMO_TEXT_BUDGET characters in all: a long-running
# orchestrator discovers its servers and directory again for every goal, and
# what they send may change, so the memo may not grow with what it is sent.
MEMO_SIZE = 8192
MEMO_TEXT_BUDGET = 2**20

CAPABILITY_FIELDS = (
    "capability_id",
    "role",
    "domain",
    "inputs",
    "outputs",
    "preconditions",
    "postconditions",
)


def is_identifier(value: Any) -> bool:
    return isinstance(value, str) and IDENTIFIER_RE.match(value) is not None


@total_ordering
class CapabilityId(_Value):
    """Two-segment capability name, rendered as ``namespace.name``.

    Ordering is on the field tuple; for parsed ids it coincides with the
    rendered form's, because ``.`` sorts below every identifier character.
    The hash is ``hash((namespace, name))``, the field tuple's; it and the
    rendered form are computed once per object and kept outside the fields.
    """

    def __init__(self, namespace: str, name: str):
        object.__setattr__(self, "namespace", namespace)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((namespace, name)))
        object.__setattr__(self, "_text", f"{namespace}.{name}")

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) < other._values(other)
        return NotImplemented

    @classmethod
    def parse(cls, text: Any) -> CapabilityId:
        capability_id, problems = parse_capability_id(text)
        if problems:
            raise InvariantViolation(problems)
        return capability_id

    def render(self) -> str:
        return self._text

    __str__ = render


def parse_capability_id(
    text: Any, label: str = "capability_id"
) -> tuple[CapabilityId | None, list[str]]:
    """``(id, [])`` for valid capability-id text, else ``(None, problems)``:
    every rule the text violates, each prefixed by ``label``."""
    if not isinstance(text, str):
        return None, [f"{label} must be a string, got {type(text).__name__}"]
    match = CAPABILITY_ID_RE.match(text)
    if match:
        return CapabilityId(*match.groups()), []
    segments = text.split(".")
    if len(segments) != 2:
        return None, [f"{label} must have exactly two dot-separated segments: {text!r}"]
    problems = [
        f"{label} {part} is not a lowercase identifier: {segment!r}"
        for part, segment in zip(("namespace", "name"), segments)
        if not is_identifier(segment)
    ]
    return None, problems


def match_capability_ids(values: list) -> list[CapabilityId] | None:
    """``values`` as ids when every entry is capability-id text and none
    repeats, in one pass; else None, and the caller words what is wrong."""
    try:
        matches = list(map(CAPABILITY_ID_RE.match, values))
    except TypeError:  # an entry that is not a string
        return None
    if all(matches) and len(set(values)) == len(values):
        return [CapabilityId(*match.groups()) for match in matches]
    return None


def id_type_problems(fields: Iterable[tuple[str, Any]]) -> list[str]:
    """For a value built in code: each ``(label, value)`` whose value is not a
    CapabilityId, which only a CapabilityId field can render."""
    return [
        f"{label} must be a CapabilityId, got {type(value).__name__}"
        for label, value in fields
        if not isinstance(value, CapabilityId)
    ]


def slot_known_fact(slot: str) -> str:
    """Fact asserted once a slot carries a value (goal binding or node output)."""
    return f"{slot}_known"


class Capability(_Value):
    """A declared executable operation.

    Its derived facts are computed once per object and kept outside the
    fields: ``input_set`` and ``output_set``, its slots as frozensets, and
    ``effects``, the facts that hold once it has run (its postconditions and
    the known-fact of each output).
    """

    def __init__(self, capability_id: CapabilityId, role: str, domain: str,
                 inputs: tuple[str, ...], outputs: tuple[str, ...],
                 preconditions: tuple[str, ...] = (), postconditions: tuple[str, ...] = ()):
        object.__setattr__(self, "capability_id", capability_id)
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "preconditions", preconditions)
        object.__setattr__(self, "postconditions", postconditions)
        object.__setattr__(self, "input_set", frozenset(inputs))
        object.__setattr__(self, "output_set", frozenset(outputs))
        effects = frozenset(postconditions).union(map(slot_known_fact, outputs))
        object.__setattr__(self, "effects", effects)

    def to_json(self) -> dict:
        """JSON document in the canonical field order."""
        as_list = list if self._checked else listed  # parsed values hold tuples; list() is cheaper
        return {
            "capability_id": self.capability_id.render(),
            "role": self.role,
            "domain": self.domain,
            "inputs": as_list(self.inputs),
            "outputs": as_list(self.outputs),
            "preconditions": as_list(self.preconditions),
            "postconditions": as_list(self.postconditions),
        }


def listed(tokens: Any) -> Any:
    """A list field as its document holds it: a tuple or list as a fresh list, else as is."""
    return list(tokens) if type(tokens) in (tuple, list) else tokens


def load_document(document: Any, kind: str) -> dict:
    """Decode ``document`` (text, bytes, or an already-parsed dict) to a dict.

    Text and bytes go through the strict decoder (``strict_loads``); raises
    MalformedDocument when it refuses them or the root is not an object.
    """
    if isinstance(document, (str, bytes, bytearray)):
        try:
            document = strict_loads(document)
        except ValueError as exc:
            raise MalformedDocument([f"{kind} document is not strict JSON: {exc}"]) from exc
    if not isinstance(document, dict):
        raise MalformedDocument(
            [f"{kind} document root must be an object, got {type(document).__name__}"]
        )
    return document


_T = TypeVar("_T")


class DocumentMemo:
    """Parsed documents by (kind, id), each kept with its own canonical document.

    ``parse`` returns the kept value when the document is ``==`` to the
    canonical document of the value kept under its kind and id: a hit is one
    read and one comparison, writes nothing, and returns the same immutable
    value. Every miss runs the full parser, and only a value it returns is
    marked (see ``is_checked``) and kept, with the canonical document
    ``render`` builds from that value, never the caller's object; so a caller
    that mutates its document and parses it again gets a result that reflects
    the change. An id that is not a string is never kept.

    The memo keeps at most ``size`` values, whose canonical documents hold at
    most ``budget`` characters in all (the lengths of their strings, dict keys
    included); it drops the oldest kept first, and never keeps a document
    longer than the whole budget.
    """

    def __init__(self, size: int = MEMO_SIZE, budget: int = MEMO_TEXT_BUDGET):
        self.size = size
        self.budget = budget
        self.text = 0  # characters kept
        self._entries: dict[tuple[str, str], tuple[dict, Any, int]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.text = 0

    def parse(
        self,
        kind: str,
        ident: Any,
        data: dict,
        parser: Callable[[], _T],
        render: Callable[[_T], dict],
    ) -> _T:
        """The value for ``data``: kept under ``(kind, ident)``, or ``parser()``'s;
        ``render`` builds a value's canonical document."""
        if type(ident) is not str:
            return parser()
        key = kind, ident
        entry = self._entries.get(key)
        if entry is not None and entry[0] == data:
            return entry[1]
        value = parser()
        object.__setattr__(value, "_checked", True)  # see is_checked
        document = render(value)
        text = _text_length(document)
        if text <= self.budget:
            with self._lock:
                replaced = self._entries.pop(key, None)
                self.text += text - (replaced[2] if replaced else 0)
                self._entries[key] = document, value, text
                while len(self._entries) > self.size or self.text > self.budget:
                    self.text -= self._entries.pop(next(iter(self._entries)))[2]
        return value


def _text_length(document: dict) -> int:
    """Characters in a canonical document's strings: dict keys and values,
    list entries (lists hold strings only)."""
    total = len("".join(document))
    for value in document.values():
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += len("".join(value))
        else:
            total += _text_length(value)
    return total


# One memo for capability, task and snapshot documents: every goal of a
# long-running orchestrator discovers the same documents again.
DOCUMENT_MEMO = DocumentMemo()


def check_fields(data: dict, required: tuple[str, ...], kind: str) -> list[str]:
    """Schema problems for missing or unexpected top-level fields."""
    if data.keys() == set(required):
        return []
    problems = [f"missing required field {name!r}" for name in required if name not in data]
    problems += [
        f"unexpected field {name!r} in {kind} document" for name in sorted(data.keys() - required)
    ]
    return problems


def check_token_list(
    value: Any, label: str, schema_problems: list[str], invariant_problems: list[str]
) -> list[str]:
    """Validate a JSON list of identifier tokens; returns the usable tokens.

    Shape problems go to ``schema_problems``; identifier and duplicate
    problems to ``invariant_problems``.
    """
    if not isinstance(value, list):
        schema_problems.append(f"{label} must be a list, got {type(value).__name__}")
        return []
    try:  # one pass over a valid list; a non-string entry raises
        if all(map(IDENTIFIER_RE.match, value)) and len(set(value)) == len(value):
            return value
    except TypeError:
        pass
    tokens = []
    for index, item in enumerate(value):
        if not isinstance(item, str):
            schema_problems.append(f"{label}[{index}] must be a string")
        elif not is_identifier(item):
            invariant_problems.append(
                f"{label}[{index}] is not a lowercase identifier: {item!r}"
            )
        else:
            tokens.append(item)
    if len(set(tokens)) < len(tokens):
        seen: set[str] = set()
        for token in tokens:
            if token in seen:
                invariant_problems.append(f"duplicate entry {token!r} in {label}")
            seen.add(token)
    return tokens


def raise_aggregated(schema_problems: list[str], invariant_problems: list[str]) -> None:
    if schema_problems:
        raise SchemaViolation(schema_problems + invariant_problems)
    if invariant_problems:
        raise InvariantViolation(invariant_problems)


def parse_capability(document: Any) -> Capability:
    """Parse and validate one capability document.

    Raises MalformedDocument, SchemaViolation, or InvariantViolation; the
    error lists every violated rule, not just the first. Valid documents are
    kept in ``DOCUMENT_MEMO``.
    """
    data = load_document(document, "capability")
    return DOCUMENT_MEMO.parse(
        "capability", data.get("capability_id"), data, lambda: _parse_fields(data), Capability.to_json
    )


def _parse_fields(data: dict) -> Capability:
    schema = check_fields(data, CAPABILITY_FIELDS, "capability")
    capability_id, invariant = None, []
    if "capability_id" in data:
        capability_id, invariant = parse_capability_id(data["capability_id"])

    for tag in ("role", "domain"):
        if tag in data and not isinstance(data[tag], str):
            schema.append(f"{tag} must be a string, got {type(data[tag]).__name__}")

    lists = {
        name: check_token_list(data[name], name, schema, invariant)
        for name in CAPABILITY_FIELDS[3:]
        if name in data
    }

    if {"inputs", "outputs", "postconditions"} <= lists.keys():
        if not set(lists["inputs"]).isdisjoint(lists["outputs"]):
            overlap = sorted(set(lists["inputs"]).intersection(lists["outputs"]))
            invariant += [f"slot {slot!r} appears in both inputs and outputs" for slot in overlap]
        if not lists["outputs"] and not lists["postconditions"]:
            invariant.append("no observable effect: outputs and postconditions both empty")

    raise_aggregated(schema, invariant)
    assert capability_id is not None
    return Capability(capability_id, data["role"], data["domain"], *map(tuple, lists.values()))


def is_checked(value: _Value) -> bool:
    """True when a document parser built ``value``; a replace, copy or pickle copy is not."""
    return value._checked


def parser_problems(parse_fields: Callable[[dict], Any], document: dict) -> list[str]:
    """What ``parse_fields`` refuses in ``document``, in its own words."""
    try:
        parse_fields(document)
    except ValidationError as exc:
        return exc.violations
    return []


def validate_capability(cap: Capability) -> ValidationReport:
    """Every rule ``parse_capability`` checks, run on ``cap.to_json()``."""
    problems = id_type_problems([("capability_id", cap.capability_id)])
    return ValidationReport(problems or parser_problems(_parse_fields, cap.to_json()))
