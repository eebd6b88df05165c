"""Valid documents are checked in one pass, and every document is refused
exactly as the entry-by-entry checks in ``reference_checks`` refuse it.

Fields are drawn from identifiers and their near misses (a trailing newline,
capitals, a hyphen, non-ASCII letters and digits, the empty string), values
that are not strings, and repeats.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checks as reference
from dalia import atdp, capabilities, directory
from dalia.errors import ValidationError

_NEAR = st.sampled_from(["a", "b", "a_1", "z9", "a\n", "A", "a-b", "ß", "٣", "", "_a", "1a", "a b"])
_NOT_STRINGS = st.one_of(st.integers(-1, 1), st.none(), st.binary(max_size=2), st.just(["a"]))
_TOKENS = st.one_of(_NEAR, st.text(alphabet="ab_1A.\n-ß٣", max_size=4), _NOT_STRINGS)
_ID_TEXT = st.one_of(
    st.builds("{}.{}".format, _NEAR, _NEAR),
    st.builds("{}.{}.{}".format, _NEAR, _NEAR, _NEAR),
    _TOKENS,
)
_TOKEN_LISTS = st.one_of(st.lists(_NEAR, max_size=5), st.lists(_TOKENS, max_size=4), _TOKENS)
_ID_LISTS = st.one_of(
    st.lists(st.sampled_from(["a.b", "a.c", "b.a1"]), max_size=4),
    st.lists(_ID_TEXT, max_size=4),
    _TOKENS,
)


def _outcome(parse, *args):
    """``("ok", value)`` or ``(error type, its violations)``."""
    try:
        return "ok", parse(*args)
    except ValidationError as exc:
        return type(exc), exc.violations


@settings(max_examples=600, deadline=None)
@given(text=_ID_TEXT, label=st.sampled_from(["capability_id", "capabilities[2]"]))
def test_capability_id_text_is_parsed_as_the_reference_parses_it(text, label):
    assert capabilities.parse_capability_id(text, label) == reference.parse_capability_id(text, label)


@settings(max_examples=600, deadline=None)
@given(value=_TOKEN_LISTS)
def test_a_token_list_is_checked_as_the_reference_checks_it(value):
    new: tuple[list, list] = [], []
    old: tuple[list, list] = [], []
    tokens = capabilities.check_token_list(value, "inputs", *new)
    assert (list(tokens), new) == (reference.check_token_list(value, "inputs", *old), old)


@settings(max_examples=400, deadline=None)
@given(
    capability_id=_ID_TEXT,
    role=st.one_of(_NEAR, _NOT_STRINGS),
    lists=st.lists(_TOKEN_LISTS, min_size=4, max_size=4),
    dropped=st.sets(st.sampled_from(capabilities.CAPABILITY_FIELDS), max_size=1),
)
def test_a_capability_document_is_parsed_as_the_reference_parses_it(
    capability_id, role, lists, dropped
):
    fields = [capability_id, role, "d", *lists]
    document = dict(zip(capabilities.CAPABILITY_FIELDS, fields))
    for name in dropped:
        del document[name]
    assert _outcome(capabilities._parse_fields, document) == _outcome(
        reference.parse_capability_fields, document
    )


@settings(max_examples=400, deadline=None)
@given(
    task_id=_ID_TEXT,
    intent=st.one_of(_NEAR, _NOT_STRINGS),
    inputs=_TOKEN_LISTS,
    outputs=_TOKEN_LISTS,
    pool=_ID_LISTS,
)
def test_a_task_document_is_parsed_as_the_reference_parses_it(task_id, intent, inputs, outputs, pool):
    document = dict(zip(atdp.TASK_FIELDS, (task_id, intent, inputs, outputs, pool)))
    assert _outcome(atdp._parse_fields, document) == _outcome(reference.parse_task_fields, document)


@settings(max_examples=400, deadline=None)
@given(
    bindings=st.dictionaries(st.sampled_from(["s", "t", "Bad", "s\n"]), _ID_LISTS, max_size=3),
    servers=st.lists(st.sampled_from(["s", "t"]), max_size=2, unique=True),
)
def test_snapshot_bindings_are_loaded_as_the_reference_loads_them(bindings, servers):
    agent = {"agent_id": "A", "role": "r", "domains": [], "accessible_servers": servers}
    document = {"origin": "o", "agents": {"A": agent}, "server_capabilities": bindings}
    assert _outcome(directory._load_fields, document) == _outcome(
        reference.load_snapshot_fields, document
    )
