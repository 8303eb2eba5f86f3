"""``machine_text`` writes the bytes of ``json.dumps(doc, indent=2) + "\\n"``."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo.dsl import machine_text

_strings = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t é€\U0001f600')
    ),
    max_size=8,
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(max_value=-(2**63)),
    st.floats(),
    _strings,
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_strings, max_size=4),
        st.dictionaries(_strings, children, max_size=4),
    ),
    max_leaves=30,
)


def _reference(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_same_bytes_as_the_standard_encoder(doc):
    assert machine_text(doc) == _reference(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_strings, max_size=3), max_size=3), st.lists(_documents, max_size=2))
def test_a_list_met_twice_is_written_at_each_depth(states, rest):
    # A list of lists takes the memoised path; it appears twice at one depth
    # and at three depths, so a memo keyed without the depth misindents.
    shared = [states] + rest
    doc = {
        "same depth": [shared, shared, (shared,)],
        "deeper": {"one": shared, "two": [[shared], rest]},
        "top": shared,
    }
    assert machine_text(doc) == _reference(doc)
    assert machine_text(shared) == _reference(shared)


@pytest.mark.parametrize("doc", [{"states": {1, 2}}, [frozenset()], object()])
def test_a_value_json_cannot_hold_raises_type_error(doc):
    with pytest.raises(TypeError):
        machine_text(doc)


def test_a_key_that_is_not_a_string_raises_type_error():
    # json.dumps would write the key as "1"; the machine format never has one.
    with pytest.raises(TypeError):
        machine_text({"signature": {1: "p"}})
