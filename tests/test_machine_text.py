"""``machine_text`` writes the bytes of ``json.dumps(doc, indent=2) + "\\n"``."""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bevo import EvolutionResult, make_signature
from bevo.dsl import machine_text, result_from_json, result_to_data, sequences_data

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


def test_a_list_of_strings_met_at_two_depths_and_a_mixed_list_met_twice():
    # The memo holds a list of strings and a list whose later item is not a
    # string (the join raises TypeError), each met at two depths and twice.
    names = ["p", "q"]
    mixed = ["p", 1, None]
    doc = {"a": [names, mixed, names, mixed], "b": [[names, mixed]], "c": names}
    assert machine_text(doc) == _reference(doc)


@st.composite
def _results(draw):
    """A signature of 0-3 fluents and a result over it, evolution or plain
    trajectory, its state sets drawn from a few so that some repeat."""
    n = draw(st.integers(0, 3))
    sig = make_signature([f"f{k}" for k in range(n)], ("a",))
    sets = draw(st.lists(st.frozensets(st.integers(0, sig.num_states - 1)),
                         min_size=1, max_size=4))
    runs = st.lists(st.sampled_from(sets), max_size=4).map(tuple)
    if draw(st.booleans()):
        return sig, draw(runs)
    views = draw(st.lists(runs, min_size=1, max_size=3))
    trajectories = tuple(draw(runs) for _ in views)
    return sig, EvolutionResult(draw(st.booleans()), tuple(views), trajectories)


@settings(max_examples=200, deadline=None)
@given(_results(), _strings)
def test_result_documents_match_the_standard_encoder(case, scenario):
    sig, res = case
    doc = result_to_data(res, sig, scenario)
    text = machine_text(doc)
    assert text == _reference(doc)
    # Shared lists must still name each state's own fluents.
    assert result_from_json(text) == (sig, res)


@pytest.mark.parametrize("bad", [4, -1])
def test_sequences_data_rejects_a_state_out_of_range(bad):
    sig = make_signature(("p", "q"))
    with pytest.raises(ValueError, match=f"state index {bad} out of range"):
        sequences_data(sig, [[frozenset((0,))], [frozenset((1, bad))]])
