"""The CLI's JSON writer: the bytes of ``json.dumps(indent=2, sort_keys=True)``."""

import gc
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from galois_trees.cli import json_text

BIG = 10**40

strings = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", ""]),
)
integers = st.one_of(st.integers(-BIG, BIG), st.sampled_from([BIG - 1, -(BIG - 1), -1, 0]))
scalars = st.one_of(st.none(), st.booleans(), integers, strings)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(strings, children, max_size=4),
        st.dictionaries(integers, children, max_size=4),  # census keys are ints
    )


payloads = st.recursive(scalars, _containers, max_leaves=24)


@given(payloads)
def test_json_text_is_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_json_text_examples():
    assert json_text({}) == "{}"
    assert json_text({"a": [], "b": {}, "c": ()}) == '{\n  "a": [],\n  "b": {},\n  "c": []\n}'
    assert json_text({10: 1, 2: 1, 1: 1}) == '{\n  "1": 1,\n  "2": 1,\n  "10": 1\n}'


@pytest.mark.parametrize(
    "payload",
    [1.5, {"x": 0.0}, [{1, 2}], {"x": object()}, {1.5: 1}, {(1, 2): 3}, {True: 1}, {None: 1}],
)
def test_json_text_refuses_other_types(payload):
    with pytest.raises(TypeError):
        json_text(payload)


def test_json_text_makes_no_reference_cycle():
    payload = {"census": {1: 2, 12: 3}, "rows": [[1, [2, {"x": None}]], (True, "é")]}
    gc.collect()
    gc.disable()
    try:
        json_text(payload)
        assert gc.collect() == 0
    finally:
        gc.enable()
