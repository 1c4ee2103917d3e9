"""Fuzzing of the two parsers that read outside input.

A structure file may fail only with StructureFormatError or
InvalidStructureError, and a checkpoint only with ValueError; anything
else would reach the user as a traceback.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oseg.core import InvalidStructureError, StructureFormatError, parse_structure
from oseg.enumeration import EnumerationCursor

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

small_ints = st.integers(min_value=-2, max_value=6)
scalars = (
    st.none()
    | st.booleans()
    | small_ints
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


def _square(cell):
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)
    )


structure_like = st.fixed_dictionaries(
    {
        "order": small_ints | json_values,
        "table": _square(small_ints) | json_values,
        "leq": st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=8) | json_values,
    }
)

cursor_like = st.fixed_dictionaries(
    {
        "order": small_ints | json_values,
        "dedup": st.sampled_from(["raw", "iso"]) | json_values,
        "prefix-stack": st.none()
        | st.fixed_dictionaries(
            {
                "table": st.lists(st.integers(min_value=-1, max_value=4), max_size=25)
                | json_values,
                "orders_done": small_ints | json_values,
            }
        )
        | json_values,
        "emitted": small_ints | json_values,
    },
    optional={"out-bytes": small_ints | json_values},
)


def _parse_structure_or_refuse(text: str) -> None:
    try:
        parse_structure(text)
    except (StructureFormatError, InvalidStructureError):
        pass


def _parse_cursor_or_refuse(text: str) -> None:
    try:
        EnumerationCursor.from_json(text)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(structure_like, json_values).map(json.dumps))
@example('{"order": 2, "table": [[0, 0], [0, 0]], "leq": [[0, 0], [1, 1]]}')
def test_structure_json_shaped(text):
    _parse_structure_or_refuse(text)


@FUZZ
@given(st.text())
@example("[" * 100000)
@example("9" * 5000)  # past the int digit limit of json.loads
def test_structure_text(text):
    _parse_structure_or_refuse(text)


@FUZZ
@given(st.one_of(cursor_like, json_values).map(json.dumps))
def test_cursor_json_shaped(text):
    _parse_cursor_or_refuse(text)


@FUZZ
@given(st.text())
@example("[" * 100000)
def test_cursor_text(text):
    _parse_cursor_or_refuse(text)
