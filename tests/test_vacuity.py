"""Every catalog condition can change its value.

A condition that is the same on every structure cannot tell a true claim
from a false one, so a "consistent" verdict resting on it shows nothing.
This tallies each condition's values over a fixed sample and requires
both, except for the allowlisted conditions, each with its reason.
"""

from __future__ import annotations

import re
from collections import defaultdict

from oseg.enumeration import enumerate_ordered_semigroups
from oseg.theorems import check, theorem_ids

STRIDE_4 = 37  # every 37th order-4 structure, 2911 of 107688

#: (entry, condition) -> why it takes one value on the sample
CONSTANT = {
    ("lem-ne51", "i_square_divides"): "true up to order 4; B2 (order 5) falsifies it",
    ("lem-ne51", "ii_product_divides"): "true up to order 4; B2 (order 5) falsifies it",
    ("lem-ne53", "i_rv_inside"): "true on every structure up to order 4",
    ("lem-ne53", "ii_l_classes_meeting_rv_inside"): "true on every structure up to order 4",
    ("lem-ne53", "regular_elements_exist"): "an idempotent is regular, so never false",
    ("thm-ne511", "i_rv_union_matches"): "true on every structure up to order 4",
}

_PREFIX = re.compile(r"^(ideal\[[0-9,]*\]|cong[0-9]+)\.")


def _sample():
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)
    for i, S in enumerate(enumerate_ordered_semigroups(4)):
        if i % STRIDE_4 == 0:
            yield S


def test_every_condition_takes_both_values():
    seen: dict[tuple[str, str], set[bool]] = defaultdict(set)
    count = 0
    for S in _sample():
        count += 1
        for rep in [check(S, t) for t in theorem_ids()]:
            if rep.adapted:
                continue
            for key, value in rep.conditions.items():
                seen[rep.theorem_id, _PREFIX.sub("", key)].add(value)
    assert count == 3903
    constant = {cond for cond, values in seen.items() if len(values) == 1}
    assert constant - CONSTANT.keys() == set(), "conditions that never change value"
    assert CONSTANT.keys() - constant == set(), "allowlisted conditions that now change value"
