"""The brute-force oracles against the program on the order-4 and order-5
streams, walking each stream once.

Every check below recomputes the facts it needs from conftest's oracles,
which memoise their per-element primitives (powers, principal ideals,
Green relations, inverses, regularity, first regular powers), so the
checks run on one structure compute each of its oracle facts once:

- on every raw order-4 structure (107688): the complete semilattice
  congruence invariants;
- on every 7th raw order-4 structure (15384): the one-sided record, the
  two-sided record and the starred relations read off it, the kernel
  rule of the nil-extension types and the csl lattice;
- on every 100th order-5 iso class (1989): all five.

The order-4 walk is made once per session by ``order_4_sweep``; the five
slow order-4 tests in test_core.py and test_decomposition.py each read
their own check's outcome from it through ``assert_order_4_holds``.

(McKeeman, "Differential Testing for Software", Digital Technical
Journal 10(1), 1998.)
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from oseg.enumeration import enumerate_ordered_semigroups
from test_core import assert_one_sided_matches_oracles, assert_record_matches_oracles
from test_decomposition import (
    assert_congruence_invariants,
    assert_csl_lattice_matches_oracle,
    assert_kernel_rule_by_definition,
)

#: the checks made on a sampled structure, besides the invariants
RECORD_CHECKS = (
    assert_one_sided_matches_oracles,
    assert_record_matches_oracles,
    assert_kernel_rule_by_definition,
    assert_csl_lattice_matches_oracle,
)


def sweep(order, dedup, on_every, step, on_sample):
    """Walk the stream once, running each check of on_every on every
    structure and each of on_sample on every step-th.  Return the number
    of structures walked and sampled, and the first exception each failing
    check raised; a check that failed is not run again."""
    failures = {}
    count = checked = 0
    for i, S in enumerate(enumerate_ordered_semigroups(order, dedup=dedup)):
        sampled = i % step == 0
        for check in on_every + on_sample if sampled else on_every:
            if check not in failures:
                try:
                    check(S)
                except Exception as e:
                    failures[check] = e
        checked += sampled
        count += 1
    return count, checked, failures


@lru_cache(maxsize=None)
def order_4_sweep():
    return sweep(4, "raw", (assert_congruence_invariants,), 7, RECORD_CHECKS)


def assert_order_4_holds(check) -> None:
    """check held on every structure of the raw order-4 walk it runs on."""
    count, checked, failures = order_4_sweep()
    assert (count, checked) == (107688, 15384)
    if check in failures:
        raise failures[check]


@pytest.mark.slow
@pytest.mark.parametrize(
    "order, dedup, step, checks, walked, sampled",
    [(5, "iso", 100, (assert_congruence_invariants, *RECORD_CHECKS), 198838, 1989)],
    ids=["order-5-iso"],
)
def test_oracle_sweep(order, dedup, step, checks, walked, sampled):
    count, checked, failures = sweep(order, dedup, (), step, checks)
    for e in failures.values():
        raise e
    assert (count, checked) == (walked, sampled)
