"""Deterministic order-4 sample cross-checked against the oracles.

The exhaustive oracle comparisons stop at order 3; this takes a strided
sample of the order-4 stream and replays the main decisions through the
brute-force definitions.
"""

from __future__ import annotations

from conftest import (
    mask_set,
    oracle_archimedean,
    oracle_inverses,
    oracle_nil_extension,
    oracle_pi_inverse_family,
    oracle_principal_ideal,
    oracle_regular,
    oracle_rv_set,
    oracle_simple,
    structure_tables,
)
from oseg.core import one_sided, two_sided
from oseg.decomposition import nil_extension_ideals
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.ideals import is_simple, kernel
from oseg.regularity import (
    is_pi_inverse,
    is_right_pi_inverse,
    regular_elements,
    rv_set,
)
from oseg.relations import is_archimedean

STRIDE = 643  # prime, about 170 structures out of 107688


def _sample():
    for i, S in enumerate(enumerate_ordered_semigroups(4)):
        if i % STRIDE == 0:
            yield S


def test_order4_sample_against_oracles():
    checked = 0
    for S in _sample():
        table, leq = structure_tables(S)
        for a in range(4):
            assert bool(regular_elements(S) >> a & 1) == oracle_regular(table, leq, a)
            assert mask_set(one_sided(S).inverses[a]) == oracle_inverses(table, leq, a)
            assert mask_set(one_sided(S).left_ideal[a]) == oracle_principal_ideal(
                table, leq, a, "left"
            )
            assert mask_set(two_sided(S).ideal[a]) == oracle_principal_ideal(
                table, leq, a, "two-sided"
            )
        assert mask_set(rv_set(S)) == oracle_rv_set(table, leq)
        assert is_right_pi_inverse(S) == oracle_pi_inverse_family(table, leq, "R")
        assert is_pi_inverse(S) == oracle_pi_inverse_family(table, leq, "H")
        for flavor in ("two-sided", "l", "r", "t"):
            assert is_archimedean(S, flavor) == oracle_archimedean(table, leq, flavor)
        assert is_simple(S, "two-sided") == oracle_simple(table, leq, "two-sided")
        assert (kernel(S) in nil_extension_ideals(S)) == oracle_nil_extension(
            table, leq, mask_set(kernel(S))
        )
        checked += 1
    assert checked >= 150
