"""Metamorphic checks: the dual and a relabeling of a structure.

S^op (the transposed table, same order) swaps left and right, so each
atom of S equals its dual atom on S^op.  Renaming the elements changes
no atom, no catalog verdict and no multiset of condition values.  These
hold for any correct implementation, so they need no oracle.
"""

from __future__ import annotations

from collections import Counter

from oseg.core import OrderedSemigroup
from oseg.decomposition import is_complete_semilattice_of, nil_extension_of_type
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.ideals import is_simple
from oseg.properties import ATOMS
from oseg.regularity import is_left_pi_inverse
from oseg.relations import is_archimedean
from oseg.theorems import check, theorem_ids

OP_STRIDE_4 = 7  # every 7th order-4 structure

#: atom -> how to decide it on S^op; atoms not listed are their own dual
DUAL = {
    "left-simple": lambda T: is_simple(T, "right"),
    "right-pi-inverse": ATOMS["left-pi-inverse"],
    "left-pi-inverse": ATOMS["right-pi-inverse"],
    "l-archimedean": ATOMS["r-archimedean"],
    "r-archimedean": ATOMS["l-archimedean"],
}
NO_DUAL_ATOM = {"right-inverse"}  # its dual, left inverse, is not an atom


def opposite(S: OrderedSemigroup) -> OrderedSemigroup:
    table = tuple(tuple(S.table[j][i] for j in range(S.n)) for i in range(S.n))
    return OrderedSemigroup(S.n, table, S.down)


def relabel(S: OrderedSemigroup, perm: list[int]) -> OrderedSemigroup:
    """S with element i renamed perm[i]."""
    n = S.n
    table = [[0] * n for _ in range(n)]
    down = [0] * n
    for i in range(n):
        for j in range(n):
            table[perm[i]][perm[j]] = perm[S.table[i][j]]
            if S.leq(j, i):
                down[perm[i]] |= 1 << perm[j]
    return OrderedSemigroup(n, tuple(map(tuple, table)), tuple(down))


def _op_sample():
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(n)
    for i, S in enumerate(enumerate_ordered_semigroups(4)):
        if i % OP_STRIDE_4 == 0:
            yield S


def test_opposite_swaps_the_dual_atoms():
    checked = 0
    for S in _op_sample():
        T = opposite(S)
        for name, decide in ATOMS.items():
            if name not in NO_DUAL_ATOM:
                assert decide(S) == DUAL.get(name, ATOMS[name])(T), (name, S)
        checked += 1
    assert checked == 992 + 15384


def _right_simple(T: OrderedSemigroup) -> bool:
    return is_simple(T, "right")


def _right_simple_lpi(T: OrderedSemigroup) -> bool:
    return is_simple(T, "right") and is_left_pi_inverse(T)


def _nilext_right_simple(T: OrderedSemigroup) -> bool:
    return nil_extension_of_type(T, _right_simple) is not None


def _nilext_right_simple_lpi(T: OrderedSemigroup) -> bool:
    return nil_extension_of_type(T, _right_simple_lpi) is not None


def _r_archimedean(T: OrderedSemigroup) -> bool:
    return is_archimedean(T, "r")


def test_cor_leftsimple_on_the_opposite_is_its_right_hand_dual(corpus3):
    """cor-leftsimple on S^op equals, condition by condition, its dual on S:
    a complete semilattice of nil-extensions of right simple left
    pi-inverse ones, iff of nil-extensions of right simple ones and left
    pi-inverse, iff left pi-inverse and a complete semilattice of
    r-Archimedean ones."""
    for S in corpus3:
        lpi = is_left_pi_inverse(S)
        dual = [
            is_complete_semilattice_of(S, _nilext_right_simple_lpi).holds,
            is_complete_semilattice_of(S, _nilext_right_simple).holds and lpi,
            lpi and is_complete_semilattice_of(S, _r_archimedean).holds,
        ]
        rep = check(opposite(S), "cor-leftsimple")
        assert list(rep.conditions.values()) == dual, S
        assert rep.consistent == (len(set(dual)) == 1), S


def _catalog_shape(S: OrderedSemigroup) -> list:
    return [
        (rep.theorem_id, rep.verdict, Counter(rep.conditions.values()))
        for rep in [check(S, t) for t in theorem_ids()]
    ]


def test_relabeling_changes_nothing(corpus3):
    for S in corpus3:
        if S.n == 1:
            continue  # the only relabeling is the identity
        T = relabel(S, [(i + 1) % S.n for i in range(S.n)])
        for name, decide in ATOMS.items():
            assert decide(S) == decide(T), (name, S)
        assert _catalog_shape(S) == _catalog_shape(T), S
