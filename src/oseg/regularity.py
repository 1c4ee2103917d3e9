"""Regularity, ordered inverses, and the (right/left/two-sided) pi-inverse family.

Membership conventions (these matter and are easy to get backwards):

* V(a) is the set of ordered inverses b of a: a <= aba and b <= bab.
  It is nonempty exactly when a is regular.
* rv_set collects the elements whose inverses are pairwise R-related and
  requires V(a) to be nonempty; the vacuous reading that also admits
  irregular elements, those with V(a) empty, is available via
  include_irregular=True.
* pi_rv_set asks for some power a^m (m in 1..n) in rv_set, matching the
  usage in the theorems this package checks.
"""

from __future__ import annotations

from .core import Mask, OrderedSemigroup, _least_power_in, _power_masks, derived, full_mask, mask_of, two_sided
from .relations import green


def regular_elements(S: OrderedSemigroup) -> Mask:
    return two_sided(S).regular


def ordered_idempotents(S: OrderedSemigroup) -> Mask:
    """{e : e <= e*e}."""
    return two_sided(S).idempotents


@derived
def _inverse_vector(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """V(a) for each a, the ordered inverses of a: nonempty iff a is regular."""
    n, table = S.n, S.table
    rows = []
    for a in range(n):
        m = 0
        for b in range(n):
            aba = table[table[a][b]][a]
            bab = table[table[b][a]][b]
            if S.leq(a, aba) and S.leq(b, bab):
                m |= 1 << b
        rows.append(m)
    return tuple(rows)


def is_pi_regular(S: OrderedSemigroup) -> bool:
    """Every finite ordered semigroup is pi-regular and intra-pi-regular.

    Some power e of each element a is idempotent, so e <= e*e*e puts e in
    (eSe] and e = e*e^2*e puts e in (S e^2 S], whatever the order.  The
    oracle test test_lemma_every_finite_table_pi_and_intra_pi_regular
    checks this on every table up to order 4.
    """
    return True


def is_intra_pi_regular(S: OrderedSemigroup) -> bool:
    return True  # see is_pi_regular


def pi_intra_set(S: OrderedSemigroup) -> Mask:
    """The intra pi-regular elements: all of S (see is_pi_regular)."""
    return full_mask(S.n)


def _pairwise_related(rows: tuple[Mask, ...], subset: Mask) -> bool:
    """All pairs inside subset related (rows is an equivalence relation)."""
    if subset == 0:
        return True
    first = (subset & -subset).bit_length() - 1
    return subset & ~rows[first] == 0


@derived
def _agree_mask(S: OrderedSemigroup, which: str) -> Mask:
    """The a with V(a) nonempty and pairwise related by the Green relation
    ``which``."""
    rows = green(S, which).rows
    m = 0
    for a, v in enumerate(_inverse_vector(S)):
        if v and _pairwise_related(rows, v):
            m |= 1 << a
    return m


def _has_power_in(S: OrderedSemigroup, mask: Mask) -> Mask:
    """The elements with some power a^m (m in 1..n) in mask."""
    return mask_of(a for a, powers in enumerate(_power_masks(S)) if powers & mask)


def rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements whose ordered inverses are pairwise R-related."""
    if include_irregular:
        return _agree_mask(S, "R") | full_mask(S.n) & ~regular_elements(S)
    return _agree_mask(S, "R")


@derived
def _pi_rv_mask(S: OrderedSemigroup) -> Mask:
    return _has_power_in(S, rv_set(S))


def pi_rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements with some power whose inverses are pairwise R-related."""
    if include_irregular:
        return _has_power_in(S, rv_set(S, True))
    return _pi_rv_mask(S)


def pi_rv_witness(S: OrderedSemigroup) -> tuple[int | None, ...]:
    """Least exponent per element witnessing pi_rv_set membership."""
    return _least_power_in(S, rv_set(S))


# The pi-inverse family needs no pi-regularity conjunct (see is_pi_regular).
# Each verdict is derived: the catalog asks for it many times per structure.

@derived
def is_right_pi_inverse(S: OrderedSemigroup) -> bool:
    """Some power of each element has R-related inverses."""
    return pi_rv_set(S) == full_mask(S.n)


@derived
def is_left_pi_inverse(S: OrderedSemigroup) -> bool:
    return _has_power_in(S, _agree_mask(S, "L")) == full_mask(S.n)


@derived
def is_pi_inverse(S: OrderedSemigroup) -> bool:
    """The H-related reading, the common refinement of left and right."""
    return _has_power_in(S, _agree_mask(S, "H")) == full_mask(S.n)


@derived
def is_right_inverse(S: OrderedSemigroup) -> bool:
    """Every element regular with pairwise R-related inverses; rv_set
    already leaves out the irregular elements, whose V(a) is empty."""
    return rv_set(S) == full_mask(S.n)
