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

from .core import Mask, OrderedSemigroup, _least_power_in, _with_power_in, full_mask, one_sided, two_sided


def regular_elements(S: OrderedSemigroup) -> Mask:
    return two_sided(S).regular


def ordered_idempotents(S: OrderedSemigroup) -> Mask:
    """{e : e <= e*e}."""
    return two_sided(S).idempotents


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


def rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements whose ordered inverses are pairwise R-related."""
    rv = one_sided(S).r_agree
    if include_irregular:
        return rv | full_mask(S.n) & ~regular_elements(S)
    return rv


def pi_rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements with some power whose inverses are pairwise R-related."""
    if include_irregular:
        return _with_power_in(one_sided(S).power_masks, rv_set(S, True))
    return one_sided(S).r_pi


def pi_rv_witness(S: OrderedSemigroup) -> tuple[int | None, ...]:
    """Least exponent per element witnessing pi_rv_set membership."""
    return _least_power_in(S, rv_set(S))


# The pi-inverse family needs no pi-regularity conjunct (see is_pi_regular).


def is_right_pi_inverse(S: OrderedSemigroup) -> bool:
    """Some power of each element has R-related inverses."""
    return one_sided(S).r_pi == full_mask(S.n)


def is_left_pi_inverse(S: OrderedSemigroup) -> bool:
    return one_sided(S).l_pi == full_mask(S.n)


def is_pi_inverse(S: OrderedSemigroup) -> bool:
    """The H-related reading, the common refinement of left and right."""
    return one_sided(S).h_pi == full_mask(S.n)


def is_right_inverse(S: OrderedSemigroup) -> bool:
    """Every element regular with pairwise R-related inverses; rv_set
    already leaves out the irregular elements, whose V(a) is empty."""
    return one_sided(S).r_agree == full_mask(S.n)
