"""Regularity, ordered inverses, and the (right/left/two-sided) pi-inverse family.

Membership conventions (these matter and are easy to get backwards):

* V(a) is the set of ordered inverses b of a: a <= aba and b <= bab.
  It is nonempty exactly when a is regular.
* rv_set collects the elements whose inverses are pairwise R-related and
  requires V(a) to be nonempty; the vacuous reading that also admits
  irregular elements is available via include_irregular=True.
* pi_rv_set asks for some power a^m (m in 1..n) with V(a^m) nonempty and
  pairwise R-related, matching the usage in the theorems this package
  checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Mask, OrderedSemigroup, _least_power_in, derived, full_mask
from .relations import _archimedean_targets, _regular_mask, green


@dataclass(frozen=True)
class RegularityProfile:
    is_regular: tuple[bool, ...]
    pi_witness: tuple[int | None, ...]  # least m with a^m regular
    intra_witness: tuple[int | None, ...]  # least m with a^m in (S a^2m S]


@derived
def regularity_profile(S: OrderedSemigroup) -> RegularityProfile:
    n, table = S.n, S.table
    reg = _regular_mask(S)
    sas_down = _archimedean_targets(S, "two-sided")
    intra = 0  # p in (S p^2 S]; with p = a^m, p^2 = a^2m
    for p in range(n):
        if sas_down[table[p][p]] >> p & 1:
            intra |= 1 << p
    return RegularityProfile(
        is_regular=tuple(reg >> a & 1 == 1 for a in range(n)),
        pi_witness=_least_power_in(S, reg),
        intra_witness=_least_power_in(S, intra),
    )


def is_regular(S: OrderedSemigroup, a: int) -> bool:
    """a in (aSa]."""
    return _regular_mask(S) >> a & 1 == 1


def regular_elements(S: OrderedSemigroup) -> Mask:
    return _regular_mask(S)


@derived
def ordered_idempotents(S: OrderedSemigroup) -> Mask:
    """{e : e <= e*e}."""
    m = 0
    for e in range(S.n):
        if S.leq(e, S.table[e][e]):
            m |= 1 << e
    return m


@derived
def _inverse_vector(S: OrderedSemigroup) -> tuple[Mask, ...]:
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


def inverses(S: OrderedSemigroup, a: int) -> Mask:
    """V(a), the ordered inverses of a.  Nonempty iff a is regular."""
    return _inverse_vector(S)[a]


def is_pi_regular(S: OrderedSemigroup) -> bool:
    return all(w is not None for w in regularity_profile(S).pi_witness)


def is_intra_pi_regular(S: OrderedSemigroup) -> bool:
    return all(w is not None for w in regularity_profile(S).intra_witness)


def pi_intra_set(S: OrderedSemigroup) -> Mask:
    """The intra pi-regular elements."""
    return _witness_mask(regularity_profile(S).intra_witness)


def _pairwise_related(rows: tuple[Mask, ...], subset: Mask) -> bool:
    """All pairs inside subset related (rows is an equivalence relation)."""
    if subset == 0:
        return True
    first = (subset & -subset).bit_length() - 1
    return subset & ~rows[first] == 0


@derived
def _agree_mask(S: OrderedSemigroup, which: str, include_irregular: bool) -> Mask:
    """The a with V(a) nonempty and pairwise related by the Green relation
    ``which``; include_irregular also admits every a with V(a) empty."""
    rows = green(S, which).rows
    m = 0
    for a, v in enumerate(_inverse_vector(S)):
        if _pairwise_related(rows, v) if v else include_irregular:
            m |= 1 << a
    return m


@derived
def _pi_agree_witness(
    S: OrderedSemigroup, which: str, include_irregular: bool
) -> tuple[int | None, ...]:
    """Per element: least m with a^m in _agree_mask."""
    return _least_power_in(S, _agree_mask(S, which, include_irregular))


def _witness_mask(witness: tuple[int | None, ...]) -> Mask:
    m = 0
    for a, w in enumerate(witness):
        if w is not None:
            m |= 1 << a
    return m


def rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements whose ordered inverses are pairwise R-related."""
    return _agree_mask(S, "R", include_irregular)


def pi_rv_set(S: OrderedSemigroup, include_irregular: bool = False) -> Mask:
    """Elements with some power whose inverses are pairwise R-related."""
    return _witness_mask(_pi_agree_witness(S, "R", include_irregular))


def pi_rv_witness(S: OrderedSemigroup) -> tuple[int | None, ...]:
    """Least exponent per element witnessing pi_rv_set membership."""
    return _pi_agree_witness(S, "R", False)


# Every finite structure is pi-regular (some power of each element is
# idempotent), so the pi-inverse family needs no pi-regularity conjunct.

def is_right_pi_inverse(S: OrderedSemigroup) -> bool:
    """Some power of each element has R-related inverses."""
    return pi_rv_set(S) == full_mask(S.n)


def is_left_pi_inverse(S: OrderedSemigroup) -> bool:
    return _witness_mask(_pi_agree_witness(S, "L", False)) == full_mask(S.n)


def is_pi_inverse(S: OrderedSemigroup) -> bool:
    """The H-related reading, the common refinement of left and right."""
    return _witness_mask(_pi_agree_witness(S, "H", False)) == full_mask(S.n)


def is_right_inverse(S: OrderedSemigroup) -> bool:
    """Every element regular with pairwise R-related inverses."""
    full = full_mask(S.n)
    return regular_elements(S) == full and rv_set(S) == full
