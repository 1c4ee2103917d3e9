"""Green's relations, their starred variants, Archimedean tests."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Mask,
    OrderedSemigroup,
    _closed_products,
    _power_masks,
    _rows_from_keys,
    derived,
    full_mask,
    members,
    two_sided,
)
from .ideals import _principal_vector

STAR_KINDS = ("L*", "R*", "J*", "H*")


@dataclass(frozen=True)
class EquivalenceRelation:
    rows: tuple[Mask, ...]  # rows[i] = mask of j related to i

    def related(self, i: int, j: int) -> bool:
        return self.rows[i] >> j & 1 == 1

    def classes(self) -> list[list[int]]:
        """Equivalence classes, ordered by least member."""
        seen: Mask = 0
        out = []
        for i in range(len(self.rows)):
            if seen >> i & 1:
                continue
            out.append(members(self.rows[i]))
            seen |= self.rows[i]
        return out

    def is_universal(self) -> bool:
        full = full_mask(len(self.rows))
        return all(r == full for r in self.rows)


def green(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    """a ~ b iff the corresponding principal ideals agree; H = L and R.
    J's rows are read off the two-sided record."""
    if which == "J":
        return EquivalenceRelation(two_sided(S).j_rows)
    return _one_sided_green(S, which)


@derived
def _one_sided_green(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    if which == "H":
        lrows = _one_sided_green(S, "L").rows
        rrows = _one_sided_green(S, "R").rows
        return EquivalenceRelation(tuple(lr & rr for lr, rr in zip(lrows, rrows)))
    if which not in ("L", "R"):
        raise ValueError(f"unknown Green relation {which!r}")
    kind = "left" if which == "L" else "right"
    return EquivalenceRelation(_rows_from_keys(_principal_vector(S, kind)))


@derived
def green_star(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    """Starred relation: compare the first regular powers of the elements."""
    if which not in STAR_KINDS:
        raise ValueError(f"unknown starred relation {which!r}")
    if which == "H*":
        lrows = green_star(S, "L*").rows
        rrows = green_star(S, "R*").rows
        rows = tuple(lr & rr for lr, rr in zip(lrows, rrows))
    else:
        reps = two_sided(S).first_regular
        base = green(S, which[0]).rows
        rows = _rows_from_keys([base[r] for r in reps])
    return EquivalenceRelation(rows)


@derived
def is_archimedean(S: OrderedSemigroup, flavor: str) -> bool:
    """Every pair (a, b) has some m with b^m in the flavor's closed set.

    two-sided: (SaS], l: (Sa], r: (aS], t: (aSa].  The exponent search
    over m in 1..n is exhaustive because the distinct powers of b all
    occur in that range.
    """
    pows = _power_masks(S)
    return all(all(p & target for p in pows) for target in _closed_products(S, flavor))
