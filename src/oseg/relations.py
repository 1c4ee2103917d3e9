"""Green's relations, their starred variants, Archimedean tests."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Mask,
    OrderedSemigroup,
    _rows_from_keys,
    derived,
    full_mask,
    members,
    one_sided,
    two_sided,
)

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


#: each relation's rows, read off the record that holds them
_ROWS = {
    "L": lambda S: one_sided(S).l_rows,
    "R": lambda S: one_sided(S).r_rows,
    "H": lambda S: one_sided(S).h_rows,
    "J": lambda S: two_sided(S).j_rows,
}


def green(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    """a ~ b iff the corresponding principal ideals agree; H = L and R."""
    rows = _ROWS.get(which)
    if rows is None:
        raise ValueError(f"unknown Green relation {which!r}")
    return EquivalenceRelation(rows(S))


@derived
def _starred(S: OrderedSemigroup) -> dict[str, EquivalenceRelation]:
    """The starred relations by name: a ~ b under L*, R* or J* iff the first
    regular powers of a and b are related under L, R or J; H* = L* and R*."""
    one, two = one_sided(S), two_sided(S)
    lrows, rrows, jrows = (
        _rows_from_keys([rows[r] for r in two.first_regular])
        for rows in (one.l_rows, one.r_rows, two.j_rows)
    )
    hrows = tuple(lr & rr for lr, rr in zip(lrows, rrows))
    return dict(zip(STAR_KINDS, map(EquivalenceRelation, (lrows, rrows, jrows, hrows))))


def green_star(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    """Starred relation: compare the first regular powers of the elements."""
    rel = _starred(S).get(which)
    if rel is None:
        raise ValueError(f"unknown starred relation {which!r}")
    return rel


#: the closed set of each element that every power must reach, per
#: flavor, read off the record that holds it
_ARCHIMEDEAN_TARGETS = {
    "two-sided": lambda S: two_sided(S).sas,
    "l": lambda S: one_sided(S).sa,
    "r": lambda S: one_sided(S).as_,
    "t": lambda S: two_sided(S).asa,
}


@derived
def is_archimedean(S: OrderedSemigroup, flavor: str) -> bool:
    """Every pair (a, b) has some m with b^m in the flavor's closed set.

    two-sided: (SaS], l: (Sa], r: (aS], t: (aSa].  The exponent search
    over m in 1..n is exhaustive because the distinct powers of b all
    occur in that range.
    """
    targets = _ARCHIMEDEAN_TARGETS.get(flavor)
    if targets is None:
        raise ValueError(f"unknown Archimedean flavor {flavor!r}")
    pows = one_sided(S).power_masks
    for target in targets(S):
        for p in pows:
            if not p & target:
                return False
    return True
