"""Green's relations, their starred variants, Archimedean tests."""

from __future__ import annotations

from .core import (
    Mask,
    OrderedSemigroup,
    _rows_from_keys,
    derived,
    members,
    one_sided,
    two_sided,
)


def classes(rows: tuple[Mask, ...]) -> list[list[int]]:
    """The classes of the equivalence relation with these rows, ordered by
    least member: its distinct rows, first seen at their least member."""
    return [members(row) for row in dict.fromkeys(rows)]


@derived
def _starred(S: OrderedSemigroup) -> tuple[tuple[Mask, ...], ...]:
    """The rows of L*, R*, J* and H*: a ~ b under L*, R* or J* iff the first
    regular powers of a and b are related under L, R or J; H* = L* and R*."""
    one, two = one_sided(S), two_sided(S)
    lrows, rrows, jrows = (
        _rows_from_keys([rows[r] for r in two.first_regular])
        for rows in (one.l_rows, one.r_rows, two.j_rows)
    )
    return lrows, rrows, jrows, tuple(lr & rr for lr, rr in zip(lrows, rrows))


#: each relation's rows, read off the record that holds them
_ROWS = {
    "L": lambda S: one_sided(S).l_rows,
    "R": lambda S: one_sided(S).r_rows,
    "H": lambda S: one_sided(S).h_rows,
    "J": lambda S: two_sided(S).j_rows,
    "L*": lambda S: _starred(S)[0],
    "R*": lambda S: _starred(S)[1],
    "J*": lambda S: _starred(S)[2],
    "H*": lambda S: _starred(S)[3],
}


def green(S: OrderedSemigroup, which: str) -> tuple[Mask, ...]:
    """The rows of a Green relation (L, R, J, H) or of a starred one (L*, R*,
    J*, H*): rows[a] is the mask of the b related to a.  a ~ b under L, R or J
    iff the corresponding principal ideals agree; H = L and R; the starred
    relations compare the first regular powers of the elements."""
    rows = _ROWS.get(which)
    if rows is None:
        raise ValueError(f"unknown Green relation {which!r}")
    return rows(S)


#: the closed set of each element that every power must reach, per
#: flavor, read off the record that holds it
_ARCHIMEDEAN_TARGETS = {
    "two-sided": lambda S: two_sided(S).sas,
    "l": lambda S: one_sided(S).sa,
    "r": lambda S: one_sided(S).as_,
    "t": lambda S: two_sided(S).asa,
}


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
