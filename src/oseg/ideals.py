"""Simplicity, kernel, restriction and the two-sided ideals."""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    Mask,
    OrderedSemigroup,
    derived,
    full_mask,
    iter_mask,
    members,
    one_sided,
    two_sided,
)


class EmptySubsetError(ValueError):
    pass


class NotClosedError(ValueError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"subset not closed under multiplication: {a}*{b} escapes")


#: each kind's principal ideals, read off the record that holds them
_PRINCIPAL = {
    "left": lambda S: one_sided(S).left_ideal,  # L(a) = (a u Sa]
    "right": lambda S: one_sided(S).right_ideal,  # R(a) = (a u aS]
    "two-sided": lambda S: two_sided(S).ideal,  # I(a) = (a u Sa u aS u SaS]
}


def is_simple(S: OrderedSemigroup, kind: str) -> bool:
    """No proper ideal of the given kind.

    Decided through principal ideals: every ideal contains a principal
    one, so the structure is simple iff every principal ideal is all of S.
    """
    if kind == "t":
        return is_simple(S, "left") and is_simple(S, "right")
    vector = _PRINCIPAL.get(kind)
    if vector is None:
        raise ValueError(f"unknown simplicity kind {kind!r}")
    full = full_mask(S.n)
    return all(v == full for v in vector(S))


def kernel(S: OrderedSemigroup) -> Mask:
    """The least two-sided ideal: intersection of all principal ideals.

    Nonempty for every finite ordered semigroup.
    """
    return two_sided(S).kernel


class Restriction(NamedTuple):
    """A multiplicatively closed subset as a structure of its own.

    The inherited order is the ambient order cut down to the subset.
    embed maps new indices to old ones.
    """

    structure: OrderedSemigroup
    embed: tuple[int, ...]

    def to_ambient(self, mask: Mask) -> Mask:
        out = 0
        for new in iter_mask(mask):
            out |= 1 << self.embed[new]
        return out


#: every proper restriction made in this process, one object (and one
#: derived cache) per table and order, until it holds INTERN_LIMIT of them
#: and is cleared, so that a long sweep's memory stays bounded.  Those of
#: order-5 structures have order < 5, so there are at most
#: 1 + 20 + 971 + 107688 = 108680 of them; an order-5 iso sweep interns 8334.
_INTERNED: dict[OrderedSemigroup, OrderedSemigroup] = {}
INTERN_LIMIT = 1 << 15


def restrict(S: OrderedSemigroup, mask: Mask) -> Restriction:
    """The subset as a structure of its own: S itself for the whole set
    (not memoized, so S's cache never holds S), else an interned
    substructure, memoized per (S, mask)."""
    if mask == full_mask(S.n):
        return Restriction(structure=S, embed=tuple(range(S.n)))
    return _proper_restriction(S, mask)


@derived
def _proper_restriction(S: OrderedSemigroup, mask: Mask) -> Restriction:
    if mask == 0:
        raise EmptySubsetError("cannot restrict to the empty subset")
    elems = members(mask)
    index = {old: new for new, old in enumerate(elems)}
    table = S.table
    sub_table = []
    for a in elems:
        row, sub_row = table[a], []
        for b in elems:
            c = index.get(row[b])
            if c is None:
                raise NotClosedError(a, b)
            sub_row.append(c)
        sub_table.append(tuple(sub_row))
    sub_down = []
    for j in elems:
        m = 0
        for i in iter_mask(S.down[j] & mask):
            m |= 1 << index[i]
        sub_down.append(m)
    sub = OrderedSemigroup(len(elems), tuple(sub_table), tuple(sub_down))
    if len(_INTERNED) >= INTERN_LIMIT:
        _INTERNED.clear()
    return Restriction(structure=_INTERNED.setdefault(sub, sub), embed=tuple(elems))


@derived
def all_ideals(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """Every two-sided ideal, a nonempty union of principal ones, by (size, mask)."""
    out = {0}
    for v in two_sided(S).ideal:
        out |= {m | v for m in out}
    return tuple(sorted(out - {0}, key=lambda m: (m.bit_count(), m)))
