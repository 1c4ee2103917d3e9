"""Green's relations, their starred variants, divisibility, Archimedean tests, regular elements."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Mask,
    OrderedSemigroup,
    _closed_products,
    _power_masks,
    _powers,
    derived,
    full_mask,
    mask_of,
    members,
)
from .ideals import _principal_vector

GREEN_KINDS = ("L", "R", "J", "H")
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


def _rows_from_keys(keys: list) -> tuple[Mask, ...]:
    by_key: dict = {}
    for i, k in enumerate(keys):
        by_key[k] = by_key.get(k, 0) | (1 << i)
    return tuple(by_key[k] for k in keys)


@derived
def green(S: OrderedSemigroup, which: str) -> EquivalenceRelation:
    """a ~ b iff the corresponding principal ideals agree; H = L and R."""
    if which not in GREEN_KINDS:
        raise ValueError(f"unknown Green relation {which!r}")
    if which == "H":
        lrows = green(S, "L").rows
        rrows = green(S, "R").rows
        rows = tuple(lr & rr for lr, rr in zip(lrows, rrows))
    else:
        kind = {"L": "left", "R": "right", "J": "two-sided"}[which]
        rows = _rows_from_keys(list(_principal_vector(S, kind)))
    return EquivalenceRelation(rows)


@derived
def _star_reps(S: OrderedSemigroup) -> tuple[int, ...]:
    """For each a, the value of its first regular power a^m.

    Some power of every element of a finite structure is idempotent,
    hence regular, so every element has one.
    """
    reg = _regular_mask(S)
    return tuple(next(p for p in powers if reg >> p & 1) for powers in _powers(S))


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
        reps = _star_reps(S)
        base = green(S, which[0])
        rows = _rows_from_keys([base.rows[reps[a]] for a in range(S.n)])
    return EquivalenceRelation(rows)


def divides(S: OrderedSemigroup, a: int, b: int) -> bool:
    """a | b: b <= x*a*y for some x, y in S with identity adjoined, that is,
    b lies in the principal two-sided ideal (a u Sa u aS u SaS] of a."""
    return _principal_vector(S, "two-sided")[a] >> b & 1 == 1


@derived
def _regular_mask(S: OrderedSemigroup) -> Mask:
    """The regular elements: a in (aSa]."""
    return mask_of(a for a, asa in enumerate(_closed_products(S, "t")) if asa >> a & 1)


@derived
def is_archimedean(S: OrderedSemigroup, flavor: str) -> bool:
    """Every pair (a, b) has some m with b^m in the flavor's closed set.

    two-sided: (SaS], l: (Sa], r: (aS], t: (aSa].  The exponent search
    over m in 1..n is exhaustive because the distinct powers of b all
    occur in that range.
    """
    targets = _closed_products(S, flavor)
    pows = _power_masks(S)
    return all(pows[b] & targets[a] for a in range(S.n) for b in range(S.n))
