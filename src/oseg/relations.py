"""Green's relations, their starred variants, divisibility, Archimedean tests."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Mask,
    OrderedSemigroup,
    _aS,
    _aSa,
    _monoid_extension,
    _power_masks,
    _powers,
    _Sa,
    _SaS,
    derived,
    downset,
    full_mask,
    members,
    subset_product,
)
from .ideals import _principal_vector

GREEN_KINDS = ("L", "R", "J", "H")
STAR_KINDS = ("L*", "R*", "J*", "H*")

#: Archimedean flavor -> the product set whose downward closure must
#: swallow a power of every element: b^m in (Sa], (aS], (aSa], (SaS]
ARCHIMEDEAN_FLAVORS = ("two-sided", "l", "r", "t")


@dataclass(frozen=True)
class EquivalenceRelation:
    which: str
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
    return EquivalenceRelation(which, rows)


@derived
def _star_reps(S: OrderedSemigroup) -> tuple[int, ...]:
    """For each a, the value of its first regular power a^m.

    Some power of every element of a finite structure is idempotent,
    hence regular, so every element has one.
    """
    from .regularity import regular_elements

    reg = regular_elements(S)
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
    return EquivalenceRelation(which, rows)


@derived
def _divisor_rows(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """rows[a] = mask of b with a | b, decided inside the monoid extension."""
    ext = _monoid_extension(S).structure
    full_ext = full_mask(ext.n)
    rows = []
    for a in range(S.n):
        xay = subset_product(ext, subset_product(ext, full_ext, 1 << a), full_ext)
        rows.append(downset(ext, xay) & full_mask(S.n))
    return tuple(rows)


def divides(S: OrderedSemigroup, a: int, b: int) -> bool:
    """a | b: b <= x*a*y for some x, y in S with identity adjoined."""
    return _divisor_rows(S)[a] >> b & 1 == 1


@derived
def _archimedean_targets(S: OrderedSemigroup, flavor: str) -> tuple[Mask, ...]:
    if flavor == "two-sided":
        vec = _SaS(S)
    elif flavor == "l":
        vec = _Sa(S)
    elif flavor == "r":
        vec = _aS(S)
    elif flavor == "t":
        vec = _aSa(S)
    else:
        raise ValueError(f"unknown Archimedean flavor {flavor!r}")
    return tuple(downset(S, m) for m in vec)


@derived
def is_archimedean(S: OrderedSemigroup, flavor: str) -> bool:
    """Every pair (a, b) has some m with b^m in the flavor's closed set.

    two-sided: (SaS], l: (Sa], r: (aS], t: (aSa].  The exponent search
    over m in 1..n is exhaustive because the distinct powers of b all
    occur in that range.
    """
    targets = _archimedean_targets(S, flavor)
    pows = _power_masks(S)
    return all(pows[b] & targets[a] for a in range(S.n) for b in range(S.n))
