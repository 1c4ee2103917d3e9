"""Principal ideals, ideal predicates, simplicity, kernel, restriction."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Mask,
    OrderedSemigroup,
    _aS,
    _aSa,
    _Sa,
    _SaS,
    derived,
    downset,
    full_mask,
    iter_mask,
    members,
    subset_product,
)

#: valid ideal kinds for principal_ideal / is_ideal
KINDS = ("left", "right", "two-sided", "bi")

#: valid kinds for is_simple ("t" = left and right simple)
SIMPLE_KINDS = ("left", "right", "two-sided", "t")


class EmptySubsetError(ValueError):
    pass


class NotClosedError(ValueError):
    def __init__(self, a: int, b: int):
        self.witness = (a, b)
        super().__init__(f"subset not closed under multiplication: {a}*{b} escapes")


@derived
def _principal_vector(S: OrderedSemigroup, kind: str) -> tuple[Mask, ...]:
    """principal ideal of each element, as one cached vector per kind.

    left   L(a) = (a u Sa]
    right  R(a) = (a u aS]
    two-sided  I(a) = (a u Sa u aS u SaS]
    bi     B(a) = (a u aSa]
    """
    n = S.n
    if kind == "left":
        gens = _Sa(S)
        return tuple(downset(S, 1 << a | gens[a]) for a in range(n))
    if kind == "right":
        gens = _aS(S)
        return tuple(downset(S, 1 << a | gens[a]) for a in range(n))
    if kind == "two-sided":
        sa, as_, sas = _Sa(S), _aS(S), _SaS(S)
        return tuple(
            downset(S, 1 << a | sa[a] | as_[a] | sas[a]) for a in range(n)
        )
    if kind == "bi":
        gens = _aSa(S)
        return tuple(downset(S, 1 << a | gens[a]) for a in range(n))
    raise ValueError(f"unknown ideal kind {kind!r}")


def principal_ideal(S: OrderedSemigroup, a: int, kind: str) -> Mask:
    return _principal_vector(S, kind)[a]


def is_ideal(S: OrderedSemigroup, mask: Mask, kind: str) -> bool:
    """Absorption inclusion(s) of the kind plus downward closure."""
    if mask == 0:
        raise EmptySubsetError("ideals are nonempty by definition")
    if downset(S, mask) != mask:
        return False
    full = full_mask(S.n)
    if kind == "left":
        return subset_product(S, full, mask) & ~mask == 0
    if kind == "right":
        return subset_product(S, mask, full) & ~mask == 0
    if kind == "two-sided":
        return (
            subset_product(S, full, mask) & ~mask == 0
            and subset_product(S, mask, full) & ~mask == 0
        )
    if kind == "bi":
        asa = subset_product(S, subset_product(S, mask, full), mask)
        return asa & ~mask == 0
    raise ValueError(f"unknown ideal kind {kind!r}")


def is_simple(S: OrderedSemigroup, kind: str) -> bool:
    """No proper ideal of the given kind.

    Decided through principal ideals: every ideal contains a principal
    one, so the structure is simple iff every principal ideal is all of S.
    """
    if kind == "t":
        return is_simple(S, "left") and is_simple(S, "right")
    if kind not in ("left", "right", "two-sided"):
        raise ValueError(f"unknown simplicity kind {kind!r}")
    full = full_mask(S.n)
    return all(v == full for v in _principal_vector(S, kind))


@derived
def kernel(S: OrderedSemigroup) -> Mask:
    """The least two-sided ideal: intersection of all principal ideals.

    Nonempty for every finite ordered semigroup.
    """
    k = full_mask(S.n)
    for v in _principal_vector(S, "two-sided"):
        k &= v
    return k


@dataclass(frozen=True)
class Restriction:
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


def restrict(S: OrderedSemigroup, mask: Mask) -> Restriction:
    if mask == 0:
        raise EmptySubsetError("cannot restrict to the empty subset")
    elems = members(mask)
    index = {old: new for new, old in enumerate(elems)}
    table = S.table
    for a in elems:
        row = table[a]
        for b in elems:
            if mask >> row[b] & 1 == 0:
                raise NotClosedError(a, b)
    sub_table = tuple(tuple(index[table[a][b]] for b in elems) for a in elems)
    sub_down = []
    for j in elems:
        m = 0
        for i in iter_mask(S.down[j] & mask):
            m |= 1 << index[i]
        sub_down.append(m)
    sub = OrderedSemigroup(len(elems), sub_table, tuple(sub_down))
    return Restriction(structure=sub, embed=tuple(elems))


def all_ideals(S: OrderedSemigroup, kind: str = "two-sided") -> list[Mask]:
    """Every ideal of the kind, by subset scan, sorted by (size, mask)."""
    n = S.n
    out = [m for m in range(1, 1 << n) if is_ideal(S, m, kind)]
    out.sort(key=lambda m: (m.bit_count(), m))
    return out
