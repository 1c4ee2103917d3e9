"""Nil-extensions and complete semilattice congruence decompositions.

A complete semilattice congruence is an equivalence relation that is
compatible with multiplication, identifies a with a*a and ab with ba,
and identifies a with ab whenever a <= b.  Its classes are
multiplicatively closed, so each class can be restricted to a structure
of its own; all property checks on classes (and on nil-extension
ideals) happen on that restricted structure, with downward closures
taken relative to the subset.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterator, NamedTuple

from .core import (
    Mask,
    OrderedSemigroup,
    OrderTooLargeError,
    derived,
    iter_mask,
    members,
    one_sided,
)
from .ideals import all_ideals, kernel, restrict

#: caps the unions of principal ideals in all_ideals (up to 2^n) and the
#: partitions of the quotient S/least (Bell(k), k <= n)
MAX_PARTITION_ORDER = 6


def _check_order(n: int) -> None:
    if n > MAX_PARTITION_ORDER:
        raise OrderTooLargeError("exhaustive partition/ideal scan", MAX_PARTITION_ORDER, n)


# ---------------------------------------------------------------------------
# partitions


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of {0..n-1} as class-id vectors (restricted growth)."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(used + 1):
            prefix.append(c)
            yield from rec(prefix, max(used, c + 1))
            prefix.pop()

    yield from rec([], 0)


# ---------------------------------------------------------------------------
# congruence partitions


class CongruencePartition(NamedTuple):
    """A complete semilattice congruence: class_of maps elements to class
    ids, assigned by least member, and classes[i] is the mask of class i."""

    class_of: tuple[int, ...]
    classes: tuple[Mask, ...]

    def classes_as_lists(self) -> list[list[int]]:
        return [members(m) for m in self.classes]


def _partition(class_of: tuple[int, ...]) -> CongruencePartition:
    """Package class ids, renumbered by least member, without checking them."""
    remap: dict[int, int] = {}
    cls = tuple(remap.setdefault(c, len(remap)) for c in class_of)
    cmask = [0] * len(remap)
    for a, c in enumerate(cls):
        cmask[c] |= 1 << a
    return CongruencePartition(cls, tuple(cmask))


@derived
def least_complete_semilattice_congruence(S: OrderedSemigroup) -> CongruencePartition:
    """Closure of the seed pairs (ab,ba) and (a,ab) for a <= b (b = a gives (a,a2)).

    Each class carries the label of one of its members.  The seeds merge
    labels; then every element a is compared with its label r, merging
    the classes of ca and cr and of ac and rc for all c, until a whole
    pass merges nothing, which is exactly compatibility closure.
    """
    n, table, down = S.n, S.table, S.down
    label = list(range(n))
    pairs = [(table[a][b], table[b][a]) for a in range(n) for b in range(n)]
    pairs += [(a, table[a][b]) for b in range(n) for a in iter_mask(down[b])]
    while pairs:
        merged = False
        for x, y in pairs:
            lx, ly = label[x], label[y]
            if lx != ly:
                label = [lx if l == ly else l for l in label]
                merged = True
        pairs = [
            pair
            for a, r in enumerate(label)
            if merged and r != a
            for c in range(n)
            for pair in ((table[c][a], table[c][r]), (table[a][c], table[r][c]))
        ]
    return _partition(tuple(label))


def _quotient_table(S: OrderedSemigroup) -> tuple[tuple[int, ...], ...]:
    """The multiplication table of S/least on the least congruence's class ids."""
    least = least_complete_semilattice_congruence(S)
    reps = [least.class_of.index(c) for c in range(len(least.classes))]
    return tuple(tuple(least.class_of[S.table[x][y]] for y in reps) for x in reps)


@cache
def _quotient_partitions(qtable: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The partitions of a semilattice's elements compatible with its
    multiplication, in partition order.  The semilattice is commutative,
    so left multiplication covers both sides.  Few quotient tables occur
    (88 over every structure of order <= 4), so each is decided once."""
    k = len(qtable)
    out = []
    for q in partitions(k):
        joined = [(c, d) for d in range(k) for c in range(d) if q[c] == q[d]]
        if all(q[row[c]] == q[row[d]] for row in qtable for c, d in joined):
            out.append(q)
    return tuple(out)


@derived
def all_complete_semilattice_congruences(S: OrderedSemigroup) -> tuple[CongruencePartition, ...]:
    """Every compatible partition holding the least congruence, in partition
    order: the compatible partitions of S/least pulled back to the elements
    (classes numbered by least member, so pulling back keeps the order);
    order <= 6."""
    _check_order(S.n)
    least = least_complete_semilattice_congruence(S).class_of
    return tuple(
        _partition(tuple(q[c] for c in least))
        for q in _quotient_partitions(_quotient_table(S))
    )


# ---------------------------------------------------------------------------
# nil-extensions


@derived
def nil_extension_ideals(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """Every ideal K with S a nil-extension of K, the ideals that every
    element has a power in, in all_ideals order; order <= 6."""
    _check_order(S.n)
    power_masks = one_sided(S).power_masks
    return tuple(K for K in all_ideals(S) if all(p & K for p in power_masks))


def nil_extension_of_type(
    S: OrderedSemigroup, tau: Callable[[OrderedSemigroup], bool]
) -> Mask | None:
    """The first of nil_extension_ideals(S) of type tau, or None; order <= 6.

    A type that implies simplicity (type_of marks it implies_simple)
    holds on no ideal but the kernel: a simple ideal K of S is the
    kernel, since the kernel is an ideal of K.  Such a type tests the
    kernel alone, when it leads nil_extension_ideals(S), and else nothing.
    """
    nil = nil_extension_ideals(S)
    if getattr(tau, "implies_simple", False):
        nil = nil[:1] if nil[:1] == (kernel(S),) else ()
    for K in nil:
        if tau(restrict(S, K).structure):
            return K
    return None


# ---------------------------------------------------------------------------
# semilattice-of-type decisions


class CslResult(NamedTuple):
    holds: bool
    witness: CongruencePartition | None
    mode: str  # "least" | "exhaustive": where the answer was found


def is_complete_semilattice_of(
    S: OrderedSemigroup, tau: Callable[[OrderedSemigroup], bool]
) -> CslResult:
    """Some complete semilattice congruence with every class of type tau.

    The least congruence is tried first, and then every other one in
    partition order, the first passing one being the witness.  That scan
    raises OrderTooLargeError above order 6, so a structure that large
    gets an answer only when its least congruence passes.
    """

    def classes_pass(p: CongruencePartition) -> bool:
        return all(tau(restrict(S, cmask).structure) for cmask in p.classes)

    least = least_complete_semilattice_congruence(S)
    if classes_pass(least):
        return CslResult(True, least, "least")
    for p in all_complete_semilattice_congruences(S):
        if p != least and classes_pass(p):
            return CslResult(True, p, "exhaustive")
    return CslResult(False, None, "exhaustive")
