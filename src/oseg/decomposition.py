"""Nil-extensions and complete semilattice congruence decompositions.

A complete semilattice congruence is an equivalence relation that is
compatible with multiplication, identifies a with a*a and ab with ba,
and identifies a with ab whenever a <= b.  Its classes are
multiplicatively closed, so each class can be restricted to a structure
of its own; all property checks on classes (and on nil-extension
kernels) happen on that restricted structure, with downward closures
taken relative to the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import (
    Mask,
    OrderedSemigroup,
    OrderTooLargeError,
    _least_power_in,
    derived,
    downset,
    members,
)
from .ideals import all_ideals, is_ideal, kernel, restrict

#: partition scans are capped here; Bell(6) = 203 partitions
MAX_PARTITION_ORDER = 6


def _check_order(n: int) -> None:
    if n > MAX_PARTITION_ORDER:
        raise OrderTooLargeError("exhaustive partition/ideal scan", MAX_PARTITION_ORDER, n)


# ---------------------------------------------------------------------------
# partitions and the two equivalent checkers


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


def is_csl_congruence(S: OrderedSemigroup, class_of: tuple[int, ...]) -> bool:
    """Congruence-style checker: a complete semilattice congruence is exactly
    a compatible partition containing the least one (the correspondence
    theorem), so a split class of the least one, the cheapest test, goes first."""
    n, table = S.n, S.table
    cls = class_of
    image: dict[int, int] = {}
    least = least_complete_semilattice_congruence(S).class_of
    if any(image.setdefault(c, cls[a]) != cls[a] for a, c in enumerate(least)):
        return False
    for a in range(n):
        for b in range(a + 1, n):
            if cls[a] != cls[b]:
                continue
            for c in range(n):
                if cls[table[c][a]] != cls[table[c][b]]:
                    return False
                if cls[table[a][c]] != cls[table[b][c]]:
                    return False
    return True


def family_conditions_hold(S: OrderedSemigroup, class_of: tuple[int, ...]) -> bool:
    """Family-style checker: the four semilattice-of-subsemigroups conditions.

    The classes must multiply into single classes, the induced operation
    on class ids must be a semilattice, and a class meeting the downward
    closure of another must lie below it in the induced order
    (beta <= alpha iff beta*alpha = beta).
    """
    n, table = S.n, S.table
    cls = class_of
    k = max(cls) + 1
    prod: list[list[int | None]] = [[None] * k for _ in range(k)]
    for a in range(n):
        for b in range(n):
            i, j, c = cls[a], cls[b], cls[table[a][b]]
            if prod[i][j] is None:
                prod[i][j] = c
            elif prod[i][j] != c:
                return False
    for i in range(k):
        if prod[i][i] != i:
            return False
        for j in range(k):
            if prod[i][j] != prod[j][i]:
                return False
            for l in range(k):
                if prod[prod[i][j]][l] != prod[i][prod[j][l]]:
                    return False
    cmask = [0] * k
    for a in range(n):
        cmask[cls[a]] |= 1 << a
    for beta in range(k):
        for alpha in range(k):
            if cmask[beta] & downset(S, cmask[alpha]) and prod[beta][alpha] != beta:
                return False
    return True


# ---------------------------------------------------------------------------
# congruence partitions


@dataclass(frozen=True)
class CongruencePartition:
    """A complete semilattice congruence: class_of maps elements to class
    ids, assigned by least member, and classes[i] is the mask of class i."""

    class_of: tuple[int, ...]
    classes: tuple[Mask, ...]

    def classes_as_lists(self) -> list[list[int]]:
        return [members(m) for m in self.classes]

    def refines(self, other: "CongruencePartition") -> bool:
        """True when every class of self sits inside a class of other."""
        return all(
            other.class_of[a] == other.class_of[b]
            for a in range(len(self.class_of))
            for b in range(len(self.class_of))
            if self.class_of[a] == self.class_of[b]
        )


def _partition(class_of: tuple[int, ...]) -> CongruencePartition:
    """Package class ids, renumbered by least member, without checking them."""
    remap: dict[int, int] = {}
    cls = tuple(remap.setdefault(c, len(remap)) for c in class_of)
    cmask = [0] * len(remap)
    for a, c in enumerate(cls):
        cmask[c] |= 1 << a
    return CongruencePartition(cls, tuple(cmask))


def congruence_partition(S: OrderedSemigroup, class_of: tuple[int, ...]) -> CongruencePartition:
    """Package a complete semilattice congruence; rejects anything else."""
    if not is_csl_congruence(S, class_of):
        raise ValueError("not a complete semilattice congruence")
    return _partition(class_of)


@derived
def least_complete_semilattice_congruence(S: OrderedSemigroup) -> CongruencePartition:
    """Closure of the seed pairs (ab,ba) and (a,ab) for a <= b (b = a gives (a,a2)).

    Union-find with a work queue: every successful merge of (x, y)
    enqueues (cx, cy) and (xc, yc) for all c, which is exactly
    compatibility closure.
    """
    n, table = S.n, S.table
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []
    for a in range(n):
        for b in range(n):
            queue.append((table[a][b], table[b][a]))
            if S.down[b] >> a & 1:
                queue.append((a, table[a][b]))
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        for c in range(n):
            queue.append((table[c][x], table[c][y]))
            queue.append((table[x][c], table[y][c]))
    return _partition(tuple(find(a) for a in range(n)))


@derived
def all_complete_semilattice_congruences(S: OrderedSemigroup) -> list[CongruencePartition]:
    """Every compatible partition holding the least congruence, in partition
    order: the partitions of its classes pulled back to the elements (classes
    numbered by least member, so pulling back keeps the order); order <= 6."""
    _check_order(S.n)
    least = least_complete_semilattice_congruence(S).class_of
    pulled = (tuple(q[c] for c in least) for q in partitions(max(least) + 1))
    return [_partition(p) for p in pulled if is_csl_congruence(S, p)]


# ---------------------------------------------------------------------------
# nil-extensions


@dataclass(frozen=True)
class NilExtension:
    ok: bool
    exponents: tuple[int | None, ...] | None  # least m with a^m in K, per element


def is_nil_extension(S: OrderedSemigroup, K: Mask) -> NilExtension:
    """K is a two-sided ideal and every element has a power inside it."""
    if K == 0 or not is_ideal(S, K, "two-sided"):
        return NilExtension(False, None)
    exps = _least_power_in(S, K)
    return NilExtension(None not in exps, exps)


@dataclass(frozen=True)
class NilExtensionOutcome:
    found: bool
    ideal: Mask | None
    reason: str | None  # "kernel-not-nil" | "type-fails" when not found
    exponents: tuple[int | None, ...] | None


def nil_extension_of_type(
    S: OrderedSemigroup, tau: Callable[[OrderedSemigroup], bool]
) -> NilExtensionOutcome:
    """Test the kernel as the nil-extension ideal of type tau.

    The kernel is the only candidate whenever tau implies one-sided or
    two-sided simplicity (any nil ideal of such a type must equal the
    kernel); the test suite cross-checks this shortcut against the
    exhaustive scan at small orders.
    """
    K = kernel(S)
    ne = is_nil_extension(S, K)
    if not ne.ok:
        return NilExtensionOutcome(False, None, "kernel-not-nil", ne.exponents)
    if not tau(restrict(S, K).structure):
        return NilExtensionOutcome(False, None, "type-fails", ne.exponents)
    return NilExtensionOutcome(True, K, None, ne.exponents)


def nil_extension_ideal_exists(
    S: OrderedSemigroup, tau: Callable[[OrderedSemigroup], bool]
) -> Mask | None:
    """Smallest ideal K with S a nil-extension of K and tau(K), if any.

    Exhaustive over all ideals, so capped at order 6.  Needed for types
    without a simplicity component, where the kernel shortcut is wrong.
    """
    _check_order(S.n)
    for K in all_ideals(S):
        if is_nil_extension(S, K).ok and tau(restrict(S, K).structure):
            return K
    return None


# ---------------------------------------------------------------------------
# semilattice-of-type decisions


@dataclass(frozen=True)
class CslResult:
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
