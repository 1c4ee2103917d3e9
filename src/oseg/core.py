"""Finite ordered semigroups and the subset primitives everything else uses.

An ordered semigroup is a set {0, ..., n-1} with an associative
multiplication table and a partial order that is compatible with
multiplication on both sides (a <= b implies xa <= xb and ax <= bx).

Subsets of elements are plain int bitmasks throughout this package:
bit i is set iff element i belongs to the subset.  On universes this
small (n <= 6 for everything the harness quantifies over) bitmasks make
the exhaustive decision procedures cheap and the code short.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable, Iterator, Sequence, Union

Mask = int


# ---------------------------------------------------------------------------
# bitmask subset helpers


def full_mask(n: int) -> Mask:
    return (1 << n) - 1


def mask_of(elements: Iterable[int]) -> Mask:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


#: the members of every mask below 1 << 6, which covers every scan capped at order 6
_MEMBERS = tuple(tuple(i for i in range(6) if m >> i & 1) for m in range(1 << 6))


def iter_mask(mask: Mask) -> Iterable[int]:
    """The members of mask, least first."""
    return _MEMBERS[mask] if mask < 64 else _iter_bits(mask)


def _iter_bits(mask: Mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: Mask) -> list[int]:
    return list(iter_mask(mask))


# ---------------------------------------------------------------------------
# axiom violations


@dataclass(frozen=True)
class NotAssociative:
    i: int
    j: int
    k: int

    def __str__(self) -> str:
        return f"not associative: (x{self.i}*x{self.j})*x{self.k} != x{self.i}*(x{self.j}*x{self.k})"


@dataclass(frozen=True)
class NotPartialOrder:
    axiom: str  # "reflexive" | "antisymmetric" | "transitive"
    i: int
    j: int
    k: int | None = None

    def __str__(self) -> str:
        triple = (self.i, self.j) if self.k is None else (self.i, self.j, self.k)
        return f"leq is not {self.axiom} at {triple}"


@dataclass(frozen=True)
class NotCompatible:
    a: int
    b: int
    x: int
    side: str  # "left": x*a vs x*b, "right": a*x vs b*x

    def __str__(self) -> str:
        if self.side == "left":
            return f"order not compatible: {self.a}<={self.b} but not {self.x}*{self.a} <= {self.x}*{self.b}"
        return f"order not compatible: {self.a}<={self.b} but not {self.a}*{self.x} <= {self.b}*{self.x}"


Violation = Union[NotAssociative, NotPartialOrder, NotCompatible]


class OrderTooLargeError(ValueError):
    """An exhaustive scan was asked for above the order it is capped at."""

    def __init__(self, scan: str, cap: int, n: int):
        self.cap = cap
        super().__init__(f"{scan} is capped at order {cap}, got {n}")


class StructureFormatError(ValueError):
    """A structure of the wrong shape: a bad order, table or leq, before any axiom."""


class InvalidStructureError(ValueError):
    """Raised by validate(); carries every violated axiom with a witness."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


# ---------------------------------------------------------------------------
# the structure


class OrderedSemigroup:
    """Immutable finite ordered semigroup.

    table[i][j] is the product i*j.  down[j] is the bitmask of the
    elements i with i <= j, so ``downset({a})`` is just ``down[a]``.
    Instances are hashable and safe to share between workers; the private
    cache holds what :func:`derived` functions computed and is dropped on
    pickling.

    Build instances through :func:`validate` (or the JSON loaders) unless
    the data is known valid by construction, as in the enumerator.
    """

    __slots__ = ("n", "table", "down", "_cache")

    def __init__(self, n: int, table: tuple[tuple[int, ...], ...], down: tuple[Mask, ...]):
        self.n = n
        self.table = table
        self.down = down
        self._cache: dict = {}

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def leq(self, i: int, j: int) -> bool:
        return self.down[j] >> i & 1 == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderedSemigroup)
            and self.table == other.table
            and self.down == other.down
        )

    def __hash__(self) -> int:
        return hash((self.table, self.down))

    def __repr__(self) -> str:
        return f"OrderedSemigroup(order={self.n}, table={self.table}, down={self.down})"

    def __getstate__(self):
        return (self.n, self.table, self.down)

    def __setstate__(self, state):
        self.n, self.table, self.down = state
        self._cache = {}


_MISSING = object()


def derived(f: Callable) -> Callable:
    """Memoize ``f(S, *args)`` in ``S._cache``; the only user of that cache.

    The key is ``f`` itself when f is called with S alone, and
    ``(f, *args)`` otherwise.  Arguments are passed positionally.
    """

    @wraps(f)
    def get(S: OrderedSemigroup, *args):
        cache = S._cache
        key = (f, *args) if args else f
        value = cache.get(key, _MISSING)
        if value is _MISSING:  # cheaper than catching a KeyError on a first call
            value = cache[key] = f(S, *args)
        return value

    return get


# ---------------------------------------------------------------------------
# validation


def _check_shape(order: int, table: Sequence[Sequence[int]], leq: Sequence[Sequence[bool]]) -> None:
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise StructureFormatError(f"order must be a positive integer, got {order!r}")
    if len(table) != order or any(len(row) != order for row in table):
        raise StructureFormatError(f"table must be {order}x{order}")
    for row in table:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise StructureFormatError(f"table entry {v!r} out of range [0,{order})")
    if len(leq) != order or any(len(row) != order for row in leq):
        raise StructureFormatError(f"leq must be {order}x{order}")


def axiom_violations(
    order: int, table: Sequence[Sequence[int]], leq: Sequence[Sequence[bool]]
) -> list[Violation]:
    """Every violated axiom (associativity, partial order, compatibility).

    Shapes and index ranges must already be valid; see :func:`validate`.
    """
    n = order
    rng = range(n)
    out: list[Violation] = []
    for i in rng:
        for j in rng:
            ij = table[i][j]
            for k in rng:
                if table[ij][k] != table[i][table[j][k]]:
                    out.append(NotAssociative(i, j, k))
    for i in rng:
        if not leq[i][i]:
            out.append(NotPartialOrder("reflexive", i, i))
    for i in rng:
        for j in rng:
            if i != j and leq[i][j] and leq[j][i]:
                if i < j:  # report each bad pair once
                    out.append(NotPartialOrder("antisymmetric", i, j))
            if leq[i][j]:
                for k in rng:
                    if leq[j][k] and not leq[i][k]:
                        out.append(NotPartialOrder("transitive", i, j, k))
    for a in rng:
        for b in rng:
            if not leq[a][b]:
                continue
            for x in rng:
                if not leq[table[x][a]][table[x][b]]:
                    out.append(NotCompatible(a, b, x, "left"))
                if not leq[table[a][x]][table[b][x]]:
                    out.append(NotCompatible(a, b, x, "right"))
    return out


def validate(
    order: int, table: Sequence[Sequence[int]], leq: Sequence[Sequence[bool]]
) -> OrderedSemigroup:
    """Check the shape, then every axiom, and return the structure.

    A bad shape raises StructureFormatError; violated axioms raise
    InvalidStructureError with every violation.
    """
    _check_shape(order, table, leq)
    violations = axiom_violations(order, table, leq)
    if violations:
        raise InvalidStructureError(violations)
    down = tuple(mask_of(i for i in range(order) if leq[i][j]) for j in range(order))
    return OrderedSemigroup(order, tuple(tuple(row) for row in table), down)


# ---------------------------------------------------------------------------
# subset operations


def downset(S: OrderedSemigroup, mask: Mask) -> Mask:
    """(A]: everything below some member of A.  A closure operator."""
    out = 0
    for a in iter_mask(mask):
        out |= S.down[a]
    return out


def subset_product(S: OrderedSemigroup, amask: Mask, bmask: Mask) -> Mask:
    """{a*b : a in A, b in B} as a bitmask."""
    table = S.table
    out = 0
    for a in iter_mask(amask):
        row = table[a]
        for b in iter_mask(bmask):
            out |= 1 << row[b]
    return out


def power(S: OrderedSemigroup, a: int, m: int) -> int:
    """a^m for m >= 1."""
    if m < 1:
        raise ValueError(f"exponent must be >= 1, got {m}")
    x = a
    table = S.table
    for _ in range(m - 1):
        x = table[x][a]
    return x


@derived
def _powers(S: OrderedSemigroup) -> tuple[tuple[int, ...], ...]:
    """powers[a][m-1] = a^m for m in 1..n.  Every distinct power occurs here."""
    n, table = S.n, S.table
    rows = []
    for a in range(n):
        vals = [a]
        x = a
        for _ in range(n - 1):
            x = table[x][a]
            vals.append(x)
        rows.append(tuple(vals))
    return tuple(rows)


def _least_power_in(S: OrderedSemigroup, mask: Mask) -> tuple[int | None, ...]:
    """Per element a, the least m in 1..n with a^m in mask, or None."""
    out: list[int | None] = []
    for powers in _powers(S):
        w = None
        for m, p in enumerate(powers, start=1):
            if mask >> p & 1:
                w = m
                break
        out.append(w)
    return tuple(out)


@derived
def _power_masks(S: OrderedSemigroup) -> tuple[Mask, ...]:
    """power_masks[a] = bitmask of all distinct powers of a."""
    return tuple(mask_of(row) for row in _powers(S))


@derived
def _closed_products(S: OrderedSemigroup, flavor: str) -> tuple[Mask, ...]:
    """(Sa], (aS], (aSa] or (SaS] of each element a, for the flavor "l",
    "r", "t" or "two-sided"; the one place these sets are built.

    "l" and "r" come from the table.  Compatibility of the order gives
    (aSa] = ((aS]a] and (SaS] = ((Sa]S], so "t" and "two-sided" are built
    on the closed "r" and "l" vectors.
    """
    n, table = S.n, S.table
    products = [0] * n
    if flavor == "l":
        products = [mask_of(column) for column in zip(*table)]
    elif flavor == "r":
        products = [mask_of(row) for row in table]
    elif flavor == "t":
        for a, us in enumerate(_closed_products(S, "r")):
            for u in iter_mask(us):
                products[a] |= 1 << table[u][a]
    elif flavor == "two-sided":
        rows = [mask_of(row) for row in table]
        for a, us in enumerate(_closed_products(S, "l")):
            for u in iter_mask(us):
                products[a] |= rows[u]
    else:
        raise ValueError(f"unknown Archimedean flavor {flavor!r}")
    return tuple(downset(S, m) for m in products)


# ---------------------------------------------------------------------------
# canonical JSON wire format
#
# {"order": n, "table": [[...], ...], "leq": [[i, j], ...]}
#
# leq lists every pair i <= j, reflexive pairs included, sorted
# lexicographically.  canonical_json() is the bit-exact serialization
# (compact separators, keys in the order above).


def leq_pairs(S: OrderedSemigroup) -> list[list[int]]:
    n = S.n
    return [[i, j] for i in range(n) for j in range(n) if S.down[j] >> i & 1]


def to_json_dict(S: OrderedSemigroup) -> dict:
    return {"order": S.n, "table": [list(row) for row in S.table], "leq": leq_pairs(S)}


def canonical_json(S: OrderedSemigroup) -> str:
    return json.dumps(to_json_dict(S), separators=(",", ":"))


def from_json_dict(obj: object) -> OrderedSemigroup:
    """Parse and validate the wire format.

    Malformed JSON and every shape error :func:`validate` finds raise
    StructureFormatError before any axiom is checked; axiom violations
    then raise InvalidStructureError.
    """
    if not isinstance(obj, dict):
        raise StructureFormatError("top level must be a JSON object")
    try:
        order = obj["order"]
        table = obj["table"]
        pairs = obj["leq"]
    except KeyError as e:
        raise StructureFormatError(f"missing key {e.args[0]!r}") from None
    if not isinstance(order, int) or isinstance(order, bool):  # bounds the leq pairs
        raise StructureFormatError(f"order must be a positive integer, got {order!r}")
    if not isinstance(table, list) or any(not isinstance(row, list) for row in table):
        raise StructureFormatError("table must be a list of rows")
    if not isinstance(pairs, list):
        raise StructureFormatError("leq must be a list of [i, j] pairs")
    below = set()
    for p in pairs:
        if (
            not isinstance(p, list)
            or len(p) != 2
            or any(not isinstance(v, int) or isinstance(v, bool) for v in p)
        ):
            raise StructureFormatError(f"leq entry {p!r} is not an [i, j] pair")
        i, j = p
        if not (0 <= i < order and 0 <= j < order):
            raise StructureFormatError(f"leq pair {p!r} out of range [0,{order})")
        below.add((i, j))
    # shaped like the table, so a huge order allocates nothing before validate
    leq = [[(i, j) in below for j in range(len(row))] for i, row in enumerate(table)]
    return validate(order, table, leq)


def parse_structure(text: str) -> OrderedSemigroup:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: also numbers too long to convert
        raise StructureFormatError(f"not valid JSON: {e}") from None
    return from_json_dict(obj)


def load_structure(path: str) -> OrderedSemigroup:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_structure(fh.read())
        except UnicodeDecodeError as e:
            raise StructureFormatError(f"not valid UTF-8: {e}") from None
