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
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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


def _least_power_in(S: OrderedSemigroup, mask: Mask) -> tuple[int | None, ...]:
    """Per element a, the least m in 1..n with a^m in mask, or None."""
    out: list[int | None] = []
    for powers in one_sided(S).powers:
        w = None
        for m, p in enumerate(powers, start=1):
            if mask >> p & 1:
                w = m
                break
        out.append(w)
    return tuple(out)


def _with_power_in(power_masks: Sequence[Mask], mask: Mask) -> Mask:
    """The elements a with some power in mask, power_masks[a] holding a's powers."""
    return mask_of(a for a, powers in enumerate(power_masks) if powers & mask)


def _pairwise_related(rows: tuple[Mask, ...], subset: Mask) -> bool:
    """All pairs inside subset related (rows is an equivalence relation)."""
    if subset == 0:
        return True
    first = (subset & -subset).bit_length() - 1
    return subset & ~rows[first] == 0


def _rows_from_keys(keys) -> tuple[Mask, ...]:
    """The rows of the equivalence relation "same key"."""
    by_key: dict = {}
    for i, k in enumerate(keys):
        by_key[k] = by_key.get(k, 0) | (1 << i)
    return tuple(by_key[k] for k in keys)


class OneSided(NamedTuple):
    """What one-sided and pi-inverse questions read, built in one pass by
    :func:`one_sided`.

    Per element a: powers[a][m-1] = a^m for m in 1..n, where every
    distinct power occurs, and their mask; (Sa] and (aS]; the principal
    left and right ideals L(a) = (a u Sa] and R(a) = (a u aS]; a's rows
    of Green's L, R and H; and V(a), the ordered inverses b of a
    (a <= aba and b <= bab), nonempty iff a is regular.  Then, for each
    of L, R and H, the agree mask, the a with V(a) nonempty and pairwise
    related (R's is the rv set), and the pi mask, the elements with some
    power in the agree mask.
    """

    powers: tuple[tuple[int, ...], ...]
    power_masks: tuple[Mask, ...]
    sa: tuple[Mask, ...]
    as_: tuple[Mask, ...]
    left_ideal: tuple[Mask, ...]
    right_ideal: tuple[Mask, ...]
    l_rows: tuple[Mask, ...]
    r_rows: tuple[Mask, ...]
    h_rows: tuple[Mask, ...]
    inverses: tuple[Mask, ...]
    l_agree: Mask
    r_agree: Mask
    h_agree: Mask
    l_pi: Mask
    r_pi: Mask
    h_pi: Mask


@derived
def one_sided(S: OrderedSemigroup) -> OneSided:
    """The one-sided record of S, in one pass over the products a*b: each
    (a*b] joins (aS] and (Sb], and a ~ b under L (R) iff L(a) = L(b)
    (R(a) = R(b))."""
    n, table, down = S.n, S.table, S.down
    powers, power_masks, as_, inverses = [], [], [], []
    sa = [0] * n
    for a in range(n):
        x, pw = a, [a]
        for _ in range(n - 1):
            x = table[x][a]
            pw.append(x)
        powers.append(tuple(pw))
        power_masks.append(mask_of(pw))
        row = table[a]
        r = v = 0
        for b in range(n):
            ab = row[b]
            d = down[ab]
            r |= d
            sa[b] |= d
            if down[table[ab][a]] >> a & 1 and down[table[table[b][a]][b]] >> b & 1:
                v |= 1 << b
        as_.append(r)
        inverses.append(v)
    sa, as_ = tuple(sa), tuple(as_)
    left = tuple(d | m for d, m in zip(down, sa))
    right = tuple(d | m for d, m in zip(down, as_))
    l_rows, r_rows = _rows_from_keys(left), _rows_from_keys(right)
    h_rows = tuple(lr & rr for lr, rr in zip(l_rows, r_rows))
    l_agree = r_agree = 0
    for a, v in enumerate(inverses):
        if v:  # V(a) is pairwise related iff it lies in its least member's row
            first, bit = (v & -v).bit_length() - 1, 1 << a
            l_agree |= bit if v & ~l_rows[first] == 0 else 0
            r_agree |= bit if v & ~r_rows[first] == 0 else 0
    h_agree = l_agree & r_agree  # H = L n R, so V(a) is pairwise H-related iff it is both
    l_pi = r_pi = h_pi = 0
    for a, p in enumerate(power_masks):
        bit = 1 << a
        l_pi |= bit if p & l_agree else 0
        r_pi |= bit if p & r_agree else 0
        h_pi |= bit if p & h_agree else 0
    return OneSided(
        tuple(powers), tuple(power_masks), sa, as_, left, right, l_rows, r_rows, h_rows,
        tuple(inverses), l_agree, r_agree, h_agree, l_pi, r_pi, h_pi,
    )


class TwoSided(NamedTuple):
    """What only two-sided questions read, built in one pass by :func:`two_sided`.

    Per element a: (aSa] and (SaS], the principal two-sided ideal
    I(a) = (a u Sa u aS u SaS] and bi-ideal B(a) = (a u aSa], a's row of
    Green's J (I(a) = I(b)), and the value of a's first regular power
    (some power of every element of a finite structure is idempotent,
    hence regular).  Then the regular elements {a : a in (aSa]}, the
    kernel (the least two-sided ideal, the intersection of the principal
    ones, never empty) and the ordered idempotents {e : e <= e*e}.
    """

    asa: tuple[Mask, ...]
    sas: tuple[Mask, ...]
    ideal: tuple[Mask, ...]
    bi: tuple[Mask, ...]
    j_rows: tuple[Mask, ...]
    first_regular: tuple[int, ...]
    regular: Mask
    kernel: Mask
    idempotents: Mask


@derived
def two_sided(S: OrderedSemigroup) -> TwoSided:
    """The two-sided record of S.  Compatibility of the order gives
    (aSa] = ((aS]a], the union of (ua] over u in (aS], and
    (SaS] = ((Sa]S], the union of (uS] over u in (Sa], so both are built
    on the closed one-sided products of the one-sided record."""
    n, table, down = S.n, S.table, S.down
    one = one_sided(S)
    left, right = one.sa, one.as_
    asa, sas, ideal, bi = [], [], [], []
    regular = idempotents = 0
    kernel = full_mask(n)
    for a in range(n):
        x = y = 0
        for u in iter_mask(right[a]):
            x |= down[table[u][a]]
        for u in iter_mask(left[a]):
            y |= right[u]
        asa.append(x)
        sas.append(y)
        ideal.append(down[a] | left[a] | right[a] | y)
        bi.append(down[a] | x)
        kernel &= ideal[a]
        regular |= x & 1 << a
        idempotents |= down[table[a][a]] & 1 << a
    first_regular = tuple(next(p for p in ps if regular >> p & 1) for ps in one.powers)
    return TwoSided(
        tuple(asa), tuple(sas), tuple(ideal), tuple(bi), _rows_from_keys(ideal),
        first_regular, regular, kernel, idempotents,
    )


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
