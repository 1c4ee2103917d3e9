"""Exhaustive generation of all finite ordered semigroups of a given order.

Tables are generated cell by cell in row-major order with incremental
associativity pruning; every completed triple is checked the moment its
last table entry appears.  Compatible partial orders then extend the
discrete order pair by pair with transitivity and compatibility
propagation, each order emitted exactly once.

The combined stream is resumable: a cursor records the last emitted
table, how many of its orders were already consumed, and the emission
count.  Checkpoint files serialize the cursor as JSON with the keys
order, dedup, prefix-stack, emitted, where prefix-stack is null or
{"table": [flat cells], "orders_done": k}, and the optional out-bytes,
the length of the output file that holds exactly the emitted structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Iterator, Sequence

from .core import Mask, OrderedSemigroup, OrderTooLargeError, iter_mask

MAX_ENUM_ORDER = 5

DEDUP_MODES = ("raw", "iso")


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ENUM_ORDER:
        raise OrderTooLargeError("enumeration", MAX_ENUM_ORDER, n)


# ---------------------------------------------------------------------------
# associative tables


def _assoc_ok(t: list[list[int]], n: int, a: int, b: int) -> bool:
    """Associativity of every triple completed by assigning cell (a, b).

    A triple (x, y, z) needs the four lookups (x,y), (y,z), (xy,z), and
    (x,yz); it is checked here iff (a, b) is one of them and the other
    three are already assigned.  Unassigned cells hold -1.
    """
    v = t[a][b]
    row_a, row_b, row_v = t[a], t[b], t[v]
    # (x, y) = (a, b): compare t[v][z] with t[a][t[b][z]]
    for z in range(n):
        q = row_b[z]
        if q >= 0:
            left, right = row_v[z], row_a[q]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (y, z) = (a, b): compare t[t[x][a]][b] with t[x][v]
    for x in range(n):
        p = t[x][a]
        if p >= 0:
            left, right = t[p][b], t[x][v]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (xy, z) = (a, b): t[x][y] = a, z = b; the left side is v
    for x in range(n):
        tx = t[x]
        for y in range(n):
            if tx[y] == a:
                q = t[y][b]
                if q >= 0:
                    right = tx[q]
                    if right >= 0 and right != v:
                        return False
    # (x, yz) = (a, b): t[y][z] = b, x = a; the right side is v
    for y in range(n):
        ty = t[y]
        for z in range(n):
            if ty[z] == b:
                p2 = row_a[y]
                if p2 >= 0:
                    left = t[p2][z]
                    if left >= 0 and left != v:
                        return False
    return True


def enumerate_tables(
    n: int,
    first_row: Sequence[int] | None = None,
    resume_table: Sequence[int] | None = None,
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All associative n x n tables, in lexicographic order of flat cells.

    first_row pins row 0 (used to partition the search across workers).
    resume_table makes the stream start at that flat table (inclusive),
    skipping everything lexicographically below it.
    """
    _check_order(n)
    t = [[-1] * n for _ in range(n)]
    cells = [(i, j) for i in range(n) for j in range(n)]

    if first_row is not None:
        if len(first_row) != n or any(not 0 <= v < n for v in first_row):
            raise ValueError(f"first_row must be {n} values in [0,{n})")

    def rec(pos: int, tight: bool) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == n * n:
            yield tuple(tuple(row) for row in t)
            return
        a, b = cells[pos]
        lo = 0
        if tight and resume_table is not None:
            lo = resume_table[pos]
        if a == 0 and first_row is not None:
            values = [first_row[b]] if first_row[b] >= lo else []
        else:
            values = range(lo, n)
        for v in values:
            t[a][b] = v
            if _assoc_ok(t, n, a, b):
                yield from rec(pos + 1, tight and v == lo)
            t[a][b] = -1

    yield from rec(0, resume_table is not None)


# ---------------------------------------------------------------------------
# compatible partial orders


def _close_over(
    table: Sequence[Sequence[int]],
    n: int,
    down: list[Mask],
    up: list[Mask],
    forbidden: Mask,
    i0: int,
    j0: int,
) -> bool:
    """Add i0 <= j0 and close under transitivity and compatibility.

    down/up are updated in place; returns False on contradiction
    (antisymmetry break or a pair that was already excluded).
    """
    queue = [(i0, j0)]
    while queue:
        i, j = queue.pop()
        if i == j or down[j] >> i & 1:
            continue
        if down[i] >> j & 1:  # j <= i already: antisymmetry
            return False
        if forbidden >> (i * n + j) & 1:
            return False
        down[j] |= 1 << i
        up[i] |= 1 << j
        for k in iter_mask(up[j]):
            queue.append((i, k))
        for k in iter_mask(down[i]):
            queue.append((k, j))
        for x in range(n):
            queue.append((table[x][i], table[x][j]))
            queue.append((table[i][x], table[j][x]))
    return True


def enumerate_compatible_orders(table: Sequence[Sequence[int]]) -> Iterator[tuple[Mask, ...]]:
    """Every partial order compatible with the table, as down-mask tuples.

    down[j] is the mask of i with i <= j.  The discrete order comes
    first; each order is emitted exactly once (the branch decisions are
    determined by the order itself).
    """
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    def rec(idx: int, down: list[Mask], up: list[Mask], forbidden: Mask):
        while idx < len(pairs) and down[pairs[idx][1]] >> pairs[idx][0] & 1:
            idx += 1  # already forced in by an earlier closure
        if idx == len(pairs):
            yield tuple(down)
            return
        i, j = pairs[idx]
        yield from rec(idx + 1, down, up, forbidden | 1 << (i * n + j))
        down2, up2 = down.copy(), up.copy()
        if _close_over(table, n, down2, up2, forbidden, i, j):
            yield from rec(idx + 1, down2, up2, forbidden)

    yield from rec(0, [1 << i for i in range(n)], [1 << i for i in range(n)], 0)


# ---------------------------------------------------------------------------
# canonical forms


@cache
def _renamings(n: int) -> list[tuple[tuple[int, ...], list[int], list[int]]]:
    """(q, p, cells) per renaming, the identity first: q[a] is the old name of
    a, p is q's inverse, and relabeled flat cell k is p[flat[cells[k]]]."""
    out = []
    for q in permutations(range(n)):
        p = sorted(range(n), key=q.__getitem__)
        out.append((q, p, [x * n + y for x in q for y in q]))
    return out


def _least_relabelings(table) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(least flat relabeling of the table, every renaming q reaching it),
    each candidate dropped at its first cell above the least so far.  For a
    table that is its own least relabeling the q are Aut(table), identity first."""
    flat = [v for row in table for v in row]
    least = tuple(flat)
    reach: list[tuple[int, ...]] = []
    for q, p, cells in _renamings(len(table)):
        for k, i in enumerate(cells):
            v = p[flat[i]]
            if v != least[k]:
                break
        else:
            reach.append(q)
            continue
        if v < least[k]:
            least = tuple(p[flat[i]] for i in cells)
            reach = [q]
    return least, reach


def _renamed_down(down: Sequence[Mask], q: Sequence[int]) -> tuple[Mask, ...]:
    """Down masks after renaming q: new a <= new b iff q[a] <= q[b]."""
    return tuple(sum((down[y] >> x & 1) << a for a, x in enumerate(q)) for y in q)


def canonical_form(S: OrderedSemigroup) -> OrderedSemigroup:
    """The least relabeling of S under (flat table, down masks), shared by
    isomorphic structures: the least table, then its least down masks."""
    n = S.n
    flat, renamings = _least_relabelings(S.table)
    down = min(_renamed_down(S.down, q) for q in renamings)
    return OrderedSemigroup(n, tuple(flat[i * n : (i + 1) * n] for i in range(n)), down)


def is_canonical(S: OrderedSemigroup) -> bool:
    return canonical_form(S) == S


# ---------------------------------------------------------------------------
# the combined resumable stream


@dataclass(frozen=True)
class EnumerationCursor:
    order: int
    dedup: str
    table: tuple[int, ...] | None  # flat cells of the last emitted table
    orders_done: int  # orders consumed for that table at emission time
    emitted: int
    out_bytes: int | None = None  # output file length at this cursor, if known

    def to_json_dict(self) -> dict:
        prefix = None
        if self.table is not None:
            prefix = {"table": list(self.table), "orders_done": self.orders_done}
        obj = {
            "order": self.order,
            "dedup": self.dedup,
            "prefix-stack": prefix,
            "emitted": self.emitted,
        }
        if self.out_bytes is not None:
            obj["out-bytes"] = self.out_bytes
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "EnumerationCursor":
        """Parse a checkpoint; ValueError unless it is well typed, within
        the order cap, and holds an associative table of that order with
        orders_done within its number of compatible orders.  out-bytes may
        be absent (older checkpoints), else it is an integer >= 0."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("checkpoint is nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("checkpoint must be a JSON object")
        try:
            order, dedup, prefix, emitted = (
                obj[k] for k in ("order", "dedup", "prefix-stack", "emitted")
            )
        except KeyError as e:
            raise ValueError(f"missing key {e.args[0]!r}") from None
        if type(order) is not int:
            raise ValueError(f"order must be an integer, got {order!r}")
        _check_order(order)
        if dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {dedup!r}")
        if type(emitted) is not int or emitted < 0:
            raise ValueError(f"emitted must be an integer >= 0, got {emitted!r}")
        out_bytes = obj.get("out-bytes")
        if "out-bytes" in obj and (type(out_bytes) is not int or out_bytes < 0):
            raise ValueError(f"out-bytes must be an integer >= 0, got {out_bytes!r}")
        if prefix is None:
            return EnumerationCursor(order, dedup, None, 0, emitted, out_bytes)
        if not isinstance(prefix, dict) or not {"table", "orders_done"} <= prefix.keys():
            raise ValueError('prefix-stack must be null or {"table": [...], "orders_done": k}')
        n, table, orders_done = order, prefix["table"], prefix["orders_done"]
        if not isinstance(table, list) or len(table) != n * n or any(
            type(v) is not int or not 0 <= v < n for v in table
        ):
            raise ValueError(f"prefix-stack table must be {n * n} cells in [0,{n})")
        t = [table[i * n : (i + 1) * n] for i in range(n)]
        rng = range(n)
        if any(t[t[i][j]][k] != t[i][t[j][k]] for i in rng for j in rng for k in rng):
            raise ValueError("prefix-stack table is not associative")
        if type(orders_done) is not int or orders_done < 1:
            raise ValueError(f"orders_done must be an integer >= 1, got {orders_done!r}")
        total = sum(1 for _ in enumerate_compatible_orders(t))
        if orders_done > total:
            raise ValueError(
                f"orders_done {orders_done} exceeds the {total} compatible orders of its table"
            )
        return EnumerationCursor(order, dedup, tuple(table), orders_done, emitted, out_bytes)


class StructureStream:
    """Iterator over ordered semigroups with a resumable cursor."""

    def __init__(
        self,
        n: int,
        dedup: str = "raw",
        cursor: EnumerationCursor | None = None,
        first_row: Sequence[int] | None = None,
    ):
        _check_order(n)
        if dedup not in DEDUP_MODES:
            raise ValueError(f"dedup must be one of {DEDUP_MODES}")
        if cursor is None:
            cursor = EnumerationCursor(n, dedup, None, 0, 0)
        elif cursor.order != n or cursor.dedup != dedup:
            raise ValueError("cursor does not match this enumeration")
        self.n = n
        self.dedup = dedup
        self._table, self._orders_done = cursor.table, cursor.orders_done
        self._emitted = cursor.emitted
        self._gen = self._run(cursor, first_row)

    @property
    def cursor(self) -> EnumerationCursor:
        return EnumerationCursor(
            self.n, self.dedup, self._table, self._orders_done, self._emitted
        )

    def _run(self, cursor: EnumerationCursor, first_row) -> Iterator[OrderedSemigroup]:
        n = self.n
        resume_table, skip_orders = cursor.table, cursor.orders_done
        for table in enumerate_tables(n, first_row=first_row, resume_table=resume_table):
            flat = tuple(v for row in table for v in row)
            resuming_here = resume_table is not None and flat == tuple(resume_table)
            resume_table = None
            automorphisms: list = []
            if self.dedup == "iso":  # a least table, then down masks least under Aut(table)
                least, automorphisms = _least_relabelings(table)
                if least != flat:
                    continue
                del automorphisms[0]  # the identity
            consumed = 0
            for down in enumerate_compatible_orders(table):
                consumed += 1
                if resuming_here and consumed <= skip_orders:
                    continue
                if automorphisms and any(_renamed_down(down, q) < down for q in automorphisms):
                    continue
                S = OrderedSemigroup(n, table, down)
                self._table = flat
                self._orders_done = consumed
                self._emitted += 1
                yield S

    def __iter__(self) -> "StructureStream":
        return self

    def __next__(self) -> OrderedSemigroup:
        return next(self._gen)


def enumerate_ordered_semigroups(
    n: int,
    dedup: str = "raw",
    cursor: EnumerationCursor | None = None,
    first_row: Sequence[int] | None = None,
) -> StructureStream:
    """All ordered semigroups of order n (raw, or only canonical forms)."""
    return StructureStream(n, dedup=dedup, cursor=cursor, first_row=first_row)
