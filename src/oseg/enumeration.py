"""Exhaustive generation of all finite ordered semigroups of a given order.

Tables are generated cell by cell in row-major order with incremental
associativity pruning; every completed triple is checked the moment its
last table entry appears.  A value index lists, per value v, the assigned
cells holding v, so when the new cell (a, b) is the outer lookup (xy, z)
or (x, yz) of a triple, the cells with xy = a or yz = b are read from the
index rather than found by scanning the table.  Under dedup "iso" a
prefix is also pruned once some renaming of the elements makes it
lexicographically smaller (lex-leader pruning), so only tables that are
their own least relabeling are built.  Compatible partial orders then extend the discrete order pair
by pair on one explicit stack, closing each added pair under
transitivity and compatibility; each order is emitted exactly once.

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

from .core import Mask, OrderedSemigroup, OrderTooLargeError, iter_mask, mask_of

MAX_ENUM_ORDER = 5

DEDUP_MODES = ("raw", "iso")


def _check_args(n: int, dedup: str) -> None:
    """ValueError unless 1 <= n and dedup is one of DEDUP_MODES;
    OrderTooLargeError for n above MAX_ENUM_ORDER."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    if n > MAX_ENUM_ORDER:
        raise OrderTooLargeError("enumeration", MAX_ENUM_ORDER, n)
    if dedup not in DEDUP_MODES:
        raise ValueError(f"dedup must be one of {DEDUP_MODES}, got {dedup!r}")


# ---------------------------------------------------------------------------
# associative tables


def _assoc_ok(
    t: list[list[int]], n: int, a: int, b: int, cells: list[list[tuple[int, int]]]
) -> bool:
    """Associativity of every triple completed by assigning cell (a, b).

    A triple (x, y, z) needs the four lookups (x,y), (y,z), (xy,z), and
    (x,yz); it is checked here iff (a, b) is one of them and the other
    three are already assigned.  Unassigned cells hold -1, and cells[v]
    lists the assigned cells holding v, (a, b) among them.
    """
    v = t[a][b]
    row_a, row_b, row_v = t[a], t[b], t[v]
    # (y, z) = (a, b), first as the role that fails most often:
    # compare t[t[x][a]][b] with t[x][v]
    for tx in t:
        p = tx[a]
        if p >= 0:
            left, right = t[p][b], tx[v]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (x, y) = (a, b): compare t[v][z] with t[a][t[b][z]]
    for z in range(n):
        q = row_b[z]
        if q >= 0:
            left, right = row_v[z], row_a[q]
            if left >= 0 and right >= 0 and left != right:
                return False
    # (xy, z) = (a, b): x·y = a, z = b; the left side is v
    for x, y in cells[a]:
        q = t[y][b]
        if q >= 0:
            right = t[x][q]
            if right >= 0 and right != v:
                return False
    # (x, yz) = (a, b): y·z = b, x = a; the right side is v
    for y, z in cells[b]:
        p = row_a[y]
        if p >= 0:
            left = t[p][z]
            if left >= 0 and left != v:
                return False
    return True


def enumerate_tables(
    n: int,
    first_row: Sequence[int] | None = None,
    resume_table: Sequence[int] | None = None,
    dedup: str = "raw",
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All associative n x n tables, in lexicographic order of flat cells;
    under dedup "iso" only those that are their own least relabeling.

    first_row pins row 0.
    resume_table makes the stream start at that flat table (inclusive),
    skipping everything lexicographically below it.

    Under "iso" each non-identity renaming carries the first flat index where
    its relabeling of the assigned prefix is undecided against the prefix
    (lex-leader pruning): one decided larger is dropped, one decided
    smaller prunes the subtree, as every completion has a smaller relabeling.
    """
    _check_args(n, dedup)
    t = [[-1] * n for _ in range(n)]
    flat = [-1] * (n * n)
    # the value index: cells[v] lists the assigned cells (x, y) with x·y = v
    cells: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    renamings = [(0, p, c) for _, p, c in _renamings(n)[1:]] if dedup == "iso" else []

    if first_row is not None:
        if len(first_row) != n or any(not 0 <= v < n for v in first_row):
            raise ValueError(f"first_row must be {n} values in [0,{n})")

    def undecided(pos: int, live: list) -> list | None:
        """The renamings still undecided once flat[pos] is set, or None if one makes it smaller."""
        out = []
        for k, p, c in live:
            while k <= pos and c[k] <= pos and p[flat[c[k]]] == flat[k]:
                k += 1
            if k > pos or c[k] > pos:
                out.append((k, p, c))
            elif p[flat[c[k]]] < flat[k]:
                return None
        return out

    def rec(pos: int, tight: bool, live: list) -> Iterator[tuple[tuple[int, ...], ...]]:
        if pos == n * n:
            yield tuple(tuple(row) for row in t)
            return
        a, b = divmod(pos, n)
        row = t[a]
        lo = resume_table[pos] if tight else 0
        if a == 0 and first_row is not None:
            values = [first_row[b]] if first_row[b] >= lo else []
        else:
            values = range(lo, n)
        for v in values:
            row[b] = flat[pos] = v
            holding = cells[v]
            holding.append((a, b))
            if _assoc_ok(t, n, a, b, cells):
                rest = undecided(pos, live) if live else live
                if rest is not None:
                    yield from rec(pos + 1, tight and v == lo, rest)
            holding.pop()
        row[b] = flat[pos] = -1

    yield from rec(0, resume_table is not None, renamings)


# ---------------------------------------------------------------------------
# compatible partial orders


@cache
def _image_masks(row: tuple[int, ...]) -> tuple[Mask, ...]:
    """Per mask m, the image of m under the map x -> row[x]: x·m for a table
    row x, m·x for a column, and m renamed for a renaming's inverse."""
    return tuple(mask_of(row[x] for x in iter_mask(m)) for m in range(1 << len(row)))


def enumerate_compatible_orders(table: Sequence[Sequence[int]]) -> Iterator[tuple[Mask, ...]]:
    """Every partial order compatible with the table, as down-mask tuples
    (down[j] is the mask of i with i <= j), the discrete order first.

    Each pair i != j not yet forced is excluded, then included with its
    closure: the walk follows the exclude chain to an emission and leaves
    the include branches on one stack, closed when popped.  The decisions
    are determined by the order, so each order is emitted once."""
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rows = [_image_masks(tuple(row)) for row in table]
    cols = [_image_masks(col) for col in zip(*table)]
    # targets[c]: each x·c and c·x with the image masks that carry c's down set there
    targets = [[(row[c], image) for row, image in zip(table, rows)]
               + [(y, image) for y, image in zip(table[c], cols)] for c in range(n)]

    def close(down: list[Mask], forbidden: Mask, i: int, j: int) -> bool:
        """Add i <= j to down in place, closed under transitivity and
        compatibility; False on a cycle or on a <= c that forbidden's bit
        c*n + a excludes.  Each step raises one down[c] by a mask and its
        members' down masks, and hands what it added to the elements above
        c and to c's products."""
        work = [(j, down[i])]
        while work:
            c, add = work.pop()
            old = down[c]
            new = add & ~old
            if not new:
                continue
            m = old | new
            while new:
                low = new & -new
                m |= down[low.bit_length() - 1]
                new ^= low
            if forbidden >> c * n & m:
                return False
            down[c] = m
            new = m ^ old
            for u in range(n):
                if u != c and down[u] >> c & 1:
                    if m >> u & 1 or forbidden >> u * n & new:
                        return False
                    work.append((u, new))
            for y, image in targets[c]:
                add = image[new]
                if add & ~down[y]:
                    if forbidden >> y * n & add:
                        return False
                    work.append((y, add))
        return True

    stack: list = [(0, [1 << i for i in range(n)], 0, -1, -1)]
    while stack:
        start, down, forbidden, i, j = stack.pop()
        if i >= 0:
            down = down.copy()
            if not close(down, forbidden, i, j):
                continue
        for k in range(start, len(pairs)):
            i, j = pairs[k]
            if down[j] >> i & 1:
                continue  # already forced in by an earlier closure
            if not (down[i] >> j & 1 or forbidden >> j * n & down[i]):  # else fails at once
                stack.append((k + 1, down, forbidden, i, j))
            forbidden |= 1 << (j * n + i)
        yield tuple(down)


# ---------------------------------------------------------------------------
# canonical forms


@cache
def _renamings(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
    """(q, p, cells) per renaming, the identity first: q[a] is the old name of
    a, p is q's inverse, and relabeled flat cell k is p[flat[cells[k]]]."""
    out = []
    for q in permutations(range(n)):
        p = tuple(sorted(range(n), key=q.__getitem__))
        out.append((q, p, tuple(x * n + y for x in q for y in q)))
    return tuple(out)


def _renamed_down(down: Sequence[Mask], q: Sequence[int], p: tuple[int, ...]) -> tuple[Mask, ...]:
    """Down masks after renaming q (inverse p): new down[b] is p's image of down[q[b]]."""
    image = _image_masks(p)
    return tuple(image[down[y]] for y in q)


def canonical_form(S: OrderedSemigroup) -> OrderedSemigroup:
    """The least relabeling of S under (flat table, down masks), shared by
    isomorphic structures: the least table, then the least down masks of
    the renamings that reach it."""
    n = S.n
    flat = [v for row in S.table for v in row]
    relabeled = [(tuple(p[flat[i]] for i in cells), q, p) for q, p, cells in _renamings(n)]
    least = min(t for t, _, _ in relabeled)
    down = min(_renamed_down(S.down, q, p) for t, q, p in relabeled if t == least)
    return OrderedSemigroup(n, tuple(least[i * n : (i + 1) * n] for i in range(n)), down)


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
        _check_args(order, dedup)
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
        _check_args(n, dedup)
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
        renamings = _renamings(n)[1:] if self.dedup == "iso" else []
        for table in enumerate_tables(n, first_row, resume_table, self.dedup):
            flat = tuple(v for row in table for v in row)
            resuming_here = resume_table is not None and flat == tuple(resume_table)
            resume_table = None
            # under iso the table is least; an order is kept unless an automorphism lowers it
            automorphisms = [(q, p) for q, p, cells in renamings
                             if all(p[flat[c]] == v for c, v in zip(cells, flat))]
            consumed = 0
            for down in enumerate_compatible_orders(table):
                consumed += 1
                if resuming_here and consumed <= skip_orders:
                    continue
                if automorphisms and any(_renamed_down(down, q, p) < down for q, p in automorphisms):
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
