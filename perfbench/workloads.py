"""The four workloads: inputs from a seed, the timed section, the gate.

Each workload drives the program's public calls the way the matching
CLI command does; the classes below say which inputs and why:

* ``catalog-o4``: ``verify --order 4 --all`` on a sample of the raw
  order-4 stream.  Per structure and entry: ``precondition_unmet``, then
  ``check``, then the report serialisation ``verify`` does on a mismatch.
* ``search-o4``: ``search --order 4 --where EXPR --count`` on order-4
  first-row partitions.
* ``enum-o4-iso``: ``enumerate --order 4 --dedup iso`` on order-4
  first-row partitions; each emitted structure is serialised.
* ``enum-o5-raw``: ``enumerate --order 5`` on order-5 first-row
  partitions; each emitted structure is serialised.

First-row partitions are what ``verify --jobs`` hands its workers.

The traced pass replays ``StructureStream``'s composition of
``enumerate_tables``, ``enumerate_compatible_orders`` and
``is_canonical`` one ``next()`` at a time under spans, so the time of
each enumeration layer is measured where it is spent.
"""

from __future__ import annotations

import json
import random
from itertools import permutations, product
from time import perf_counter_ns

import goldens
import oracle
from calibration import Pacer


class Outcome:
    """What one pass did: per-item times, per-row times, raised count, outputs.

    ``pace()`` goes between items: untraced, it times the calibration
    kernel now and then (see ``calibration``); traced, it does nothing.
    """

    def __init__(self, traced: bool):
        self.item_ns: list[int] = []
        self.pacer = None if traced else Pacer(self.item_ns)
        self.pace = (lambda: None) if traced else self.pacer
        self.row_ns: dict[tuple, int] = {}
        self.attempted = 0
        self.failed = 0
        self.out: dict = {}


def relabeling_class(row: tuple) -> list[tuple]:
    """The first rows that ``row`` becomes under renamings fixing element 0.

    Renaming i -> p(i) with p(0) = 0 maps the structures whose first row
    is ``row`` one-to-one onto those whose first row is the image, so all
    rows of a class have isomorphic partitions: the same counts, but
    different tables, output bytes and enumeration order.
    """
    n = len(row)
    out = set()
    for rest in permutations(range(1, n)):
        p = (0,) + rest
        image = [0] * n
        for j in range(n):
            image[p[j]] = p[row[j]]
        out.add(tuple(image))
    return sorted(out)


def _rows_upto(rows: list[tuple], golden: dict, size: int) -> list[tuple]:
    """``rows`` in order, skipping each that would take the total past ``size``."""
    out, total = [], 0
    for row in rows:
        count = golden[goldens.row_key(row)]["structures"]
        if total + count <= size:
            out.append(row)
            total += count
    return out


# ---------------------------------------------------------------------------
# the enumeration stream, plain or replayed under spans


def _stream(n: int, dedup: str, row, tr):
    if tr is None:
        from oseg.enumeration import enumerate_ordered_semigroups

        return enumerate_ordered_semigroups(n, dedup=dedup, first_row=row)
    return _replay(n, dedup, row, tr)


def _replay(n, dedup, row, tr):
    """StructureStream's composition, with a span around every ``next()``."""
    from oseg.core import OrderedSemigroup
    from oseg.enumeration import enumerate_compatible_orders, enumerate_tables, is_canonical

    t_id = tr.name_id("enumeration.tables")
    o_id = tr.name_id("enumeration.orders")
    c_id = tr.name_id("enumeration.canonical")
    counts = tr.counts
    tables = enumerate_tables(n, first_row=row)
    while True:
        i = tr.begin(t_id)
        table = next(tables, None)
        tr.finish(i)
        if table is None:
            return
        counts["enumeration.tables.count"] += 1
        orders = enumerate_compatible_orders(table)
        while True:
            i = tr.begin(o_id)
            down = next(orders, None)
            tr.finish(i)
            if down is None:
                break
            counts["enumeration.orders.count"] += 1
            S = OrderedSemigroup(n, table, down)
            if dedup == "iso":
                i = tr.begin(c_id)
                keep = is_canonical(S)
                tr.finish(i)
                counts["enumeration.canonical.accepted"] += keep
                if not keep:
                    continue
            yield S


# ---------------------------------------------------------------------------
# catalog-o4


class CatalogO4:
    """A sample of the raw order-4 stream, stratified by golden verdicts.

    The stream's 107688 structures fall into 165 classes by their golden
    catalog signature (every entry's verdict and condition values).  The
    signature fixes the number of ideals and congruences the entries
    walk, so it largely fixes a structure's cost.  Each class gives the
    sample its proportional share (largest remainders round), drawn by
    the seed, so every seed checks the same mix of costs on different
    structures; a plain stratified-by-position sample spread the p95 by
    14% from seed to seed.  The corpus is built during set-up, so
    enumeration stays out of the timed section, and each structure is a
    fresh ``OrderedSemigroup`` whose derived data starts cold.
    """

    name = "catalog-o4"
    why = "the whole theorem catalog, as verify --all runs it, on a sample of the order-4 stream"
    size = 1000  # structures per pass

    def setup(self, seed: int, size: int, tr=None):
        from oseg import theorems

        _, index = goldens.catalog_signatures(goldens.load("o4"))
        by_signature: dict[int, list[int]] = {}
        for pos, sig in enumerate(index):
            by_signature.setdefault(sig, []).append(pos)
        classes = sorted(by_signature.items())
        total = len(index)
        quota = {sig: len(p) * size // total for sig, p in classes}
        short = size - sum(quota.values())
        for sig, _ in sorted(classes, key=lambda c: -(len(c[1]) * size % total))[:short]:
            quota[sig] += 1
        rng = random.Random(seed)
        picks = sorted(pos for sig, p in classes for pos in rng.sample(p, quota[sig]))

        corpus = []
        count = k = 0
        for pos, S in enumerate(_stream(4, "raw", None, tr)):
            count += 1
            if k < len(picks) and pos == picks[k]:
                corpus.append((pos, S))
                k += 1
        if count != total:
            raise RuntimeError(f"order-4 stream has {count} structures, expected {total}")
        return {"corpus": corpus, "ids": theorems.theorem_ids()}

    def run(self, inputs, tr=None) -> Outcome:
        from oseg import theorems
        from oseg.core import canonical_json

        ids = inputs["ids"]
        span_ids = [tr.name_id(f"theorems.{tid}") for tid in ids] if tr else None
        res = Outcome(traced=tr is not None)
        reports_by_pos = res.out["reports"] = []
        for pos, S in inputs["corpus"]:
            res.attempted += 1
            res.pace()
            t0 = perf_counter_ns()
            reports = []
            try:
                for k, tid in enumerate(ids):
                    sp = tr.begin(span_ids[k]) if tr else None
                    try:
                        if theorems.precondition_unmet(S, tid) is not None:
                            reports.append(None)
                            continue
                        rep = theorems.check(S, tid)
                        if not rep.consistent:
                            canonical_json(S)
                            json.dumps(rep.to_json_dict(), sort_keys=True)
                        reports.append(rep)
                    finally:
                        if tr:
                            tr.finish(sp)
            except Exception as e:  # noqa: BLE001 - a raising structure is a failed item
                res.failed += 1
                reports = e
            dt = perf_counter_ns() - t0
            res.item_ns.append(dt)
            row = S.table[0]
            res.row_ns[row] = res.row_ns.get(row, 0) + dt
            reports_by_pos.append((pos, reports))
        return res

    def check(self, inputs, res: Outcome) -> list[str]:
        from oseg import theorems

        golden = goldens.load("o4")
        signatures, index = goldens.catalog_signatures(golden)
        ids = inputs["ids"]
        errors = []
        if ids != golden["catalog"]["ids"]:
            errors.append(f"catalog ids changed: {ids}")
        if len(res.out["reports"]) != len(inputs["corpus"]):
            errors.append("not every sampled structure was checked")
        got, want = oracle.digest(), oracle.digest()
        checked = dict.fromkeys(ids, 0)
        skipped = dict.fromkeys(ids, 0)
        want_checked = dict.fromkeys(ids, 0)
        want_skipped = dict.fromkeys(ids, 0)
        for pos, reports in res.out["reports"]:
            if isinstance(reports, Exception):
                errors.append(f"structure {pos} raised {reports!r}")
                continue
            for tid, rep in zip(ids, reports):
                if rep is None:
                    skipped[tid] += 1
                    continue
                checked[tid] += 1
                if not rep.consistent and not theorems.is_adapted(tid):
                    errors.append(f"counterexample to {tid} at stream position {pos}")
            sig = oracle.catalog_signature(reports)
            gold = signatures[index[pos]]
            if sig != gold:
                errors.append(f"verdicts at stream position {pos}: {sig} != golden {gold}")
            got.update(sig.encode() + b"\n")
            want.update(gold.encode() + b"\n")
            for tid, part in zip(ids, gold.split("|")):
                if part == "-":
                    want_skipped[tid] += 1
                else:
                    want_checked[tid] += 1
        if checked != want_checked or skipped != want_skipped:
            errors.append(f"checked/skipped {checked}/{skipped} != golden {want_checked}/{want_skipped}")
        if got.hexdigest() != want.hexdigest():
            errors.append(f"verdict digest {got.hexdigest()} != golden {want.hexdigest()}")
        return errors


# ---------------------------------------------------------------------------
# search-o4


class SearchO4:
    """One seeded row from every relabeling class of order-4 first rows.

    Every class but that of (0, 0, 0, 0) is in: 38 rows, 25923 raw
    structures.  That class has no other member and alone holds 27078
    structures, so it would double the pass without adding a choice.
    Rows of one class hold the same counts, so every seed evaluates the
    same amount and mix of work on different structures.
    """

    name = "search-o4"
    why = "one property expression, evaluated lazily, over order-4 first-row partitions"
    size = goldens.O4_STRUCTURES  # raw structures per pass, at most
    expr = goldens.SEARCH_EXPR

    def setup(self, seed: int, size: int, tr=None):
        import oseg.enumeration  # noqa: F401 - imports belong to set-up
        from oseg.properties import parse_property_expr

        golden = goldens.load("o4")["rows"]
        rng = random.Random(seed)
        rows, seen = [], set()
        for row in product(range(4), repeat=4):
            if row in seen or row == (0, 0, 0, 0) or goldens.row_key(row) not in golden:
                continue
            members = relabeling_class(row)
            seen.update(members)
            rows.append(rng.choice(members))
        return {"rows": _rows_upto(rows, golden, size), "expr": parse_property_expr(self.expr)}

    def run(self, inputs, tr=None) -> Outcome:
        from oseg.properties import evaluate

        expr = inputs["expr"]
        res = Outcome(traced=tr is not None)
        counts = res.out["rows"] = {}
        for row in inputs["rows"]:
            r0 = perf_counter_ns()
            stream = _stream(4, "raw", row, tr)
            structures = matches = 0
            while True:
                res.pace()
                t0 = perf_counter_ns()
                S = next(stream, None)
                if S is None:
                    break
                res.attempted += 1
                try:
                    matches += evaluate(S, expr)
                except Exception:  # noqa: BLE001 - a raising structure is a failed item
                    res.failed += 1
                structures += 1
                res.item_ns.append(perf_counter_ns() - t0)
            res.row_ns[row] = perf_counter_ns() - r0
            counts[row] = (structures, matches)
        return res

    def check(self, inputs, res: Outcome) -> list[str]:
        rows = goldens.load("o4")["rows"]
        errors = []
        for row in inputs["rows"]:
            g = rows[goldens.row_key(row)]
            got = res.out["rows"].get(row)
            if got != (g["structures"], g["search_matches"]):
                errors.append(
                    f"row {row}: (structures, matches) {got}"
                    f" != golden {(g['structures'], g['search_matches'])}"
                )
        return errors


# ---------------------------------------------------------------------------
# enumeration workloads


class _Enumerate:
    order: int
    dedup: str

    def run(self, inputs, tr=None) -> Outcome:
        from oseg.core import canonical_json

        res = Outcome(traced=tr is not None)
        out = res.out["rows"] = {}
        for row in inputs["rows"]:
            r0 = perf_counter_ns()
            d = oracle.digest()
            emitted = []
            count = tables = 0
            last = None
            stream = _stream(self.order, self.dedup, row, tr)
            while True:
                res.pace()
                t0 = perf_counter_ns()
                S = next(stream, None)
                if S is None:
                    break
                d.update(canonical_json(S).encode() + b"\n")
                res.item_ns.append(perf_counter_ns() - t0)
                count += 1
                if S.table != last:  # each table's orders come out together
                    tables += 1
                    last = S.table
                if self.dedup == "iso":
                    emitted.append(S)
            res.attempted += count
            res.row_ns[row] = perf_counter_ns() - r0
            out[row] = {"count": count, "tables": tables, "digest": d.hexdigest(), "emitted": emitted}
        return res


class EnumO4Iso(_Enumerate):
    """The seven first rows that hold every order-4 canonical form.

    A canonical form's first row is the least over its relabelings, so
    only these rows emit anything: their 44874 raw structures (42% of the
    stream) all go through ``is_canonical`` and 4753 come out.  The pass
    therefore reproduces the whole ``--dedup iso`` output and the gate
    checks its published totals.  The seed does not change the inputs.
    """

    name = "enum-o4-iso"
    why = "canonical forms dominate: every raw order-4 structure tries all 24 relabelings"
    order, dedup = 4, "iso"
    size = goldens.O4_STRUCTURES  # raw structures in the chosen rows, at most

    def setup(self, seed: int, size: int, tr=None):
        import oseg.enumeration  # noqa: F401 - imports belong to set-up

        golden = goldens.load("o4")["rows"]
        emitting = [row for row in product(range(4), repeat=4)
                    if golden.get(goldens.row_key(row), {}).get("iso_structures")]
        emitting.sort(key=lambda row: golden[goldens.row_key(row)]["structures"])
        rows = sorted(_rows_upto(emitting, golden, size))
        return {"rows": rows, "golden": golden, "whole": len(rows) == len(emitting)}

    def check(self, inputs, res: Outcome) -> list[str]:
        golden = inputs["golden"]
        errors = []
        tables: set = set()
        classes = orbit_total = 0
        for row in inputs["rows"]:
            g = golden[goldens.row_key(row)]
            o = res.out["rows"].get(row)
            if o is None:
                errors.append(f"row {row} not enumerated")
                continue
            emitted = o["emitted"]
            if o["count"] != g["iso_structures"] or o["digest"] != g["iso_digest"]:
                errors.append(
                    f"row {row}: {o['count']} structures, digest {o['digest']}"
                    f" != golden {g['iso_structures']}, {g['iso_digest']}"
                )
            row_tables = {S.table for S in emitted}
            if len(row_tables) != g["iso_tables"]:
                errors.append(f"row {row}: distinct tables differ from golden {g['iso_tables']}")
            if len(set(emitted)) != len(emitted):
                errors.append(f"row {row}: a structure was emitted twice")
            orbit_sum = 0
            for S in emitted:
                orbit, least = oracle.relabeling_facts(S)
                orbit_sum += orbit
                if not least:
                    errors.append(f"row {row}: emitted a non-canonical structure {S!r}")
            if orbit_sum != g["iso_orbit_sum"]:
                errors.append(f"row {row}: orbit sum {orbit_sum} != golden {g['iso_orbit_sum']}")
            tables |= row_tables
            classes += len(emitted)
            orbit_total += orbit_sum
        if inputs["whole"]:
            got = (classes, len(tables), orbit_total)
            want = (goldens.O4_ISO_STRUCTURES, goldens.O4_ISO_TABLES, goldens.O4_STRUCTURES)
            if got != want:
                errors.append(f"(classes, tables, orbit sum) {got} != {want}")
        return errors


class EnumO5Raw(_Enumerate):
    """Every first row of two relabeling classes of order 5.

    The classes of (1, 2, 2, 2, 3) and (1, 1, 0, 1, 3): 48 rows, 78312
    raw structures, 936 tables; the first has about the stream's
    structures per table (134 against 124), the second is table-heavy
    (55).  Whole classes, because the backtracking cost of a partition
    depends on its labels: the four rows of the class of (0, 2, 2, 2, 2)
    took from 4.3 to 8.5 s, and one seeded row from each of 79 small
    classes ran at 3400 to 5000 structures/s depending on the seed.  The
    sum over a whole class does not depend on labels.  The seed does not
    change the inputs.
    """

    name = "enum-o5-raw"
    why = "table backtracking and compatible orders with no canonicalisation, at order 5"
    order, dedup = 5, "raw"
    size = 78312  # raw structures per pass, at most
    classes = ((1, 2, 2, 2, 3), (1, 1, 0, 1, 3))

    def setup(self, seed: int, size: int, tr=None):
        import oseg.enumeration  # noqa: F401 - imports belong to set-up

        golden = goldens.load("o5")["rows"]
        rows = sorted(r for c in self.classes for r in relabeling_class(c))
        return {"rows": _rows_upto(rows, golden, size), "golden": golden}

    def check(self, inputs, res: Outcome) -> list[str]:
        golden = inputs["golden"]
        errors = []
        for row in inputs["rows"]:
            g = golden[goldens.row_key(row)]
            o = res.out["rows"].get(row)
            got = None if o is None else (o["tables"], o["count"], o["digest"])
            if got != (g["tables"], g["structures"], g["digest"]):
                errors.append(
                    f"row {row}: (tables, structures, digest) {got}"
                    f" != golden {(g['tables'], g['structures'], g['digest'])}"
                )
        return errors


WORKLOADS = {w.name: w for w in (CatalogO4(), SearchO4(), EnumO4Iso(), EnumO5Raw())}
