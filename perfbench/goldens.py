"""Golden outputs of the workloads, and the script that takes them.

The files under ``golden/`` were taken with this script from the program
as it stood when the benchmark was defined.  Every later run is gated on
them, so a change that alters any output fails the gate:

    PYTHONPATH=src python3 perfbench/goldens.py o4   # about 6 min, 1 core
    PYTHONPATH=src python3 perfbench/goldens.py o5   # about 20 min, 1 core

``o4`` walks the whole raw order-4 stream one first row at a time (the
partition ``verify --jobs`` uses) and records, per row, the raw stream's
size and digest, the search matches, and the iso stream's size, digest,
distinct tables and orbit sum; for every raw structure it records the
catalog signature (see ``oracle.catalog_signature``).  It checks the
published totals before writing anything.  ``o5`` records per first row
the order-5 table and structure counts and the raw stream's digest.
"""

from __future__ import annotations

import base64
import json
import os
import sys
import zlib
from array import array
from itertools import product

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

SEARCH_EXPR = "right-pi-inverse & !pi-inverse"

#: totals over the whole order-4 stream, checked when the goldens are taken
O4_STRUCTURES = 107688
O4_TABLES = 3492
O4_SEARCH_MATCHES = 24501
O4_ISO_STRUCTURES = 4753
O4_ISO_TABLES = 188  # OEIS A001423 at n = 4


def row_key(row) -> str:
    return "".join(str(v) for v in row)


def load(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def catalog_signatures(golden: dict) -> tuple[list[str], array]:
    """(distinct signatures, index into them per raw stream position)."""
    cat = golden["catalog"]
    idx = array("H")
    idx.frombytes(zlib.decompress(base64.b64decode(cat["index"])))
    return cat["signatures"], idx


def _write(name: str, obj: dict) -> None:
    path = os.path.join(GOLDEN_DIR, name + ".json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    os.replace(path + ".tmp", path)


def make_o4() -> dict:
    from oseg import theorems
    from oseg.core import canonical_json
    from oseg.enumeration import enumerate_ordered_semigroups, enumerate_tables
    from oseg.properties import evaluate, parse_property_expr

    expr = parse_property_expr(SEARCH_EXPR)
    ids = theorems.theorem_ids()
    rows = {}
    signatures: dict[str, int] = {}
    index = array("H")
    checked = dict.fromkeys(ids, 0)
    skipped = dict.fromkeys(ids, 0)
    cex = dict.fromkeys(ids, 0)
    for row in product(range(4), repeat=4):
        raw = list(enumerate_ordered_semigroups(4, first_row=row))
        if not raw:
            continue
        raw_digest = oracle.digest()
        matches = 0
        for S in raw:
            raw_digest.update(canonical_json(S).encode() + b"\n")
            matches += evaluate(S, expr)
            reports = []
            for tid in ids:
                if theorems.precondition_unmet(S, tid) is not None:
                    skipped[tid] += 1
                    reports.append(None)
                    continue
                rep = theorems.check(S, tid)
                checked[tid] += 1
                cex[tid] += not rep.consistent
                reports.append(rep)
            sig = oracle.catalog_signature(reports)
            index.append(signatures.setdefault(sig, len(signatures)))
        iso = list(enumerate_ordered_semigroups(4, dedup="iso", first_row=row))
        iso_digest = oracle.digest()
        for S in iso:
            iso_digest.update(canonical_json(S).encode() + b"\n")
        rows[row_key(row)] = {
            "tables": sum(1 for _ in enumerate_tables(4, first_row=row)),
            "structures": len(raw),
            "digest": raw_digest.hexdigest(),
            "search_matches": matches,
            "iso_structures": len(iso),
            "iso_tables": len({S.table for S in iso}),
            "iso_orbit_sum": sum(oracle.relabeling_facts(S)[0] for S in iso),
            "iso_digest": iso_digest.hexdigest(),
        }
        print(row_key(row), rows[row_key(row)]["structures"], file=sys.stderr, flush=True)
    totals = {
        k: sum(r[k] for r in rows.values())
        for k in (
            "tables", "structures", "search_matches", "iso_structures", "iso_tables", "iso_orbit_sum"
        )
    }
    published = {
        "tables": O4_TABLES,
        "structures": O4_STRUCTURES,
        "search_matches": O4_SEARCH_MATCHES,
        "iso_structures": O4_ISO_STRUCTURES,
        "iso_tables": O4_ISO_TABLES,  # a canonical table's first row is its own
        "iso_orbit_sum": O4_STRUCTURES,  # orbit-stabilizer
    }
    if totals != published or len(index) != O4_STRUCTURES:
        raise RuntimeError(f"order-4 totals {totals} differ from the published {published}")
    return {
        "rows": rows,
        "catalog": {
            "ids": ids,
            "signatures": list(signatures),
            "index": base64.b64encode(zlib.compress(index.tobytes(), 9)).decode(),
            "checked": checked,
            "skipped": skipped,
            "counterexamples": cex,
        },
    }


def make_o5() -> dict:
    from oseg.core import canonical_json
    from oseg.enumeration import enumerate_ordered_semigroups, enumerate_tables

    rows = {}
    for row in product(range(5), repeat=5):
        tables = sum(1 for _ in enumerate_tables(5, first_row=row))
        if not tables:
            continue
        d = oracle.digest()
        count = 0
        for S in enumerate_ordered_semigroups(5, first_row=row):
            d.update(canonical_json(S).encode() + b"\n")
            count += 1
        rows[row_key(row)] = {"tables": tables, "structures": count, "digest": d.hexdigest()}
        print(row_key(row), tables, count, file=sys.stderr, flush=True)
    return {"rows": rows}


if __name__ == "__main__":
    which = sys.argv[1:] or ["o4", "o5"]
    for name in which:
        _write(name, {"o4": make_o4, "o5": make_o5}[name]())
