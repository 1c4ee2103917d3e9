"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

Prints one JSON object: when set-up finished (``perf_counter``, the
clock ``run.py`` read just before starting this process), the speed
factor (see ``calibration``), the items' summed time at reference speed
and as measured, every item's time at reference speed, peak RSS,
per-first-row times, the gate's errors and, for a traced pass, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import goldens
from workloads import WORKLOADS

#: self times must add up to the traced wall time within this share
RECONCILE_TOLERANCE = 0.01

#: run records and spans; ignored by git
OUT_DIR = os.path.join(os.path.dirname(goldens.HERE), ".bench_out")


def catalog_ids() -> list[str]:
    """The catalog's entries in catalog order, as the goldens recorded them.

    ``catalog-o4``'s gate fails if the program's list differs.
    """
    return goldens.load("o4")["catalog"]["ids"]


def layer_metrics(tr, summ: dict) -> dict:
    """The per-layer metrics of a traced pass, by the names BENCHMARK.json lists."""
    calls, self_s, incl = summ["calls"], summ["self_s"], summ["incl_s"]
    counts = tr.counts

    def module_self(mod: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == mod)

    def frac(num, den) -> float:
        return num / den if den else 0.0

    restricts = calls.get("ideals.restrict", 0)
    csl_calls = sum(tr.csl_modes.values())
    canon = calls.get("enumeration.canonical", 0)
    m = {
        "core.subset_product.calls": calls.get("core.subset_product", 0),
        "core.subset_product.self_s": self_s.get("core.subset_product", 0.0),
        "core.downset.calls": calls.get("core.downset", 0),
        "core.downset.self_s": self_s.get("core.downset", 0.0),
        "core.iter_mask.calls": calls.get("core.iter_mask", 0),
        "core.self_s": module_self("core"),
        "ideals.restrict.calls": restricts,
        "ideals.restrict.distinct": len(tr.restrict_keys),
        "ideals.restrict.repeat_frac": frac(restricts - len(tr.restrict_keys), restricts),
        "ideals.self_s": module_self("ideals"),
        "relations.self_s": module_self("relations"),
        "relations.green_star.calls": calls.get("relations.green_star", 0),
        "regularity.self_s": module_self("regularity"),
        "decomposition.self_s": module_self("decomposition"),
        "decomposition.all_csl.calls": calls.get(
            "decomposition.all_complete_semilattice_congruences", 0
        ),
        "decomposition.csl_exhaustive_frac": frac(tr.csl_modes["exhaustive"], csl_calls),
        "theorems.self_s": module_self("theorems"),
    }
    for tid in catalog_ids():
        m[f"theorems.{tid}.s"] = incl.get(f"theorems.{tid}", 0.0)
    m.update(
        {
            "properties.evaluate.s": incl.get("properties.evaluate", 0.0),
            "enumeration.tables.count": counts["enumeration.tables.count"],
            "enumeration.tables.s": incl.get("enumeration.tables", 0.0),
            "enumeration.orders.count": counts["enumeration.orders.count"],
            "enumeration.orders.s": incl.get("enumeration.orders", 0.0),
            "enumeration.canonical.calls": canon,
            "enumeration.canonical.s": incl.get("enumeration.canonical", 0.0),
            "enumeration.canonical.accept_frac": frac(
                counts["enumeration.canonical.accepted"], canon
            ),
            "bench.self_s": module_self("bench"),
        }
    )
    return m


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    tr = None
    walls = []  # wall-clock (start, end) around each root span
    if args.trace:
        import oseg.cli  # noqa: F401 - every module the tracer wraps
        from tracing import Tracer, summary

        tr = Tracer()
        tr.install()
        walls.append(time.perf_counter_ns())
        root = tr.begin(tr.name_id("bench.setup"))
    inputs = w.setup(args.seed, args.size, tr)
    t_ready = time.perf_counter()
    if tr:
        tr.finish(root)
        walls.append(time.perf_counter_ns())
        walls.append(time.perf_counter_ns())
        root = tr.begin(tr.name_id("bench.run"))
    t0 = time.perf_counter()
    res = w.run(inputs, tr)
    run_s = time.perf_counter() - t0
    if tr:
        tr.finish(root)
        walls.append(time.perf_counter_ns())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    speed, items = 1.0, res.item_ns
    if res.pacer:
        res.pacer.sample()
        speed, items = res.pacer.speed(), res.pacer.scaled_items()

    errors = w.check(inputs, res)
    out = {
        "t_ready": t_ready,
        "run_s": run_s,
        "speed": speed,
        "work_s": sum(items) / 1e9,
        "raw_work_s": sum(res.item_ns) / 1e9,
        "attempted": res.attempted,
        "failed": res.failed,
        "items": len(items),
        "item_ms": [t / 1e6 for t in items],
        "rss_mb": rss_mb,
        "row_ns": [[list(row), ns] for row, ns in res.row_ns.items()],
        "errors": errors[:20],
        "error_count": len(errors),
    }
    if tr:
        summ = summary(tr, inclusive=_inclusive_names())
        wall_s = (walls[1] - walls[0] + walls[3] - walls[2]) / 1e9
        reconcile = abs(summ["total_self_s"] - wall_s) / wall_s
        if reconcile > RECONCILE_TOLERANCE:
            out["errors"].append(
                f"self times add up to {summ['total_self_s']:.4f} s, wall {wall_s:.4f} s"
            )
            out["error_count"] += 1
        layers = layer_metrics(tr, summ)
        layers["trace.reconcile_frac"] = reconcile
        out["layers"] = layers
        out["spans"] = summ["spans"]
        # a JSON list of names, then the name, parent, start and end
        # arrays (native-endian uint16, int32, int64, int64)
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"), "wb") as fh:
            fh.write(json.dumps(tr.names).encode() + b"\n")
            for arr in (tr.name, tr.parent, tr.start, tr.end):
                arr.tofile(fh)
    print(json.dumps(out))


def _inclusive_names() -> list[str]:
    return [f"theorems.{tid}" for tid in catalog_ids()] + [
        "properties.evaluate",
        "enumeration.tables",
        "enumeration.orders",
        "enumeration.canonical",
    ]


if __name__ == "__main__":
    main()
