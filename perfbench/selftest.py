"""Self-test of the benchmark: tiny runs pass, and the gates catch wrong results.

    python3 perfbench/selftest.py          # about a minute
    python3 perfbench/selftest.py --full   # also search-o4's whole-stream totals, +30 s

For each workload it runs set-up, timed section and gate in process at
a tiny size, then damages one output (a structure dropped, a count off
by one, a verdict changed, a non-canonical structure emitted) and checks
that the gate reports it.  It then runs every workload through
``run.run`` both untraced and traced, which starts the passes in fresh
interpreters the way the benchmark command does.  ``--full`` runs
``search-o4`` over every first row and checks the whole-stream totals;
``enum-o4-iso`` checks its own on every full-size pass.
"""

from __future__ import annotations

import os
import sys
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import goldens  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"catalog-o4": 40, "search-o4": 2000, "enum-o4-iso": 3100, "enum-o5-raw": 1500}
SEED = 7


def _fresh(name: str):
    w = WORKLOADS[name]
    inputs = w.setup(SEED, TINY[name])
    return w, inputs, w.run(inputs)


def _expect_caught(name: str, what: str, damage, needle: str) -> None:
    w, inputs, res = _fresh(name)
    damage(inputs, res)
    caught = [e for e in w.check(inputs, res) if needle in e]
    assert caught, f"{name}: the gate missed {what}"
    print(f"ok   {name}: gate catches {what}: {caught[0][:100]}")


def _first_row(res):
    return next(iter(res.out["rows"]))


def _drop_emitted(inputs, res):
    o = res.out["rows"][_first_row(res)]
    o["emitted"].pop()
    o["count"] -= 1


def _non_canonical(inputs, res):
    from oseg.core import OrderedSemigroup

    o = res.out["rows"][_first_row(res)]
    S = o["emitted"][0]
    flip = (1, 0, 2, 3)  # rename 0 <-> 1
    table = [[0] * 4 for _ in range(4)]
    down = [0] * 4
    for i in range(4):
        for j in range(4):
            table[flip[i]][flip[j]] = flip[S.table[i][j]]
            if S.down[j] >> i & 1:
                down[flip[j]] |= 1 << flip[i]
    T = OrderedSemigroup(4, tuple(map(tuple, table)), tuple(down))
    if T == S:
        raise AssertionError("pick a structure that the renaming moves")
    o["emitted"][0] = T


def _search_off_by_one(inputs, res):
    row = _first_row(res)
    structures, matches = res.out["rows"][row]
    res.out["rows"][row] = (structures, matches + 1)


def _catalog_drop(inputs, res):
    res.out["reports"].pop()


def _catalog_flip(inputs, res):
    pos, reports = res.out["reports"][0]
    res.out["reports"][0] = (pos, [None] + reports[1:])  # first entry "skipped"


def _o5_off_by_one(inputs, res):
    res.out["rows"][_first_row(res)]["tables"] += 1


def gates() -> None:
    for name in TINY:
        w, inputs, res = _fresh(name)
        errors = w.check(inputs, res)
        assert not errors, f"{name}: {errors}"
        assert res.attempted > 0 and res.failed == 0, name
        print(f"ok   {name}: {res.attempted} structures pass the gate")
    _expect_caught("catalog-o4", "a structure dropped", _catalog_drop, "not every")
    _expect_caught("catalog-o4", "a changed verdict", _catalog_flip, "verdicts at")
    _expect_caught("search-o4", "a match count off by one", _search_off_by_one, "matches")
    _expect_caught("enum-o4-iso", "a structure dropped", _drop_emitted, "structures, digest")
    _expect_caught("enum-o4-iso", "a non-canonical structure", _non_canonical, "non-canonical")
    _expect_caught("enum-o5-raw", "a table count off by one", _o5_off_by_one, "(tables,")


def command() -> None:
    for name in TINY:
        for trace in (False, True):
            result = run.run(name, SEED, 0.0, trace, size=TINY[name])
            assert result["correct"] and result["failed"] == 0, (name, trace, result["_errors"])
            metrics = result["metrics"]
            if trace:
                assert metrics["trace.reconcile_frac"]["value"] <= 0.01, metrics
            else:
                assert all(m["value"] > 0 for m in metrics.values()), metrics
            print(f"ok   {name} trace={int(trace)}: {len(metrics)} metrics")


def full() -> None:
    search = WORKLOADS["search-o4"]
    inputs = search.setup(SEED, goldens.O4_STRUCTURES)
    golden = goldens.load("o4")["rows"]
    inputs["rows"] = [r for r in product(range(4), repeat=4) if goldens.row_key(r) in golden]
    res = search.run(inputs)
    assert not search.check(inputs, res)
    totals = [sum(v[i] for v in res.out["rows"].values()) for i in (0, 1)]
    assert totals == [goldens.O4_STRUCTURES, goldens.O4_SEARCH_MATCHES], totals
    print(f"ok   search-o4 whole stream: {totals[0]} structures, {totals[1]} matches")


if __name__ == "__main__":
    gates()
    command()
    if "--full" in sys.argv[1:]:
        full()
    print("selftest passed")
