"""Enumeration: counts against the naive oracle, dedup, resume, canonical forms."""

from __future__ import annotations

import hashlib
import os
import random
import sys
from collections import Counter
from functools import partial
from itertools import islice, permutations, product
from math import factorial

import pytest

from conftest import (
    oracle_all_orders,
    oracle_all_structures,
    oracle_all_tables,
    oracle_compatible,
    oracle_relabelings,
    structure_tables,
)
from oseg.core import OrderedSemigroup, axiom_violations, canonical_json
from oseg.enumeration import (
    DEDUP_MODES,
    EnumerationCursor,
    OrderTooLargeError,
    canonical_form,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_tables,
    is_canonical,
)
from oseg.fixtures import LZ2, RZ2

# raw associative table counts, cross-checked against OEIS A023814
TABLE_COUNTS = {1: 1, 2: 8, 3: 113, 4: 3492}

# (iso classes, raw structures) per order; the order-4 raw count is the
# one perfbench/golden/o4.json pins
ISO_COUNTS = {2: (11, 20), 3: (173, 971), 4: (4753, 107688)}

# the whole `enumerate --order 5 --dedup iso` output: lines, distinct tables
# (OEIS A001423), sha256
O5_ISO = (198838, 1915, "5e618776dff4573f83a8e5af7f281d978122bafc17734865554a138d97a1c05a")


def perfbench_modules():
    """perfbench's goldens, oracle and workloads modules."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    try:
        import goldens
        import oracle
        import workloads
    finally:
        sys.path.pop(0)
    return goldens, oracle, workloads


def key(S: OrderedSemigroup) -> tuple:
    return tuple(v for row in S.table for v in row), S.down


def orbit_and_least(S: OrderedSemigroup) -> tuple[int, bool]:
    """(n!/|Aut(S)|, whether S's key is least among its renamings), by the oracle."""
    keys = oracle_relabelings(*structure_tables(S))
    return factorial(S.n) // keys.count(key(S)), key(S) == min(keys)


class TestTables:
    def test_counts_match_oeis(self):
        for n in (1, 2, 3, 4):
            assert sum(1 for _ in enumerate_tables(n)) == TABLE_COUNTS[n]

    def test_counts_match_naive_oracle(self):
        for n in (1, 2, 3):
            got = [tuple(map(tuple, t)) for t in enumerate_tables(n)]
            expected = [tuple(map(tuple, t)) for t in oracle_all_tables(n)]
            assert sorted(got) == sorted(expected)
            assert len(set(got)) == len(got)

    def test_lexicographic_order(self):
        flat = [tuple(v for row in t for v in row) for t in enumerate_tables(3)]
        assert flat == sorted(flat)

    def test_first_row_partition(self):
        from itertools import product

        for n in (2, 3):
            merged = []
            for row in product(range(n), repeat=n):
                merged.extend(enumerate_tables(n, first_row=row))
            assert sorted(merged) == sorted(enumerate_tables(n))

    def test_order_cap(self):
        with pytest.raises(OrderTooLargeError):
            list(enumerate_tables(6))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_iso_builds_exactly_the_least_tables(self, n):
        """Lex-leader pruning keeps, in stream order, the tables that the
        oracle finds least among their relabelings, and only those."""
        discrete = [[i == j for j in range(n)] for i in range(n)]
        least = [
            t for t in enumerate_tables(n)
            if tuple(v for row in t for v in row) == min(oracle_relabelings(t, discrete))[0]
        ]
        assert list(enumerate_tables(n, dedup="iso")) == least

    @pytest.mark.parametrize("dedup", DEDUP_MODES)
    def test_first_row_and_resume_table(self, dedup):
        """The value index and, under iso, pruning keep their meaning under a
        pinned first row and a resume table: each gives the tables the
        unpinned stream has there."""
        tables = list(enumerate_tables(4, dedup=dedup))
        for row in product(range(4), repeat=4):
            pinned = [t for t in tables if t[0] == row]
            assert list(enumerate_tables(4, first_row=row, dedup=dedup)) == pinned
        for k in {"raw": (1, 1000, 3491), "iso": (1, 57, 187)}[dedup]:
            flat = [v for row in tables[k] for v in row]
            assert list(enumerate_tables(4, resume_table=flat, dedup=dedup)) == tables[k:]

    def test_unknown_dedup(self):
        """enumerate_tables refuses a dedup mode with the stream's error,
        not by yielding the raw tables."""
        for make in (partial(enumerate_tables, 3), partial(enumerate_ordered_semigroups, 3)):
            with pytest.raises(ValueError, match=r"dedup must be one of \('raw', 'iso'\), got 'antiiso'"):
                list(make(dedup="antiiso"))

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_is_not_the_cap(self, n):
        with pytest.raises(ValueError, match="order must be >= 1") as exc:
            enumerate_ordered_semigroups(n)
        assert not isinstance(exc.value, OrderTooLargeError)


class TestCompatibleOrders:
    def test_lz2_three_orders(self):
        got = list(enumerate_compatible_orders([[0, 0], [1, 1]]))
        assert len(got) == 3
        assert got[0] == (0b01, 0b10)  # discrete first

    def test_sl2_meet_table_includes_chain(self):
        got = list(enumerate_compatible_orders([[0, 0], [0, 1]]))
        assert (0b01, 0b11) in got  # 0 <= 1

    def test_discrete_always_present(self):
        for t in enumerate_tables(3):
            downs = list(enumerate_compatible_orders(t))
            assert tuple(1 << i for i in range(3)) in downs

    @staticmethod
    def assert_matches_filter_oracle(n):
        """Edge-extension generation equals filtering all posets, each order once."""
        posets = list(oracle_all_orders(n))
        for t in enumerate_tables(n):
            got = list(enumerate_compatible_orders(t))
            expected = [
                tuple(sum(1 << i for i in range(n) if leq[i][j]) for j in range(n))
                for leq in posets
                if oracle_compatible(t, leq)
            ]
            assert sorted(got) == sorted(expected)
            assert len(set(got)) == len(got)

    def test_matches_filter_oracle(self):
        for n in (1, 2, 3):
            self.assert_matches_filter_oracle(n)

    @pytest.mark.slow
    def test_matches_filter_oracle_order_4(self):
        """All 3492 order-4 tables against the 219 posets (about 10 s)."""
        self.assert_matches_filter_oracle(4)

    def test_emission_order_matches_order_4_golden(self):
        """Per first row, the raw stream's (tables, structures, digest) and
        the iso stream's digest equal perfbench/golden/o4.json, which pins
        the order every structure comes out in."""
        goldens, oracle, _ = perfbench_modules()
        golden = goldens.load("o4")["rows"]
        for dedup in ("raw", "iso"):
            rows = {}
            for S in enumerate_ordered_semigroups(4, dedup=dedup):
                row = rows.setdefault(goldens.row_key(S.table[0]), [set(), 0, oracle.digest()])
                row[0].add(S.table)
                row[1] += 1
                row[2].update(canonical_json(S).encode() + b"\n")
            if dedup == "raw":
                got = {k: (len(t), c, d.hexdigest()) for k, (t, c, d) in rows.items()}
                want = {k: (g["tables"], g["structures"], g["digest"]) for k, g in golden.items()}
            else:
                got = {k: d.hexdigest() for k, (_, _, d) in rows.items()}
                want = {k: g["iso_digest"] for k, g in golden.items() if g["iso_structures"]}
            assert got == want, dedup

    def test_emission_order_matches_order_5_golden(self):
        """The 48 first rows of the two order-5 relabeling classes that the
        enum-o5-raw workload runs: (tables, structures, digest) per row
        equal perfbench/golden/o5.json."""
        goldens, oracle, workloads = perfbench_modules()
        golden = goldens.load("o5")["rows"]
        rows = sorted(r for c in workloads.EnumO5Raw.classes for r in workloads.relabeling_class(c))
        assert len(rows) == 48
        for row in rows:
            d = oracle.digest()
            tables, count = set(), 0
            for S in enumerate_ordered_semigroups(5, first_row=row):
                tables.add(S.table)
                count += 1
                d.update(canonical_json(S).encode() + b"\n")
            g = golden[goldens.row_key(row)]
            assert (len(tables), count, d.hexdigest()) == (g["tables"], g["structures"], g["digest"])

    def test_poset_counts_on_null_and_left_zero_tables(self):
        """Every poset is compatible with the null and left-zero tables, so
        the generator must hit the labeled poset counts (OEIS A001035)."""
        a001035 = {1: 1, 2: 3, 3: 19, 4: 219}
        for n, expected in a001035.items():
            null = [[0] * n for _ in range(n)]
            left_zero = [[i] * n for i in range(n)]
            assert sum(1 for _ in enumerate_compatible_orders(null)) == expected
            assert sum(1 for _ in enumerate_compatible_orders(left_zero)) == expected


class TestStream:
    def test_order_1(self):
        assert len(list(enumerate_ordered_semigroups(1))) == 1

    def test_raw_counts_match_oracle(self):
        for n in (1, 2, 3):
            got = sum(1 for _ in enumerate_ordered_semigroups(n))
            expected = sum(1 for _ in oracle_all_structures(n))
            assert got == expected

    def test_all_emitted_valid_and_distinct(self, corpus3):
        seen = set()
        for S in corpus3:
            leq = [[S.leq(i, j) for j in range(S.n)] for i in range(S.n)]
            assert axiom_violations(S.n, [list(r) for r in S.table], leq) == []
            key = canonical_json(S)
            assert key not in seen
            seen.add(key)

    def test_iso_dedup_only_removes(self):
        for n in (1, 2, 3):
            raw = sum(1 for _ in enumerate_ordered_semigroups(n))
            iso = sum(1 for _ in enumerate_ordered_semigroups(n, dedup="iso"))
            assert iso <= raw

    def test_iso_classes_cover_raw(self):
        for n in (1, 2):
            raw_canon = {canonical_form(S) for S in enumerate_ordered_semigroups(n)}
            iso = set(enumerate_ordered_semigroups(n, dedup="iso"))
            assert iso == raw_canon

    def test_bad_dedup(self):
        with pytest.raises(ValueError):
            enumerate_ordered_semigroups(2, dedup="antiiso")


class TestCanonicalForm:
    def test_t1_fixed(self):
        from oseg.fixtures import T1

        assert canonical_form(T1) == T1

    def test_relabeling_collides(self):
        from oseg.fixtures import N2

        # N2 with 0 and 1 swapped: all products land on 1, and 1 <= 0
        swapped = OrderedSemigroup(2, ((1, 1), (1, 1)), (0b11, 0b10))
        assert swapped != N2
        assert canonical_form(swapped) == canonical_form(N2)

    def test_lz2_fixed_under_swap(self):
        # left-zero looks the same in every labeling
        assert canonical_form(LZ2) == LZ2

    def test_lz2_rz2_differ(self):
        assert canonical_form(LZ2) != canonical_form(RZ2)

    def test_idempotent(self, corpus2):
        for S in corpus2:
            c = canonical_form(S)
            assert canonical_form(c) == c

    def test_random_relabelings_collide(self, corpus3):
        """Random relabelings of order <= 3 structures, and of every 50th of the
        first 3000 order-5 classes, each its own canonical form, map back."""
        rng = random.Random(7)
        o5 = list(islice(enumerate_ordered_semigroups(5, dedup="iso"), 0, 3000, 50))
        assert len(o5) == 60 and all(canonical_form(S) == S for S in o5)
        for S in rng.sample(corpus3, 60) + o5:
            perm = list(range(S.n))
            rng.shuffle(perm)
            table = [[0] * S.n for _ in range(S.n)]
            down = [0] * S.n
            for i in range(S.n):
                for j in range(S.n):
                    table[perm[i]][perm[j]] = perm[S.table[i][j]]
                for x in range(S.n):
                    if S.down[i] >> x & 1:
                        down[perm[i]] |= 1 << perm[x]
            relabeled = OrderedSemigroup(S.n, tuple(map(tuple, table)), tuple(down))
            assert canonical_form(relabeled) == canonical_form(S)

    def test_is_canonical(self, corpus2):
        for S in corpus2:
            assert is_canonical(S) == (canonical_form(S) == S)


class TestIsoAgainstOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_stabilizer(self, n):
        """The orbit sizes n!/|Aut(S)| of the iso classes add up to the raw
        count, and every class comes out as its least relabeling."""
        classes, raw = ISO_COUNTS[n]
        facts = [orbit_and_least(S) for S in enumerate_ordered_semigroups(n, dedup="iso")]
        assert len(facts) == classes
        assert sum(orbit for orbit, _ in facts) == raw
        assert all(least for _, least in facts)

    def test_canonical_form_and_is_canonical(self, corpus3):
        """Against the oracle's least key: all of order <= 3, every 7th of order 4."""
        sample = corpus3 + list(islice(enumerate_ordered_semigroups(4), 0, None, 7))
        table_not_least = down_not_least = 0
        for S in sample:
            least = min(oracle_relabelings(*structure_tables(S)))
            assert key(canonical_form(S)) == least
            assert is_canonical(S) == (key(S) == least)
            table_not_least += key(S)[0] != least[0]
            down_not_least += key(S)[0] == least[0] and key(S)[1] != least[1]
        # both ways of failing occur: a table that is not least, and a least
        # table whose down masks an automorphism of it lowers
        assert table_not_least > 0 and down_not_least > 0


def label_free(signature: str) -> str:
    """Each entry's verdict and the multiset of its condition values.

    Per-ideal and per-congruence conditions are listed in the order of
    their elements' labels, so only this much of a signature is the same
    for every relabeling of a structure.
    """
    return "|".join(part[0] + "".join(sorted(part[1:])) for part in signature.split("|"))


@pytest.mark.slow
def test_iso_sweep_reproduces_raw_sweep(monkeypatch):
    """The catalog over the 4753 order-4 iso classes against the raw sweep
    over all 107688 pinned in perfbench/golden/o4.json: each class has the
    signature its representative has there, and weighted by orbit sizes
    the classes give the raw sweep's histogram and per-entry totals."""
    from oseg import cli, theorems

    goldens, oracle, _ = perfbench_modules()
    golden = goldens.load("o4")
    cat = golden["catalog"]
    ids = cat["ids"]
    reports: dict = {}  # structure -> {id: its report, None when skipped}
    check, unmet = theorems.check, theorems.precondition_unmet

    def recording_unmet(S, tid):
        reason = unmet(S, tid)
        if reason is not None:
            reports.setdefault(S, {})[tid] = None
        return reason

    def recording_check(S, tid):
        reports.setdefault(S, {})[tid] = rep = check(S, tid)
        return rep

    monkeypatch.setattr(theorems, "precondition_unmet", recording_unmet)
    monkeypatch.setattr(theorems, "check", recording_check)
    check_structure = partial(cli._check_structure, ids)
    count = sum(1 for _ in map(check_structure, enumerate_ordered_semigroups(4, dedup="iso")))
    assert count == len(reports) == ISO_COUNTS[4][0]

    signatures, index = goldens.catalog_signatures(golden)
    weighted: Counter = Counter()
    totals = {k: dict.fromkeys(ids, 0) for k in ("checked", "skipped", "counterexamples")}
    found = 0
    for position, S in enumerate(enumerate_ordered_semigroups(4)):
        by_id = reports.get(S)
        if by_id is None:
            continue
        found += 1
        signature = oracle.catalog_signature([by_id[tid] for tid in ids])
        assert signature == signatures[index[position]]
        orbit, least = orbit_and_least(S)
        assert least
        weighted[label_free(signature)] += orbit
        for tid in ids:
            rep = by_id[tid]
            totals["skipped" if rep is None else "checked"][tid] += orbit
            totals["counterexamples"][tid] += orbit * (rep is not None and not rep.consistent)
    assert found == count
    assert weighted == Counter(label_free(signatures[i]) for i in index)
    for k, per_id in totals.items():
        assert per_id == cat[k], k


class TestResume:
    def test_cursor_roundtrip(self):
        c = EnumerationCursor(3, "raw", (0,) * 9, 2, 11)
        assert EnumerationCursor.from_json(c.to_json()) == c
        fresh = EnumerationCursor(2, "iso", None, 0, 0)
        assert EnumerationCursor.from_json(fresh.to_json()) == fresh
        with_out = EnumerationCursor(3, "raw", (0,) * 9, 2, 11, out_bytes=1234)
        assert EnumerationCursor.from_json(with_out.to_json()) == with_out

    def test_checkpoint_keys(self):
        import json

        obj = json.loads(EnumerationCursor(2, "raw", (0, 0, 0, 0), 1, 5).to_json())
        assert list(obj) == ["order", "dedup", "prefix-stack", "emitted"]

    @pytest.mark.parametrize("dedup", ["raw", "iso"])
    @pytest.mark.parametrize("stop", [1, 7, 19])
    def test_resume_reproduces_stream(self, dedup, stop):
        full = [canonical_json(S) for S in enumerate_ordered_semigroups(3, dedup=dedup)]
        stream = enumerate_ordered_semigroups(3, dedup=dedup)
        head = []
        for S in stream:
            head.append(canonical_json(S))
            if len(head) == stop:
                break
        cursor = stream.cursor
        resumed = enumerate_ordered_semigroups(3, dedup=dedup, cursor=cursor)
        tail = [canonical_json(S) for S in resumed]
        assert head + tail == full
        assert cursor.emitted == stop

    def test_iso_resume_from_a_mid_stream_least_table(self):
        """An iso checkpoint names a least table; resuming there, part way
        through its orders, gives the rest of the order-4 iso stream."""
        full = [canonical_json(S) for S in enumerate_ordered_semigroups(4, dedup="iso")]
        stream = enumerate_ordered_semigroups(4, dedup="iso")
        head = [canonical_json(S) for S in islice(stream, 2377)]
        cursor = EnumerationCursor.from_json(stream.cursor.to_json())
        assert cursor.orders_done > 1  # part way through the table's orders
        resumed = enumerate_ordered_semigroups(4, dedup="iso", cursor=cursor)
        assert head + [canonical_json(S) for S in resumed] == full

    def test_cursor_mismatch_rejected(self):
        stream = enumerate_ordered_semigroups(2)
        next(stream)
        with pytest.raises(ValueError):
            enumerate_ordered_semigroups(3, cursor=stream.cursor)


@pytest.mark.slow
def test_order_5_iso_stream():
    """`enumerate --order 5 --dedup iso`, byte for byte: 198838 classes on
    the 1915 least tables, built without the 181817 tables that are not.
    Orbit-stabilizer: the classes' orbits, 5!/|Aut(S)| each with Aut(S)
    found by brute force, add up to the raw count in perfbench/golden/o5.json."""
    lines, tables, sha = O5_ISO
    goldens, _, _ = perfbench_modules()
    raw = sum(row["structures"] for row in goldens.load("o5")["rows"].values())
    h = hashlib.sha256()
    count, distinct, orbits = 0, set(), 0
    for S in enumerate_ordered_semigroups(5, dedup="iso"):
        h.update(canonical_json(S).encode() + b"\n")
        if S.table not in distinct:  # a least table's orders come in one run
            distinct.add(S.table)
            table_aut = [
                p
                for p in permutations(range(5))
                if all(p[S.table[x][y]] == S.table[p[x]][p[y]] for x in range(5) for y in range(5))
            ]
        aut = [
            p
            for p in table_aut
            if all(S.leq(x, y) == S.leq(p[x], p[y]) for x in range(5) for y in range(5))
        ]
        orbits += factorial(5) // len(aut)
        count += 1
    assert (count, len(distinct), h.hexdigest()) == (lines, tables, sha)
    assert orbits == raw == 22774522
