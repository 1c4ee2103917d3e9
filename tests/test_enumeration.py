"""Enumeration: counts against the naive oracle, dedup, resume, canonical forms."""

from __future__ import annotations

import random

import pytest

from conftest import (
    oracle_all_orders,
    oracle_all_structures,
    oracle_all_tables,
    oracle_compatible,
)
from oseg.core import OrderedSemigroup, axiom_violations, canonical_json
from oseg.enumeration import (
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

    def test_matches_filter_oracle(self):
        """Edge-extension generation equals filtering all posets, n <= 3."""
        for n in (1, 2, 3):
            for t in enumerate_tables(n):
                got = sorted(enumerate_compatible_orders(t))
                expected = []
                for leq in oracle_all_orders(n):
                    if oracle_compatible(t, leq):
                        expected.append(
                            tuple(
                                sum(1 << i for i in range(n) if leq[i][j])
                                for j in range(n)
                            )
                        )
                assert got == sorted(expected)
                assert len(set(got)) == len(got)

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
        rng = random.Random(7)
        sample = rng.sample(corpus3, 60)
        for S in sample:
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

    def test_cursor_mismatch_rejected(self):
        stream = enumerate_ordered_semigroups(2)
        next(stream)
        with pytest.raises(ValueError):
            enumerate_ordered_semigroups(3, cursor=stream.cursor)
