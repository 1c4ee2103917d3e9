"""Regularity, ordered inverses, and the pi-inverse property family."""

from __future__ import annotations

import pytest

from conftest import (
    mask_set,
    oracle_intra_pi_regular,
    oracle_inverses,
    oracle_pi_inverse_family,
    oracle_pi_regular,
    oracle_pi_rv_set,
    oracle_pi_rv_set_vacuous,
    oracle_regular,
    oracle_right_inverse,
    oracle_right_pi_inverse,
    oracle_rv_set,
    oracle_rv_set_vacuous,
    structure_tables,
)
from oseg.cli import analyze_report
from oseg.core import OrderedSemigroup, full_mask, one_sided
from oseg.enumeration import enumerate_tables
from oseg.fixtures import LZ2, N2, RZ2, SL2, T1
from oseg.regularity import (
    is_intra_pi_regular,
    is_left_pi_inverse,
    is_pi_inverse,
    is_pi_regular,
    is_right_inverse,
    is_right_pi_inverse,
    ordered_idempotents,
    pi_intra_set,
    pi_rv_set,
    pi_rv_witness,
    regular_elements,
    rv_set,
)
from oseg.relations import green


class TestRegular:
    def test_fixture_facts(self):
        assert regular_elements(LZ2) >> 0 & 1
        assert not regular_elements(N2) >> 1 & 1
        assert regular_elements(N2) >> 0 & 1
        assert regular_elements(T1) >> 0 & 1

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                assert bool(regular_elements(S) >> a & 1) == oracle_regular(table, leq, a)


class TestOrderedIdempotents:
    def test_fixtures(self):
        assert mask_set(ordered_idempotents(N2)) == {0}
        assert mask_set(ordered_idempotents(LZ2)) == {0, 1}
        assert mask_set(ordered_idempotents(SL2)) == {0, 1}

    def test_definition(self, corpus3):
        for S in corpus3:
            e_mask = ordered_idempotents(S)
            for e in range(S.n):
                assert bool(e_mask >> e & 1) == S.leq(e, S.table[e][e])


class TestInverses:
    def test_fixtures(self):
        assert mask_set(one_sided(LZ2).inverses[0]) == {0, 1}
        assert one_sided(N2).inverses[1] == 0
        assert mask_set(one_sided(N2).inverses[0]) == {0}
        assert mask_set(one_sided(SL2).inverses[1]) == {1}

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                assert mask_set(one_sided(S).inverses[a]) == oracle_inverses(table, leq, a)

    def test_nonempty_iff_regular(self, corpus3):
        for S in corpus3:
            for a in range(S.n):
                assert (one_sided(S).inverses[a] != 0) == bool(regular_elements(S) >> a & 1)

    def test_products_with_inverse_are_ordered_idempotents(self, corpus3):
        for S in corpus3:
            e_mask = ordered_idempotents(S)
            for a in range(S.n):
                for b in mask_set(one_sided(S).inverses[a]):
                    assert e_mask >> S.table[a][b] & 1
                    assert e_mask >> S.table[b][a] & 1


class TestPiRegularity:
    def test_n2(self):
        assert is_pi_regular(N2)

    def test_n2_intra(self):
        assert mask_set(pi_intra_set(N2)) == {0, 1}
        assert is_intra_pi_regular(N2)

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            assert is_pi_regular(S) == oracle_pi_regular(table, leq)

    def test_finite_always_pi_regular(self, corpus3):
        """Power sequences reach idempotents, so these are all pi-regular."""
        for S in corpus3:
            assert is_pi_regular(S)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lemma_every_finite_table_pi_and_intra_pi_regular(self, n):
        """Some power a^k is an idempotent e, and e = eee, e = e e^2 e.

        The discrete order is the hardest case: a coarser order only
        enlarges the downsets these conditions ask a^k to lie in.  The
        package relies on this to drop pi-regularity preconditions.
        """
        leq = [[i == j for j in range(n)] for i in range(n)]
        for table in enumerate_tables(n):
            assert oracle_pi_regular(table, leq), table
            assert oracle_intra_pi_regular(table, leq), table


class TestRvSets:
    def test_fixtures(self):
        assert mask_set(rv_set(RZ2)) == {0, 1}
        assert rv_set(LZ2) == 0
        assert pi_rv_set(LZ2) == 0
        assert mask_set(rv_set(N2)) == {0}
        assert mask_set(pi_rv_set(N2)) == {0, 1}

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            assert mask_set(rv_set(S)) == oracle_rv_set(table, leq)

    def test_rv_subset_of_pi_rv_on_regulars(self, corpus3):
        """On regular elements the m=1 witness makes rv membership carry over."""
        for S in corpus3:
            reg = regular_elements(S)
            assert rv_set(S) & reg & ~pi_rv_set(S) == 0

    def test_witness_exponents(self, corpus3):
        for S in corpus3:
            wit = pi_rv_witness(S)
            rrows = green(S, "R")
            for a, w in enumerate(wit):
                if w is None:
                    continue
                p = one_sided(S).powers[a][w - 1]
                v = one_sided(S).inverses[p]
                assert v != 0
                first = (v & -v).bit_length() - 1
                assert v & ~rrows[first] == 0

    def test_vacuous_reading_flag(self):
        # under the vacuous reading, irregular elements slip in
        report = analyze_report(N2, rv_vacuous=True)
        assert report["rv_set_vacuous"] == [0, 1]
        assert report["rv_set"] == [0]

    def test_vacuous_reading_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            report = analyze_report(S, rv_vacuous=True)
            assert report["rv_set_vacuous"] == sorted(oracle_rv_set_vacuous(table, leq))
            assert report["pi_rv_set_vacuous"] == sorted(oracle_pi_rv_set_vacuous(table, leq))


class TestInverseFamilies:
    def test_fixture_facts(self):
        assert is_right_pi_inverse(RZ2)
        assert not is_pi_inverse(RZ2)
        assert not is_right_pi_inverse(LZ2)
        assert is_left_pi_inverse(LZ2)
        assert is_pi_inverse(N2)
        assert is_pi_inverse(SL2)
        assert is_right_inverse(SL2)
        assert is_right_inverse(RZ2)
        assert not is_right_inverse(N2)

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            assert is_right_pi_inverse(S) == oracle_right_pi_inverse(table, leq)

    def test_implication_chain(self, corpus3):
        """right inverse implies right pi-inverse; pi-inverse implies both sides."""
        for S in corpus3:
            if is_right_inverse(S):
                assert is_right_pi_inverse(S)
            if is_pi_inverse(S):
                assert is_right_pi_inverse(S) and is_left_pi_inverse(S)

    def test_right_pi_inverse_decomposes(self, corpus3):
        for S in corpus3:
            assert is_right_pi_inverse(S) == (
                is_pi_regular(S) and pi_rv_set(S) == full_mask(S.n)
            )


#: each memoized verdict, read as a plain value, with its oracle
MEMOIZED = {
    "is_right_pi_inverse": (is_right_pi_inverse, oracle_right_pi_inverse),
    "is_left_pi_inverse": (is_left_pi_inverse, lambda t, le: oracle_pi_inverse_family(t, le, "L")),
    "is_pi_inverse": (is_pi_inverse, lambda t, le: oracle_pi_inverse_family(t, le, "H")),
    "is_right_inverse": (is_right_inverse, oracle_right_inverse),
    "pi_rv_set": (lambda S: mask_set(pi_rv_set(S)), oracle_pi_rv_set),
}


class TestMemoizedVerdicts:
    @pytest.mark.parametrize("name", MEMOIZED)
    def test_first_call_and_repeat_match_oracle(self, name, corpus3):
        """On a fresh copy of each structure, so the first call computes."""
        verdict, oracle = MEMOIZED[name]
        for S in corpus3:
            fresh = OrderedSemigroup(S.n, S.table, S.down)
            expected = oracle(*structure_tables(S))
            assert verdict(fresh) == expected, (name, S)
            assert verdict(fresh) == expected, (name, S)

    def test_repeat_reads_the_memo(self):
        """A planted one-sided record is what a repeat reads."""
        fresh = OrderedSemigroup(N2.n, N2.table, N2.down)
        assert is_right_pi_inverse(fresh) and pi_rv_set(fresh) == 0b11
        fresh._cache[one_sided.__wrapped__] = one_sided(fresh)._replace(r_pi=0)
        assert not is_right_pi_inverse(fresh)

    def test_verdict_is_per_structure_not_per_table(self, corpus3):
        """Structures sharing a table can differ on a verdict; each keeps its
        own, however the calls on them interleave."""
        by_table: dict = {}
        for S in corpus3:
            by_table.setdefault(S.table, []).append(OrderedSemigroup(S.n, S.table, S.down))
        differs = 0
        for name, (verdict, oracle) in MEMOIZED.items():
            for group in by_table.values():
                expected = [oracle(*structure_tables(S)) for S in group]
                assert [verdict(S) for S in group] == expected, name
                assert [verdict(S) for S in reversed(group)] == expected[::-1], name
                differs += len({str(v) for v in expected}) > 1
        assert differs > 0
