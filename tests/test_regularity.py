"""Regularity, ordered inverses, and the pi-inverse property family."""

from __future__ import annotations

import pytest

from conftest import (
    mask_set,
    oracle_intra_pi_regular,
    oracle_inverses,
    oracle_pi_regular,
    oracle_regular,
    oracle_right_pi_inverse,
    oracle_rv_set,
    structure_tables,
)
from oseg.core import full_mask
from oseg.enumeration import enumerate_tables
from oseg.fixtures import LZ2, N2, RZ2, SL2, T1
from oseg.regularity import (
    inverses,
    is_intra_pi_regular,
    is_left_pi_inverse,
    is_pi_inverse,
    is_pi_regular,
    is_regular,
    is_right_inverse,
    is_right_pi_inverse,
    ordered_idempotents,
    pi_intra_set,
    pi_rv_set,
    pi_rv_witness,
    regular_elements,
    regularity_profile,
    rv_set,
)
from oseg.relations import green


class TestRegular:
    def test_fixture_facts(self):
        assert is_regular(LZ2, 0)
        assert not is_regular(N2, 1)
        assert is_regular(N2, 0)
        assert is_regular(T1, 0)

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                assert is_regular(S, a) == oracle_regular(table, leq, a)

    def test_profile_consistency(self, corpus3):
        """is_regular iff the least regular-power exponent is 1."""
        for S in corpus3:
            prof = regularity_profile(S)
            for a in range(S.n):
                assert prof.is_regular[a] == (prof.pi_witness[a] == 1)


class TestOrderedIdempotents:
    def test_fixtures(self):
        assert mask_set(ordered_idempotents(N2)) == {0}
        assert mask_set(ordered_idempotents(LZ2)) == {0, 1}
        assert mask_set(ordered_idempotents(SL2)) == {0, 1}

    def test_definition(self, corpus3):
        for S in corpus3:
            e_mask = ordered_idempotents(S)
            for e in range(S.n):
                assert bool(e_mask >> e & 1) == S.leq(e, S.mul(e, e))


class TestInverses:
    def test_fixtures(self):
        assert mask_set(inverses(LZ2, 0)) == {0, 1}
        assert inverses(N2, 1) == 0
        assert mask_set(inverses(N2, 0)) == {0}
        assert mask_set(inverses(SL2, 1)) == {1}

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                assert mask_set(inverses(S, a)) == oracle_inverses(table, leq, a)

    def test_nonempty_iff_regular(self, corpus3):
        for S in corpus3:
            for a in range(S.n):
                assert (inverses(S, a) != 0) == is_regular(S, a)

    def test_products_with_inverse_are_ordered_idempotents(self, corpus3):
        for S in corpus3:
            e_mask = ordered_idempotents(S)
            for a in range(S.n):
                for b in mask_set(inverses(S, a)):
                    assert e_mask >> S.mul(a, b) & 1
                    assert e_mask >> S.mul(b, a) & 1


class TestPiRegularity:
    def test_n2(self):
        assert is_pi_regular(N2)
        assert regularity_profile(N2).pi_witness == (1, 2)

    def test_sl2_all_witnesses_one(self):
        assert regularity_profile(SL2).pi_witness == (1, 1)

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
            rrows = green(S, "R").rows
            for a, w in enumerate(wit):
                if w is None:
                    continue
                from oseg.core import power

                p = power(S, a, w)
                v = inverses(S, p)
                assert v != 0
                first = (v & -v).bit_length() - 1
                assert v & ~rrows[first] == 0

    def test_vacuous_reading_flag(self):
        # under the vacuous reading, irregular elements slip in
        assert mask_set(rv_set(N2, include_irregular=True)) == {0, 1}
        assert mask_set(rv_set(N2)) == {0}


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
