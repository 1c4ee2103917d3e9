"""Ideal computations against the definitional formulas and subset scans."""

from __future__ import annotations

import pytest

from conftest import (
    mask_set,
    oracle_is_ideal,
    oracle_principal_ideal,
    oracle_simple,
    oracle_subsets,
    structure_tables,
)
from oseg.core import OrderedSemigroup, full_mask, mask_of
from oseg.ideals import (
    EmptySubsetError,
    NotClosedError,
    all_ideals,
    is_ideal,
    is_simple,
    kernel,
    principal_ideal,
    restrict,
)
from oseg.fixtures import LZ2, N2, RZ2, SL2, T1


class TestPrincipalIdeal:
    def test_lz2(self):
        assert mask_set(principal_ideal(LZ2, 0, "left")) == {0, 1}
        assert mask_set(principal_ideal(LZ2, 0, "right")) == {0}

    def test_n2_two_sided(self):
        assert mask_set(principal_ideal(N2, 1, "two-sided")) == {0, 1}

    def test_trivial_all_kinds(self):
        for kind in ("left", "right", "two-sided", "bi"):
            assert principal_ideal(T1, 0, kind) == mask_of([0])

    def test_matches_formula_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                for kind in ("left", "right", "two-sided", "bi"):
                    assert mask_set(principal_ideal(S, a, kind)) == oracle_principal_ideal(
                        table, leq, a, kind
                    ), (S, a, kind)

    def test_least_containing_subset_scan(self, corpus3):
        """The principal ideal is the least kind-ideal containing a."""
        for S in corpus3:
            table, leq = structure_tables(S)
            for kind in ("left", "right", "two-sided", "bi"):
                for a in range(S.n):
                    p = mask_set(principal_ideal(S, a, kind))
                    least = None
                    for A in oracle_subsets(S.n):
                        if a in A and oracle_is_ideal(table, leq, A, kind):
                            if least is None or len(A) < len(least):
                                least = A
                    assert least == p, (S, a, kind)
                    assert oracle_is_ideal(table, leq, p, kind)


class TestIsIdeal:
    def test_sl2_zero(self):
        assert is_ideal(SL2, mask_of([0]), "two-sided")

    def test_lz2_one_sided(self):
        assert is_ideal(LZ2, mask_of([0]), "right")
        assert not is_ideal(LZ2, mask_of([0]), "left")

    def test_whole_set_every_kind(self, fixture_structure):
        S = fixture_structure
        for kind in ("left", "right", "two-sided", "bi"):
            assert is_ideal(S, full_mask(S.n), kind)

    def test_empty_raises(self):
        with pytest.raises(EmptySubsetError):
            is_ideal(SL2, 0, "left")

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for m in range(1, 1 << S.n):
                for kind in ("left", "right", "two-sided", "bi"):
                    assert is_ideal(S, m, kind) == oracle_is_ideal(
                        table, leq, mask_set(m), kind
                    )


class TestIsSimple:
    def test_lz2(self):
        assert is_simple(LZ2, "left")
        assert not is_simple(LZ2, "right")
        assert is_simple(LZ2, "two-sided")
        assert not is_simple(LZ2, "t")

    def test_sl2_not_simple(self):
        assert not is_simple(SL2, "two-sided")

    def test_t1_t_simple(self):
        assert is_simple(T1, "t")

    def test_matches_subset_scan_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for kind in ("left", "right", "two-sided", "t"):
                assert is_simple(S, kind) == oracle_simple(table, leq, kind), (S, kind)

    def test_definitional_cross_check(self, corpus3):
        """simple iff every b lies in (SaS u Sa u aS u {a}] for every a."""
        for S in corpus3:
            expected = all(
                principal_ideal(S, a, "two-sided") == full_mask(S.n) for a in range(S.n)
            )
            assert is_simple(S, "two-sided") == expected


class TestKernel:
    def test_fixture_kernels(self):
        assert mask_set(kernel(N2)) == {0}
        assert mask_set(kernel(LZ2)) == {0, 1}
        assert mask_set(kernel(SL2)) == {0}
        assert mask_set(kernel(RZ2)) == {0, 1}

    def test_least_ideal(self, corpus3):
        """kernel is a two-sided ideal contained in every two-sided ideal."""
        for S in corpus3:
            k = kernel(S)
            assert k != 0
            assert is_ideal(S, k, "two-sided")
            table, leq = structure_tables(S)
            for A in oracle_subsets(S.n):
                if A and oracle_is_ideal(table, leq, A, "two-sided"):
                    assert mask_set(k) <= A


class TestRestrict:
    def test_n2_to_zero_is_trivial(self):
        sub = restrict(N2, mask_of([0]))
        assert sub.structure == T1
        assert sub.embed == (0,)

    def test_lz2_singleton(self):
        assert restrict(LZ2, mask_of([0])).structure == T1

    def test_identity_restriction(self):
        sub = restrict(SL2, mask_of([0, 1]))
        assert sub.structure == SL2
        assert sub.embed == (0, 1)

    def test_not_closed(self):
        # {1} in N2: 1*1 = 0 escapes
        with pytest.raises(NotClosedError) as exc:
            restrict(N2, mask_of([1]))
        assert exc.value.witness == (1, 1)

    def test_empty(self):
        with pytest.raises(EmptySubsetError):
            restrict(N2, 0)

    def test_mask_translation(self):
        sub = restrict(SL2, mask_of([1]))
        assert sub.to_ambient(mask_of([0])) == mask_of([1])
        assert sub.embed == (1,)

    def test_inherited_order_and_products(self, corpus3):
        for S in corpus3:
            for m in range(1, 1 << S.n):
                try:
                    sub = restrict(S, m)
                except NotClosedError:
                    continue
                st = sub.structure
                for i, oi in enumerate(sub.embed):
                    for j, oj in enumerate(sub.embed):
                        assert st.leq(i, j) == S.leq(oi, oj)
                        assert sub.embed[st.mul(i, j)] == S.mul(oi, oj)


class TestInterning:
    """Equal substructures are one object; the whole set is S itself."""

    @staticmethod
    def null3(down) -> OrderedSemigroup:
        return OrderedSemigroup(3, ((0, 0, 0),) * 3, down)

    def test_equal_substructures_of_different_structures_are_one_object(self):
        a = restrict(N2, mask_of([0])).structure
        b = restrict(LZ2, mask_of([0])).structure
        assert a == T1 and a is b
        discrete = self.null3((1, 2, 4))
        # {0, 2} of the discrete null semigroup is N2 without its order
        assert restrict(discrete, mask_of([0, 2])).structure is restrict(
            self.null3((1, 2, 4)), mask_of([0, 1])
        ).structure

    def test_whole_set_is_s(self, corpus3):
        for S in corpus3:
            r = restrict(S, full_mask(S.n))
            assert r.structure is S
            assert r.embed == tuple(range(S.n))

    def test_whole_set_is_s_even_when_an_equal_one_is_interned(self):
        interned = restrict(self.null3((1, 3, 4)), mask_of([0, 1])).structure
        assert interned == N2
        fresh = OrderedSemigroup(N2.n, N2.table, N2.down)
        assert restrict(fresh, full_mask(2)).structure is fresh

    def test_same_table_different_order_stays_distinct(self):
        discrete = restrict(self.null3((1, 2, 4)), mask_of([0, 1])).structure
        ordered = restrict(self.null3((1, 3, 4)), mask_of([0, 1])).structure
        assert discrete.table == ordered.table
        assert discrete.down == (1, 2) and ordered.down == (1, 3)
        assert discrete is not ordered


class TestAllIdeals:
    def test_sl2(self):
        assert [mask_set(m) for m in all_ideals(SL2)] == [{0}, {0, 1}]

    def test_sorted_and_complete(self, corpus2):
        for S in corpus2:
            table, leq = structure_tables(S)
            expected = sorted(
                (mask_of(A) for A in oracle_subsets(S.n) if A and oracle_is_ideal(table, leq, A, "two-sided")),
                key=lambda m: (bin(m).count("1"), m),
            )
            assert all_ideals(S) == expected
