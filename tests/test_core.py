"""Core structure type: validation, downsets, products, powers, JSON."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from conftest import (
    oracle_associative,
    oracle_compatible,
    oracle_downset,
    oracle_poset,
    oracle_power,
    oracle_power_values,
    oracle_product,
    mask_set,
    structure_tables,
)
from oseg.core import (
    InvalidStructureError,
    NotAssociative,
    NotCompatible,
    NotPartialOrder,
    OrderedSemigroup,
    StructureFormatError,
    _powers,
    axiom_violations,
    canonical_json,
    downset,
    from_json_dict,
    full_mask,
    mask_of,
    parse_structure,
    power,
    subset_product,
    to_json_dict,
    validate,
)
from oseg.enumeration import enumerate_tables
from oseg.fixtures import FIXTURES, LZ2, N2, SL2, T1


DISCRETE2 = [[True, False], [False, True]]


class TestValidate:
    def test_lz2_valid(self):
        # hand oracle: all 8 triples of the left-zero table associate
        table = [[0, 0], [1, 1]]
        assert oracle_associative(table)
        S = validate(2, table, DISCRETE2)
        assert S.n == 2 and S.table == ((0, 0), (1, 1))

    def test_trivial_valid(self):
        S = validate(1, [[0]], [[True]])
        assert S == T1

    def test_incompatible_order_reported(self):
        # the two-element group admits no nontrivial compatible order:
        # 0 <= 1 would force 1 = 1*0 <= 1*1 = 0
        table = [[0, 1], [1, 0]]
        leq = [[True, True], [False, True]]  # 0 <= 1
        assert oracle_associative(table)
        assert not oracle_compatible(table, leq)
        with pytest.raises(InvalidStructureError) as exc:
            validate(2, table, leq)
        assert any(isinstance(v, NotCompatible) for v in exc.value.violations)

    def test_not_associative_witness(self):
        table = [[1, 1], [0, 0]]
        assert not oracle_associative(table)
        violations = axiom_violations(2, table, DISCRETE2)
        assert any(isinstance(v, NotAssociative) for v in violations)

    def test_order_axiom_witnesses(self):
        table = [[0, 0], [1, 1]]
        not_reflexive = [[False, False], [False, True]]
        violations = axiom_violations(2, table, not_reflexive)
        assert NotPartialOrder("reflexive", 0, 0) in violations
        not_antisym = [[True, True], [True, True]]
        violations = axiom_violations(2, table, not_antisym)
        assert any(
            isinstance(v, NotPartialOrder) and v.axiom == "antisymmetric" for v in violations
        )
        not_trans = [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
        violations = axiom_violations(3, [[0] * 3] * 3, not_trans)
        assert any(
            isinstance(v, NotPartialOrder) and v.axiom == "transitive" for v in violations
        )

    def test_shape_and_range_rejected(self):
        with pytest.raises(StructureFormatError):
            validate(2, [[0, 2], [1, 1]], DISCRETE2)
        with pytest.raises(StructureFormatError):
            validate(0, [], [])
        with pytest.raises(StructureFormatError):
            validate(2, [[0, 0]], DISCRETE2)
        with pytest.raises(StructureFormatError, match="leq must be 2x2"):
            validate(2, [[0, 0], [0, 0]], [[True, False], [True]])

    @pytest.mark.parametrize("order", [2.0, True, "2", None])
    def test_non_integer_order_rejected(self, order):
        with pytest.raises(StructureFormatError, match="order must be a positive integer"):
            validate(order, [[0, 0], [0, 0]], DISCRETE2)

    def test_agrees_with_naive_oracle_order_2(self):
        """validate accepts exactly what the triple-loop oracle accepts."""
        from itertools import product as iproduct

        accepted_by_oracle = 0
        for flat in iproduct(range(2), repeat=4):
            table = [list(flat[:2]), list(flat[2:])]
            for bits in iproduct((False, True), repeat=2):
                leq = [[True, bits[0]], [bits[1], True]]
                ok = (
                    oracle_associative(table)
                    and oracle_poset(leq)
                    and oracle_compatible(table, leq)
                )
                accepted_by_oracle += ok
                try:
                    validate(2, table, leq)
                    accepted = True
                except InvalidStructureError:
                    accepted = False
                assert accepted == ok, (table, leq)
        assert accepted_by_oracle == 20


class TestDownset:
    def test_n2_downset(self):
        assert mask_set(downset(N2, mask_of([1]))) == {0, 1}

    def test_empty(self, fixture_structure):
        assert downset(fixture_structure, 0) == 0

    def test_discrete_fixes_sets(self):
        assert downset(LZ2, mask_of([0])) == mask_of([0])

    @given(data=st.data())
    def test_closure_operator(self, data):
        """Monotone, extensive, idempotent, on random subsets of fixtures."""
        S = data.draw(st.sampled_from(sorted(FIXTURES)), label="fixture")
        S = FIXTURES[S]
        a = data.draw(st.integers(0, full_mask(S.n)), label="A")
        b = data.draw(st.integers(0, full_mask(S.n)), label="B")
        da, db = downset(S, a), downset(S, b)
        assert da | a == da  # extensive
        assert downset(S, da) == da  # idempotent
        if a | b == b:
            assert da | db == db  # monotone

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(1 << S.n):
                assert mask_set(downset(S, a)) == oracle_downset(leq, mask_set(a))


class TestSubsetProduct:
    def test_lz2(self):
        assert mask_set(subset_product(LZ2, mask_of([0, 1]), mask_of([0]))) == {0, 1}

    def test_n2_all_products_zero(self):
        assert subset_product(N2, mask_of([0, 1]), mask_of([0, 1])) == mask_of([0])

    def test_empty(self, fixture_structure):
        assert subset_product(fixture_structure, 0, full_mask(fixture_structure.n)) == 0

    def test_associative_as_subset_operation(self, corpus3):
        for S in corpus3:
            if S.n > 2:
                continue  # keep the exhaustive triple scan quick
            subsets = range(1 << S.n)
            for a in subsets:
                for b in subsets:
                    ab = subset_product(S, a, b)
                    for c in subsets:
                        assert subset_product(S, ab, c) == subset_product(
                            S, a, subset_product(S, b, c)
                        )

    def test_associative_as_subset_operation_order3(self, corpus3):
        for S in corpus3:
            if S.n != 3:
                continue
            subsets = list(range(1 << 3))
            for a in subsets:
                for b in subsets:
                    ab = subset_product(S, a, b)
                    for c in subsets:
                        assert subset_product(S, ab, c) == subset_product(
                            S, a, subset_product(S, b, c)
                        )

    def test_matches_oracle(self, corpus2):
        for S in corpus2:
            table, _ = structure_tables(S)
            for a in range(1 << S.n):
                for b in range(1 << S.n):
                    assert mask_set(subset_product(S, a, b)) == oracle_product(
                        table, mask_set(a), mask_set(b)
                    )


class TestPowers:
    def test_n2(self):
        assert power(N2, 1, 2) == 0

    def test_idempotent(self):
        for m in range(1, 6):
            assert power(SL2, 1, m) == 1

    def test_left_zero(self):
        assert power(LZ2, 0, 5) == 0

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            power(T1, 0, 0)

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, _ = structure_tables(S)
            for a in range(S.n):
                for m in range(1, 2 * S.n + 2):
                    assert power(S, a, m) == oracle_power(table, a, m)

    def test_profile_bound_over_order4_tables(self):
        """a^1..a^n hold every distinct power, for every table with n <= 4."""
        for n in (1, 2, 3, 4):
            for table in enumerate_tables(n):
                S = OrderedSemigroup(
                    n, table, tuple(1 << i for i in range(n))
                )  # discrete order; powers ignore leq
                for a, row in enumerate(_powers(S)):
                    assert set(row) == oracle_power_values(table, a)
                    assert row == tuple(oracle_power(table, a, m) for m in range(1, n + 1))


class TestJson:
    def test_roundtrip(self, fixture_structure):
        S = fixture_structure
        assert parse_structure(canonical_json(S)) == S

    def test_canonical_fields_and_reflexive_pairs(self):
        obj = json.loads(canonical_json(N2))
        assert list(obj) == ["order", "table", "leq"]
        assert obj == {"order": 2, "table": [[0, 0], [0, 0]], "leq": [[0, 0], [0, 1], [1, 1]]}

    def test_bit_exact(self):
        assert (
            canonical_json(SL2)
            == '{"order":2,"table":[[0,0],[0,1]],"leq":[[0,0],[0,1],[1,1]]}'
        )

    def test_out_of_range_rejected_before_axioms(self):
        # the table is not associative AND an index is bad: format error wins
        with pytest.raises(StructureFormatError):
            from_json_dict({"order": 2, "table": [[1, 1], [0, 9]], "leq": [[0, 0], [1, 1]]})
        with pytest.raises(StructureFormatError):
            from_json_dict({"order": 2, "table": [[0, 0], [1, 1]], "leq": [[0, 2], [0, 0], [1, 1]]})

    def test_malformed(self):
        with pytest.raises(StructureFormatError):
            parse_structure("not json")
        with pytest.raises(StructureFormatError):
            from_json_dict([1, 2])
        with pytest.raises(StructureFormatError):
            from_json_dict({"order": 2, "table": [[0, 0], [1, 1]]})

    def test_shape_left_to_validate(self):
        with pytest.raises(StructureFormatError, match="table must be 2x2"):
            from_json_dict({"order": 2, "table": [[0, 0], [0]], "leq": [[0, 0], [1, 1]]})
        with pytest.raises(StructureFormatError, match="order must be a positive integer"):
            from_json_dict({"order": 0, "table": [], "leq": []})
        # the leq matrix follows the table, so a huge order allocates nothing
        with pytest.raises(StructureFormatError, match="table must be"):
            from_json_dict({"order": 10**12, "table": [[0]], "leq": [[0, 0]]})

    def test_missing_reflexive_pair_is_axiom_error(self):
        with pytest.raises(InvalidStructureError):
            from_json_dict({"order": 1, "table": [[0]], "leq": []})

    def test_json_dict_matches(self, corpus2):
        for S in corpus2:
            assert from_json_dict(to_json_dict(S)) == S
