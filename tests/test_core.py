"""Core structure type: validation, downsets, products, powers, JSON."""

from __future__ import annotations

import json
from itertools import product

import pytest
from hypothesis import given, strategies as st

from conftest import (
    oracle_associative,
    oracle_compatible,
    oracle_downset,
    oracle_first_regular_power,
    oracle_green_related,
    oracle_inverses,
    oracle_kernel,
    oracle_nil_extension_ideals,
    oracle_ordered_idempotents,
    oracle_pairwise_related,
    oracle_pi_inverse_family,
    oracle_pi_rv_set,
    oracle_poset,
    oracle_power,
    oracle_power_values,
    oracle_principal_ideal,
    oracle_product,
    oracle_regular,
    oracle_rv_set,
    oracle_star_related,
    mask_set,
    structure_tables,
)
from oseg.core import (
    InvalidStructureError,
    OrderedSemigroup,
    StructureFormatError,
    Violation,
    associativity_violations,
    axiom_violations,
    canonical_json,
    downset,
    from_json_dict,
    full_mask,
    iter_mask,
    mask_of,
    one_sided,
    parse_structure,
    to_json_dict,
    two_sided,
    validate,
)
from oseg.enumeration import enumerate_tables
from oseg.fixtures import FIXTURES, LZ2, N2, SL2, T1
from oseg.relations import green


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
        axioms = {v.axiom for v in exc.value.violations}
        assert {"left-compatible", "right-compatible"} <= axioms

    def test_not_associative_witness(self):
        table = [[1, 1], [0, 0]]
        assert not oracle_associative(table)
        violations = axiom_violations(2, table, DISCRETE2)
        assert any(v.axiom == "associative" for v in violations)

    def test_order_axiom_witnesses(self):
        table = [[0, 0], [1, 1]]
        not_reflexive = [[False, False], [False, True]]
        violations = axiom_violations(2, table, not_reflexive)
        assert Violation("reflexive", (0, 0)) in violations
        not_antisym = [[True, True], [True, True]]
        violations = axiom_violations(2, table, not_antisym)
        assert any(v.axiom == "antisymmetric" for v in violations)
        not_trans = [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
        violations = axiom_violations(3, [[0] * 3] * 3, not_trans)
        assert any(v.axiom == "transitive" for v in violations)

    def test_associativity_violations_match_oracle(self):
        """Empty exactly on the associative tables, over all 19700 tables
        of order <= 3; each witness is a non-associating triple."""
        seen = 0
        for n in (1, 2, 3):
            for flat in product(range(n), repeat=n * n):
                table = [flat[i * n : (i + 1) * n] for i in range(n)]
                violations = associativity_violations(table)
                assert (violations == []) == oracle_associative(table), table
                for axiom, (i, j, k) in violations:
                    assert axiom == "associative"
                    assert table[table[i][j]][k] != table[i][table[j][k]]
                seen += 1
        assert seen == 19700

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


def test_iter_mask_lists_set_bits_least_first():
    """Below 64 from the members table, from 64 up by the bit walk."""
    for m in range(1 << 8):
        assert list(iter_mask(m)) == [i for i in range(8) if m >> i & 1]


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
    """The closed subset products the records hold: (Sa] and (aS] in the
    one-sided record, (aSa] and (SaS] in the two-sided one."""

    def test_lz2(self):
        assert mask_set(one_sided(LZ2).sa[0]) == {0, 1}

    def test_n2_all_products_zero(self):
        one, two = one_sided(N2), two_sided(N2)
        for products in (one.sa, one.as_, two.asa, two.sas):
            assert products == (mask_of([0]), mask_of([0]))

    def test_associative_as_subset_operation(self, corpus3):
        """((aS]a] = (a(Sa]] = (aSa] and ((Sa]S] = (S(aS]] = (SaS]."""
        for S in corpus3:
            if S.n <= 2:
                assert_closed_products_associate(S)

    def test_associative_as_subset_operation_order3(self, corpus3):
        for S in corpus3:
            if S.n == 3:
                assert_closed_products_associate(S)

    def test_matches_oracle(self, corpus2):
        for S in corpus2:
            table, leq = structure_tables(S)
            full = set(range(S.n))
            one, two = one_sided(S), two_sided(S)
            for a in range(S.n):
                assert mask_set(one.sa[a]) == oracle_downset(leq, oracle_product(table, full, {a}))
                assert mask_set(one.as_[a]) == oracle_downset(leq, oracle_product(table, {a}, full))
                assert mask_set(two.asa[a]) == oracle_downset(
                    leq, oracle_product(table, oracle_product(table, {a}, full), {a})
                )
                assert mask_set(two.sas[a]) == oracle_downset(
                    leq, oracle_product(table, oracle_product(table, full, {a}), full)
                )


def assert_closed_products_associate(S: OrderedSemigroup) -> None:
    table, leq = structure_tables(S)
    full = set(range(S.n))
    one, two = one_sided(S), two_sided(S)
    for a in range(S.n):
        as_, sa = mask_set(one.as_[a]), mask_set(one.sa[a])
        asa = mask_set(two.asa[a])
        assert oracle_downset(leq, oracle_product(table, as_, {a})) == asa, (S, a)
        assert oracle_downset(leq, oracle_product(table, {a}, sa)) == asa, (S, a)
        sas = mask_set(two.sas[a])
        assert oracle_downset(leq, oracle_product(table, sa, full)) == sas, (S, a)
        assert oracle_downset(leq, oracle_product(table, full, as_)) == sas, (S, a)


class TestPowers:
    """a^m read off the one-sided record, which holds m = 1..n."""

    def test_n2(self):
        assert one_sided(N2).powers[1][1] == 0

    def test_idempotent(self):
        assert one_sided(SL2).powers[1] == (1, 1)

    def test_left_zero(self):
        assert one_sided(LZ2).powers[0] == (0, 0)

    def test_matches_oracle(self, corpus3):
        """The first n powers, and every later one among them."""
        for S in corpus3:
            table, _ = structure_tables(S)
            rec = one_sided(S)
            for a in range(S.n):
                assert rec.powers[a] == tuple(oracle_power(table, a, m) for m in range(1, S.n + 1))
                for m in range(S.n + 1, 2 * S.n + 2):
                    assert rec.power_masks[a] >> oracle_power(table, a, m) & 1

    def test_profile_bound_over_order4_tables(self):
        """a^1..a^n hold every distinct power, for every table with n <= 4."""
        for n in (1, 2, 3, 4):
            for table in enumerate_tables(n):
                S = OrderedSemigroup(
                    n, table, tuple(1 << i for i in range(n))
                )  # discrete order; powers ignore leq
                for a, row in enumerate(one_sided(S).powers):
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


def assert_record_matches_oracles(S: OrderedSemigroup) -> None:
    """Every field of S's two-sided record, and the starred relations read
    off it, against the oracles."""
    table, leq = structure_tables(S)
    rng = range(S.n)
    full = set(rng)
    rec = two_sided(S)
    for a in rng:
        assert mask_set(rec.asa[a]) == oracle_downset(
            leq, oracle_product(table, oracle_product(table, {a}, full), {a})
        ), (S, a)
        assert mask_set(rec.sas[a]) == oracle_downset(
            leq, oracle_product(table, oracle_product(table, full, {a}), full)
        ), (S, a)
        assert mask_set(rec.ideal[a]) == oracle_principal_ideal(table, leq, a, "two-sided"), (S, a)
        assert rec.first_regular[a] == oracle_first_regular_power(table, leq, a), (S, a)
        for b in rng:
            assert (rec.j_rows[a] >> b & 1 == 1) == oracle_green_related(table, leq, a, b, "J")
            for which in ("L*", "R*", "J*", "H*"):
                assert (green(S, which)[a] >> b & 1 == 1) == oracle_star_related(
                    table, leq, a, b, which
                ), (S, a, b, which)
    assert mask_set(rec.regular) == {a for a in rng if oracle_regular(table, leq, a)}, S
    assert mask_set(rec.kernel) == oracle_kernel(table, leq), S
    assert mask_set(rec.idempotents) == oracle_ordered_idempotents(table, leq), S


def assert_one_sided_matches_oracles(S: OrderedSemigroup) -> None:
    """Every field of S's one-sided record against the oracles."""
    table, leq = structure_tables(S)
    rng = range(S.n)
    full = set(rng)
    rec = one_sided(S)
    for a in rng:
        assert rec.powers[a] == tuple(oracle_power(table, a, m) for m in range(1, S.n + 1)), (S, a)
        assert mask_set(rec.power_masks[a]) == oracle_power_values(table, a), (S, a)
        assert mask_set(rec.sa[a]) == oracle_downset(leq, oracle_product(table, full, {a})), (S, a)
        assert mask_set(rec.as_[a]) == oracle_downset(leq, oracle_product(table, {a}, full)), (S, a)
        assert mask_set(rec.left_ideal[a]) == oracle_principal_ideal(table, leq, a, "left"), (S, a)
        assert mask_set(rec.right_ideal[a]) == oracle_principal_ideal(table, leq, a, "right"), (S, a)
        for which, rows in (("L", rec.l_rows), ("R", rec.r_rows), ("H", rec.h_rows)):
            for b in rng:
                assert (rows[a] >> b & 1 == 1) == oracle_green_related(table, leq, a, b, which), (S, a, b)
        assert mask_set(rec.inverses[a]) == oracle_inverses(table, leq, a), (S, a)
    assert mask_set(rec.r_agree) == oracle_rv_set(table, leq), S
    assert mask_set(rec.r_pi) == oracle_pi_rv_set(table, leq), S
    for which, agree, pi in (("L", rec.l_agree, rec.l_pi), ("H", rec.h_agree, rec.h_pi)):
        assert mask_set(agree) == {
            a for a in rng if (v := oracle_inverses(table, leq, a)) and oracle_pairwise_related(table, leq, v, which)
        }, (S, which)
        assert mask_set(pi) == {a for a in rng if oracle_power_values(table, a) & mask_set(agree)}, (S, which)
    for which, pi in (("L", rec.l_pi), ("R", rec.r_pi), ("H", rec.h_pi)):
        assert (pi == full_mask(S.n)) == oracle_pi_inverse_family(table, leq, which), (S, which)


class TestOneSidedRecord:
    def test_matches_oracles(self, corpus3):
        for S in corpus3:
            assert_one_sided_matches_oracles(S)

    @pytest.mark.slow
    def test_matches_oracles_every_7th_order_4(self):
        from test_oracle_sweep import assert_order_4_holds  # imports this module

        assert_order_4_holds(assert_one_sided_matches_oracles)


class TestOracleMemo:
    """conftest's memoised oracle primitives share a fact between two
    structures only when their tables and orders are equal."""

    def test_facts_follow_the_table_and_order_values(self, corpus2):
        """One pair of list objects, rewritten in place to each order-2
        structure in turn: a memo keyed on the objects, or on the element
        alone, would hand the first structure's facts to the next."""
        table = [[0, 0], [0, 0]]
        leq = [[True, False], [False, True]]
        seen = set()
        for S in corpus2:
            if S.n != 2:
                continue
            t, le = structure_tables(S)
            table[:] = map(list, t)
            leq[:] = map(list, le)
            facts = [oracle_nil_extension_ideals(table, leq)]
            assert facts[0] == oracle_nil_extension_ideals.__wrapped__(table, leq), S
            for a in range(2):
                for f, args in (
                    (oracle_power_values, (table, a)),
                    (oracle_regular, (table, leq, a)),
                    (oracle_first_regular_power, (table, leq, a)),
                    (oracle_inverses, (table, leq, a)),
                    *((oracle_principal_ideal, (table, leq, a, kind)) for kind in ("left", "right", "two-sided")),
                    *((oracle_green_related, (table, leq, a, b, w)) for b in range(2) for w in "LRJH"),
                ):
                    fact = f(*args)
                    assert fact == f.__wrapped__(*args), (S, f.__name__, args[-1])
                    assert isinstance(fact, (bool, int, frozenset)), f.__name__
                    facts.append(fact)
            seen.add(tuple(facts))
        assert len(seen) > 1  # the structures' facts differ, so a shared fact shows


class TestTwoSidedRecord:
    def test_matches_oracles(self, corpus3):
        for S in corpus3:
            assert_record_matches_oracles(S)

    @pytest.mark.slow
    def test_matches_oracles_every_7th_order_4(self):
        from test_oracle_sweep import assert_order_4_holds  # imports this module

        assert_order_4_holds(assert_record_matches_oracles)

    def test_n2(self):
        rec = two_sided(N2)
        assert (rec.kernel, rec.regular, rec.idempotents) == (0b01, 0b01, 0b01)
        assert rec.first_regular == (0, 0)
