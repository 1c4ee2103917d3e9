"""Nil-extensions and complete semilattice congruence machinery."""

from __future__ import annotations

from itertools import islice

import pytest

from conftest import (
    family_conditions_hold,
    mask_set,
    oracle_csl_congruences,
    oracle_is_ideal,
    oracle_nil_extension,
    oracle_power,
    structure_tables,
)
from oseg import decomposition
from oseg.core import OrderedSemigroup, full_mask, mask_of
from oseg.decomposition import (
    MAX_PARTITION_ORDER,
    OrderTooLargeError,
    _partition,
    all_complete_semilattice_congruences,
    is_complete_semilattice_of,
    is_csl_congruence,
    is_nil_extension,
    least_complete_semilattice_congruence,
    nil_extension_ideals,
    nil_extension_of_type,
    partitions,
)
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.fixtures import LZ2, N2, RZ2, SL2, T1
from oseg.ideals import all_ideals, kernel, restrict
from oseg.properties import evaluate, parse_property_expr, type_of
from oseg.regularity import is_right_pi_inverse
from oseg.theorems import (
    TAU_LEFT_SIMPLE_PI_INV,
    TAU_LEFT_SIMPLE_RPI,
    TAU_RIGHT_INVERSE,
    TAU_SIMPLE_PI_INV,
    TAU_SIMPLE_RPI,
    TAU_T_SIMPLE,
    TAU_T_SIMPLE_PI_INV,
    TAU_T_SIMPLE_RPI,
    _nilext_witness,
)

TAU_SIMPLE = type_of(parse_property_expr("simple"))
TAU_LEFT_SIMPLE = type_of(parse_property_expr("left-simple"))
TAU_ARCHIMEDEAN = type_of(parse_property_expr("archimedean"))


def TAU_NE_T_SIMPLE_RPI(S):
    return nil_extension_of_type(S, TAU_T_SIMPLE_RPI) is not None


TAU_RPI = is_right_pi_inverse


class TestNilExtension:
    def test_n2(self):
        ne = is_nil_extension(N2, mask_of([0]))
        assert ne.ok and ne.exponents == (1, 2)

    def test_sl2(self):
        assert not is_nil_extension(SL2, mask_of([0])).ok

    def test_whole_set(self, fixture_structure):
        S = fixture_structure
        ne = is_nil_extension(S, full_mask(S.n))
        assert ne.ok and all(m == 1 for m in ne.exponents)

    def test_non_ideal_is_false(self):
        assert not is_nil_extension(LZ2, mask_of([0])).ok  # {0} not a left ideal
        assert not is_nil_extension(N2, 0).ok

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for m in range(1, 1 << S.n):
                assert is_nil_extension(S, m).ok == oracle_nil_extension(
                    table, leq, mask_set(m)
                )

    def test_exponents_least_power_in_ideal(self, corpus3):
        """exponents[a] is the least m with a^m in K, for every ideal K."""
        for S in corpus3:
            table, leq = structure_tables(S)
            for K in range(1, 1 << S.n):
                if not oracle_is_ideal(table, leq, mask_set(K), "two-sided"):
                    continue
                expected = tuple(
                    next(
                        (m for m in range(1, S.n + 1) if K >> oracle_power(table, a, m) & 1),
                        None,
                    )
                    for a in range(S.n)
                )
                assert is_nil_extension(S, K).exponents == expected

    def test_nil_extension_ideals(self, corpus3):
        """The shared tuple is is_nil_extension per ideal and the oracle's
        choice; it starts with the kernel iff the oracle finds the kernel nil,
        and it always ends with the whole set."""
        for S in corpus3:
            table, leq = structure_tables(S)
            fresh = OrderedSemigroup(S.n, S.table, S.down)
            expected = tuple(K for K in all_ideals(S) if is_nil_extension(S, K).ok)
            assert nil_extension_ideals(fresh) == expected, S
            assert nil_extension_ideals(fresh) == expected, S
            assert expected == tuple(
                K for K in all_ideals(S) if oracle_nil_extension(table, leq, mask_set(K))
            )
            assert (expected[0] == kernel(S)) == oracle_nil_extension(
                table, leq, mask_set(kernel(S))
            )
            assert expected[-1] == full_mask(S.n)


def nilext_by_definition(S, tau) -> bool:
    """Some ideal K of S, by the oracle, with every element having a power
    in K and the restriction to K of type tau."""
    table, leq = structure_tables(S)
    return any(
        oracle_nil_extension(table, leq, mask_set(K)) and tau(restrict(S, K).structure)
        for K in range(1, 1 << S.n)
    )


#: the catalog's seven simplicity types and the two simplicity atoms they
#: leave out, each implying simplicity, then two types that do not
KERNEL_RULE_TYPES = {
    "simple": TAU_SIMPLE,
    "left-simple": TAU_LEFT_SIMPLE,
    "t-simple": TAU_T_SIMPLE,
    "left-simple & right-pi-inverse": TAU_LEFT_SIMPLE_RPI,
    "t-simple & right-pi-inverse": TAU_T_SIMPLE_RPI,
    "simple & right-pi-inverse": TAU_SIMPLE_RPI,
    "left-simple & pi-inverse": TAU_LEFT_SIMPLE_PI_INV,
    "t-simple & pi-inverse": TAU_T_SIMPLE_PI_INV,
    "simple & pi-inverse": TAU_SIMPLE_PI_INV,
    "simple | right-inverse": type_of(parse_property_expr("simple | right-inverse")),
    "!simple": type_of(parse_property_expr("!simple")),
}
FULL_SCAN_TYPES = ("simple | right-inverse", "!simple")


def assert_kernel_rule_by_definition(S) -> None:
    """Each type's nil-extension ideal against the definition; a type that
    implies simplicity finds the kernel or nothing."""
    for name, tau in KERNEL_RULE_TYPES.items():
        assert tau.implies_simple == (name not in FULL_SCAN_TYPES), name
        K = nil_extension_of_type(S, tau)
        if tau.implies_simple:
            assert K in (kernel(S), None), (S, name)
        assert (K is not None) == nilext_by_definition(S, tau), (S, name)


class TestNilExtensionOfType:
    """The first nil-extension ideal of the type, or None; the reasons a
    report gives for None are read through theorems._nilext_witness."""

    def test_n2_t_simple_rpi(self):
        assert mask_set(nil_extension_of_type(N2, TAU_T_SIMPLE_RPI)) == {0}
        assert _nilext_witness(N2, TAU_T_SIMPLE_RPI) == {"ideal": [0], "exponents": [1, 2]}

    def test_rz2_left_simple_fails_type(self):
        assert nil_extension_of_type(RZ2, TAU_LEFT_SIMPLE) is None
        assert _nilext_witness(RZ2, TAU_LEFT_SIMPLE) == {"reason": "type-fails"}

    def test_lz2_simple(self):
        assert mask_set(nil_extension_of_type(LZ2, TAU_SIMPLE)) == {0, 1}

    def test_sl2_kernel_not_nil(self):
        assert nil_extension_of_type(SL2, TAU_SIMPLE) is None
        assert _nilext_witness(SL2, TAU_SIMPLE) == {"reason": "kernel-not-nil"}

    def test_simplicity_types_find_the_kernel_or_nothing(self, corpus3):
        """With a simplicity component in tau, no ideal above the kernel can
        pass, since the kernel is a proper ideal of it; a type without one
        keeps the scan over every nil-extension ideal."""
        for S in corpus3:
            assert_kernel_rule_by_definition(S)

    @pytest.mark.slow
    def test_simplicity_types_every_7th_order_4(self):
        for S in islice(enumerate_ordered_semigroups(4), 0, None, 7):
            assert_kernel_rule_by_definition(S)

    def test_sl2_is_a_nil_extension_of_itself(self):
        """SL2 is trivially a nil-extension of itself, which is right inverse,
        though its kernel is not a nil-extension ideal: a type without a
        simplicity component can be found above the kernel."""
        assert nil_extension_of_type(SL2, TAU_RIGHT_INVERSE) == full_mask(2)
        assert _nilext_witness(SL2, TAU_RIGHT_INVERSE) == {"ideal": [0, 1], "exponents": [1, 1]}

    @pytest.mark.parametrize("tau", ["right-inverse", "regular", "!simple"])
    def test_nil_ext_of_atom_by_definition(self, corpus3, tau):
        """evaluate's nil-ext-of(tau) against the oracle's nil-extension
        ideals and the type, over every ideal, for types with no
        simplicity component."""
        e = parse_property_expr(f"nil-ext-of({tau})")
        t = type_of(parse_property_expr(tau))
        for S in corpus3:
            assert evaluate(S, e) == nilext_by_definition(S, t), (S, tau)


class TestCongruenceCheckers:
    def test_lz2(self):
        assert is_csl_congruence(LZ2, (0, 0))
        assert not is_csl_congruence(LZ2, (0, 1))  # ab and ba not identified

    def test_sl2(self):
        assert is_csl_congruence(SL2, (0, 1))
        assert is_csl_congruence(SL2, (0, 0))

    def test_dual_definitions_agree(self, corpus3):
        """Congruence-style and family-style checkers agree on every partition."""
        for S in corpus3:
            for p in partitions(S.n):
                assert is_csl_congruence(S, p) == family_conditions_hold(S, p), (S, p)

    def test_partition_count(self):
        # Bell numbers 1, 2, 5, 15, 52
        for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52)):
            assert sum(1 for _ in partitions(n)) == bell


class TestLeastCongruence:
    def test_fixtures(self):
        assert least_complete_semilattice_congruence(LZ2).classes_as_lists() == [[0, 1]]
        assert least_complete_semilattice_congruence(SL2).classes_as_lists() == [[0], [1]]
        assert least_complete_semilattice_congruence(N2).classes_as_lists() == [[0, 1]]

    def test_is_valid_congruence(self, corpus3):
        for S in corpus3:
            p = least_complete_semilattice_congruence(S)
            assert is_csl_congruence(S, p.class_of)
            assert family_conditions_hold(S, p.class_of)

    def test_least_among_all(self, corpus3):
        for S in corpus3:
            least = least_complete_semilattice_congruence(S)
            for p in all_complete_semilattice_congruences(S):
                assert least.refines(p), (S, p.classes_as_lists())
            # the scan starts from the least congruence, so refines holds by
            # construction; the family-style reference scans every partition
            assert all_complete_semilattice_congruences(S) == [
                _partition(p) for p in partitions(S.n) if family_conditions_hold(S, p)
            ], S

    def test_classes_multiplicatively_closed(self, corpus3):
        for S in corpus3:
            for p in all_complete_semilattice_congruences(S):
                for cmask in p.classes:
                    restrict(S, cmask)  # raises NotClosedError if not closed


class TestAllCongruences:
    def test_t1(self):
        assert [p.classes_as_lists() for p in all_complete_semilattice_congruences(T1)] == [
            [[0]]
        ]

    def test_sl2(self):
        got = [p.classes_as_lists() for p in all_complete_semilattice_congruences(SL2)]
        assert got == [[[0, 1]], [[0], [1]]]

    def test_lz2(self):
        got = [p.classes_as_lists() for p in all_complete_semilattice_congruences(LZ2)]
        assert got == [[[0, 1]]]

    def test_order_cap(self):
        from oseg.core import OrderedSemigroup

        n = MAX_PARTITION_ORDER + 1
        table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        down = tuple(1 << i for i in range(n))
        big = OrderedSemigroup(n, table, down)
        with pytest.raises(OrderTooLargeError):
            all_complete_semilattice_congruences(big)

    def test_rejects_non_congruence(self):
        """Rejected for splitting a class of the least congruence (LZ2), and
        for a partition holding it that is not compatible: in the semilattice
        0 < 1, 0 < 2 with 1*2 = 0, merging 1 and 2 sends 1*1 and 1*2 apart."""
        assert not is_csl_congruence(LZ2, (0, 1))
        V = OrderedSemigroup(3, ((0, 0, 0), (0, 1, 0), (0, 0, 2)), (0b001, 0b011, 0b101))
        assert least_complete_semilattice_congruence(V).class_of == (0, 1, 2)
        assert not is_csl_congruence(V, (0, 1, 1))
        assert is_csl_congruence(V, (0, 0, 1)) and is_csl_congruence(V, (0, 0, 0))


class TestIsCompleteSemilatticeOf:
    def test_sl2_nilext_t_simple_rpi(self):
        r = is_complete_semilattice_of(SL2, TAU_NE_T_SIMPLE_RPI)
        assert r.holds and r.witness.classes_as_lists() == [[0], [1]]

    def test_lz2_archimedean(self):
        assert is_complete_semilattice_of(LZ2, TAU_ARCHIMEDEAN).holds

    def test_lz2_rpi_fails(self):
        r = is_complete_semilattice_of(LZ2, TAU_RPI)
        assert not r.holds and r.witness is None and r.mode == "exhaustive"

    def test_exhaustive_agrees_with_direct_scan(self, corpus3):
        types = {
            "archimedean": TAU_ARCHIMEDEAN,
            "right-pi-inverse": TAU_RPI,
            "nil-ext-of(t-simple & right-pi-inverse)": TAU_NE_T_SIMPLE_RPI,
        }
        for S in corpus3:
            for name, tau in types.items():
                got = is_complete_semilattice_of(S, tau)
                expected = None
                for p in all_complete_semilattice_congruences(S):
                    if all(tau(restrict(S, c).structure) for c in p.classes):
                        expected = p
                        break
                assert got.holds == (expected is not None), (S, name)
                if got.holds:
                    assert all(tau(restrict(S, c).structure) for c in got.witness.classes)

    def test_failing_least_congruence_tested_once(self):
        """N2 has one complete semilattice congruence, its least one."""
        calls = []

        def tau(S):
            calls.append(S.n)
            return False

        r = is_complete_semilattice_of(N2, tau)
        assert not r.holds and r.mode == "exhaustive"
        assert calls == [2]

    @pytest.mark.parametrize("depth", [1, 2, 5, 10, 99])
    def test_nested_csl_of_restricts_once_per_level(self, monkeypatch, depth):
        calls = []

        def counting_restrict(S, mask):
            calls.append(mask)
            return restrict(S, mask)

        monkeypatch.setattr(decomposition, "restrict", counting_restrict)
        # a fresh N2: the shared fixture keeps the verdicts of earlier depths
        fresh = OrderedSemigroup(N2.n, N2.table, N2.down)
        e = parse_property_expr("csl-of(" * depth + "simple" + ")" * depth)
        assert not evaluate(fresh, e)
        assert len(calls) == depth


def assert_csl_lattice_matches_oracle(S: OrderedSemigroup) -> None:
    """The least congruence is the oracle's finest one, and the scan lists
    exactly the oracle's congruences, in partition order."""
    expected = oracle_csl_congruences(*structure_tables(S))
    rng = range(S.n)
    finest = [
        p
        for p in expected
        if all(q[a] == q[b] for q in expected for a in rng for b in rng if p[a] == p[b])
    ]
    assert [least_complete_semilattice_congruence(S).class_of] == finest, S
    assert [p.class_of for p in all_complete_semilattice_congruences(S)] == expected, S


class TestCslOracle:
    def test_order_up_to_3(self, corpus3):
        for S in corpus3:
            assert_csl_lattice_matches_oracle(S)

    @pytest.mark.slow
    def test_every_7th_of_order_4(self):
        count = 0
        for S in islice(enumerate_ordered_semigroups(4), 0, None, 7):
            assert_csl_lattice_matches_oracle(S)
            count += 1
        assert count == 15384


@pytest.mark.slow
class TestOrderFourInvariants:
    """The order-4 sweep of the congruence invariants, one pass."""

    def test_least_refines_all_and_classes_closed(self):
        count = 0
        for S in enumerate_ordered_semigroups(4):
            count += 1
            least = least_complete_semilattice_congruence(S)
            assert is_csl_congruence(S, least.class_of)
            for p in all_complete_semilattice_congruences(S):
                assert least.refines(p)
                for cmask in p.classes:
                    restrict(S, cmask)
            assert all_complete_semilattice_congruences(S) == [
                _partition(p) for p in partitions(S.n) if family_conditions_hold(S, p)
            ]
        assert count == 107688
