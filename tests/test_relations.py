"""Green's relations, starred relations, divisibility, Archimedean flavors."""

from __future__ import annotations

import pytest

from conftest import (
    oracle_archimedean,
    oracle_divides,
    oracle_green_related,
    structure_tables,
)
from oseg.fixtures import LZ2, N2, RZ2, SL2, T1
from oseg.ideals import is_ideal, is_simple, principal_ideal
from oseg.regularity import regular_elements
from oseg.relations import green, green_star, is_archimedean


class TestGreen:
    def test_lz2(self):
        assert green(LZ2, "L").is_universal()
        assert green(LZ2, "R").rows == (0b01, 0b10)
        assert green(LZ2, "H").rows == (0b01, 0b10)

    def test_n2_j(self):
        assert not green(N2, "J").related(1, 0)

    def test_t1_universal(self):
        for which in ("L", "R", "J", "H"):
            assert green(T1, which).is_universal()

    def test_equivalence_axioms(self, corpus3):
        for S in corpus3:
            for which in ("L", "R", "J", "H"):
                rel = green(S, which)
                for i in range(S.n):
                    assert rel.related(i, i)
                    for j in range(S.n):
                        assert rel.related(i, j) == rel.related(j, i)
                        for k in range(S.n):
                            if rel.related(i, j) and rel.related(j, k):
                                assert rel.related(i, k)

    def test_h_is_l_meet_r(self, corpus3):
        for S in corpus3:
            lrows = green(S, "L").rows
            rrows = green(S, "R").rows
            assert green(S, "H").rows == tuple(a & b for a, b in zip(lrows, rrows))

    def test_matches_oracle(self, corpus2):
        for S in corpus2:
            table, leq = structure_tables(S)
            for which in ("L", "R", "J", "H"):
                rel = green(S, which)
                for a in range(S.n):
                    for b in range(S.n):
                        assert rel.related(a, b) == oracle_green_related(
                            table, leq, a, b, which
                        )

    def test_classes_ordering(self):
        assert green(LZ2, "R").classes() == [[0], [1]]
        assert green(LZ2, "L").classes() == [[0, 1]]


class TestGreenStar:
    def test_n2_l_star(self):
        assert green_star(N2, "L*").related(1, 0)

    def test_sl2_star_equals_plain(self):
        # every element regular: minimal powers are 1
        for which in ("L", "R", "J", "H"):
            assert green_star(SL2, which + "*").rows == green(SL2, which).rows

    def test_lz2_r_star_identity(self):
        assert green_star(LZ2, "R*").rows == (0b01, 0b10)

    def test_h_star_is_meet(self, corpus3):
        for S in corpus3:
            lrows = green_star(S, "L*").rows
            rrows = green_star(S, "R*").rows
            assert green_star(S, "H*").rows == tuple(a & b for a, b in zip(lrows, rrows))

    def test_regular_pairs_reduce_to_plain(self, corpus3):
        """a R b implies a R* b when both are regular (minimal powers 1)."""
        for S in corpus3:
            reg = regular_elements(S)
            plain = green(S, "R")
            star = green_star(S, "R*")
            for a in range(S.n):
                for b in range(S.n):
                    if reg >> a & 1 and reg >> b & 1 and plain.related(a, b):
                        assert star.related(a, b)

    def test_star_via_minimal_regular_powers_oracle(self, corpus3):
        """Definitional recomputation with explicit minimal exponents."""
        from oseg.core import power

        for S in corpus3:
            reps = []
            for a in range(S.n):
                m = 1
                while not regular_elements(S) >> power(S, a, m) & 1:
                    m += 1
                reps.append(power(S, a, m))
            for which in ("L", "R", "J"):
                rel = green_star(S, which + "*")
                base = green(S, which)
                for a in range(S.n):
                    for b in range(S.n):
                        assert rel.related(a, b) == base.related(reps[a], reps[b])


def divides(S, a, b) -> bool:
    """a | b read as the package decides it: b in the principal two-sided ideal of a."""
    return principal_ideal(S, a, "two-sided") >> b & 1 == 1


class TestDivides:
    def test_reflexive(self, fixture_structure):
        S = fixture_structure
        for a in range(S.n):
            assert divides(S, a, a)

    def test_n2(self):
        assert divides(N2, 1, 0)

    def test_sl2(self):
        assert not divides(SL2, 0, 1)

    def test_via_explicit_extension_scan(self, corpus3):
        """b <= x*a*y with x, y ranging over S with 1 adjoined."""
        for S in corpus3:
            table, leq = structure_tables(S)
            for a in range(S.n):
                for b in range(S.n):
                    assert divides(S, a, b) == oracle_divides(table, leq, a, b)


class TestArchimedean:
    def test_lz2(self):
        assert is_archimedean(LZ2, "l")
        assert not is_archimedean(LZ2, "r")
        assert not is_archimedean(LZ2, "t")
        assert is_archimedean(LZ2, "two-sided")

    def test_rz2_mirror(self):
        assert is_archimedean(RZ2, "r")
        assert not is_archimedean(RZ2, "l")

    def test_n2_t(self):
        assert is_archimedean(N2, "t")

    def test_sl2_not(self):
        assert not is_archimedean(SL2, "two-sided")

    def test_flavor_implications(self, corpus3):
        """t implies l and r; l or r implies two-sided."""
        for S in corpus3:
            if is_archimedean(S, "t"):
                assert is_archimedean(S, "l") and is_archimedean(S, "r")
            if is_archimedean(S, "l") or is_archimedean(S, "r"):
                assert is_archimedean(S, "two-sided")

    def test_matches_oracle(self, corpus3):
        for S in corpus3:
            table, leq = structure_tables(S)
            for flavor in ("two-sided", "l", "r", "t"):
                assert is_archimedean(S, flavor) == oracle_archimedean(table, leq, flavor), (
                    S,
                    flavor,
                )

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            is_archimedean(T1, "diagonal")


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda S, kind: principal_ideal(S, 0, kind), "x"),
        (lambda S, kind: is_ideal(S, 0b01, kind), "x"),
        (is_simple, "x"),
        (green, "X"),
        (green_star, "L"),
        (is_archimedean, "diagonal"),
    ],
    ids=["principal_ideal", "is_ideal", "is_simple", "green", "green_star", "is_archimedean"],
)
def test_name_tables_reject_unknown_names(call, name):
    """Each lookup of a record field by name raises ValueError for a name
    its table does not hold."""
    with pytest.raises(ValueError, match="unknown"):
        call(N2, name)
