"""The theorem catalog: fixture spot checks and exhaustive consistency."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import oseg
from conftest import oracle_divides, oracle_rv_set, structure_tables
from oseg.core import OrderedSemigroup, OrderTooLargeError, canonical_json, members, one_sided, two_sided
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.fixtures import FIXTURES, LZ2, N2, RZ2, SL2, T1
from oseg.regularity import rv_set
from oseg.theorems import (
    UnknownTheoremError,
    check,
    check_all,
    precondition_unmet,
    report_bundle,
    theorem_ids,
)

CATALOG = [
    "thm-500",
    "thm-15",
    "thm-74",
    "cor-76",
    "lem-cao",
    "lem-ne51",
    "thm-ne511",
    "lem-ne53",
    "thm-1005",
    "cor-simple",
    "cor-rinv-nilext",
    "cor-1114",
    "cor-leftsimple",
    "thm-774-adapted",
]


class TestCatalogSurface:
    def test_ids(self):
        assert theorem_ids() == CATALOG

    def test_unknown(self):
        with pytest.raises(UnknownTheoremError):
            check(T1, "thm-missing")
        with pytest.raises(UnknownTheoremError):
            precondition_unmet(T1, "thm-missing")

    def test_precondition_order_cap(self):
        from oseg.core import OrderedSemigroup

        n = 7
        table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        down = tuple(1 << i for i in range(n))
        big = OrderedSemigroup(n, table, down)
        assert precondition_unmet(big, "lem-cao") is not None
        with pytest.raises(OrderTooLargeError):
            check(big, "thm-ne511")
        # a nil-extension condition scans every ideal, so its entry is capped
        assert precondition_unmet(big, "thm-1005") is not None
        with pytest.raises(OrderTooLargeError):
            check(big, "thm-1005")
        # the entries that read neither ideals nor congruences still run
        for tid in ("thm-500", "thm-15", "lem-ne51"):
            assert precondition_unmet(big, tid) is None

    def test_adapted_flag(self):
        assert check(T1, "thm-774-adapted").adapted
        assert not check(T1, "thm-1005").adapted

    def test_report_serialization_stable(self):
        rep = check(N2, "thm-1005")
        d = rep.to_json_dict()
        assert d["theorem"] == "thm-1005"
        assert d["verdict"] == "consistent"
        a = json.dumps(d, sort_keys=True)
        b = json.dumps(check(N2, "thm-1005").to_json_dict(), sort_keys=True)
        assert a == b


class TestFixtureFacts:
    def test_n2_thm_1005_all_true(self):
        rep = check(N2, "thm-1005")
        assert rep.consistent and all(rep.conditions.values())
        assert len(rep.conditions) == 9

    def test_rz2_thm_1005_all_false(self):
        rep = check(RZ2, "thm-1005")
        assert rep.consistent and not any(rep.conditions.values())

    def test_lz2_thm_74_all_false(self):
        rep = check(LZ2, "thm-74")
        assert rep.consistent and not any(rep.conditions.values())
        assert len(rep.conditions) == 8

    def test_sl2_thm_1005_all_false(self):
        rep = check(SL2, "thm-1005")
        assert rep.consistent and not any(rep.conditions.values())

    def test_n2_cor_1114_all_true(self):
        rep = check(N2, "cor-1114")
        assert rep.consistent and all(rep.conditions.values())

    def test_t1_everything_positive(self):
        for rep in check_all(T1):
            assert rep.consistent
            assert all(rep.conditions.values()), rep.theorem_id

    def test_cor_simple_shape(self):
        rep = check(N2, "cor-simple")
        assert rep.consistent and len(rep.conditions) == 5

    def test_cor_rinv_nilext_sl2(self):
        # SL2 is right inverse, so a nil-extension of one (itself)
        rep = check(SL2, "cor-rinv-nilext")
        assert rep.consistent
        assert rep.conditions["nilext_right_inverse"]
        assert all(rep.conditions.values())

    def test_fixture_reports_all_consistent(self):
        for name, S in FIXTURES.items():
            for rep in check_all(S):
                assert rep.consistent, (name, rep.theorem_id, rep.conditions)

    def test_check_all_order_and_determinism(self):
        reports = check_all(N2)
        assert [r.theorem_id for r in reports] == CATALOG
        again = check_all(N2)
        assert [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports] == [
            json.dumps(r.to_json_dict(), sort_keys=True) for r in again
        ]

    def test_report_bundle(self):
        bundle = report_bundle(N2)
        assert list(bundle) == ["structure", "theorems"]
        assert list(bundle["theorems"]) == CATALOG
        assert bundle["theorems"]["thm-1005"]["verdict"] == "consistent"
        assert "conditions" in bundle["theorems"]["thm-1005"]
        a = json.dumps(bundle, sort_keys=True)
        b = json.dumps(report_bundle(N2), sort_keys=True)
        assert a == b

    def test_report_bundle_skips_with_reason(self):
        from oseg.core import OrderedSemigroup

        n = 7
        table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        down = tuple(1 << i for i in range(n))
        big = OrderedSemigroup(n, table, down)
        bundle = report_bundle(big)
        assert "skipped" in bundle["theorems"]["lem-cao"]
        assert "skipped" in bundle["theorems"]["thm-1005"]
        for tid in ("thm-500", "thm-15", "lem-ne51"):
            assert bundle["theorems"][tid]["verdict"] == "consistent", tid
        skipped = [tid for tid, rep in bundle["theorems"].items() if "skipped" in rep]
        assert skipped == [tid for tid in CATALOG if tid not in ("thm-500", "thm-15", "lem-ne51")]


_BUNDLES_SCRIPT = """
import json, sys
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.theorems import report_bundle
structures = [S for n in (1, 2, 3) for S in enumerate_ordered_semigroups(n)]
order = range(len(structures))
if sys.argv[1] == "reverse":
    order = reversed(order)
bundles = {i: json.dumps(report_bundle(structures[i]), sort_keys=True) for i in order}
sys.stdout.write("".join(bundles[i] + "\\n" for i in range(len(structures))))
"""


def test_report_bundles_do_not_depend_on_what_was_interned_first():
    """Substructures and type verdicts are shared across structures within a
    process; computing the bundles of order <= 3 backwards changes no byte."""
    src = os.path.dirname(os.path.dirname(oseg.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    outs = [
        subprocess.run(
            [sys.executable, "-c", _BUNDLES_SCRIPT, way],
            capture_output=True, env=env, timeout=300, check=True,
        ).stdout
        for way in ("forward", "reverse")
    ]
    assert outs[0].count(b"\n") == 1 + 20 + 971
    assert outs[0] == outs[1]


def brandt_b2() -> OrderedSemigroup:
    """B2 on e11, e12, e21, e22, 0 (elements 0..4), discrete order:
    e_ij * e_kl = e_il if j = k, else 0."""
    e = [(1, 1), (1, 2), (2, 1), (2, 2)]
    table = tuple(
        tuple(e.index((x[0], y[1])) if x and y and x[1] == y[0] else 4 for y in [*e, None])
        for x in [*e, None]
    )
    return OrderedSemigroup(5, table, tuple(1 << i for i in range(5)))


class TestLemNe51Shape:
    def test_b2_both_sides_false_is_consistent(self):
        """The all-equivalent shape accepts two false sides: e12 divides
        e11 = e12*e21 but e12^2 = 0 does not, and rv is all of B2."""
        rep = check(brandt_b2(), "lem-ne51")
        assert rep.conditions == {"i_square_divides": False, "ii_product_divides": False}
        assert rep.verdict == "consistent"
        assert rep.witnesses == {"rv_set": [0, 1, 2, 3, 4]}

    def test_sides_by_definition(self, corpus3):
        """Both sides from oracle_divides over oracle_rv_set, on every order <= 3
        structure and on B2, where both are false."""
        for S in [*corpus3, brandt_b2()]:
            table, leq = structure_tables(S)
            rv = oracle_rv_set(table, leq)
            rng = range(S.n)

            def div(a, c):
                return oracle_divides(table, leq, a, c)

            expected = {
                "i_square_divides": all(
                    not div(a, c) or div(table[a][a], c) for a in rng for c in rv
                ),
                "ii_product_divides": all(
                    not (div(a, c) and div(b, c)) or div(table[a][b], c)
                    for a in rng
                    for b in rng
                    for c in rv
                ),
            }
            assert check(S, "lem-ne51").conditions == expected, S


class TestIndependentSides:
    def test_thm_15_catches_a_broken_witness(self):
        """Condition ii of thm-15 does not read the pi-agreement witness, so
        a witness that finds nothing must surface as a counterexample."""
        fresh = OrderedSemigroup(T1.n, T1.table, T1.down)
        fresh._cache[one_sided.__wrapped__] = one_sided(T1)._replace(r_agree=0, r_pi=0)
        rep = check(fresh, "thm-15")
        assert rep.verdict == "COUNTEREXAMPLE"
        assert rep.conditions == {
            "i_right_pi_inverse": False,
            "ii_some_power_has_r_related_inverses": True,
        }

    def test_cor_simple_catches_a_broken_closure(self):
        """Condition iv of cor-simple builds (SbS] from the table, so (SaS]
        closed products that lose every element must surface as a
        counterexample through condition v alone."""
        fresh = OrderedSemigroup(T1.n, T1.table, T1.down)
        fresh._cache[two_sided.__wrapped__] = two_sided(T1)._replace(sas=(0,) * T1.n)
        rep = check(fresh, "cor-simple")
        assert rep.verdict == "COUNTEREXAMPLE"
        assert rep.conditions["iv_rpi_and_powers_reach_sbs"] is True
        assert rep.conditions["v_rpi_and_archimedean"] is False

    def test_thm_1005_catches_a_broken_closure(self):
        """Condition viii of thm-1005 builds (aSa] from the table, so (aSa]
        closed products that keep only a itself (the regular elements stay
        the same) must surface as a counterexample through condition vii alone."""
        rec = two_sided(N2)
        fresh = OrderedSemigroup(N2.n, N2.table, N2.down)
        fresh._cache[two_sided.__wrapped__] = rec._replace(
            asa=tuple(m & 1 << a for a, m in enumerate(rec.asa))
        )
        rep = check(fresh, "thm-1005")
        assert rep.verdict == "COUNTEREXAMPLE"
        assert rep.conditions["vii_pi_inverse_and_t_archimedean"] is False
        assert rep.conditions["viii_rpi_and_t_archimedean"] is True


class TestWitnessesOnDemand:
    def test_consistent_path_builds_no_witness(self, corpus3, monkeypatch):
        """With every entry's explain raising, check gives the same verdicts
        and conditions on every structure of order <= 3, and verify the same
        golden output: deciding never builds a witness."""
        import dataclasses
        import io
        from contextlib import redirect_stdout

        from oseg import cli, theorems

        expected = [[(r.consistent, r.conditions) for r in check_all(S)] for S in corpus3]

        def explain(S):
            raise AssertionError("a witness was built")

        for tid, entry in theorems._CATALOG.items():
            monkeypatch.setitem(theorems._CATALOG, tid, dataclasses.replace(entry, explain=explain))
        assert [[(r.consistent, r.conditions) for r in check_all(S)] for S in corpus3] == expected
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["verify", "--order", "3", "--all"]) == 0
        golden = os.path.join(os.path.dirname(__file__), "golden", "verify-o3-all.txt")
        with open(golden, encoding="utf-8", newline="") as fh:
            assert buf.getvalue() == fh.read()

    def test_witnesses_are_built_when_read(self):
        rep = check(N2, "lem-ne51")
        assert rep.witnesses == {"rv_set": members(rv_set(N2))}
        assert rep.to_json_dict()["witnesses"] == rep.witnesses


class TestExhaustiveConsistency:
    def test_order_up_to_3(self, corpus3):
        """Every catalog theorem consistent on every structure of order <= 3.

        A counterexample is a build failure; print it in wire format.
        """
        for S in corpus3:
            for rep in check_all(S):
                assert rep.consistent, (
                    rep.theorem_id,
                    canonical_json(S),
                    rep.conditions,
                    rep.violation,
                )

    @pytest.mark.slow
    def test_order_4_full_catalog(self):
        """Full catalog over all 107688 order-4 structures (a few minutes),
        each structure's verdicts and condition values against the
        signatures pinned in perfbench/golden/o4.json."""
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
        try:
            import goldens
            import oracle
        finally:
            sys.path.pop(0)
        golden = goldens.load("o4")
        assert golden["catalog"]["ids"] == CATALOG
        signatures, index = goldens.catalog_signatures(golden)
        count = 0
        for S in enumerate_ordered_semigroups(4):
            reports = check_all(S)
            for rep in reports:
                assert rep.consistent, (rep.theorem_id, canonical_json(S))
            assert oracle.catalog_signature(reports) == signatures[index[count]], canonical_json(S)
            count += 1
        assert count == 107688 == len(index)
