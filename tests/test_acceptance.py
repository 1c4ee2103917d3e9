"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every expected value is recomputed by the brute-force-by-definition
oracles in conftest before being compared with the package's answer.
"""

from __future__ import annotations

import os
import time

import pytest

from conftest import (
    family_conditions_hold,
    oracle_all_structures,
    oracle_all_tables,
    oracle_archimedean,
    oracle_intra_pi_regular,
    oracle_pi_inverse_family,
    oracle_pi_regular,
    oracle_regular,
    oracle_right_inverse,
    oracle_simple,
    structure_tables,
)
from oseg.cli import analyze_report, main
from oseg.core import canonical_json
from oseg.decomposition import (
    all_complete_semilattice_congruences,
    is_csl_congruence,
    least_complete_semilattice_congruence,
    partitions,
)
from oseg.enumeration import canonical_form, enumerate_ordered_semigroups, enumerate_tables
from oseg.fixtures import FIXTURES, RZ2
from oseg.properties import evaluate, parse_property_expr
from oseg.theorems import check

_JOBS = str(min(os.cpu_count() or 1, 8))


def _report(number: int, label: str, passed: bool) -> None:
    # one line per criterion; run with -s (or look at -v test outcomes) to see them
    print(f"ACCEPTANCE {number} {label}: {'PASS' if passed else 'FAIL'}", flush=True)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# the DERIVED fixture facts collected from the module contracts, keyed by
# the atom names of the analyze report; recomputed by oracle before use
EXPECTED_ATOMS = {
    "T1": {
        "simple": True, "left-simple": True, "t-simple": True, "regular": True,
        "pi-regular": True, "intra-pi-regular": True, "right-inverse": True,
        "right-pi-inverse": True, "left-pi-inverse": True, "pi-inverse": True,
        "archimedean": True, "l-archimedean": True, "r-archimedean": True,
        "t-archimedean": True,
    },
    "LZ2": {
        "simple": True, "left-simple": True, "t-simple": False, "regular": True,
        "pi-regular": True, "intra-pi-regular": True, "right-inverse": False,
        "right-pi-inverse": False, "left-pi-inverse": True, "pi-inverse": False,
        "archimedean": True, "l-archimedean": True, "r-archimedean": False,
        "t-archimedean": False,
    },
    "RZ2": {
        "simple": True, "left-simple": False, "t-simple": False, "regular": True,
        "pi-regular": True, "intra-pi-regular": True, "right-inverse": True,
        "right-pi-inverse": True, "left-pi-inverse": False, "pi-inverse": False,
        "archimedean": True, "l-archimedean": False, "r-archimedean": True,
        "t-archimedean": False,
    },
    "N2": {
        "simple": False, "left-simple": False, "t-simple": False, "regular": False,
        "pi-regular": True, "intra-pi-regular": True, "right-inverse": False,
        "right-pi-inverse": True, "left-pi-inverse": True, "pi-inverse": True,
        "archimedean": True, "l-archimedean": True, "r-archimedean": True,
        "t-archimedean": True,
    },
    "SL2": {
        "simple": False, "left-simple": False, "t-simple": False, "regular": True,
        "pi-regular": True, "intra-pi-regular": True, "right-inverse": True,
        "right-pi-inverse": True, "left-pi-inverse": True, "pi-inverse": True,
        "archimedean": False, "l-archimedean": False, "r-archimedean": False,
        "t-archimedean": False,
    },
}


def _oracle_atoms(S) -> dict[str, bool]:
    table, leq = structure_tables(S)
    n = S.n
    return {
        "simple": oracle_simple(table, leq, "two-sided"),
        "left-simple": oracle_simple(table, leq, "left"),
        "t-simple": oracle_simple(table, leq, "t"),
        "regular": all(oracle_regular(table, leq, a) for a in range(n)),
        "pi-regular": oracle_pi_regular(table, leq),
        "intra-pi-regular": oracle_intra_pi_regular(table, leq),
        "right-inverse": oracle_right_inverse(table, leq),
        "right-pi-inverse": oracle_pi_inverse_family(table, leq, "R"),
        "left-pi-inverse": oracle_pi_inverse_family(table, leq, "L"),
        "pi-inverse": oracle_pi_inverse_family(table, leq, "H"),
        "archimedean": oracle_archimedean(table, leq, "two-sided"),
        "l-archimedean": oracle_archimedean(table, leq, "l"),
        "r-archimedean": oracle_archimedean(table, leq, "r"),
        "t-archimedean": oracle_archimedean(table, leq, "t"),
    }


def test_criterion_1_fixture_truth_table():
    started = time.monotonic()
    passed = True
    try:
        for name, S in FIXTURES.items():
            expected = EXPECTED_ATOMS[name]
            recomputed = _oracle_atoms(S)
            assert recomputed == expected, f"{name}: oracle disagrees with the expected table"
            got = analyze_report(S)["atoms"]
            assert got == expected, f"{name}: analyze disagrees"
        # the N2 example of the nine-way equivalence, all conditions positive
        rep = check(FIXTURES["N2"], "thm-1005")
        assert rep.consistent and all(rep.conditions.values())
        rep = check(FIXTURES["RZ2"], "thm-1005")
        assert rep.consistent and not any(rep.conditions.values())
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"fixture truth table took {elapsed:.2f}s, budget 1s"
    except BaseException:
        passed = False
        raise
    finally:
        _report(1, "fixture-truth-table", passed)


def test_criterion_2_exhaustive_verify_orders_2_and_3(capsys):
    passed = True
    try:
        code2, out2 = run_cli(capsys, "verify", "--order", "2", "--all")
        assert code2 == 0, out2
        assert "result: ok" in out2
        code3, out3 = run_cli(capsys, "verify", "--order", "3", "--all", "--jobs", _JOBS)
        assert code3 == 0, out3
        assert "structures=971" in out3
        assert "result: ok" in out3
    except BaseException:
        passed = False
        raise
    finally:
        _report(2, "exhaustive-theorem-verification-order-3", passed)


@pytest.mark.slow
def test_criterion_3_order_4_sweep(capsys):
    passed = True
    try:
        code, out = run_cli(
            capsys, "verify", "--order", "4", "--theorem", "thm-1005", "--jobs", _JOBS
        )
        assert code == 0, out
        assert "structures=107688" in out
        assert "thm-1005: checked=107688 skipped=0 counterexamples=0" in out
    except BaseException:
        passed = False
        raise
    finally:
        _report(3, "order-4-sweep-thm-1005", passed)


def test_criterion_4_enumeration_counts():
    passed = True
    try:
        oeis_a023814 = {1: 1, 2: 8, 3: 113}
        for n, expected in oeis_a023814.items():
            by_oracle = sum(1 for _ in oracle_all_tables(n))
            by_package = sum(1 for _ in enumerate_tables(n))
            assert by_oracle == expected == by_package, n
        for n in (1, 2, 3):
            by_oracle = sum(1 for _ in oracle_all_structures(n))
            by_package = sum(1 for _ in enumerate_ordered_semigroups(n))
            assert by_oracle == by_package, n
    except BaseException:
        passed = False
        raise
    finally:
        _report(4, "enumeration-counts", passed)


def test_criterion_5_separation_witness(capsys):
    passed = True
    try:
        started = time.monotonic()
        code, out = run_cli(
            capsys,
            "search", "--order", "2", "--where", "right-pi-inverse & !pi-inverse", "--first",
        )
        elapsed = time.monotonic() - started
        assert code == 0
        from oseg.core import parse_structure

        S = parse_structure(out.strip())
        assert canonical_form(S) == canonical_form(RZ2)
        assert elapsed < 1.0, f"witness search took {elapsed:.2f}s, budget 1s"
    except BaseException:
        passed = False
        raise
    finally:
        _report(5, "separation-witness", passed)


def test_criterion_6_condition_equivalences(corpus3):
    passed = True
    try:
        rpi_larch = parse_property_expr("right-pi-inverse & l-archimedean")
        rpi_tarch = parse_property_expr("right-pi-inverse & t-archimedean")
        pinv_tarch = parse_property_expr("pi-inverse & t-archimedean")
        set_ii = {canonical_json(S) for S in corpus3 if evaluate(S, rpi_larch)}
        set_viii = {canonical_json(S) for S in corpus3 if evaluate(S, rpi_tarch)}
        set_vii = {canonical_json(S) for S in corpus3 if evaluate(S, pinv_tarch)}
        assert set_ii == set_viii
        assert set_vii == set_viii
        assert set_viii  # nonempty: N2 and friends are in there
    except BaseException:
        passed = False
        raise
    finally:
        _report(6, "thm-1005-consequence-sets", passed)


def test_criterion_7_decomposition_dual_definition(corpus3):
    passed = True
    try:
        for S in corpus3:
            for p in partitions(S.n):
                assert is_csl_congruence(S, p) == family_conditions_hold(S, p)
            least = least_complete_semilattice_congruence(S)
            for p in all_complete_semilattice_congruences(S):
                assert least.refines(p)
            assert [p.class_of for p in all_complete_semilattice_congruences(S)] == [
                p for p in partitions(S.n) if family_conditions_hold(S, p)
            ]
    except BaseException:
        passed = False
        raise
    finally:
        _report(7, "decomposition-dual-definition", passed)


def test_criterion_8_determinism(capsys, tmp_path):
    passed = True
    try:
        runs = [
            run_cli(capsys, "verify", "--order", "2", "--all", "--jobs", jobs)[1]
            for jobs in ("1", "2", "3")
        ]
        assert runs[0] == runs[1] == runs[2]
        path = tmp_path / "n2.json"
        path.write_text(canonical_json(FIXTURES["N2"]))
        first = run_cli(capsys, "analyze", str(path), "--json")[1]
        second = run_cli(capsys, "analyze", str(path), "--json")[1]
        assert first == second
    except BaseException:
        passed = False
        raise
    finally:
        _report(8, "determinism-across-workers", passed)
