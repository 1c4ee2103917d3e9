"""The kill matrix: known faults, each pinned to the check that catches it.

A mutant is one function of the package with one edit, made from the
function's own source: an exact substring is replaced (it must occur
once, so a rewrite that moves it fails here instead of testing nothing),
the result is compiled against the function's module globals, and it is
bound wherever a module holds the original.  The detector is either
``verify --order 3 --all`` (``--order 2`` where that suffices) exiting 3
or a named oracle comparison failing.  Every mutant below is caught at
order 3, so none needs the slow marker.
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer, 1978.)

Memo caches live in each structure, but the intern table and the cached
quotient partitions live in the process, so every mutant runs on fresh
structures with both emptied, and both are restored afterwards.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import itertools
import sys
import textwrap

import pytest

from conftest import mask_set, oracle_pi_rv_set, structure_tables
from oseg import cli, core, decomposition, enumeration, ideals, regularity
from oseg.enumeration import enumerate_ordered_semigroups
import test_enumeration
from test_core import assert_one_sided_matches_oracles, assert_record_matches_oracles
from test_decomposition import assert_csl_lattice_matches_oracle


def mutate(monkeypatch, fn, old: str, new: str) -> None:
    """Bind fn with `old` replaced by `new` in its source, decorators and all,
    in every module that holds fn: the package's and the tests' alike."""
    real = inspect.unwrap(fn)
    src = textwrap.dedent(inspect.getsource(real))
    assert src.count(old) == 1, f"{real.__name__}: {old!r} does not occur exactly once"
    ns = dict(real.__globals__)
    exec(compile(src.replace(old, new), f"<mutant of {real.__name__}>", "exec"), ns)
    mutant = ns[real.__name__]
    bound = 0
    for mod in list(sys.modules.values()):
        for attr, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, attr, mutant)
                bound += 1
    assert bound, f"{real.__name__} is bound nowhere"


@pytest.fixture
def fresh_caches():
    saved = dict(ideals._INTERNED)
    ideals._INTERNED.clear()
    decomposition._quotient_partitions.cache_clear()
    yield
    ideals._INTERNED.clear()
    ideals._INTERNED.update(saved)
    decomposition._quotient_partitions.cache_clear()


def verify_exit(order: int = 3) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", "--order", str(order), "--all"])


def fresh_corpus(orders=(1, 2, 3)):
    return list(itertools.chain.from_iterable(enumerate_ordered_semigroups(n) for n in orders))


def fails(oracle_check, structures) -> bool:
    """Whether the oracle comparison fails on some structure."""
    for S in structures:
        try:
            oracle_check(S)
        except AssertionError:
            return True
    return False


def assert_pi_rv_matches_oracle(S) -> None:
    assert mask_set(regularity.pi_rv_set(S)) == oracle_pi_rv_set(*structure_tables(S)), S

#: every compatible order of every table of order n against the filtered posets
assert_orders_match_oracle = test_enumeration.TestCompatibleOrders.assert_matches_filter_oracle


#: mutant id -> (function, source substring, its replacement)
MUTANTS = {
    "asa-from-sa": (
        core.two_sided,
        "for u in iter_mask(right[a]):",
        "for u in iter_mask(left[a]):",
    ),
    "sas-all-zero": (core.two_sided, "sas.append(y)", "sas.append(0)"),
    "least-without-leq-seeds": (
        decomposition.least_complete_semilattice_congruence,
        "pairs += [(a, table[a][b]) for b in range(n) for a in iter_mask(down[b])]",
        "pass",
    ),
    "quotient-partitions-unchecked": (
        decomposition._quotient_partitions,
        "if all(q[row[c]] == q[row[d]] for row in qtable for c, d in joined):",
        "if True:",
    ),
    "nil-ideals-drop-last": (
        decomposition.nil_extension_ideals,
        "if all(p & K for p in power_masks))",
        "if all(p & K for p in power_masks))[:-1]",
    ),
    "nil-ext-skips-kernel": (
        decomposition.nil_extension_of_type,
        "nil = nil_extension_ideals(S)\n",
        "nil = nil_extension_ideals(S)[1:]\n",
    ),
    "kernel-rule-for-every-type": (
        decomposition.nil_extension_of_type,
        'if getattr(tau, "implies_simple", False):',
        "if True:",
    ),
    "pi-rv-vacuous": (
        core.one_sided,
        "if p & r_agree else",
        "if p & (r_agree | mask_of(b for b, v in enumerate(inverses) if not v)) else",
    ),
    "one-sided-swapped": (core.one_sided, "sa, as_ = tuple(sa), tuple(as_)", "sa, as_ = tuple(as_), tuple(sa)"),
    "sas-without-downset": (core.two_sided, "y |= right[u]", "y |= mask_of(table[u])"),
    "downset-ignores-order": (core.downset, "out |= S.down[a]", "out |= 1 << a"),
    "powers-one-short": (core.one_sided, "for _ in range(n - 1):", "for _ in range(n - 2):"),
    "power-mask-drops-last": (
        core.one_sided,
        "power_masks.append(mask_of(pw))",
        "power_masks.append(mask_of(pw[:-1]))",
    ),
    "assoc-skips-ab-role": (enumeration._assoc_ok, "q = row_b[z]", "q = -1"),
    "assoc-skips-x-yz-role": (enumeration._assoc_ok, "for y, z in cells[b]:", "for y, z in ():"),
    "orders-without-right-compatibility": (
        enumeration.enumerate_compatible_orders,
        "+ [(y, image) for y, image in zip(table[c], cols)]",
        "",
    ),
}


def test_detectors_are_clean_without_a_mutant(fresh_caches):
    assert verify_exit() == 0
    assert not fails(assert_pi_rv_matches_oracle, fresh_corpus())
    assert not fails(assert_record_matches_oracles, fresh_corpus())
    assert not fails(assert_one_sided_matches_oracles, fresh_corpus())
    assert not fails(assert_csl_lattice_matches_oracle, fresh_corpus())
    assert not fails(assert_orders_match_oracle, (1, 2, 3))


@pytest.mark.parametrize(
    "mutant",
    [
        "sas-all-zero", "nil-ideals-drop-last", "nil-ext-skips-kernel", "sas-without-downset", "assoc-skips-ab-role",
        "assoc-skips-x-yz-role", "downset-ignores-order",
    ],
)
def test_verify_catches(mutant, monkeypatch, fresh_caches):
    """Sides rebuilt from the table see these, such as cor-simple (iv),
    which rebuilds (SbS], and lem-cao (ii), which rebuilds the powers; a
    nil-extension side that skips the kernel disagrees with the sides
    decided without one, such as thm-74 (ii).  sas-without-downset and
    both assoc-skips mutants pass verify at order 2 (exit 0); tables that
    skip an associativity role are not semigroups, on which the sides
    part (without the (x, yz) role of the value index, order 3 has 132
    tables, not 113).
    downset-ignores-order must end in exit 3 here too, not in an error:
    a counterexample's nil-extension witness reads its exponents without
    re-checking that its ideal is one, which the broken downset can deny."""
    mutate(monkeypatch, *MUTANTS[mutant])
    assert verify_exit() == 3


@pytest.mark.parametrize(
    "mutant",
    ["one-sided-swapped", "downset-ignores-order", "power-mask-drops-last", "kernel-rule-for-every-type"],
)
def test_verify_at_order_2_catches(mutant, monkeypatch, fresh_caches):
    """Caught on the two-element structures: faults in what every side
    reads, and the kernel rule for a type that does not imply simplicity
    (nil-ext-of(right-inverse) then misses SL2, a nil-extension of itself
    but not of its kernel; the order-4 iso search count falls from 2716
    to 1476).  Under power-mask-drops-last a one-element class that
    csl-of restricts to has no nil ideal at all, and the kernel rule must
    answer None on the empty tuple there, not raise IndexError."""
    mutate(monkeypatch, *MUTANTS[mutant])
    assert verify_exit(2) == 3


def test_one_sided_oracle_catches(monkeypatch, fresh_caches):
    """Powers one short: verify raises RuntimeError (the first regular
    power is missing from some row), the record oracle names the row."""
    mutate(monkeypatch, *MUTANTS["powers-one-short"])
    assert fails(assert_one_sided_matches_oracles, fresh_corpus())


def test_order_oracle_catches(monkeypatch, fresh_caches):
    """Orders closed without right compatibility: verify misses it at
    orders 2 and 3 (exit 0), the filtered posets do not."""
    mutate(monkeypatch, *MUTANTS["orders-without-right-compatibility"])
    assert fails(assert_orders_match_oracle, (1, 2, 3))


@pytest.mark.parametrize("mutant", ["asa-from-sa", "sas-all-zero"])
def test_record_oracle_catches(mutant, monkeypatch, fresh_caches):
    """asa-from-sa has no other detector: under right pi-inverse,
    t-Archimedean and l-Archimedean coincide (see README)."""
    mutate(monkeypatch, *MUTANTS[mutant])
    assert fails(assert_record_matches_oracles, fresh_corpus())


@pytest.mark.parametrize("mutant", ["least-without-leq-seeds", "quotient-partitions-unchecked"])
def test_csl_oracle_catches(mutant, monkeypatch, fresh_caches):
    """Either mutant makes verify raise NotClosedError on a class that is
    not multiplicatively closed; the oracle names the wrong congruence."""
    mutate(monkeypatch, *MUTANTS[mutant])
    assert fails(assert_csl_lattice_matches_oracle, fresh_corpus())


def test_pi_rv_oracle_catches(monkeypatch, fresh_caches):
    """The default pi rv set read under the vacuous reading: verify misses
    it at orders 2, 3 and 4 (exit 0), the pi rv oracle does not."""
    mutate(monkeypatch, *MUTANTS["pi-rv-vacuous"])
    assert fails(assert_pi_rv_matches_oracle, fresh_corpus())
