"""Property expression language: grammar, round-trip, evaluation, atom table."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from oseg import decomposition, ideals, regularity, relations
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.fixtures import FIXTURES, LZ2, N2, RZ2, SL2, T1
from oseg.properties import (
    MAX_DEPTH,
    ATOMS,
    And,
    Atom,
    CslOf,
    NilExtOf,
    Not,
    Or,
    ParseError,
    UnknownAtomError,
    evaluate,
    parse_property_expr,
    to_text,
    type_of,
)

ALL_ATOMS = [
    "simple",
    "left-simple",
    "t-simple",
    "regular",
    "pi-regular",
    "intra-pi-regular",
    "right-inverse",
    "right-pi-inverse",
    "left-pi-inverse",
    "pi-inverse",
    "archimedean",
    "l-archimedean",
    "r-archimedean",
    "t-archimedean",
]


class TestParse:
    def test_conjunction(self):
        e = parse_property_expr("right-pi-inverse & !pi-inverse")
        assert e == And((Atom("right-pi-inverse"), Not(Atom("pi-inverse"))))

    def test_nested_parametric(self):
        e = parse_property_expr("nil-ext-of(t-simple & right-pi-inverse)")
        assert e == NilExtOf(And((Atom("t-simple"), Atom("right-pi-inverse"))))

    def test_csl_of(self):
        e = parse_property_expr("csl-of(archimedean)")
        assert e == CslOf(Atom("archimedean"))

    def test_precedence(self):
        e = parse_property_expr("simple | t-simple & regular")
        assert e == Or((Atom("simple"), And((Atom("t-simple"), Atom("regular")))))

    def test_parens(self):
        e = parse_property_expr("(simple | t-simple) & regular")
        assert e == And((Or((Atom("simple"), Atom("t-simple"))), Atom("regular")))

    def test_malformed_position(self):
        with pytest.raises(ParseError) as exc:
            parse_property_expr("right-pi-inverse &&")
        assert exc.value.position == 18

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_property_expr("simple )")

    def test_unknown_atom(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_property_expr("grandiose")
        assert exc.value.name == "grandiose"

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_property_expr("nil-ext-of(simple")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_property_expr("")

    def test_nesting_cap(self):
        """Deeper input is a ParseError, not a RecursionError; the deepest
        accepted expression still prints and evaluates."""
        for text in ("!" * 5000 + "simple", "(" * 5000 + "simple" + ")" * 5000):
            with pytest.raises(ParseError) as exc:
                parse_property_expr(text)
            assert exc.value.position == MAX_DEPTH + 1
        e = parse_property_expr("nil-ext-of(" * MAX_DEPTH + "simple" + ")" * MAX_DEPTH)
        assert parse_property_expr(to_text(e)) == e
        assert evaluate(N2, e) == evaluate(N2, parse_property_expr("nil-ext-of(simple)"))


def _random_expr(rng: random.Random, depth: int):
    kinds = ["atom"] * 3 + (["not", "and", "or", "nilext", "csl"] if depth > 0 else [])
    kind = rng.choice(kinds)
    if kind == "atom":
        return Atom(rng.choice(ALL_ATOMS))
    if kind == "not":
        return Not(_random_expr(rng, depth - 1))
    if kind == "nilext":
        return NilExtOf(_random_expr(rng, depth - 1))
    if kind == "csl":
        return CslOf(_random_expr(rng, depth - 1))
    args = tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(args) if kind == "and" else Or(args)


class TestRoundTrip:
    def test_thousand_random_asts(self):
        rng = random.Random(20260809)
        for _ in range(1000):
            e = _random_expr(rng, depth=4)
            assert parse_property_expr(to_text(e)) == e, to_text(e)

    @given(text=st.text(alphabet="simple&|!()- tarchvnx", max_size=40))
    def test_parser_total_on_noise(self, text):
        """Arbitrary input either parses or raises one of the two grammar errors."""
        try:
            e = parse_property_expr(text)
        except (ParseError, UnknownAtomError):
            return
        assert parse_property_expr(to_text(e)) == e

    def test_shape_preserved(self):
        nested = And((And((Atom("simple"), Atom("regular"))), Atom("t-simple")))
        assert to_text(nested) == "(simple & regular) & t-simple"
        assert parse_property_expr(to_text(nested)) == nested
        flat = And((Atom("simple"), Atom("regular"), Atom("t-simple")))
        assert to_text(flat) == "simple & regular & t-simple"
        assert parse_property_expr(to_text(flat)) == flat


class TestAtomTable:
    def test_closed_keyword_set(self):
        assert sorted(ATOMS) == sorted(ALL_ATOMS)

    def test_every_atom_total_on_fixtures(self):
        for S in FIXTURES.values():
            for name, fn in ATOMS.items():
                assert isinstance(fn(S), bool), name

    def test_mapping_targets(self):
        """Each keyword delegates to the documented module operation."""
        expected = {
            "simple": lambda S: ideals.is_simple(S, "two-sided"),
            "left-simple": lambda S: ideals.is_simple(S, "left"),
            "t-simple": lambda S: ideals.is_simple(S, "t"),
            "regular": lambda S: regularity.regular_elements(S)
            == (1 << S.n) - 1,
            "pi-regular": regularity.is_pi_regular,
            "intra-pi-regular": regularity.is_intra_pi_regular,
            "right-inverse": regularity.is_right_inverse,
            "right-pi-inverse": regularity.is_right_pi_inverse,
            "left-pi-inverse": regularity.is_left_pi_inverse,
            "pi-inverse": regularity.is_pi_inverse,
            "archimedean": lambda S: relations.is_archimedean(S, "two-sided"),
            "l-archimedean": lambda S: relations.is_archimedean(S, "l"),
            "r-archimedean": lambda S: relations.is_archimedean(S, "r"),
            "t-archimedean": lambda S: relations.is_archimedean(S, "t"),
        }
        assert sorted(expected) == sorted(ATOMS)
        for S in FIXTURES.values():
            for name in expected:
                assert ATOMS[name](S) == expected[name](S), name


class TestEvaluate:
    def test_rz2_separation(self):
        e = parse_property_expr("right-pi-inverse & !pi-inverse")
        assert evaluate(RZ2, e) is True
        assert evaluate(LZ2, e) is False
        assert evaluate(N2, e) is False

    def test_n2_conjunction(self):
        assert evaluate(N2, parse_property_expr("t-archimedean & right-pi-inverse"))

    def test_lz2_rpi(self):
        assert not evaluate(LZ2, parse_property_expr("right-pi-inverse"))

    def test_parametric_atoms(self):
        assert evaluate(N2, parse_property_expr("nil-ext-of(t-simple & right-pi-inverse)"))
        assert not evaluate(SL2, parse_property_expr("nil-ext-of(simple)"))
        assert evaluate(SL2, parse_property_expr("csl-of(nil-ext-of(t-simple))"))
        assert evaluate(LZ2, parse_property_expr("csl-of(archimedean)"))
        assert not evaluate(LZ2, parse_property_expr("csl-of(right-pi-inverse)"))

    def test_boolean_semantics(self):
        assert evaluate(T1, parse_property_expr("!simple | simple"))
        assert not evaluate(T1, parse_property_expr("simple & !simple"))

    def test_order_too_large_propagates(self):
        from oseg.core import OrderedSemigroup
        from oseg.decomposition import OrderTooLargeError

        n = 7
        table = tuple(tuple(0 for _ in range(n)) for _ in range(n))
        down = tuple(1 << i for i in range(n))
        big = OrderedSemigroup(n, table, down)
        # the least congruence of the 7-element null semigroup is a single
        # class, which is not t-simple, so the exhaustive scan is reached
        with pytest.raises(OrderTooLargeError):
            evaluate(big, parse_property_expr("csl-of(t-simple)"))


class TestMemoizedTypes:
    def test_evaluator_runs_once_per_interned_substructure(self, monkeypatch):
        """Every substructure a type is tested on gets one evaluation, though
        nil-ext-of and csl-of restrict to equal subsets many times over."""
        restricted = []
        evaluated = []

        def counting_restrict(S, mask):
            restricted.append(mask)
            return ideals.restrict(S, mask)

        def counted(S):
            evaluated.append(S)
            return False

        monkeypatch.setattr(decomposition, "restrict", counting_restrict)
        monkeypatch.setitem(ATOMS, "counted", counted)
        exprs = [
            parse_property_expr(t)
            for t in ("csl-of(counted)", "nil-ext-of(counted)", "csl-of(nil-ext-of(counted))")
        ]
        for S in enumerate_ordered_semigroups(3):
            for e in exprs:
                evaluate(S, e)
        assert len(restricted) > len(evaluated) > 0
        assert len({id(S) for S in evaluated}) == len(evaluated)
        assert len({(S.table, S.down) for S in evaluated}) == len(evaluated)

    def test_verdict_is_per_structure_not_per_table(self, corpus3):
        """Structures sharing a table can differ on a type; each keeps its own."""
        by_table: dict = {}
        for S in corpus3:
            by_table.setdefault(S.table, []).append(S)
        differs = 0
        for name in ALL_ATOMS:
            tau = type_of(Atom(name))
            for group in by_table.values():
                verdicts = [tau(S) for S in group]
                assert verdicts == [ATOMS[name](S) for S in group], name
                differs += len(set(verdicts)) > 1
        assert differs > 0
