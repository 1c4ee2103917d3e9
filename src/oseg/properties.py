"""Boolean property expressions over ordered semigroups.

Grammar (and binds tighter than or)::

    expr    := or
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | atom | '(' expr ')'
    atom    := keyword | ('nil-ext-of' | 'csl-of') '(' expr ')'

The atom keywords are a closed set; each one delegates to exactly one
operation of the property modules.  Runs of '&' and '|' parse to n-ary
nodes, and printing parenthesizes nested same-operator children, so
parse(print(e)) == e for every tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Union

from . import ideals, regularity, relations
from .core import OrderedSemigroup, derived, full_mask
from .decomposition import is_complete_semilattice_of, nil_extension_of_type


class ParseError(ValueError):
    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")


class UnknownAtomError(ValueError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown property atom {name!r}")


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    arg: "Expr"


@dataclass(frozen=True)
class And:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class NilExtOf:
    arg: "Expr"


@dataclass(frozen=True)
class CslOf:
    arg: "Expr"


Expr = Union[Atom, Not, And, Or, NilExtOf, CslOf]


#: atom keyword -> the single module operation deciding it
ATOMS: dict[str, Callable[[OrderedSemigroup], bool]] = {
    "simple": lambda S: ideals.is_simple(S, "two-sided"),
    "left-simple": lambda S: ideals.is_simple(S, "left"),
    "t-simple": lambda S: ideals.is_simple(S, "t"),
    "regular": lambda S: regularity.regular_elements(S) == full_mask(S.n),
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

_PARAMETRIC = ("nil-ext-of", "csl-of")


# ---------------------------------------------------------------------------
# parsing


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789-")

#: nesting cap for '!' and parentheses: printing and evaluation take a
#: few stack frames per level, so deeper input is refused while parsing
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ParseError(self.pos, repr(ch))
        self.pos += 1

    def _word(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _WORD_CHARS:
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "atom, '!' or '('")
        return self.text[start:self.pos]

    def parse(self) -> Expr:
        e = self._or()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(self.pos, "'&', '|' or end of input")
        return e

    def _or(self) -> Expr:
        args = [self._and()]
        while self._peek() == "|":
            self.pos += 1
            args.append(self._and())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def _and(self) -> Expr:
        args = [self._unary()]
        while self._peek() == "&":
            self.pos += 1
            args.append(self._unary())
        return args[0] if len(args) == 1 else And(tuple(args))

    def _unary(self) -> Expr:
        if self.depth > MAX_DEPTH:  # the '!' and '(' around this operand
            raise ParseError(self.pos, f"at most {MAX_DEPTH} nested '!' or '('")
        self.depth += 1
        e = self._term()
        self.depth -= 1
        return e

    def _term(self) -> Expr:
        ch = self._peek()
        if ch == "!":
            self.pos += 1
            return Not(self._unary())
        if ch == "(":
            self.pos += 1
            e = self._or()
            self._expect(")")
            return e
        word = self._word()
        if word in _PARAMETRIC:
            self._expect("(")
            e = self._or()
            self._expect(")")
            return NilExtOf(e) if word == "nil-ext-of" else CslOf(e)
        if word not in ATOMS:
            raise UnknownAtomError(word)
        return Atom(word)


def parse_property_expr(text: str) -> Expr:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing (inverse of parsing on every tree)


def _prec(e: Expr) -> int:
    if isinstance(e, Or):
        return 1
    if isinstance(e, And):
        return 2
    if isinstance(e, Not):
        return 3
    return 4


def _wrap(e: Expr, parent_prec: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) <= parent_prec else text


def to_text(e: Expr) -> str:
    if isinstance(e, Atom):
        return e.name
    if isinstance(e, NilExtOf):
        return f"nil-ext-of({to_text(e.arg)})"
    if isinstance(e, CslOf):
        return f"csl-of({to_text(e.arg)})"
    if isinstance(e, Not):
        return "!" + _wrap(e.arg, 3)
    if isinstance(e, And):
        return " & ".join(_wrap(a, 2) for a in e.args)
    if isinstance(e, Or):
        return " | ".join(_wrap(a, 1) for a in e.args)
    raise TypeError(f"not a property expression: {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(S: OrderedSemigroup, e: Expr) -> bool:
    """Standard boolean semantics; atoms call their module operations.

    Above order 6, nil-ext-of atoms raise OrderTooLargeError, and csl-of
    atoms do unless the least congruence decides them.
    """
    if isinstance(e, Atom):
        return ATOMS[e.name](S)
    if isinstance(e, Not):
        return not evaluate(S, e.arg)
    if isinstance(e, And):
        return all(evaluate(S, a) for a in e.args)
    if isinstance(e, Or):
        return any(evaluate(S, a) for a in e.args)
    if isinstance(e, NilExtOf):
        return nil_extension_of_type(S, type_of(e.arg)) is not None
    if isinstance(e, CslOf):
        return is_complete_semilattice_of(S, type_of(e.arg)).holds
    raise TypeError(f"not a property expression: {e!r}")


#: the atoms that hold only on simple structures (left and t-simplicity imply simplicity)
_SIMPLICITY_ATOMS = ("simple", "left-simple", "t-simple")


def _implies_simplicity(e: Expr) -> bool:
    """Whether only simple structures have type e: a simplicity atom, or a
    conjunction with such an argument.  Under '|', '!', nil-ext-of and
    csl-of the answer is no."""
    if isinstance(e, Atom):
        return e.name in _SIMPLICITY_ATOMS
    if isinstance(e, And):
        return any(_implies_simplicity(a) for a in e.args)
    return False


@cache
def type_of(e: Expr) -> Callable[[OrderedSemigroup], bool]:
    """The expression as a type, the predicate S -> evaluate(S, e) that
    nil-ext-of and csl-of test their parts with; one function per tree,
    its verdict on S kept in S's derived cache, and its implies_simple
    attribute set by _implies_simplicity(e)."""
    tau = derived(lambda S: evaluate(S, e))
    tau.implies_simple = _implies_simplicity(e)
    return tau
