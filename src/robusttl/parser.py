"""Parser for the concrete formula and guard syntax.

Formula operators, loosest binding first:

    f -> f              implication, right associative
    f | f               disjunction
    f & f               conjunction
    f U f,  f R f       until / release, right associative
    ! f, X f, F f, G f, Fp f, < r > f, [ r ] f, <p r > f

Guard operators, loosest binding first: `+` (union), `;` (concatenation),
postfix `*` (iteration), then `|`, `&` and `!` over propositional
operands; the operands are `tt`, `ff`, atoms, `( r )` and tests `{ f }?`.
`<p` opens a prompt diamond iff the token after `p` can start a guard
operand, so `<p*> q` is a diamond and `<p tt*> q` a prompt diamond.

One operator-precedence parser reads both (Pratt, "Top down operator
precedence", POPL 1973): each context has one table of binary and
postfix operators and one of prefix operators.  Operator chains are read
with an explicit stack and prefix chains with a loop, so only bracket
nesting (`( )`, `[ ]`, `< >`, `{ }?`) recurses, two frames per bracket:
about 490 nested brackets reach Python's default recursion limit of 1000.
"""
from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple

from .formulas import (
    PROP_NAME,
    Alt,
    And,
    Always,
    Atom,
    Box,
    Concat,
    Diamond,
    Eventually,
    Ff,
    Formula,
    Guard,
    Implies,
    LogicId,
    NegAtom,
    Next,
    Not,
    Or,
    PromptDiamond,
    PromptEventually,
    Prop,
    Release,
    Star,
    Test,
    Tt,
    Until,
    require_logic,
)


class FormulaSyntaxError(ValueError):
    """Raised on malformed formula or guard text."""


_TOKEN_RE = re.compile(
    rf"(?P<ident>{PROP_NAME.pattern})|(?P<op>->|[!&|(){{}}?+;*<>\[\]])|(?P<bad>\S)"
)

_KEYWORDS = {"tt", "ff", "X", "F", "G", "Fp", "U", "R"}

# The tokens that can start a guard operand.
_GUARD_START = {"ident", "tt", "ff", "(", "{", "!"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then an end token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        word = match.group()
        if match.lastgroup == "bad":
            msg = f"unexpected character {word!r} at position {match.start()}"
            raise FormulaSyntaxError(msg)
        kind = "ident" if match.lastgroup == "ident" and word not in _KEYWORDS else word
        tokens.append((kind, word, match.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _negate(arg: Formula) -> Formula:
    return NegAtom(arg.name) if type(arg) is Atom else Not(arg)


def _lift(build: Callable[..., Formula]) -> Callable[..., Guard]:
    """A formula constructor applied to the formulas of `Prop` guards."""

    def lifted(*guards: Guard) -> Guard:
        for guard in guards:
            if type(guard) is not Prop:
                msg = f"guard expression cannot be used as a propositional operand: {guard}"
                raise FormulaSyntaxError(msg)
        return Prop(build(*(guard.formula for guard in guards)))

    return lifted


class _Syntax(NamedTuple):
    name: str
    # Token kind -> (level, "left" / "right" / "postfix", constructor);
    # a higher level binds tighter.
    binary: dict
    # Token kind -> (constructor, closing bracket of a guard argument or None).
    prefix: dict
    # Wraps tt, ff and atoms.
    atom: Callable


_FORMULA = _Syntax(
    "formula",
    {
        "->": (1, "right", Implies),
        "|": (2, "left", Or),
        "&": (3, "left", And),
        "U": (4, "right", Until),
        "R": (4, "right", Release),
    },
    {
        "!": (_negate, None),
        "X": (Next, None),
        "F": (Eventually, None),
        "G": (Always, None),
        "Fp": (PromptEventually, None),
        "[": (Box, "]"),
        "<": (Diamond, ">"),
    },
    lambda node: node,
)

_GUARD = _Syntax(
    "guard",
    {
        "+": (1, "left", Alt),
        ";": (2, "left", Concat),
        "*": (3, "postfix", Star),
        "|": (4, "left", _lift(Or)),
        "&": (5, "left", _lift(And)),
    },
    {"!": (_lift(_negate), None)},
    Prop,
)

_ATOMS = {"ident": Atom, "tt": lambda _: Tt(), "ff": lambda _: Ff()}

# A token that is no operator of the context ends the chain.
_END = (0, "left", None)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def take(self, kind: str) -> None:
        found, text, pos = self.tokens[self.index]
        if found != kind:
            msg = f"expected {kind!r} but found {text or 'end of input'!r} at position {pos}"
            raise FormulaSyntaxError(msg)
        self.index += 1

    def expression(self, syntax: _Syntax) -> Formula | Guard:
        """Operands joined by the binary and postfix operators of `syntax`."""
        values = [self.operand(syntax)]
        waiting = []
        while True:
            level, fixity, build = syntax.binary.get(self.tokens[self.index][0], _END)
            # Apply the waiting operators that bind at least as tightly;
            # a right-associative one leaves those of its own level waiting.
            while waiting and waiting[-1][0] >= level + (fixity == "right"):
                _, apply = waiting.pop()
                right = values.pop()
                values[-1] = apply(values[-1], right)
            if build is None:
                return values[0]
            self.index += 1
            if fixity == "postfix":
                values[-1] = build(values[-1])
            else:
                waiting.append((level, build))
                values.append(self.operand(syntax))

    def operand(self, syntax: _Syntax) -> Formula | Guard:
        """A primary under a chain of prefix operators."""
        builds = []
        while (entry := syntax.prefix.get(self.tokens[self.index][0])) is not None:
            build, close = entry
            self.index += 1
            if close is not None:
                if close == ">" and self.tokens[self.index][1] == "p" and (
                    self.tokens[self.index + 1][0] in _GUARD_START
                ):
                    build = PromptDiamond
                    self.index += 1
                build = partial(build, self.expression(_GUARD))
                self.take(close)
            builds.append(build)
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind in _ATOMS:
            node = syntax.atom(_ATOMS[kind](text))
        elif kind == "(":
            node = self.expression(syntax)
            self.take(")")
        elif kind == "{" and syntax is _GUARD:
            node = Test(self.expression(_FORMULA))
            self.take("}")
            self.take("?")
        else:
            msg = f"expected a {syntax.name} but found {text or 'end of input'!r} at position {pos}"
            raise FormulaSyntaxError(msg)
        for build in reversed(builds):
            node = build(node)
        return node


def _parse(text: str, syntax: _Syntax) -> Formula | Guard:
    parser = _Parser(text)
    node = parser.expression(syntax)
    kind, word, pos = parser.tokens[parser.index]
    if kind != "end":
        raise FormulaSyntaxError(f"unexpected trailing input {word!r} at position {pos}")
    return node


def parse(text: str, logic: LogicId | None = None) -> Formula:
    """Parse a formula; when a logic is given, enforce its surface."""
    phi = _parse(text, _FORMULA)
    if logic is not None:
        require_logic(phi, logic)
    return phi


def parse_guard(text: str) -> Guard:
    """Parse a guard expression."""
    return _parse(text, _GUARD)
