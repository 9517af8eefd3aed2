"""Shared abstract syntax for the temporal logics handled by the toolkit.

One formula type covers all logics; a logic identifier selects which
operators are admissible.  Guards (the regular expressions inside the
dynamic-logic modalities) are a separate small tree whose atoms are either
propositional formulas or tests of formulas.

Nodes are interned when they are built (hash-consing): equal nodes are
one object, so equality is identity, and every cache keyed by formula
finds an equal node without comparing subtrees.

Every pass over the tree is one of two traversals, each with its own
stack, so nothing here recurses on the depth of a formula.  ``walk``
visits each node once in preorder; closure, propositions and the
admissibility check are walks.  ``_fold`` computes a value per node
from the values of its parts; guard lengths, guard tests, the polarity
of the prompt operators, the printer, which reads one table of operator
syntax, and ``rewrite``, which
rebuilds a formula by a rule per node, are folds.  The translations are
rewrites.
"""
from __future__ import annotations

import enum
import re
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter, is_not


class LogicId(enum.Enum):
    LTL = "ltl"
    LDL = "ldl"
    PROMPT_LTL = "promptltl"
    PROMPT_LDL = "promptldl"
    RLTL = "rltl"
    RPROMPT_LTL = "rpromptltl"
    RLDL = "rldl"
    RPROMPT_LDL = "rpromptldl"


#: Logics evaluated over the five-valued domain.
ROBUST_LOGICS = frozenset(
    {LogicId.RLTL, LogicId.RPROMPT_LTL, LogicId.RLDL, LogicId.RPROMPT_LDL}
)

#: Logics whose evaluation takes a bound for the prompt operators.
PROMPT_LOGICS = frozenset(
    {LogicId.PROMPT_LTL, LogicId.PROMPT_LDL, LogicId.RPROMPT_LTL, LogicId.RPROMPT_LDL}
)


#: A proposition name as the formula parser reads it; the readers of
#: traces, systems and arenas accept no other.
PROP_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*'*")


class LogicViolationError(ValueError):
    """Raised when a formula uses operators outside the selected logic."""

    def __init__(self, logic: LogicId, violations: list[str]):
        self.logic = logic
        self.violations = violations
        super().__init__(f"not a {logic.value} formula: " + "; ".join(violations))


class HashOnce:
    """Frozen-dataclass base whose nodes are interned at construction.

    Building a node looks its class and fields up in one table of live
    nodes and returns the node found there, so equal nodes are one object
    and equality is identity.  The hash is the hash of the field tuple,
    as the generated ``__hash__`` would return, stored when the node is
    first built.  It depends on the interpreter's string-hash seed, so a
    pickled node is rebuilt from its fields where it is loaded, and comes
    back as the live node there.  The table holds its nodes weakly, so a
    node that is no longer used elsewhere leaves it.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Defined in the class itself, so the dataclass decorator keeps them.
        cls.__hash__ = HashOnce.__hash__
        cls.__eq__ = object.__eq__

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            object.__setattr__(node, "_hash", hash(fields))
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        fields = tuple(v for k, v in self.__dict__.items() if k != "_hash")
        return type(self), fields


# The live nodes, keyed by class and fields.
_NODES = weakref.WeakValueDictionary()


class Formula(HashOnce):
    """Base class for formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


class Guard(HashOnce):
    """Base class for guard nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_guard(self)


@dataclass(frozen=True)
class Tt(Formula):
    pass


@dataclass(frozen=True)
class Ff(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class NegAtom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class PromptEventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    guard: Guard
    arg: Formula


@dataclass(frozen=True)
class Box(Formula):
    guard: Guard
    arg: Formula


@dataclass(frozen=True)
class PromptDiamond(Formula):
    guard: Guard
    arg: Formula


@dataclass(frozen=True)
class Prop(Guard):
    """A propositional guard atom matching one letter."""

    formula: Formula


@dataclass(frozen=True)
class Test(Guard):
    """A test guard matching the empty word when its formula holds."""

    formula: Formula


@dataclass(frozen=True)
class Alt(Guard):
    left: Guard
    right: Guard


@dataclass(frozen=True)
class Concat(Guard):
    left: Guard
    right: Guard


@dataclass(frozen=True)
class Star(Guard):
    arg: Guard


# The guard denoting the empty-word language.
EPSILON_GUARD = Star(Prop(Ff()))

# The fields that the traversals descend into, per node class, in
# constructor order: every subformula and subguard, but not the
# propositional formula of a guard atom.
_PARTS = {
    **dict.fromkeys((Tt, Ff, Atom, NegAtom, Prop), lambda node: ()),
    **dict.fromkeys(
        (Not, Next, Eventually, Always, PromptEventually, Star),
        lambda node: (node.arg,),
    ),
    **dict.fromkeys(
        (And, Or, Implies, Until, Release, Alt, Concat), attrgetter("left", "right")
    ),
    **dict.fromkeys((Diamond, Box, PromptDiamond), attrgetter("guard", "arg")),
    Test: lambda node: (node.formula,),
}

_MODAL = (Diamond, Box, PromptDiamond)


def _parts(node) -> tuple:
    return _PARTS[type(node)](node)


def _fields(node) -> tuple:
    """The parts, and the formula of a guard atom too."""
    return (node.formula,) if type(node) is Prop else _PARTS[type(node)](node)


def _guard_parts(node) -> tuple:
    """The parts of a guard node, but not the formula of a test."""
    return () if type(node) is Test else _PARTS[type(node)](node)


def walk(root: Formula | Guard, parts: Callable = _parts):
    """Each node below root once, in preorder.

    A node comes first, then the nodes that ``parts`` gives for it (by
    default its parts, as ``rewrite`` sees them), left to right.  A
    shared subtree, and so every repeated subformula, is visited once.
    The walk keeps its own stack, so deep nesting does not reach the
    recursion limit.
    """
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(parts(node)))


def _fold(root: Formula | Guard, combine: Callable, parts: Callable):
    """The value ``combine(node, values of its parts)`` at root.

    Values are computed bottom-up with an explicit stack, the parts of
    a node left to right, and kept by node, so a shared subtree is
    combined once per call.
    """
    done: dict[int, object] = {}
    stack: list = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # a node whose parts are done
            node, below = node
            done[id(node)] = combine(node, [done[id(part)] for part in below])
            continue
        if id(node) in done:
            continue
        below = parts(node)
        if below:
            stack.append((node, below))
            stack.extend(reversed(below))
        else:
            done[id(node)] = combine(node, below)
    return done[id(root)]


def rewrite(phi: Formula, rule: Callable[[Formula], Formula]) -> Formula:
    """Rebuild phi bottom-up, replacing every formula node by its rule.

    Each node is first rebuilt from its rewritten parts (a node whose
    parts all come back unchanged is kept as it is), and a formula node
    is then replaced by ``rule(rebuilt)``.  Test formulas inside guards
    are rewritten too; the propositional atoms of guards are not.  The
    rule sees each subformula once per call, the left parts of a node
    before its right ones.
    """

    def combine(node, below):
        # An unchanged node would come back from the table; not asking is faster.
        if any(map(is_not, below, _parts(node))):
            node = type(node)(*below)
        return rule(node) if isinstance(node, Formula) else node

    return _fold(phi, combine, _parts)


def guard_tests(guard: Guard) -> tuple[Formula, ...]:
    """All test formulas occurring in a guard, in syntactic order."""
    return _fold(
        guard,
        lambda node, below: (node.formula,) if type(node) is Test else sum(below, ()),
        _guard_parts,
    )


def prompt_positive(phi: Formula) -> bool:
    """Whether every prompt operator in phi occurs positively.

    The prompt logics have no negation, so only a test in the guard of
    a box turns polarity: ``[{<p tt*> q}?] r`` asks more of a trace as
    the bound grows.  When every prompt operator is positive, a larger
    bound, and the unbounded relaxation most of all, only makes phi
    truer.  The fold gives each node whether a prompt operator occurs
    below it positively and whether one occurs negatively.
    """

    def combine(node, below) -> tuple[bool, bool]:
        if type(node) is Box:
            (guard_pos, guard_neg), arg = below
            below = ((guard_neg, guard_pos), arg)
        positive = isinstance(node, (PromptEventually, PromptDiamond))
        return (
            positive or any(pos for pos, _ in below),
            any(neg for _, neg in below),
        )

    return not _fold(phi, combine, _parts)[1]


def closure(phi: Formula) -> frozenset[Formula]:
    """The set of subformulas of phi.

    Test formulas inside guards contribute their own closures; the
    propositional guard atoms do not.
    """
    return frozenset(node for node in walk(phi) if isinstance(node, Formula))


def guard_length(guard: Guard) -> int:
    """Number of guard nodes: atoms, tests and regular operators."""
    return _fold(guard, lambda node, below: 1 + sum(below), _guard_parts)


def size(phi: Formula) -> int:
    """Distinct subformulas plus total guard length (with multiplicity)."""
    sub = closure(phi)
    return len(sub) + sum(guard_length(f.guard) for f in sub if isinstance(f, _MODAL))


def propositions(phi: Formula | Guard) -> frozenset[str]:
    """All atomic propositions occurring in a formula or a guard.

    Guard atoms and tests count, as do the guards inside a formula.
    """
    return frozenset(
        node.name for node in walk(phi, _fields) if type(node) in (Atom, NegAtom)
    )


_PROPOSITIONAL = frozenset({Tt, Ff, Atom, NegAtom, Not, And, Or, Implies})


def is_propositional(phi: Formula) -> bool:
    """True for Boolean combinations of atoms, tt and ff (no general not)."""
    return all(type(node) in _PROPOSITIONAL for node in walk(phi))


# Admissible node classes per logic.  Guards impose additional rules
# (see check_logic): only the dynamic logics may carry guards at all and
# tests recursively obey the same logic.
_SURFACE: dict[LogicId, tuple[type, ...]] = {
    LogicId.LTL: (
        Tt, Ff, Atom, NegAtom, Not, And, Or, Implies,
        Next, Until, Release, Eventually, Always,
    ),
    LogicId.LDL: (Tt, Ff, Atom, NegAtom, Not, And, Or, Implies, Diamond, Box),
    LogicId.PROMPT_LTL: (
        Tt, Ff, Atom, NegAtom, And, Or,
        Next, Until, Release, Eventually, Always, PromptEventually,
    ),
    LogicId.PROMPT_LDL: (
        Tt, Ff, Atom, NegAtom, And, Or, Diamond, Box, PromptDiamond,
    ),
    LogicId.RLTL: (Tt, Ff, Atom, NegAtom, Not, And, Or, Implies, Eventually, Always),
    LogicId.RPROMPT_LTL: (
        Tt, Ff, Atom, NegAtom, And, Or, Eventually, Always, PromptEventually,
    ),
    LogicId.RLDL: (Tt, Ff, Atom, NegAtom, Not, And, Or, Implies, Diamond, Box),
    LogicId.RPROMPT_LDL: (
        Tt, Ff, Atom, NegAtom, And, Or, Diamond, Box, PromptDiamond,
    ),
}


def check_logic(phi: Formula, logic: LogicId) -> list[str]:
    """Return a list of admissibility violations (empty when well-formed).

    Walks in preorder, the argument of a modal node before its guard and
    the tests in it, each subformula once and not below an inadmissible
    node.
    """
    allowed = _SURFACE[logic]
    violations: list[str] = []

    def parts(node) -> tuple:
        if isinstance(node, Formula):
            if not isinstance(node, allowed):
                violations.append(
                    f"operator {type(node).__name__} not admissible in {logic.value}:"
                    f" {format_formula(node)}"
                )
                return ()
            if isinstance(node, _MODAL):
                return node.arg, node.guard
        elif type(node) is Prop and not is_propositional(node.formula):
            violations.append(
                f"guard atom must be propositional: {format_formula(node.formula)}"
            )
        return _PARTS[type(node)](node)

    for _node in walk(phi, parts):
        pass
    return violations


def require_logic(phi: Formula, logic: LogicId) -> None:
    """Raise LogicViolationError unless phi is admissible in the logic."""
    violations = check_logic(phi, logic)
    if violations:
        raise LogicViolationError(logic, violations)


# Printing: per node class, the text before its first part; then, for
# each part, the least level at which it prints without parentheses and
# the text after it; and the level of the result.  Formula levels,
# loosest first: -> 1, | 2, & 3, U/R 4, unary operators 5, atoms 6; ->
# and U/R associate to the right.  Guard levels: + 1, ; 2, * 3, atoms
# and tests 4.  A guard atom puts parentheses around anything but tt, ff
# and an atom.
_SYNTAX = {
    Tt: ("tt", (), 6),
    Ff: ("ff", (), 6),
    Not: ("!", ((5, ""),), 5),
    And: ("", ((3, " & "), (3, "")), 3),
    Or: ("", ((2, " | "), (2, "")), 2),
    Implies: ("", ((2, " -> "), (1, "")), 1),
    Next: ("X ", ((5, ""),), 5),
    Until: ("", ((5, " U "), (4, "")), 4),
    Release: ("", ((5, " R "), (4, "")), 4),
    Eventually: ("F ", ((5, ""),), 5),
    Always: ("G ", ((5, ""),), 5),
    PromptEventually: ("Fp ", ((5, ""),), 5),
    Diamond: ("<", ((0, "> "), (5, "")), 5),
    Box: ("[", ((0, "] "), (5, "")), 5),
    PromptDiamond: ("<p ", ((0, "> "), (5, "")), 5),
    Prop: ("", ((6, ""),), 4),
    Test: ("{", ((0, "}?"),), 4),
    Alt: ("", ((1, " + "), (1, "")), 1),
    Concat: ("", ((2, " ; "), (2, "")), 2),
    Star: ("", ((4, "*"),), 3),
}


def _print(node, below) -> tuple[str, int]:
    """The text of a node and its level, from those of its fields."""
    kind = type(node)
    if kind is Atom:
        return node.name, 6
    if kind is NegAtom:
        return f"!{node.name}", 5
    text, after, level = _SYNTAX[kind]
    for (part, at), (need, piece) in zip(below, after):
        text += (f"({part})" if at < need else part) + piece
    return text, level


def format_formula(phi: Formula) -> str:
    """Render a formula in the concrete syntax accepted by parse."""
    return _fold(phi, _print, _fields)[0]


def format_guard(guard: Guard) -> str:
    """Render a guard in the concrete syntax accepted by the parser."""
    return _fold(guard, _print, _fields)[0]
