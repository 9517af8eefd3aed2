"""Shared abstract syntax for the temporal logics handled by the toolkit.

One formula type covers all logics; a logic identifier selects which
operators are admissible.  Guards (the regular expressions inside the
dynamic-logic modalities) are a separate small tree whose atoms are either
propositional formulas or tests of formulas.
"""
from __future__ import annotations

import enum
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


class LogicViolationError(ValueError):
    """Raised when a formula uses operators outside the selected logic."""

    def __init__(self, logic: LogicId, violations: list[str]):
        self.logic = logic
        self.violations = violations
        super().__init__(f"not a {logic.value} formula: " + "; ".join(violations))


class HashOnce:
    """Frozen-dataclass base whose instances compute their hash once.

    The value is the hash of the field tuple, as the generated
    ``__hash__`` would return, but it is stored at construction, so a
    dict lookup no longer walks the whole subtree.  It depends on the
    interpreter's string-hash seed, so a pickled node is rebuilt from its
    fields and hashed afresh where it is loaded.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Defined in the class itself, so the dataclass decorator keeps them.
        cls.__hash__ = HashOnce.__hash__
        cls.__eq__ = HashOnce.__eq__

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(tuple(self.__dict__.values())))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Field-by-field equality, walked with an explicit stack."""
        if type(other) is not type(self):
            return NotImplemented
        work = [(self, other)]
        while work:
            a, b = work.pop()
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a.__dict__.values(), b.__dict__.values()):
                if x is y:
                    continue
                if isinstance(x, HashOnce):
                    work.append((x, y))
                elif x != y:
                    return False
        return True

    def __reduce__(self):
        fields = tuple(v for k, v in self.__dict__.items() if k != "_hash")
        return type(self), fields


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

# The fields that rewrite descends into, per node class, in constructor
# order: every subformula and subguard, but not the propositional formula
# of a guard atom.
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


def rewrite(phi: Formula, rule: Callable[[Formula], Formula]) -> Formula:
    """Rebuild phi bottom-up, replacing every formula node by its rule.

    Each node is first rebuilt from its rewritten fields (a node whose
    fields all come back unchanged is kept as it is), and a formula node
    is then replaced by ``rule(rebuilt)``.  Test formulas inside guards
    are rewritten too; the propositional atoms of guards are not.  Equal
    subformulas are rewritten once per call.  The walk keeps its own
    stack, so deep nesting does not reach the recursion limit.
    """
    done: dict = {}  # node -> its rewrite, or None for the node itself
    stack: list = [(phi, None)]
    while stack:
        node, parts = stack.pop()
        if parts is None:
            if node in done:
                continue
            parts = _PARTS[type(node)](node)
            if parts:
                # Back to the node once its parts are done.
                stack.append((node, parts))
                stack.extend((part, None) for part in reversed(parts))
                continue
        out = node
        if parts:
            new = [done[part] or part for part in parts]
            if any(map(is_not, new, parts)):
                out = type(node)(*new)
        if isinstance(out, Formula):
            out = rule(out)
        done[node] = None if out is node else out
    return done[phi] or phi


def _children(phi: Formula) -> tuple[Formula, ...]:
    if isinstance(phi, (Not, Next, Eventually, Always, PromptEventually)):
        return (phi.arg,)
    if isinstance(phi, (And, Or, Implies, Until, Release)):
        return (phi.left, phi.right)
    if isinstance(phi, (Diamond, Box, PromptDiamond)):
        return (phi.arg,)
    return ()


def guard_tests(guard: Guard) -> tuple[Formula, ...]:
    """All test formulas occurring in a guard, in syntactic order."""
    if isinstance(guard, Prop):
        return ()
    if isinstance(guard, Test):
        return (guard.formula,)
    if isinstance(guard, (Alt, Concat)):
        return guard_tests(guard.left) + guard_tests(guard.right)
    if isinstance(guard, Star):
        return guard_tests(guard.arg)
    msg = f"unknown guard node {guard!r}"
    raise TypeError(msg)


def closure(phi: Formula) -> frozenset[Formula]:
    """The set of subformulas of phi.

    Test formulas inside guards contribute their own closures; the
    propositional guard atoms do not.
    """
    seen: set[Formula] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        stack.extend(_children(f))
        if isinstance(f, (Diamond, Box, PromptDiamond)):
            stack.extend(guard_tests(f.guard))
    return frozenset(seen)


def guard_length(guard: Guard) -> int:
    """Number of guard nodes: atoms, tests and regular operators."""
    if isinstance(guard, (Prop, Test)):
        return 1
    if isinstance(guard, (Alt, Concat)):
        return 1 + guard_length(guard.left) + guard_length(guard.right)
    if isinstance(guard, Star):
        return 1 + guard_length(guard.arg)
    msg = f"unknown guard node {guard!r}"
    raise TypeError(msg)


def size(phi: Formula) -> int:
    """Distinct subformulas plus total guard length (with multiplicity)."""
    guards_total = 0
    for f in closure(phi):
        if isinstance(f, (Diamond, Box, PromptDiamond)):
            guards_total += guard_length(f.guard)
    return len(closure(phi)) + guards_total


def propositions(phi: Formula | Guard) -> frozenset[str]:
    """All atomic propositions occurring in a formula or a guard.

    Guard atoms and tests count, as do the guards inside a formula.
    """
    out: set[str] = set()
    stack: list[Formula | Guard] = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, (Atom, NegAtom)):
            out.add(node.name)
        elif isinstance(node, (Not, Next, Eventually, Always, PromptEventually)):
            stack.append(node.arg)
        elif isinstance(node, (And, Or, Implies, Until, Release)):
            stack.extend((node.left, node.right))
        elif isinstance(node, (Diamond, Box, PromptDiamond)):
            stack.extend((node.guard, node.arg))
        elif isinstance(node, (Prop, Test)):
            stack.append(node.formula)
        elif isinstance(node, (Alt, Concat)):
            stack.extend((node.left, node.right))
        elif isinstance(node, Star):
            stack.append(node.arg)
    return frozenset(out)


def is_propositional(phi: Formula) -> bool:
    """True for Boolean combinations of atoms, tt and ff (no general not)."""
    if isinstance(phi, (Tt, Ff, Atom, NegAtom)):
        return True
    if isinstance(phi, Not):
        return is_propositional(phi.arg)
    if isinstance(phi, (And, Or, Implies)):
        return is_propositional(phi.left) and is_propositional(phi.right)
    return False


def is_test_free(phi_or_guard: Formula | Guard) -> bool:
    """True when no guard in the input contains a test."""
    if isinstance(phi_or_guard, Guard):
        return not guard_tests(phi_or_guard)
    ok = True
    for f in closure(phi_or_guard):
        if isinstance(f, (Diamond, Box, PromptDiamond)) and guard_tests(f.guard):
            ok = False
    return ok


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

    Walks with an explicit stack in preorder, a node's children before
    the tests of its guard, and not below an inadmissible node.
    """
    allowed = _SURFACE[logic]
    violations: list[str] = []
    seen: set[Formula] = set()
    stack: list = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Guard):
            if isinstance(f, Prop):
                if not is_propositional(f.formula):
                    violations.append(
                        "guard atom must be propositional:"
                        f" {format_formula(f.formula)}"
                    )
            elif isinstance(f, Test):
                stack.append(f.formula)
            elif isinstance(f, (Alt, Concat)):
                stack += (f.right, f.left)
            elif isinstance(f, Star):
                stack.append(f.arg)
            continue
        if f in seen:
            continue
        seen.add(f)
        if not isinstance(f, allowed):
            violations.append(
                f"operator {type(f).__name__} not admissible in {logic.value}:"
                f" {format_formula(f)}"
            )
            continue
        if isinstance(f, (Diamond, Box, PromptDiamond)):
            stack.append(f.guard)
        stack.extend(reversed(_children(f)))
    return violations


def require_logic(phi: Formula, logic: LogicId) -> None:
    """Raise LogicViolationError unless phi is admissible in the logic."""
    violations = check_logic(phi, logic)
    if violations:
        raise LogicViolationError(logic, violations)


# Printing.  Precedence levels, loosest first: -> 1, | 2, & 3, U/R 4,
# unary operators 5, atoms 6.  -> and U/R associate to the right.
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNTIL = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


def _fmt(phi: Formula, min_prec: int) -> str:
    text, prec = _fmt_prec(phi)
    if prec < min_prec:
        return f"({text})"
    return text


def _fmt_prec(phi: Formula) -> tuple[str, int]:
    if isinstance(phi, Tt):
        return "tt", _PREC_ATOM
    if isinstance(phi, Ff):
        return "ff", _PREC_ATOM
    if isinstance(phi, Atom):
        return phi.name, _PREC_ATOM
    if isinstance(phi, NegAtom):
        return f"!{phi.name}", _PREC_UNARY
    if isinstance(phi, Not):
        return f"!{_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, And):
        return f"{_fmt(phi.left, _PREC_AND)} & {_fmt(phi.right, _PREC_AND)}", _PREC_AND
    if isinstance(phi, Or):
        return f"{_fmt(phi.left, _PREC_OR)} | {_fmt(phi.right, _PREC_OR)}", _PREC_OR
    if isinstance(phi, Implies):
        left = _fmt(phi.left, _PREC_IMPLIES + 1)
        right = _fmt(phi.right, _PREC_IMPLIES)
        return f"{left} -> {right}", _PREC_IMPLIES
    if isinstance(phi, Next):
        return f"X {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Until):
        left = _fmt(phi.left, _PREC_UNTIL + 1)
        right = _fmt(phi.right, _PREC_UNTIL)
        return f"{left} U {right}", _PREC_UNTIL
    if isinstance(phi, Release):
        left = _fmt(phi.left, _PREC_UNTIL + 1)
        right = _fmt(phi.right, _PREC_UNTIL)
        return f"{left} R {right}", _PREC_UNTIL
    if isinstance(phi, Eventually):
        return f"F {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Always):
        return f"G {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, PromptEventually):
        return f"Fp {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Diamond):
        return f"<{format_guard(phi.guard)}> {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, Box):
        return f"[{format_guard(phi.guard)}] {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    if isinstance(phi, PromptDiamond):
        guard = format_guard(phi.guard)
        return f"<p {guard}> {_fmt(phi.arg, _PREC_UNARY)}", _PREC_UNARY
    msg = f"unknown formula node {phi!r}"
    raise TypeError(msg)


def format_formula(phi: Formula) -> str:
    """Render a formula in the concrete syntax accepted by parse."""
    return _fmt(phi, 0)


# Guard precedence: + 1, ; 2, * 3, atoms 4.
def _gfmt(guard: Guard, min_prec: int) -> str:
    text, prec = _gfmt_prec(guard)
    if prec < min_prec:
        return f"({text})"
    return text


def _gfmt_prec(guard: Guard) -> tuple[str, int]:
    if isinstance(guard, Prop):
        text, _prec = _fmt_prec(guard.formula)
        if isinstance(guard.formula, (Tt, Ff, Atom)):
            return text, 4
        return f"({text})", 4
    if isinstance(guard, Test):
        return f"{{{format_formula(guard.formula)}}}?", 4
    if isinstance(guard, Alt):
        return f"{_gfmt(guard.left, 1)} + {_gfmt(guard.right, 1)}", 1
    if isinstance(guard, Concat):
        return f"{_gfmt(guard.left, 2)} ; {_gfmt(guard.right, 2)}", 2
    if isinstance(guard, Star):
        return f"{_gfmt(guard.arg, 4)}*", 3
    msg = f"unknown guard node {guard!r}"
    raise TypeError(msg)


def format_guard(guard: Guard) -> str:
    """Render a guard in the concrete syntax accepted by the parser."""
    return _gfmt(guard, 0)
