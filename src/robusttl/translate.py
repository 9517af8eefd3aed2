"""Formula-to-formula translations.

Covers derobustification at a threshold, of robust prompt temporal
formulas and, bit by bit, of robust dynamic-logic formulas with
test-free guards; embeddings of the temporal and classical dynamic
logics into the five-valued dynamic logic; desugaring of temporal
operators into guards; and the fragment translation, the
derobustification of the test-free limit-matching prompt fragment.
"""
from __future__ import annotations

from functools import cache, reduce
from typing import NamedTuple

from .formulas import (
    Always,
    And,
    Box,
    Concat,
    Diamond,
    Eventually,
    Ff,
    Formula,
    Guard,
    Implies,
    LogicId,
    LogicViolationError,
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
    _fold,
    _parts,
    check_logic,
    format_guard,
    guard_tests,
    propositions,
    require_logic,
    rewrite,
    walk,
)
from .guards import determinize, extract_regex, is_limit_matching
from .truth import BOTTOM, TOP, TruthValue4, V0011, V0111


class NotTestFreeError(ValueError):
    """Raised when a translation needs test-free guards."""


class NotLimitMatchingError(ValueError):
    """Raised when a guard is not limit-matching; lists every offender."""

    def __init__(self, guards):
        self.guards = tuple(guards)
        listing = ", ".join(format_guard(g) for g in self.guards)
        super().__init__(f"guards are not limit-matching: {listing}")


def rprompt_to_prompt(phi: Formula, beta: TruthValue4) -> Formula:
    """Derobustify a robust prompt temporal formula at a threshold.

    The value of phi is at least beta under bound k exactly when the
    returned prompt formula holds under the same bound.
    """
    require_logic(phi, LogicId.RPROMPT_LTL)
    if beta == BOTTOM:
        return Tt()

    def rule(f: Formula) -> Formula:
        if not isinstance(f, Always) or beta == TOP:
            return f
        if beta == V0111:
            return Eventually(f)
        if beta == V0011:
            return Always(Eventually(f.arg))
        return Eventually(f.arg)

    return rewrite(phi, rule)


def embed_rltl_in_rldl(phi: Formula) -> Formula:
    """Replace the temporal modalities with trivially guarded ones: the
    desugaring of ``ltl_surface_to_ldl``, whose other rules the robust
    temporal logic has no operator for."""
    require_logic(phi, LogicId.RLTL)
    return ltl_surface_to_ldl(phi)


def embed_ldl_in_rldl(phi: Formula) -> Formula:
    """Read a classical dynamic-logic formula five-valued.

    Implications are rewritten classically first; the first bit of the
    five-valued value of the result agrees with the classical value.
    """
    require_logic(phi, LogicId.LDL)

    def rule(f: Formula) -> Formula:
        if isinstance(f, Implies):
            return Or(Not(f.left), f.right)
        return f

    return rewrite(phi, rule)


def ltl_surface_to_ldl(phi: Formula) -> Formula:
    """Desugar temporal operators into guarded modalities.

    Next becomes a one-letter diamond; until and release use tests in
    the guards; eventually and always use the unconstrained iteration.
    Existing guarded modalities are kept, with tests desugared too.
    """
    any_step = Star(Prop(Tt()))

    def rule(f: Formula) -> Formula:
        if isinstance(f, Next):
            return Diamond(Prop(Tt()), f.arg)
        if isinstance(f, Until):
            return Diamond(Star(Concat(Test(f.left), Prop(Tt()))), f.right)
        if isinstance(f, Release):
            return Box(Star(Concat(Test(Not(f.left)), Prop(Tt()))), f.right)
        if isinstance(f, Eventually):
            return Diamond(any_step, f.arg)
        if isinstance(f, Always):
            return Box(any_step, f.arg)
        if isinstance(f, (PromptEventually, PromptDiamond)):
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        return f

    return rewrite(phi, rule)


def _guards(phi: Formula) -> dict:
    """The guards of phi's modalities, each once, in syntactic order."""
    return dict.fromkeys(
        f.guard for f in walk(phi) if isinstance(f, (Diamond, Box, PromptDiamond))
    )


def _require_test_free(guards) -> None:
    with_tests = [g for g in guards if guard_tests(g)]
    if with_tests:
        listing = ", ".join(format_guard(g) for g in with_tests)
        msg = f"guards contain tests: {listing}"
        raise NotTestFreeError(msg)


def is_test_free(phi: Formula) -> bool:
    """Whether every guard of phi is test-free, so that ``derobustify``
    takes it."""
    return not any(guard_tests(g) for g in _guards(phi))


def check_fragment(phi: Formula) -> None:
    """Validate the test-free limit-matching fragment conditions.

    Offending guards are listed once each, in syntactic order.
    """
    require_logic(phi, LogicId.RPROMPT_LDL)
    guards = _guards(phi)
    _require_test_free(guards)
    offenders = [g for g in guards if not is_limit_matching(g)]
    if offenders:
        raise NotLimitMatchingError(offenders)


def _split_guard(guard: Guard):
    """(prefix regex, completion regex) per automaton state.

    The deterministic guard automaton is split at each state q, all of
    which are reachable: the prefix language leads from the start to q,
    the completion language from q to the final states.
    """
    dfa = determinize(guard, propositions(guard))
    return [
        (extract_regex(dfa, dfa.initial, {q}), extract_regex(dfa, q, dfa.finals))
        for q in range(dfa.n_states)
    ]


def _almost_all(parts, arg: Formula) -> Formula:
    """Some prefix reaches a state from which every match satisfies arg:
    almost all matches do, given the guard's split."""
    return reduce(Or, [Diamond(pre, Box(post, arg)) for pre, post in parts])


def _infinitely_many(parts, arg: Formula) -> Formula:
    """From every state a prefix reaches, some match satisfies arg:
    infinitely many matches do, given the guard's split."""
    return reduce(And, [Box(pre, Diamond(post, arg)) for pre, post in parts])


def _implies(left: tuple, right: tuple, i: int) -> Formula:
    """Bit i of ``a -> b`` from the four bit formulas of a and of b: bit i
    of b, or each bit of a implies the same bit of b.

    A term implied by another is dropped: bit j of a value implies bit
    j + 1, so a term of the same left bit as the one before it, or of
    the same right bit, says no more than one of the two.
    """
    terms: list = []
    for a, b in zip(left, right):
        if terms and a is terms[-1][0]:
            continue
        if terms and b is terms[-1][1]:
            terms.pop()
        terms.append((a, b))
    below = reduce(And, [Or(Not(a), b) for a, b in terms])
    if len(terms) == 1 and terms[0][1] is right[i - 1]:
        return below
    return Or(right[i - 1], below)


_BITS = range(1, 5)


class _Bit(NamedTuple):
    """The formula of bit ``bit`` of the value of ``node``: a part of the
    fold in ``derobustify``.  ``_fold`` marks its own pairs by their type
    being exactly tuple, so a key is a subclass."""

    node: Formula
    bit: int


def derobustify(phi: Formula, beta: TruthValue4) -> Formula:
    """Derobustify a robust dynamic-logic formula with test-free guards.

    The value of phi is at least beta on a trace exactly when the
    returned plain formula holds there.  It is the formula of bit i of
    phi's value, i the bit index of beta, built from the bit formulas of
    the parts:

    - atoms, tt and ff stay; & and | work bit by bit, as do diamonds
      and, for the prompt fragment, prompt diamonds;
    - ``!a`` is ``!`` of bit 1 of a at every bit, and bit i of
      ``a -> b`` is bit i of b or ``!`` bit j of a or bit j of b for
      every j;
    - bit i of ``[g] a`` is the OR of its primed bits 1..i, primed bit
      j over bit j of a.  Primed bit 1 says every match satisfies it,
      bit 2 almost all of them, bit 3 infinitely many, bit 4 some match
      or none at all; when g matches finitely often, bit 2 asks every
      match and bit 3 what bit 4 asks.  Bits 2 and 3 read the guard's
      split automaton and a case split on whether g matches infinitely
      often, which a limit-matching guard always does.  As bit j of a
      implies bit j + 1, each primed bit implies the next, so the OR is
      primed bit i alone.

    The fold computes one formula per (node, bit) asked for, so the
    four bits ``->`` asks of each side are shared: interned nodes make a
    DAG of the result, not a tree.  Each guard is split once per call.
    Prompt robust dynamic-logic input is taken too, and goes to prompt
    dynamic logic.  A guard with a test raises ``NotTestFreeError``.
    """
    violations = check_logic(phi, LogicId.RLDL)
    if violations and check_logic(phi, LogicId.RPROMPT_LDL):
        raise LogicViolationError(LogicId.RLDL, violations)
    _require_test_free(_guards(phi))
    if beta == BOTTOM:
        return Tt()
    split = cache(_split_guard)
    limit_matching = cache(is_limit_matching)
    made: dict = {}

    def need(node: Formula, bit: int) -> _Bit:
        # The fold keeps its values by identity: one key per (node, bit).
        key = _Bit(node, bit)
        return made.setdefault(key, key)

    def parts(key: _Bit) -> tuple:
        node, i = key
        if type(node) is Not:
            return (need(node.arg, 1),)
        if type(node) is Implies:
            return tuple(need(f, j) for f in (node.left, node.right) for j in _BITS)
        return tuple(need(f, i) for f in _parts(node) if isinstance(f, Formula))

    def box(guard: Guard, arg: Formula, i: int) -> Formula:
        if i == 1:
            return Box(guard, arg)
        if limit_matching(guard):
            if i == 4:
                return Diamond(guard, arg)
            if i == 2:
                return _almost_all(split(guard), arg)
            return _infinitely_many(split(guard), arg)
        some = Or(Diamond(guard, arg), Box(guard, Ff()))
        if i == 4:
            return some
        infinite = _infinitely_many(split(guard), Tt())
        if i == 2:
            return Or(Box(guard, arg), And(infinite, _almost_all(split(guard), arg)))
        return And(Or(Not(infinite), _infinitely_many(split(guard), arg)), some)

    def combine(key: _Bit, below: list) -> Formula:
        node, i = key
        kind = type(node)
        if kind is Implies:
            return _implies(below[:4], below[4:], i)
        if kind is Box:
            return box(node.guard, below[0], i)
        if kind in (Diamond, PromptDiamond):
            return kind(node.guard, below[0])
        return kind(*below) if below else node

    return _fold(need(phi, beta.bit_index), combine, parts)


def fragment_translate(phi: Formula, beta: TruthValue4) -> Formula:
    """Remove five-valued boxes from the test-free limit-matching fragment.

    Because every guard matches infinitely often on every trace, the box
    thresholds reduce to classical combinations over guard splits: a
    prefix jump to an automaton state followed by a box or diamond over
    the completion language.  It is ``derobustify`` once the fragment is
    checked.
    """
    check_fragment(phi)
    return derobustify(phi, beta)
