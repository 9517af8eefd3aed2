"""Formula-to-formula translations.

Covers derobustification of prompt formulas at a threshold, embeddings
of the temporal and classical dynamic logics into the five-valued
dynamic logic, desugaring of temporal operators into guards, and the
fragment translation that removes five-valued boxes over test-free
limit-matching guards by splitting guards at automaton states.
"""
from __future__ import annotations

from functools import cache, reduce

from .formulas import (
    Always,
    And,
    Box,
    Concat,
    Diamond,
    Eventually,
    Formula,
    Guard,
    Implies,
    LogicId,
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


def check_fragment(phi: Formula) -> None:
    """Validate the test-free limit-matching fragment conditions.

    Offending guards are listed once each, in syntactic order.
    """
    require_logic(phi, LogicId.RPROMPT_LDL)
    guards = dict.fromkeys(
        f.guard for f in walk(phi) if isinstance(f, (Diamond, Box, PromptDiamond))
    )
    with_tests = [g for g in guards if guard_tests(g)]
    if with_tests:
        listing = ", ".join(format_guard(g) for g in with_tests)
        msg = f"guards contain tests: {listing}"
        raise NotTestFreeError(msg)
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


def fragment_translate(phi: Formula, beta: TruthValue4) -> Formula:
    """Remove five-valued boxes from the test-free limit-matching fragment.

    Because every guard matches infinitely often on every trace, the box
    thresholds reduce to classical combinations over guard splits: a
    prefix jump to an automaton state followed by a box or diamond over
    the completion language.
    """
    check_fragment(phi)
    if beta == BOTTOM:
        return Tt()
    split_guard = cache(_split_guard)

    def rule(f: Formula) -> Formula:
        if not isinstance(f, Box) or beta == TOP:
            return f
        if beta not in (V0111, V0011):
            return Diamond(f.guard, f.arg)
        parts = split_guard(f.guard)
        if beta == V0111:
            return reduce(Or, [Diamond(pre, Box(post, f.arg)) for pre, post in parts])
        return reduce(And, [Box(pre, Diamond(post, f.arg)) for pre, post in parts])

    return rewrite(phi, rule)
