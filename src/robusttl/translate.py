"""Formula-to-formula translations.

Covers derobustification of prompt formulas at a threshold, embeddings
of the temporal and classical dynamic logics into the five-valued
dynamic logic, desugaring of temporal operators into guards, and the
fragment translation that removes five-valued boxes over test-free
limit-matching guards by splitting guards at automaton states.
"""
from __future__ import annotations

from .formulas import (
    Always,
    And,
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
    closure,
    format_guard,
    guard_tests,
    propositions,
    require_logic,
)
from .guards import (
    _guard_prop_formulas,
    all_letters,
    determinize,
    extract_regex,
    is_limit_matching,
    thompson,
)
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
    memo: dict = {}

    def rec(f: Formula, b: TruthValue4) -> Formula:
        if b == BOTTOM:
            return Tt()
        key = (f, b)
        if key in memo:
            return memo[key]
        if isinstance(f, (Tt, Ff, Atom, NegAtom)):
            out: Formula = f
        elif isinstance(f, And):
            out = And(rec(f.left, b), rec(f.right, b))
        elif isinstance(f, Or):
            out = Or(rec(f.left, b), rec(f.right, b))
        elif isinstance(f, Eventually):
            out = Eventually(rec(f.arg, b))
        elif isinstance(f, PromptEventually):
            out = PromptEventually(rec(f.arg, b))
        elif isinstance(f, Always):
            inner = rec(f.arg, b)
            if b == TOP:
                out = Always(inner)
            elif b == V0111:
                out = Eventually(Always(inner))
            elif b == V0011:
                out = Always(Eventually(inner))
            else:
                out = Eventually(inner)
        else:
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        memo[key] = out
        return out

    return rec(phi, beta)


def embed_rltl_in_rldl(phi: Formula) -> Formula:
    """Replace the temporal modalities with trivially guarded ones."""
    require_logic(phi, LogicId.RLTL)
    memo: dict = {}
    step = Star(Prop(Tt()))

    def rec(f: Formula) -> Formula:
        if f in memo:
            return memo[f]
        if isinstance(f, (Tt, Ff, Atom, NegAtom)):
            out: Formula = f
        elif isinstance(f, Not):
            out = Not(rec(f.arg))
        elif isinstance(f, And):
            out = And(rec(f.left), rec(f.right))
        elif isinstance(f, Or):
            out = Or(rec(f.left), rec(f.right))
        elif isinstance(f, Implies):
            out = Implies(rec(f.left), rec(f.right))
        elif isinstance(f, Eventually):
            out = Diamond(step, rec(f.arg))
        elif isinstance(f, Always):
            out = Box(step, rec(f.arg))
        else:
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        memo[f] = out
        return out

    return rec(phi)


def embed_ldl_in_rldl(phi: Formula) -> Formula:
    """Read a classical dynamic-logic formula five-valued.

    Implications are rewritten classically first; the first bit of the
    five-valued value of the result agrees with the classical value.
    """
    require_logic(phi, LogicId.LDL)
    memo: dict = {}

    def rec(f: Formula) -> Formula:
        if f in memo:
            return memo[f]
        if isinstance(f, (Tt, Ff, Atom, NegAtom)):
            out: Formula = f
        elif isinstance(f, Not):
            out = Not(rec(f.arg))
        elif isinstance(f, And):
            out = And(rec(f.left), rec(f.right))
        elif isinstance(f, Or):
            out = Or(rec(f.left), rec(f.right))
        elif isinstance(f, Implies):
            out = Or(Not(rec(f.left)), rec(f.right))
        elif isinstance(f, Diamond):
            out = Diamond(rec_guard(f.guard), rec(f.arg))
        elif isinstance(f, Box):
            out = Box(rec_guard(f.guard), rec(f.arg))
        else:
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        memo[f] = out
        return out

    def rec_guard(g: Guard) -> Guard:
        if isinstance(g, Prop):
            return g
        if isinstance(g, Test):
            return Test(rec(g.formula))
        if isinstance(g, Star):
            return Star(rec_guard(g.arg))
        left = rec_guard(g.left)
        right = rec_guard(g.right)
        return type(g)(left, right)

    return rec(phi)


def ltl_surface_to_ldl(phi: Formula) -> Formula:
    """Desugar temporal operators into guarded modalities.

    Next becomes a one-letter diamond; until and release use tests in
    the guards; eventually and always use the unconstrained iteration.
    Existing guarded modalities are kept, with tests desugared too.
    """
    memo: dict = {}
    any_step = Star(Prop(Tt()))

    def rec(f: Formula) -> Formula:
        if f in memo:
            return memo[f]
        if isinstance(f, (Tt, Ff, Atom, NegAtom)):
            out: Formula = f
        elif isinstance(f, Not):
            out = Not(rec(f.arg))
        elif isinstance(f, And):
            out = And(rec(f.left), rec(f.right))
        elif isinstance(f, Or):
            out = Or(rec(f.left), rec(f.right))
        elif isinstance(f, Implies):
            out = Implies(rec(f.left), rec(f.right))
        elif isinstance(f, Next):
            out = Diamond(Prop(Tt()), rec(f.arg))
        elif isinstance(f, Until):
            guard = Star(Concat(Test(rec(f.left)), Prop(Tt())))
            out = Diamond(guard, rec(f.right))
        elif isinstance(f, Release):
            guard = Star(Concat(Test(Not(rec(f.left))), Prop(Tt())))
            out = Box(guard, rec(f.right))
        elif isinstance(f, Eventually):
            out = Diamond(any_step, rec(f.arg))
        elif isinstance(f, Always):
            out = Box(any_step, rec(f.arg))
        elif isinstance(f, Diamond):
            out = Diamond(rec_guard(f.guard), rec(f.arg))
        elif isinstance(f, Box):
            out = Box(rec_guard(f.guard), rec(f.arg))
        else:
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        memo[f] = out
        return out

    def rec_guard(g: Guard) -> Guard:
        if isinstance(g, Prop):
            return g
        if isinstance(g, Test):
            return Test(rec(g.formula))
        if isinstance(g, Star):
            return Star(rec_guard(g.arg))
        return type(g)(rec_guard(g.left), rec_guard(g.right))

    return rec(phi)


def _modal_guards(phi: Formula):
    """Guards of every modal node in the closure, in encounter order."""
    out = []
    for f in closure(phi):
        if isinstance(f, (Diamond, Box, PromptDiamond)):
            out.append(f.guard)
    return out


def check_fragment(phi: Formula) -> None:
    """Validate the test-free limit-matching fragment conditions."""
    require_logic(phi, LogicId.RPROMPT_LDL)
    with_tests = [g for g in _modal_guards(phi) if guard_tests(g)]
    if with_tests:
        listing = ", ".join(format_guard(g) for g in with_tests)
        msg = f"guards contain tests: {listing}"
        raise NotTestFreeError(msg)
    offenders = []
    seen = set()
    for g in _modal_guards(phi):
        if g in seen:
            continue
        seen.add(g)
        if not is_limit_matching(g):
            offenders.append(g)
    if offenders:
        raise NotLimitMatchingError(offenders)


def _split_guard(guard: Guard):
    """(prefix regex, completion regex) per reachable automaton state.

    The deterministic guard automaton is split at each reachable state
    q: the prefix language leads from the start to q, the completion
    language from q to the final states.
    """
    props = sorted(
        {p for f in _guard_prop_formulas(guard) for p in propositions(f)}
    )
    dfa = determinize(thompson(guard), props)
    alphabet = all_letters(dfa.props)
    reachable = [dfa.initial]
    seen = {dfa.initial}
    pos = 0
    while pos < len(reachable):
        q = reachable[pos]
        pos += 1
        for letter in alphabet:
            q2 = dfa.step(q, letter)
            if q2 not in seen:
                seen.add(q2)
                reachable.append(q2)
    splits = []
    for q in reachable:
        prefix = extract_regex(dfa, dfa.initial, {q})
        completion = extract_regex(dfa, q, dfa.finals)
        splits.append((prefix, completion))
    return splits


def _fold(parts, smash):
    out = parts[0]
    for part in parts[1:]:
        out = smash(out, part)
    return out


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
    memo: dict = {}
    split_memo: dict = {}

    def splits(g: Guard):
        if g not in split_memo:
            split_memo[g] = _split_guard(g)
        return split_memo[g]

    def rec(f: Formula, b: TruthValue4) -> Formula:
        key = (f, b)
        if key in memo:
            return memo[key]
        if isinstance(f, (Tt, Ff, Atom, NegAtom)):
            out: Formula = f
        elif isinstance(f, And):
            out = And(rec(f.left, b), rec(f.right, b))
        elif isinstance(f, Or):
            out = Or(rec(f.left, b), rec(f.right, b))
        elif isinstance(f, Diamond):
            out = Diamond(f.guard, rec(f.arg, b))
        elif isinstance(f, PromptDiamond):
            out = PromptDiamond(f.guard, rec(f.arg, b))
        elif isinstance(f, Box):
            inner = rec(f.arg, b)
            if b == TOP:
                out = Box(f.guard, inner)
            elif b == V0111:
                parts = [
                    Diamond(prefix, Box(completion, inner))
                    for prefix, completion in splits(f.guard)
                ]
                out = _fold(parts, Or)
            elif b == V0011:
                parts = [
                    Box(prefix, Diamond(completion, inner))
                    for prefix, completion in splits(f.guard)
                ]
                out = _fold(parts, And)
            else:
                out = Diamond(f.guard, inner)
        else:
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        memo[key] = out
        return out

    return rec(phi, beta)
