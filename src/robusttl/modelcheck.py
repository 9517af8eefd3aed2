"""Model checking of finite transition systems.

Thresholded checks search the product of the system with an automaton
for the negated property, over the formula's own propositions, for an
accepting lasso.  The automaton is built on the fly, as far as the
product reaches it: its alternating transitions, their duals and its
breakpoint pairs only for the system labels met.  Prompt checks whose
prompt operators all occur positively first run that search on the
unbounded relaxation, whose counterexamples then fail at every bound;
only when it holds, or when some prompt operator is negative, do they
solve a recoloring game where the verifier picks only the fresh color,
over the relaxed property's parity automaton with "the color changes
infinitely often" added as a product, to certify a bound.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    Diamond,
    Eventually,
    Formula,
    Guard,
    Implies,
    LogicId,
    LogicViolationError,
    NegAtom,
    Not,
    Or,
    PromptDiamond,
    PromptEventually,
    Prop,
    Star,
    Until,
    prompt_positive,
    propositions,
    require_logic,
    rewrite,
)
from .graphs import accepting_cycle, read_graph_text
from .guards import determinize, dfa_product, extract_regex, letter_of
from .semantics import eval_rldl
from .traces import LassoTrace
from .truth import BOTTOM, TOP, TruthValue4


class TerminalStateError(ValueError):
    """Raised when a transition-system state has no outgoing edge."""


class SystemFormatError(ValueError):
    """Raised on malformed transition-system text."""


@dataclass(frozen=True)
class TransitionSystem:
    """Finite system; every state has a successor, so paths are infinite."""

    states: tuple[str, ...]
    initial: str
    edges: dict  # state -> tuple of successor states
    labels: dict  # state -> frozenset of propositions

    def validate(self) -> None:
        if self.initial not in self.states:
            msg = f"unknown initial state {self.initial!r}"
            raise SystemFormatError(msg)
        for s in self.states:
            if not self.edges.get(s):
                msg = f"state {s!r} has no outgoing edge"
                raise TerminalStateError(msg)

    @property
    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.states:
            out |= self.labels[s]
        return frozenset(out)


def parse_transition_system(text: str) -> TransitionSystem:
    """Text format: `state <name> [init] { p, q }` and `edge <a> <b>`."""
    initial: list = []

    def fields(name: str, words: list) -> bool:
        if len(words) > 1 or (words and words[0] != "init"):
            return False
        if words:
            if initial:
                msg = "multiple init states"
                raise SystemFormatError(msg)
            initial.append(name)
        return True

    states, labels, edges = read_graph_text(
        text, "state", "edge", "state", SystemFormatError, fields
    )
    if not initial:
        msg = "no init state declared"
        raise SystemFormatError(msg)
    ts = TransitionSystem(tuple(states), initial[0], edges, labels)
    ts.validate()
    return ts


def format_transition_system(ts: TransitionSystem) -> str:
    lines = []
    for s in ts.states:
        tag = " init" if s == ts.initial else ""
        body = ", ".join(sorted(ts.labels[s]))
        lines.append(f"state {s}{tag} {{ {body} }}".replace("{  }", "{ }"))
    for s in ts.states:
        for t in ts.edges[s]:
            lines.append(f"edge {s} {t}")
    return "\n".join(lines)


def ts_to_nba(ts: TransitionSystem, props=None):
    """Buechi automaton over the system's traces; all states accepting."""
    from .omega import NBA

    ts.validate()
    names = set(ts.propositions)
    if props is not None:
        extra = set(props)
        if not names <= extra:
            msg = "props must cover the labels of the system"
            raise ValueError(msg)
        names = extra
    prop_tuple = tuple(sorted(names))
    index = {s: i for i, s in enumerate(ts.states)}
    transitions: dict = {}
    for s in ts.states:
        succs = tuple(index[t] for t in ts.edges[s])
        label = letter_of(prop_tuple, ts.labels[s])
        for letter in range(1 << len(prop_tuple)):
            transitions[(index[s], letter)] = succs if letter == label else ()
    return NBA(
        prop_tuple,
        len(ts.states),
        index[ts.initial],
        transitions,
        frozenset(range(len(ts.states))),
    )


@dataclass(frozen=True)
class McResult:
    holds: bool
    counterexample: LassoTrace | None = None
    bound: int | None = None


def is_trace_of(ts: TransitionSystem, trace: LassoTrace) -> bool:
    """Whether some path of the system produces the lasso's word: whether
    their product, which pairs a state with a position of the same
    letter, reaches a cycle, an accepting one when every node accepts."""

    def successors(node):
        c = trace.canonical_index(node[1] + 1)
        return [(t, c) for t in ts.edges[node[0]] if ts.labels[t] == trace.letter_at(c)]

    return ts.labels[ts.initial] == trace.letter_at(0) and (
        accepting_cycle((ts.initial, 0), successors, lambda _node: True) is not None
    )


def shrink_lasso(trace: LassoTrace) -> LassoTrace:
    """Word-preserving reduction: fold the prefix, divide the loop."""
    prefix = list(trace.prefix)
    loop = list(trace.loop)
    # Rotate loop content absorbed at the prefix end into the loop start.
    while prefix and prefix[-1] == loop[-1]:
        prefix.pop()
        loop = [loop[-1], *loop[:-1]]
    for d in range(1, len(loop) + 1):
        if len(loop) % d == 0 and loop == loop[:d] * (len(loop) // d):
            loop = loop[:d]
            break
    return LassoTrace(tuple(prefix), tuple(loop))


def mc_rldl(ts: TransitionSystem, phi: Formula, beta: TruthValue4) -> McResult:
    """Do all traces of the system reach the threshold?

    Searches the product of the system with the Buechi automaton of the
    complement, on the fly (Courcoubetis, Vardi, Wolper and Yannakakis,
    1992): the complement is the formula's alternating automaton at the
    threshold, over the formula's own propositions, rooted at the dual
    of its initial state, and dealternated by ``Breakpoint`` one (pair,
    letter) at a time.  A product node pairs a system state with a pair,
    which reads the system label projected onto the formula's
    propositions, so only the alternating transitions and the pairs that
    the product reaches from the initial node are built.  Every system
    state accepts, so a node accepts when its pair does.  After the
    search the transitions built are checked to be weak.  The
    counterexample keeps the full system labels and is checked against
    the automaton, the oracle and the system before it is returned.
    """
    from .apa import OnDemandAPA
    from .omega import Breakpoint, lasso_search

    require_logic(phi, LogicId.RLDL)
    ts.validate()
    if beta == BOTTOM:
        return McResult(True)
    good = OnDemandAPA(phi, beta)
    bad = Breakpoint(good.props, good.delta, good.color, good.dual(good.initial))
    letter = {s: letter_of(good.props, ts.labels[s]) for s in ts.states}

    def successors(node):
        s, pair = node
        targets = bad.step(pair, letter[s])
        return [(t, p2) for t in ts.edges[s] for p2 in targets]

    witness = lasso_search(
        (ts.initial, bad.initial),
        successors,
        lambda node: bad.accepting(node[1]),
        lambda node, _succ: ts.labels[node[0]],
    )
    bad.check_weak()
    if witness is None:
        return McResult(True)
    if not bad.accepts_lasso(witness.project(good.props)):
        msg = "internal error: emptiness witness rejected"
        raise AssertionError(msg)
    witness = shrink_lasso(witness)
    if eval_rldl(witness, phi) >= beta:
        msg = "internal error: counterexample meets the threshold"
        raise AssertionError(msg)
    if not is_trace_of(ts, witness):
        msg = "internal error: counterexample is not a system trace"
        raise AssertionError(msg)
    return McResult(False, witness)


def relax_prompt(psi: Formula, color_prop: str) -> Formula:
    """Replace prompt operators by color-window relaxations.

    A prompt eventuality must fire before the fresh color changes twice;
    a prompt diamond must complete its match within a window showing at
    most one color change.
    """
    c = Atom(color_prop)
    nc = NegAtom(color_prop)

    def rule(f: Formula) -> Formula:
        if isinstance(f, PromptEventually):
            return Or(
                And(c, Until(c, Until(nc, f.arg))),
                And(nc, Until(nc, Until(c, f.arg))),
            )
        if isinstance(f, PromptDiamond):
            return Diamond(_window_guard(f.guard, color_prop), f.arg)
        if isinstance(f, (Not, Implies)):
            msg = f"unsupported node {type(f).__name__}"
            raise ValueError(msg)
        return f

    return rewrite(psi, rule)


def _window_guard(guard: Guard, color_prop: str) -> Guard:
    """Intersect a test-free guard with 'at most one color change'."""
    from .formulas import Alt, Concat

    props = propositions(guard) | {color_prop}
    c = Prop(Atom(color_prop))
    nc = Prop(NegAtom(color_prop))
    pattern = Alt(Concat(Star(c), Star(nc)), Concat(Star(nc), Star(c)))
    d1 = determinize(guard, props)
    d2 = determinize(pattern, props)
    product = dfa_product(d1, d2)
    return extract_regex(product, product.initial, product.finals)


def _limit_prompt(psi: Formula) -> Formula:
    """Unbounded relaxation: prompt operators lose their bound."""

    def rule(f: Formula) -> Formula:
        if isinstance(f, PromptEventually):
            return Eventually(f.arg)
        if isinstance(f, PromptDiamond):
            return Diamond(f.guard, f.arg)
        return f

    return rewrite(psi, rule)


def prompt_mc(ts: TransitionSystem, psi: Formula) -> McResult:
    """Is there a bound k under which every trace satisfies psi?

    Refuted first, on the fly, when every prompt operator occurs
    positively: a path that violates the unbounded relaxation (every
    prompt operator made plain) then violates psi at every bound
    (Kupferman, Piterman and Vardi, "From liveness to promptness", FMSD
    2009), so ``mc_rldl`` of the relaxation returns such a path, as a
    checked counterexample, without a parity automaton or a game.  A
    prompt operator in a test under a box is negative: there a larger
    bound can make psi false, as ``[{<p tt*> q}?] r`` on a trace that
    meets q only late, so a path violating the relaxation may still
    meet psi at a small bound, and such a psi goes straight to the game.
    The recoloring game is solved on the system, where the adversary
    picks transitions and the verifier only the color bit, and the
    bound is the game's.  If that game is lost, the result carries no
    counterexample: for a positive psi every path then meets the
    relaxation and each bound fails on a trace of its own, none on
    every bound; for a negative psi no such trace is searched for.
    """
    from .games import LabeledGameGraph, solve_prompt_game
    from .translate import embed_ldl_in_rldl, ltl_surface_to_ldl

    try:
        require_logic(psi, LogicId.PROMPT_LTL)
    except LogicViolationError:
        require_logic(psi, LogicId.PROMPT_LDL)
    ts.validate()
    if prompt_positive(psi):
        limit = embed_ldl_in_rldl(ltl_surface_to_ldl(_limit_prompt(psi)))
        refuted = mc_rldl(ts, limit, TOP)
        if not refuted.holds:
            return refuted
    graph = LabeledGameGraph(
        vertices=tuple(ts.states),
        owner={s: 1 for s in ts.states},
        edges=dict(ts.edges),
        labels=dict(ts.labels),
    )
    result = solve_prompt_game(graph, psi, ts.initial)
    if result.winner == 0:
        return McResult(True, bound=result.bound)
    return McResult(False)


def mc_rprompt_ltl(
    ts: TransitionSystem, phi: Formula, beta: TruthValue4
) -> McResult:
    """Thresholded robust prompt check via derobustification."""
    from .translate import rprompt_to_prompt

    require_logic(phi, LogicId.RPROMPT_LTL)
    if beta == BOTTOM:
        return McResult(True)
    return prompt_mc(ts, rprompt_to_prompt(phi, beta))


def mc_fragment(
    ts: TransitionSystem, phi: Formula, beta: TruthValue4
) -> McResult:
    """Thresholded check for the test-free limit-matching fragment."""
    from .translate import fragment_translate

    psi = fragment_translate(phi, beta)
    if beta == BOTTOM:
        return McResult(True)
    return prompt_mc(ts, psi)
