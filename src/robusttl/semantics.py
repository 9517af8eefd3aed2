"""Reference evaluation of all supported logics on lasso traces.

Guard modalities are evaluated through the guard automaton run over the
trace's canonical positions.  Because a lasso has finitely many suffixes,
match sets are eventually periodic: a bounded layered search finds every
match below a pigeonhole horizon, and a cycle analysis of the
configuration graph identifies the position classes that are matched
infinitely often.  Those two pieces determine all minima, maxima, limit
inferiors and limit superiors the semantics asks for.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import truth
from .formulas import (
    Always,
    And,
    Atom,
    Box,
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
    Release,
    Tt,
    Until,
    require_logic,
)
from .graphs import sccs
from .guards import GuardNFA, prop_holds, thompson
from .traces import LassoTrace
from .truth import TruthValue4, from_bits


class MissingBoundError(ValueError):
    """Raised when a prompt operator is evaluated without a bound."""


@dataclass(frozen=True)
class MatchSetSummary:
    """Finite description of a guard's match set on a lasso suffix.

    finite_matches lists every match below the horizon; infinite_classes
    holds the canonical positions matched infinitely often (nonempty right
    when the match set is infinite).
    """

    finite_matches: tuple[int, ...]
    infinite_classes: frozenset[int]
    horizon: int


class _GuardEngine:
    """Match-set computation for one guard automaton and one test reading."""

    def __init__(self, trace: LassoTrace, nfa: GuardNFA, test_fn):
        self.trace = trace
        self.nfa = nfa
        self.test_fn = test_fn
        self.n = trace.positions
        self.loop_start = len(trace.prefix)
        self._viable: dict[tuple[int, int], bool] = {}
        self._letters = [trace.letter_at(c) for c in range(self.n)]
        self._graph_done = False
        self._pumping: set[tuple[int, int]] = set()
        self._summaries: dict[tuple[int, int], MatchSetSummary] = {}

    def next_class(self, c: int) -> int:
        return c + 1 if c + 1 < self.n else self.loop_start

    def viable(self, q: int, c: int) -> bool:
        test = self.nfa.tests.get(q)
        if test is None:
            return True
        key = (q, c)
        if key not in self._viable:
            self._viable[key] = bool(self.test_fn(c, test))
        return self._viable[key]

    def closure_at(self, c: int, states) -> frozenset[int]:
        out = {q for q in states if self.viable(q, c)}
        stack = list(out)
        while stack:
            q = stack.pop()
            for succ in self.nfa.eps[q]:
                if succ not in out and self.viable(succ, c):
                    out.add(succ)
                    stack.append(succ)
        return frozenset(out)

    def _step(self, states: frozenset[int], c: int) -> frozenset[int]:
        letter = self._letters[c]
        raw = {
            target
            for q in states
            for formula, target in self.nfa.letters[q]
            if prop_holds(letter, formula)
        }
        return self.closure_at(self.next_class(c), raw)

    def _build_graph(self) -> None:
        """Configuration graph analysis for infinitely recurring matches."""
        if self._graph_done:
            return
        self._graph_done = True
        nodes: list[tuple[int, int]] = []
        succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
        letter_edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
        for c in range(self.n):
            letter = self._letters[c]
            c2 = self.next_class(c)
            for q in range(self.nfa.n_states):
                if not self.viable(q, c):
                    continue
                node = (q, c)
                nodes.append(node)
                out = []
                for eps_target in self.nfa.eps[q]:
                    if self.viable(eps_target, c):
                        out.append((eps_target, c))
                for formula, target in self.nfa.letters[q]:
                    if prop_holds(letter, formula) and self.viable(target, c2):
                        out.append((target, c2))
                        letter_edges.add((node, (target, c2)))
                succ[node] = out
        comp = {
            node: i
            for i, members in enumerate(sccs(nodes, succ.__getitem__))
            for node in members
        }
        for node in nodes:
            for target in succ[node]:
                if comp[node] == comp[target] and (node, target) in letter_edges:
                    self._pumping.add(node)
                    self._pumping.add(target)
        self._succ = succ

    def _reach(self, configs) -> set[tuple[int, int]]:
        seen = set(configs)
        stack = list(seen)
        while stack:
            node = stack.pop()
            for target in self._succ.get(node, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    def summary(self, start_class: int, min_horizon: int = 0) -> MatchSetSummary:
        horizon = max(
            len(self.trace.prefix)
            + len(self.trace.loop) * (self.nfa.n_states + 1),
            min_horizon,
        )
        key = (start_class, horizon)
        if key in self._summaries:
            return self._summaries[key]
        finite: list[int] = []
        c = start_class
        current = self.closure_at(c, {self.nfa.initial})
        start_configs = [(q, c) for q in current]
        for j in range(horizon):
            if current & self.nfa.finals:
                finite.append(j)
            if not current:
                break
            current = self._step(current, c)
            c = self.next_class(c)
        self._build_graph()
        # A configuration reachable from a pumping one that the start
        # reaches recurs with arbitrarily many extra loop traversals.
        pumped = self._reach(self._reach(start_configs) & self._pumping)
        infinite = frozenset(cls for (q, cls) in pumped if q in self.nfa.finals)
        result = MatchSetSummary(tuple(finite), infinite, horizon)
        self._summaries[key] = result
        return result


class _EvaluatorBase:
    def __init__(self, trace: LassoTrace, k: int | None = None):
        self.trace = trace
        self.k = k
        self.n = trace.positions
        self.loop_start = len(trace.prefix)
        self._memo: dict = {}
        self._engines: dict = {}

    def advance(self, c: int, steps: int) -> int:
        return self.trace.canonical_index(c + steps)

    def classes_from(self, c: int) -> range:
        """Canonical positions of the suffixes of the suffix at class c."""
        return range(min(c, self.loop_start), self.n)

    def loop_classes(self) -> range:
        return range(self.loop_start, self.n)

    def require_k(self) -> int:
        if self.k is None:
            msg = "prompt operator needs a bound k"
            raise MissingBoundError(msg)
        return self.k

    def engine(self, guard: Guard, bit: int | None) -> _GuardEngine:
        """The match engine of a guard whose tests are read at the bit.

        A guard without tests reads no bit, so one engine, kept under
        bit None, serves every bit.
        """
        for key in ((guard, None), (guard, bit)):
            if key in self._engines:
                return self._engines[key]
        nfa = thompson(guard)
        if not nfa.tests:
            bit = None
        if bit is None:
            test_fn = lambda c, f: self.value(c, f) == 1  # noqa: E731
        else:
            test_fn = lambda c, f: self.value(c, f).bit(bit) == 1  # noqa: E731
        engine = self._engines[(guard, bit)] = _GuardEngine(self.trace, nfa, test_fn)
        return engine

    def value(self, c: int, phi: Formula):
        key = (c, phi)
        if key not in self._memo:
            self._memo[key] = self._compute(c, phi)
        return self._memo[key]

    def _compute(self, c: int, phi: Formula):
        raise NotImplementedError


class _RobustEvaluator(_EvaluatorBase):
    """Five-valued semantics for the robust logics."""

    def _compute(self, c: int, phi: Formula) -> TruthValue4:
        if isinstance(phi, Tt):
            return truth.TOP
        if isinstance(phi, Ff):
            return truth.BOTTOM
        if isinstance(phi, Atom):
            return truth.TOP if phi.name in self.trace.letter_at(c) else truth.BOTTOM
        if isinstance(phi, NegAtom):
            return truth.TOP if phi.name not in self.trace.letter_at(c) else truth.BOTTOM
        if isinstance(phi, Not):
            return truth.negate(self.value(c, phi.arg))
        if isinstance(phi, And):
            return truth.meet(self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Or):
            return truth.join(self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Implies):
            return truth.imply(self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Eventually):
            out = truth.BOTTOM
            for c2 in self.classes_from(c):
                out = truth.join(out, self.value(c2, phi.arg))
            return out
        if isinstance(phi, Always):
            vals_all = [self.value(c2, phi.arg) for c2 in self.classes_from(c)]
            vals_loop = [self.value(c2, phi.arg) for c2 in self.loop_classes()]
            b1 = min(v.bit(1) for v in vals_all)
            b2 = min(v.bit(2) for v in vals_loop)
            b3 = max(v.bit(3) for v in vals_loop)
            b4 = max(v.bit(4) for v in vals_all)
            return from_bits(b1, b2, b3, b4)
        if isinstance(phi, PromptEventually):
            k = self.require_k()
            out = truth.BOTTOM
            for j in range(k + 1):
                out = truth.join(out, self.value(self.advance(c, j), phi.arg))
            return out
        if isinstance(phi, Diamond):
            bits = []
            for i in range(1, 5):
                summary = self.engine(phi.guard, i).summary(c)
                vals = [
                    self.value(self.advance(c, j), phi.arg).bit(i)
                    for j in summary.finite_matches
                ]
                bits.append(max(vals, default=0))
            return from_bits(*bits)
        if isinstance(phi, PromptDiamond):
            k = self.require_k()
            bits = []
            for i in range(1, 5):
                summary = self.engine(phi.guard, i).summary(c, min_horizon=k + 1)
                vals = [
                    self.value(self.advance(c, j), phi.arg).bit(i)
                    for j in summary.finite_matches
                    if j <= k
                ]
                bits.append(max(vals, default=0))
            return from_bits(*bits)
        if isinstance(phi, Box):
            primed = [self._box_primed(c, phi, i) for i in range(1, 5)]
            bits = []
            best = 0
            for b in primed:
                best = max(best, b)
                bits.append(best)
            return from_bits(*bits)
        msg = f"unknown formula node {phi!r}"
        raise TypeError(msg)

    def _box_primed(self, c: int, phi: Box, i: int) -> int:
        """The degree-i constituent of the box semantics."""
        summary = self.engine(phi.guard, i).summary(c)
        finite_vals = [
            self.value(self.advance(c, j), phi.arg).bit(i)
            for j in summary.finite_matches
        ]
        inf_vals = [
            self.value(cls, phi.arg).bit(i)
            for cls in sorted(summary.infinite_classes)
        ]
        if i == 1:
            # Every match must satisfy the argument; empty set counts as 1.
            return min(finite_vals, default=1)
        if i == 2:
            if summary.infinite_classes:
                return min(inf_vals)
            return min(finite_vals, default=1)
        if i == 3:
            if summary.infinite_classes:
                return max(inf_vals)
            return max(finite_vals, default=1) if finite_vals else 1
        if summary.finite_matches:
            return max(finite_vals)
        return 1


class _ClassicalEvaluator(_EvaluatorBase):
    """Two-valued semantics for the classical logics."""

    def _compute(self, c: int, phi: Formula) -> int:
        if isinstance(phi, Tt):
            return 1
        if isinstance(phi, Ff):
            return 0
        if isinstance(phi, Atom):
            return 1 if phi.name in self.trace.letter_at(c) else 0
        if isinstance(phi, NegAtom):
            return 1 if phi.name not in self.trace.letter_at(c) else 0
        if isinstance(phi, Not):
            return 1 - self.value(c, phi.arg)
        if isinstance(phi, And):
            return min(self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Or):
            return max(self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Implies):
            return max(1 - self.value(c, phi.left), self.value(c, phi.right))
        if isinstance(phi, Next):
            return self.value(self.advance(c, 1), phi.arg)
        if isinstance(phi, Eventually):
            return max(self.value(c2, phi.arg) for c2 in self.classes_from(c))
        if isinstance(phi, Always):
            return min(self.value(c2, phi.arg) for c2 in self.classes_from(c))
        if isinstance(phi, PromptEventually):
            k = self.require_k()
            return max(
                self.value(self.advance(c, j), phi.arg) for j in range(k + 1)
            )
        if isinstance(phi, Until):
            cur = c
            seen: set[int] = set()
            while cur not in seen:
                seen.add(cur)
                if self.value(cur, phi.right) == 1:
                    return 1
                if self.value(cur, phi.left) == 0:
                    return 0
                cur = self.advance(cur, 1)
            return 0
        if isinstance(phi, Release):
            cur = c
            seen = set()
            while cur not in seen:
                seen.add(cur)
                if self.value(cur, phi.right) == 0:
                    return 0
                if self.value(cur, phi.left) == 1:
                    return 1
                cur = self.advance(cur, 1)
            return 1
        if isinstance(phi, Diamond):
            summary = self.engine(phi.guard, None).summary(c)
            return max(
                (
                    self.value(self.advance(c, j), phi.arg)
                    for j in summary.finite_matches
                ),
                default=0,
            )
        if isinstance(phi, Box):
            summary = self.engine(phi.guard, None).summary(c)
            return min(
                (
                    self.value(self.advance(c, j), phi.arg)
                    for j in summary.finite_matches
                ),
                default=1,
            )
        if isinstance(phi, PromptDiamond):
            k = self.require_k()
            summary = self.engine(phi.guard, None).summary(c, min_horizon=k + 1)
            return max(
                (
                    self.value(self.advance(c, j), phi.arg)
                    for j in summary.finite_matches
                    if j <= k
                ),
                default=0,
            )
        msg = f"unknown formula node {phi!r}"
        raise TypeError(msg)


def eval_rltl(trace: LassoTrace, phi: Formula) -> TruthValue4:
    require_logic(phi, LogicId.RLTL)
    return _RobustEvaluator(trace).value(0, phi)


def eval_rldl(trace: LassoTrace, phi: Formula) -> TruthValue4:
    require_logic(phi, LogicId.RLDL)
    return _RobustEvaluator(trace).value(0, phi)


def eval_rprompt_ltl(trace: LassoTrace, k: int, phi: Formula) -> TruthValue4:
    require_logic(phi, LogicId.RPROMPT_LTL)
    _check_bound(k)
    return _RobustEvaluator(trace, _ltl_bound(trace, k)).value(0, phi)


def eval_rprompt_ldl(trace: LassoTrace, k: int, phi: Formula) -> TruthValue4:
    require_logic(phi, LogicId.RPROMPT_LDL)
    _check_bound(k)
    return _RobustEvaluator(trace, k).value(0, phi)


def eval_ltl(trace: LassoTrace, phi: Formula) -> int:
    require_logic(phi, LogicId.LTL)
    return _ClassicalEvaluator(trace).value(0, phi)


def eval_ldl(trace: LassoTrace, phi: Formula) -> int:
    require_logic(phi, LogicId.LDL)
    return _ClassicalEvaluator(trace).value(0, phi)


def eval_prompt_ltl(trace: LassoTrace, k: int, phi: Formula) -> int:
    require_logic(phi, LogicId.PROMPT_LTL)
    _check_bound(k)
    return _ClassicalEvaluator(trace, _ltl_bound(trace, k)).value(0, phi)


def eval_prompt_ldl(trace: LassoTrace, k: int, phi: Formula) -> int:
    require_logic(phi, LogicId.PROMPT_LDL)
    _check_bound(k)
    return _ClassicalEvaluator(trace, k).value(0, phi)


def evaluate(trace: LassoTrace, phi: Formula, logic: LogicId, k: int | None = None):
    """Dispatch to the evaluator for the given logic."""
    if logic is LogicId.RLTL:
        return eval_rltl(trace, phi)
    if logic is LogicId.RLDL:
        return eval_rldl(trace, phi)
    if logic is LogicId.RPROMPT_LTL:
        return eval_rprompt_ltl(trace, _need(k), phi)
    if logic is LogicId.RPROMPT_LDL:
        return eval_rprompt_ldl(trace, _need(k), phi)
    if logic is LogicId.LTL:
        return eval_ltl(trace, phi)
    if logic is LogicId.LDL:
        return eval_ldl(trace, phi)
    if logic is LogicId.PROMPT_LTL:
        return eval_prompt_ltl(trace, _need(k), phi)
    if logic is LogicId.PROMPT_LDL:
        return eval_prompt_ldl(trace, _need(k), phi)
    msg = f"unknown logic {logic!r}"
    raise ValueError(msg)


def _need(k: int | None) -> int:
    if k is None:
        msg = "prompt logics need a bound k"
        raise MissingBoundError(msg)
    return k


def _ltl_bound(trace: LassoTrace, k: int) -> int:
    """The bound to evaluate prompt LTL at: min(k, positions).

    From any position, every canonical position still ahead is reached
    within |prefix| + |loop| steps, so a prompt eventuality met at all
    within k steps is met within that many, and larger bounds give the
    same value.  Prompt LDL gets no such clamp: a regular guard can first
    match later than that.
    """
    return min(k, trace.positions)


def _check_bound(k: int) -> None:
    if k < 0:
        msg = f"bound k must be nonnegative, got {k}"
        raise ValueError(msg)


def match_set(
    trace: LassoTrace,
    guard: Guard,
    bit: int,
    k: int | None = None,
) -> MatchSetSummary:
    """Match positions of a guard on a lasso, tests read at the given bit."""
    if not 1 <= bit <= 4:
        msg = f"bit index {bit} out of range 1..4"
        raise ValueError(msg)
    from .formulas import guard_tests

    logic = LogicId.RPROMPT_LDL if k is not None else LogicId.RLDL
    for test in guard_tests(guard):
        require_logic(test, logic)
    evaluator = _RobustEvaluator(trace, k)
    engine = evaluator.engine(guard, bit)
    min_horizon = (k + 1) if k is not None else 0
    return engine.summary(0, min_horizon=min_horizon)
