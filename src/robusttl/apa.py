"""Alternating parity automata over alphabets 2^P.

Transitions map (state, letter) to positive Boolean formulas over
states; acceptance is max parity on the colors seen along every path of
a run.  The compiler from five-valued dynamic-logic formulas builds, for
each threshold, an automaton recognizing the traces whose value is at
least that threshold.  All compiled automata are weak: every strongly
connected component of the state graph carries a single color.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TypeVar

from .formulas import (
    And,
    Atom,
    Box,
    Diamond,
    Ff,
    Formula,
    Guard,
    Implies,
    LogicId,
    NegAtom,
    Not,
    Or,
    Tt,
    format_formula,
    propositions,
    require_logic,
)
from .guards import all_letters, prop_holds, simple_eps_closure, thompson
from .traces import LassoTrace
from .truth import ALL_VALUES, BOTTOM, TOP, TruthValue4


Colored = TypeVar("Colored")


class EmptyListError(ValueError):
    """Raised when a union or intersection gets no operands."""


class AlphabetMismatchError(ValueError):
    """Raised when combined automata disagree on propositions."""


class PositiveBool:
    """Positive Boolean formula over automaton states."""

    __slots__ = ()


@dataclass(frozen=True)
class PBTrue(PositiveBool):
    __slots__ = ()


@dataclass(frozen=True)
class PBFalse(PositiveBool):
    __slots__ = ()


@dataclass(frozen=True)
class PBVar(PositiveBool):
    state: int


@dataclass(frozen=True)
class PBAnd(PositiveBool):
    args: tuple[PositiveBool, ...]


@dataclass(frozen=True)
class PBOr(PositiveBool):
    args: tuple[PositiveBool, ...]


PB_TRUE = PBTrue()
PB_FALSE = PBFalse()


def pb_and(parts) -> PositiveBool:
    flat: list[PositiveBool] = []
    seen = set()
    for part in parts:
        if isinstance(part, PBFalse):
            return PB_FALSE
        if isinstance(part, PBTrue):
            continue
        items = part.args if isinstance(part, PBAnd) else (part,)
        for item in items:
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return PB_TRUE
    if len(flat) == 1:
        return flat[0]
    return PBAnd(tuple(flat))


def pb_or(parts) -> PositiveBool:
    flat: list[PositiveBool] = []
    seen = set()
    for part in parts:
        if isinstance(part, PBTrue):
            return PB_TRUE
        if isinstance(part, PBFalse):
            continue
        items = part.args if isinstance(part, PBOr) else (part,)
        for item in items:
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return PB_FALSE
    if len(flat) == 1:
        return flat[0]
    return PBOr(tuple(flat))


def pb_dual(pb: PositiveBool, rename=None) -> PositiveBool:
    """Dualize: swap and/or and true/false, optionally renaming states."""
    if isinstance(pb, PBTrue):
        return PB_FALSE
    if isinstance(pb, PBFalse):
        return PB_TRUE
    if isinstance(pb, PBVar):
        return PBVar(rename(pb.state)) if rename else pb
    if isinstance(pb, PBAnd):
        return pb_or([pb_dual(a, rename) for a in pb.args])
    return pb_and([pb_dual(a, rename) for a in pb.args])


def pb_rename(pb: PositiveBool, rename) -> PositiveBool:
    if isinstance(pb, (PBTrue, PBFalse)):
        return pb
    if isinstance(pb, PBVar):
        return PBVar(rename(pb.state))
    if isinstance(pb, PBAnd):
        return pb_and([pb_rename(a, rename) for a in pb.args])
    return pb_or([pb_rename(a, rename) for a in pb.args])


def pb_states(pb: PositiveBool) -> frozenset[int]:
    if isinstance(pb, PBVar):
        return frozenset((pb.state,))
    if isinstance(pb, (PBAnd, PBOr)):
        out: frozenset[int] = frozenset()
        for a in pb.args:
            out |= pb_states(a)
        return out
    return frozenset()


def pb_models(pb: PositiveBool) -> tuple[frozenset[int], ...]:
    """Minimal models (antichain of state sets satisfying the formula)."""
    if isinstance(pb, PBTrue):
        return (frozenset(),)
    if isinstance(pb, PBFalse):
        return ()
    if isinstance(pb, PBVar):
        return (frozenset((pb.state,)),)
    if isinstance(pb, PBOr):
        out: list[frozenset[int]] = []
        for a in pb.args:
            for m in pb_models(a):
                if not any(prev <= m for prev in out):
                    out = [prev for prev in out if not (m <= prev)]
                    out.append(m)
        return tuple(sorted(out, key=sorted))
    models: list[frozenset[int]] = [frozenset()]
    for a in pb.args:
        arg_models = pb_models(a)
        merged: list[frozenset[int]] = []
        for base, extra in itertools.product(models, arg_models):
            m = base | extra
            if not any(prev <= m for prev in merged):
                merged = [prev for prev in merged if not (m <= prev)]
                merged.append(m)
        models = merged
    return tuple(sorted(models, key=sorted))


@dataclass(frozen=True)
class APA:
    """Alternating max-parity automaton over the alphabet 2^props."""

    props: tuple[str, ...]
    n_states: int
    initial: int
    delta: dict  # (state, letter frozenset) -> PositiveBool
    color: tuple[int, ...]

    @property
    def alphabet(self) -> tuple[frozenset[str], ...]:
        return all_letters(self.props)

    def state_count(self) -> int:
        return self.n_states

    def max_color(self) -> int:
        return max(self.color) if self.color else 0


def _check_props(automata) -> tuple[str, ...]:
    props = automata[0].props
    for a in automata[1:]:
        if a.props != props:
            msg = f"propositions differ: {a.props} vs {props}"
            raise AlphabetMismatchError(msg)
    return props


def apa_complement(a: APA) -> APA:
    """Dualize transitions and shift colors by one."""
    delta = {key: pb_dual(pb) for key, pb in a.delta.items()}
    color = tuple(c + 1 for c in a.color)
    return normalize_colors(
        APA(a.props, a.n_states, a.initial, delta, color)
    )


def _combine(automata, smash) -> APA:
    if not automata:
        raise EmptyListError("need at least one automaton")
    automata = list(automata)
    props = _check_props(automata)
    letters = all_letters(props)
    delta: dict = {}
    colors: list[int] = []
    offsets = []
    total = 0
    for a in automata:
        offsets.append(total)
        off = total
        for (q, letter), pb in a.delta.items():
            delta[(q + off, letter)] = pb_rename(pb, lambda s, o=off: s + o)
        colors.extend(a.color)
        total += a.n_states
    fresh = total
    colors.append(0)
    for letter in letters:
        parts = [
            a.delta[(a.initial, letter)]
            for a in automata
        ]
        shifted = [
            pb_rename(pb, lambda s, o=off: s + o)
            for pb, off in zip(parts, offsets)
        ]
        delta[(fresh, letter)] = smash(shifted)
    return APA(props, total + 1, fresh, delta, tuple(colors))


def apa_union(automata) -> APA:
    return _combine(automata, pb_or)


def apa_intersection(automata) -> APA:
    return _combine(automata, pb_and)


def normalize_colors(a: Colored) -> Colored:
    """Compress colors monotonically while preserving parity.

    Works on any automaton with a per-state ``color`` tuple: the
    alternating automata here and the parity automata of ``omega``.
    """
    used = sorted(set(a.color))
    if not used:
        return a
    mapping = {}
    prev_old = used[0]
    prev_new = used[0] & 1
    mapping[prev_old] = prev_new
    for c in used[1:]:
        step = 1 if (c - prev_old) % 2 == 1 else 2
        prev_new += step
        mapping[c] = prev_new
        prev_old = c
    if all(mapping[c] == c for c in used):
        return a
    return replace(a, color=tuple(mapping[c] for c in a.color))


def apa_accepts_lasso(a: APA, trace: LassoTrace) -> bool:
    """Membership via the acceptance parity game on the lasso."""
    from .games import ParityGame, solve_parity

    if not trace.propositions <= set(a.props):
        msg = "trace uses propositions outside the automaton alphabet"
        raise AlphabetMismatchError(msg)
    # Vertex 0 accepts and vertex 1 rejects: self-loops of color 0 and 1.
    nodes: list = [("acc",), ("rej",), ("s", a.initial, 0)]
    index = {node: i for i, node in enumerate(nodes)}
    owner = [1, 0]
    edges = [(0,), (1,)]
    color = [0, 1]
    for node in itertools.islice(nodes, 2, None):  # grows while it is walked
        player = 0
        shade = 0
        if node[0] == "s":
            _, q, cls = node
            letter = trace.letter_at(cls)
            pb = a.delta[(q, letter)]
            shade = a.color[q]
            succs = [("f", pb, trace.canonical_index(cls + 1))]
        else:
            _, pb, cls = node
            if isinstance(pb, PBTrue):
                succs = [nodes[0]]
            elif isinstance(pb, PBFalse):
                succs = [nodes[1]]
            elif isinstance(pb, PBVar):
                succs = [("s", pb.state, cls)]
            elif isinstance(pb, PBOr):
                succs = [("f", arg, cls) for arg in pb.args]
            else:
                player = 1
                succs = [("f", arg, cls) for arg in pb.args]
        out = []
        for s in succs:
            i = index.get(s)
            if i is None:
                i = index[s] = len(nodes)
                nodes.append(s)
            out.append(i)
        owner.append(player)
        edges.append(tuple(out))
        color.append(shade)
    win0, _, _, _ = solve_parity(ParityGame.numbered(owner, edges, color))
    return 2 in win0

    # Note: formula nodes keyed by canonical class; the successor class
    # of a state node is canonical, so the game is finite.


class _Builder:
    """Shared-state compiler from formulas at thresholds to one pool."""

    def __init__(self, props: tuple[str, ...]):
        self.props = props
        self.letters = all_letters(props)
        self.colors: list[int] = []
        self.delta: dict = {}
        self.cache: dict = {}
        self.dual_map: dict[int, int] = {}

    def new_state(self, color: int) -> int:
        q = len(self.colors)
        self.colors.append(color)
        return q

    def set_delta(self, q: int, letter: frozenset, pb: PositiveBool) -> None:
        self.delta[(q, letter)] = pb

    def init_delta(self, phi: Formula, beta: TruthValue4, letter) -> PositiveBool:
        return self.delta[(self.automaton(phi, beta), letter)]

    def dual_init_delta(self, phi: Formula, beta: TruthValue4, letter) -> PositiveBool:
        return self.delta[(self.dual_of(self.automaton(phi, beta)), letter)]

    def dual_of(self, q: int) -> int:
        """State recognizing the complement language from q (lazy copy)."""
        if q in self.dual_map:
            return self.dual_map[q]
        pending = [q]
        allocated = []
        while pending:
            s = pending.pop()
            if s in self.dual_map:
                continue
            # Dualizing is an involution; record both directions so that
            # the dual of a dual resolves to the original state instead of
            # copying the reachable part again at every nesting level.
            fresh = self.new_state(self.colors[s] + 1)
            self.dual_map[s] = fresh
            self.dual_map[fresh] = s
            allocated.append(s)
            for letter in self.letters:
                for t in pb_states(self.delta[(s, letter)]):
                    if t not in self.dual_map:
                        pending.append(t)
        for s in allocated:
            for letter in self.letters:
                pb = pb_dual(self.delta[(s, letter)], self.dual_map.__getitem__)
                self.set_delta(self.dual_map[s], letter, pb)
        return self.dual_map[q]

    # -- formula cases -------------------------------------------------

    def automaton(self, phi: Formula, beta: TruthValue4) -> int:
        key = (phi, beta)
        if key in self.cache:
            return self.cache[key]
        q = self._build(phi, beta)
        self.cache[key] = q
        return q

    def _accept(self) -> int:
        if ("acc",) in self.cache:
            return self.cache[("acc",)]
        q = self.new_state(0)
        for letter in self.letters:
            self.set_delta(q, letter, PB_TRUE)
        self.cache[("acc",)] = q
        return q

    def _reject(self) -> int:
        if ("rej",) in self.cache:
            return self.cache[("rej",)]
        q = self.new_state(0)
        for letter in self.letters:
            self.set_delta(q, letter, PB_FALSE)
        self.cache[("rej",)] = q
        return q

    def _build(self, phi: Formula, beta: TruthValue4) -> int:
        if beta == BOTTOM or isinstance(phi, Tt):
            return self._accept()
        if isinstance(phi, Ff):
            return self._reject()
        if isinstance(phi, Atom):
            return self._atom(phi.name, False)
        if isinstance(phi, NegAtom):
            return self._atom(phi.name, True)
        if isinstance(phi, Not):
            return self.dual_of(self.automaton(phi.arg, TOP))
        if isinstance(phi, (And, Or)):
            smash = pb_and if isinstance(phi, And) else pb_or
            q = self.new_state(0)
            for letter in self.letters:
                pb = smash(
                    [
                        self.init_delta(phi.left, beta, letter),
                        self.init_delta(phi.right, beta, letter),
                    ]
                )
                self.set_delta(q, letter, pb)
            return q
        if isinstance(phi, Implies):
            return self._implies(phi, beta)
        if isinstance(phi, Diamond):
            return self._guard_exists(phi.guard, phi.arg, beta)
        if isinstance(phi, Box):
            return self._box(phi, beta)
        msg = f"cannot compile {format_formula(phi)}"
        raise ValueError(msg)

    def _atom(self, name: str, negated: bool) -> int:
        key = ("atom", name, negated)
        if key in self.cache:
            return self.cache[key]
        q = self.new_state(0)
        for letter in self.letters:
            holds = (name in letter) != negated
            self.set_delta(q, letter, PB_TRUE if holds else PB_FALSE)
        self.cache[key] = q
        return q

    def _implies(self, phi: Implies, beta: TruthValue4) -> int:
        """Value of l -> r is top when V(l) <= V(r), else V(r).

        At threshold beta this is: some gamma with V(l) = gamma and
        V(r) >= gamma, or V(r) >= beta.
        """
        left, right = phi.left, phi.right
        q = self.new_state(0)
        chain = list(ALL_VALUES)
        for letter in self.letters:
            disjuncts = []
            for idx, gamma in enumerate(chain):
                parts = []
                if gamma != BOTTOM:
                    parts.append(self.init_delta(left, gamma, letter))
                if idx + 1 < len(chain):
                    above = chain[idx + 1]
                    parts.append(self.dual_init_delta(left, above, letter))
                if gamma != BOTTOM:
                    parts.append(self.init_delta(right, gamma, letter))
                disjuncts.append(pb_and(parts))
            disjuncts.append(self.init_delta(right, beta, letter))
            self.set_delta(q, letter, pb_or(disjuncts))
        return q

    # -- guard blocks ----------------------------------------------------

    def _closure_entries(self, nfa, closure, letter):
        """(jump?, target, test set) triples for a state reading letter.

        ``closure`` is the state's epsilon closure, which does not depend
        on the letter.
        """
        out = []
        for q2, tests in closure:
            if q2 in nfa.finals:
                out.append((True, None, tests))
            for formula, q3 in nfa.letters[q2]:
                if prop_holds(letter, formula):
                    out.append((False, q3, tests))
        return out

    def _test_parts(self, tests, deg, letter, dual: bool):
        fn = self.dual_init_delta if dual else self.init_delta
        return [fn(theta, deg, letter) for theta in sorted(tests, key=format_formula)]

    def _guard_exists(self, guard: Guard, arg: Formula, deg: TruthValue4) -> int:
        """Some match of the guard satisfies arg at deg (finite escape)."""
        key = ("ex", guard, arg, deg)
        if key in self.cache:
            return self.cache[key]
        nfa = thompson(guard)
        states = [self.new_state(1) for _ in range(nfa.n_states)]
        self.cache[key] = states[nfa.initial]
        for q in range(nfa.n_states):
            closure = simple_eps_closure(nfa, q)
            for letter in self.letters:
                disjuncts = []
                for jump, q3, tests in self._closure_entries(nfa, closure, letter):
                    parts = self._test_parts(tests, deg, letter, dual=False)
                    if jump:
                        parts.append(self.init_delta(arg, deg, letter))
                    else:
                        parts.append(PBVar(states[q3]))
                    disjuncts.append(pb_and(parts))
                self.set_delta(states[q], letter, pb_or(disjuncts))
        return states[nfa.initial]

    def _guard_forall(self, guard: Guard, arg: Formula, deg: TruthValue4) -> int:
        """Every match of the guard satisfies arg at deg."""
        key = ("all", guard, arg, deg)
        if key in self.cache:
            return self.cache[key]
        nfa = thompson(guard)
        states = [self.new_state(0) for _ in range(nfa.n_states)]
        self.cache[key] = states[nfa.initial]
        for q in range(nfa.n_states):
            closure = simple_eps_closure(nfa, q)
            for letter in self.letters:
                conjuncts = []
                for jump, q3, tests in self._closure_entries(nfa, closure, letter):
                    parts = self._test_parts(tests, deg, letter, dual=True)
                    if jump:
                        parts.append(self.init_delta(arg, deg, letter))
                    else:
                        parts.append(PBVar(states[q3]))
                    conjuncts.append(pb_or(parts))
                self.set_delta(states[q], letter, pb_and(conjuncts))
        return states[nfa.initial]

    def _guard_inf(
        self, guard: Guard, arg: Formula, deg: TruthValue4, refuted: bool
    ) -> int:
        """Infinitely many matches satisfy (or, refuted, violate) arg.

        A main copy tracks one run forever; at every step a checker copy
        is spawned at the successor state and must finish a match whose
        continuation satisfies arg at deg (its dual when refuted).
        """
        key = ("inf", guard, arg, deg, refuted)
        if key in self.cache:
            return self.cache[key]
        nfa = thompson(guard)
        main = [self.new_state(0) for _ in range(nfa.n_states)]
        check = [self.new_state(1) for _ in range(nfa.n_states)]
        self.cache[key] = main[nfa.initial]
        jump_delta = self.dual_init_delta if refuted else self.init_delta
        for q in range(nfa.n_states):
            closure = simple_eps_closure(nfa, q)
            for letter in self.letters:
                main_parts = []
                check_parts = []
                for jump, q3, tests in self._closure_entries(nfa, closure, letter):
                    tests_pos = self._test_parts(tests, deg, letter, dual=False)
                    if jump:
                        check_parts.append(
                            pb_and([*tests_pos, jump_delta(arg, deg, letter)])
                        )
                    else:
                        main_parts.append(
                            pb_and(
                                [
                                    *tests_pos,
                                    PBVar(main[q3]),
                                    PBVar(check[q3]),
                                ]
                            )
                        )
                        check_parts.append(
                            pb_and([*tests_pos, PBVar(check[q3])])
                        )
                self.set_delta(main[q], letter, pb_or(main_parts))
                self.set_delta(check[q], letter, pb_or(check_parts))
        return main[nfa.initial]

    def _box(self, phi: Box, beta: TruthValue4) -> int:
        """Union of the primed-bit blocks up to the threshold bit."""
        guard, arg = phi.guard, phi.arg
        blocks = [self._guard_forall(guard, arg, TOP)]
        if beta.bit_index >= 2:
            blocks.append(self._box_liminf(guard, arg))
        if beta.bit_index >= 3:
            blocks.append(self._box_limsup(guard, arg))
        if beta.bit_index >= 4:
            blocks.append(self._box_fin(guard, arg))
        q = self.new_state(0)
        for letter in self.letters:
            pb = pb_or([self.delta[(b, letter)] for b in blocks])
            self.set_delta(q, letter, pb)
        return q

    def _box_liminf(self, guard: Guard, arg: Formula) -> int:
        """Almost all matches satisfy arg at deg 0111.

        Either infinitely many matches satisfy and only finitely many
        violate, or there are finitely many matches and all satisfy.
        """
        deg = TruthValue4(7)
        inf_sat = self._guard_inf(guard, arg, deg, refuted=False)
        inf_unsat = self._guard_inf(guard, arg, deg, refuted=True)
        fin_matches = self.dual_of(self._guard_inf(guard, Tt(), deg, refuted=False))
        all_sat = self._guard_forall(guard, arg, deg)
        q = self.new_state(0)
        for letter in self.letters:
            pb = pb_or(
                [
                    pb_and(
                        [
                            self.delta[(inf_sat, letter)],
                            self.delta[(self.dual_of(inf_unsat), letter)],
                        ]
                    ),
                    pb_and(
                        [
                            self.delta[(fin_matches, letter)],
                            self.delta[(all_sat, letter)],
                        ]
                    ),
                ]
            )
            self.set_delta(q, letter, pb)
        return q

    def _box_limsup(self, guard: Guard, arg: Formula) -> int:
        """Infinitely many (or a final cofinite tail of no) matches work.

        Infinitely many satisfying matches, or finitely many matches with
        at least one satisfying, or no match at all; degree 0011.
        """
        deg = TruthValue4(3)
        inf_sat = self._guard_inf(guard, arg, deg, refuted=False)
        fin_matches = self.dual_of(self._guard_inf(guard, Tt(), deg, refuted=False))
        some_sat = self._guard_exists(guard, arg, deg)
        no_match = self.dual_of(self._guard_exists(guard, Tt(), deg))
        q = self.new_state(0)
        for letter in self.letters:
            pb = pb_or(
                [
                    self.delta[(inf_sat, letter)],
                    pb_and(
                        [
                            self.delta[(fin_matches, letter)],
                            self.delta[(some_sat, letter)],
                        ]
                    ),
                    self.delta[(no_match, letter)],
                ]
            )
            self.set_delta(q, letter, pb)
        return q

    def _box_fin(self, guard: Guard, arg: Formula) -> int:
        """Some match satisfies at degree 0001, or no match exists."""
        deg = TruthValue4(1)
        some_sat = self._guard_exists(guard, arg, deg)
        no_match = self.dual_of(self._guard_exists(guard, Tt(), deg))
        q = self.new_state(0)
        for letter in self.letters:
            pb = pb_or(
                [
                    self.delta[(some_sat, letter)],
                    self.delta[(no_match, letter)],
                ]
            )
            self.set_delta(q, letter, pb)
        return q


def from_rldl(
    phi: Formula,
    beta: TruthValue4,
    props=None,
) -> APA:
    """Compile a five-valued dynamic-logic formula at a threshold.

    The automaton accepts exactly the lassos (and, by construction over
    all ultimately periodic words, the omega-words) on which the formula
    evaluates to at least beta.  The result is weak.
    """
    require_logic(phi, LogicId.RLDL)
    names = set(propositions(phi))
    if props is not None:
        extra = set(props)
        if not names <= extra:
            msg = "props must cover the propositions of the formula"
            raise AlphabetMismatchError(msg)
        names = extra
    prop_tuple = tuple(sorted(names))
    builder = _Builder(prop_tuple)
    initial = builder.automaton(phi, beta)
    apa = APA(
        prop_tuple,
        len(builder.colors),
        initial,
        builder.delta,
        tuple(builder.colors),
    )
    return normalize_colors(_prune(apa))


def _prune(a: APA) -> APA:
    """Restrict to states reachable from the initial state."""
    letters = all_letters(a.props)
    reach = {a.initial}
    work = [a.initial]
    while work:
        q = work.pop()
        for letter in letters:
            for t in pb_states(a.delta[(q, letter)]):
                if t not in reach:
                    reach.add(t)
                    work.append(t)
    order = sorted(reach)
    index = {q: i for i, q in enumerate(order)}
    delta = {}
    for q in order:
        for letter in letters:
            delta[(index[q], letter)] = pb_rename(
                a.delta[(q, letter)], index.__getitem__
            )
    color = tuple(a.color[q] for q in order)
    return APA(a.props, len(order), index[a.initial], delta, color)


def weak_components(a: APA):
    """SCCs of the state graph with their color sets, topological order."""
    graph = {q: set() for q in range(a.n_states)}
    for (q, _letter), pb in a.delta.items():
        graph[q] |= pb_states(pb)
    index = {}
    low = {}
    on_stack = set()
    stack: list[int] = []
    counter = [0]
    components: list[tuple[int, ...]] = []
    sys_stack: list[tuple[int, int]] = []
    for root in range(a.n_states):
        if root in index:
            continue
        sys_stack.append((root, -1))
        while sys_stack:
            node, pos = sys_stack.pop()
            if pos == -1:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
                succs = sorted(graph[node])
                sys_stack.append((node, 0))
                continue
            succs = sorted(graph[node])
            if pos > 0:
                prev = succs[pos - 1]
                low[node] = min(low[node], low[prev])
            advanced = False
            for i in range(pos, len(succs)):
                t = succs[i]
                if t not in index:
                    sys_stack.append((node, i + 1))
                    sys_stack.append((t, -1))
                    advanced = True
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                components.append(tuple(sorted(comp)))
    components.reverse()
    return components


def is_weak(a: APA) -> bool:
    """Every strongly connected component carries one color."""
    for comp in weak_components(a):
        if len({a.color[q] for q in comp}) > 1:
            return False
    return True
