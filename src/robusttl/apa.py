"""Alternating parity automata over alphabets 2^P.

Transitions map (state, letter) to positive Boolean formulas over
states; acceptance is max parity on the colors seen along every path of
a run.  The compiler from five-valued dynamic-logic formulas builds, for
each threshold, an automaton recognizing the traces whose value is at
least that threshold.  All compiled automata are weak: every strongly
connected component of the state graph carries a single color.

The compiler works on demand (the on-the-fly principle of Gerth, Peled,
Vardi and Wolper): a breadth-first walk from the initial state asks for
the transitions of the states it reaches, and only those are computed.
Apart from the initial state, a state is a key naming a guard-automaton
state of a guard block, and the complement of a state is the key's
dual, so no state is copied and none is built that the walk does not
reach.
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
    HashOnce,
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
from .graphs import sccs
from .guards import all_letters, prop_holds, simple_eps_closure, thompson
from .traces import LassoTrace
from .truth import ALL_VALUES, BOTTOM, TOP, V0001, V0011, V0111, TruthValue4


Colored = TypeVar("Colored")


class EmptyListError(ValueError):
    """Raised when a union or intersection gets no operands."""


class AlphabetMismatchError(ValueError):
    """Raised when combined automata disagree on propositions."""


class PositiveBool(HashOnce):
    """Positive Boolean formula over automaton states."""

    __slots__ = ()


@dataclass(frozen=True)
class PBTrue(PositiveBool):
    pass


@dataclass(frozen=True)
class PBFalse(PositiveBool):
    pass


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


# Kinds of state keys and their colors.  A guard block over (guard, arg,
# degree, refuted) has one state per guard-automaton state: "ex" (some
# match satisfies arg), "all" (every match does), and for "infinitely
# many matches" a "main" copy that follows one run forever plus a
# "check" copy, spawned at every step, that must finish a match.  A
# "formula" state is only ever the initial state of a compiled formula.
# The key ("dual", k) is the complement of k, one color higher.
_KIND_COLOR = {"formula": 0, "ex": 1, "all": 0, "main": 0, "check": 1}

# The box [g] a at a threshold with highest set bit i is the disjunction
# of the rows with bit index at most i.  A row gives a degree and a
# disjunction of conjunctions of block initial states, each written
# (kind, arg is tt, refuted, dual).
_BOX_ROWS = (
    # Every match satisfies a.
    (1, TOP, ((("all", False, False, False),),)),
    # Almost all matches satisfy a: infinitely many satisfy and finitely
    # many violate, or finitely many matches exist and all satisfy.
    (2, V0111, (
        (("main", False, False, False), ("main", False, True, True)),
        (("main", True, False, True), ("all", False, False, False)),
    )),
    # Infinitely many matches satisfy a, or finitely many matches exist
    # and one satisfies, or no match exists.
    (3, V0011, (
        (("main", False, False, False),),
        (("main", True, False, True), ("ex", False, False, False)),
        (("ex", True, False, True),),
    )),
    # Some match satisfies a, or no match exists.
    (4, V0001, ((("ex", False, False, False),), (("ex", True, False, True),))),
)

_TT = Tt()


def _dual(key: tuple) -> tuple:
    return key[1] if key[0] == "dual" else ("dual", key)


class _Builder:
    """On-demand compiler of one formula over one alphabet.

    States are keys (see _KIND_COLOR), numbered provisionally in the order
    they are first mentioned.  A transition is computed when asked for,
    once per (state, letter); the transition of a formula is computed
    once per (formula, threshold, letter, dual) and inlined wherever the
    formula occurs.  Conjunctions and disjunctions take their parts from
    generators, so the parts after a deciding one are never built.
    """

    def __init__(self, props: tuple[str, ...]):
        self.letters = all_letters(props)
        self.keys: list[tuple] = []
        self.ids: dict[tuple, int] = {}
        self.duals: dict[int, int] = {}
        self.deltas: dict[tuple[int, int], PositiveBool] = {}
        self.formula_deltas: dict = {}
        self.guards: dict = {}

    def id_of(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
        return i

    def dual_id(self, i: int) -> int:
        d = self.duals.get(i)
        if d is None:
            d = self.id_of(_dual(self.keys[i]))
            self.duals[i] = d
            self.duals[d] = i
        return d

    def color(self, i: int) -> int:
        key = self.keys[i]
        if key[0] == "dual":
            return _KIND_COLOR[key[1][0]] + 1
        return _KIND_COLOR[key[0]]

    def root(self, phi: Formula, beta: TruthValue4) -> tuple:
        """Key of the initial state of phi at beta."""
        if beta != BOTTOM:
            if isinstance(phi, Not):
                return _dual(self.root(phi.arg, TOP))
            if isinstance(phi, Diamond):
                initial = self.guard(phi.guard)[0]
                return ("ex", phi.guard, phi.arg, beta, False, initial)
        return ("formula", phi, beta)

    def guard(self, guard: Guard):
        """The guard automaton's initial state and its steps.

        ``steps[q][li]`` lists, for the epsilon paths from q followed by
        letter li, pairs (target, tests): the state after the letter, or
        None where the path ends the match before the letter, with the
        path's tests sorted by their printed form.
        """
        info = self.guards.get(guard)
        if info is None:
            nfa = thompson(guard)
            steps = []
            for q in range(nfa.n_states):
                paths = [
                    (q2, tuple(sorted(tests, key=format_formula)))
                    for q2, tests in simple_eps_closure(nfa, q)
                ]
                per_letter = []
                for letter in self.letters:
                    out = []
                    for q2, tests in paths:
                        if q2 in nfa.finals:
                            out.append((None, tests))
                        out.extend(
                            (q3, tests)
                            for f, q3 in nfa.letters[q2]
                            if prop_holds(letter, f)
                        )
                    per_letter.append(out)
                steps.append(per_letter)
            info = self.guards[guard] = (nfa.initial, steps)
        return info

    # -- transitions -----------------------------------------------------

    def delta(self, i: int, li: int) -> PositiveBool:
        """Transition of provisional state i at letter index li."""
        pb = self.deltas.get((i, li))
        if pb is None:
            key = self.keys[i]
            kind = key[0]
            if kind == "dual":
                pb = pb_dual(self.delta(self.dual_id(i), li), self.dual_id)
            elif kind == "formula":
                pb = self.formula_delta(key[1], key[2], li)
            else:
                pb = self._block_delta(key, li)
            self.deltas[(i, li)] = pb
        return pb

    def formula_delta(
        self, phi: Formula, beta: TruthValue4, li: int, dual: bool = False
    ) -> PositiveBool:
        """Transition of phi at beta (of its complement when dual)."""
        memo = (phi, beta, li, dual)
        pb = self.formula_deltas.get(memo)
        if pb is None:
            if dual:
                pb = pb_dual(self.formula_delta(phi, beta, li), self.dual_id)
            else:
                pb = self._formula_delta(phi, beta, li)
            self.formula_deltas[memo] = pb
        return pb

    def _formula_delta(self, phi: Formula, beta: TruthValue4, li: int) -> PositiveBool:
        if beta == BOTTOM or isinstance(phi, Tt):
            return PB_TRUE
        if isinstance(phi, Ff):
            return PB_FALSE
        if isinstance(phi, (Atom, NegAtom)):
            holds = (phi.name in self.letters[li]) != isinstance(phi, NegAtom)
            return PB_TRUE if holds else PB_FALSE
        if isinstance(phi, Not):
            return self.formula_delta(phi.arg, TOP, li, dual=True)
        if isinstance(phi, (And, Or)):
            smash = pb_and if isinstance(phi, And) else pb_or
            return smash(self.formula_delta(f, beta, li) for f in (phi.left, phi.right))
        if isinstance(phi, Implies):
            return pb_or(self._implies(phi.left, phi.right, beta, li))
        if isinstance(phi, Diamond):
            return self._initial_delta("ex", phi.guard, phi.arg, beta, False, li)
        if isinstance(phi, Box):
            return pb_or(self._box(phi.guard, phi.arg, beta, li))
        msg = f"cannot compile {format_formula(phi)}"
        raise ValueError(msg)

    def _implies(self, left: Formula, right: Formula, beta: TruthValue4, li: int):
        """Disjuncts of l -> r: the value is top when V(l) <= V(r), else V(r).

        At threshold beta this is: some gamma with V(l) = gamma and
        V(r) >= gamma, or V(r) >= beta.
        """

        def same_level(idx: int, gamma: TruthValue4):
            if gamma != BOTTOM:
                yield self.formula_delta(left, gamma, li)
            if idx + 1 < len(ALL_VALUES):
                yield self.formula_delta(left, ALL_VALUES[idx + 1], li, dual=True)
            if gamma != BOTTOM:
                yield self.formula_delta(right, gamma, li)

        for idx, gamma in enumerate(ALL_VALUES):
            yield pb_and(same_level(idx, gamma))
        yield self.formula_delta(right, beta, li)

    def _box(self, guard: Guard, arg: Formula, beta: TruthValue4, li: int):
        """Disjuncts of [guard] arg at beta, one per row of _BOX_ROWS."""
        for bit, deg, disjuncts in _BOX_ROWS:
            if bit > beta.bit_index:
                break
            for conjuncts in disjuncts:
                yield pb_and(
                    self._initial_delta(
                        kind, guard, _TT if on_tt else arg, deg, refuted, li, dual
                    )
                    for kind, on_tt, refuted, dual in conjuncts
                )

    def _initial_delta(
        self, kind, guard, arg, deg, refuted, li, dual=False
    ) -> PositiveBool:
        i = self.id_of((kind, guard, arg, deg, refuted, self.guard(guard)[0]))
        return self.delta(self.dual_id(i) if dual else i, li)

    def _block_delta(self, key: tuple, li: int) -> PositiveBool:
        """Transition of a guard-block state.

        Each epsilon path that reads the letter (or ends the match) gives
        its tests at the block's degree, then either the state after the
        letter or, at the end of a match, arg: a conjunction for "ex",
        "main" and "check" (all joined by a disjunction), and for "all" a
        disjunction with the tests complemented (joined by a conjunction).
        "main" moves to both copies and never ends a match; "check" ends
        with arg complemented when the block is refuted.
        """
        kind, guard, arg, deg, refuted, q = key
        paths = self.guard(guard)[1][q][li]

        def parts(target, tests):
            for theta in tests:
                yield self.formula_delta(theta, deg, li, dual=kind == "all")
            if target is None:
                yield self.formula_delta(arg, deg, li, dual=refuted)
            else:
                yield PBVar(self.id_of((kind, guard, arg, deg, refuted, target)))
                if kind == "main":
                    yield PBVar(self.id_of(("check", guard, arg, deg, refuted, target)))

        if kind == "all":
            return pb_and(pb_or(parts(*path)) for path in paths)
        if kind == "main":
            paths = [path for path in paths if path[0] is not None]
        return pb_or(pb_and(parts(*path)) for path in paths)


def from_rldl(
    phi: Formula,
    beta: TruthValue4,
    props=None,
) -> APA:
    """Compile a five-valued dynamic-logic formula at a threshold.

    The automaton accepts exactly the lassos (and, by construction over
    all ultimately periodic words, the omega-words) on which the formula
    evaluates to at least beta.  The result is weak.

    Only states reachable from the initial state are built.  They are
    numbered breadth-first: the initial state is 0, and the states of each
    transition, letter by letter and in provisional order, get the next
    free numbers.
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
    order = [builder.id_of(builder.root(phi, beta))]
    number = {order[0]: 0}
    delta = {}
    for q, i in enumerate(order):  # grows while it is walked
        for li, letter in enumerate(builder.letters):
            pb = builder.delta(i, li)
            for t in sorted(pb_states(pb)):
                if t not in number:
                    number[t] = len(order)
                    order.append(t)
            delta[(q, letter)] = pb_rename(pb, number.__getitem__)
    color = tuple(builder.color(i) for i in order)
    return normalize_colors(APA(prop_tuple, len(order), 0, delta, color))


def weak_components(a: APA):
    """SCCs of the state graph with their color sets, topological order."""
    graph = [set() for _ in range(a.n_states)]
    for (q, _letter), pb in a.delta.items():
        graph[q] |= pb_states(pb)
    components = sccs(range(a.n_states), lambda q: sorted(graph[q]))
    return [tuple(sorted(comp)) for comp in reversed(components)]


def is_weak(a: APA) -> bool:
    """Every strongly connected component carries one color."""
    for comp in weak_components(a):
        if len({a.color[q] for q in comp}) > 1:
            return False
    return True
