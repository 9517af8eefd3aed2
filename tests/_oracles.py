"""Reference implementations used only by the test suite.

brute_force_winner enumerates player 0's positional strategies and, for
each, asks whether the adversary can reach a cycle whose maximal color is
odd in the strategy-restricted graph.  Positional determinacy of parity
games makes this exact.

unpruned_apa_to_nba is the plain breakpoint construction: every choice of
one minimal model per active state gives a successor, with no pruning of
dominated successors.

reference_solve_parity is the plain recursive Zielonka solver over
Python sets, with an attractor that rebuilds predecessor lists and
out-degrees over its whole region on every call.

reference_direct_simulation is the direct-simulation preorder by the
textbook fixpoint over pairs of states: start from every pair that
respects acceptance and delete a pair whenever some successor of the
simulated state has no simulating successor, until nothing changes.

full_alphabet_mc_witness is the model check over the union of the
formula's and the system's propositions: the system as a Buechi
automaton, intersected over the full product state space with the
complement automaton, then searched for emptiness.

reference_reduce_game and reference_color_game are the product games
built from every arena vertex: the breadth-first walk is seeded with
(v, initial), resp. ('pick', v, initial), for every vertex v in arena
order, so that node is numbered by v's position.

dpa_quotient, dpa_minimize and dpa_complement are parity automata
built from a whole DPA by the routines of ``omega``: the Moore quotient
alone, the quotient with least priorities as every compiled DPA gets
them, and the automaton with every color shifted by one.

reference_tree_step is one compact-tree transition of ``omega`` with
the recursive label restriction and subtree walk: each child is
restricted to what its parent holds and its older siblings have not
claimed, depth first.

changes_infinitely is the LDL formula "the color proposition changes
infinitely often"; compiled in a conjunction with a relaxed prompt
objective, it is the reference for ``omega.dpa_with_changes``.

thompson_close and thompson_step run a Thompson guard automaton
directly on sets of its states: the epsilon closure, and one letter
followed by the closure.  A word is matched when the set it ends in
holds a final state.

reference_lasso_search is the accepting-lasso search with its own
breadth-first walk and parent table, given the (letter, node) pairs
leaving each node, and a second walk per accepting node for its
shortest cycle (reference_cycle_word).  reference_is_trace_of decides
whether a lasso is a system trace by the largest set of (state,
position) nodes in which every node has a successor, shrunk by passes
over the sorted nodes until nothing changes.

reference_fragment_translate is the fragment translation as a rewrite
with a rule per box: at 1111 the formula as it is, at 0001 each box a
diamond, and at 0111 and 0011 each box the disjunction, resp.
conjunction, over the guard's split of a prefix diamond before a
completion box, resp. a prefix box before a completion diamond.

reference_from_rldl is the eager alternating-automaton compiler: every
subformula and guard block gets states over every letter, a complement
is a copied dual of everything its state reaches, and a final pass
prunes the result to the states reachable from the initial one through
minimal models.  It builds positive Boolean formula trees (PBAnd, PBOr,
PBVar and the constants) and turns each into its minimal models, as
int bitmasks, only at the end.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, reduce

from robusttl.apa import APA, AlphabetMismatchError
from robusttl.formulas import (
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
    Prop,
    Star,
    Tt,
    format_formula,
    propositions,
    require_logic,
    rewrite,
)
from robusttl.guards import all_letters, letter_of, prop_holds, simple_eps_closure, thompson
from robusttl.omega import DPA, _minimize, _quotient
from robusttl.traces import LassoTrace
from robusttl.translate import _split_guard, check_fragment
from robusttl.truth import ALL_VALUES, BOTTOM, TOP, TruthValue4, V0011, V0111


def thompson_close(nfa, states) -> frozenset:
    """The states of nfa reachable from states by epsilon edges."""
    out = set(states)
    stack = list(states)
    while stack:
        for t in nfa.eps[stack.pop()]:
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def thompson_step(nfa, states, letter: frozenset) -> frozenset:
    """The closed set of states after reading letter from states."""
    return thompson_close(
        nfa, {t for q in states for f, t in nfa.letters[q] if prop_holds(letter, f)}
    )


def _reachable(edges, start):
    reach = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in edges[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    return reach


def _on_cycle(edges, v) -> bool:
    seen = set()
    stack = list(edges.get(v, ()))
    while stack:
        u = stack.pop()
        if u == v:
            return True
        if u in seen or u not in edges:
            continue
        seen.add(u)
        stack.extend(edges[u])
    return False


def _has_odd_cycle(edges, color, region) -> bool:
    """Some cycle inside region has an odd maximal color."""
    for v in region:
        c = color[v]
        if c % 2 == 0:
            continue
        capped = {
            u: tuple(w for w in edges[u] if w in region and color[w] <= c)
            for u in region
            if color[u] <= c
        }
        if _on_cycle(capped, v):
            return True
    return False


def every_cycle_even(edges, color, region) -> bool:
    return not _has_odd_cycle(edges, color, region)


def brute_force_winner(game, start) -> int:
    """0 when player 0 has a positional strategy winning from start."""
    return 0 if start in brute_force_region(game) else 1


def brute_force_region(game) -> frozenset:
    """All vertices from which player 0 wins, by strategy enumeration.

    For a fixed player-0 strategy the adversary wins exactly from the
    vertices that can reach a cycle with odd maximal color.
    """
    zero_vertices = [v for v in game.vertices if game.owner[v] == 0]
    option_lists = [game.edges[v] for v in zero_vertices]
    win0: set = set()
    for choice in itertools.product(*option_lists):
        strat0 = dict(zip(zero_vertices, choice))
        edges = {
            v: (strat0[v],) if game.owner[v] == 0 else tuple(game.edges[v])
            for v in game.vertices
        }
        on_odd = set()
        for v in game.vertices:
            c = game.color[v]
            if c % 2 == 0:
                continue
            capped = {
                u: tuple(w for w in edges[u] if game.color[w] <= c)
                for u in game.vertices
                if game.color[u] <= c
            }
            if _on_cycle(capped, v):
                on_odd.add(v)
        losing = set(on_odd)
        changed = True
        while changed:
            changed = False
            for v in game.vertices:
                if v not in losing and any(w in losing for w in edges[v]):
                    losing.add(v)
                    changed = True
        win0 |= set(game.vertices) - losing
        if len(win0) == len(game.vertices):
            break
    return frozenset(win0)


def _states_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def unpruned_apa_to_nba(a):
    """Breakpoint NBA over all (slice, owing) successors of every letter."""
    from robusttl.omega import NBA

    letters = range(1 << len(a.props))
    bad = frozenset(q for q in range(a.n_states) if a.color[q] % 2 == 1)
    start = (frozenset((a.initial,)), frozenset())
    index = {start: 0}
    order = [start]
    transitions: dict = {}
    work = [start]
    while work:
        node = work.pop()
        slice_, owing = node
        active = sorted(slice_)
        owing_pos = [i for i, q in enumerate(active) if q in owing]
        for letter in letters:
            succs = set()
            model_lists = [
                [_states_of(m) for m in a.delta[(q, letter)]] for q in active
            ]
            for combo in itertools.product(*model_lists):
                new_slice = frozenset().union(*combo)
                if owing:
                    carried = frozenset().union(*(combo[i] for i in owing_pos))
                    new_owing = carried & bad
                else:
                    new_owing = new_slice & bad
                succs.add((new_slice, new_owing))
            out = []
            for s in sorted(succs, key=lambda p: (sorted(p[0]), sorted(p[1]))):
                if s not in index:
                    index[s] = len(order)
                    order.append(s)
                    work.append(s)
                out.append(index[s])
            transitions[(index[node], letter)] = tuple(out)
    accepting = frozenset(index[s] for s in order if not s[1])
    return NBA(a.props, len(order), 0, transitions, accepting)


def reference_solve_parity(game):
    """(win0, win1, strategy0, strategy1) by the recursive Zielonka solver."""
    game.validate()
    win0, win1, strat0, strat1 = _reference_zielonka(game, set(game.vertices))
    return frozenset(win0), frozenset(win1), strat0, strat1


def _reference_attractor(game, region: set, target: set, player: int):
    attracted = set(target)
    strategy: dict = {}
    out_degree = {
        v: sum(1 for s in game.edges[v] if s in region)
        for v in region
        if game.owner[v] != player
    }
    preds: dict = {v: [] for v in region}
    for v in region:
        for s in game.edges[v]:
            if s in region:
                preds[s].append(v)
    queue = list(target)
    while queue:
        node = queue.pop()
        for v in preds[node]:
            if v in attracted:
                continue
            if game.owner[v] == player:
                attracted.add(v)
                strategy[v] = node
                queue.append(v)
            else:
                out_degree[v] -= 1
                if out_degree[v] == 0:
                    attracted.add(v)
                    queue.append(v)
    return attracted, strategy


def _reference_zielonka(game, region: set):
    if not region:
        return set(), set(), {}, {}
    top = max(game.color[v] for v in region)
    player = 0 if top % 2 == 0 else 1
    target = {v for v in region if game.color[v] == top}
    attracted, attract_strat = _reference_attractor(game, region, target, player)
    w0, w1, s0, s1 = _reference_zielonka(game, region - attracted)
    strat_me = s0 if player == 0 else s1
    win_op = w1 if player == 0 else w0
    if not win_op:
        strat = dict(strat_me)
        strat.update(attract_strat)
        for v in target:
            if game.owner[v] == player and v not in strat:
                strat[v] = next(s for s in game.edges[v] if s in region)
        if player == 0:
            return set(region), set(), strat, {}
        return set(), set(region), {}, strat
    escape, escape_strat = _reference_attractor(game, region, set(win_op), 1 - player)
    r0, r1, t0, t1 = _reference_zielonka(game, region - escape)
    if player == 0:
        strat1 = dict(s1)
        strat1.update(escape_strat)
        strat1.update(t1)
        return set(r0), r1 | escape, t0, strat1
    strat0 = dict(s0)
    strat0.update(escape_strat)
    strat0.update(t0)
    return r0 | escape, set(r1), strat0, t1


def reference_direct_simulation(nba) -> set:
    """The pairs (p, q) such that q directly simulates p."""
    letters = range(1 << len(nba.props))
    states = range(nba.n_states)

    def succ(q, letter):
        return nba.transitions.get((q, letter), ())

    rel = {
        (p, q)
        for p in states
        for q in states
        if p not in nba.accepting or q in nba.accepting
    }
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if any(
                not any((p2, q2) in rel for q2 in succ(q, letter))
                for letter in letters
                for p2 in succ(p, letter)
            ):
                rel.discard((p, q))
                changed = True
    return rel


def full_alphabet_mc_witness(ts, phi, beta):
    """A lasso of the system below the threshold, or None when it holds."""
    from robusttl.apa import apa_complement, from_rldl
    from robusttl.formulas import propositions
    from robusttl.modelcheck import ts_to_nba
    from robusttl.omega import apa_to_nba, nba_emptiness, nba_intersection

    props = sorted(propositions(phi) | ts.propositions)
    bad = apa_to_nba(apa_complement(from_rldl(phi, beta, props)))
    return nba_emptiness(nba_intersection(ts_to_nba(ts, props), bad))


def reference_lasso_search(initial, successors, accepting) -> LassoTrace | None:
    """A lasso through a reachable accepting node on a cycle, or None.

    The graph is built breadth-first from ``initial`` only:
    ``successors(node)`` gives the (letter, node) pairs leaving a node and
    is called once per reached node.  The first reached accepting node
    that lies on a cycle gives the lasso: its breadth-first path as the
    prefix and its shortest cycle as the loop.
    """
    graph: dict = {}
    parent: dict = {initial: None}
    work = deque((initial,))
    reach_order = [initial]
    while work:
        node = work.popleft()
        graph[node] = succs = tuple(successors(node))
        for letter, node2 in succs:
            if node2 not in parent:
                parent[node2] = (node, letter)
                reach_order.append(node2)
                work.append(node2)
    for target in reach_order:
        if not accepting(target):
            continue
        cycle = reference_cycle_word(graph, target)
        if cycle is None:
            continue
        prefix: list = []
        node = target
        while parent[node] is not None:
            node, letter = parent[node]
            prefix.append(letter)
        prefix.reverse()
        return LassoTrace(tuple(prefix), tuple(cycle))
    return None


def reference_cycle_word(graph: dict, target) -> list | None:
    """Shortest nonempty letter sequence from target back to target."""
    parent: dict = {target: None}
    queue = deque((target,))
    while queue:
        node = queue.popleft()
        for letter, node2 in graph[node]:
            if node2 == target:
                word = [letter]
                while parent[node] is not None:
                    node, pl = parent[node]
                    word.append(pl)
                word.reverse()
                return word
            if node2 not in parent:
                parent[node2] = (node, letter)
                queue.append(node2)
    return None


def reference_is_trace_of(ts, trace: LassoTrace) -> bool:
    """Whether some path of the system produces the lasso's word."""
    n = len(trace.prefix) + len(trace.loop)
    nodes = {
        (s, c)
        for s in ts.states
        for c in range(n)
        if ts.labels[s] == trace.letter_at(c)
    }
    # Largest subset where every node has a successor in the subset.
    changed = True
    while changed:
        changed = False
        for node in sorted(nodes):
            s, c = node
            c2 = trace.canonical_index(c + 1)
            if not any((t, c2) in nodes for t in ts.edges[s]):
                nodes.discard(node)
                changed = True
    return (ts.initial, 0) in nodes


# -- positive Boolean formula trees of the reference compiler ----------------


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


def _pb_flat(parts, unit, zero, node) -> PositiveBool:
    """pb_and / pb_or: flatten, drop units and duplicates, fold zeros."""
    flat: list[PositiveBool] = []
    seen = set()
    for part in parts:
        if part == zero:
            return zero
        if part == unit:
            continue
        for item in part.args if isinstance(part, node) else (part,):
            if item not in seen:
                seen.add(item)
                flat.append(item)
    if not flat:
        return unit
    return flat[0] if len(flat) == 1 else node(tuple(flat))


def pb_and(parts) -> PositiveBool:
    return _pb_flat(parts, PB_TRUE, PB_FALSE, PBAnd)


def pb_or(parts) -> PositiveBool:
    return _pb_flat(parts, PB_FALSE, PB_TRUE, PBOr)


def pb_dual(pb: PositiveBool, rename) -> PositiveBool:
    """Swap and/or and true/false, renaming states."""
    if isinstance(pb, PBTrue):
        return PB_FALSE
    if isinstance(pb, PBFalse):
        return PB_TRUE
    if isinstance(pb, PBVar):
        return PBVar(rename(pb.state))
    if isinstance(pb, PBAnd):
        return pb_or([pb_dual(a, rename) for a in pb.args])
    return pb_and([pb_dual(a, rename) for a in pb.args])


def pb_states(pb: PositiveBool) -> frozenset[int]:
    if isinstance(pb, PBVar):
        return frozenset((pb.state,))
    if isinstance(pb, (PBAnd, PBOr)):
        return frozenset().union(*(pb_states(a) for a in pb.args))
    return frozenset()


def _minimal_sets(sets) -> list[frozenset[int]]:
    return [m for m in sets if not any(x < m for x in sets)]


def pb_models(pb: PositiveBool) -> list[frozenset[int]]:
    """Minimal models: the state sets satisfying pb, none inside another."""
    if isinstance(pb, PBTrue):
        return [frozenset()]
    if isinstance(pb, PBFalse):
        return []
    if isinstance(pb, PBVar):
        return [frozenset((pb.state,))]
    if isinstance(pb, PBOr):
        return _minimal_sets({m for a in pb.args for m in pb_models(a)})
    models = [frozenset()]
    for a in pb.args:
        models = _minimal_sets({m | x for m in models for x in pb_models(a)})
    return models


class _ReferenceBuilder:
    """Eager compiler: every block over every letter, duals by copying."""

    def __init__(self, props: tuple[str, ...]):
        self.props = props
        self.alphabet = all_letters(props)
        self.letters = range(len(self.alphabet))
        self.colors: list[int] = []
        self.delta: dict = {}
        self.cache: dict = {}
        self.dual_map: dict[int, int] = {}

    def new_state(self, color: int) -> int:
        q = len(self.colors)
        self.colors.append(color)
        return q

    def set_delta(self, q: int, letter: int, pb: PositiveBool) -> None:
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
            holds = (name in self.alphabet[letter]) != negated
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
                if prop_holds(self.alphabet[letter], formula):
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


def reference_from_rldl(
    phi: Formula,
    beta: TruthValue4,
    props=None,
) -> APA:
    """from_rldl by eager construction, then a prune to the reachable part."""
    require_logic(phi, LogicId.RLDL)
    names = set(propositions(phi))
    if props is not None:
        extra = set(props)
        if not names <= extra:
            msg = "props must cover the propositions of the formula"
            raise AlphabetMismatchError(msg)
        names = extra
    prop_tuple = tuple(sorted(names))
    builder = _ReferenceBuilder(prop_tuple)
    initial = builder.automaton(phi, beta)
    apa = APA(
        prop_tuple,
        len(builder.colors),
        initial,
        builder.delta,
        tuple(builder.colors),
    )
    return _prune(apa)


def _prune(a: APA) -> APA:
    """Restrict to the states reachable from the initial state through
    minimal models, with every transition as its int models."""
    letters = range(1 << len(a.props))
    models = {}
    reach = {a.initial}
    work = [a.initial]
    while work:
        q = work.pop()
        for letter in letters:
            models[(q, letter)] = pb_models(a.delta[(q, letter)])
            for m in models[(q, letter)]:
                for t in m:
                    if t not in reach:
                        reach.add(t)
                        work.append(t)
    order = sorted(reach)
    index = {q: i for i, q in enumerate(order)}
    delta = {}
    for q in order:
        for letter in letters:
            delta[(index[q], letter)] = tuple(
                sorted(sum(1 << index[t] for t in m) for m in models[(q, letter)])
            )
    color = tuple(a.color[q] for q in order)
    return APA(a.props, len(order), index[a.initial], delta, color)


def reference_reduce_game(graph, dpa):
    """The product of an arena with a DPA from every (v, initial)."""
    from robusttl.games import ParityGame

    back = [(v, dpa.initial) for v in graph.vertices]
    index = {node: i for i, node in enumerate(back)}
    owner, edges, color = [], [], []
    for v, q in back:  # grows while it is walked
        q2 = dpa.delta[q][letter_of(dpa.props, graph.labels[v])]
        out = []
        for v2 in graph.edges[v]:
            node = (v2, q2)
            if node not in index:
                index[node] = len(back)
                back.append(node)
            out.append(index[node])
        edges.append(tuple(out))
        owner.append(graph.owner[v])
        color.append(dpa.color[q])
    return ParityGame.numbered(owner, edges, color), back


def reference_color_game(graph, dpa, color_prop):
    """The recoloring game of an arena from every ('pick', v, initial)."""
    from robusttl.games import ParityGame

    mask = 1 << dpa.props.index(color_prop)
    back = [("pick", v, dpa.initial) for v in graph.vertices]
    index = {node: i for i, node in enumerate(back)}
    owner, edges, color = [], [], []
    for kind, v, q in back:  # grows while it is walked
        if kind == "pick":
            a = letter_of(dpa.props, graph.labels[v]) & ~mask
            succs = [("move", v, dpa.delta[q][b]) for b in (a, a | mask)]
            owner.append(0)
            color.append(dpa.color[q])
        else:
            succs = [("pick", v2, q) for v2 in graph.edges[v]]
            owner.append(graph.owner[v])
            color.append(0)
        out = []
        for node in succs:
            if node not in index:
                index[node] = len(back)
                back.append(node)
            out.append(index[node])
        edges.append(tuple(out))
    return ParityGame.numbered(owner, edges, color), back


def reference_tree_step(tree, label_sets, letter, transitions, acc, n_bound):
    """(tree', labels', priority) of ``omega._tree_step``, by recursion."""
    names = [name for name, _ in tree]
    parent = dict(tree)
    children: dict = {name: [] for name in names}
    for name, par in tree:
        if par is not None:
            children[par].append(name)
    labels = {
        name: frozenset(q2 for q in label_sets[name] for q2 in transitions[(q, letter)])
        for name in names
    }
    next_fresh = max(names) + 1 if names else 1
    for name in list(names):
        spawn = labels[name] & acc
        if spawn:
            names.append(next_fresh)
            parent[next_fresh] = name
            children[name].append(next_fresh)
            children[next_fresh] = []
            labels[next_fresh] = spawn
            next_fresh += 1

    def restrict(name, allowed):
        labels[name] = labels[name] & allowed
        claimed: frozenset = frozenset()
        for child in children[name]:
            restrict(child, labels[name] - claimed)
            claimed = claimed | labels[child]

    def subtree(name):
        out = [name]
        for child in children[name]:
            out.extend(subtree(child))
        return out

    for root in [name for name in names if parent[name] is None]:
        restrict(root, labels[root])
    dead = {name for name in names if not labels[name]}
    red = min(dead) if dead else None
    removed = set()
    for name in dead:
        removed.update(subtree(name))
    green_nodes = [
        name
        for name in names
        if name not in removed
        and (kids := [c for c in children[name] if c not in removed])
        and labels[name] == frozenset().union(*(labels[c] for c in kids))
    ]
    green = min(green_nodes) if green_nodes else None
    for name in green_nodes:
        if name not in removed:
            for child in children[name]:
                if child not in removed:
                    removed.update(subtree(child))
    final = sorted(name for name in names if name not in removed)
    rename = {old: i + 1 for i, old in enumerate(final)}
    new_tree = tuple(
        (rename[name], rename[parent[name]] if parent[name] is not None else None)
        for name in final
    )
    new_labels = {rename[name]: labels[name] for name in final}
    if red is not None and (green is None or 2 * red - 1 < 2 * green):
        priority = 2 * red - 1
    elif green is not None:
        priority = 2 * green
    else:
        priority = 2 * n_bound + 1
    return new_tree, new_labels, priority


def changes_infinitely(color_prop: str) -> Formula:
    """LDL formula: the color proposition changes infinitely often."""
    c = Atom(color_prop)
    nc = NegAtom(color_prop)
    step = Prop(Tt())
    change = Or(And(c, Diamond(step, nc)), And(nc, Diamond(step, c)))
    return Box(Star(step), Diamond(Star(step), change))


def dpa_quotient(d):
    """Merge states that no run can tell apart by its colors; d itself
    when nothing merges."""
    merged, color, initial = _quotient(d.delta, d.color, d.initial)
    if merged is d.delta:
        return d
    return DPA(d.props, len(merged), initial, tuple(merged), tuple(color))


def dpa_minimize(d):
    """The quotient, least priorities and the quotient again while they
    let more states merge, as ``omega._minimize`` makes every DPA."""
    return _minimize(d.props, d.delta, d.color, d.initial)


def dpa_complement(d):
    """Every color shifted by one: same structure, complementary language."""
    return replace(d, color=tuple(c + 1 for c in d.color))


def reference_fragment_translate(phi: Formula, beta: TruthValue4) -> Formula:
    """The fragment translation by one rule per box (module docstring)."""
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
