"""Nondeterministic Buechi and deterministic parity automata.

Letters are the numbers of ``guards``: an NBA maps (state, letter) to a
tuple of successors, and a complete DPA holds one successor row per
state, so that delta[q][a] is the successor of q on letter a.  Lasso
membership numbers the trace's letters once, after checking that they
use only the automaton's propositions.

Dealternation uses the breakpoint construction (Miyano and Hayashi),
which is sound for weak alternating automata (each strongly connected
component of the input has one color, so every run path stabilizes in a
single component and acceptance reduces to visiting odd states finitely
often on every path).  Its states are (slice, owing) pairs held as
bitmasks over automaton states.  Successors are built by a fold over the
slice that keeps only the subset-minimal pairs, an antichain in the sense
of De Wulf, Doyen, Henzinger and Raskin: a pair containing another
accepts a subset of its language, so it adds nothing.  ``Breakpoint``
builds them once per (pair, letter) as they are asked for: model
checking asks only for the letters its product with the system reaches,
and ``apa_to_nba`` asks for every letter of every reachable pair.

Before determinization the NBA is reduced by direct simulation (Etessami
and Holzmann; Somenzi and Bloem): mutually similar states are merged and
successors that a sibling strictly simulates are dropped.  A reduced NBA
that is deterministic becomes a parity automaton as it stands; any other
goes through the compact-tree construction that produces parity indices
directly from tree events.  Both end with a color-respecting Moore
quotient that merges states no run can tell apart by its colors, then
give every state its least priority (Carton and Maceiras, "Computing the
Rabin index of a parity automaton", 1999) and quotient again while that
lets more states merge.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass

from .apa import APA, AlphabetMismatchError, bits, extend, lasso_word
from .formulas import Formula, LogicId, require_logic
from .graphs import accepting_cycle, explore, least_priorities, sccs, tree_path
from .guards import all_letters
from .traces import LassoTrace
from .truth import TOP, TruthValue4


class NotWeakError(ValueError):
    """Raised when dealternation gets a non-weak alternating automaton."""


@dataclass(frozen=True)
class NBA:
    """Nondeterministic Buechi automaton over 2^props."""

    props: tuple[str, ...]
    n_states: int
    initial: int
    transitions: dict  # (state, letter number) -> tuple of successor states
    accepting: frozenset[int]


@dataclass(frozen=True)
class DPA:
    """Deterministic complete max-parity automaton; highest color seen
    infinitely often along the run must be even.  The successor of q on
    letter a is delta[q][a]."""

    props: tuple[str, ...]
    n_states: int
    initial: int
    delta: tuple[tuple[int, ...], ...]
    color: tuple[int, ...]

    def states(self) -> range:
        return range(self.n_states)


@functools.lru_cache(maxsize=1024)
def _spread(mask: int) -> int:
    """Bit q of mask moved to bit 2q: "101" -> "10001"."""
    return int("0".join(format(mask, "b")), 2)


class Breakpoint:
    """Breakpoint dealternation of a weak alternating automaton, on demand.

    ``delta(q, letter)`` gives the minimal models of state q's transition
    as bitmasks over states, and ``color(q)`` its color, of which only
    the parity is read.  A state of the Buechi automaton is a pair
    (slice, owing): the slice is the set of active automaton states, and
    owing tracks states whose run path has stayed odd-colored since the
    last breakpoint; the accepting pairs are the breakpoints, where
    nothing is owed.  A pair is one int in which state q holds bit 2q
    when active and bit 2q + 1 when owed, so that the pointwise subset
    order on pairs is the subset order on ints however many states are
    met later.

    ``step(pair, letter)`` gives the successors of a pair, computed once
    per (pair, letter) by a fold over the slice, one state at a time:
    each partial pair is extended by every minimal model of that state's
    transition, and only the subset-minimal partial pairs are kept.
    Union preserves the order, so the fold yields exactly the minimal
    pairs among all choices of one model per state, and a pair that
    contains another accepts a subset of its language, so dropping it
    keeps the language.  The successors are sorted by owing, then slice.

    The construction is sound when every strongly connected component of
    the automaton has states of one parity: every run path then
    stabilizes in one component, and acceptance reduces to visiting odd
    states finitely often on every path.  ``check_weak`` checks that on
    the transitions asked for so far.
    """

    def __init__(self, props: tuple[str, ...], delta, color, initial: int):
        self.props = props
        self._delta = delta
        self._color = color
        self.initial = 1 << 2 * initial
        self.steps: dict = {}  # (pair, letter) -> successor pairs, as built
        self._options: dict = {}  # (state, letter) -> models, owed models
        self._met = 0  # bit 2q for every state q met
        self._odd = 0  # bit 2q for every odd-colored state q met
        self._meet(self.initial)

    def _meet(self, slots: int) -> None:
        """Note which states of slots, met for the first time, are odd."""
        new = slots & ~self._met
        self._met |= new
        for b in bits(new):
            if self._color(b >> 1) & 1:
                self._odd |= 1 << b

    def _models(self, q: int, letter: int) -> tuple[list, list]:
        """q's models on letter as pairs: plain, and with odd states owed."""
        plain = [_spread(m) for m in self._delta(q, letter)]
        union = 0
        for m in plain:
            union |= m
        if union & ~self._met:
            self._meet(union)
        odd = self._odd
        owed = [m | (m & odd) << 1 for m in plain] if union & odd else plain
        found = self._options[(q, letter)] = (plain, owed)
        return found

    def step(self, pair: int, letter: int) -> tuple[int, ...]:
        """The minimal successor pairs of pair on letter."""
        succs = self.steps.get((pair, letter))
        if succs is None:
            options = self._options
            partial = [0]
            rest = pair & self._met
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() >> 1  # bit 2q, so length 2q + 1
                found = options.get((q, letter)) or self._models(q, letter)
                partial = extend(partial, found[1 if pair & low << 1 else 0])
                if not partial:
                    break
            owed = self._met << 1
            if not pair & owed:
                odd = self._odd
                partial = [s | (s & odd) << 1 for s in partial]
            if len(partial) > 1:
                # By owing, then slice: stable sorts, the last key first.
                partial.sort()
                partial.sort(key=owed.__and__)
            succs = self.steps[(pair, letter)] = tuple(partial)
        return succs

    def accepting(self, pair: int) -> bool:
        """Whether pair is a breakpoint: nothing is owed."""
        return not pair & self._met << 1

    def accepts_lasso(self, trace: LassoTrace) -> bool:
        """Lasso membership over the same memoized steps."""
        return _accepts_lasso(self.props, self.initial, self.step, self.accepting, trace)

    def check_weak(self) -> None:
        """Raise NotWeakError unless the transitions asked for so far
        keep every strongly connected component to one parity."""
        edges: dict = {}  # state -> slots of its models asked for
        for (q, _letter), (plain, _owed) in self._options.items():
            for m in plain:
                edges[q] = edges.get(q, 0) | m
        for comp in sccs(list(edges), lambda q: [b >> 1 for b in bits(edges.get(q, 0))]):
            if len({self._color(q) & 1 for q in comp}) > 1:
                msg = "dealternation requires a weak alternating automaton"
                raise NotWeakError(msg)


def apa_to_nba(a: APA) -> NBA:
    """Breakpoint dealternation of a weak alternating automaton.

    The ``Breakpoint`` steps of every reachable pair on every letter,
    numbered breadth-first from the initial pair, letter by letter and
    in the order of the pairs of each letter.
    """
    bp = Breakpoint(
        a.props, lambda q, letter: a.delta[(q, letter)], a.color.__getitem__, a.initial
    )
    letters = range(1 << len(a.props))
    step = bp.step
    order, index, _ = explore(
        [bp.initial],
        lambda pair: [s for letter in letters for s in step(pair, letter)],
    )
    bp.check_weak()
    transitions = {
        (index[pair], letter): tuple(sorted([index[s] for s in succs]))
        for (pair, letter), succs in bp.steps.items()
    }
    accepting = frozenset(i for i, pair in enumerate(order) if bp.accepting(pair))
    return NBA(a.props, len(order), 0, transitions, accepting)


def nba_accepts_lasso(nba: NBA, trace: LassoTrace) -> bool:
    """Product of the automaton with the lasso; look for a fair cycle."""
    return _accepts_lasso(
        nba.props,
        nba.initial,
        lambda q, letter: nba.transitions[(q, letter)],
        nba.accepting.__contains__,
        trace,
    )


def _accepts_lasso(props, initial, step, accepting, trace: LassoTrace) -> bool:
    """Product of an automaton, given by its step, with the lasso."""
    word = lasso_word(props, trace)

    def successors(node):
        q, cls = node
        nxt = trace.canonical_index(cls + 1)
        return [(q2, nxt) for q2 in step(q, word[cls])]

    return accepting_cycle((initial, 0), successors, lambda node: accepting(node[0])) is not None


def nba_emptiness(nba: NBA) -> LassoTrace | None:
    """A lasso witness in the language, or None when empty.

    The witness is rebuilt from a reachable accepting state lying on a
    cycle and checked against the automaton before being returned.
    """
    letters = all_letters(nba.props)

    def successors(q: int):
        return [q2 for a in range(len(letters)) for q2 in nba.transitions[(q, a)]]

    def letter(q: int, q2: int):  # the first letter that leads to q2
        return next(x for a, x in enumerate(letters) if q2 in nba.transitions[(q, a)])

    witness = lasso_search(nba.initial, successors, nba.accepting.__contains__, letter)
    if witness is not None and not nba_accepts_lasso(nba, witness):
        msg = "internal error: emptiness witness rejected"
        raise AssertionError(msg)
    return witness


def lasso_search(initial, successors, accepting, letter) -> LassoTrace | None:
    """A lasso through a reachable accepting node on a cycle, or None.

    ``successors(node)`` lists the nodes after node, once per reached
    node; ``letter(node, succ)``, an edge's letter, is asked along the
    lasso only.  The prefix is the breadth-first path to the first
    accepting node on a cycle (``graphs.accepting_cycle``), the loop its
    shortest cycle, read off an ``explore`` rooted at that node.
    """
    found = accepting_cycle(initial, successors, accepting)
    if found is None:
        return None
    order, rows, target = found
    loop_order, _, loop_rows = explore([target], rows.__getitem__)
    last = next(i for i, row in enumerate(loop_rows) if 0 in row)
    stem = [order[i] for i in tree_path(rows, target)]
    loop = [order[loop_order[i]] for i in tree_path(loop_rows, last)] + [order[target]]
    return LassoTrace(tuple(map(letter, stem, stem[1:])), tuple(map(letter, loop, loop[1:])))


def nba_intersection(b1: NBA, b2: NBA) -> NBA:
    """Two-track product over the full state space of both automata."""
    if b1.props != b2.props:
        msg = f"propositions differ: {b1.props} vs {b2.props}"
        raise AlphabetMismatchError(msg)
    n_letters = 1 << len(b1.props)
    n2 = b2.n_states

    def idx(q1: int, q2: int, track: int) -> int:
        return (q1 * n2 + q2) * 2 + track

    transitions: dict = {}
    accepting = set()
    for q1 in range(b1.n_states):
        for q2 in range(b2.n_states):
            for track in (0, 1):
                if track == 0 and q1 in b1.accepting:
                    nxt_track = 1
                elif track == 1 and q2 in b2.accepting:
                    nxt_track = 0
                else:
                    nxt_track = track
                if track == 0 and q1 in b1.accepting:
                    accepting.add(idx(q1, q2, track))
                for letter in range(n_letters):
                    succs = tuple(
                        idx(s1, s2, nxt_track)
                        for s1 in b1.transitions[(q1, letter)]
                        for s2 in b2.transitions[(q2, letter)]
                    )
                    transitions[(idx(q1, q2, track), letter)] = succs
    return NBA(
        b1.props,
        b1.n_states * n2 * 2,
        idx(b1.initial, b2.initial, 0),
        transitions,
        frozenset(accepting),
    )


# -- simulation reduction --------------------------------------------------


def direct_simulation(nba: NBA) -> list[int]:
    """The direct-simulation preorder: bit q of the p-th mask is set iff
    q simulates p.

    q simulates p iff q accepts whenever p does and every a-successor of
    p is simulated by some a-successor of q.  The greatest such relation
    is refined from the acceptance condition by a worklist: a state is
    re-checked only when the simulator set of one of its successors has
    shrunk.  A state's allowed simulators are those with, for each of its
    successors s on letter a, an a-successor among s's simulators; that
    set is the union of the a-predecessor masks of s's simulators,
    cached per letter and simulator set, which many states share.
    """
    transitions = nba.transitions
    letters = range(1 << len(nba.props))
    n = nba.n_states
    pred = [[0] * n for _ in letters]
    pred_any = [0] * n
    enabled = [0] * len(letters)
    for (q, a), targets in transitions.items():
        if targets:
            enabled[a] |= 1 << q
        for s in targets:
            pred[a][s] |= 1 << q
            pred_any[s] |= 1 << q
    accepting = sum(1 << q for q in nba.accepting)
    sim = [accepting if q in nba.accepting else (1 << n) - 1 for q in range(n)]
    for (q, a), targets in transitions.items():
        if targets:
            sim[q] &= enabled[a]
    # (a, simulators of s) -> states with an a-successor among them
    cover: dict = {}
    queued = bytearray(b"\x01") * n
    # Successors tend to be numbered after their predecessors; taking
    # them first saves re-checks.
    work = deque(range(n - 1, -1, -1))
    while work:
        p = work.popleft()
        queued[p] = 0
        mask = sim[p]
        for a in letters:
            for s in transitions.get((p, a), ()):
                key = (a, sim[s])
                allowed = cover.get(key)
                if allowed is None:
                    allowed = 0
                    pa = pred[a]
                    rest = sim[s]
                    while rest:
                        low = rest & -rest
                        allowed |= pa[low.bit_length() - 1]
                        rest ^= low
                    cover[key] = allowed
                mask &= allowed
        if mask != sim[p]:
            sim[p] = mask
            for r in bits(pred_any[p]):
                if not queued[r]:
                    queued[r] = 1
                    work.append(r)
    return sim


def nba_simulation_reduce(nba: NBA) -> NBA:
    """Quotient by direct-simulation equivalence, without little brothers.

    States that simulate each other are merged into their smallest
    member.  On each letter, a successor class is dropped when another
    successor class strictly simulates it.  Both steps keep the language
    (Etessami and Holzmann, CONCUR 2000; Somenzi and Bloem, CAV 2000).
    The result keeps the part reachable from the initial class, numbered
    breadth-first with letters in alphabet order, and has a (possibly
    empty) successor tuple for every state and letter.
    """
    sim = direct_simulation(nba)
    n = nba.n_states
    rep = [-1] * n
    equal = [0] * n  # the class of each representative, as a mask
    for p in range(n):
        if rep[p] < 0:
            members = 0
            for q in bits(sim[p]):
                if sim[q] >> p & 1:
                    members |= 1 << q
                    rep[q] = p
            equal[p] = members
    moves: list = []  # moves[i][letter]: class i's successor classes on letter

    def successors(r):
        per_letter = []
        for letter in range(1 << len(nba.props)):
            tops = 0
            for s in nba.transitions.get((r, letter), ()):
                tops |= 1 << rep[s]
            per_letter.append(
                [c for c in bits(tops) if not sim[c] & tops & ~equal[c]]
            )
        moves.append(per_letter)
        return itertools.chain.from_iterable(per_letter)

    order, index, _ = explore([rep[nba.initial]], successors)
    transitions = {
        (i, letter): tuple(sorted([index[c] for c in kept]))
        for i, per_letter in enumerate(moves)
        for letter, kept in enumerate(per_letter)
    }
    accepting = frozenset(i for i, r in enumerate(order) if r in nba.accepting)
    return NBA(nba.props, len(order), 0, transitions, accepting)


# -- determinization -------------------------------------------------------


def _tree_step(tree, label_sets, letter, transitions, acc, n_bound):
    """One compact-tree transition; returns (tree', labels', priority).

    The tree is a tuple of (name, parent_name) pairs in name order; label
    sets map names to state sets.  Priority is min-parity: 2f for the
    smallest green name f, 2e+1 for the smallest red name e, whichever
    name is smaller; 2*n_bound+1 when nothing happens.
    """
    names = [name for name, _ in tree]
    parent = dict(tree)
    children: dict = {name: [] for name in names}
    for name, par in tree:
        if par is not None:
            children[par].append(name)
    labels = {
        name: frozenset(
            q2
            for q in label_sets[name]
            for q2 in transitions[(q, letter)]
        )
        for name in names
    }
    next_fresh = max(names) + 1 if names else 1
    for name in list(names):
        spawn = labels[name] & acc
        if spawn:
            fresh = next_fresh
            next_fresh += 1
            names.append(fresh)
            parent[fresh] = name
            children[name].append(fresh)
            children[fresh] = []
            labels[fresh] = spawn

    # A child keeps what its parent holds and its older siblings do not.
    work = [name for name in names if parent[name] is None]
    while work:
        name = work.pop()
        claimed: frozenset = frozenset()
        for child in children[name]:
            labels[child] = labels[child] & (labels[name] - claimed)
            claimed = claimed | labels[child]
        work.extend(children[name])
    dead = {name for name in names if not labels[name]}
    red = min(dead) if dead else None

    def subtree(name):
        out = [name]
        for node in out:  # grows while it is walked
            out.extend(children[node])
        return out

    removed = set()
    for name in dead:
        removed.update(subtree(name))
    survivors = [name for name in names if name not in removed]
    green_nodes = []
    for name in survivors:
        kids = [c for c in children[name] if c not in removed]
        if kids and labels[name] == frozenset().union(
            *(labels[c] for c in kids)
        ):
            green_nodes.append(name)
    green = min(green_nodes) if green_nodes else None
    for name in green_nodes:
        if name in removed:
            continue
        for child in children[name]:
            if child not in removed:
                removed.update(subtree(child))
    final = [name for name in names if name not in removed]
    rename = {old: i + 1 for i, old in enumerate(sorted(final))}
    new_tree = tuple(
        (rename[name], rename[parent[name]] if parent[name] is not None else None)
        for name in sorted(final)
    )
    new_labels = {rename[name]: labels[name] for name in final}
    # A death at name e dominates a green at the same name: the greens of
    # later incarnations of a dying name must not look accepting.
    if red is not None and (green is None or 2 * red - 1 < 2 * green):
        priority = 2 * red - 1
    elif green is not None:
        priority = 2 * green
    else:
        priority = 2 * n_bound + 1
    return new_tree, new_labels, priority


def nba_to_dpa(nba: NBA) -> DPA:
    """Determinize to a max-parity automaton.

    The NBA is first reduced by ``nba_simulation_reduce``.  When the
    reduced automaton has at most one successor per state and letter, it
    is read as a parity automaton directly: accepting states get color 2,
    the others 1, and missing letters go to a rejecting sink.  Otherwise
    it goes through compact trees: tree events give min-parity priorities
    on transitions, converted to state-based max-parity by pairing each
    tree with the priority of its incoming transition.  Merged and
    pruned NBA states leave the trees fewer labels to tell apart, which
    usually, though not always, gives a smaller DPA.  Either way the
    automaton is then made small by ``_minimize``: Moore quotient, least
    priorities, and the quotient again while the recoloring lets more
    states merge.
    """
    nba = nba_simulation_reduce(nba)
    if all(len(succs) <= 1 for succs in nba.transitions.values()):
        return _dba_to_dpa(nba)
    n_bound = max(nba.n_states, 1)
    neutral = 2 * n_bound + 1
    max_priority = 2 * n_bound + 2
    k_even = max_priority if max_priority % 2 == 0 else max_priority + 1
    # A tree is kept with the label sets of its names, in name order.
    trees = [(((1, None),), (frozenset((nba.initial,)),))]
    tree_number = {trees[0]: 0}
    tree_rows: dict = {}  # tree number -> (tree number, priority) per letter

    def successors(state):
        """The states after a tree, each a tree paired with the min-parity
        priority of its incoming transition; a tree's row is built once."""
        row = tree_rows.get(state[0])
        if row is None:
            tree, label_tuple = trees[state[0]]
            labels = {name: label_tuple[i] for i, (name, _) in enumerate(tree)}
            row = tree_rows[state[0]] = []
            for letter in range(1 << len(nba.props)):
                if tree:
                    t2, l2, priority = _tree_step(
                        tree, labels, letter, nba.transitions, nba.accepting, n_bound
                    )
                    nxt = (t2, tuple(l2[name] for name, _ in t2))
                else:
                    nxt, priority = ((), ()), neutral
                if nxt not in tree_number:
                    tree_number[nxt] = len(trees)
                    trees.append(nxt)
                row.append((tree_number[nxt], priority))
        return row

    # A state is a tree with the priority of its incoming transition, so
    # transition priorities become state colors (max parity).
    order, _, rows = explore([(0, neutral)], successors)
    color = [k_even - priority for _, priority in order]
    return _minimize(nba.props, rows, color, 0)


def _dba_to_dpa(nba: NBA) -> DPA:
    """A deterministic Buechi automaton as a max-parity automaton; a
    letter without a successor leads to a rejecting sink.  States, the
    sink among them, are numbered as first named from the initial one."""
    letters = range(1 << len(nba.props))
    sink = nba.n_states

    def successors(q):
        if q == sink:
            return (sink,) * len(letters)
        return [(nba.transitions[(q, a)] or (sink,))[0] for a in letters]

    order, _, rows = explore([nba.initial], successors)
    color = [2 if q in nba.accepting else 1 for q in order]
    return _minimize(nba.props, rows, color, 0)


def _minimize(props, rows: list, color: list, initial: int) -> DPA:
    """The parity automaton with successor rows and colors, made small.

    The Moore quotient comes first.  Then every state gets its least
    priority (``graphs.least_priorities``), which keeps the parity of
    every cycle and so the language.  When that gives one color to
    states that had different ones, the quotient can merge more, so it
    runs again and the new automaton is recolored, until the number of
    states stays the same.  Otherwise two states the quotient kept apart
    still differ in color somewhere on every word that told them apart,
    and nothing more can merge.  No step adds a state or a color.
    """
    rows, color, initial = _quotient(rows, color, initial)
    while True:
        least = least_priorities(rows, color)
        coarser = len(set(least)) < len(set(zip(least, color)))
        color = least
        if not coarser:
            break
        n_states = len(rows)
        rows, color, initial = _quotient(rows, color, initial)
        if len(rows) == n_states:
            break
    return DPA(props, len(rows), initial, tuple(rows), tuple(color))


def dpa_with_changes(d: DPA, prop: str) -> DPA:
    """The words of d on which prop changes its value infinitely often.

    A state (q, bit, top, emit) holds d's state, prop in the last letter
    (false at the start; one more change does not matter), d's top color
    since the last change, and its own color: a change of prop emits
    top + 2 and restarts top, any other letter emits 1.  The top color
    emitted infinitely often is d's plus 2, or 1 if prop settles.
    """
    mask = 1 << d.props.index(prop)

    def successors(node):
        q, bit, top, _ = node
        for a, t in enumerate(d.delta[q]):
            b = a & mask
            c = d.color[t]
            yield (t, b, max(top, c), 1) if b == bit else (t, b, c, top + 2)

    order, _, rows = explore([(d.initial, 0, d.color[d.initial], 1)], successors)
    return _minimize(d.props, rows, [node[3] for node in order], 0)


def _quotient(rows: list, color, initial: int):
    """Moore partition refinement of a parity automaton given by its
    successor rows (one target per letter) and colors.

    Start from the partition by color and split blocks by the blocks of
    their successors under each letter until nothing splits.  Merged
    states see the same colors on every word, so the quotient accepts
    the same language; it stays complete and deterministic.  Returns
    (rows, color, initial) of the quotient, with blocks numbered
    breadth-first from the initial one, or the arguments themselves when
    nothing merges.
    """
    n_states = len(rows)
    by_color = {c: i for i, c in enumerate(sorted(set(color)))}
    if len(by_color) == n_states:
        return rows, color, initial
    block = [by_color[c] for c in color]
    n_blocks = len(by_color)
    while True:
        sigs: dict = {}
        refined = [
            sigs.setdefault((block[q], *[block[t] for t in row]), len(sigs))
            for q, row in enumerate(rows)
        ]
        if len(sigs) == n_states:
            return rows, color, initial
        if len(sigs) == n_blocks:
            break
        block, n_blocks = refined, len(sigs)
    member: dict = {}
    for q in range(n_states):
        member.setdefault(block[q], q)
    order, _, merged = explore(
        [block[initial]], lambda b: [block[t] for t in rows[member[b]]]
    )
    return merged, [color[member[b]] for b in order], 0


def dpa_accepts_lasso(d: DPA, trace: LassoTrace) -> bool:
    """Run the automaton on the lasso; decide by the cycle's top color.
    ``explore`` numbers the run's (state, position) nodes as they are
    met, so the last node's successor closes the cycle."""
    word = lasso_word(d.props, trace)
    order, _, rows = explore(
        [(d.initial, 0)],
        lambda node: [(d.delta[node[0]][word[node[1]]], trace.canonical_index(node[1] + 1))],
    )
    top = max(d.color[q] for q, _ in order[rows[-1][0]:])
    return top % 2 == 0


# -- compilation pipelines -------------------------------------------------


def rldl_to_nba(phi: Formula, beta: TruthValue4, props=None) -> NBA:
    from .apa import from_rldl

    return apa_to_nba(from_rldl(phi, beta, props))


def rldl_to_dpa(phi: Formula, beta: TruthValue4, props=None) -> DPA:
    return nba_to_dpa(rldl_to_nba(phi, beta, props))


def ldl_to_dpa(phi: Formula, props=None) -> DPA:
    """Classical dynamic-logic formula to a parity automaton.

    Classical truth agrees with the first bit of the embedded five-valued
    formula, so compiling the embedding at the top threshold is exact.
    """
    from .translate import embed_ldl_in_rldl

    require_logic(phi, LogicId.LDL)
    return rldl_to_dpa(embed_ldl_in_rldl(phi), TOP, props)
