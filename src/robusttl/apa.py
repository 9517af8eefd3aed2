"""Alternating parity automata over alphabets 2^P.

Transitions map (state, letter) to positive Boolean formulas over
states; a letter is the bitmask of its propositions (see ``guards``).
Each formula is held as the antichain of its minimal models (De Wulf,
Doyen, Henzinger and Raskin, "Antichains", CAV 2006): a sorted tuple of
int bitmasks over states, none a subset of another, so that () is
false and (0,) is true.  Conjunction, disjunction and dual work on that
form directly, and dealternation and lasso membership read it as it
stands.  Acceptance is max parity on the colors seen along every path
of a run.  The compiler from five-valued dynamic-logic formulas builds,
for each threshold, an automaton recognizing the traces whose value is
at least that threshold.  All compiled automata are weak: every
strongly connected component of the state graph carries a single color.

The compiler works on demand (the on-the-fly principle of Gerth, Peled,
Vardi and Wolper): ``OnDemandAPA`` computes a transition only when it is
asked for.  ``from_rldl`` asks for every letter of every state that a
breadth-first walk from the initial state reaches; model checking asks
only for what its product with the system reaches.  Apart from the
initial state, a state is a key naming a guard-automaton state of a
guard block, and the complement of a state is the key's dual, so no
state is copied and none is built that the walk does not reach.
"""
from __future__ import annotations

from dataclasses import dataclass

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
from .graphs import explore, sccs
from .guards import all_letters, guard_steps, letter_of
from .traces import LassoTrace
from .truth import ALL_VALUES, BOTTOM, TOP, V0001, V0011, V0111, TruthValue4


class AlphabetMismatchError(ValueError):
    """Raised when propositions fall outside an automaton's alphabet."""


def lasso_word(props: tuple[str, ...], trace: LassoTrace) -> list[int]:
    """The letter numbers over props of the lasso's canonical positions;
    AlphabetMismatchError if the trace uses another proposition."""
    if not trace.propositions <= set(props):
        msg = "trace uses propositions outside the automaton alphabet"
        raise AlphabetMismatchError(msg)
    return [letter_of(props, trace.letter_at(i)) for i in range(trace.positions)]


def bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _minimal(masks) -> list:
    """The subset-minimal masks among masks (a set or duplicate-free)."""
    if len(masks) < 2:
        return list(masks)
    kept: list = []
    for x in sorted(masks, key=int.bit_count):
        if all(y & x != y for y in kept):
            kept.append(x)
    return kept


def extend(partial: list, options) -> list:
    """The subset-minimal unions of one partial mask and one option."""
    if len(options) == 1:
        (m,) = options
        if not m:
            return partial
        if len(partial) == 1:
            return [partial[0] | m]
    return _minimal({p | m for p in partial for m in options})


def models_and(parts) -> tuple[int, ...]:
    """Conjunction: pairwise unions, minimized; stops at a false part."""
    models = [0]
    for part in parts:
        if not part:
            return ()
        models = extend(models, part)
    return tuple(sorted(models))


def models_or(parts) -> tuple[int, ...]:
    """Disjunction: the union, minimized; stops at a true part."""
    union: set = set()
    for part in parts:
        if part and not part[0]:
            return (0,)
        union.update(part)
    return tuple(sorted(_minimal(union)))


def models_dual(models, rename=None) -> tuple[int, ...]:
    """Dual: the minimal hitting sets, with states renamed when given."""
    if rename is not None:
        models = sorted(sum(1 << rename(b) for b in bits(m)) for m in models)
    return tuple(sorted(_hitting_sets(tuple(models), {})))


def _hitting_sets(edges: tuple, memo: dict) -> list:
    """The minimal hitting sets of a sorted antichain of masks.

    A mask of one state puts that state in every hitting set.  Otherwise
    the state x in most masks splits them: the sets without x hit the
    masks with x removed, the sets with x hit the masks that lack it, and
    such a set is minimal unless it contains one without x.  Shared
    subproblems are solved once.  Folding the masks one by one (Berge)
    is simpler, but its partial results can grow far beyond the answer.
    """
    if not edges:
        return [0]
    if not edges[0]:
        return []
    found = memo.get(edges)
    if found is None:
        units = 0
        for e in edges:
            if not e & (e - 1):
                units |= e
        if units:
            rest = tuple(e for e in edges if not e & units)
            found = [t | units for t in _hitting_sets(rest, memo)]
        else:
            count: dict = {}
            for e in edges:
                for b in bits(e):
                    count[b] = count.get(b, 0) + 1
            x = 1 << max(count, key=count.get)
            without = _hitting_sets(tuple(sorted(_minimal({e & ~x for e in edges}))), memo)
            with_x = _hitting_sets(tuple(e for e in edges if not e & x), memo)
            found = without + [
                t | x for t in with_x if all(s & t != s for s in without)
            ]
        memo[edges] = found
    return found


@dataclass(frozen=True)
class APA:
    """Alternating max-parity automaton over the alphabet 2^props."""

    props: tuple[str, ...]
    n_states: int
    initial: int
    delta: dict  # (state, letter number) -> minimal models
    color: tuple[int, ...]


def apa_complement(a: APA) -> APA:
    """Dualize transitions and shift colors by one."""
    delta = {key: models_dual(models) for key, models in a.delta.items()}
    color = tuple(c + 1 for c in a.color)
    return APA(a.props, a.n_states, a.initial, delta, color)


def apa_accepts_lasso(a: APA, trace: LassoTrace) -> bool:
    """Membership via the acceptance parity game on the lasso."""
    from .games import ParityGame, solve_parity

    word = lasso_word(a.props, trace)
    # Player 0 picks a model of a state's transition, player 1 a state of
    # the model.  The empty model accepts and no model rejects: sinks of
    # color 0 and 1.
    reject = ("rej", 0, 0)

    def successors(node):
        kind, x, cls = node
        if kind == "s":
            nxt = trace.canonical_index(cls + 1)
            return [("m", m, nxt) for m in a.delta[(x, word[cls])]] or [reject]
        return [("s", q, cls) for q in bits(x)] if x else [node]

    order, _, edges = explore([("s", a.initial, 0)], successors)
    owner = [int(kind == "m") for kind, _, _ in order]
    color = [a.color[x] if kind == "s" else int(kind == "rej") for kind, x, _ in order]
    win0, _, _, _ = solve_parity(ParityGame.numbered(owner, edges, color))
    return 0 in win0


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
_TRUE = (0,)
_FALSE = ()


def _dual(key: tuple) -> tuple:
    return key[1] if key[0] == "dual" else ("dual", key)


class OnDemandAPA:
    """The automaton of phi at beta over props, built as it is asked for.

    Its face is ``props``, ``initial``, ``delta(q, letter)`` (the minimal
    models of a transition), ``color(q)`` and ``dual(q)``.  States are
    keys (see _KIND_COLOR), numbered in the order they are first
    mentioned.  A transition is computed when asked for, once per
    (state, letter); the transition of a formula is computed once per
    (formula, threshold, letter, dual) and inlined wherever the formula
    occurs.  Conjunctions and disjunctions take their parts from
    generators, so the parts after a deciding one are never built.

    The complement is the same automaton rooted at ``dual(initial)``: a
    dual state's transition is the dual of its key's, so only the duals
    that are asked for are computed.  A dual is one color above its key,
    so the dual of a dual state sits one color below the complement's
    coloring; the parity, all that dealternation reads, is the same.
    """

    def __init__(self, phi: Formula, beta: TruthValue4, props=None):
        require_logic(phi, LogicId.RLDL)
        names = set(propositions(phi))
        if props is not None:
            extra = set(props)
            if not names <= extra:
                msg = "props must cover the propositions of the formula"
                raise AlphabetMismatchError(msg)
            names = extra
        self.props = tuple(sorted(names))
        self._letters = all_letters(self.props)
        self._keys: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        self._duals: dict[int, int] = {}
        self._deltas: dict[tuple[int, int], tuple[int, ...]] = {}
        self._formula_deltas: dict = {}
        self.initial = self._id_of(self._root(phi, beta))

    def _id_of(self, key: tuple) -> int:
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return i

    def dual(self, i: int) -> int:
        """The state that accepts what state i rejects."""
        d = self._duals.get(i)
        if d is None:
            d = self._id_of(_dual(self._keys[i]))
            self._duals[i] = d
            self._duals[d] = i
        return d

    def color(self, i: int) -> int:
        key = self._keys[i]
        if key[0] == "dual":
            return _KIND_COLOR[key[1][0]] + 1
        return _KIND_COLOR[key[0]]

    def _root(self, phi: Formula, beta: TruthValue4) -> tuple:
        """Key of the initial state of phi at beta."""
        if beta != BOTTOM:
            if isinstance(phi, Not):
                return _dual(self._root(phi.arg, TOP))
            if isinstance(phi, Diamond):
                initial = guard_steps(phi.guard, self.props)[0]
                return ("ex", phi.guard, phi.arg, beta, False, initial)
        return ("formula", phi, beta)

    # -- transitions -----------------------------------------------------

    def delta(self, i: int, li: int) -> tuple[int, ...]:
        """Minimal models of state i's transition on letter li."""
        models = self._deltas.get((i, li))
        if models is None:
            key = self._keys[i]
            kind = key[0]
            if kind == "dual":
                models = models_dual(self.delta(self.dual(i), li), self.dual)
            elif kind == "formula":
                models = self._formula_delta(key[1], key[2], li)
            else:
                models = self._block_delta(key, li)
            self._deltas[(i, li)] = models
        return models

    def _formula_delta(
        self, phi: Formula, beta: TruthValue4, li: int, dual: bool = False
    ) -> tuple[int, ...]:
        """Transition of phi at beta (of its complement when dual)."""
        memo = (phi, beta, li, dual)
        models = self._formula_deltas.get(memo)
        if models is None:
            if dual:
                models = models_dual(self._formula_delta(phi, beta, li), self.dual)
            else:
                models = self._compile(phi, beta, li)
            self._formula_deltas[memo] = models
        return models

    def _compile(self, phi: Formula, beta: TruthValue4, li: int) -> tuple[int, ...]:
        if beta == BOTTOM or isinstance(phi, Tt):
            return _TRUE
        if isinstance(phi, Ff):
            return _FALSE
        if isinstance(phi, (Atom, NegAtom)):
            holds = (phi.name in self._letters[li]) != isinstance(phi, NegAtom)
            return _TRUE if holds else _FALSE
        if isinstance(phi, Not):
            return self._formula_delta(phi.arg, TOP, li, dual=True)
        if isinstance(phi, (And, Or)):
            smash = models_and if isinstance(phi, And) else models_or
            return smash(self._formula_delta(f, beta, li) for f in (phi.left, phi.right))
        if isinstance(phi, Implies):
            return models_or(self._implies(phi.left, phi.right, beta, li))
        if isinstance(phi, Diamond):
            return self._initial_delta("ex", phi.guard, phi.arg, beta, False, li)
        if isinstance(phi, Box):
            return models_or(self._box(phi.guard, phi.arg, beta, li))
        msg = f"cannot compile {format_formula(phi)}"
        raise ValueError(msg)

    def _implies(self, left: Formula, right: Formula, beta: TruthValue4, li: int):
        """Disjuncts of l -> r: the value is top when V(l) <= V(r), else V(r).

        At threshold beta this is: some gamma with V(l) = gamma and
        V(r) >= gamma, or V(r) >= beta.  The last disjunct comes first:
        when it is true, the duals of l, which can have many more models
        than l, are never computed.
        """

        def same_level(idx: int, gamma: TruthValue4):
            if gamma != BOTTOM:
                yield self._formula_delta(left, gamma, li)
            if idx + 1 < len(ALL_VALUES):
                yield self._formula_delta(left, ALL_VALUES[idx + 1], li, dual=True)
            if gamma != BOTTOM:
                yield self._formula_delta(right, gamma, li)

        yield self._formula_delta(right, beta, li)
        for idx, gamma in enumerate(ALL_VALUES):
            yield models_and(same_level(idx, gamma))

    def _box(self, guard: Guard, arg: Formula, beta: TruthValue4, li: int):
        """Disjuncts of [guard] arg at beta, one per row of _BOX_ROWS."""
        for bit, deg, disjuncts in _BOX_ROWS:
            if bit > beta.bit_index:
                break
            for conjuncts in disjuncts:
                yield models_and(
                    self._initial_delta(
                        kind, guard, _TT if on_tt else arg, deg, refuted, li, dual
                    )
                    for kind, on_tt, refuted, dual in conjuncts
                )

    def _initial_delta(
        self, kind, guard, arg, deg, refuted, li, dual=False
    ) -> tuple[int, ...]:
        i = self._id_of((kind, guard, arg, deg, refuted, guard_steps(guard, self.props)[0]))
        return self.delta(self.dual(i) if dual else i, li)

    def _block_delta(self, key: tuple, li: int) -> tuple[int, ...]:
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
        paths = guard_steps(guard, self.props)[1][q][li]

        def parts(target, tests):
            for theta in tests:
                yield self._formula_delta(theta, deg, li, dual=kind == "all")
            if target is None:
                yield self._formula_delta(arg, deg, li, dual=refuted)
            else:
                yield (1 << self._id_of((kind, guard, arg, deg, refuted, target)),)
                if kind == "main":
                    yield (1 << self._id_of(("check", guard, arg, deg, refuted, target)),)

        if kind == "all":
            return models_and(models_or(parts(*path)) for path in paths)
        if kind == "main":
            paths = [path for path in paths if path[0] is not None]
        return models_or(models_and(parts(*path)) for path in paths)


def from_rldl(
    phi: Formula,
    beta: TruthValue4,
    props=None,
) -> APA:
    """Compile a five-valued dynamic-logic formula at a threshold.

    The automaton accepts exactly the lassos (and, by construction over
    all ultimately periodic words, the omega-words) on which the formula
    evaluates to at least beta.  The result is weak.

    Only states reachable from the initial state through minimal models
    are built.  They are numbered breadth-first: the initial state is 0,
    and the states of each transition's models, letter by letter and in
    provisional order, get the next free numbers.
    """
    auto = OnDemandAPA(phi, beta, props)
    letters = range(1 << len(auto.props))

    def successors(i):
        for li in letters:
            union = 0
            for m in auto.delta(i, li):
                union |= m
            yield from bits(union)

    order, number, _ = explore([auto.initial], successors)
    delta = {
        (q, li): tuple(sorted(
            [sum(1 << number[t] for t in bits(m)) for m in auto.delta(i, li)]
        ))
        for q, i in enumerate(order)
        for li in letters
    }
    color = tuple(auto.color(i) for i in order)
    return APA(auto.props, len(order), 0, delta, color)


def weak_components(a: APA):
    """SCCs of the state graph with their color sets, topological order."""
    graph = [0] * a.n_states
    for (q, _letter), models in a.delta.items():
        for m in models:
            graph[q] |= m
    components = sccs(range(a.n_states), lambda q: bits(graph[q]))
    return [tuple(sorted(comp)) for comp in reversed(components)]


def is_weak(a: APA) -> bool:
    """Every strongly connected component carries one color."""
    for comp in weak_components(a):
        if len({a.color[q] for q in comp}) > 1:
            return False
    return True
