"""Guard automata: nondeterministic automata with tests for guard matching.

The Thompson construction yields one automaton per guard with a linear
number of states; tests sit on states and constrain runs passing through
them.  ``guard_steps`` reads the automaton letter by letter through its
epsilon paths, tests included; that one table feeds the alternating
automaton compiler and, for test-free guards, subset determinization,
which regex extraction by state elimination and the limit-matching check
build on.

Every automaton of the package reads letters as ints: over the sorted
propositions P, letter a holds the i-th proposition iff bit i of a is
set, so a is also the position of its set in ``all_letters(P)``.
``letter_of`` numbers a set of propositions, and is the one place where
labels are projected onto an automaton's propositions.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .formulas import (
    Alt,
    And,
    Atom,
    Concat,
    EPSILON_GUARD,
    Ff,
    Formula,
    Guard,
    NegAtom,
    Or,
    Prop,
    Star,
    Test,
    Tt,
    format_formula,
    guard_tests,
    propositions,
)
from .graphs import explore, sccs


class HasTestsError(ValueError):
    """Raised when a test-free guard is required but tests are present."""


def prop_holds(letter: frozenset[str], phi: Formula) -> bool:
    """Evaluate a propositional formula on a single letter."""
    from .formulas import Implies, Not

    if isinstance(phi, Tt):
        return True
    if isinstance(phi, Ff):
        return False
    if isinstance(phi, Atom):
        return phi.name in letter
    if isinstance(phi, NegAtom):
        return phi.name not in letter
    if isinstance(phi, Not):
        return not prop_holds(letter, phi.arg)
    if isinstance(phi, And):
        return prop_holds(letter, phi.left) and prop_holds(letter, phi.right)
    if isinstance(phi, Or):
        return prop_holds(letter, phi.left) or prop_holds(letter, phi.right)
    if isinstance(phi, Implies):
        return (not prop_holds(letter, phi.left)) or prop_holds(letter, phi.right)
    msg = f"not a propositional formula: {phi!r}"
    raise TypeError(msg)


def all_letters(props) -> tuple[frozenset[str], ...]:
    """The full alphabet 2^P, letter a at position a.

    Every automaton layer asks for the alphabet of its propositions, so
    the last few alphabets are kept."""
    return _alphabet(tuple(sorted(props)))


def letter_of(props: tuple[str, ...], labels) -> int:
    """The number of the letter of labels over the sorted props; labels
    outside props are dropped."""
    letter = 0
    for i, p in enumerate(props):
        if p in labels:
            letter |= 1 << i
    return letter


@functools.lru_cache(maxsize=16)
def _alphabet(names: tuple) -> tuple[frozenset[str], ...]:
    return tuple(
        frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
        for mask in range(1 << len(names))
    )


@dataclass(frozen=True)
class GuardNFA:
    """Thompson-style automaton; tests label states, finals are terminal."""

    n_states: int
    initial: int
    finals: frozenset[int]
    eps: tuple[tuple[int, ...], ...]
    letters: tuple[tuple[tuple[Formula, int], ...], ...]
    tests: dict[int, Formula]


class _Builder:
    def __init__(self) -> None:
        self.eps: list[list[int]] = []
        self.letters: list[list[tuple[Formula, int]]] = []
        self.tests: dict[int, Formula] = {}

    def new_state(self) -> int:
        self.eps.append([])
        self.letters.append([])
        return len(self.eps) - 1

    def build(self, root: Guard) -> tuple[int, int]:
        """The initial and final state of root's fragment.

        Fragments are built bottom-up with an explicit stack, so deep
        guards do not reach the recursion limit.  A node numbers its own
        states after those of its left part and then its right part.
        Every occurrence of a shared node gets states of its own.
        """
        frags: list[tuple[int, int]] = []  # the fragments of finished parts
        stack: list[tuple[Guard, bool]] = [(root, False)]
        while stack:
            guard, ready = stack.pop()
            kind = type(guard)
            if not ready and kind in (Alt, Concat, Star):
                stack.append((guard, True))
                parts = (guard.arg,) if kind is Star else (guard.right, guard.left)
                stack.extend((part, False) for part in parts)
                continue
            if kind is Concat:
                (i0, f0), (i1, f1) = frags.pop(-2), frags.pop()
                self.eps[f0].append(i1)
                frags.append((i0, f1))
                continue
            s, t = self.new_state(), self.new_state()
            if kind is Prop:
                self.letters[s].append((guard.formula, t))
            elif kind is Test:
                self.tests[s] = guard.formula
                self.eps[s].append(t)
            elif kind is Alt:
                (i0, f0), (i1, f1) = frags.pop(-2), frags.pop()
                self.eps[s].extend((i0, i1))
                self.eps[f0].append(t)
                self.eps[f1].append(t)
            elif kind is Star:
                i0, f0 = frags.pop()
                self.eps[s].extend((i0, t))
                self.eps[f0].extend((i0, t))
            else:
                msg = f"unknown guard node {guard!r}"
                raise TypeError(msg)
            frags.append((s, t))
        return frags.pop()


def thompson(guard: Guard) -> GuardNFA:
    """Compile a guard into an automaton with at most two states per node."""
    builder = _Builder()
    initial, final = builder.build(guard)
    return GuardNFA(
        n_states=len(builder.eps),
        initial=initial,
        finals=frozenset({final}),
        eps=tuple(tuple(targets) for targets in builder.eps),
        letters=tuple(tuple(edges) for edges in builder.letters),
        tests=dict(builder.tests),
    )


def simple_eps_closure(nfa: GuardNFA, state: int) -> list[tuple[int, frozenset[Formula]]]:
    """States reachable by epsilon paths with their minimal test sets.

    A pair (q, T) means q is reachable from the given state along an
    epsilon path whose visited states carry exactly the tests in T; only
    minimal sets are kept (paths through extra cycles only add tests).
    """
    start_tests = frozenset(
        {nfa.tests[state]} if state in nfa.tests else set()
    )
    families: dict[int, set[frozenset[Formula]]] = {state: {start_tests}}
    work = [(state, start_tests)]
    while work:
        q, tests = work.pop()
        for succ in nfa.eps[q]:
            extra = nfa.tests.get(succ)
            new_tests = tests | {extra} if extra is not None else tests
            family = families.setdefault(succ, set())
            if any(old <= new_tests for old in family):
                continue
            for old in [old for old in family if new_tests < old]:
                family.discard(old)
            family.add(new_tests)
            work.append((succ, new_tests))
    out: list[tuple[int, frozenset[Formula]]] = []
    for q in sorted(families):
        for tests in sorted(families[q], key=lambda s: sorted(map(str, s))):
            out.append((q, tests))
    return out


@functools.lru_cache(maxsize=16)
def guard_steps(guard: Guard, props: tuple[str, ...]) -> tuple[int, tuple]:
    """The guard automaton's initial state and its steps, over the sorted
    props; the one per-letter table of a guard.

    ``steps[q][a]`` lists, for the epsilon paths from q followed by
    letter a, pairs (target, tests): the state after the letter, or None
    where the path ends the match before the letter, with the path's
    tests sorted by their printed form.  Paths come in closure order, and
    a match end before the letter targets of its closure state.  The
    compiler asks for the table of the same guard many times, so the
    last few tables are kept.
    """
    nfa = thompson(guard)
    alphabet = all_letters(props)
    steps = []
    for q in range(nfa.n_states):
        paths = [
            (q2, tuple(sorted(tests, key=format_formula)))
            for q2, tests in simple_eps_closure(nfa, q)
        ]
        per_letter = []
        for letter in alphabet:
            out = []
            for q2, tests in paths:
                if q2 in nfa.finals:
                    out.append((None, tests))
                out.extend(
                    (q3, tests) for f, q3 in nfa.letters[q2] if prop_holds(letter, f)
                )
            per_letter.append(tuple(out))
        steps.append(tuple(per_letter))
    return nfa.initial, tuple(steps)


@dataclass(frozen=True)
class GuardDFA:
    """Complete deterministic automaton over the alphabet 2^props; the
    successor of q on letter a is transitions[q][a]."""

    n_states: int
    initial: int
    finals: frozenset[int]
    props: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]


def dfa_product(d1: GuardDFA, d2: GuardDFA) -> GuardDFA:
    """Intersection of two complete automata over the same propositions."""
    if d1.props != d2.props:
        msg = f"propositions differ: {d1.props} vs {d2.props}"
        raise ValueError(msg)
    order, _, rows = explore(
        [(d1.initial, d2.initial)],
        lambda node: zip(d1.transitions[node[0]], d2.transitions[node[1]]),
    )
    finals = frozenset(
        i
        for i, (q1, q2) in enumerate(order)
        if q1 in d1.finals and q2 in d2.finals
    )
    return GuardDFA(
        n_states=len(order),
        initial=0,
        finals=finals,
        props=d1.props,
        transitions=tuple(rows),
    )


def determinize(guard: Guard, props) -> GuardDFA:
    """Subset construction for a test-free guard over its step table.

    A subset's successor on a letter holds its states' targets.  A
    subset is final when one of its states can end a match, which does
    not depend on the letter.
    """
    if guard_tests(guard):
        msg = "guard contains tests"
        raise HasTestsError(msg)
    props = tuple(sorted(props))
    initial, steps = guard_steps(guard, props)
    letters = range(1 << len(props))

    def successors(subset):
        for a in letters:
            yield frozenset(t for q in subset for t, _ in steps[q][a] if t is not None)

    order, _, rows = explore([frozenset({initial})], successors)
    finals = frozenset(
        i for i, s in enumerate(order) if any(t is None for q in s for t, _ in steps[q][0])
    )
    return GuardDFA(
        n_states=len(order),
        initial=0,
        finals=finals,
        props=props,
        transitions=tuple(rows),
    )


def _letter_formula(letter: int, props) -> Formula:
    """The conjunction of literals pinning one letter exactly."""
    terms: list[Formula] = []
    for i, p in enumerate(props):
        terms.append(Atom(p) if letter >> i & 1 else NegAtom(p))
    if not terms:
        return Tt()
    out = terms[0]
    for term in terms[1:]:
        out = And(out, term)
    return out


def _galt(a: Guard | None, b: Guard | None) -> Guard | None:
    if a is None:
        return b
    if b is None:
        return a
    if a == b:
        return a
    return Alt(a, b)


def _gconcat(a: Guard | None, b: Guard | None) -> Guard | None:
    if a is None or b is None:
        return None
    if a == EPSILON_GUARD:
        return b
    if b == EPSILON_GUARD:
        return a
    return Concat(a, b)


def _gstar(a: Guard | None) -> Guard:
    if a is None or a == EPSILON_GUARD:
        return EPSILON_GUARD
    if isinstance(a, Star):
        return a
    return Star(a)


def extract_regex(dfa: GuardDFA, source: int, targets) -> Guard:
    """Language of paths from source to any target, by state elimination."""
    targets = frozenset(targets)
    alphabet = all_letters(dfa.props)
    start, end = dfa.n_states, dfa.n_states + 1
    edges: dict[tuple[int, int], Guard | None] = {}

    def add(i: int, j: int, guard: Guard | None) -> None:
        if guard is None:
            return
        edges[(i, j)] = _galt(edges.get((i, j)), guard)

    by_pair: dict[tuple[int, int], list[int]] = {}
    for q, row in enumerate(dfa.transitions):
        for letter, q2 in enumerate(row):
            by_pair.setdefault((q, q2), []).append(letter)
    for (q, q2), letters in sorted(
        by_pair.items(), key=lambda item: item[0]
    ):
        if len(letters) == len(alphabet):
            add(q, q2, Prop(Tt()))
            continue
        formula: Formula | None = None
        for letter in sorted(letters, key=lambda a: sorted(alphabet[a])):
            term = _letter_formula(letter, dfa.props)
            formula = term if formula is None else Or(formula, term)
        add(q, q2, Prop(formula))
    add(start, source, EPSILON_GUARD)
    for t in sorted(targets):
        add(t, end, EPSILON_GUARD)

    remaining = list(range(dfa.n_states))
    # Eliminate low-degree states first to keep the output small.
    while remaining:
        remaining.sort(
            key=lambda s: sum(1 for (i, j) in edges if i == s or j == s)
        )
        s = remaining.pop(0)
        loop = _gstar(edges.pop((s, s), None))
        incoming = [(i, g) for (i, j), g in edges.items() if j == s]
        outgoing = [(j, g) for (i, j), g in edges.items() if i == s]
        for i, j in [key for key in edges if s in key]:
            del edges[(i, j)]
        for (i, g_in), (j, g_out) in itertools.product(incoming, outgoing):
            add(i, j, _gconcat(_gconcat(g_in, loop), g_out))
    result = edges.get((start, end))
    if result is None:
        return Prop(Ff())
    return result


def is_limit_matching(guard: Guard) -> bool:
    """True when every trace has infinitely many prefixes matching the guard.

    Decided on the determinized guard automaton read with Buechi
    acceptance on its final states: the guard is limit-matching exactly
    when no cycle avoids the final states, that is when every component
    of the non-final states is one state without a self-loop.  Every
    state of the automaton is reachable.  A guard with tests raises
    ``HasTestsError``.
    """
    dfa = determinize(guard, propositions(guard))
    succ = {
        q: set(row) - dfa.finals
        for q, row in enumerate(dfa.transitions)
        if q not in dfa.finals
    }
    return all(
        len(comp) == 1 and comp[0] not in succ[comp[0]]
        for comp in sccs(succ, succ.__getitem__)
    )
