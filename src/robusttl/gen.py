"""Seeded random generation of formulas, traces, systems, and games.

Everything takes an explicit random.Random so runs are reproducible from
a single seed; the fuzz CLI and the differential test suites build on it.
"""

from __future__ import annotations

import random

from .formulas import (
    And,
    Alt,
    Always,
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
    _SURFACE,
)
from .games import LabeledGameGraph, ParityGame
from .modelcheck import TransitionSystem
from .traces import LassoTrace


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_letter(rng: random.Random, props) -> frozenset:
    return frozenset(p for p in props if rng.random() < 0.5)


def random_lasso(
    rng: random.Random, props, max_prefix: int = 3, max_loop: int = 3
) -> LassoTrace:
    prefix = tuple(
        random_letter(rng, props) for _ in range(rng.randint(0, max_prefix))
    )
    loop = tuple(
        random_letter(rng, props) for _ in range(rng.randint(1, max_loop))
    )
    return LassoTrace(prefix, loop)


def _random_prop_formula(rng: random.Random, props, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.6:
        roll = rng.random()
        if roll < 0.05:
            return Tt()
        if roll < 0.1:
            return Ff()
        if roll < 0.6:
            return Atom(rng.choice(props))
        return NegAtom(rng.choice(props))
    ctor = rng.choice((And, Or, Not))
    if ctor is Not:
        return Not(_random_prop_formula(rng, props, depth - 1))
    return ctor(
        _random_prop_formula(rng, props, depth - 1),
        _random_prop_formula(rng, props, depth - 1),
    )


def random_guard(
    rng: random.Random,
    props,
    budget: int,
    logic: LogicId = LogicId.RLDL,
    allow_tests: bool = True,
) -> Guard:
    if budget <= 1:
        if allow_tests and rng.random() < 0.2:
            return Test(random_formula(rng, logic, 2, props))
        return Prop(_random_prop_formula(rng, props, 1))
    roll = rng.random()
    if roll < 0.3:
        return Star(random_guard(rng, props, budget - 1, logic, allow_tests))
    if roll < 0.6:
        split = rng.randint(1, budget - 1)
        return Concat(
            random_guard(rng, props, split, logic, allow_tests),
            random_guard(rng, props, budget - split, logic, allow_tests),
        )
    if roll < 0.8:
        split = rng.randint(1, budget - 1)
        return Alt(
            random_guard(rng, props, split, logic, allow_tests),
            random_guard(rng, props, budget - split, logic, allow_tests),
        )
    return random_guard(rng, props, 1, logic, allow_tests)


def random_formula(
    rng: random.Random, logic: LogicId, budget: int, props, allow_tests: bool = True
) -> Formula:
    """A random formula admissible in the given logic, of bounded size;
    its guards are test-free unless allow_tests."""
    surface = _SURFACE[logic]
    if budget <= 1:
        return _random_prop_formula(rng, props, 0)
    unary = [c for c in (Not, Next, Eventually, Always, PromptEventually) if c in surface]
    binary = [c for c in (And, Or, Implies, Until, Release) if c in surface]
    guarded = [c for c in (Diamond, Box, PromptDiamond) if c in surface]
    choices: list = []
    choices.extend(("u", c) for c in unary)
    choices.extend(("b", c) for c in binary)
    choices.extend(("g", c) for c in guarded for _ in range(2))
    kind, ctor = rng.choice(choices)
    if kind == "u":
        return ctor(random_formula(rng, logic, budget - 1, props, allow_tests))
    if kind == "b":
        split = rng.randint(1, budget - 1)
        return ctor(
            random_formula(rng, logic, split, props, allow_tests),
            random_formula(rng, logic, budget - split, props, allow_tests),
        )
    g_budget = max(1, (budget - 1) // 2)
    guard = random_guard(rng, props, g_budget, logic, allow_tests)
    return ctor(
        guard, random_formula(rng, logic, budget - 1 - g_budget, props, allow_tests)
    )


def random_parity_game(
    rng: random.Random, n_vertices: int, max_color: int
) -> ParityGame:
    vertices = tuple(range(n_vertices))
    owner = {v: rng.randint(0, 1) for v in vertices}
    color = {v: rng.randint(0, max_color) for v in vertices}
    edges = {}
    for v in vertices:
        degree = rng.randint(1, n_vertices)
        edges[v] = tuple(sorted(rng.sample(vertices, degree)))
    return ParityGame(vertices, owner, edges, color)


def random_system(rng: random.Random, n_states: int, props) -> TransitionSystem:
    states = tuple(f"s{i}" for i in range(n_states))
    labels = {s: random_letter(rng, props) for s in states}
    edges = {}
    for i, s in enumerate(states):
        # Guarantee total transitions and reachability along the chain.
        succs = {states[(i + 1) % n_states]}
        for t in states:
            if rng.random() < 0.3:
                succs.add(t)
        edges[s] = tuple(sorted(succs))
    return TransitionSystem(states, states[0], edges, labels)


def random_labeled_game(
    rng: random.Random, n_vertices: int, props
) -> LabeledGameGraph:
    vertices = tuple(f"v{i}" for i in range(n_vertices))
    owner = {v: rng.randint(0, 1) for v in vertices}
    labels = {v: random_letter(rng, props) for v in vertices}
    edges = {}
    for i, v in enumerate(vertices):
        succs = {vertices[(i + 1) % n_vertices]}
        for t in vertices:
            if rng.random() < 0.3:
                succs.add(t)
        edges[v] = tuple(sorted(succs))
    return LabeledGameGraph(vertices, owner, edges, labels)
