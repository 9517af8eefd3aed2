"""Infinite-duration games: parity solving, reductions, strategies.

solve_parity is a Zielonka solver returning winning regions and
positional strategies for both players.  Labeled game graphs reduce to
parity games through a deterministic parity automaton for the objective;
winning strategies come back as finite-state Mealy machines whose memory
is the automaton state.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula, LogicId, propositions, require_logic
from .traces import LassoTrace
from .truth import TruthValue4


class TerminalVertexError(ValueError):
    """Raised when a game vertex has no outgoing edge."""


@dataclass(frozen=True)
class ParityGame:
    """Max-parity game; every vertex must have a successor."""

    vertices: tuple
    owner: dict
    edges: dict
    color: dict

    def validate(self) -> None:
        for v in self.vertices:
            if not self.edges.get(v):
                msg = f"vertex {v!r} has no outgoing edge"
                raise TerminalVertexError(msg)


def solve_parity(game: ParityGame):
    """Winning regions and positional strategies for both players.

    Returns (win0, win1, strategy0, strategy1); strategyX maps the
    vertices of player X inside X's winning region to a chosen successor.
    """
    game.validate()
    region = set(game.vertices)
    win0, win1, strat0, strat1 = _zielonka(game, region)
    return frozenset(win0), frozenset(win1), strat0, strat1


def _attractor(game: ParityGame, region: set, target: set, player: int):
    """Player's attractor to target within region, with attraction moves."""
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


def _zielonka(game: ParityGame, region: set):
    if not region:
        return set(), set(), {}, {}
    top = max(game.color[v] for v in region)
    player = 0 if top % 2 == 0 else 1
    target = {v for v in region if game.color[v] == top}
    attracted, attract_strat = _attractor(game, region, target, player)
    sub = region - attracted
    w0, w1, s0, s1 = _zielonka(game, sub)
    win_me, strat_me = (w0, s0) if player == 0 else (w1, s1)
    win_op, strat_op = (w1, s1) if player == 0 else (w0, s0)
    if not win_op:
        # The whole region is winning for the dominant player.
        strat = dict(strat_me)
        strat.update(attract_strat)
        for v in target:
            if game.owner[v] == player and v not in strat:
                strat[v] = next(s for s in game.edges[v] if s in region)
        if player == 0:
            return set(region), set(), strat, {}
        return set(), set(region), {}, strat
    escape, escape_strat = _attractor(game, region, set(win_op), 1 - player)
    rest = region - escape
    r0, r1, t0, t1 = _zielonka(game, rest)
    if player == 0:
        win1_total = r1 | escape
        strat1_total = dict(s1)
        strat1_total.update(escape_strat)
        strat1_total.update(t1)
        return set(r0), win1_total, t0, strat1_total
    win0_total = r0 | escape
    strat0_total = dict(s0)
    strat0_total.update(escape_strat)
    strat0_total.update(t0)
    return win0_total, set(r1), strat0_total, t1


@dataclass(frozen=True)
class LabeledGameGraph:
    """Arena whose vertices emit letters; player 0 owns the system."""

    vertices: tuple
    owner: dict
    edges: dict
    labels: dict

    def validate(self) -> None:
        for v in self.vertices:
            if not self.edges.get(v):
                msg = f"vertex {v!r} has no outgoing edge"
                raise TerminalVertexError(msg)

    @property
    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for v in self.vertices:
            out |= self.labels[v]
        return frozenset(out)


def reduce_game(graph: LabeledGameGraph, dpa) -> tuple[ParityGame, dict]:
    """Product of an arena with a deterministic parity automaton.

    Vertices are (arena vertex, automaton state); the automaton advances
    on the label of the vertex being left, projected onto its own
    propositions; colors come from the automaton.
    """
    graph.validate()
    keep = frozenset(dpa.props)
    vertices = []
    owner = {}
    edges = {}
    color = {}
    seen = set()
    queue = [(v, dpa.initial) for v in graph.vertices]
    for node in queue:
        seen.add(node)
    work = list(queue)
    while work:
        node = work.pop()
        v, q = node
        q2 = dpa.step(q, graph.labels[v] & keep)
        succs = tuple((v2, q2) for v2 in graph.edges[v])
        edges[node] = succs
        owner[node] = graph.owner[v]
        color[node] = dpa.color[q]
        for s in succs:
            if s not in seen:
                seen.add(s)
                work.append(s)
    vertices = tuple(sorted(seen, key=repr))
    game = ParityGame(vertices, owner, edges, color)
    back = {node: node[0] for node in vertices}
    return game, back


@dataclass(frozen=True)
class MealyStrategy:
    """Finite-state strategy: memory update per visited vertex, choice
    at player-0 vertices."""

    initial_memory: object
    update: dict  # (memory, vertex) -> memory
    choice: dict  # (memory, vertex) -> successor vertex

    def format(self) -> str:
        lines = [f"initial {self.initial_memory}"]
        for (m, v), m2 in sorted(self.update.items(), key=repr):
            if (m, v) in self.choice:
                lines.append(f"{m}, {v} -> {m2}, {self.choice[(m, v)]}")
            else:
                lines.append(f"{m}, {v} -> {m2}, -")
        return "\n".join(lines)


@dataclass(frozen=True)
class GameResult:
    winner: int
    strategy: MealyStrategy | None
    bound: int | None = None


def _strategy_from_product(graph: LabeledGameGraph, dpa, win0, strat0) -> MealyStrategy:
    """Mealy machine with the automaton state as memory."""
    keep = frozenset(dpa.props)
    update = {}
    choice = {}
    for v in graph.vertices:
        for q in dpa.states():
            if (v, q) not in win0:
                continue
            q2 = dpa.step(q, graph.labels[v] & keep)
            update[(q, v)] = q2
            if graph.owner[v] == 0:
                target = strat0.get((v, q))
                if target is not None:
                    choice[(q, v)] = target[0]
    return MealyStrategy(dpa.initial, update, choice)


def solve_rldl_game(
    graph: LabeledGameGraph,
    phi: Formula,
    beta: TruthValue4,
    vertex,
) -> GameResult:
    """Decide whether player 0 enforces value at least beta from vertex.

    The automaton is built over the formula's own propositions; arena
    labels are projected onto them.
    """
    from .omega import rldl_to_dpa

    require_logic(phi, LogicId.RLDL)
    dpa = rldl_to_dpa(phi, beta, sorted(propositions(phi)))
    game, _ = reduce_game(graph, dpa)
    win0, win1, strat0, _strat1 = solve_parity(game)
    start = (vertex, dpa.initial)
    if start in win0:
        return GameResult(0, _strategy_from_product(graph, dpa, win0, strat0))
    return GameResult(1, None)


def _color_game(graph: LabeledGameGraph, dpa, color_prop: str) -> ParityGame:
    """Arena where player 0 additionally picks the recoloring bit.

    Nodes ('pick', v, q) belong to player 0 and choose the color emitted
    with v's label, projected onto the automaton's other propositions;
    nodes ('move', v, q') pick the successor vertex and belong to v's
    owner.
    """
    keep = frozenset(dpa.props) - {color_prop}
    owner = {}
    edges = {}
    color = {}
    start_nodes = [("pick", v, dpa.initial) for v in graph.vertices]
    seen = set(start_nodes)
    work = list(start_nodes)
    while work:
        node = work.pop()
        kind = node[0]
        if kind == "pick":
            _, v, q = node
            label = graph.labels[v] & keep
            succs = [
                ("move", v, dpa.step(q, label)),
                ("move", v, dpa.step(q, label | {color_prop})),
            ]
            owner[node] = 0
            color[node] = dpa.color[q]
        else:
            _, v, q2 = node
            succs = [("pick", v2, q2) for v2 in graph.edges[v]]
            owner[node] = graph.owner[v]
            color[node] = 0
        edges[node] = tuple(succs)
        for s in succs:
            if s not in seen:
                seen.add(s)
                work.append(s)
    vertices = tuple(sorted(seen, key=repr))
    return ParityGame(vertices, owner, edges, color)


def solve_prompt_game(
    graph: LabeledGameGraph,
    psi: Formula,
    vertex,
) -> GameResult:
    """Solve a game with a prompt objective via the recoloring reduction.

    The relaxed objective (each prompt eventuality discharged before the
    fresh color changes twice, colors changing infinitely often) is
    compiled to a deterministic parity automaton; player 0 picks the color
    bit each step.  Player 0 wins the original game iff it wins the
    recolored parity game, with a bound of twice the product size.  The
    automaton is built over the formula's own propositions and the color;
    arena labels are projected onto the former.
    """
    from .formulas import And
    from .modelcheck import relax_prompt
    from .omega import ldl_to_dpa
    from .translate import ltl_surface_to_ldl

    props = sorted(propositions(psi))
    color_prop = _fresh_prop(propositions(psi) | graph.propositions)
    relaxed = ltl_surface_to_ldl(relax_prompt(psi, color_prop))
    objective = And(relaxed, _changes_infinitely(color_prop))
    dpa = ldl_to_dpa(objective, sorted([*props, color_prop]))
    game = _color_game(graph, dpa, color_prop)
    win0, _win1, strat0, _ = solve_parity(game)
    start = ("pick", vertex, dpa.initial)
    if start not in win0:
        return GameResult(1, None)
    picks = sum(1 for n in game.vertices if n[0] == "pick")
    bound = 2 * (picks + 1)
    update = {}
    choice = {}
    for node in game.vertices:
        if node[0] != "pick" or node not in win0:
            continue
        _, v, q = node
        move_node = strat0[node]
        _, _, q2 = move_node
        update[(q, v)] = q2
        if graph.owner[v] == 0:
            succ = strat0.get(move_node)
            if succ is not None:
                choice[(q, v)] = succ[1]
    strategy = MealyStrategy(dpa.initial, update, choice)
    return GameResult(0, strategy, bound)


def solve_rprompt_game(
    graph: LabeledGameGraph,
    phi: Formula,
    beta: TruthValue4,
    vertex,
) -> GameResult:
    """Robust prompt game: derobustify at beta, then solve promptly."""
    from .translate import rprompt_to_prompt

    require_logic(phi, LogicId.RPROMPT_LTL)
    psi = rprompt_to_prompt(phi, beta)
    return solve_prompt_game(graph, psi, vertex)


def _fresh_prop(props) -> str:
    name = "c"
    taken = set(props)
    while name in taken:
        name += "'"
    return name


def _changes_infinitely(color_prop: str) -> Formula:
    """LDL formula: the color proposition changes infinitely often."""
    from .formulas import (
        And,
        Atom,
        Box,
        Diamond,
        NegAtom,
        Or,
        Prop,
        Star,
        Tt,
    )

    c = Atom(color_prop)
    nc = NegAtom(color_prop)
    step = Prop(Tt())
    change = Or(
        And(c, Diamond(step, nc)),
        And(nc, Diamond(step, c)),
    )
    return Box(Star(step), Diamond(Star(step), change))


class GameFormatError(ValueError):
    """Raised on malformed game-graph text."""


def parse_labeled_game(text: str) -> LabeledGameGraph:
    """Text format: `v <name> <0|1> { p, q }` and `e <a> <b>`."""
    vertices: list = []
    owner: dict = {}
    labels: dict = {}
    edges: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v":
            rest = line[1:].strip()
            head, _, brace = rest.partition("{")
            tokens = head.split()
            if len(tokens) != 2 or tokens[1] not in ("0", "1") or not brace.rstrip().endswith("}"):
                msg = f"malformed vertex line: {raw.strip()!r}"
                raise GameFormatError(msg)
            name = tokens[0]
            if name in owner:
                msg = f"duplicate vertex {name!r}"
                raise GameFormatError(msg)
            vertices.append(name)
            owner[name] = int(tokens[1])
            body = brace.rstrip()[:-1]
            labels[name] = frozenset(p.strip() for p in body.split(",") if p.strip())
            edges[name] = ()
        elif parts[0] == "e":
            if len(parts) != 3:
                msg = f"malformed edge line: {raw.strip()!r}"
                raise GameFormatError(msg)
            src, dst = parts[1], parts[2]
            if src not in owner or dst not in owner:
                msg = f"edge references unknown vertex: {raw.strip()!r}"
                raise GameFormatError(msg)
            edges[src] = (*edges[src], dst)
        else:
            msg = f"unrecognized line: {raw.strip()!r}"
            raise GameFormatError(msg)
    graph = LabeledGameGraph(tuple(vertices), owner, edges, labels)
    graph.validate()
    return graph


def play_lasso(
    graph: LabeledGameGraph,
    strategy: MealyStrategy,
    vertex,
    adversary,
) -> LassoTrace:
    """Trace of the play from vertex under the strategy and an adversary.

    The adversary is a positional callable vertex -> successor used at
    player-1 vertices; the play is followed until a (vertex, memory) pair
    repeats, giving a lasso.
    """
    seen: dict = {}
    letters: list[frozenset[str]] = []
    v = vertex
    m = strategy.initial_memory
    step = 0
    while (v, m) not in seen:
        seen[(v, m)] = step
        letters.append(frozenset(graph.labels[v]))
        v2 = strategy.choice[(m, v)] if graph.owner[v] == 0 else adversary(v)
        m = strategy.update[(m, v)]
        v = v2
        step += 1
    start = seen[(v, m)]
    return LassoTrace(tuple(letters[:start]), tuple(letters[start:]))
