"""Infinite-duration games: parity solving, reductions, strategies.

solve_parity is a Zielonka solver returning winning regions and
positional strategies for both players.  Labeled game graphs reduce to
parity games through a deterministic parity automaton for the objective;
winning strategies come back as finite-state Mealy machines whose memory
is the automaton state.

The games this package builds hold only what a play from the start can
reach.  They number their vertices 0..n-1 with ``graphs.explore``, the
start 0, and keep a `back` list from each number to the product node
it stands for; the solver numbers any other game's vertices in the
order given.  Regions are walked as lists in that order, never as
sets, so strategies do not depend on the hash seed.  A strategy is
checked on the nodes it reaches before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .formulas import Formula, LogicId, propositions, require_logic
from .graphs import explore, least_priorities, read_graph_text
from .guards import letter_of
from .traces import LassoTrace
from .truth import TruthValue4


class TerminalVertexError(ValueError):
    """Raised when a game vertex has no outgoing edge."""


class UnknownVertexError(ValueError):
    """Raised when a game is solved from a vertex the arena lacks."""


@dataclass(frozen=True)
class ParityGame:
    """Max-parity game; every vertex must have a successor.

    Vertices may be any hashable values; owner, edges and color map each
    vertex to its player, its successors and its color."""

    vertices: tuple
    owner: dict
    edges: dict
    color: dict

    @classmethod
    def numbered(cls, owner: list, edges: list, color: list) -> ParityGame:
        """Game on vertices 0..n-1; vertex i's fields are the i-th items."""
        vertices = tuple(range(len(owner)))
        return cls(
            vertices,
            dict(zip(vertices, owner)),
            dict(zip(vertices, edges)),
            dict(zip(vertices, color)),
        )

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
    vertices = game.vertices
    numbered = vertices == tuple(range(len(vertices)))
    if numbered:
        succ = [game.edges[v] for v in vertices]
    else:
        index = {v: i for i, v in enumerate(vertices)}
        succ = [tuple(index[s] for s in game.edges[v]) for v in vertices]
        del index
    owner = [game.owner[v] for v in vertices]
    color = [game.color[v] for v in vertices]
    (win0, win1), (strat0, strat1) = _zielonka(succ, owner, color)
    if numbered:
        return frozenset(win0), frozenset(win1), strat0, strat1
    name = vertices.__getitem__
    return (
        frozenset(map(name, win0)),
        frozenset(map(name, win1)),
        {name(v): name(s) for v, s in strat0.items()},
        {name(v): name(s) for v, s in strat1.items()},
    )


def _zielonka(succ: list, owner: list, color: list):
    """Zielonka's algorithm on vertices 0..n-1.

    Returns ((win0, win1), (strategy0, strategy1)) with the regions as
    lists.  Predecessor lists are built once; `state` marks the current
    region (1), the vertices one attractor has taken so far (2) and
    everything else (0).  An attractor counts an opponent vertex's
    successors inside the region only when it first reaches that vertex.
    The second recursive call of the textbook algorithm, on what is left
    once the opponent's attractor is removed, is the loop in `solve`, so
    the recursion is at most as deep as the number of distinct colors.
    """
    everything = list(range(len(succ)))
    lists: list = [[] for _ in everything]
    for v, out in zip(everything, succ):
        for s in out:
            lists[s].append(v)
    # Tuples hold their items inline, which lowers the peak memory.
    pred = [tuple(p) for p in lists]
    del lists
    state = bytearray(b"\x01") * len(everything)

    def attract(target: list, player: int):
        """Player's attractor to target within the region, with its
        attraction moves; the attractor leaves the region."""
        for v in target:
            state[v] = 2
        attracted = list(target)
        strategy: dict = {}
        # opponent vertex -> its edges into the region not yet walked back
        pending: dict = {}
        for node in attracted:  # grows while it is walked
            for v in pred[node]:
                if state[v] != 1:
                    continue
                if owner[v] == player:
                    strategy[v] = node
                else:
                    left = pending.get(v)
                    if left is None:
                        left = len(succ[v]) - [state[s] for s in succ[v]].count(0)
                    left -= 1
                    if left:
                        pending[v] = left
                        continue
                state[v] = 2
                attracted.append(v)
        for v in attracted:
            state[v] = 0
        return attracted, strategy

    def solve(region: list):
        """Solution of the subgame on region; `state` marks exactly region
        on entry and again on return."""
        wins: tuple = ([], [])
        strats: tuple = ({}, {})
        removed: list = []
        while region:
            top = max(map(color.__getitem__, region))
            me = top & 1
            target = [v for v in region if color[v] == top]
            attracted, strategy = attract(target, me)
            sub_wins, sub_strats = solve([v for v in region if state[v]])
            for v in attracted:
                state[v] = 1
            if not sub_wins[1 - me]:
                # The whole region is winning for the dominant player.
                wins[me].extend(region)
                mine = strats[me]
                mine.update(sub_strats[me])
                mine.update(strategy)
                for v in target:
                    if owner[v] == me:
                        mine[v] = next(s for s in succ[v] if state[s])
                break
            escape, strategy = attract(sub_wins[1 - me], 1 - me)
            removed += escape
            wins[1 - me].extend(escape)
            strats[1 - me].update(sub_strats[1 - me])
            strats[1 - me].update(strategy)
            region = [v for v in region if state[v]]
        for v in removed:
            state[v] = 1
        return wins, strats

    # solve refers to itself through its closure: deleting it breaks the
    # cycle, so the solver's lists are freed on return, not by the
    # cyclic collector.
    solution = solve(everything)
    del solve
    return solution


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


def reduce_game(graph: LabeledGameGraph, dpa, start: int) -> tuple[ParityGame, list]:
    """Product of an arena with a deterministic parity automaton.

    Nodes are (arena vertex, automaton state); the automaton advances
    on the label of the vertex being left, projected onto its own
    propositions; colors come from the automaton.  The game numbers the
    nodes reachable from (v, initial), for v the arena vertex at
    position start, breadth-first, so that node is 0; back[i] is node i.
    What a play from node 0 can reach is closed under moves, so each
    node is won by the same player as in the product of every vertex.
    """
    graph.validate()
    letter = {v: letter_of(dpa.props, graph.labels[v]) for v in graph.vertices}

    def successors(node):
        v, q = node
        q2 = dpa.delta[q][letter[v]]
        return [(v2, q2) for v2 in graph.edges[v]]

    back, _, edges = explore([(graph.vertices[start], dpa.initial)], successors)
    owner = [graph.owner[v] for v, _ in back]
    color = [dpa.color[q] for _, q in back]
    return ParityGame.numbered(owner, edges, color), back


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


def _start(graph: LabeledGameGraph, vertex) -> int:
    """Position of vertex in the arena, from which the products start."""
    try:
        return graph.vertices.index(vertex)
    except ValueError:
        msg = f"unknown vertex {vertex!r}"
        raise UnknownVertexError(msg) from None


def _checked_reach(game: ParityGame, strat0: dict) -> list:
    """The nodes a play from node 0 can visit under player 0's strategy,
    against every move of player 1, in the order they are reached.

    The strategy is checked on them before anything is read off it:
    every reached player-0 node moves along one of its edges, and every
    cycle the plays can close has an even top color, which holds exactly
    when ``least_priorities`` gives no reached node an odd priority.
    """

    def successors(i):
        if game.owner[i] == 0:
            move = strat0.get(i)
            if move not in game.edges[i]:
                msg = f"internal error: strategy has no move at product node {i}"
                raise AssertionError(msg)
            return (move,)
        return game.edges[i]

    reached, _, succ = explore([0], successors)
    least = least_priorities(succ, [game.color[i] for i in reached])
    if any(p & 1 for p in least):
        msg = "internal error: strategy lets a play settle on an odd top color"
        raise AssertionError(msg)
    return reached


def _strategy_from_product(
    game: ParityGame, back: list, initial, strat0
) -> MealyStrategy:
    """Mealy machine with the automaton state as memory, read off the
    product nodes the strategy reaches from node 0."""
    update = {}
    choice = {}
    for i in _checked_reach(game, strat0):
        v, q = back[i]
        # Every successor of (v, q) carries the same next automaton state.
        update[(q, v)] = back[game.edges[i][0]][1]
        target = strat0.get(i)
        if target is not None:
            choice[(q, v)] = back[target][0]
    return MealyStrategy(initial, update, choice)


def solve_rldl_game(
    graph: LabeledGameGraph,
    phi: Formula,
    beta: TruthValue4,
    vertex,
) -> GameResult:
    """Decide whether player 0 enforces value at least beta from vertex.

    The automaton is built over the formula's own propositions; arena
    labels are projected onto them.  An objective whose guards are
    test-free is derobustified at beta and compiled as plain LDL, so the
    strategy's memory is the states of that automaton; one with tests
    is compiled robustly.
    """
    from .omega import ldl_to_dpa, rldl_to_dpa
    from .translate import derobustify, is_test_free

    require_logic(phi, LogicId.RLDL)
    start = _start(graph, vertex)
    props = sorted(propositions(phi))
    if is_test_free(phi):
        dpa = ldl_to_dpa(derobustify(phi, beta), props)
    else:
        dpa = rldl_to_dpa(phi, beta, props)
    game, back = reduce_game(graph, dpa, start)
    win0, _win1, strat0, _strat1 = solve_parity(game)
    if 0 in win0:
        strategy = _strategy_from_product(game, back, dpa.initial, strat0)
        return GameResult(0, strategy)
    return GameResult(1, None)


def _color_game(graph: LabeledGameGraph, dpa, color_prop: str, start: int):
    """Arena where player 0 additionally picks the recoloring bit.

    Nodes ('pick', v, q) belong to player 0 and choose the color emitted
    with v's label, projected onto the automaton's other propositions;
    nodes ('move', v, q') pick the successor vertex and belong to v's
    owner.  Returns the game, numbered as in reduce_game from
    ('pick', v, initial) for v the arena vertex at position start, and
    its back list.
    """
    mask = 1 << dpa.props.index(color_prop)
    letters = {}
    for v in graph.vertices:
        a = letter_of(dpa.props, graph.labels[v]) & ~mask
        letters[v] = (a, a | mask)

    def successors(node):
        kind, v, q = node
        if kind == "pick":
            return [("move", v, dpa.delta[q][a]) for a in letters[v]]
        return [("pick", v2, q) for v2 in graph.edges[v]]

    back, _, edges = explore([("pick", graph.vertices[start], dpa.initial)], successors)
    owner = [0 if kind == "pick" else graph.owner[v] for kind, v, _ in back]
    color = [dpa.color[q] if kind == "pick" else 0 for kind, _, q in back]
    return ParityGame.numbered(owner, edges, color), back


def solve_prompt_game(
    graph: LabeledGameGraph,
    psi: Formula,
    vertex,
) -> GameResult:
    """Solve a game with a prompt objective via the recoloring reduction.

    The relaxed objective (each prompt eventuality discharged before the
    fresh color changes twice) is compiled to a deterministic parity
    automaton, and ``omega.dpa_with_changes`` adds "the color changes
    infinitely often"; player 0 picks the color bit each step.  Player 0
    wins the original game iff it wins the recolored parity game.  The
    strategy and the bound are read off the product nodes the winning
    strategy reaches from the start: the bound is 2 * (picks + 1) for the
    number of reached pick nodes.  A pick node cannot repeat between two
    color changes, or the adversary could repeat that cycle forever and
    the color would stop changing.  The automaton is built over the
    formula's own propositions and the color; arena labels are projected
    onto the former.
    """
    from .modelcheck import relax_prompt
    from .omega import dpa_with_changes, ldl_to_dpa
    from .translate import ltl_surface_to_ldl

    start = _start(graph, vertex)
    color_prop = _fresh_prop(propositions(psi) | graph.propositions)
    props = sorted([*propositions(psi), color_prop])
    relaxed = ltl_surface_to_ldl(relax_prompt(psi, color_prop))
    dpa = dpa_with_changes(ldl_to_dpa(relaxed, props), color_prop)
    game, back = _color_game(graph, dpa, color_prop, start)
    win0, _win1, strat0, _ = solve_parity(game)
    if 0 not in win0:
        return GameResult(1, None)
    update = {}
    choice = {}
    for i in _checked_reach(game, strat0):
        kind, v, q = back[i]
        if kind != "pick":
            continue
        move = strat0[i]
        update[(q, v)] = back[move][2]
        succ = strat0.get(move)
        if succ is not None:
            choice[(q, v)] = back[succ][1]
    bound = 2 * (len(update) + 1)
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


class GameFormatError(ValueError):
    """Raised on malformed game-graph text."""


def parse_labeled_game(text: str) -> LabeledGameGraph:
    """Text format: `v <name> <0|1> { p, q }` and `e <a> <b>`."""
    owner: dict = {}

    def fields(name: str, words: list) -> bool:
        if len(words) != 1 or words[0] not in ("0", "1"):
            return False
        owner[name] = int(words[0])
        return True

    vertices, labels, edges = read_graph_text(
        text, "v", "e", "vertex", GameFormatError, fields
    )
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
