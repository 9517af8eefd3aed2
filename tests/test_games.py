"""Parity-game solving, arena reductions, and strategy extraction."""

import gc

import pytest
from _oracles import (
    brute_force_winner,
    changes_infinitely,
    every_cycle_even,
    reference_color_game,
    reference_reduce_game,
    reference_solve_parity,
)

from robusttl.formulas import (
    And,
    Box,
    LogicId,
    LogicViolationError,
    PromptDiamond,
    Prop,
    Star,
    Tt,
    propositions,
)
from robusttl.games import (
    GameFormatError,
    LabeledGameGraph,
    MealyStrategy,
    ParityGame,
    TerminalVertexError,
    _checked_reach,
    _color_game,
    _fresh_prop,
    parse_labeled_game,
    play_lasso,
    reduce_game,
    solve_parity,
    solve_prompt_game,
    solve_rldl_game,
    solve_rprompt_game,
)
from robusttl.gen import (
    make_rng,
    random_formula,
    random_guard,
    random_labeled_game,
    random_lasso,
    random_parity_game,
)
from robusttl.guards import letter_of
from robusttl.modelcheck import relax_prompt
from robusttl.omega import dpa_accepts_lasso, dpa_with_changes, ldl_to_dpa, rldl_to_dpa
from robusttl.parser import parse
from robusttl.semantics import eval_prompt_ltl, eval_rldl
from robusttl.translate import (
    derobustify,
    fragment_translate,
    ltl_surface_to_ldl,
    rprompt_to_prompt,
)
from robusttl.truth import POSITIVE_VALUES
from robusttl.truth import from_string as B


def loop_game(color: int, owner: int = 0) -> ParityGame:
    return ParityGame((0,), {0: owner}, {0: (0,)}, {0: color})


def test_self_loop_even_color_is_won_by_player_zero():
    win0, win1, strat0, strat1 = solve_parity(loop_game(0))
    assert win0 == frozenset({0})
    assert win1 == frozenset()
    assert strat0 == {0: 0}


def test_self_loop_odd_color_is_won_by_player_one():
    win0, win1, strat0, strat1 = solve_parity(loop_game(1, owner=1))
    assert win0 == frozenset()
    assert win1 == frozenset({0})
    assert strat1 == {0: 0}


def test_terminal_vertex_rejected():
    game = ParityGame((0, 1), {0: 0, 1: 0}, {0: (1,), 1: ()}, {0: 0, 1: 0})
    with pytest.raises(TerminalVertexError):
        solve_parity(game)


def test_choice_between_even_and_odd_loop():
    # 0 chooses between an even self-loop and an odd one.
    game = ParityGame(
        (0, 1, 2),
        {0: 0, 1: 0, 2: 0},
        {0: (1, 2), 1: (1,), 2: (2,)},
        {0: 0, 1: 2, 2: 1},
    )
    win0, win1, strat0, _ = solve_parity(game)
    assert win0 == frozenset({0, 1})
    assert win1 == frozenset({2})
    assert strat0[0] == 1


def test_adversary_forces_odd_loop():
    game = ParityGame(
        (0, 1, 2),
        {0: 1, 1: 0, 2: 0},
        {0: (1, 2), 1: (1,), 2: (2,)},
        {0: 0, 1: 2, 2: 1},
    )
    win0, win1, _, strat1 = solve_parity(game)
    assert win1 == frozenset({0, 2})
    assert strat1[0] == 2


@pytest.mark.parametrize("seed", range(40))
def test_solver_matches_positional_enumeration(seed):
    rng = make_rng(seed)
    game = random_parity_game(rng, rng.randint(1, 5), rng.randint(0, 2))
    win0, win1, _, _ = solve_parity(game)
    for v in game.vertices:
        expected = brute_force_winner(game, v)
        assert (v in win0) == (expected == 0)
        assert (v in win1) == (expected == 1)


@pytest.mark.parametrize("seed", range(40))
def test_winning_strategies_close_regions_and_fix_cycle_parity(seed):
    rng = make_rng(seed + 1000)
    game = random_parity_game(rng, rng.randint(1, 6), rng.randint(0, 3))
    win0, win1, strat0, strat1 = solve_parity(game)
    for region, strat, player in ((win0, strat0, 0), (win1, strat1, 1)):
        edges = {}
        for v in region:
            if game.owner[v] == player:
                assert strat[v] in game.edges[v]
                succs = (strat[v],)
            else:
                succs = game.edges[v]
            # The winning region is a trap for the opponent.
            assert all(s in region for s in succs)
            edges[v] = succs
        shifted = {v: game.color[v] + player for v in region}
        assert every_cycle_even(edges, shifted, region)


def sparse_parity_game(rng, n_vertices: int, max_color: int) -> ParityGame:
    """Seeded game with out-degree 1..4, so that larger games stay cheap
    for the cycle-parity check."""
    vertices = tuple(range(n_vertices))
    owner = {v: rng.randint(0, 1) for v in vertices}
    color = {v: rng.randint(0, max_color) for v in vertices}
    edges = {
        v: tuple(sorted(rng.sample(vertices, rng.randint(1, min(4, n_vertices)))))
        for v in vertices
    }
    return ParityGame(vertices, owner, edges, color)


def check_solution(game: ParityGame, solution) -> None:
    """Regions partition the game, each is a trap for the opponent under
    its owner's strategy, and every cycle there has the owner's parity."""
    win0, win1, strat0, strat1 = solution
    assert win0 | win1 == set(game.vertices) and not win0 & win1
    for region, strat, player in ((win0, strat0, 0), (win1, strat1, 1)):
        edges = {}
        for v in region:
            if game.owner[v] == player:
                assert strat[v] in game.edges[v]
                edges[v] = (strat[v],)
            else:
                edges[v] = game.edges[v]
            assert all(s in region for s in edges[v])
        shifted = {v: game.color[v] + player for v in region}
        assert every_cycle_even(edges, shifted, region)


@pytest.mark.parametrize("batch", range(10))
def test_solver_matches_reference_zielonka(batch):
    rng = make_rng(batch + 2000)
    for _ in range(20):
        game = sparse_parity_game(rng, rng.randint(20, 300), rng.randint(0, 7))
        solution = solve_parity(game)
        want0, want1, _, _ = reference_solve_parity(game)
        assert solution[:2] == (want0, want1)
        check_solution(game, solution)


def test_solver_leaves_no_reference_cycle():
    # Everything the solver allocates is freed by reference counting when
    # it returns, so the cyclic collector finds nothing to collect.
    game = random_parity_game(make_rng(3), 40, 5)
    gc.collect()
    gc.disable()
    try:
        solve_parity(game)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["str", "tuple"])
def test_solver_regions_independent_of_vertex_names(kind):
    rng = make_rng(3000 if kind == "str" else 3001)
    for _ in range(20):
        game = sparse_parity_game(rng, rng.randint(20, 120), rng.randint(0, 7))
        name = {v: f"v{v}" if kind == "str" else ("n", v) for v in game.vertices}
        order = list(game.vertices)
        rng.shuffle(order)
        named = ParityGame(
            tuple(name[v] for v in order),
            {name[v]: game.owner[v] for v in order},
            {name[v]: tuple(name[s] for s in game.edges[v]) for v in order},
            {name[v]: game.color[v] for v in order},
        )
        win0, win1, _, _ = solve_parity(game)
        solution = solve_parity(named)
        assert solution[0] == {name[v] for v in win0}
        assert solution[1] == {name[v] for v in win1}
        check_solution(named, solution)


def test_reduce_game_size_and_colors():
    # The game holds exactly the product nodes reachable from the start
    # node, numbered from 0 with the start first, with the colors of the
    # automaton, the owners of the arena and the automaton's moves.
    graph = parse_labeled_game(
        """
        v a 0 { p }
        v b 1 { }
        e a b
        e b a
        e b b
        """
    )
    phi = parse("[tt*] p", LogicId.RLDL)
    dpa = rldl_to_dpa(phi, B("1111"), ["p"])
    for start, vertex in enumerate(graph.vertices):
        game, back = reduce_game(graph, dpa, start)
        assert len(game.vertices) <= len(graph.vertices) * len(dpa.states())
        assert game.vertices == tuple(range(len(back)))
        assert back[0] == (vertex, dpa.initial)
        assert len(set(back)) == len(back)
        reach = {back[0]}
        work = [back[0]]
        while work:
            v, q = work.pop()
            for v2 in graph.edges[v]:
                node = (v2, dpa.delta[q][letter_of(dpa.props, graph.labels[v])])
                if node not in reach:
                    reach.add(node)
                    work.append(node)
        assert set(back) == reach
        for i in game.vertices:
            v, q = back[i]
            assert game.color[i] == dpa.color[q]
            assert game.owner[i] == graph.owner[v]
            q2 = dpa.delta[q][letter_of(dpa.props, graph.labels[v])]
            assert [back[j] for j in game.edges[i]] == [(v2, q2) for v2 in graph.edges[v]]


def check_start_game(game, back, reference, reference_back, start):
    """The start game is the part of the reference game that node start
    reaches, and each of its nodes is won by the same player."""
    assert set(game.vertices) == _reachable_from(game, 0)
    position = {node: i for i, node in enumerate(reference_back)}
    assert position[back[0]] == start
    for i in game.vertices:
        r = position[back[i]]
        assert game.owner[i] == reference.owner[r]
        assert game.color[i] == reference.color[r]
        assert [back[j] for j in game.edges[i]] == [reference_back[j] for j in reference.edges[r]]
    reached = {position[node] for node in back}
    assert reached == _reachable_from(reference, start)
    win0 = solve_parity(game)[0]
    reference_win0 = solve_parity(reference)[0]
    for i in game.vertices:
        assert (i in win0) == (position[back[i]] in reference_win0)


def _reachable_from(game, start) -> set:
    seen = {start}
    work = [start]
    while work:
        for j in game.edges[work.pop()]:
            if j not in seen:
                seen.add(j)
                work.append(j)
    return seen


@pytest.mark.parametrize("seed", range(6))
def test_start_products_match_all_vertex_reference(seed):
    rng = make_rng(seed + 1300)
    graph = random_labeled_game(rng, rng.randint(2, 6), ("p", "q"))
    for text in ("[tt*] <tt*> p", "[tt*] (p -> <tt*> q)", "<tt*> [tt*] !q"):
        phi = parse(text, LogicId.RLDL)
        for beta in (B("1111"), B("0011"), B("0001")):
            dpa = rldl_to_dpa(phi, beta, ["p", "q"])
            reference, reference_back = reference_reduce_game(graph, dpa)
            for start, vertex in enumerate(graph.vertices):
                game, back = reduce_game(graph, dpa, start)
                check_start_game(game, back, reference, reference_back, start)
                winner = solve_rldl_game(graph, phi, beta, vertex).winner
                assert (winner == 0) == (start in solve_parity(reference)[0])


@pytest.mark.parametrize("seed", range(4))
def test_start_color_games_match_all_vertex_reference(seed):
    rng = make_rng(seed + 1400)
    graph = random_labeled_game(rng, rng.randint(2, 5), ("s", "q"))
    for text in ("G Fp s", "Fp G s", "G (!q | Fp s)"):
        psi = parse(text, LogicId.PROMPT_LTL)
        color_prop = _fresh_prop(propositions(psi) | graph.propositions)
        relaxed = ltl_surface_to_ldl(relax_prompt(psi, color_prop))
        props = sorted([*propositions(psi), color_prop])
        dpa = dpa_with_changes(ldl_to_dpa(relaxed, props), color_prop)
        reference, reference_back = reference_color_game(graph, dpa, color_prop)
        objective = And(relaxed, changes_infinitely(color_prop))
        conjunction = ldl_to_dpa(objective, props)
        conjunction_game = reference_color_game(graph, conjunction, color_prop)[0]
        conjunction_win0 = solve_parity(conjunction_game)[0]
        for start, vertex in enumerate(graph.vertices):
            game, back = _color_game(graph, dpa, color_prop, start)
            check_start_game(game, back, reference, reference_back, start)
            winner = solve_prompt_game(graph, psi, vertex).winner
            assert (winner == 0) == (start in solve_parity(reference)[0])
            assert (winner == 0) == (start in conjunction_win0)


PQ = ("p", "q")


def _prompt_objectives(seed):
    """Seeded prompt formulas over {p, q}: robust prompt LTL of size 1-7
    derobustified at every positive threshold, robust prompt LDL of the
    fragment translated at every positive threshold, and prompt LDL
    recurrences of test-free prompt diamonds."""
    rng = make_rng(seed + 1500)
    for _ in range(4):
        phi = random_formula(rng, LogicId.RPROMPT_LTL, rng.randint(1, 7), PQ)
        for beta in POSITIVE_VALUES:
            yield rprompt_to_prompt(phi, beta)
    text = ("[(tt;tt)*] <p tt*> q", "[tt*] <p tt*> q")[seed % 2]
    yield fragment_translate(parse(text, LogicId.RPROMPT_LDL), POSITIVE_VALUES[seed // 2 % 4])
    guard = random_guard(rng, PQ, rng.randint(1, 4), allow_tests=False)
    yield Box(Star(Prop(Tt())), PromptDiamond(guard, random_formula(rng, LogicId.LDL, 1, PQ)))


@pytest.mark.parametrize("seed", range(8))
def test_change_product_matches_compiled_change_condition(seed):
    # dpa_with_changes accepts the lassos of the relaxed objective that
    # change the color infinitely often, as the conjunction compiled with
    # the change condition does, and stays within its state bound.
    rng = make_rng(seed + 1600)
    props = ("c", "p", "q")
    for psi in _prompt_objectives(seed):
        relaxed = ltl_surface_to_ldl(relax_prompt(psi, "c"))
        dpa = ldl_to_dpa(relaxed, props)
        product = dpa_with_changes(dpa, "c")
        reference = ldl_to_dpa(And(relaxed, changes_infinitely("c")), props)
        colors = len(set(dpa.color))
        assert product.n_states <= dpa.n_states * 2 * colors * (colors + 1)
        for _ in range(20):
            w = random_lasso(rng, props, 3, 4)
            assert dpa_accepts_lasso(product, w) == dpa_accepts_lasso(reference, w), (psi, w)


SAFETY = parse("[tt*] p", LogicId.RLDL)


def test_rldl_game_forced_safety_holds():
    graph = parse_labeled_game("v a 0 { p }\ne a a")
    result = solve_rldl_game(graph, SAFETY, B("1111"), "a")
    assert result.winner == 0
    assert result.strategy is not None
    trace = play_lasso(graph, result.strategy, "a", lambda v: None)
    assert eval_rldl(trace, SAFETY) >= B("1111")


def test_rldl_game_pumpable_escape_wins_for_adversary():
    graph = parse_labeled_game(
        """
        v a 1 { p }
        v b 1 { }
        e a a
        e a b
        e b b
        """
    )
    assert solve_rldl_game(graph, SAFETY, B("0111"), "a").winner == 1
    # The first letter always carries p, so the weakest bit is enforced.
    result = solve_rldl_game(graph, SAFETY, B("0001"), "a")
    assert result.winner == 0
    assert solve_rldl_game(graph, SAFETY, B("0000"), "a").winner == 0


def test_rldl_game_rejects_other_logics():
    graph = parse_labeled_game("v a 0 { p }\ne a a")
    with pytest.raises(LogicViolationError):
        solve_rldl_game(graph, parse("G p", LogicId.LTL), B("1111"), "a")


def adversaries(graph: LabeledGameGraph, rng, count: int):
    owned = [v for v in graph.vertices if graph.owner[v] == 1]
    for _ in range(count):
        table = {v: rng.choice(graph.edges[v]) for v in owned}
        yield lambda v, t=table: t[v]


@pytest.mark.parametrize("seed", range(12))
def test_rldl_strategies_enforce_threshold_against_sampled_adversaries(seed):
    rng = make_rng(seed + 31)
    graph = random_labeled_game(rng, rng.randint(1, 3), ("p",))
    phi = SAFETY
    for beta in (B("1111"), B("0011"), B("0001")):
        result = solve_rldl_game(graph, phi, beta, graph.vertices[0])
        if result.winner != 0:
            continue
        for adversary in adversaries(graph, rng, 8):
            trace = play_lasso(graph, result.strategy, graph.vertices[0], adversary)
            assert eval_rldl(trace, phi) >= beta


@pytest.mark.parametrize("seed", range(8))
def test_test_free_objectives_are_solved_on_the_derobustified_automaton(seed):
    # The winner is the robust automaton's, the strategy's memory is the
    # states of the plain automaton of the derobustified objective, and
    # every play the strategy allows has value at least beta.
    rng = make_rng(seed + 4400)
    graph = random_labeled_game(rng, rng.randint(2, 5), PQ)
    vertex = graph.vertices[0]
    won = 0
    for _ in range(4):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(2, 7), PQ, allow_tests=False)
        props = sorted(propositions(phi))
        for beta in POSITIVE_VALUES:
            result = solve_rldl_game(graph, phi, beta, vertex)
            robust, _ = reduce_game(graph, rldl_to_dpa(phi, beta, props), 0)
            assert (result.winner == 0) == (0 in solve_parity(robust)[0])
            if result.winner != 0:
                continue
            won += 1
            plain = ldl_to_dpa(derobustify(phi, beta), props)
            memory = {m for m, _ in result.strategy.update}
            assert memory | set(result.strategy.update.values()) <= set(plain.states())
            for adversary in adversaries(graph, rng, 6):
                trace = play_lasso(graph, result.strategy, vertex, adversary)
                assert eval_rldl(trace, phi) >= beta, (phi, beta, trace)
    assert won


def test_prompt_game_bounded_reach():
    graph = parse_labeled_game(
        """
        v a 0 { }
        v b 0 { s }
        e a b
        e b b
        """
    )
    psi = parse("Fp s", LogicId.PROMPT_LTL)
    result = solve_prompt_game(graph, psi, "a")
    assert result.winner == 0
    assert result.bound is not None and result.bound >= 1
    trace = play_lasso(graph, result.strategy, "a", lambda v: None)
    assert eval_prompt_ltl(trace, result.bound, psi)


def test_prompt_game_adversarial_delay_loses():
    graph = parse_labeled_game(
        """
        v a 1 { }
        v b 0 { s }
        e a a
        e a b
        e b a
        """
    )
    psi = parse("G Fp s", LogicId.PROMPT_LTL)
    result = solve_prompt_game(graph, psi, "a")
    assert result.winner == 1
    assert result.strategy is None


def test_prompt_game_controlled_cycle_wins_with_valid_bound():
    graph = parse_labeled_game(
        """
        v a 0 { }
        v b 0 { s }
        e a a
        e a b
        e b a
        """
    )
    psi = parse("G Fp s", LogicId.PROMPT_LTL)
    result = solve_prompt_game(graph, psi, "a")
    assert result.winner == 0
    trace = play_lasso(graph, result.strategy, "a", lambda v: None)
    assert eval_prompt_ltl(trace, result.bound, psi)


ROBUST_RECURRENCE = parse("G Fp s", LogicId.RPROMPT_LTL)


def test_rprompt_game_threshold_split():
    # The adversary chooses between a sync cycle and a path where s
    # occurs exactly once: only the weakest threshold survives.
    graph = parse_labeled_game(
        """
        v a 1 { }
        v b 0 { s }
        v c 0 { s }
        v d 0 { }
        e a b
        e a c
        e b a
        e c d
        e d d
        """
    )
    assert solve_rprompt_game(graph, ROBUST_RECURRENCE, B("1111"), "a").winner == 1
    assert solve_rprompt_game(graph, ROBUST_RECURRENCE, B("0011"), "a").winner == 1
    weak = solve_rprompt_game(graph, ROBUST_RECURRENCE, B("0001"), "a")
    assert weak.winner == 0
    assert solve_rprompt_game(graph, ROBUST_RECURRENCE, B("0000"), "a").winner == 0


def test_rprompt_game_sync_cycle_enforces_top():
    graph = parse_labeled_game(
        """
        v a 0 { }
        v b 0 { s }
        e a b
        e b a
        """
    )
    result = solve_rprompt_game(graph, ROBUST_RECURRENCE, B("1111"), "a")
    assert result.winner == 0
    trace = play_lasso(graph, result.strategy, "a", lambda v: None)
    derobust = parse("G Fp s", LogicId.PROMPT_LTL)
    assert eval_prompt_ltl(trace, result.bound, derobust)


def test_parse_labeled_game_round_trip_fields():
    graph = parse_labeled_game(
        """
        # arena with a comment
        v a 0 { p, q }
        v b 1 { }
        e a b
        e b a
        """
    )
    assert graph.vertices == ("a", "b")
    assert graph.owner == {"a": 0, "b": 1}
    assert graph.labels["a"] == frozenset({"p", "q"})
    assert graph.labels["b"] == frozenset()
    assert graph.edges == {"a": ("b",), "b": ("a",)}
    assert graph.propositions == frozenset({"p", "q"})


@pytest.mark.parametrize(
    "text",
    [
        "v a 2 { }\ne a a",
        "v a 0 p\ne a a",
        "v a 0 { p }\nv a 0 { }\ne a a",
        "v a 0 { }\ne a b",
        "v a 0 { }\nedge a a",
        "w a 0 { }",
    ],
)
def test_parse_labeled_game_rejects_malformed(text):
    with pytest.raises(GameFormatError):
        parse_labeled_game(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("v a 2 { }", "malformed vertex line: 'v a 2 { }'"),
        ("v a 0 p", "malformed vertex line: 'v a 0 p'"),
        ("v a { }", "malformed vertex line: 'v a { }'"),
        ("v a 0 { p }\nv a 1 { }", "duplicate vertex 'a'"),
        ("v a 0 { }\ne a b", "edge references unknown vertex: 'e a b'"),
        ("v a 0 { }\ne a a a", "malformed edge line: 'e a a a'"),
        ("v a 0 { }\nedge a a", "unrecognized line: 'edge a a'"),
        ("v a 0 { p q }\ne a a", "proposition name 'p q' is not an identifier: 'v a 0 { p q }'"),
        ("v a 0 { p}} }\ne a a", "proposition name 'p}}' is not an identifier: 'v a 0 { p}} }'"),
    ],
)
def test_parse_labeled_game_error_messages(text, message):
    with pytest.raises(GameFormatError) as info:
        parse_labeled_game(text)
    assert str(info.value) == message


def test_parse_labeled_game_keeps_edge_order():
    graph = parse_labeled_game(
        "v a 0 { }\nv b 1 { p }\ne a b\ne b b\ne a a # self-loop last\ne b a"
    )
    assert graph.edges == {"a": ("b", "a"), "b": ("b", "a")}


def test_parse_labeled_game_rejects_terminal_vertex():
    with pytest.raises(TerminalVertexError):
        parse_labeled_game("v a 0 { }")


def test_mealy_format_shape():
    strategy = MealyStrategy(0, {(0, "a"): 1, (1, "b"): 0}, {(0, "a"): "b"})
    text = strategy.format()
    lines = text.splitlines()
    assert lines[0] == "initial 0"
    assert "0, a -> 1, b" in lines
    assert "1, b -> 0, -" in lines


def test_play_lasso_letters_match_labels():
    graph = parse_labeled_game(
        """
        v a 0 { p }
        v b 0 { }
        e a b
        e b a
        """
    )
    result = solve_rldl_game(graph, parse("<tt*> p", LogicId.RLDL), B("0001"), "a")
    trace = play_lasso(graph, result.strategy, "a", lambda v: None)
    word = list(trace.prefix + trace.loop)
    assert word[0] == frozenset({"p"})
    assert all(letter in (frozenset({"p"}), frozenset()) for letter in word)


def _restricted(graph: LabeledGameGraph, props) -> LabeledGameGraph:
    keep = frozenset(props)
    labels = {v: label & keep for v, label in graph.labels.items()}
    return LabeledGameGraph(graph.vertices, graph.owner, graph.edges, labels)


@pytest.mark.parametrize("seed", range(8))
def test_rldl_game_projects_extra_arena_labels(seed):
    rng = make_rng(seed + 600)
    graph = random_labeled_game(rng, rng.randint(2, 4), ("p", "q", "r", "s"))
    restricted = _restricted(graph, ("p", "q"))
    for text in ("[tt*] (p -> <tt> q)", "[tt*] <tt*> (p & !q)"):
        phi = parse(text, LogicId.RLDL)
        for beta in (B("1111"), B("0011"), B("0001")):
            for vertex in graph.vertices[:2]:
                result = solve_rldl_game(graph, phi, beta, vertex)
                want = solve_rldl_game(restricted, phi, beta, vertex).winner
                assert result.winner == want
                if result.winner != 0:
                    continue
                for adversary in adversaries(graph, rng, 4):
                    trace = play_lasso(graph, result.strategy, vertex, adversary)
                    assert eval_rldl(trace, phi) >= beta


@pytest.mark.parametrize("seed", range(6))
def test_prompt_games_project_extra_arena_labels(seed):
    rng = make_rng(seed + 700)
    # The label c is the name the recoloring reduction would pick first.
    graph = random_labeled_game(rng, rng.randint(2, 4), ("s", "c", "q"))
    restricted = _restricted(graph, ("s",))
    psi = parse("G Fp s", LogicId.PROMPT_LTL)
    for vertex in graph.vertices:
        result = solve_prompt_game(graph, psi, vertex)
        assert result.winner == solve_prompt_game(restricted, psi, vertex).winner
        for beta in (B("1111"), B("0011"), B("0001")):
            assert (
                solve_rprompt_game(graph, ROBUST_RECURRENCE, beta, vertex).winner
                == solve_rprompt_game(restricted, ROBUST_RECURRENCE, beta, vertex).winner
            )
        if result.winner != 0:
            continue
        for adversary in adversaries(graph, rng, 4):
            trace = play_lasso(graph, result.strategy, vertex, adversary)
            assert eval_prompt_ltl(trace, result.bound, psi)


def strategy_reach(graph: LabeledGameGraph, strategy: MealyStrategy, vertex) -> set:
    """(memory, vertex) pairs a play from vertex can visit under the
    strategy, against every move of player 1."""
    start = (strategy.initial_memory, vertex)
    seen = {start}
    work = [start]
    while work:
        m, v = work.pop()
        targets = (strategy.choice[(m, v)],) if graph.owner[v] == 0 else graph.edges[v]
        for v2 in targets:
            node = (strategy.update[(m, v)], v2)
            if node not in seen:
                seen.add(node)
                work.append(node)
    return seen


@pytest.mark.parametrize("seed", range(8))
def test_strategies_hold_only_reachable_entries(seed):
    # Every printed Mealy entry is reached from the start under the
    # strategy, and every reached pair has an entry.
    rng = make_rng(seed + 900)
    graph = random_labeled_game(rng, rng.randint(2, 6), ("p", "s"))
    vertex = graph.vertices[0]
    results = [
        solve_rldl_game(graph, parse(text, LogicId.RLDL), B(beta), vertex)
        for text in ("[tt*] <tt*> p", "<tt*> [tt*] s", "[tt*] (p -> <tt*> s)")
        for beta in ("0011", "1111")
    ]
    results.append(solve_prompt_game(graph, parse("G Fp s", LogicId.PROMPT_LTL), vertex))
    for result in results:
        if result.winner != 0:
            continue
        strategy = result.strategy
        assert strategy_reach(graph, strategy, vertex) == set(strategy.update)
        zero = {(m, v) for m, v in strategy.update if graph.owner[v] == 0}
        assert set(strategy.choice) == zero
        if result.bound is not None:
            assert result.bound == 2 * (len(strategy.update) + 1)


def test_strategy_check_rejects_a_flipped_move():
    # Player 0 picks at node 0 between an even loop at 1 and an odd loop at 2.
    game = ParityGame.numbered([0, 0, 0], [(1, 2), (1,), (2,)], [0, 2, 1])
    strat0 = solve_parity(game)[2]
    assert _checked_reach(game, strat0) == [0, 1]
    for bad in ({**strat0, 0: 2}, {**strat0, 0: 0}, {1: 1, 2: 2}):
        with pytest.raises(AssertionError, match="^internal error: "):
            _checked_reach(game, bad)


def test_strategy_check_rejects_a_flipped_color():
    # On products the solver won: the reached nodes pass the check, and
    # giving one node that a play repeats an odd color above the rest
    # makes it fail.
    checked = 0
    for seed in range(12):
        rng = make_rng(seed + 1500)
        graph = random_labeled_game(rng, rng.randint(2, 5), ("p", "q"))
        dpa = rldl_to_dpa(parse("[tt*] (p -> <tt*> q)"), B("0011"), ["p", "q"])
        game, _back = reduce_game(graph, dpa, 0)
        win0, _win1, strat0, _strat1 = solve_parity(game)
        if 0 not in win0:
            continue
        _checked_reach(game, strat0)
        seen = []
        i = 0
        while i not in seen:
            seen.append(i)
            i = strat0[i] if game.owner[i] == 0 else game.edges[i][-1]
        top = max(game.color.values())
        color = {**game.color, i: top + 1 + top % 2}
        flipped = ParityGame(game.vertices, game.owner, game.edges, color)
        with pytest.raises(AssertionError, match="^internal error: "):
            _checked_reach(flipped, strat0)
        checked += 1
    assert checked >= 4
