import pytest

from robusttl.formulas import Box, Diamond, LogicId, closure, guard_tests, propositions
from robusttl.games import _color_game, reduce_game
from robusttl.gen import make_rng, random_labeled_game
from robusttl.graphs import explore, least_priorities, sccs
from robusttl.guards import determinize, dfa_product
from robusttl.omega import dpa_with_changes, rldl_to_dpa, rldl_to_nba
from robusttl.parser import parse
from robusttl.truth import POSITIVE_VALUES


def _reach(succ):
    reach = {}
    for q in succ:
        seen, work = {q}, [q]
        while work:
            for t in succ[work.pop()]:
                if t not in seen:
                    seen.add(t)
                    work.append(t)
        reach[q] = seen
    return reach


def test_sccs_match_mutual_reachability_on_random_graphs():
    # A component lists exactly the nodes that reach each other, and it
    # comes out before every component that reaches it.
    rng = make_rng(61)
    for _ in range(300):
        n = rng.randint(1, 12)
        density = rng.random()
        succ = {q: [t for t in range(n) if rng.random() < density / 2] for q in range(n)}
        comps = sccs(range(n), succ.__getitem__)
        assert sorted(q for comp in comps for q in comp) == list(range(n))
        position = {q: i for i, comp in enumerate(comps) for q in comp}
        reach = _reach(succ)
        for q in succ:
            for r in reach[q]:
                assert (position[q] == position[r]) == (q in reach[r]), (succ, q, r)
                assert position[q] >= position[r], (succ, q, r)


def test_sccs_calls_successors_once_per_node():
    calls = []
    succ = {0: [1], 1: [2], 2: [0, 3], 3: [3]}

    def successors(q):
        calls.append(q)
        return succ[q]

    comps = sccs([3, 0, 1, 2], successors)
    assert sorted(calls) == [0, 1, 2, 3]
    assert [sorted(c) for c in comps] == [[3], [0, 1, 2]]


def _strongly_connected(nodes, succ) -> bool:
    """Whether the nodes hold a closed walk through all of them."""
    inside = set(nodes)
    start = nodes[0]
    for edges in (succ, _reverse(succ)):
        seen, work = {start}, [start]
        while work:
            for t in edges[work.pop()]:
                if t in inside and t not in seen:
                    seen.add(t)
                    work.append(t)
        if seen != inside:
            return False
    return len(nodes) > 1 or start in succ[start]


def _reverse(succ):
    pred = {q: [] for q in succ}
    for q, out in succ.items():
        for t in out:
            pred[t].append(q)
    return pred


def test_least_priorities_keep_the_parity_of_every_closed_walk():
    # On random graphs of up to 7 nodes, every strongly connected node set
    # (the nodes a run visits forever) has a top priority of the parity of
    # its top color; no priority is above the top color; some node gets
    # an odd priority exactly when some such set has an odd top color.
    rng = make_rng(73)
    for _ in range(300):
        n = rng.randint(1, 7)
        succ = {q: sorted(set(rng.sample(range(n), rng.randint(1, min(n, 3))))) for q in range(n)}
        color = [rng.randint(0, 6) for _ in range(n)]
        prio = least_priorities([succ[q] for q in range(n)], color)
        odd = False
        for mask in range(1, 1 << n):
            nodes = [q for q in range(n) if mask >> q & 1]
            if not _strongly_connected(nodes, succ):
                continue
            top = max(color[q] for q in nodes)
            assert max(prio[q] for q in nodes) % 2 == top % 2, (succ, color, prio, nodes)
            odd = odd or top % 2 == 1
        assert 0 <= min(prio) and max(prio) <= max(color), (succ, color, prio)
        assert any(p % 2 for p in prio) == odd, (succ, color, prio)


def test_explore_numbers_roots_first_then_nodes_as_first_named():
    succ = {"a": ["c", "b"], "b": ["b", "d", "c", "d"], "c": [], "d": ["a"], "x": ["d"]}
    calls = []

    def successors(node):
        calls.append(node)
        return succ[node]

    order, index, rows = explore(["x", "a", "x"], successors)
    # The roots come first, a repeated root once; the rest in the order
    # they are first named, taking nodes in number order.
    assert order == ["x", "a", "d", "c", "b"]
    assert index == {node: i for i, node in enumerate(order)}
    # successors is called once per node, in number order.
    assert calls == order
    # Rows keep the order and the repeats of successors; self edges and
    # edges back to earlier nodes are numbered like any other.
    assert rows == [(2,), (3, 4), (1,), (), (4, 2, 3, 2)]


def test_explore_takes_successors_from_iterators():
    order, _, rows = explore([0], lambda n: iter(range(n + 1, min(n + 3, 5))))
    assert order == [0, 1, 2, 3, 4]
    assert rows == [(1, 2), (2, 3), (3, 4), (4,), ()]


def _numbered_as_first_named(rows) -> bool:
    """Reading the rows in order, each node first appears with the next
    unused number; node 0 is the start."""
    unused = 1
    for row in rows:
        for t in row:
            if t == unused:
                unused += 1
            elif t > unused:
                return False
    return True


# Formulas of the benchmark's compile pool, over two propositions.  The
# parity automata of the first four come from the compact-tree
# construction.  Those of the next three are read off a deterministic
# Buechi automaton at every threshold, and the last takes each path at
# some threshold.
_POOL = (
    "!(([(((!(x)))*)] (<((w))> !(!x))))",
    "!(([(((s) + ((s))*))] ([(((!o & s)))] (<((o))> s))))",
    "(<(((j) ; ((!(j)))*))> (([(((tt | !m)))] j) & ([((m))] !m)))",
    "([((((({(k | k)}?)* + (!k)) + ((tt | w))))*)] (<(((!(!w)) ; (!(!w))))> (!w | k)))",
    "(([((o))] x) -> x)",
    "!(([(((((!k & !k)) ; ((!w | k))) ; {(!w -> w)}?))] !(([((k))] w))))",
    "(<((((!a & !x)) ; (!(ff))))> (<(((!a & tt)))> x))",
    "([(((!u))*)] (!b -> (!b & u)))",
)


@pytest.mark.parametrize("text", _POOL)
def test_built_automata_and_games_are_numbered_as_first_named(text):
    phi = parse(text, LogicId.RLDL)
    props = tuple(sorted(propositions(phi)))
    letters = range(1 << len(props))
    graph = random_labeled_game(make_rng(len(text)), 6, props)
    for beta in POSITIVE_VALUES:
        nba = rldl_to_nba(phi, beta, props)
        assert nba.initial == 0
        assert _numbered_as_first_named(
            [[t for a in letters for t in nba.transitions[(q, a)]] for q in range(nba.n_states)]
        )
        dpa = rldl_to_dpa(phi, beta, props)
        assert dpa.initial == 0
        assert _numbered_as_first_named(dpa.delta)
        game, _ = reduce_game(graph, dpa, 0)
        assert _numbered_as_first_named([game.edges[v] for v in game.vertices])
        changes = dpa_with_changes(rldl_to_dpa(phi, beta, (*props, "c")), "c")
        assert changes.initial == 0
        assert _numbered_as_first_named(changes.delta)
        game, _ = _color_game(graph, changes, "c", 0)
        assert _numbered_as_first_named([game.edges[v] for v in game.vertices])
    guards = [f.guard for f in closure(phi) if isinstance(f, (Box, Diamond))]
    dfas = [determinize(g, props) for g in guards if not guard_tests(g)]
    assert dfas
    for d1 in dfas:
        for dfa in (d1, *(dfa_product(d1, d2) for d2 in dfas)):
            assert dfa.initial == 0
            assert _numbered_as_first_named(dfa.transitions)
