"""Reference implementations used only by the test suite.

brute_force_winner enumerates player 0's positional strategies and, for
each, asks whether the adversary can reach a cycle whose maximal color is
odd in the strategy-restricted graph.  Positional determinacy of parity
games makes this exact.

unpruned_apa_to_nba is the plain breakpoint construction: every choice of
one minimal model per active state gives a successor, with no pruning of
dominated successors.

full_alphabet_mc_witness is the model check over the union of the
formula's and the system's propositions: the system as a Buechi
automaton, intersected over the full product state space with the
complement automaton, then searched for emptiness.
"""

from __future__ import annotations

import itertools


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


def unpruned_apa_to_nba(a):
    """Breakpoint NBA over all (slice, owing) successors of every letter."""
    from robusttl.apa import pb_models
    from robusttl.guards import all_letters
    from robusttl.omega import NBA

    letters = all_letters(a.props)
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
            model_lists = [pb_models(a.delta[(q, letter)]) for q in active]
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


def full_alphabet_mc_witness(ts, phi, beta):
    """A lasso of the system below the threshold, or None when it holds."""
    from robusttl.apa import apa_complement, from_rldl
    from robusttl.formulas import propositions
    from robusttl.modelcheck import ts_to_nba
    from robusttl.omega import apa_to_nba, nba_emptiness, nba_intersection

    props = sorted(propositions(phi) | ts.propositions)
    bad = apa_to_nba(apa_complement(from_rldl(phi, beta, props)))
    return nba_emptiness(nba_intersection(ts_to_nba(ts, props), bad))
