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
    from robusttl.guards import all_letters

    letters = all_letters(nba.props)
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
