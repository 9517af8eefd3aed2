from robusttl.gen import make_rng
from robusttl.graphs import least_priorities, sccs


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
