from robusttl.gen import make_rng
from robusttl.graphs import sccs


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
