"""Graph routines shared by the automaton layers."""
from __future__ import annotations


def sccs(roots, successors) -> list[tuple]:
    """Strongly connected components by Tarjan's algorithm, iteratively.

    Searches from each root in turn, visiting a node's successors in the
    order ``successors(node)`` gives them; it is called once per node.
    A component comes out before every component that reaches it, its
    nodes in the order they leave the stack.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[tuple] = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        call = [(root, iter(successors(root)))]
        while call:
            node, succs = call[-1]
            for t in succs:
                if t not in index:
                    index[t] = low[t] = len(index)
                    stack.append(t)
                    on_stack.add(t)
                    call.append((t, iter(successors(t))))
                    break
                if t in on_stack:
                    low[node] = min(low[node], index[t])
            else:
                call.pop()
                if call:
                    parent = call[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    components.append(tuple(comp))
    return components
