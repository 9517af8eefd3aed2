"""Graph routines shared by the layers: breadth-first numbering of the
nodes reachable from a start, strongly connected components, the search
for an accepting node on a cycle, least parity priorities, and the line
format that transition systems and game arenas are written in.

Every automaton, product and game of the package is built on the fly
(Gerth, Peled, Vardi and Wolper, PSTV 1995) by ``explore``: only the
nodes reachable from the start are made, and the numbers ``explore``
gives them are the state numbers of the automaton, the vertex numbers
of the game, the memory of a strategy and the count behind a prompt
bound.  So is every accepting-lasso search (``accepting_cycle``): model
checking, emptiness, lasso membership and the system-trace check.
"""
from __future__ import annotations

from .formulas import PROP_NAME


def explore(roots, successors) -> tuple[list, dict, list]:
    """Number the nodes reachable from roots, breadth-first.

    The roots are numbered 0, 1, ... in order, and every other node gets
    the next number when it is first named.  Nodes are taken in number
    order and ``successors(node)`` is called once for each; it may name a
    node more than once.  Returns (order, index, rows): order[i] is node
    i, index maps a node to its number, and rows[i] is the tuple of the
    numbers of node i's successors, in the order they were named.
    """
    order: list = []
    index: dict = {}
    for root in roots:
        if root not in index:
            index[root] = len(order)
            order.append(root)
    rows: list = []
    for node in order:  # grows while it is walked
        row = []
        for succ in successors(node):
            i = index.get(succ)
            if i is None:
                i = index[succ] = len(order)
                order.append(succ)
            row.append(i)
        rows.append(tuple(row))
    return order, index, rows


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
                if t in on_stack and index[t] < low[node]:
                    low[node] = index[t]
            else:
                call.pop()
                if call:
                    parent = call[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
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


def accepting_cycle(root, successors, accepting) -> tuple | None:
    """``explore``'s order and rows from root, with the number of the
    first accepting node that lies on a cycle, or None if none does.
    The strongly connected components tell which nodes lie on one."""
    order, _, rows = explore([root], successors)
    cyclic = {i for c in sccs([0], rows.__getitem__) if len(c) > 1 or c[0] in rows[c[0]] for i in c}
    target = next((i for i in sorted(cyclic) if accepting(order[i])), None)
    return None if target is None else (order, rows, target)


def tree_path(rows: list, target: int) -> list[int]:
    """The breadth-first path from node 0 to target in ``explore``'s
    rows, each node reached from the first node that names it: row p
    names first the numbers above those of the rows before it."""
    parent = [0]  # of each number named so far
    for p, row in enumerate(rows):
        if len(parent) > target:
            break
        parent += [p] * (max(row, default=0) + 1 - len(parent))
    path = [target]
    while path[-1]:
        path.append(parent[path[-1]])
    return path[::-1]


def least_priorities(succ: list, color: list) -> list[int]:
    """Least max-parity priorities that keep the parity of every cycle.

    Nodes are 0..n-1, succ[v] lists v's successors and color[v] its
    color.  The recursion of Carton and Maceiras on nested components:
    in each component that holds a cycle, the nodes of the top color are
    set aside and the rest is solved the same way; the top nodes then get
    the least number of the top's parity that is at least every priority
    below them.  A node of the rest on no cycle of its own lies on cycles
    of the component only through the top nodes, so any priority up to
    theirs will do; like a node on no cycle at all, it takes its first
    successor's priority, capped at the top's, with successors done
    first (0 when the successor is not done).  A cycle's top priority
    then has the parity of its top color, so a parity automaton
    recolored this way keeps its language, and a graph has a cycle with
    an odd top color exactly when some node gets an odd priority.
    """
    n = len(succ)
    prio = [-1] * n
    inside = bytearray(n)

    def successors(v):
        return [t for t in succ[v] if inside[t]]

    def components(nodes):
        """The components of the subgraph on nodes, successors first,
        and those among them that hold a cycle."""
        for v in nodes:
            inside[v] = 1
        comps = sccs(nodes, successors)
        cyclic = [c for c in comps if len(c) > 1 or c[0] in successors(c[0])]
        for v in nodes:
            inside[v] = 0
        return comps, cyclic

    def first_successor(v) -> int:
        return max(prio[succ[v][0]], 0) if succ[v] else 0

    order = sccs(range(n), succ.__getitem__)
    # Components are popped successors first.
    work = [c for c in reversed(order) if len(c) > 1 or c[0] in succ[c[0]]]
    while work:
        item = work.pop()
        if item[0] is None:  # the component below the top is done
            _, top, high, below = item
            least = max([0, *[prio[v] for v in below]])
            if (least ^ top) & 1:
                least += 1
            for v in high:
                prio[v] = least
            for v in below:
                if prio[v] < 0:
                    prio[v] = min(first_successor(v), least)
            continue
        top = max([color[v] for v in item])
        rest = [v for v in item if color[v] != top]
        comps, cyclic = components(rest) if rest else ((), ())
        below = [v for comp in comps for v in comp]
        work.append((None, top, [v for v in item if color[v] == top], below))
        work.extend(reversed(cyclic))
    for comp in order:
        for v in comp:
            if prio[v] < 0:
                prio[v] = first_successor(v)
    return prio


def read_graph_text(text: str, node_word: str, edge_word: str, noun: str,
                    error: type, node_fields) -> tuple:
    """Read the line format of transition systems and game arenas.

    A node line is `<node_word> <name> <words> { p, q }`, an edge line
    `<edge_word> <a> <b>`, and `#` starts a comment.  node_fields(name,
    words) is given the words between the name and the brace; it returns
    whether they are well formed, and may raise error itself.  Returns
    the node names in order, their labels, and each name's successors in
    the order of the edge lines.  A bad line raises error with a message
    that quotes it.

    Edge lines, most of the text, are split once and checked by two
    lookups; a label text seen before is not read again.
    """
    names: list = []
    labels: dict = {}
    succs: dict = {}
    label_of: dict = {}  # label text -> its checked set
    raws = text.splitlines()
    lines = [raw.split("#", 1)[0] for raw in raws] if "#" in text else raws
    for raw, line, parts in zip(raws, lines, map(str.split, lines)):
        if len(parts) == 3 and parts[0] == edge_word:
            _, src, dst = parts
            out = succs.get(src)
            if out is None or dst not in succs:
                msg = f"edge references unknown {noun}: {raw.strip()!r}"
                raise error(msg)
            out.append(dst)
        elif not parts:
            continue
        elif parts[0] == node_word:
            head, _, brace = line.strip()[len(node_word):].partition("{")
            tokens = head.split()
            brace = brace.rstrip()
            if not tokens or not brace.endswith("}") or not node_fields(tokens[0], tokens[1:]):
                msg = f"malformed {noun} line: {raw.strip()!r}"
                raise error(msg)
            name = tokens[0]
            if name in succs:
                msg = f"duplicate {noun} {name!r}"
                raise error(msg)
            label = label_of.get(brace)
            if label is None:
                label = [p.strip() for p in brace[:-1].split(",") if p.strip()]
                for p in label:
                    if not PROP_NAME.fullmatch(p):
                        msg = f"proposition name {p!r} is not an identifier: {raw.strip()!r}"
                        raise error(msg)
                label = label_of[brace] = frozenset(label)
            names.append(name)
            labels[name] = label
            succs[name] = []
        elif parts[0] == edge_word:
            msg = f"malformed edge line: {raw.strip()!r}"
            raise error(msg)
        else:
            msg = f"unrecognized line: {raw.strip()!r}"
            raise error(msg)
    return names, labels, {name: tuple(out) for name, out in succs.items()}
