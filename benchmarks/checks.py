"""Independent checks of the benchmark's answers, and their self-tests.

The checks read the rendered answers with the benchmark's own readers
(HOA, lasso, system, arena and strategy text) and compare them with the
oracle evaluator of `robusttl.semantics`, with hand-derived verdicts, or
with properties every correct answer has: determinism and completeness
of a parity automaton, threshold monotonicity, closed strategies, even
cycles in player 0's parity region.  None compares with a stored copy of
an earlier output.  Each check raises `CheckFailed` on the first fault.
"""
from __future__ import annotations

import itertools
import random
import re

import robusttl as rt
from robusttl.formulas import LogicId
from robusttl.traces import LassoTrace
from robusttl.truth import from_string

import workloads as W

WALKS = 6
ADVERSARIES = 4
PROMPT_BOUNDS = range(9)
# Walks and adversaries are drawn from a fixed seed: the instances differ
# between rounds and run seeds only by renamed letters, so the checks do too.
CHECK_SEED = 1


class CheckFailed(Exception):
    """An answer is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- lassos ------------------------------------------------------------------

_LETTER = re.compile(r"\{([^{}]*)\}")


def read_letters(text: str) -> tuple:
    return tuple(
        frozenset(p.strip() for p in body.split(",") if p.strip())
        for body in _LETTER.findall(text)
    )


def read_lasso(text: str) -> LassoTrace:
    prefix, sep, loop = text.partition(";")
    expect(sep == ";" and ";" not in loop, f"malformed lasso {text!r}")
    letters = read_letters(loop)
    expect(bool(letters), f"lasso without loop {text!r}")
    return LassoTrace(read_letters(prefix), letters)


def same_word(trace: LassoTrace):
    """The same infinite word written as two other lassos."""
    prefix, loop = trace.prefix, trace.loop
    yield LassoTrace(prefix, loop + loop)
    yield LassoTrace(prefix + loop[:1], loop[1:] + loop[:1])


# -- systems and arenas ------------------------------------------------------


def read_graph(text: str):
    """(initial state, owners, labels, successors) of a transition-system
    or labeled-arena text; systems have no owners, arenas no initial."""
    labels: dict = {}
    succs: dict = {}
    owner: dict = {}
    initial = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition("{")
        words = head.split()
        if words[0] in ("state", "v"):
            name = words[1]
            labels[name] = read_letters("{" + rest)[0]
            succs[name] = []
            if words[0] == "v":
                owner[name] = int(words[2])
            elif words[2:] == ["init"]:
                initial = name
        else:
            succs[words[1]].append(words[2])
    return initial, owner, labels, succs


def is_path(text: str, trace: LassoTrace) -> bool:
    """Whether some infinite path of the system spells the lasso: in the
    product of system states and lasso positions, the start node must
    survive peeling off every node without successors."""
    initial, _owner, labels, succs = read_graph(text)

    def nxt(node):
        state, pos = node
        pos2 = trace.canonical_index(pos + 1)
        letter = trace.letter_at(pos2)
        return [(s2, pos2) for s2 in succs[state] if labels[s2] == letter]

    start = (initial, 0)
    if labels[initial] != trace.letter_at(0):
        return False
    graph = {start: nxt(start)}
    work = [start]
    while work:
        for s in graph[work.pop()]:
            if s not in graph:
                graph[s] = nxt(s)
                work.append(s)
    out = {node: len(succ) for node, succ in graph.items()}
    preds: dict = {node: [] for node in graph}
    for node, succ in graph.items():
        for s in succ:
            preds[s].append(node)
    dead = [node for node, d in out.items() if d == 0]
    removed = set()
    while dead:
        node = dead.pop()
        removed.add(node)
        for p in preds[node]:
            out[p] -= 1
            if out[p] == 0:
                dead.append(p)
    return start not in removed


def random_lassos(rng: random.Random, start, labels, succs, count: int):
    """Lassos of random walks from start, each stopped at its first
    repeated state."""
    out = []
    for _ in range(count):
        seen: dict = {}
        path = []
        v = start
        while v not in seen:
            seen[v] = len(path)
            path.append(v)
            v = rng.choice(succs[v])
        i = seen[v]
        letters = [labels[x] for x in path]
        out.append(LassoTrace(tuple(letters[:i]), tuple(letters[i:])))
    return out


# -- HOA reader ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|(@[\w-]+)|(Inf|Fin|t|f)\b|([!&|()]))")


def _tokens(text: str) -> list:
    out = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        expect(m is not None and m.end() > pos, f"bad HOA expression {text!r}")
        out.append(next(g for g in m.groups() if g is not None))
        pos = m.end()
    return out


class _Expr:
    """Boolean expression over HOA atoms: label atoms are AP indices or
    aliases; acceptance atoms are Inf(i), Fin(i), Inf(!i), Fin(!i)."""

    def __init__(self, text: str, aliases=None):
        self.tokens = _tokens(text)
        self.pos = 0
        self.aliases = aliases or {}
        self.tree = self.disj()
        expect(self.pos == len(self.tokens), f"trailing HOA input {text!r}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, want=None):
        tok = self.peek()
        expect(tok is not None and (want is None or tok == want),
               f"HOA expression: expected {want!r}, found {tok!r}")
        self.pos += 1
        return tok

    def disj(self):
        parts = [self.conj()]
        while self.peek() == "|":
            self.take()
            parts.append(self.conj())
        return ("or", parts) if len(parts) > 1 else parts[0]

    def conj(self):
        parts = [self.unary()]
        while self.peek() == "&":
            self.take()
            parts.append(self.unary())
        return ("and", parts) if len(parts) > 1 else parts[0]

    def unary(self):
        tok = self.take()
        if tok == "!":
            return ("not", self.unary())
        if tok == "(":
            inner = self.disj()
            self.take(")")
            return inner
        if tok in ("t", "f"):
            return ("const", tok == "t")
        if tok in ("Inf", "Fin"):
            self.take("(")
            negated = self.peek() == "!"
            if negated:
                self.take()
            mark = int(self.take())
            self.take(")")
            return (tok, mark, negated)
        if tok.startswith("@"):
            expect(tok in self.aliases, f"unknown HOA alias {tok}")
            return self.aliases[tok]
        return ("ap", int(tok))


def _holds(tree, env) -> bool:
    kind = tree[0]
    if kind == "or":
        return any(_holds(t, env) for t in tree[1])
    if kind == "and":
        return all(_holds(t, env) for t in tree[1])
    if kind == "not":
        return not _holds(tree[1], env)
    if kind == "const":
        return tree[1]
    if kind == "ap":
        return tree[1] in env
    # Acceptance atom; env is the list of mark sets seen on the cycle.
    _, mark, negated = tree
    hits = [(mark in marks) != negated for marks in env]
    return any(hits) if kind == "Inf" else not any(hits)


def read_hoa(text: str) -> dict:
    header, sep, body = text.partition("--BODY--")
    expect(sep != "" and body.rstrip().endswith("--END--"), "HOA body missing")
    aut = {"aliases": {}, "start": None, "ap": None, "acc": None}
    for line in header.splitlines():
        key, _, value = line.partition(":")
        value = value.strip()
        if key == "HOA":
            expect(value == "v1", "not HOA v1")
        elif key == "States":
            aut["n"] = int(value)
        elif key == "Start":
            expect(aut["start"] is None, "several start states")
            aut["start"] = int(value)
        elif key == "AP":
            count, *names = value.split()
            aut["ap"] = [n.strip('"') for n in names]
            expect(len(aut["ap"]) == int(count), "AP count mismatch")
        elif key == "Alias":
            name, expr = value.split(None, 1)
            aut["aliases"][name] = _Expr(expr, aut["aliases"]).tree
        elif key == "Acceptance":
            _count, expr = value.split(None, 1)
            aut["acc"] = _Expr(expr).tree
    expect(None not in (aut["start"], aut["ap"], aut["acc"]), "HOA header incomplete")
    states: dict = {}
    current = None
    for line in body.rstrip()[: -len("--END--")].splitlines():
        line = line.strip()
        if not line:
            continue
        marks_text = ""
        if line.endswith("}"):
            line, _, marks_text = line.rpartition("{")
            marks_text = marks_text[:-1]
        marks = frozenset(int(m) for m in marks_text.split())
        if line.startswith("State:"):
            fields = line[len("State:"):].split()
            expect(not fields[1:] or fields[1].startswith('"'),
                   "state labels are not supported")
            current = int(fields[0])
            states[current] = (marks, [])
        else:
            expect(line.startswith("[") and current is not None,
                   f"unlabeled or stray edge {line!r}")
            label, _, dst = line[1:].partition("]")
            states[current][1].append(
                (_Expr(label, aut["aliases"]).tree, int(dst), marks))
    expect(len(states) == aut["n"] == len(set(states)), "state count mismatch")
    expect(all(
        0 <= dst < aut["n"] for _m, edges in states.values() for _l, dst, _e in edges
    ), "edge to an unknown state")
    aut["states"] = states
    return aut


def hoa_letters(aut):
    n = len(aut["ap"])
    return [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(1 << n)]


def check_deterministic_complete(aut) -> None:
    for q, (_marks, edges) in aut["states"].items():
        for letter in hoa_letters(aut):
            hits = sum(1 for label, _dst, _m in edges if _holds(label, letter))
            expect(hits == 1, f"state {q}: {hits} edges for letter {sorted(letter)}")


def hoa_accepts(aut, trace: LassoTrace) -> bool:
    index = {name: i for i, name in enumerate(aut["ap"])}
    expect(trace.propositions <= set(index), "lasso outside the AP")
    seen: dict = {}
    marks_seen = []
    q, pos = aut["start"], 0
    while (q, pos) not in seen:
        seen[(q, pos)] = len(marks_seen)
        letter = frozenset(index[p] for p in trace.letter_at(pos))
        state_marks, edges = aut["states"][q]
        dst, edge_marks = next(
            (dst, m) for label, dst, m in edges if _holds(label, letter)
        )
        marks_seen.append(state_marks | edge_marks)
        q, pos = dst, trace.canonical_index(pos + 1)
    return _holds(aut["acc"], marks_seen[seen[(q, pos)]:])


# -- per-workload checks -------------------------------------------------------


def _groups(pool, answers):
    groups: dict = {}
    for q, a in zip(pool, answers):
        if a is not None:
            groups.setdefault(q.group, []).append((q, a))
    return groups.values()


def _monotone(verdicts, what: str) -> None:
    """verdicts: (beta, holds) in ascending beta order."""
    for (lo, low), (hi, high) in itertools.pairwise(verdicts):
        expect(low or not high, f"{what} at {hi} but not at {lo}")


def check_compile(group, _rng) -> None:
    phi = rt.parse(group[0][0].formula, LogicId.RLDL)
    lassos = [read_lasso(text) for text in group[0][0].lassos]
    values = [rt.eval_rldl(t, phi) for t in lassos]
    accepted = []
    for q, answer in group:
        aut = read_hoa(answer)
        check_deterministic_complete(aut)
        beta = from_string(q.beta)
        row = []
        for trace, value in zip(lassos, values):
            got = hoa_accepts(aut, trace)
            expect(got == (value >= beta),
                   f"{q.formula} @{q.beta} on {trace}: automaton {got}, oracle {value}")
            row.append(got)
        accepted.append((q.beta, row))
    for i in range(len(lassos)):
        _monotone([(b, row[i]) for b, row in accepted], "accepted")


def read_verdict(answer: str):
    lines = answer.splitlines()
    m = re.fullmatch(r"holds(?: \(bound (\d+)\))?", lines[0])
    if m:
        return True, (int(m.group(1)) if m.group(1) else None), None
    expect(lines[0] == "violated", f"unknown verdict {lines[0]!r}")
    expect(len(lines) == 2 and lines[1].startswith("counterexample: "),
           "violated without a counterexample")
    return False, None, read_lasso(lines[1][len("counterexample: "):])


def _robust_value(logic: str, trace, phi, k):
    if logic == "rldl":
        return rt.eval_rldl(trace, phi)
    if logic == "rpromptltl":
        # On a lasso of n positions every Fp that holds is met within n
        # steps, so the value at any bound k >= n equals the value at n.
        # A prompt diamond's regular guard can first match beyond n steps,
        # so prompt LDL is evaluated at k itself.
        k = min(k, trace.positions)
    return rt.evaluate(trace, phi, LogicId(logic), k)


def check_mc(group, rng: random.Random) -> None:
    first = group[0][0]
    phi = rt.parse(first.formula, LogicId(first.kind))
    initial, _owner, labels, succs = read_graph(first.text)
    walks = random_lassos(rng, initial, labels, succs, WALKS)
    verdicts = []
    for q, answer in group:
        beta = from_string(q.beta)
        holds, bound, cex = read_verdict(answer)
        if q.expected is not None:
            expect(holds == q.expected, f"{q.formula} @{q.beta}: verdict {holds}")
        prompt = q.kind != "rldl"
        if holds:
            expect(not prompt or bound is not None, "prompt verdict without bound")
            for trace in walks:
                value = _robust_value(q.kind, trace, phi, bound)
                expect(value >= beta, f"{q.formula} @{q.beta} holds but {trace} has {value}")
        else:
            expect(is_path(q.text, cex), f"counterexample {cex} is not a path")
            for k in PROMPT_BOUNDS if prompt else (None,):
                value = _robust_value(q.kind, cex, phi, k)
                expect(not value >= beta,
                       f"counterexample {cex} meets {q.beta} (value {value}, k={k})")
        verdicts.append((q.beta, holds))
    _monotone(verdicts, "holds")


def read_strategy(answer: str):
    lines = answer.splitlines()
    m = re.fullmatch(r"winner: ([01])(?: \(bound (\d+)\))?", lines[0])
    expect(m is not None, f"unknown winner line {lines[0]!r}")
    if m.group(1) == "1":
        expect(len(lines) == 1, "strategy printed for player 1")
        return 1, None, None
    bound = int(m.group(2)) if m.group(2) else None
    expect(len(lines) >= 2 and lines[1].startswith("initial "), "strategy missing")
    initial = lines[1][len("initial "):]
    table = {}
    for line in lines[2:]:
        left, _, right = line.partition(" -> ")
        memory, _, vertex = left.partition(", ")
        memory2, _, move = right.partition(", ")
        table[(memory, vertex)] = (memory2, None if move == "-" else move)
    return 0, bound, (initial, table)


def play(owner, succs, strategy, vertex, adversary):
    """Check that the strategy is closed from vertex, then return the
    lasso of vertices its play against the adversary visits."""
    initial, table = strategy
    reached = {(initial, vertex)}
    work = [(initial, vertex)]
    while work:
        m, v = work.pop()
        expect((m, v) in table, f"strategy undefined at memory {m}, vertex {v}")
        m2, move = table[(m, v)]
        if owner[v] == 0:
            expect(move in succs[v], f"illegal move {v} -> {move}")
            nexts = [move]
        else:
            nexts = succs[v]
        for v2 in nexts:
            if (m2, v2) not in reached:
                reached.add((m2, v2))
                work.append((m2, v2))
    seen: dict = {}
    path = []
    m, v = initial, vertex
    while (m, v) not in seen:
        seen[(m, v)] = len(path)
        path.append(v)
        m2, move = table[(m, v)]
        m, v = m2, (move if owner[v] == 0 else adversary[v])
    return path, seen[(m, v)]


def check_synth(group, rng: random.Random) -> None:
    first = group[0][0]
    phi = rt.parse(first.formula, LogicId(first.kind))
    _initial, owner, labels, succs = read_graph(first.text)
    adversaries = [
        {v: rng.choice(succs[v]) for v in owner} for _ in range(ADVERSARIES)
    ]
    verdicts = []
    for q, answer in group:
        beta = from_string(q.beta)
        winner, bound, strategy = read_strategy(answer)
        if q.expected is not None:
            expect((winner == 0) == q.expected, f"{q.formula} @{q.beta}: winner {winner}")
        if winner == 0:
            expect(q.kind == "rldl" or bound is not None, "prompt win without bound")
            for adversary in adversaries:
                path, loop = play(owner, succs, strategy, q.vertex, adversary)
                letters = [labels[v] for v in path]
                trace = LassoTrace(tuple(letters[:loop]), tuple(letters[loop:]))
                value = _robust_value(q.kind, trace, phi, bound)
                expect(value >= beta, f"{q.formula} @{q.beta}: play {trace} has {value}")
        verdicts.append((q.beta, winner == 0))
    _monotone(verdicts, "player 0 wins")


def _sccs(nodes, succ):
    """Strongly connected components, iterative Tarjan."""
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _cycles_have_parity(region, moves, color, parity) -> bool:
    """Whether every cycle inside region along moves has a top color of
    the given parity.  A nontrivial SCC holds a cycle through its top
    color; cycles that avoid that color lie in what remains without it."""
    work = [set(region)]
    while work:
        sub = work.pop()

        def succ(v, sub=sub):
            return [w for w in moves[v] if w in sub]

        for comp in _sccs(sub, succ):
            if len(comp) == 1 and comp[0] not in succ(comp[0]):
                continue
            top = max(color[v] for v in comp)
            if top % 2 != parity:
                return False
            rest = {v for v in comp if color[v] != top}
            if rest:
                work.append(rest)
    return True


def check_parity_solution(game, win0, win1, strat0, strat1) -> None:
    vertices = set(game.vertices)
    expect(win0 | win1 == vertices and not win0 & win1, "regions do not partition")
    for region, strat, player in ((win0, strat0, 0), (win1, strat1, 1)):
        moves = {}
        for v in region:
            if game.owner[v] == player:
                move = strat.get(v)
                expect(move in game.edges[v] and move in region,
                       f"player {player} strategy leaves its region at {v!r}")
                moves[v] = (move,)
            else:
                expect(all(w in region for w in game.edges[v]),
                       f"opponent escapes player {player}'s region at {v!r}")
                moves[v] = game.edges[v]
        expect(_cycles_have_parity(region, moves, game.color, player),
               f"player {player}'s region has a cycle of the wrong parity")


def solve_recorded(pool, answer) -> list:
    """Answer every query again with `solve_parity` recorded; returns the
    (game, result) pairs."""
    import robusttl.games as games

    solved = []
    original = games.solve_parity

    def recorded(game):
        result = original(game)
        solved.append((game, result))
        return result

    games.solve_parity = recorded
    try:
        for q in pool:
            answer(q)
    finally:
        games.solve_parity = original
    return solved


_CHAIN = {str(v): v for v in rt.ALL_VALUES}


def read_value(logic: str, answer: str):
    text = answer.strip()
    if logic.startswith("r"):
        expect(text in _CHAIN, f"{text!r} is not in the five-valued chain")
        return _CHAIN[text]
    expect(text in ("0", "1"), f"{text!r} is not a boolean value")
    return int(text)


def _prompt_in_test(text: str) -> bool:
    """Whether a prompt diamond occurs inside a test.  Under a box such a
    test holds at more positions as k grows, which adds obligations, so
    the value may drop: `[{<p !p> p}?] q` is 1 at k=0 and can be 0 at
    k=1.  Values are monotone in k only without such tests."""
    depth = 0
    for i, ch in enumerate(text):
        depth += {"{": 1, "}": -1}.get(ch, 0)
        if depth and text.startswith("<p ", i):
            return True
    return False


def check_eval(group, _rng) -> None:
    for q, answer in group:
        logic = LogicId(q.kind)
        value = read_value(q.kind, answer)
        phi = rt.parse(q.formula, logic)
        trace = read_lasso(q.text)
        for other in same_word(trace):
            again = rt.evaluate(other, phi, logic, q.k)
            expect(again == value, f"{q.formula} on {q.text}: {value}, as {other}: {again}")
        if logic == LogicId.RPROMPT_LTL:
            for beta in map(from_string, W.POSITIVE):
                plain = rt.eval_prompt_ltl(trace, q.k, rt.rprompt_to_prompt(phi, beta))
                expect(bool(plain) == (value >= beta),
                       f"{q.formula} at k={q.k}: {value} vs derobustified {beta}: {plain}")
        if q.k is not None and not _prompt_in_test(q.formula):
            later = rt.evaluate(trace, phi, logic, q.k + 1)
            expect(later >= value, f"{q.formula}: value drops from k={q.k} to k={q.k + 1}")


CHECKS = {
    "compile": check_compile,
    "mc": check_mc,
    "synth": check_synth,
    "eval": check_eval,
}


def check_all(workload: str, pool, answers) -> tuple[list[str], set]:
    """Every fault found, as messages, and the groups of known-fault
    queries that failed their check as expected."""
    rng = random.Random(CHECK_SEED)
    faults = []
    known = set()
    for group in _groups(pool, answers):
        try:
            CHECKS[workload](group, rng)
        except CheckFailed as exc:
            if all(q.known_fault for q, _answer in group):
                known.add(group[0][0].group)
            else:
                faults.append(str(exc))
    if workload == "synth":
        solved = solve_recorded(pool, W.ANSWERS["synth"])
        if not solved:
            faults.append("no parity game was solved")
        for game, result in solved:
            try:
                check_parity_solution(game, *result)
            except CheckFailed as exc:
                faults.append(str(exc))
    return faults, known


# -- self-tests: every check must reject a corrupted answer -------------------


def _complement_acceptance(answer: str) -> str:
    """Dualize the Acceptance formula: Inf <-> Fin, & <-> |, t <-> f."""
    swap = {"Inf": "Fin", "Fin": "Inf", "&": "|", "|": "&", "t": "f", "f": "t"}
    lines = answer.split("\n")
    for i, line in enumerate(lines):
        if line.startswith("Acceptance: "):
            count, expr = line[len("Acceptance: "):].split(" ", 1)
            expr = re.sub(r"Inf|Fin|[&|]|\bt\b|\bf\b", lambda m: swap[m.group()], expr)
            lines[i] = f"Acceptance: {count} {expr}"
    return "\n".join(lines)


def _flip_verdict(answer: str) -> str:
    return "violated\n" if answer.startswith("holds") else "holds\n"


def _illegal_move(q, answer: str) -> str | None:
    _initial, owner, _labels, succs = read_graph(q.text)
    lines = answer.split("\n")
    for i, line in enumerate(lines):
        left, arrow, right = line.partition(" -> ")
        vertex = left.partition(", ")[2]
        if not arrow or right.endswith(", -") or owner.get(vertex) != 0:
            continue
        bad = next((v for v in owner if v not in succs[vertex]), None)
        if bad is not None:
            lines[i] = f"{left} -> {right.partition(', ')[0]}, {bad}"
            return "\n".join(lines)
    return None


def _changed_value(q, answer: str) -> str:
    text = answer.strip()
    if q.kind.startswith("r"):
        chain = list(_CHAIN)
        return chain[(chain.index(text) + 1) % len(chain)] + "\n"
    return ("0" if text == "1" else "1") + "\n"


def self_test(workload: str, pool, answers) -> list[str]:
    """Corrupt one answer of each kind the checks guard and make sure the
    check rejects it; returns the corruptions that went unnoticed."""
    check = CHECKS[workload]
    missed = []
    for group in _groups(pool, answers):
        q, answer = group[0]
        if workload == "compile":
            bad = _complement_acceptance(answer)
        elif workload == "mc" and q.expected is not None:
            bad = _flip_verdict(answer)
        elif workload == "synth" and answer.startswith("winner: 0"):
            bad = _illegal_move(q, answer)
        elif workload == "eval":
            bad = _changed_value(q, answer)
        else:
            continue
        if bad is None:
            continue
        try:
            check([(q, bad)], random.Random(CHECK_SEED))
        except CheckFailed:
            return missed
        missed.append(f"{workload}: corrupted answer to {q.formula!r} passed the checks")
        return missed
    return [f"{workload}: no answer to corrupt"]


def self_test_parity(pool) -> list[str]:
    """The parity check must reject a solution with the regions swapped."""
    for game, (win0, win1, strat0, strat1) in solve_recorded(pool[:1], W.ANSWERS["synth"]):
        try:
            check_parity_solution(game, win1, win0, strat1, strat0)
        except CheckFailed:
            return []
    return ["synth: a parity solution with swapped regions passed the checks"]
