"""Seeded inputs and timed queries for the four benchmark workloads.

Every input is drawn here, as text, from fixed seeds, and renamed in each
round by an alphabet automorphism drawn from the run seed and the round
index; nothing comes from `robusttl.gen`, so no change to the program can
change a workload.  A query is one request as the CLI would serve it:
text inputs go through the library's public functions and the answer is
rendered the way `robusttl` prints it.
"""
from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, replace

import robusttl as rt
from robusttl.formulas import LogicId
from robusttl.traces import format_trace
from robusttl.truth import from_string

PQ = ("p", "q")
PQRS = ("p", "q", "r", "s")
POSITIVE = ("0001", "0011", "0111", "1111")
THRESHOLDS = ("0000", *POSITIVE)
LOGICS = tuple(logic.value for logic in LogicId)


@dataclass(frozen=True)
class Query:
    kind: str  # which library entry point serves the query
    formula: str
    beta: str | None = None  # threshold, four bits
    text: str | None = None  # trace, transition system or labeled game
    vertex: str | None = None
    k: int | None = None
    group: int = 0  # queries that differ only in beta share a group
    expected: bool | None = None  # hand-derived verdict of a curated instance
    lassos: tuple = ()  # lassos the compile check runs through the answer
    props: tuple = ()  # propositions the automorphisms rename
    known_fault: bool = False  # fails its check through a recorded fault


# -- formula text ------------------------------------------------------------
#
# The operator mix follows the criterion-3 corpus: propositional leaves
# (tt/ff 5% each, literals otherwise), unary, binary and guarded operators
# drawn uniformly with guarded ones counted twice, guards built from stars,
# concatenations, unions, tests and propositional atoms.

_UNARY = {"!": "{}", "X": "X {}", "F": "F {}", "G": "G {}", "Fp": "Fp {}"}
_BINARY = {"&": "({} & {})", "|": "({} | {})", "->": "({} -> {})",
           "U": "({} U {})", "R": "({} R {})"}
_SURFACE = {
    "ltl": ("!", "X", "F", "G", "&", "|", "->", "U", "R"),
    "ldl": ("!", "&", "|", "->", "<>", "[]"),
    "promptltl": ("X", "F", "G", "Fp", "&", "|", "U", "R"),
    "promptldl": ("&", "|", "<>", "[]", "<p>"),
    "rltl": ("!", "F", "G", "&", "|", "->"),
    "rpromptltl": ("F", "G", "Fp", "&", "|"),
    "rldl": ("!", "&", "|", "->", "<>", "[]"),
    "rpromptldl": ("&", "|", "<>", "[]", "<p>"),
}


def literal(rng: random.Random, props) -> str:
    name = rng.choice(props)
    return name if rng.random() < 0.5 else "!" + name


def prop_text(rng: random.Random, props, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.6:
        roll = rng.random()
        if roll < 0.05:
            return "tt"
        if roll < 0.1:
            return "ff"
        name = rng.choice(props)
        return name if roll < 0.6 else "!" + name
    op = rng.choice("&|!")
    if op == "!":
        return "!(" + prop_text(rng, props, depth - 1) + ")"
    left = prop_text(rng, props, depth - 1)
    return f"({left} {op} {prop_text(rng, props, depth - 1)})"


def guard_text(rng: random.Random, props, budget: int, logic: str) -> str:
    if budget <= 1:
        if rng.random() < 0.2:
            return "{" + formula_text(rng, logic, 2, props) + "}?"
        return "(" + prop_text(rng, props, 1) + ")"
    roll = rng.random()
    if roll < 0.3:
        return "(" + guard_text(rng, props, budget - 1, logic) + ")*"
    if roll < 0.8:
        op = ";" if roll < 0.6 else "+"
        split = rng.randint(1, budget - 1)
        left = guard_text(rng, props, split, logic)
        return f"({left} {op} {guard_text(rng, props, budget - split, logic)})"
    return guard_text(rng, props, 1, logic)


def formula_text(rng: random.Random, logic: str, budget: int, props) -> str:
    """A random formula of the logic with about `budget` operators."""
    if budget <= 1:
        return prop_text(rng, props, 0)
    ops = _SURFACE[logic]
    choices = [op for op in ops if op in _UNARY or op in _BINARY]
    choices += [op for op in ops if op in ("<>", "[]", "<p>") for _ in range(2)]
    op = rng.choice(choices)
    if op in _UNARY:
        arg = formula_text(rng, logic, budget - 1, props)
        return _UNARY[op].format("!(" + arg + ")" if op == "!" else arg)
    if op in _BINARY:
        split = rng.randint(1, budget - 1)
        return _BINARY[op].format(
            formula_text(rng, logic, split, props),
            formula_text(rng, logic, budget - split, props),
        )
    g_budget = max(1, (budget - 1) // 2)
    guard = guard_text(rng, props, g_budget, logic)
    arg = formula_text(rng, logic, budget - 1 - g_budget, props)
    opener = {"<>": "<(", "[]": "[(", "<p>": "<p ("}[op]
    closer = "]" if op == "[]" else ">"
    return f"({opener}{guard}){closer} {arg})"


# Fresh one-letter proposition names: no `p`, which also opens a prompt
# diamond (`<p`), and no `f` or `t`, which read like the constants.
NAMES = "abcdeghijklmnoqrsuvwxyz"
SOURCE_PROPS = ("p", "q", "r", "s")  # the names instances are drawn with
_BRACES = re.compile(r"\{([^{}]*)\}")


def letter_text(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


class Automorphism:
    """A bijection from the source propositions onto fresh names followed
    by the negation of some of them: an isomorphism of the alphabet
    2^props.  Applied to a formula and to every letter of the texts it is
    answered and checked on, it renames letters and changes no automaton,
    game or verdict beyond that renaming."""

    def __init__(self, rng: random.Random, props):
        self.perm = dict(zip(props, rng.sample(NAMES, len(props))))
        self.flip = frozenset(n for n in self.perm.values() if rng.random() < 0.5)
        # `<p ` opens a prompt diamond and is not a proposition.
        self._literal = re.compile(r"(!?)(?<!<)\b(" + "|".join(props) + r")\b")

    def letter(self, names) -> str:
        return letter_text(frozenset(self.perm[n] for n in names) ^ self.flip)

    def formula(self, text: str) -> str:
        def rename(match: re.Match) -> str:
            name = self.perm[match.group(2)]
            negated = bool(match.group(1)) != (name in self.flip)
            return "!" + name if negated else name

        return self._literal.sub(rename, text)

    def labels(self, text: str) -> str:
        """Rename every letter `{...}` of a lasso, system or arena text."""
        return _BRACES.sub(
            lambda m: self.letter(re.findall(r"\w+", m.group(1))), text)

    def query(self, q: Query) -> Query:
        return replace(
            q, formula=self.formula(q.formula),
            text=None if q.text is None else self.labels(q.text),
            lassos=tuple(self.labels(t) for t in q.lassos),
            props=tuple(self.perm[p] for p in q.props))


def props_of(formula: str, text: str = "") -> tuple:
    """The source propositions a curated instance mentions."""
    words = set(re.findall(r"(?<!<)\b\w+\b", formula))
    for body in _BRACES.findall(text):
        words.update(re.findall(r"\w+", body))
    return tuple(p for p in SOURCE_PROPS if p in words)


def letter_set(rng: random.Random, props) -> frozenset:
    return frozenset(p for p in props if rng.random() < 0.5)


def lasso_text(rng: random.Random, props, max_prefix=3, max_loop=3) -> str:
    def letter():
        return letter_text(letter_set(rng, props))

    prefix = [letter() for _ in range(rng.randint(0, max_prefix))]
    loop = [letter() for _ in range(rng.randint(1, max_loop))]
    return " ".join(prefix) + " ; " + " ".join(loop)


def _graph(rng: random.Random, n: int, props, node: str, edge: str) -> str:
    """A ring through all n nodes plus random chords, about three
    successors per node, random labels."""
    lines = [node.format(i=i, owner=rng.randint(0, 1),
                         label=letter_text(letter_set(rng, props)))
             for i in range(n)]
    for i in range(n):
        succs = {(i + 1) % n} | {j for j in range(n) if rng.random() < 2 / n}
        lines += [edge.format(i=i, j=j) for j in sorted(succs)]
    return "\n".join(lines) + "\n"


def system_text(rng, n, props) -> str:
    return _graph(rng, n, props, "state s{i} {label}", "edge s{i} s{j}") \
        .replace("state s0 ", "state s0 init ", 1)


def game_text(rng, n, props) -> str:
    """An arena; each vertex belongs to player 0 or 1 with equal odds."""
    return _graph(rng, n, props, "v v{i} {owner} {label}", "e v{i} v{j}")


def _fill(rng: random.Random, pattern: str, props) -> str:
    a = literal(rng, props)
    b = literal(rng, [p for p in props if p != a.lstrip("!")])
    return pattern.format(a=a, b=b)


# -- workloads ---------------------------------------------------------------
#
# The cost of a compile, check or game varies by orders of magnitude with
# the instance: one formula of the criterion-3 corpus takes 1 ms, another
# 18 s; one arena's prompt game takes twice as long as another's.  A fresh
# draw per seed would make every figure hinge on what the seed drew.  So
# every workload draws its instances once, from a fixed seed, with the
# source propositions p, q, r, s, and `rounds` renames each instance by
# its own automorphism in every round, drawn from the run seed and the
# round index.  A round never repeats the text of an earlier round's
# instance, so a cache across queries cannot turn a repeat into a hit; the
# work, and what the checks find, stay the same.  The lassos, walks and
# adversaries of the checks come with the instances in the same way.

# FORMULA_SEED was picked among draws without a formula of ten seconds or
# more: in its 64 formulas the costliest takes about two thirds of the time.
FORMULA_SEED = 17
FORMULAS = 64
CHECK_LASSOS = 6
RENAME_TRIES = 50


def compile_source(seed: int) -> list[Query]:
    fixed = random.Random(FORMULA_SEED)
    formulas = [formula_text(fixed, "rldl", fixed.randint(1, 12), PQ)
                for _ in range(FORMULAS)]
    instances = [
        (formula, tuple(lasso_text(fixed, PQ) for _ in range(CHECK_LASSOS)))
        for formula in formulas
    ]
    random.Random(seed).shuffle(instances)
    return [
        Query("compile", formula, beta, group=i, lassos=lassos, props=PQ)
        for i, (formula, lassos) in enumerate(instances)
        for beta in THRESHOLDS
    ]


# Specification patterns over literal slots a and b.
MC_PATTERNS = (
    "[tt*] {a}",  # safety
    "<tt*> {a}",  # reachability
    "[tt*] <tt*> {a}",  # recurrence
    "<tt*> [tt*] {a}",  # persistence
    "[tt*] ({a} -> <tt*> {b})",  # response
    "[tt*] ({a} -> <tt + tt ; tt> {b})",  # bounded response
)
PROMPT_PATTERNS = ("G Fp {a}", "Fp G {a}")
PROMPT_PROPS = ("r", "s")
MC_SEED = 1
MC_STATES = 8
PROMPT_STATES = 4

# Curated instances with verdicts derived by hand, taken from acceptance
# criteria 6 and 8: system, logic, formula, verdicts at 0001..1111.  The
# fragment instances whose relaxed automaton takes seconds are left out.
SYNC2 = "state a init { }\nstate b { s }\nedge a b\nedge b a\n"
CURATED = (
    ("state a init { p }\nstate b { }\nedge a b\nedge b b\n", "rldl",
     "[tt*] p", (True, False, False, False)),
    ("state a init { }\nstate b { p }\nedge a b\nedge b a\n", "rldl",
     "[tt*] p", (True, True, False, False)),
    ("state a init { }\nstate b { p }\nedge a a\nedge a b\nedge b b\n",
     "rldl", "<tt*> p", (False, False, False, False)),
    ("state a init { p }\nstate b { q }\nedge a b\nedge b a\n", "rldl",
     "[tt*] (p -> <tt*> q)", (True, True, True, True)),
    ("state a init { q }\nedge a a\n", "rldl", "[{q}? ; tt*] p",
     (False, False, False, False)),
    ("state a init { p }\nedge a a\n", "rldl", "[tt*] p",
     (True, True, True, True)),
    ("state a init { }\nstate b { p }\nedge a b\nedge b b\n", "rldl",
     "[tt*] p", (True, True, True, False)),
    ("state a init { p }\nstate b { }\nedge a a\nedge a b\nedge b b\n",
     "rldl", "[tt*] p", (True, False, False, False)),
    ("state a init { }\nstate b { p }\nedge a b\nedge b b\n", "rldl",
     "<tt*> p", (True, True, True, True)),
    ("state a init { p }\nedge a a\n", "rldl", "[tt*] (p -> <tt*> q)",
     (False, False, False, False)),
    ("state a init { }\nstate b { }\nstate c { p }\n"
     "edge a b\nedge b c\nedge c c\n", "rldl", "[tt*] p",
     (True, True, True, False)),
    ("state a init { }\nedge a a\n", "rldl", "[{q}? ; tt*] p",
     (True, True, True, True)),
    ("state e0 init { p }\nstate o0 { }\nstate e1 { p }\nstate o1 { }\n"
     "edge e0 o0\nedge o0 e1\nedge e1 o1\nedge o1 e0\n", "rldl",
     "[(tt;tt)*] p", (True, True, True, True)),
    ("state a init { s }\nstate b { }\nedge a b\nedge b b\n", "rpromptltl",
     "G Fp s", (True, False, False, False)),
    ("state a init { }\nstate b { s }\nedge a a\nedge a b\nedge b a\n",
     "rpromptltl", "G Fp s", (False, False, False, False)),
    ("state a init { }\nstate b { s }\nstate c { s }\nstate d { }\n"
     "edge a b\nedge a c\nedge b a\nedge c d\nedge d d\n", "rpromptltl",
     "G Fp s", (True, False, False, False)),
    (SYNC2, "rpromptldl", "[tt*] <p tt*> s", (True, True, True, True)),
    (SYNC2, "rpromptldl", "<p tt*> s", (True, True, True, True)),
    ("state a init { s }\nstate b { }\nedge a b\nedge b a\n", "rpromptldl",
     "[(tt;tt)*] s", (True, True, True, True)),
    (SYNC2, "rpromptldl", "<p (tt;tt)*> s", (False, False, False, False)),
)


def mc_source(_seed: int) -> list[Query]:
    fixed = random.Random(MC_SEED)
    pool: list[Query] = []

    def add(kind, formula, text, props, expected=(None,) * 4):
        group = len(pool)
        for beta, want in zip(POSITIVE, expected):
            pool.append(Query(kind, formula, beta, text, group=group,
                              expected=want, props=props))

    for states, props, patterns, logic in (
        (MC_STATES, PQRS, MC_PATTERNS, "rldl"),
        (PROMPT_STATES, PROMPT_PROPS, PROMPT_PATTERNS, "rpromptltl"),
    ):
        text = system_text(fixed, states, props)
        for pattern in patterns:
            add(logic, _fill(fixed, pattern, props), text, props)
    for text, logic, formula, verdicts in CURATED:
        add(logic, formula, text, props_of(formula, text), verdicts)
    return pool


SYNTH_PATTERNS = (
    ("rldl", "[tt*] {a}"),
    ("rldl", "<tt*> {a}"),
    ("rldl", "[tt*] <tt*> {a}"),
    ("rldl", "<tt*> [tt*] {a}"),
    ("rpromptltl", "G Fp {a}"),
)
# Curated arenas with winners derived by hand.  In the first, player 0
# keeps p recurring by moving from a to b; in the second, player 1 avoids
# p forever by moving to c.
SYNTH_CURATED = (
    ("v a 0 { }\nv b 1 { p }\nv c 1 { }\ne a b\ne a c\ne b a\ne c c\n",
     "[tt*] <tt*> p", (True, True, True, True)),
    ("v a 1 { }\nv b 0 { p }\nv c 0 { }\ne a b\ne a c\ne b b\ne c c\n",
     "<tt*> p", (False, False, False, False)),
)
SYNTH_SEED = 1
SYNTH_ARENAS = 6
PROMPT_ARENAS = 2  # the prompt pattern runs on the first two arenas only
SYNTH_VERTICES = 100


def synth_source(_seed: int) -> list[Query]:
    fixed = random.Random(SYNTH_SEED)
    pool: list[Query] = []
    for arena in range(SYNTH_ARENAS):
        text = game_text(fixed, SYNTH_VERTICES, PQ)
        for logic, pattern in SYNTH_PATTERNS:
            formula = _fill(fixed, pattern, PQ)
            if logic != "rldl" and arena >= PROMPT_ARENAS:
                continue
            group = len(pool)
            for beta in POSITIVE:
                pool.append(Query(logic, formula, beta, text, vertex="v0",
                                  group=group, props=PQ))
    for text, formula, wins in SYNTH_CURATED:
        group = len(pool)
        for beta, want in zip(POSITIVE, wins):
            pool.append(Query("rldl", formula, beta, text, vertex="a",
                              group=group, expected=want,
                              props=props_of(formula, text)))
    return pool


EVAL_SEED = 1
EVAL_QUERIES = 2400
# The oracle gives this word two values: 0111 written as below, 0011 with
# its first loop letter moved into the prefix (see CHANGES.md).  The query
# keeps its text in every round and seed, fails the lasso-rewriting check
# every time and counts as failed until the oracle is mended.
EVAL_FAULT = Query("rldl", "[q* + !p] <p> <tt> p", text="{} ; {p, q} {q} {p, q}",
                   group=EVAL_QUERIES, known_fault=True)


def eval_source(_seed: int) -> list[Query]:
    fixed = random.Random(EVAL_SEED)
    pool = []
    for i in range(EVAL_QUERIES):
        logic = LOGICS[i % len(LOGICS)]
        formula = formula_text(fixed, logic, fixed.randint(1, 8), PQ)
        trace = lasso_text(fixed, PQ)
        k = fixed.randint(0, 5) if "prompt" in logic else None
        pool.append(Query(logic, formula, text=trace, k=k, group=i, props=PQ))
    pool.append(EVAL_FAULT)
    return pool


SOURCES = {
    "compile": compile_source,
    "mc": mc_source,
    "synth": synth_source,
    "eval": eval_source,
}


def rounds(workload: str, seed: int):
    """The queries of each round, one list per round without end.  Each
    instance (the queries of a group) gets its own automorphism per round,
    redrawn while it renders text the instance had in an earlier round."""
    source = SOURCES[workload](seed)
    groups: dict = {}
    for q in source:
        groups.setdefault(q.group, []).append(q)
    seen: dict = {group: set() for group in groups}  # hashes of earlier texts
    for index in itertools.count():
        rng = random.Random(f"{workload}:{seed}:{index}")
        pool = []
        for group, queries in groups.items():
            if not queries[0].props:  # kept as written, such as EVAL_FAULT
                pool.extend(queries)
                continue
            for _ in range(RENAME_TRIES):
                auto = Automorphism(rng, queries[0].props)
                renamed = tuple(auto.query(q) for q in queries)
                if hash(renamed) not in seen[group]:
                    break
            seen[group].add(hash(renamed))
            pool.extend(renamed)
        yield pool


# -- the timed queries -------------------------------------------------------
#
# Library functions are looked up on the package at call time, so the
# tracer's wrappers see every call.


def answer_compile(q: Query) -> str:
    phi = rt.parse(q.formula, LogicId.RLDL)
    return rt.dpa_to_hoa(rt.rldl_to_dpa(phi, from_string(q.beta), q.props))


def answer_mc(q: Query) -> str:
    logic = LogicId(q.kind)
    phi = rt.parse(q.formula, logic)
    ts = rt.parse_transition_system(q.text)
    check = {
        LogicId.RLDL: rt.mc_rldl,
        LogicId.RPROMPT_LTL: rt.mc_rprompt_ltl,
        LogicId.RPROMPT_LDL: rt.mc_fragment,
    }[logic]
    result = check(ts, phi, from_string(q.beta))
    if result.holds:
        bound = "" if result.bound is None else f" (bound {result.bound})"
        return f"holds{bound}\n"
    out = "violated\n"
    if result.counterexample is not None:
        out += f"counterexample: {format_trace(result.counterexample)}\n"
    return out


def answer_synth(q: Query) -> str:
    logic = LogicId(q.kind)
    phi = rt.parse(q.formula, logic)
    graph = rt.parse_labeled_game(q.text)
    solve = rt.solve_rldl_game if logic == LogicId.RLDL else rt.solve_rprompt_game
    result = solve(graph, phi, from_string(q.beta), q.vertex)
    if result.winner != 0:
        return "winner: 1\n"
    bound = "" if result.bound is None else f" (bound {result.bound})"
    out = f"winner: 0{bound}\n"
    if result.strategy is not None:
        out += result.strategy.format() + "\n"
    return out


def answer_eval(q: Query) -> str:
    logic = LogicId(q.kind)
    phi = rt.parse(q.formula, logic)
    trace = rt.parse_trace(q.text)
    value = rt.evaluate(trace, phi, logic, q.k)
    return f"{value if logic.value.startswith('r') else int(value)}\n"


ANSWERS = {
    "compile": answer_compile,
    "mc": answer_mc,
    "synth": answer_synth,
    "eval": answer_eval,
}
