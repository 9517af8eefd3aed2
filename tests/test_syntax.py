import copy
import gc
import os
import pickle
import re
import subprocess
import sys

import pytest

from robusttl.formulas import (
    Alt,
    Always,
    And,
    Atom,
    Box,
    Concat,
    Diamond,
    Eventually,
    Ff,
    Implies,
    LogicId,
    LogicViolationError,
    NegAtom,
    Next,
    Not,
    PromptDiamond,
    PromptEventually,
    Prop,
    Release,
    Star,
    Tt,
    Until,
    check_logic,
    closure,
    format_formula,
    format_guard,
    guard_length,
    guard_tests,
    is_propositional,
    prompt_positive,
    propositions,
    require_logic,
    size,
)
from robusttl.formulas import Test as GuardTest
from robusttl.gen import make_rng, random_formula
from robusttl.parser import FormulaSyntaxError, parse, parse_guard


@pytest.mark.parametrize(
    "text",
    [
        "tt",
        "ff",
        "p",
        "!p",
        "p & q | r",
        "p -> q -> r",
        "X p",
        "p U q",
        "p R q",
        "F G p",
        "G Fp s",
        "<tt*> p",
        "[ (tt;tt)* ] p",
        "<p (q;tt)* + ff> (p & q)",
        "[{p U q}? ; tt*] ff",
        "<p tt*> ff",
        # `<p` opens a prompt diamond iff the next token can start a guard
        # operand; each text below has only the one reading.  Diamonds:
        "<p*> q",
        "<p ; tt*> q",
        "<p> q",
        "<p | q> r",
        # prompt diamonds:
        "<p tt*> s",
        "<p (tt;tt)*> s",
        "<p !q> r",
        "<p {q}? ; tt*> r",
    ],
)
def test_parse_format_round_trip(text):
    phi = parse(text)
    assert parse(format_formula(phi)) == phi


def test_precedence():
    assert parse("p & q | r") == parse("(p & q) | r")
    assert parse("p -> q -> r") == parse("p -> (q -> r)")
    assert parse("p U q U r") == parse("p U (q U r)")
    assert parse("!p & q") == parse("(!p) & q")
    assert parse("G p | q") == parse("(G p) | q")


def test_guard_syntax():
    g = parse_guard("(p;q)* + {tt}?")
    assert g == Alt(Star(Concat(Prop(Atom("p")), Prop(Atom("q")))), GuardTest(Tt()))
    assert parse_guard(format_guard(g)) == g
    assert parse_guard("p ; q ; r") == parse_guard("(p ; q) ; r")
    assert parse_guard("p + q ; r") == parse_guard("p + (q ; r)")


def test_compound_prop_guard_atoms_round_trip():
    g = Star(Prop(Not(Atom("t"))))
    assert format_guard(g) == "(!t)*"
    # Reparsing gives the same guard language even if !t normalizes.
    assert format_guard(parse_guard(format_guard(g))) == "(!t)*"


# Each malformed text with its message; positions are those of the
# token's first character.
_SYNTAX_ERRORS = {
    "": "expected a formula but found 'end of input' at position 0",
    "p &": "expected a formula but found 'end of input' at position 3",
    "(p": "expected ')' but found 'end of input' at position 2",
    "<tt* p": "expected '>' but found 'p' at position 5",
    "[tt*]": "expected a formula but found 'end of input' at position 5",
    "p q": "unexpected trailing input 'q' at position 2",
    "{p?": "expected a formula but found '{' at position 0",
    "Fp": "expected a formula but found 'end of input' at position 2",
    "p +": "unexpected trailing input '+' at position 2",
    "<>p": "expected a guard but found '>' at position 1",
    "p  #": "unexpected character '#' at position 3",
    # After `<p`, a token that can start a guard opens a prompt diamond.
    "<p tt* q": "expected '>' but found 'q' at position 7",
    "<(p ; q) & r> s": "guard expression cannot be used as a propositional operand: p ; q",
}


@pytest.mark.parametrize("text", list(_SYNTAX_ERRORS))
def test_syntax_errors(text):
    with pytest.raises(FormulaSyntaxError, match=f"^{re.escape(_SYNTAX_ERRORS[text])}$"):
        parse(text)


def test_surfaces_accept():
    require_logic(parse("p U q"), LogicId.LTL)
    require_logic(parse("<tt*> !p"), LogicId.LDL)
    require_logic(parse("G Fp s"), LogicId.PROMPT_LTL)
    require_logic(parse("[tt*] <p p;tt*> q"), LogicId.PROMPT_LDL)
    require_logic(parse("G p -> G q"), LogicId.RLTL)
    require_logic(parse("G Fp s"), LogicId.RPROMPT_LTL)
    require_logic(parse("[(tt;tt)*] p -> ff"), LogicId.RLDL)
    require_logic(parse("[(tt;tt)*] <p tt*> s"), LogicId.RPROMPT_LDL)


@pytest.mark.parametrize(
    ("text", "logic"),
    [
        # Next/Until/Release have no robust variants.
        ("X p", LogicId.RLTL),
        ("p U q", LogicId.RLTL),
        ("p R q", LogicId.RPROMPT_LTL),
        # Prompt logics admit no general negation or implication.
        ("!(G p)", LogicId.RPROMPT_LTL),
        ("p -> q", LogicId.PROMPT_LTL),
        ("!(p & q)", LogicId.PROMPT_LDL),
        # Guards only in the dynamic logics.
        ("<tt*> p", LogicId.LTL),
        ("[tt*] p", LogicId.RLTL),
        # Prompt diamond only in the prompt dynamic logics.
        ("<p tt*> s", LogicId.RLDL),
        ("F p", LogicId.LDL),
    ],
)
def test_surfaces_reject(text, logic):
    phi = parse(text)
    assert check_logic(phi, logic)
    with pytest.raises(LogicViolationError):
        require_logic(phi, logic)


def test_guard_tests_recurse_same_logic():
    # A test inside an RLDL guard may itself use guards, not Until.
    phi = parse("[{<tt*> p}? ; tt*] q")
    require_logic(phi, LogicId.RLDL)
    bad = parse("[{p U q}? ; tt*] q")
    with pytest.raises(LogicViolationError):
        require_logic(bad, LogicId.RLDL)


def test_negation_in_guard_atoms_is_always_allowed():
    # Propositional guard atoms admit full propositional syntax even in
    # prompt logics, where formula-level Not is rejected.
    phi = parse("<(!p & !q)*> s")
    require_logic(phi, LogicId.PROMPT_LDL)


def test_closure_and_size():
    phi = parse("<p*> (q & q)")
    sub = closure(phi)
    assert Atom("q") in sub
    assert And(Atom("q"), Atom("q")) in sub
    assert size(phi) == len(sub) + guard_length(parse_guard("p*"))
    assert guard_length(parse_guard("(p;q)* + {tt}?")) == 6


def test_closure_includes_test_formulas():
    phi = parse("[{F p}? ; tt*] q")
    assert Eventually(Atom("p")) in closure(phi)
    assert Atom("p") in closure(phi)


def test_propositions():
    phi = parse("[{s}? ; a*] (b | !c)")
    assert propositions(phi) == frozenset({"s", "a", "b", "c"})


def test_guard_tests_listing():
    g = parse_guard("{p}? ; ({q}? + tt)*")
    assert guard_tests(g) == (Atom("p"), Atom("q"))


@pytest.mark.parametrize(
    ("text", "positive"),
    [
        ("G Fp q | F G r", True),
        ("[tt*] <p tt*> q", True),
        ("[{q}? ; tt*] <p tt*> q", True),
        ("<{<p tt*> q}?> r", True),
        ("[{<p tt*> q}?] r", False),
        ("[tt* ; {p & <p tt*> q}?] r", False),
        ("<{[{<p tt*> q}?] r}?> s", False),
        ("[{[{<p tt*> q}?] r}?] s", True),
        ("[{<p tt*> q}?] r & [{r}?] <p tt*> q", False),
    ],
)
def test_prompt_positive_counts_box_tests(text, positive):
    # Only a test in the guard of a box turns polarity.
    assert prompt_positive(parse(text)) is positive


def test_prompt_tokens():
    assert parse("Fp s") == PromptEventually(Atom("s"))
    assert parse("<p tt*> s") == PromptDiamond(Star(Prop(Tt())), Atom("s"))
    assert format_formula(parse("G F Fp s")) == "G F Fp s"


def test_random_formulas_stay_admissible():
    rng = make_rng(3)
    for logic in LogicId:
        for _ in range(40):
            phi = random_formula(rng, logic, rng.randint(1, 10), ("p", "q"))
            require_logic(phi, logic)
            # Printing is a fixed point of parse and print.
            text = format_formula(phi)
            assert format_formula(parse(text)) == text


_PICKLE_DUMP = """
import pickle, sys
from robusttl.parser import parse
sys.stdout.buffer.write(pickle.dumps(parse("[tt*] (p -> <{q}? ; tt> r)")))
"""

_PICKLE_LOAD = """
import copy, pickle, sys
from robusttl.parser import parse
phi = parse("[tt*] (p -> <{q}? ; tt> r)")
loaded = pickle.loads(sys.stdin.buffer.read())
assert loaded == phi and hash(loaded) == hash(phi)
assert {phi: 1}[loaded] == 1 and hash(copy.deepcopy(phi)) == hash(phi)
print("ok")
"""


def test_pickled_formula_is_hashed_where_it_is_loaded():
    # Nodes cache their hash, which depends on the string-hash seed.
    dumped = subprocess.run(
        [sys.executable, "-c", _PICKLE_DUMP],
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    ).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", _PICKLE_LOAD],
        input=dumped,
        capture_output=True,
        check=True,
        env=dict(os.environ, PYTHONHASHSEED="1"),
    )
    assert loaded.stdout == b"ok\n"


def test_deep_formulas_compare_without_recursion():
    from robusttl.translate import ltl_surface_to_ldl

    def nest(depth, bottom):
        phi = bottom
        for _ in range(depth):
            phi = Next(phi)
        return phi

    a = nest(5000, Atom("p"))
    b = nest(5000, Atom("p"))
    assert a is b and a == b and not a != b
    assert a != nest(5000, Atom("q"))
    assert a != nest(4999, Atom("p"))
    assert a != nest(5000, NegAtom("p"))
    # Nodes of different classes with equal fields differ.
    assert Eventually(Atom("p")) != Always(Atom("p"))
    assert Star(Prop(Tt())) == Star(Prop(Tt()))
    assert Atom("p") != "p" and Atom("p").__eq__("p") is NotImplemented
    out = ltl_surface_to_ldl(And(a, b))
    assert isinstance(out, And) and out.left == out.right


def test_equal_nodes_are_one_object():
    guard = Concat(GuardTest(Atom("q")), Prop(Tt()))
    phi = Box(Star(Prop(Tt())), Implies(Atom("p"), Diamond(guard, Atom("r"))))
    assert parse("[tt*] (p -> <{q}? ; tt> r)") is phi
    assert pickle.loads(pickle.dumps(phi)) is phi
    assert copy.deepcopy(phi) is phi and copy.copy(phi) is phi
    assert parse("p & p").left is parse("p & p").right
    assert Star(Prop(Tt())) is Star(Prop(Tt())) and Tt() is Tt()


def test_node_hash_is_the_hash_of_its_fields():
    p = Atom("p")
    assert hash(p) == hash(("p",)) and hash(Tt()) == hash(())
    for node in (Eventually(p), Always(p), And(p, Atom("q")), Star(Prop(p))):
        fields = tuple(vars(node)[k] for k in node.__dataclass_fields__)
        assert hash(node) == hash(fields)
    # Nodes of different classes with equal fields are different nodes,
    # although their hashes are equal.
    assert Eventually(p) is not Always(p) and hash(Eventually(p)) == hash(Always(p))
    assert Prop(p) is not GuardTest(p)


def test_intern_table_releases_dropped_nodes():
    from robusttl.formulas import _NODES

    gc.collect()
    before = len(_NODES)
    rng = make_rng(17)
    kept = [
        parse(format_formula(random_formula(rng, LogicId.RLDL, 8, ("p", "q", "x"))))
        for _ in range(5000)
    ]
    assert len(_NODES) > before + 5000
    del kept
    gc.collect()
    assert len(_NODES) == before


def test_rewrite_calls_its_rule_left_to_right():
    from robusttl.formulas import rewrite
    from robusttl.translate import ltl_surface_to_ldl

    phi = And(PromptEventually(Atom("p")), PromptDiamond(Star(Prop(Tt())), Atom("q")))
    with pytest.raises(ValueError, match="^unsupported node PromptEventually$"):
        ltl_surface_to_ldl(phi)
    seen = []
    rewrite(parse("(p | q) & q U X p"), lambda node: seen.append(str(node)) or node)
    assert seen == ["p", "q", "p | q", "X p", "q U X p", "(p | q) & q U X p"]


def _deep_cases():
    """Deeply nested inputs, each with the guard to check and the values
    that every analysis and the printer must give for them."""
    n = 5000
    # X^5000 p
    chain = [Atom("p")]
    for _ in range(n):
        chain.append(Next(chain[-1]))
    text = "X " * n + "p"
    yield {
        "phi": chain[-1],
        "text": text,
        "guard": GuardTest(chain[-1]),
        "guard_text": "{" + text + "}?",
        "closure": frozenset(chain),
        "size": n + 1,
        "props": {"p"},
        "tests": (chain[-1],),
        "length": 1,
        "propositional": False,
        "violations": {
            LogicId.LTL: [],
            LogicId.LDL: ["operator Next not admissible in ldl: " + text],
        },
    }
    # A diamond over a 5000-deep ; guard: p ; p ; ... ; {q}?
    guard = GuardTest(Atom("q"))
    for _ in range(n):
        guard = Concat(Prop(Atom("p")), guard)
    guard_text = "p ; " * n + "{q}?"
    phi = Diamond(guard, Atom("r"))
    yield {
        "phi": phi,
        "text": f"<{guard_text}> r",
        "guard": guard,
        "guard_text": guard_text,
        "closure": frozenset({phi, Atom("r"), Atom("q")}),
        "size": 3 + 2 * n + 1,
        "props": {"p", "q", "r"},
        "tests": (Atom("q"),),
        "length": 2 * n + 1,
        "propositional": False,
        "violations": {
            LogicId.LDL: [],
            LogicId.LTL: [f"operator Diamond not admissible in ltl: <{guard_text}> r"],
        },
    }
    # A guard atom holding a 3000-deep & chain: [(a0 & ... & a3000)*] s
    m = 3000
    atom = Atom("a0")
    for i in range(1, m + 1):
        atom = And(atom, Atom(f"a{i}"))
    conj = " & ".join(f"a{i}" for i in range(m + 1))
    guard = Star(Prop(atom))
    phi = Box(guard, Atom("s"))
    yield {
        "phi": phi,
        "text": f"[({conj})*] s",
        "guard": guard,
        "guard_text": f"({conj})*",
        "closure": frozenset({phi, Atom("s")}),
        "size": 4,
        "props": {f"a{i}" for i in range(m + 1)} | {"s"},
        "tests": (),
        "length": 2,
        "propositional": False,
        "violations": {
            LogicId.RLDL: [],
            LogicId.RLTL: [f"operator Box not admissible in rltl: [({conj})*] s"],
        },
    }
    # A 5000-deep formula with an inadmissible operator at its top; the
    # parser reads `!p` as a negated atom.
    chain = [NegAtom("p")]
    for _ in range(n - 2):
        chain.append(Not(chain[-1]))
    nots = "!" * (n - 1) + "p"
    phi = PromptEventually(chain[-1])
    yield {
        "phi": phi,
        "text": "Fp " + nots,
        "guard": GuardTest(phi),
        "guard_text": "{Fp " + nots + "}?",
        "closure": frozenset([*chain, phi]),
        "size": n,
        "props": {"p"},
        "tests": (phi,),
        "length": 1,
        "propositional": False,
        "violations": {
            LogicId.LTL: ["operator PromptEventually not admissible in ltl: Fp " + nots],
            LogicId.PROMPT_LTL: ["operator Not not admissible in promptltl: " + nots],
        },
    }


def test_deep_formulas_analyse_and_print_without_recursion():
    for case in _deep_cases():
        phi, guard = case["phi"], case["guard"]
        assert str(phi) == format_formula(phi) == case["text"]
        assert str(guard) == format_guard(guard) == case["guard_text"]
        assert closure(phi) == case["closure"]
        assert size(phi) == case["size"]
        assert propositions(phi) == case["props"]
        assert guard_tests(guard) == case["tests"]
        assert guard_length(guard) == case["length"]
        assert is_propositional(phi) is case["propositional"]
        for logic, violations in case["violations"].items():
            assert check_logic(phi, logic) == violations
    # A deep chain that is propositional, and one that is not at its bottom.
    for bottom, propositional in ((Atom("p"), True), (Next(Atom("p")), False)):
        phi = bottom
        for _ in range(5000):
            phi = Not(And(phi, Atom("q")))
        assert is_propositional(phi) is propositional


def test_deep_chains_parse_without_recursion():
    # Prefix chains: X^5000 p and Fp !^4999 p.
    for case in _deep_cases():
        if case["text"].startswith(("X ", "Fp ")):
            assert parse(case["text"]) is case["phi"]
    # Right-associative binary chains of 5000 operands.
    for op, build in ((" -> ", Implies), (" U ", Until)):
        text = op.join(["p"] * 4999 + ["q"])
        phi = Atom("q")
        for _ in range(4999):
            phi = build(Atom("p"), phi)
        assert parse(text) is phi
        assert str(phi) == text
