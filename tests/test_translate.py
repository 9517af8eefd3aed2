import pytest
from _oracles import reference_fragment_translate

from robusttl.formulas import LogicId, Tt, format_formula, size
from robusttl.gen import make_rng, random_formula, random_lasso
from robusttl.parser import parse, parse_guard
from robusttl.semantics import (
    eval_ldl,
    eval_ltl,
    eval_prompt_ltl,
    eval_rldl,
    eval_rltl,
    eval_rprompt_ltl,
)
from robusttl.translate import (
    NotLimitMatchingError,
    NotTestFreeError,
    check_fragment,
    derobustify,
    embed_ldl_in_rldl,
    embed_rltl_in_rldl,
    fragment_translate,
    ltl_surface_to_ldl,
    rprompt_to_prompt,
)
from robusttl.truth import ALL_VALUES, BOTTOM, POSITIVE_VALUES, from_string
from robusttl.traces import parse_trace

PQ = ("p", "q")


def test_derobustification_per_threshold_shapes():
    phi = parse("G Fp s", LogicId.RPROMPT_LTL)
    assert format_formula(rprompt_to_prompt(phi, from_string("0011"))) == "G F Fp s"
    assert format_formula(rprompt_to_prompt(phi, from_string("1111"))) == "G Fp s"
    assert format_formula(rprompt_to_prompt(phi, from_string("0111"))) == "F G Fp s"
    assert format_formula(rprompt_to_prompt(phi, from_string("0001"))) == "F Fp s"
    assert rprompt_to_prompt(phi, BOTTOM) == Tt()


def test_derobustification_equivalence_random():
    rng = make_rng(17)
    for _ in range(120):
        phi = random_formula(rng, LogicId.RPROMPT_LTL, rng.randint(1, 8), PQ)
        w = random_lasso(rng, PQ)
        k = rng.randint(0, 5)
        value = eval_rprompt_ltl(w, k, phi)
        for beta in ALL_VALUES:
            derob = rprompt_to_prompt(phi, beta)
            classical = eval_prompt_ltl(w, k, derob)
            assert (value >= beta) == (classical == 1), (phi, beta, w, k)


def test_derobustification_size_linear():
    rng = make_rng(19)
    for _ in range(80):
        phi = random_formula(rng, LogicId.RPROMPT_LTL, rng.randint(1, 10), PQ)
        for beta in POSITIVE_VALUES:
            out = rprompt_to_prompt(phi, beta)
            assert size(out) <= 3 * size(phi) + 3


def test_rltl_embedding_value_equality():
    rng = make_rng(23)
    for _ in range(120):
        phi = random_formula(rng, LogicId.RLTL, rng.randint(1, 8), PQ)
        embedded = embed_rltl_in_rldl(phi)
        w = random_lasso(rng, PQ)
        assert eval_rldl(w, embedded) == eval_rltl(w, phi)


def test_rltl_embedding_is_the_ltl_desugaring():
    # The embedding's former rule of its own, eventually and always over
    # tt*, gives the very node the desugaring of the temporal operators
    # gives.
    from robusttl.formulas import Always, Box, Diamond, Eventually, Prop, Star, rewrite

    step = Star(Prop(Tt()))

    def rule(f):
        if isinstance(f, Eventually):
            return Diamond(step, f.arg)
        if isinstance(f, Always):
            return Box(step, f.arg)
        return f

    rng = make_rng(7)
    for _ in range(3000):
        phi = random_formula(rng, LogicId.RLTL, rng.randint(1, 10), PQ)
        desugared = ltl_surface_to_ldl(phi)
        assert embed_rltl_in_rldl(phi) is desugared
        assert rewrite(phi, rule) is desugared


def test_ldl_embedding_bit1_equality():
    rng = make_rng(29)
    for _ in range(120):
        phi = random_formula(rng, LogicId.LDL, rng.randint(1, 8), PQ)
        embedded = embed_ldl_in_rldl(phi)
        w = random_lasso(rng, PQ)
        assert eval_rldl(w, embedded).bit(1) == eval_ldl(w, phi)


def test_ltl_to_ldl_equivalence():
    rng = make_rng(31)
    for _ in range(120):
        phi = random_formula(rng, LogicId.LTL, rng.randint(1, 8), PQ)
        out = ltl_surface_to_ldl(phi)
        w = random_lasso(rng, PQ)
        assert eval_ldl(w, out) == eval_ltl(w, phi), (phi, out, w)


def test_ltl_to_ldl_release_is_inclusive():
    # p R q requires q to hold at the release position as well.
    out = ltl_surface_to_ldl(parse("p R q", LogicId.LTL))
    w = parse_trace("{q} {p} ; {}")
    assert eval_ldl(w, out) == 0
    w2 = parse_trace("{q} {p,q} ; {}")
    assert eval_ldl(w2, out) == 1


def test_check_fragment_accepts():
    check_fragment(parse("[(tt;tt)*] <p tt*> s", LogicId.RPROMPT_LDL))
    check_fragment(parse("<tt*> s & [tt*] <p (tt;tt)*> s", LogicId.RPROMPT_LDL))


def test_check_fragment_rejects_tests():
    phi = parse("[{s}? ; tt*] <p tt*> s")
    with pytest.raises(NotTestFreeError):
        check_fragment(phi)


def test_check_fragment_rejects_non_limit_matching():
    phi = parse("[((!t)*;t;(!t)*;t)*] <p tt*> s")
    with pytest.raises(NotLimitMatchingError) as err:
        check_fragment(phi)
    assert "((!t)* ; t ; (!t)* ; t)*" in str(err.value)
    assert "not limit-matching" in str(err.value)


def test_check_fragment_lists_every_offender():
    phi = parse("[p*] s & [q*] s")
    with pytest.raises(NotLimitMatchingError) as err:
        check_fragment(phi)
    assert "p*" in str(err.value)
    assert "q*" in str(err.value)
    # Each offender once, in syntactic order.
    with pytest.raises(NotLimitMatchingError) as err:
        check_fragment(parse("[q*] s & <p*> s & [q*] <p*> s"))
    assert str(err.value) == "guards are not limit-matching: q*, p*"
    with pytest.raises(NotTestFreeError) as err:
        check_fragment(parse("[{q}? ; q] s & <{q}? ; q> s"))
    assert str(err.value) == "guards contain tests: {q}? ; q"


def test_fragment_translate_even_sync():
    phi = parse("[(tt;tt)*] <p tt*> s", LogicId.RPROMPT_LDL)
    for beta in POSITIVE_VALUES:
        out = fragment_translate(phi, beta)
        from robusttl.formulas import require_logic

        require_logic(out, LogicId.PROMPT_LDL)


def test_fragment_translate_equivalence_random_traces():
    rng = make_rng(37)
    formulas = [
        "[(tt;tt)*] <p tt*> s",
        "[tt*] <p tt*> s",
        "<tt*> s",
        "[(tt;tt)*] s & <p tt*> s",
        "[tt ; tt*] s | <p (tt;tt)*> s",
    ]
    for text in formulas:
        phi = parse(text, LogicId.RPROMPT_LDL)
        for beta in POSITIVE_VALUES:
            out = fragment_translate(phi, beta)
            for _ in range(12):
                w = random_lasso(rng, ("s",))
                k = rng.randint(0, 4)
                robust = eval_rprompt_ldl_value(w, k, phi)
                classical = eval_prompt_ldl_value(w, k, out)
                assert (robust >= beta) == (classical == 1), (text, beta, w, k)


def eval_rprompt_ldl_value(w, k, phi):
    from robusttl.semantics import eval_rprompt_ldl

    return eval_rprompt_ldl(w, k, phi)


def eval_prompt_ldl_value(w, k, phi):
    from robusttl.semantics import eval_prompt_ldl

    return eval_prompt_ldl(w, k, phi)


def test_fragment_translate_bottom_is_trivial():
    phi = parse("[tt*] <p tt*> s", LogicId.RPROMPT_LDL)
    assert fragment_translate(phi, BOTTOM) == Tt()


_LIMIT_MATCHING = (
    "tt*", "(tt ; tt)*", "tt ; (tt ; tt)*", "(p ; tt + !p)*",
    "(tt ; tt)* ; p*", "(q ; tt + !q ; tt ; tt)*",
)


def _fragment_formulas(seed: int, count: int):
    """Seeded prompt formulas of the test-free limit-matching fragment:
    random ones with every guard replaced by one of _LIMIT_MATCHING."""
    from robusttl.formulas import Box, Diamond, PromptDiamond, rewrite

    rng = make_rng(seed)
    guards = [parse_guard(text) for text in _LIMIT_MATCHING]

    def rule(f):
        if isinstance(f, (Diamond, Box, PromptDiamond)):
            return type(f)(rng.choice(guards), f.arg)
        return f

    for _ in range(count):
        phi = random_formula(
            rng, LogicId.RPROMPT_LDL, rng.randint(2, 9), PQ, allow_tests=False
        )
        yield rewrite(phi, rule)


@pytest.mark.parametrize("seed", range(4))
def test_fragment_translate_is_the_rule_per_box(seed):
    # Derobustifying the fragment gives the very node the rewrite with one
    # rule per box gave, so its model checks and printed translations stay.
    formulas = [*_fragment_formulas(seed + 4100, 40), parse(_FRAGMENT)]
    boxes = 0
    for phi in formulas:
        boxes += "[" in format_formula(phi)
        for beta in ALL_VALUES:
            assert fragment_translate(phi, beta) is reference_fragment_translate(phi, beta)
    assert boxes >= 10


def _test_free_rldl(rng):
    return random_formula(rng, LogicId.RLDL, rng.randint(1, 9), PQ, allow_tests=False)


@pytest.mark.parametrize("seed", range(6))
def test_derobustify_agrees_with_oracle(seed):
    # 100 formulas and 5 lassos each per seed: 3000 pairs over the six
    # seeds, each at all five thresholds.
    from robusttl.formulas import Box, Implies, Not, walk
    from robusttl.guards import is_limit_matching

    rng = make_rng(seed + 4200)
    seen = {"not": 0, "implies": 0, "box not limit-matching": 0}
    for _ in range(100):
        phi = _test_free_rldl(rng)
        nodes = list(walk(phi))
        seen["not"] += any(type(f) is Not for f in nodes)
        seen["implies"] += any(type(f) is Implies for f in nodes)
        seen["box not limit-matching"] += any(
            type(f) is Box and not is_limit_matching(f.guard) for f in nodes
        )
        plain = [derobustify(phi, beta) for beta in ALL_VALUES]
        for _ in range(5):
            w = random_lasso(rng, PQ)
            value = eval_rldl(w, phi)
            for beta, psi in zip(ALL_VALUES, plain):
                assert (value >= beta) == (eval_ldl(w, psi) == 1), (phi, beta, w)
    assert min(seen.values()) >= 10, seen


def test_derobustify_output_is_plain_ldl_without_implications():
    from robusttl.formulas import Implies, require_logic, walk

    rng = make_rng(4300)
    for _ in range(60):
        phi = _test_free_rldl(rng)
        for beta in POSITIVE_VALUES:
            psi = derobustify(phi, beta)
            require_logic(psi, LogicId.LDL)
            assert not any(type(f) is Implies for f in walk(psi))


def test_derobustify_pinned_shapes():
    phi = parse("[tt*] (p -> <tt*> q)")
    assert format_formula(derobustify(phi, from_string("1111"))) == "[tt*] (!p | <tt*> q)"
    assert format_formula(derobustify(phi, from_string("0001"))) == "<tt*> (!p | <tt*> q)"
    # A guard that is not limit-matching: some match satisfies, or none.
    phi = parse("[p*] q")
    assert format_formula(derobustify(phi, from_string("0001"))) == "<p*> q | [p*] ff"
    # Negation reads bit 1 at every threshold.
    phi = parse("!(p -> [tt*] q)")
    for beta in POSITIVE_VALUES:
        assert format_formula(derobustify(phi, beta)) == "!(!p | [tt*] q)"
    assert derobustify(phi, BOTTOM) == Tt()


@pytest.mark.parametrize("kind", ["and", "not", "box"])
def test_derobustify_handles_deep_nesting(kind):
    from robusttl.formulas import And, Atom, Box, Not, Prop, Star, closure

    depth = 3000
    step = Star(Prop(Tt()))
    build = {
        "and": lambda f: And(f, Atom("q")),
        "not": Not,
        "box": lambda f: Box(step, f),
    }[kind]
    phi = Atom("p")
    for _ in range(depth):
        phi = build(phi)
    for beta in POSITIVE_VALUES:
        assert len(closure(derobustify(phi, beta))) > depth


def test_derobustify_shares_the_bits_of_implications():
    # Each -> asks all four bits of both sides; a tree of them would grow
    # as 4^depth, the shared nodes grow by a constant per level.
    from robusttl.formulas import Atom, Box, Diamond, Implies, Or, Prop, Star, closure

    step = Star(Prop(Tt()))

    def chain(depth):
        phi = Atom("p")
        for _ in range(depth):
            phi = Implies(Box(step, phi), Diamond(step, Or(phi, Atom("q"))))
        return phi

    for beta in POSITIVE_VALUES:
        counts = [len(closure(derobustify(chain(d), beta))) for d in (10, 20, 40)]
        assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]), counts
        assert counts[2] <= 10 * 40, counts


def test_derobustify_rejects_tests():
    phi = parse("[{q}? ; q] s & <tt*> [tt*] p")
    for beta in ALL_VALUES:
        with pytest.raises(NotTestFreeError) as err:
            derobustify(phi, beta)
        assert str(err.value) == "guards contain tests: {q}? ; q"


def test_derobustify_rejects_other_logics():
    from robusttl.formulas import LogicViolationError

    with pytest.raises(LogicViolationError) as err:
        derobustify(parse("X p", LogicId.LTL), from_string("1111"))
    assert err.value.logic is LogicId.RLDL


# Printed output of every formula translation on hand-picked inputs: a
# shared subformula, tests inside guards, a guard atom that is itself an
# implication, and every threshold where one applies.
_SHARED = "(G Fp s & q) | F G Fp s"
_FRAGMENT = "[(tt;tt)*] <p tt*> s & ([tt*] s | <tt*> [(tt;tt)*] <p tt*> s)"
_FRAGMENT_0011 = (
    "[ff*] <ff* + tt ; tt ; (tt ; tt)*> <p tt*> s"
    " & [tt ; (tt ; tt)*] <(tt ; tt)* ; tt> <p tt*> s"
    " & [tt ; tt ; (tt ; tt)*] <(tt ; tt)*> <p tt*> s"
    " & ([ff*] <ff* + tt ; tt*> s & [tt ; tt*] <tt*> s"
    " | <tt*> ([ff*] <ff* + tt ; tt ; (tt ; tt)*> <p tt*> s"
    " & [tt ; (tt ; tt)*] <(tt ; tt)* ; tt> <p tt*> s"
    " & [tt ; tt ; (tt ; tt)*] <(tt ; tt)*> <p tt*> s))"
)
_FRAGMENT_0111 = (
    "(<ff*> [ff* + tt ; tt ; (tt ; tt)*] <p tt*> s"
    " | <tt ; (tt ; tt)*> [(tt ; tt)* ; tt] <p tt*> s"
    " | <tt ; tt ; (tt ; tt)*> [(tt ; tt)*] <p tt*> s)"
    " & (<ff*> [ff* + tt ; tt*] s | <tt ; tt*> [tt*] s"
    " | <tt*> (<ff*> [ff* + tt ; tt ; (tt ; tt)*] <p tt*> s"
    " | <tt ; (tt ; tt)*> [(tt ; tt)* ; tt] <p tt*> s"
    " | <tt ; tt ; (tt ; tt)*> [(tt ; tt)*] <p tt*> s))"
)
_RELAXED = (
    "(c & c U !c U p | !c & !c U c U p)"
    " & <ff* + (!c & q) ; (!c & q)* ; (ff* + (c & q) ; (c & q)*)"
    " + (c & q) ; (c & q)* ; (ff* + (!c & q) ; (!c & q)*)> r"
    " | G (c & c U !c U p | !c & !c U c U p)"
)


def _implication_atom():
    from robusttl.formulas import Atom, Diamond, Implies, Prop

    p, q, r, s = (Atom(name) for name in "pqrs")
    return Diamond(Prop(Implies(p, q)), Implies(r, s))


def _translate(name, text, *extra):
    from robusttl import modelcheck, translate

    fn = getattr(translate, name, None) or getattr(modelcheck, name)
    phi = text() if callable(text) else parse(text)
    return format_formula(fn(phi, *extra))


@pytest.mark.parametrize(
    "name, text, extra, expected",
    [
        ("rprompt_to_prompt", _SHARED, ("0000",), "tt"),
        ("rprompt_to_prompt", _SHARED, ("0001",), "F Fp s & q | F F Fp s"),
        ("rprompt_to_prompt", _SHARED, ("0011",), "G F Fp s & q | F G F Fp s"),
        ("rprompt_to_prompt", _SHARED, ("0111",), "F G Fp s & q | F F G Fp s"),
        ("rprompt_to_prompt", _SHARED, ("1111",), "G Fp s & q | F G Fp s"),
        ("fragment_translate", _FRAGMENT, ("0000",), "tt"),
        (
            "fragment_translate", _FRAGMENT, ("0001",),
            "<(tt ; tt)*> <p tt*> s & (<tt*> s | <tt*> <(tt ; tt)*> <p tt*> s)",
        ),
        ("fragment_translate", _FRAGMENT, ("0011",), _FRAGMENT_0011),
        ("fragment_translate", _FRAGMENT, ("0111",), _FRAGMENT_0111),
        (
            "fragment_translate", _FRAGMENT, ("1111",),
            "[(tt ; tt)*] <p tt*> s & ([tt*] s | <tt*> [(tt ; tt)*] <p tt*> s)",
        ),
        (
            "embed_rltl_in_rldl", "G p -> F (G p & !q)", (),
            "[tt*] p -> <tt*> ([tt*] p & !q)",
        ),
        (
            "embed_ldl_in_rldl", "<(p ; {q -> r}?)*> (p -> [tt*] q) | !(p -> q)", (),
            "<(p ; {!q | r}?)*> (!p | [tt*] q) | !(!p | q)",
        ),
        ("embed_ldl_in_rldl", _implication_atom, (), "<(p -> q)> (!r | s)"),
        (
            "ltl_surface_to_ldl", "(p U X q) R G p | F (p U X q)", (),
            "[({!<({p}? ; tt)*> <tt> q}? ; tt)*] [tt*] p"
            " | <tt*> <({p}? ; tt)*> <tt> q",
        ),
        (
            "ltl_surface_to_ldl", "<({X p}? ; q)*> (p U q) & [{G q}?] !q", (),
            "<({<tt> p}? ; q)*> <({p}? ; tt)*> q & [{[tt*] q}?] !q",
        ),
        ("relax_prompt", "Fp p & <p q*> r | G Fp p", ("c",), _RELAXED),
        (
            "relax_prompt", "<({Fp q}? ; tt)*> Fp q & [tt*] X q", ("c",),
            "<({c & c U !c U q | !c & !c U c U q}? ; tt)*>"
            " (c & c U !c U q | !c & !c U c U q) & [tt*] X q",
        ),
        ("_limit_prompt", "Fp p & <p q*> r | G Fp p", (), "F p & <q*> r | G F p"),
        (
            "_limit_prompt", "<({Fp q}? ; tt)*> Fp q & [tt*] X q", (),
            "<({F q}? ; tt)*> F q & [tt*] X q",
        ),
    ],
)
def test_translation_output_is_pinned(name, text, extra, expected):
    extra = tuple(from_string(x) if x.isdigit() else x for x in extra)
    assert _translate(name, text, *extra) == expected


def test_translation_rewrites_a_shared_subformula_once():
    out = rprompt_to_prompt(parse(_SHARED), from_string("0011"))
    assert out.left.left is out.right.arg


def test_translation_keeps_unchanged_nodes():
    phi = parse("<(p ; {q & <tt> p}?)*> [tt*] q | !p")
    assert embed_ldl_in_rldl(phi) is phi


@pytest.mark.parametrize(
    "name, text, extra, message",
    [
        ("ltl_surface_to_ldl", "X Fp p", (), "unsupported node PromptEventually"),
        ("ltl_surface_to_ldl", "<p q*> p", (), "unsupported node PromptDiamond"),
        ("relax_prompt", "X !(p & q)", ("c",), "unsupported node Not"),
        ("relax_prompt", "p -> q", ("c",), "unsupported node Implies"),
    ],
)
def test_translation_rejects_unsupported_nodes(name, text, extra, message):
    with pytest.raises(ValueError) as err:
        _translate(name, text, *extra)
    assert type(err.value) is ValueError
    assert str(err.value) == message


def test_translations_handle_deep_nesting():
    from robusttl.formulas import Atom, Diamond, Next
    from robusttl.modelcheck import relax_prompt

    depth = 5000
    phi = Atom("p")
    for _ in range(depth):
        phi = Next(phi)
    results = ((ltl_surface_to_ldl(phi), Diamond), (relax_prompt(phi, "c"), Next))
    for out, node in results:
        count = 0
        while isinstance(out, node):
            out = out.arg
            count += 1
        assert count == depth
        assert out == Atom("p")


def test_logic_check_handles_deep_nesting():
    from robusttl.formulas import Atom, Diamond, Eventually, PromptEventually, check_logic

    depth = 5000
    phi = Atom("p")
    for _ in range(depth):
        phi = Eventually(phi)
    out = embed_rltl_in_rldl(phi)
    count = 0
    while isinstance(out, Diamond):
        out = out.arg
        count += 1
    assert count == depth
    assert out == Atom("p")
    # The walk reaches the bottom and does not descend below the
    # inadmissible node there.
    bad = PromptEventually(PromptEventually(Atom("q")))
    for _ in range(depth):
        bad = Eventually(bad)
    assert check_logic(bad, LogicId.RLTL) == [
        "operator PromptEventually not admissible in rltl: Fp Fp q"
    ]
