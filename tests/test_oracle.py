import time

import pytest
from _oracles import thompson_close, thompson_step
from hypothesis import given, settings
from hypothesis import strategies as st

from robusttl.formulas import PROMPT_LOGICS, LogicId
from robusttl.gen import make_rng, random_formula, random_guard, random_lasso
from robusttl.guards import thompson
from robusttl.parser import parse, parse_guard
from robusttl.semantics import (
    MissingBoundError,
    _GuardEngine,
    _RobustEvaluator,
    eval_ldl,
    eval_ltl,
    eval_prompt_ltl,
    eval_rldl,
    eval_rltl,
    eval_rprompt_ltl,
    evaluate,
    match_set,
)
from robusttl.traces import LassoTrace, parse_trace
from robusttl.truth import ALL_VALUES, BOTTOM, TOP, V0001, V0011, V0111, negate

letters = st.frozensets(st.sampled_from(["p", "q"]), max_size=2)
lassos = st.builds(
    lambda pre, loop: parse_trace(
        "; ".join(
            [
                " ".join("{" + ",".join(sorted(a)) + "}" for a in pre),
                " ".join("{" + ",".join(sorted(a)) + "}" for a in loop),
            ]
        )
    ),
    st.lists(letters, max_size=3),
    st.lists(letters, min_size=1, max_size=3),
)


def rldl(text, trace):
    return eval_rldl(parse_trace(trace), parse(text, LogicId.RLDL))


def test_always_degrees_of_violation():
    # The four degrees of violating "always p", plus satisfaction.
    phi = "[tt*] p"
    assert str(rldl(phi, "; {p}")) == "1111"
    assert str(rldl(phi, "{} ; {p}")) == "0111"
    assert str(rldl(phi, "; {} {p}")) == "0011"
    assert str(rldl(phi, "{p} ; {}")) == "0001"
    assert str(rldl(phi, "; {}")) == "0000"


def test_robust_always_ltl_matches_rldl():
    for trace in ["; {p}", "{} ; {p}", "; {} {p}", "{p} ; {}", "; {}"]:
        w = parse_trace(trace)
        assert eval_rltl(w, parse("G p")) == eval_rldl(w, parse("[tt*] p"))
        assert eval_rltl(w, parse("F p")) == eval_rldl(w, parse("<tt*> p"))


def test_implication_compares_degrees():
    # G p -> G q holds fully when q is violated no worse than p.
    w = parse_trace("{} ; {p,q}")
    assert str(eval_rltl(w, parse("G p -> G q"))) == "1111"
    w2 = parse_trace("{p} ; {p,q} {p}")
    # q violated infinitely often, p never: implication collapses to G q.
    assert str(eval_rltl(w2, parse("G p -> G q"))) == "0011"


def test_even_position_box():
    w = parse_trace("; {p} {}")
    assert eval_ldl(w, parse("[ (tt;tt)* ] p")) == 1
    assert eval_ldl(parse_trace("; {p} {p} {}"), parse("[ (tt;tt)* ] p")) == 0


def test_classical_ltl_operators():
    assert eval_ltl(parse_trace("{q} ; {p}"), parse("X p")) == 1
    assert eval_ltl(parse_trace("{q} {q} ; {p}"), parse("q U p")) == 1
    assert eval_ltl(parse_trace("; {q}"), parse("q U p")) == 0
    assert eval_ltl(parse_trace("; {p,q}"), parse("q R p")) == 1
    assert eval_ltl(parse_trace("{p} ; {p,q}"), parse("q R p")) == 1
    assert eval_ltl(parse_trace("{q} ; {p}"), parse("q R p")) == 0


def test_release_is_dual_of_until():
    rng = make_rng(5)
    for _ in range(100):
        w = random_lasso(rng, ("p", "q"))
        a = eval_ltl(w, parse("!( (!p) U (!q) )"))
        b = eval_ltl(w, parse("p R q"))
        assert a == b


def test_prompt_eventually_bound():
    w = parse_trace("{} {} {s} ; {}")
    phi = parse("Fp s")
    assert eval_prompt_ltl(w, 1, phi) == 0
    assert eval_prompt_ltl(w, 2, phi) == 1
    assert str(eval_rprompt_ltl(w, 2, parse("Fp s"))) == "1111"


def test_prompt_requires_bound():
    with pytest.raises(MissingBoundError):
        from robusttl.semantics import evaluate

        evaluate(parse_trace("; {p}"), parse("Fp p"), LogicId.PROMPT_LTL)
    with pytest.raises(ValueError):
        eval_prompt_ltl(parse_trace("; {p}"), -1, parse("Fp p"))


def test_robust_prompt_always_eventually():
    # Every position sees s within k steps: full satisfaction at the gap.
    w = parse_trace("; {s} {} {}")
    phi = parse("G Fp s")
    assert str(eval_rprompt_ltl(w, 2, phi)) == "1111"
    assert str(eval_rprompt_ltl(w, 1, phi)) == "0011"


def test_diamond_with_test_guard():
    # <{q}? ; tt> p : one step, provided q holds now.
    w = parse_trace("{q} ; {p}")
    assert eval_ldl(w, parse("< {q}? ; tt > p")) == 1
    w2 = parse_trace("{} ; {p}")
    assert eval_ldl(w2, parse("< {q}? ; tt > p")) == 0


def test_match_set_plain_guards():
    w = parse_trace("{p} ; {q} {r}")
    s = match_set(w, parse_guard("tt*"), 1)
    assert set(s.finite_matches) >= {0, 1, 2}
    assert s.infinite_classes == frozenset({1, 2})
    even = match_set(w, parse_guard("(tt;tt)*"), 1)
    assert 0 in even.finite_matches and 1 not in even.finite_matches
    assert even.infinite_classes  # loop length 2, even positions recur


def test_match_set_respects_test_bit():
    w = parse_trace("{} ; {p}")
    guard = parse_guard("{[tt*] p}?")
    assert match_set(w, guard, 1).finite_matches == ()
    assert match_set(w, guard, 2).finite_matches == (0,)


def test_test_free_guard_shares_one_engine_across_bits():
    # A guard without tests reads no bit, so the four bits of a robust
    # box share one engine; a guard with a test keeps one per bit.
    w = parse_trace("{q} ; {p} {q}")
    plain = _RobustEvaluator(w)
    plain.value(0, parse("[tt*] p", LogicId.RLDL))
    assert list(plain._engines) == [(parse_guard("tt*"), None)]
    tested = _RobustEvaluator(w)
    tested.value(0, parse("[{q}? ; tt*] p", LogicId.RLDL))
    guard = parse_guard("{q}? ; tt*")
    assert sorted(tested._engines, key=lambda key: key[1]) == [
        (guard, bit) for bit in range(1, 5)
    ]


def test_match_set_bit_range():
    with pytest.raises(ValueError):
        match_set(parse_trace("; {}"), parse_guard("tt*"), 5)


@settings(max_examples=150, deadline=None)
@given(lassos, st.integers(min_value=0, max_value=6))
def test_rldl_well_defined(w, seed):
    rng = make_rng(seed)
    phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 9), ("p", "q"))
    assert eval_rldl(w, phi) in ALL_VALUES


@settings(max_examples=100, deadline=None)
@given(lassos, st.integers(min_value=0, max_value=6))
def test_negation_swaps_top(w, seed):
    rng = make_rng(seed)
    phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 7), ("p", "q"))
    from robusttl.formulas import Not

    assert eval_rldl(w, Not(phi)) == negate(eval_rldl(w, phi))


@settings(max_examples=100, deadline=None)
@given(lassos, st.integers(min_value=0, max_value=6))
def test_connectives_are_lattice_ops(w, seed):
    rng = make_rng(seed)
    from robusttl.formulas import And, Or
    from robusttl.truth import join, meet

    a = random_formula(rng, LogicId.RLDL, rng.randint(1, 6), ("p", "q"))
    b = random_formula(rng, LogicId.RLDL, rng.randint(1, 6), ("p", "q"))
    va, vb = eval_rldl(w, a), eval_rldl(w, b)
    assert eval_rldl(w, And(a, b)) == meet(va, vb)
    assert eval_rldl(w, Or(a, b)) == join(va, vb)


@settings(max_examples=80, deadline=None)
@given(lassos, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_prompt_value_monotone_in_k(w, seed, k):
    rng = make_rng(seed)
    phi = random_formula(rng, LogicId.RPROMPT_LTL, rng.randint(1, 7), ("p", "q"))
    assert eval_rprompt_ltl(w, k, phi) <= eval_rprompt_ltl(w, k + 1, phi)


def test_prompt_ltl_bound_clamp_matches_unclamped_value():
    # Prompt LTL is evaluated at min(k, positions).  The unclamped
    # evaluators at positions + 9 must agree with that on seeded lassos.
    from robusttl.semantics import _ClassicalEvaluator, _RobustEvaluator

    rng = make_rng(77)
    for _ in range(300):
        w = random_lasso(rng, ("p", "q"))
        k = w.positions
        robust = random_formula(rng, LogicId.RPROMPT_LTL, rng.randint(1, 8), ("p", "q"))
        assert eval_rprompt_ltl(w, k, robust) == _RobustEvaluator(w, k + 9).value(0, robust)
        assert eval_rprompt_ltl(w, k + 9, robust) == eval_rprompt_ltl(w, k, robust)
        boolean = random_formula(rng, LogicId.PROMPT_LTL, rng.randint(1, 8), ("p", "q"))
        assert eval_prompt_ltl(w, k, boolean) == _ClassicalEvaluator(w, k + 9).value(0, boolean)


def test_prompt_ltl_huge_bound_returns_at_once():
    w = parse_trace("{} {q} ; {p} {} {q} {}")
    start = time.monotonic()
    assert str(eval_rprompt_ltl(w, 10**6, parse("G Fp p"))) == "1111"
    assert eval_prompt_ltl(w, 10**6, parse("G Fp q", LogicId.PROMPT_LTL)) == 1
    assert time.monotonic() - start < 1.0


@settings(max_examples=80, deadline=None)
@given(lassos, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=8))
def test_suffix_invariance(w, seed, j):
    # Evaluating at a canonical suffix equals evaluating the suffix trace.
    rng = make_rng(seed)
    phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 6), ("p", "q"))
    assert eval_rldl(w.suffix(j), phi) == eval_rldl(w.suffix(w.canonical_index(j)), phi)


def test_box_max_lift_restores_monotonicity():
    # Degree-1 matches are empty but degree-2 matches exist and refute ff;
    # the lift pulls the weaker bits up to keep the value monotone.
    assert str(rldl("[ {[tt*] p}? ] ff", "{} ; {p}")) == "1111"
    assert str(rldl("[ {[tt*] p}? ] ff", "; {} {p}")) == "1111"
    assert str(rldl("[ {[tt*] p}? ] ff", "{p} ; {}")) == "1111"


def _recurring_matches(w, nfa, c):
    """Classes where a test-free guard matches infinitely often from c:
    run the subset automaton over the unrolled word until its
    configuration repeats, then take the matches on the cycle."""
    first: dict = {}
    history = []
    states = thompson_close(nfa, {nfa.initial})
    while (states, c) not in first:
        first[(states, c)] = len(history)
        history.append((states, c))
        states = thompson_step(nfa, states, w.letter_at(c))
        c = w.canonical_index(c + 1)
    return frozenset(cls for s, cls in history[first[(states, c)]:] if s & nfa.finals)


def test_recurring_match_classes_match_brute_force():
    # A match class recurs only through pumping the start reaches; 17 of
    # these cases disagreed while any pumping configuration counted.
    rng = make_rng(3)
    for _ in range(3000):
        guard = random_guard(rng, ("p", "q"), rng.randint(1, 6), allow_tests=False)
        w = random_lasso(rng, ("p", "q"))
        c = rng.randrange(w.positions)
        nfa = thompson(guard)
        got = _GuardEngine(w, nfa, None).summary(c).infinite_classes
        assert got == _recurring_matches(w, nfa, c), (guard, w, c)


def _same_word(w):
    """The word of w written as three other lassos."""
    yield LassoTrace(w.prefix, w.loop + w.loop)
    yield LassoTrace(w.prefix + w.loop[:1], w.loop[1:] + w.loop[:1])
    yield LassoTrace(w.prefix + w.loop, w.loop)


def test_value_independent_of_how_the_lasso_is_written():
    # q* pumps on the loop but dies at once from position 0, so the
    # single !p match must not count as recurring on either lasso.
    phi = parse("[q* + !p] <p> <tt> p", LogicId.RLDL)
    assert str(rldl("[q* + !p] <p> <tt> p", "{} ; {p,q} {q} {p,q}")) == "0011"
    for w in _same_word(parse_trace("{} ; {p,q} {q} {p,q}")):
        assert str(eval_rldl(w, phi)) == "0011", w
    rng = make_rng(19)
    for logic in LogicId:
        for _ in range(60):
            phi = random_formula(rng, logic, rng.randint(1, 8), ("p", "q"))
            w = random_lasso(rng, ("p", "q"))
            k = rng.randint(0, 5) if logic in PROMPT_LOGICS else None
            value = evaluate(w, phi, logic, k)
            for other in _same_word(w):
                assert evaluate(other, phi, logic, k) == value, (logic, phi, w, other)
