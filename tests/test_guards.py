import itertools

import pytest
from _oracles import thompson_close, thompson_step

from robusttl.formulas import Atom, Concat, Ff, Prop, Star, guard_length
from robusttl.gen import make_rng, random_guard, random_lasso
from robusttl.guards import (
    GuardDFA,
    HasTestsError,
    all_letters,
    determinize,
    dfa_product,
    extract_regex,
    is_limit_matching,
    letter_of,
    prop_holds,
    thompson,
)
from robusttl.parser import parse, parse_guard
from robusttl.semantics import match_set
from robusttl.traces import LassoTrace


def letters2():
    return all_letters(("p", "q"))


def dfa_accepts(dfa: GuardDFA, word) -> bool:
    q = dfa.initial
    for letter in word:
        q = dfa.transitions[q][letter_of(dfa.props, letter)]
    return q in dfa.finals


def words_up_to(props, n):
    out = [()]
    frontier = [()]
    alphabet = all_letters(props)
    for _ in range(n):
        frontier = [w + (a,) for w in frontier for a in alphabet]
        out.extend(frontier)
    return out


def test_prop_holds():
    assert prop_holds(frozenset({"p"}), parse("p & !q"))
    assert not prop_holds(frozenset({"p", "q"}), parse("p & !q"))
    assert prop_holds(frozenset(), parse("tt"))
    assert not prop_holds(frozenset(), parse("ff"))


def test_all_letters():
    assert len(letters2()) == 4
    assert frozenset({"p", "q"}) in letters2()


def test_letter_of_is_the_position_in_all_letters():
    # Bit i is the i-th sorted proposition; a label outside the
    # propositions is dropped.
    props = ("p", "q", "r")
    alphabet = all_letters(props)
    for members in itertools.chain.from_iterable(
        itertools.combinations(props, k) for k in range(4)
    ):
        labels = frozenset(members)
        assert letter_of(props, labels) == alphabet.index(labels)
        assert letter_of(props, labels | {"x"}) == alphabet.index(labels)
        assert alphabet[letter_of(props, labels | {"x"})] == labels
    assert letter_of(props, {"q", "x"}) == 0b010


@pytest.mark.parametrize(
    "text",
    ["tt", "p", "!p & q", "p ; q", "p + q", "(p;q)*", "tt*", "((!t)*;t;(!t)*;t)*"],
)
def test_thompson_linear_size(text):
    guard = parse_guard(text)
    nfa = thompson(guard)
    assert nfa.n_states <= 2 * guard_length(guard) + 2


def test_thompson_gives_each_occurrence_states_without_recursion():
    # p ; p has one shared guard atom, which still takes two states twice.
    guard = parse_guard("p ; p")
    assert guard.left is guard.right and thompson(guard).n_states == 4
    deep = Prop(Atom("p"))
    for _ in range(3000):
        deep = Concat(Prop(Atom("p")), deep)
    nfa = thompson(deep)
    assert nfa.n_states == 6002 and nfa.initial == 0 and nfa.finals == {6001}


def test_determinize_rejects_tests():
    with pytest.raises(HasTestsError):
        determinize(parse_guard("{p}? ; tt"), ("p",))


def test_determinize_language():
    guard = parse_guard("(p ; q)*")
    dfa = determinize(guard, ("p", "q"))
    p, q = frozenset({"p"}), frozenset({"q"})
    assert dfa_accepts(dfa, ())
    assert dfa_accepts(dfa, (p, q))
    assert dfa_accepts(dfa, (p, q, p, q))
    assert not dfa_accepts(dfa, (p,))
    assert not dfa_accepts(dfa, (q, p))


@pytest.mark.parametrize("props", [("p", "q"), ("p", "q", "r")])
def test_determinize_agrees_with_thompson_simulation(props):
    # Every word of length 0-5 ends the simulation of the Thompson
    # automaton in a final state exactly when it ends the DFA in a final
    # state.  The pair of the two ends decides every longer word, so the
    # words are walked one letter at a time with one entry per pair.
    rng = make_rng(41 + len(props))
    alphabet = all_letters(props)
    for _ in range(300):
        guard = random_guard(rng, props, rng.randint(1, 6), allow_tests=False)
        nfa = thompson(guard)
        dfa = determinize(guard, props)
        layer = {(thompson_close(nfa, {nfa.initial}), dfa.initial)}
        for length in range(6):
            for states, q in layer:
                assert bool(states & nfa.finals) == (q in dfa.finals), (guard, length)
            layer = {
                (thompson_step(nfa, states, letter), dfa.transitions[q][a])
                for states, q in layer
                for a, letter in enumerate(alphabet)
            }


def test_dfa_product_intersects():
    d1 = determinize(parse_guard("p*"), ("p", "q"))
    d2 = determinize(parse_guard("(p;p)*"), ("p", "q"))
    prod = dfa_product(d1, d2)
    p = frozenset({"p"})
    assert dfa_accepts(prod, ())
    assert dfa_accepts(prod, (p, p))
    assert not dfa_accepts(prod, (p,))


def test_extract_regex_round_trips_language():
    rng = make_rng(13)
    for _ in range(40):
        guard = random_guard(rng, ("p", "q"), rng.randint(1, 5), allow_tests=False)
        dfa = determinize(guard, ("p", "q"))
        back = extract_regex(dfa, dfa.initial, dfa.finals)
        dfa2 = determinize(back, ("p", "q"))
        for word in words_up_to(("p", "q"), 3):
            assert dfa_accepts(dfa, word) == dfa_accepts(dfa2, word)


def test_extract_regex_empty_language():
    dfa = determinize(parse_guard("ff"), ("p",))
    back = extract_regex(dfa, dfa.initial, dfa.finals)
    dfa2 = determinize(back, ("p",))
    for word in words_up_to(("p",), 3):
        assert not dfa_accepts(dfa2, word)


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("tt*", True),
        ("(tt;tt)*", True),
        ("((!t)*;t;(!t)*;t)*", False),
        ("p*", False),
        ("tt* ; p", False),
        ("(p + !p)*", True),
        ("tt ; tt*", True),
        ("tt ; (tt;tt)*", True),
        ("p ; tt*", False),
    ],
)
def test_is_limit_matching(text, expected):
    assert is_limit_matching(parse_guard(text)) is expected


def test_is_limit_matching_rejects_tests():
    with pytest.raises(HasTestsError):
        is_limit_matching(parse_guard("{p}?*"))


def test_limit_matching_agrees_with_match_sets():
    # Limit-matching guards produce infinite match sets on every lasso.
    rng = make_rng(29)
    for _ in range(30):
        guard = random_guard(rng, ("p", "q"), rng.randint(1, 5), allow_tests=False)
        matching = is_limit_matching(guard)
        for _ in range(5):
            w = random_lasso(rng, ("p", "q"))
            infinite = bool(match_set(w, guard, 1).infinite_classes)
            if matching:
                assert infinite
    # Double-t repetition is the classic non-example: it stalls on a
    # t-free loop.
    guard = parse_guard("((!t)*;t;(!t)*;t)*")
    w = LassoTrace((frozenset({"t"}),), (frozenset(),))
    assert not match_set(w, guard, 1).infinite_classes


def test_epsilon_guard_matches_only_empty_word():
    guard = Star(Prop(Ff()))
    w = LassoTrace((), (frozenset(),))
    summary = match_set(w, guard, 1)
    assert summary.finite_matches == (0,)
    assert not summary.infinite_classes
