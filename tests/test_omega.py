import os
import subprocess
import sys
from dataclasses import replace

import pytest
from _oracles import (
    dpa_complement,
    dpa_minimize,
    dpa_quotient,
    reference_direct_simulation,
    reference_tree_step,
    unpruned_apa_to_nba,
)

from robusttl import omega

from robusttl.apa import APA, apa_complement, from_rldl
from robusttl.formulas import LogicId
from robusttl.gen import make_rng, random_formula, random_lasso
from robusttl.guards import all_letters, letter_of
from robusttl.hoa import dpa_to_hoa, nba_to_hoa
from robusttl.omega import (
    DPA,
    NBA,
    NotWeakError,
    apa_to_nba,
    dpa_accepts_lasso,
    direct_simulation,
    ldl_to_dpa,
    nba_accepts_lasso,
    nba_emptiness,
    nba_intersection,
    nba_simulation_reduce,
    nba_to_dpa,
    rldl_to_dpa,
    rldl_to_nba,
)
from robusttl.parser import parse
from robusttl.semantics import eval_ldl, eval_rldl
from robusttl.traces import LassoTrace, parse_trace
from robusttl.truth import ALL_VALUES, POSITIVE_VALUES, from_string

PQ = ("p", "q")


def letter(*props):
    return frozenset(props)


def simple_nba(accept_on_p: bool) -> NBA:
    # Accepts words with infinitely many p (or q when flipped).
    target = "p" if accept_on_p else "q"
    transitions = {}
    for a, labels in enumerate(all_letters(PQ)):
        transitions[(0, a)] = (1,) if target in labels else (0,)
        transitions[(1, a)] = (1,) if target in labels else (0,)
    return NBA(PQ, 2, 0, transitions, frozenset({1}))


def test_apa_to_nba_equivalence_samples():
    rng = make_rng(7)
    for _ in range(30):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 8), PQ)
        beta = POSITIVE_VALUES[rng.randrange(4)]
        apa = from_rldl(phi, beta, PQ)
        nba = apa_to_nba(apa)
        for _ in range(4):
            w = random_lasso(rng, PQ)
            assert nba_accepts_lasso(nba, w) == (eval_rldl(w, phi) >= beta)


def test_apa_to_nba_requires_weak():
    # A two-state odd/even alternation with colors 0 and 1 is not weak.
    delta = {}
    for a in range(2):
        delta[(0, a)] = (1 << 1,)
        delta[(1, a)] = (1 << 0,)
    bad = APA(("p",), 2, 0, delta, (0, 1))
    with pytest.raises(NotWeakError):
        apa_to_nba(bad)


def test_breakpoint_step_requires_weak():
    # The same alternation, asked for step by step as model checking
    # does: the steps are built, and the weakness check after them fails.
    delta = {(0, 0): (1 << 1,), (1, 0): (1 << 0,)}
    bp = omega.Breakpoint(("p",), lambda q, a: delta[(q, a)], (0, 1).__getitem__, 0)
    (second,) = bp.step(bp.initial, 0)
    assert bp.step(second, 0) == (bp.initial,)
    with pytest.raises(NotWeakError):
        bp.check_weak()
    # Colors 0 and 2 in one component have one parity: that is weak
    # enough for the breakpoint construction.
    even = omega.Breakpoint(("p",), lambda q, a: delta[(q, a)], (0, 2).__getitem__, 0)
    even.step(even.step(even.initial, 0)[0], 0)
    even.check_weak()


def test_nba_accepts_lasso_infinitely_often():
    nba = simple_nba(True)
    assert nba_accepts_lasso(nba, parse_trace("; {p}"))
    assert nba_accepts_lasso(nba, parse_trace("; {} {p}"))
    assert not nba_accepts_lasso(nba, parse_trace("{p} ; {}"))


def test_nba_emptiness_witness():
    nba = simple_nba(True)
    witness = nba_emptiness(nba)
    assert witness is not None
    assert nba_accepts_lasso(nba, witness)


def test_nba_emptiness_empty_language():
    apa = from_rldl(parse("[tt*] ff & <tt*> p"), from_string("1111"), ("p",))
    nba = apa_to_nba(apa)
    assert nba_emptiness(nba) is None


def test_nba_intersection_language_and_size():
    b1 = simple_nba(True)
    b2 = simple_nba(False)
    prod = nba_intersection(b1, b2)
    assert prod.n_states == b1.n_states * b2.n_states * 2
    assert nba_accepts_lasso(prod, parse_trace("; {p} {q}"))
    assert nba_accepts_lasso(prod, parse_trace("; {p,q}"))
    assert not nba_accepts_lasso(prod, parse_trace("; {p}"))
    assert not nba_accepts_lasso(prod, parse_trace("{q} ; {p}"))


def test_nba_to_dpa_equivalence_basic():
    for text, beta in [("[tt*] p", "0111"), ("[tt*] p", "0011"), ("<tt*> p", "1111")]:
        nba = rldl_to_nba(parse(text), from_string(beta), PQ)
        dpa = nba_to_dpa(nba)
        rng = make_rng(5)
        for _ in range(25):
            w = random_lasso(rng, PQ)
            assert dpa_accepts_lasso(dpa, w) == nba_accepts_lasso(nba, w), (
                text,
                beta,
                w,
            )


def test_nba_to_dpa_regression_infinitely_often_pattern():
    # A cycle seeing both a node death and a re-spawn at the same tree name
    # must reject; found by differential search, kept as a fixed case.
    nba = rldl_to_nba(parse("[tt*] p"), from_string("0111"), PQ)
    dpa = nba_to_dpa(nba)
    w = LassoTrace((letter(), letter("p")), (letter("p"), letter(), letter("p")))
    assert not nba_accepts_lasso(nba, w)
    assert not dpa_accepts_lasso(dpa, w)


def test_dpa_is_total_and_deterministic():
    dpa = rldl_to_dpa(parse("[(tt;tt)*] p"), from_string("0011"), PQ)
    assert len(dpa.delta) == dpa.n_states
    for row in dpa.delta:
        assert len(row) == len(all_letters(PQ))
        assert all(t in dpa.states() for t in row)


def test_dpa_complement():
    dpa = rldl_to_dpa(parse("<tt*> (p & q)"), from_string("1111"), PQ)
    comp = dpa_complement(dpa)
    rng = make_rng(9)
    for _ in range(20):
        w = random_lasso(rng, PQ)
        assert dpa_accepts_lasso(dpa, w) != dpa_accepts_lasso(comp, w)


def test_ldl_to_dpa_classical():
    dpa = ldl_to_dpa(parse("[ (tt;tt)* ] p", LogicId.LDL), PQ)
    for trace_text in ["; {p} {}", "; {p}", "; {p} {p} {}", "{} ; {p} {}"]:
        w = parse_trace(trace_text)
        assert dpa_accepts_lasso(dpa, w) == (eval_ldl(w, parse("[ (tt;tt)* ] p")) == 1)


def test_full_chain_random_agreement():
    rng = make_rng(31)
    for _ in range(25):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 7), PQ)
        beta = POSITIVE_VALUES[rng.randrange(4)]
        nba = rldl_to_nba(phi, beta, PQ)
        dpa = rldl_to_dpa(phi, beta, PQ)
        for _ in range(3):
            w = random_lasso(rng, PQ)
            want = eval_rldl(w, phi) >= beta
            assert nba_accepts_lasso(nba, w) == want
            assert dpa_accepts_lasso(dpa, w) == want


def test_hoa_headers():
    nba = rldl_to_nba(parse("[tt*] p"), from_string("1111"), ("p",))
    text = nba_to_hoa(nba, name="always p")
    lines = text.splitlines()
    assert lines[0] == "HOA: v1"
    assert lines[1] == 'name: "always p"'
    assert lines[2] == f"States: {nba.n_states}"
    assert lines[3] == f"Start: {nba.initial}"
    assert lines[4] == 'AP: 1 "p"'
    assert lines[5] == "acc-name: Buchi"
    assert lines[6] == "Acceptance: 1 Inf(0)"
    assert "--BODY--" in lines and lines[-1] == "--END--"

    dpa = rldl_to_dpa(parse("[tt*] p"), from_string("0111"), ("p",))
    text = dpa_to_hoa(dpa)
    lines = text.splitlines()
    n_colors = max(dpa.color) + 1
    assert lines[0] == "HOA: v1"
    assert f"acc-name: parity max even {n_colors}" in lines
    assert any(line.startswith("Acceptance:") for line in lines)
    assert "deterministic" in text


def test_hoa_parity_acceptance_formula():
    dpa = rldl_to_dpa(parse("[tt*] p -> [tt*] q"), from_string("0011"), PQ)
    text = dpa_to_hoa(dpa)
    acc_line = next(l for l in text.splitlines() if l.startswith("Acceptance:"))
    n_colors = int(acc_line.split()[1])
    # Max-even acceptance mentions every color exactly once.
    for c in range(n_colors):
        kind = "Inf" if c % 2 == 0 else "Fin"
        assert f"{kind}({c})" in acc_line


def test_pruned_dealternation_matches_unpruned_reference():
    # Criterion-3-style formulas and their complements (the model-checking
    # path), every threshold: the pruned NBA accepts the same lassos as
    # the plain breakpoint construction and is never larger.
    rng = make_rng(303)
    for _ in range(40):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 8), PQ)
        lassos = [random_lasso(rng, PQ) for _ in range(4)]
        for beta in ALL_VALUES:
            base = from_rldl(phi, beta, PQ)
            for apa in (base, apa_complement(base)):
                nba = apa_to_nba(apa)
                reference = unpruned_apa_to_nba(apa)
                assert nba.n_states <= reference.n_states, (phi, beta)
                for w in lassos:
                    assert nba_accepts_lasso(nba, w) == nba_accepts_lasso(reference, w), (
                        phi,
                        beta,
                        w,
                    )


def test_complement_nba_of_recurrent_implication_stays_small():
    apa = from_rldl(parse("[tt*] (p -> [tt*] p)"), from_string("0011"), ("p",))
    assert apa_to_nba(apa_complement(apa)).n_states <= 783


def test_dpa_quotient_merges_duplicate_states():
    # Infinitely many p, written with two copies of each state; the
    # initial state behaves like a "no p" state.
    # Row q is (successor on {}, successor on {p}).
    step = {0: (1, 2), 1: (3, 4), 2: (1, 4), 3: (1, 2), 4: (3, 2)}
    delta = tuple((off_p, on_p) for _q, (on_p, off_p) in sorted(step.items()))
    dpa = DPA(("p",), 5, 0, delta, (1, 2, 1, 2, 1))
    small = dpa_quotient(dpa)
    assert small.n_states == 2
    assert small.initial == 0
    assert len(small.delta) == small.n_states
    for row in small.delta:
        assert len(row) == 2
        assert all(t in small.states() for t in row)
    rng = make_rng(11)
    for _ in range(40):
        w = random_lasso(rng, ("p",))
        assert dpa_accepts_lasso(small, w) == dpa_accepts_lasso(dpa, w)


def test_compile_hoa_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        texts = []
        for target, formula in (
            ("dpa", "[tt*] (p -> <tt*> q)"),
            ("nba", "[tt*] (p -> [tt*] q) & <tt*> (p & q)"),
        ):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "robusttl.cli",
                    "compile",
                    "--formula",
                    formula,
                    "--beta",
                    "0111",
                    "--target",
                    target,
                ],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            texts.append(proc.stdout)
        outputs.append(texts)
    assert outputs[0] == outputs[1]


def random_nba(rng, n_states: int) -> NBA:
    transitions = {}
    for q in range(n_states):
        for a in range(len(all_letters(PQ))):
            k = rng.choice((0, 1, 1, 2, 2, 3))
            transitions[(q, a)] = tuple(sorted(rng.sample(range(n_states), min(k, n_states))))
    accepting = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return NBA(PQ, n_states, rng.randrange(n_states), transitions, accepting)


def check_simulation_reduce(nba, lassos, context):
    sim = direct_simulation(nba)
    got = {
        (p, q)
        for p in range(nba.n_states)
        for q in range(nba.n_states)
        if sim[p] >> q & 1
    }
    assert got == reference_direct_simulation(nba), context
    small = nba_simulation_reduce(nba)
    assert small.n_states <= nba.n_states, context
    for w in lassos:
        assert nba_accepts_lasso(small, w) == nba_accepts_lasso(nba, w), (context, w)


def test_simulation_matches_reference_on_random_nbas():
    # 200 random NBAs with 1-12 states, some without successors on some
    # letters: the preorder equals the pairwise fixpoint, and the reduced
    # automaton is no larger and accepts the same lassos.
    rng = make_rng(606)
    for i in range(200):
        nba = random_nba(rng, rng.randint(1, 12))
        lassos = [random_lasso(rng, PQ) for _ in range(12)]
        check_simulation_reduce(nba, lassos, i)


def test_simulation_reduce_on_formula_nbas():
    # Criterion-3-style formulas and their complements, every threshold.
    rng = make_rng(404)
    for _ in range(40):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 8), PQ)
        lassos = [random_lasso(rng, PQ) for _ in range(6)]
        for beta in ALL_VALUES:
            base = from_rldl(phi, beta, PQ)
            for apa in (base, apa_complement(base)):
                check_simulation_reduce(apa_to_nba(apa), lassos, (phi, beta))


def test_recurrence_dpa_is_small():
    # [tt*] <tt*> p is "infinitely often p" at 0011 and 0111.
    for beta in ("0011", "0111"):
        dpa = rldl_to_dpa(parse("[tt*] <tt*> p"), from_string(beta), PQ)
        assert dpa.n_states <= 27, beta


def test_response_dpa_is_small_at_0001():
    phi = parse("[tt*] (p -> <tt*> q)")
    dpa = rldl_to_dpa(phi, from_string("0001"), PQ)
    assert dpa.n_states <= 3
    nba = rldl_to_nba(phi, from_string("0001"), PQ)
    rng = make_rng(17)
    for _ in range(40):
        w = random_lasso(rng, PQ)
        assert dpa_accepts_lasso(dpa, w) == nba_accepts_lasso(nba, w), w


def test_deterministic_nba_with_missing_letter_gets_rejecting_sink():
    # p forever, with a visit to the accepting state 1 on every {p, q}:
    # a letter without p has no successor at all.
    pq, p_only = letter_of(PQ, {"p", "q"}), letter_of(PQ, {"p"})
    transitions = {(q, a): () for q in range(2) for a in range(4)}
    for q in range(2):
        transitions[(q, pq)] = (1,)
        transitions[(q, p_only)] = (0,)
    nba = NBA(PQ, 2, 0, transitions, frozenset({1}))
    assert nba_simulation_reduce(nba).n_states == 2
    dpa = nba_to_dpa(nba)
    assert len(dpa.delta) == dpa.n_states
    assert all(len(row) == 4 for row in dpa.delta)
    for text in ("; {p,q}", "; {p} {p,q}", "; {p}", "{p,q} ; {p}", "{p,q} {} ; {p,q}",
                 "; {p,q} {q}", "{p} ; {p,q} {p}"):
        w = parse_trace(text)
        assert dpa_accepts_lasso(dpa, w) == nba_accepts_lasso(nba, w), text
    rng = make_rng(23)
    for _ in range(40):
        w = random_lasso(rng, PQ)
        assert dpa_accepts_lasso(dpa, w) == nba_accepts_lasso(nba, w), w


def random_dpa(rng, n_states: int) -> DPA:
    delta = tuple(
        tuple(rng.randrange(n_states) for _a in all_letters(PQ))
        for _q in range(n_states)
    )
    color = tuple(rng.randint(0, 5) for _ in range(n_states))
    return DPA(PQ, n_states, 0, delta, color)


def test_least_priorities_keep_language_and_never_grow():
    # 200 random complete DPAs with 1-12 states, started from every state:
    # the recolored and quotiented automaton accepts the same lassos as
    # the input, and has no more states and colors than the quotient.
    rng = make_rng(808)
    shrank = 0
    for i in range(200):
        dpa = random_dpa(rng, rng.randint(1, 12))
        lassos = [random_lasso(rng, PQ) for _ in range(12)]
        for q in dpa.states():
            start = replace(dpa, initial=q)
            small = dpa_minimize(start)
            quotient = dpa_quotient(start)
            assert small.n_states <= quotient.n_states, (i, q)
            assert max(small.color) <= max(quotient.color), (i, q)
            assert len(small.delta) == small.n_states
            assert all(len(row) == 4 for row in small.delta)
            shrank += small.n_states < quotient.n_states
            for w in lassos:
                assert dpa_accepts_lasso(small, w) == dpa_accepts_lasso(start, w), (i, q, w)
    assert shrank


def test_recurrent_response_dpa_has_few_states_and_colors():
    dpa = rldl_to_dpa(parse("[tt*] (p -> <tt*> q)"), from_string("0011"), PQ)
    assert dpa.n_states <= 236
    assert max(dpa.color) + 1 <= 3


def test_recurrence_dpa_after_least_priorities():
    dpa = rldl_to_dpa(parse("[tt*] <tt*> p"), from_string("0011"), PQ)
    assert dpa.n_states <= 10


def test_transient_state_merges_with_same_successor_state():
    # A deterministic Buechi automaton whose accepting state is on no
    # cycle: with its successor's priority it merges with the rejecting
    # state of the same successors.
    dpa = rldl_to_dpa(parse("([(((!u))*)] (!b -> (!b & u)))"), from_string("0001"))
    assert dpa.n_states == 2


# Captured before letters became ints: the HOA text of one formula over
# three propositions, so that AP numbering and edge order stay pinned.
_HOA_FORMULA = "<tt*> (p & [tt] (q | r))"
_HOA_DPA = """\
HOA: v1
States: 3
Start: 0
AP: 3 "p" "q" "r"
acc-name: parity max even 2
Acceptance: 2 Fin(1) & Inf(0)
properties: trans-labels explicit-labels state-acc deterministic
--BODY--
State: 0 {1}
[!0 & !1 & !2] 0
[0 & !1 & !2] 1
[0 & 1 & !2] 1
[0 & 1 & 2] 1
[0 & !1 & 2] 1
[!0 & 1 & !2] 0
[!0 & 1 & 2] 0
[!0 & !1 & 2] 0
State: 1 {1}
[!0 & !1 & !2] 0
[0 & !1 & !2] 1
[0 & 1 & !2] 2
[0 & 1 & 2] 2
[0 & !1 & 2] 2
[!0 & 1 & !2] 2
[!0 & 1 & 2] 2
[!0 & !1 & 2] 2
State: 2 {0}
[!0 & !1 & !2] 2
[0 & !1 & !2] 2
[0 & 1 & !2] 2
[0 & 1 & 2] 2
[0 & !1 & 2] 2
[!0 & 1 & !2] 2
[!0 & 1 & 2] 2
[!0 & !1 & 2] 2
--END--
"""
_HOA_NBA = """\
HOA: v1
States: 4
Start: 0
AP: 3 "p" "q" "r"
acc-name: Buchi
Acceptance: 1 Inf(0)
properties: trans-labels explicit-labels state-acc
--BODY--
State: 0 {0}
[!0 & !1 & !2] 1
[0 & !1 & !2] 1
[0 & !1 & !2] 2
[0 & 1 & !2] 1
[0 & 1 & !2] 2
[0 & 1 & 2] 1
[0 & 1 & 2] 2
[0 & !1 & 2] 1
[0 & !1 & 2] 2
[!0 & 1 & !2] 1
[!0 & 1 & 2] 1
[!0 & !1 & 2] 1
State: 1
[!0 & !1 & !2] 1
[0 & !1 & !2] 1
[0 & !1 & !2] 2
[0 & 1 & !2] 1
[0 & 1 & !2] 2
[0 & 1 & 2] 1
[0 & 1 & 2] 2
[0 & !1 & 2] 1
[0 & !1 & 2] 2
[!0 & 1 & !2] 1
[!0 & 1 & 2] 1
[!0 & !1 & 2] 1
State: 2 {0}
[0 & 1 & !2] 3
[0 & 1 & 2] 3
[0 & !1 & 2] 3
[!0 & 1 & !2] 3
[!0 & 1 & 2] 3
[!0 & !1 & 2] 3
State: 3 {0}
[!0 & !1 & !2] 3
[0 & !1 & !2] 3
[0 & 1 & !2] 3
[0 & 1 & 2] 3
[0 & !1 & 2] 3
[!0 & 1 & !2] 3
[!0 & 1 & 2] 3
[!0 & !1 & 2] 3
--END--
"""


def test_hoa_text_over_three_props_is_pinned():
    phi = parse(_HOA_FORMULA)
    props = ("p", "q", "r")
    assert dpa_to_hoa(rldl_to_dpa(phi, from_string("1111"), props)) == _HOA_DPA
    assert nba_to_hoa(rldl_to_nba(phi, from_string("1111"), props)) == _HOA_NBA


def test_tree_step_matches_recursive_reference(monkeypatch):
    # Every compact-tree step of seeded determinizations, at every
    # positive threshold, gives the tree, labels and priority of the
    # recursive form.
    step = omega._tree_step
    calls = []

    def checked(*args):
        got = step(*args)
        assert got == reference_tree_step(*args), args
        calls.append(got)
        return got

    monkeypatch.setattr(omega, "_tree_step", checked)
    rng = make_rng(515)
    formulas = [random_formula(rng, LogicId.RLDL, rng.randint(3, 8), PQ) for _ in range(20)]
    formulas += [parse(text) for text in (
        "[tt*] (p -> <tt*> q)", "[tt*] <tt*> p", "<tt*> q & [tt*] <(tt;tt)*> q"
    )]
    for phi in formulas:
        for beta in POSITIVE_VALUES:
            rldl_to_dpa(phi, beta, PQ)
    assert len(calls) > 5000
    assert max(len(tree) for tree, _labels, _priority in calls) > 5


def test_tree_step_handles_trees_deeper_than_the_recursion_limit():
    # A chain of names 1, 2, ... whose every node holds the one NBA state:
    # each inner node is green, so only the root survives.
    depth = sys.getrecursionlimit() + 100
    tree = tuple((name, name - 1 if name > 1 else None) for name in range(1, depth + 1))
    labels = {name: frozenset({0}) for name in range(1, depth + 1)}
    got = omega._tree_step(tree, labels, 0, {(0, 0): (0,)}, frozenset(), 1)
    assert got == (((1, None),), {1: frozenset({0})}, 2)
