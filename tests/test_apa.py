import os
import subprocess
import sys

import pytest
from _oracles import reference_from_rldl

from robusttl.apa import (
    apa_accepts_lasso,
    apa_complement,
    bits,
    from_rldl,
    is_weak,
    models_and,
    models_dual,
    models_or,
    weak_components,
)
from robusttl.formulas import LogicId, size
from robusttl.gen import make_rng, random_formula, random_lasso
from robusttl.omega import apa_to_nba
from robusttl.parser import parse
from robusttl.semantics import eval_rldl
from robusttl.truth import ALL_VALUES, POSITIVE_VALUES, TOP, V0011, from_string
from robusttl.traces import parse_trace

PQ = ("p", "q")


def compile_at(text, beta):
    return from_rldl(parse(text, LogicId.RLDL), from_string(beta), PQ)


def agrees(apa, phi, beta, trace):
    want = eval_rldl(trace, phi) >= beta
    return apa_accepts_lasso(apa, trace) == want


TRUE, FALSE = (0,), ()


def test_models_fold_constants_duplicates_and_absorption():
    x, y = (1 << 0,), (1 << 1,)
    assert models_and([TRUE, x]) == x
    assert models_and([FALSE, x]) == FALSE
    assert models_and([]) == TRUE
    assert models_or([FALSE, x]) == x
    assert models_or([TRUE, x]) == TRUE
    assert models_or([]) == FALSE
    assert models_and([x, x]) == x
    assert models_or([x, x]) == x
    assert models_and([models_and([x, y]), x]) == (0b11,)
    # Absorption: x | (x & y) has the single minimal model {x}.
    assert models_or([x, models_and([x, y])]) == x
    assert models_and([x, models_or([x, y])]) == x
    assert models_or([x, models_and([y, (1 << 2,)])]) == (0b1, 0b110)


def test_models_dual():
    x, y = (1 << 0,), (1 << 1,)
    assert models_dual(models_and([x, y])) == models_or([x, y])
    assert models_dual(TRUE) == FALSE
    assert models_dual(FALSE) == TRUE
    assert models_dual(models_or([x, models_and([x, y])])) == x
    assert models_dual((0b011, 0b110), lambda s: 4 - s) == (0b01000, 0b10100)


def test_models_and_or_dual_match_brute_force():
    # Random trees over at most 5 states: the operations give exactly the
    # minimal satisfying subsets, and the dual exactly the minimal
    # subsets that meet every model, the constants and duplicates included.
    rng = make_rng(131)

    def tree(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            if roll < 0.05:
                return TRUE, lambda s: True
            if roll < 0.1:
                return FALSE, lambda s: False
            q = rng.randrange(5)
            return (1 << q,), lambda s: s >> q & 1 == 1
        parts = [tree(depth - 1) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3 and parts:
            parts.append(parts[0])
        if roll < 0.65:
            return models_and(m for m, _ in parts), lambda s: all(f(s) for _, f in parts)
        return models_or(m for m, _ in parts), lambda s: any(f(s) for _, f in parts)

    def minimal(holds):
        sats = [s for s in range(32) if holds(s)]
        return tuple(sorted(s for s in sats if not any(t != s and t & s == t for t in sats)))

    for _ in range(400):
        models, holds = tree(rng.randint(0, 4))
        assert models == minimal(holds)
        assert models_dual(models) == minimal(lambda s: not holds(31 & ~s))
        assert models_dual(models_dual(models)) == models


def test_dual_of_many_models():
    # One transition has 561 minimal models over 48 states.  Folding them
    # one at a time into hitting sets did not finish in a minute.
    apa = compile_at("p -> [p] (q & q) -> [(!q)] p", "0011")
    comp = apa_complement(apa)
    assert max(len(models) for models in apa.delta.values()) == 561
    assert max(len(models) for models in comp.delta.values()) == 1416
    assert apa_complement(comp).delta == apa.delta


def test_bits_lists_set_bits_in_order():
    assert list(bits(0)) == []
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(1 << 70)) == [70]


def test_from_rldl_is_weak():
    for text in ["[tt*] p", "<(p;q)*> (p & q)", "[tt*] p -> [tt*] q", "<{p}? ; tt*> q"]:
        for beta in POSITIVE_VALUES:
            apa = from_rldl(parse(text, LogicId.RLDL), beta, PQ)
            assert is_weak(apa)


def test_apa_matches_oracle_on_examples():
    phi = parse("[tt*] p", LogicId.RLDL)
    for beta_text, trace_text, want in [
        ("1111", "; {p}", True),
        ("1111", "{} ; {p}", False),
        ("0111", "{} ; {p}", True),
        ("0011", "; {} {p}", True),
        ("0111", "; {} {p}", False),
        ("0001", "{p} ; {}", True),
        ("0001", "; {}", False),
    ]:
        apa = compile_at("[tt*] p", beta_text)
        assert apa_accepts_lasso(apa, parse_trace(trace_text)) is want, (
            beta_text,
            trace_text,
        )


def test_complement_flips_acceptance():
    rng = make_rng(23)
    for _ in range(25):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 7), PQ)
        beta = POSITIVE_VALUES[rng.randrange(4)]
        apa = from_rldl(phi, beta, PQ)
        comp = apa_complement(apa)
        for _ in range(4):
            w = random_lasso(rng, PQ)
            assert apa_accepts_lasso(apa, w) != apa_accepts_lasso(comp, w)


def test_weak_components_uniform_colors():
    apa = compile_at("[(tt;tt)*] (p -> <tt*> q)", "0111")
    comp = weak_components(apa)
    for group in comp:
        colors = {apa.color[q] for q in group}
        assert len(colors) == 1


def test_weak_components_are_in_topological_order():
    # Component membership itself is checked in test_graphs.py.
    rng = make_rng(59)
    for _ in range(20):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(2, 10), PQ)
        apa = from_rldl(phi, V0011, PQ)
        comps = weak_components(apa)
        assert sorted(q for comp in comps for q in comp) == list(range(apa.n_states))
        position = {q: i for i, comp in enumerate(comps) for q in comp}
        for (q, _letter), models in apa.delta.items():
            for t in {t for m in models for t in bits(m)}:
                assert position[q] <= position[t], (phi, q, t)


def test_state_count_linear_in_size():
    # 10 is the documented constant: each subformula is compiled at most
    # once per degree and dual, each guard block costing 2 NFA copies.
    rng = make_rng(41)
    for _ in range(60):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 10), PQ)
        for beta in POSITIVE_VALUES:
            apa = from_rldl(phi, beta, PQ)
            assert apa.n_states <= 10 * size(phi)


def test_random_agreement_with_oracle():
    rng = make_rng(97)
    for _ in range(40):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 8), PQ)
        beta = POSITIVE_VALUES[rng.randrange(4)]
        apa = from_rldl(phi, beta, PQ)
        for _ in range(4):
            w = random_lasso(rng, PQ)
            assert agrees(apa, phi, beta, w), (phi, beta, w)


def test_props_must_cover_formula():
    with pytest.raises(ValueError):
        from_rldl(parse("[tt*] p"), TOP, ("q",))


def test_bottom_threshold_always_accepts():
    from robusttl.truth import BOTTOM

    apa = from_rldl(parse("[tt*] ff"), BOTTOM, ("p",))
    rng = make_rng(1)
    for _ in range(5):
        w = random_lasso(rng, ("p",))
        assert apa_accepts_lasso(apa, w)


def test_implication_chain_thresholds():
    # p -> q at 0011 asks: value of q at least min(value p, 0011).
    phi = parse("[tt*] p -> [tt*] q", LogicId.RLDL)
    apa = from_rldl(phi, V0011, PQ)
    for trace_text in ["; {p,q}", "{q} ; {p}", "{p} ; {q}", "; {p}", "; {q} {}"]:
        w = parse_trace(trace_text)
        assert apa_accepts_lasso(apa, w) == (eval_rldl(w, phi) >= V0011)


def test_on_demand_builder_matches_eager_reference():
    # Criterion-3-style formulas at every threshold, every third over
    # {p,q,r}: the on-demand automaton has the states of the eager one
    # after pruning (numbered differently), the same colors, the same
    # lassos and an NBA of the same size.
    rng = make_rng(707)
    for k in range(40):
        props = ("p", "q", "r") if k % 3 == 2 else PQ
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, 12), props)
        lassos = [random_lasso(rng, props) for _ in range(10)]
        for beta in ALL_VALUES:
            apa = from_rldl(phi, beta, props)
            ref = reference_from_rldl(phi, beta, props)
            assert apa.n_states == ref.n_states, (phi, beta)
            assert sorted(apa.color) == sorted(ref.color), (phi, beta)
            for w in lassos:
                assert apa_accepts_lasso(apa, w) == apa_accepts_lasso(ref, w), (phi, beta, w)
            assert apa_to_nba(apa).n_states == apa_to_nba(ref).n_states, (phi, beta)


def test_state_in_collapsed_conjunction_is_not_numbered():
    # The right side's block state occurs only in conjunctions that a
    # false test collapses; numbering it would give 5 states.
    phi = parse("!y -> <!ff> !r", LogicId.RLDL)
    beta = from_string("0001")
    assert from_rldl(phi, beta).n_states == 3
    assert reference_from_rldl(phi, beta).n_states == 3


def test_state_only_in_absorbed_conjunctions_is_not_numbered():
    # Many block states occur only in conjunctions that another disjunct
    # absorbs; numbering them would give 17, 15 and 9 states.
    phi = parse("(!z | !z -> (!m -> !m) | !m) & [{[(!z)] !z}?] !m", LogicId.RLDL)
    for text in ("0001", "0011", "0111"):
        beta = from_string(text)
        assert from_rldl(phi, beta).n_states <= 2, text
        assert reference_from_rldl(phi, beta).n_states == from_rldl(phi, beta).n_states


_DUMP_APAS = """
from robusttl.apa import from_rldl
from robusttl.formulas import LogicId
from robusttl.gen import make_rng, random_formula
from robusttl.parser import parse
from robusttl.truth import ALL_VALUES

rng = make_rng(808)
formulas = [
    random_formula(rng, LogicId.RLDL, rng.randint(3, 10), ("p", "q", "r"))
    for _ in range(12)
]
# Several modal tests on one path: their order must not follow set order.
formulas += [
    parse("<{<tt*> p}? ; {[tt*] q}? ; {<q ; tt> r}? ; tt> p", LogicId.RLDL),
    parse("[({<tt*> q}? ; {[p*] r}? ; tt)*] <{<tt> p}? ; {<tt*> !q}?> r", LogicId.RLDL),
]
for phi in formulas:
    for beta in ALL_VALUES:
        a = from_rldl(phi, beta)
        delta = [(q, letter, pb) for (q, letter), pb in a.delta.items()]
        print(a.n_states, a.initial, a.color, repr(delta))
"""


def test_from_rldl_independent_of_hash_seed():
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _DUMP_APAS],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 70
    assert outputs[0] == outputs[1]
