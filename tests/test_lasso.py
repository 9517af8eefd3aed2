import pytest
from hypothesis import given
from hypothesis import strategies as st

from robusttl.traces import LassoTrace, TraceFormatError, format_trace, parse_trace

letters = st.frozensets(st.sampled_from(["p", "q", "r"]), max_size=3)
lassos = st.builds(
    LassoTrace,
    st.lists(letters, max_size=4).map(tuple),
    st.lists(letters, min_size=1, max_size=4).map(tuple),
)


def test_empty_loop_rejected():
    with pytest.raises(ValueError):
        LassoTrace((), ())


def test_letter_access():
    w = parse_trace("{p} {q} ; {r} {}")
    assert w.letter_at(0) == frozenset({"p"})
    assert w.letter_at(1) == frozenset({"q"})
    assert w.letter_at(2) == frozenset({"r"})
    assert w.letter_at(3) == frozenset()
    assert w.letter_at(4) == frozenset({"r"})
    assert w.positions == 4


def test_canonical_index_folds_into_loop():
    w = parse_trace("{p} ; {q} {r}")
    assert [w.canonical_index(j) for j in range(6)] == [0, 1, 2, 1, 2, 1]
    with pytest.raises(ValueError):
        w.canonical_index(-1)


def test_suffix_canonical_form():
    w = parse_trace("{p} ; {q} {r}")
    assert w.suffix(0) == w
    assert w.suffix(1) == parse_trace("; {q} {r}")
    assert w.suffix(2) == parse_trace("; {r} {q}")
    assert w.suffix(3) == w.suffix(1)


def test_propositions():
    w = parse_trace("{p} ; {q,r} {}")
    assert w.propositions == frozenset({"p", "q", "r"})


@pytest.mark.parametrize("text", ["{p} {q}", "; {p} ; {q}", "p ;", "; {p", "; {p,}"])
def test_parse_errors(text):
    with pytest.raises(ValueError):
        parse_trace(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("; {p q}", "proposition name 'p q' is not an identifier"),
        ("; {p, q-r}", "proposition name 'q-r' is not an identifier"),
        ("; {1p}", "proposition name '1p' is not an identifier"),
        ("; {p}}} {q}", "expected a letter starting with '{' at '}} {q}'"),
    ],
)
def test_proposition_names_must_be_identifiers(text, message):
    with pytest.raises(TraceFormatError) as info:
        parse_trace(text)
    assert str(info.value) == message


def test_proposition_names_read_as_the_formula_parser_reads_them():
    # Primes and underscores are part of a name, and keywords are names.
    w = parse_trace("{p', _x1} ; {tt, X}")
    assert w.prefix == (frozenset({"p'", "_x1"}),)
    assert w.loop == (frozenset({"tt", "X"}),)


@given(lassos)
def test_format_parse_round_trip(w):
    assert parse_trace(format_trace(w)) == w


@given(lassos, st.integers(min_value=0, max_value=20))
def test_suffix_agrees_with_letters(w, j):
    assert w.suffix(j).letter_at(0) == w.letter_at(j)
    # Suffixing is compatible with shifting.
    assert w.suffix(j).suffix(1) == w.suffix(j + 1)


@given(lassos, st.integers(min_value=0, max_value=12))
def test_canonical_index_is_letter_faithful(w, j):
    assert w.letter_at(j) == w.letter_at(w.canonical_index(j))
    assert w.canonical_index(j) < w.positions
