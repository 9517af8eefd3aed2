"""Command-line interface: output contract and exit codes."""

import os
import subprocess
import sys

import pytest

from robusttl import cli
from robusttl.cli import main
from robusttl.gen import make_rng, random_labeled_game, random_system
from robusttl.modelcheck import format_transition_system
from robusttl.omega import NotWeakError


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_robust_prints_four_bits(capsys):
    code, out, _ = run(
        ["eval", "--logic", "rldl", "--formula", "[tt*] p", "--trace", "{} ; {p}"],
        capsys,
    )
    assert code == 0
    assert out == "0111\n"


def test_eval_classic_prints_boolean(capsys):
    code, out, _ = run(
        ["eval", "--logic", "ltl", "--formula", "G p", "--trace", "; {p}"],
        capsys,
    )
    assert code == 0 and out == "1\n"
    code, out, _ = run(
        ["eval", "--logic", "ltl", "--formula", "G p", "--trace", "{} ; {p}"],
        capsys,
    )
    assert code == 0 and out == "0\n"


def test_eval_prompt_uses_bound(capsys):
    argv = ["eval", "--logic", "promptltl", "--formula", "Fp s", "--trace", "{} {s} ; {s}"]
    code, out, _ = run([*argv, "--k", "1"], capsys)
    assert code == 0 and out == "1\n"
    code, out, _ = run([*argv, "--k", "0"], capsys)
    assert code == 0 and out == "0\n"


def test_eval_prompt_requires_bound(capsys):
    code, _, err = run(
        ["eval", "--logic", "promptltl", "--formula", "Fp s", "--trace", "; {s}"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--logic", "nosuch", "--formula", "tt", "--trace", "; {}"],
        ["eval", "--logic", "rldl", "--formula", "[tt* p", "--trace", "; {}"],
        ["eval", "--logic", "rldl", "--formula", "X p", "--trace", "; {}"],
        ["eval", "--logic", "rldl", "--formula", "[tt*] p", "--trace", "p ;"],
    ],
)
def test_eval_input_errors_exit_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("trace", ["; {p q}", "; {p}}} {q}"])
def test_eval_proposition_names_must_be_identifiers(trace, capsys):
    code, out, err = run(
        ["eval", "--logic", "rldl", "--formula", "[tt*] p", "--trace", trace], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("label", ["p q", "p}}"])
def test_mc_and_synth_proposition_names_must_be_identifiers(label, tmp_path, capsys):
    system = tmp_path / "sys.txt"
    system.write_text(f"state a init {{ {label} }}\nedge a a\n", encoding="utf-8")
    game = tmp_path / "game.txt"
    game.write_text(f"v a 0 {{ {label} }}\ne a a\n", encoding="utf-8")
    query = ["--logic", "rldl", "--formula", "[tt*] p", "--beta", "1111"]
    for argv in (
        ["mc", "--system", str(system), *query],
        ["synth", "--game", str(game), *query, "--vertex", "a"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: proposition name {label!r} is not an identifier")


def test_translate_derobustify(capsys):
    argv = [
        "translate",
        "--from",
        "rpromptltl",
        "--to",
        "promptltl",
        "--formula",
        "G Fp s",
    ]
    code, out, _ = run([*argv, "--beta", "0011"], capsys)
    assert code == 0
    assert out == "G F Fp s\n"
    code, out, _ = run([*argv, "--beta", "0000"], capsys)
    assert code == 0
    assert out == "tt\n"


def test_translate_requires_beta_when_derobustifying(capsys):
    code, _, err = run(
        ["translate", "--from", "rpromptltl", "--to", "promptltl", "--formula", "G Fp s"],
        capsys,
    )
    assert code == 2
    assert "--beta" in err


def test_translate_plain_embedding(capsys):
    code, out, _ = run(
        ["translate", "--from", "ltl", "--to", "ldl", "--formula", "F p"],
        capsys,
    )
    assert code == 0
    assert out == "<tt*> p\n"


def test_translate_unsupported_route_lists_options(capsys):
    code, _, err = run(
        ["translate", "--from", "ltl", "--to", "rldl", "--formula", "F p"],
        capsys,
    )
    assert code == 2
    assert "ltl->ldl" in err


def test_compile_emits_hoa_dpa(capsys):
    code, out, err = run(
        ["compile", "--formula", "[tt*] p", "--beta", "1111", "--stats"],
        capsys,
    )
    assert code == 0
    assert out.startswith("HOA: v1\n")
    assert "acc-name: parity max even" in out
    assert out.rstrip().endswith("--END--")
    assert "states:" in err and "colors:" in err


def test_compile_emits_hoa_nba_with_name(capsys):
    code, out, _ = run(
        [
            "compile",
            "--formula",
            "<tt*> p",
            "--beta",
            "0001",
            "--target",
            "nba",
            "--name",
            "reach",
        ],
        capsys,
    )
    assert code == 0
    assert 'name: "reach"' in out
    assert "acc-name: Buchi" in out


def test_compile_escapes_the_hoa_name(capsys):
    code, out, _ = run(
        ["compile", "--formula", "p", "--beta", "1111", "--name", 'a"b\\c'],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == 'name: "a\\"b\\\\c"'


def test_compile_props_override_widens_alphabet(capsys):
    code, out, _ = run(
        ["compile", "--formula", "<tt*> p", "--beta", "0001", "--props", "p,q"],
        capsys,
    )
    assert code == 0
    assert 'AP: 2 "p" "q"' in out


def test_compile_check_trace_reports_verdict(capsys):
    argv = ["compile", "--formula", "[tt*] p", "--beta", "1111"]
    code, _, err = run([*argv, "--check-trace", "; {p}"], capsys)
    assert code == 0
    assert "trace accepted: yes" in err
    code, _, err = run([*argv, "--check-trace", "{} ; {p}"], capsys)
    assert code == 0
    assert "trace accepted: no" in err


SYNC_SYSTEM = """
state a init { }
state b { s }
edge a b
edge b a
"""

PUMPABLE_SYSTEM = """
state a init { p }
state b { }
edge a a
edge a b
edge b b
"""


def test_mc_rldl_holds_and_violated(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(PUMPABLE_SYSTEM, encoding="utf-8")
    base = ["mc", "--system", str(path), "--logic", "rldl", "--formula", "[tt*] p"]
    code, out, _ = run([*base, "--beta", "0001"], capsys)
    assert code == 0
    assert out == "holds\n"
    code, out, _ = run([*base, "--beta", "1111"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "violated"
    assert lines[1].startswith("counterexample: ")


def test_mc_prompt_reports_bound(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SYNC_SYSTEM, encoding="utf-8")
    code, out, _ = run(
        ["mc", "--system", str(path), "--logic", "promptltl", "--formula", "G Fp s"],
        capsys,
    )
    assert code == 0
    assert out.startswith("holds (bound ")
    bound = int(out.rstrip().removeprefix("holds (bound ").removesuffix(")"))
    assert bound >= 1


def test_mc_rprompt_thresholds(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SYNC_SYSTEM, encoding="utf-8")
    base = [
        "mc",
        "--system",
        str(path),
        "--logic",
        "rpromptltl",
        "--formula",
        "G Fp s",
    ]
    code, out, _ = run([*base, "--beta", "1111"], capsys)
    assert code == 0
    assert out.startswith("holds (bound ")
    path.write_text(PUMPABLE_SYSTEM.replace("{ p }", "{ s }"), encoding="utf-8")
    code, out, _ = run([*base, "--beta", "0011"], capsys)
    assert code == 1
    assert out.splitlines()[0] == "violated"


def test_mc_prompt_violated_without_counterexample(tmp_path, capsys):
    # Every path meets G F q | F G r but no bound works, and no single
    # lasso fails at every bound: the verdict alone is printed.
    path = tmp_path / "sys.txt"
    path.write_text(
        "state a init { r }\nstate b { q }\n"
        "edge a a\nedge a b\nedge b a\nedge b b\n",
        encoding="utf-8",
    )
    code, out, _ = run(
        [
            "mc",
            "--system",
            str(path),
            "--logic",
            "promptltl",
            "--formula",
            "G Fp q | F G r",
        ],
        capsys,
    )
    assert code == 1
    assert out == "violated\n"


def test_mc_missing_file_exits_two(capsys):
    code, _, err = run(
        [
            "mc",
            "--system",
            "/nonexistent/sys.txt",
            "--logic",
            "rldl",
            "--formula",
            "tt",
            "--beta",
            "0001",
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


def test_mc_unsupported_logic_exits_two(tmp_path, capsys):
    path = tmp_path / "sys.txt"
    path.write_text(SYNC_SYSTEM, encoding="utf-8")
    code, _, err = run(
        ["mc", "--system", str(path), "--logic", "ltl", "--formula", "G s"],
        capsys,
    )
    assert code == 2
    assert "does not support" in err


FORCED_GAME = "v a 0 { p }\ne a a\n"

ESCAPE_GAME = """
v a 1 { p }
v b 1 { }
e a a
e a b
e b b
"""


def test_synth_winner_zero_prints_strategy(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text(FORCED_GAME, encoding="utf-8")
    code, out, _ = run(
        [
            "synth",
            "--game",
            str(path),
            "--logic",
            "rldl",
            "--formula",
            "[tt*] p",
            "--beta",
            "1111",
            "--vertex",
            "a",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "winner: 0"
    assert lines[1].startswith("initial ")
    assert any(" -> " in line for line in lines[2:])


def test_synth_winner_one(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text(ESCAPE_GAME, encoding="utf-8")
    code, out, _ = run(
        [
            "synth",
            "--game",
            str(path),
            "--logic",
            "rldl",
            "--formula",
            "[tt*] p",
            "--beta",
            "0111",
            "--vertex",
            "a",
        ],
        capsys,
    )
    assert code == 1
    assert out == "winner: 1\n"


def test_synth_prompt_reports_bound(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text("v a 0 { }\nv b 0 { s }\ne a b\ne b a\n", encoding="utf-8")
    code, out, _ = run(
        [
            "synth",
            "--game",
            str(path),
            "--logic",
            "promptltl",
            "--formula",
            "G Fp s",
            "--vertex",
            "a",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("winner: 0 (bound ")


def test_synth_unknown_vertex_exits_two(tmp_path, capsys):
    path = tmp_path / "game.txt"
    path.write_text(FORCED_GAME, encoding="utf-8")
    code, _, err = run(
        [
            "synth",
            "--game",
            str(path),
            "--logic",
            "rldl",
            "--formula",
            "tt",
            "--beta",
            "0001",
            "--vertex",
            "z",
        ],
        capsys,
    )
    assert code == 2
    assert "unknown vertex" in err


def test_synth_output_independent_of_hash_seed(tmp_path):
    graph = random_labeled_game(make_rng(4), 8, ("p", "q", "s"))
    lines = [
        f"v {v} {graph.owner[v]} {{ {', '.join(sorted(graph.labels[v]))} }}"
        for v in graph.vertices
    ]
    lines += [f"e {v} {w}" for v in graph.vertices for w in graph.edges[v]]
    path = tmp_path / "game.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        texts = []
        for logic, formula in (
            ("rldl", "[tt*] (p -> <tt*> q)"),
            ("rpromptltl", "G Fp s"),
        ):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "robusttl.cli",
                    "synth",
                    "--game",
                    str(path),
                    "--logic",
                    logic,
                    "--formula",
                    formula,
                    "--beta",
                    "0011",
                    "--vertex",
                    "v0",
                ],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            assert proc.stdout.startswith("winner: 0")
            texts.append(proc.stdout)
        outputs.append(texts)
    assert outputs[0] == outputs[1]


def test_mc_output_independent_of_hash_seed(tmp_path):
    path = tmp_path / "sys.txt"
    ts = random_system(make_rng(7), 8, ("p", "q", "s"))
    path.write_text(format_transition_system(ts) + "\n", encoding="utf-8")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        texts = []
        for logic, formula in (
            ("rldl", "[tt*] (p -> <tt*> q)"),
            ("rpromptltl", "G Fp s"),
        ):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "robusttl.cli",
                    "mc",
                    "--system",
                    str(path),
                    "--logic",
                    logic,
                    "--formula",
                    formula,
                    "--beta",
                    "0011" if logic == "rpromptltl" else "1111",
                ],
                capture_output=True,
                text=True,
                check=False,
                env=env,
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stdout.startswith("violated\ncounterexample: ")
            texts.append(proc.stdout)
        outputs.append(texts)
    assert outputs[0] == outputs[1]


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise NotWeakError("dealternation requires a weak alternating automaton")

    monkeypatch.setattr(cli, "rldl_to_dpa", broken)
    code, out, err = run(["compile", "--formula", "[tt*] p", "--beta", "1111"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: NotWeakError:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("guard", "expected"),
    [
        ("tt*", "test-free: yes, limit-matching: yes"),
        ("(tt;tt)*", "test-free: yes, limit-matching: yes"),
        ("((!t)* ; t ; (!t)* ; t)*", "test-free: yes, limit-matching: no"),
        ("p*", "test-free: yes, limit-matching: no"),
        ("{p}? ; tt*", "test-free: no, limit-matching: n/a"),
    ],
)
def test_guard_check_lines(guard, expected, capsys):
    code, out, _ = run(["guard-check", guard], capsys)
    assert code == 0
    assert out == expected + "\n"


def test_guard_check_syntax_error(capsys):
    code, _, err = run(["guard-check", "tt +"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--logic", "ltl", "--formula", "X " * 5000 + "p", "--trace", "; {p}"],
        ["compile", "--formula", "[tt*] " * 300 + "p", "--beta", "1111"],
    ],
)
def test_deep_nesting_exits_two_without_traceback(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: formula nested too deeply")
    assert "Traceback" not in err


def test_fuzz_reports_ok_and_is_deterministic(capsys):
    argv = ["fuzz", "--trials", "10", "--seed", "7", "--size", "5"]
    code, first, _ = run(argv, capsys)
    assert code == 0
    assert first == "ok\n"
    code, second, _ = run(argv, capsys)
    assert code == 0
    assert second == first


def test_fuzz_checks_the_derobustified_route_and_names_it(capsys, monkeypatch):
    # A derobustification that is always false diverges on the first
    # test-free trial the oracle accepts, and the report names that route.
    from robusttl.formulas import Ff

    monkeypatch.setattr(cli, "derobustify", lambda phi, beta: Ff())
    code, out, _ = run(["fuzz", "--trials", "200", "--seed", "7", "--size", "5"], capsys)
    assert code == 1
    assert out.startswith("divergence at trial ")
    assert "route: ldl_to_dpa of derobustify\n" in out
    assert out.endswith("oracle: True, automaton: False\n")


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--size", "0", "error: --size must be at least 1, got 0\n"),
        ("--trials", "-3", "error: --trials must be nonnegative, got -3\n"),
    ],
)
def test_fuzz_rejects_bad_counts(flag, value, message, capsys):
    argv = ["fuzz", "--trials", "1", "--seed", "1", flag, value]
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (2, "", message)


def test_fragment_errors_independent_of_hash_seed():
    # Offending guards are listed in syntactic order, not in hash order.
    cases = (
        (
            "[p*] q & [q*] p & [(p;q)*] r & <r*> p",
            "error: guards are not limit-matching: p*, q*, (p ; q)*, r*\n",
        ),
        (
            "[{p}?;p] q & [{q}?;q] p & [{r}?;r] r",
            "error: guards contain tests: {p}? ; p, {q}? ; q, {r}? ; r\n",
        ),
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        for formula, want in cases:
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "robusttl.cli",
                    "translate",
                    "--from",
                    "rpromptldl",
                    "--to",
                    "promptldl",
                    "--beta",
                    "0011",
                    "--formula",
                    formula,
                ],
                capture_output=True,
                text=True,
                check=False,
                env=env,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want), seed


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["eval", "--logic", "rldl"])
    assert info.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "robusttl.cli",
            "eval",
            "--logic",
            "rldl",
            "--formula",
            "[tt*] p",
            "--trace",
            "; {p}",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1111\n"


def test_synth_with_a_broken_strategy_exits_three(monkeypatch, tmp_path, capsys):
    import robusttl.games as games

    solve = games.solve_parity

    def without_moves(game):
        win0, win1, _strat0, strat1 = solve(game)
        return win0, win1, {}, strat1

    monkeypatch.setattr(games, "solve_parity", without_moves)
    path = tmp_path / "game.txt"
    path.write_text(FORCED_GAME, encoding="utf-8")
    code, out, err = run(
        ["synth", "--game", str(path), "--logic", "rldl", "--formula", "[tt*] p",
         "--beta", "1111", "--vertex", "a"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: AssertionError: internal error: strategy")
    assert "Traceback" not in err
