"""Command-line front-end.

Subcommands: eval, translate, compile, mc, synth, guard-check, fuzz.
Exit codes: 0 success / property holds / player 0 wins, 1 property
violated / player 1 wins / divergence found, 2 usage or input error
(a formula nested too deeply for the passes that still recurse counts
as one: the evaluator, the APA compiler, and the parser on brackets
nested about 490 deep),
3 internal error: any other exception, reported as `internal error: …`.
All output is deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import sys

from .formulas import (
    LogicId,
    LogicViolationError,
    PROMPT_LOGICS,
    ROBUST_LOGICS,
    format_formula,
    guard_tests,
    propositions,
)
from .games import (
    GameFormatError,
    TerminalVertexError,
    UnknownVertexError,
    parse_labeled_game,
    solve_prompt_game,
    solve_rldl_game,
    solve_rprompt_game,
)
from .gen import make_rng, random_formula, random_lasso
from .guards import HasTestsError, is_limit_matching
from .hoa import dpa_to_hoa, nba_to_hoa
from .modelcheck import (
    SystemFormatError,
    TerminalStateError,
    mc_fragment,
    mc_rldl,
    mc_rprompt_ltl,
    parse_transition_system,
    prompt_mc,
)
from .omega import (
    dpa_accepts_lasso,
    ldl_to_dpa,
    nba_accepts_lasso,
    rldl_to_dpa,
    rldl_to_nba,
)
from .parser import FormulaSyntaxError, parse, parse_guard
from .semantics import MissingBoundError, eval_rldl, evaluate
from .translate import (
    NotLimitMatchingError,
    NotTestFreeError,
    derobustify,
    embed_ldl_in_rldl,
    embed_rltl_in_rldl,
    fragment_translate,
    is_test_free,
    ltl_surface_to_ldl,
    rprompt_to_prompt,
)
from .traces import TraceFormatError, format_trace, parse_trace
from .truth import NonMonotoneBitsError, TruthValue4, from_string


class UsageError(ValueError):
    """Raised when the command-line arguments do not fit together."""


_INPUT_ERRORS = (
    UsageError,
    FormulaSyntaxError,
    TraceFormatError,
    LogicViolationError,
    NonMonotoneBitsError,
    SystemFormatError,
    TerminalStateError,
    GameFormatError,
    TerminalVertexError,
    UnknownVertexError,
    NotTestFreeError,
    NotLimitMatchingError,
    MissingBoundError,
    HasTestsError,
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _logic(text: str) -> LogicId:
    try:
        return LogicId(text)
    except ValueError:
        raise UsageError(f"unknown logic {text!r}") from None


def _beta(args) -> TruthValue4:
    if args.beta is None:
        raise UsageError("this command requires --beta")
    return from_string(args.beta)


def _props(args, *sources) -> tuple[str, ...]:
    if getattr(args, "props", None):
        return tuple(p.strip() for p in args.props.split(",") if p.strip())
    out: set[str] = set()
    for s in sources:
        out |= set(s)
    return tuple(sorted(out))


def _cmd_eval(args) -> int:
    logic = _logic(args.logic)
    phi = parse(args.formula, logic)
    trace = parse_trace(args.trace)
    if logic in PROMPT_LOGICS and args.k is None:
        raise MissingBoundError(f"logic {logic.value} requires --k")
    if logic in PROMPT_LOGICS and args.k < 0:
        raise UsageError(f"--k must be nonnegative, got {args.k}")
    value = evaluate(trace, phi, logic, args.k)
    print(value if logic in ROBUST_LOGICS else int(value))
    return 0


_TRANSLATIONS = {
    ("rpromptltl", "promptltl"): ("beta", rprompt_to_prompt),
    ("rpromptldl", "promptldl"): ("beta", fragment_translate),
    ("rltl", "rldl"): ("plain", embed_rltl_in_rldl),
    ("ldl", "rldl"): ("plain", embed_ldl_in_rldl),
    ("ltl", "ldl"): ("plain", ltl_surface_to_ldl),
}


def _cmd_translate(args) -> int:
    route = _TRANSLATIONS.get((args.source, args.to))
    if route is None:
        supported = ", ".join(f"{a}->{b}" for a, b in sorted(_TRANSLATIONS))
        raise UsageError(
            f"no translation {args.source}->{args.to}; supported: {supported}"
        )
    kind, fn = route
    phi = parse(args.formula, _logic(args.source))
    out = fn(phi, _beta(args)) if kind == "beta" else fn(phi)
    print(format_formula(out))
    return 0


def _cmd_compile(args) -> int:
    phi = parse(args.formula, LogicId.RLDL)
    beta = _beta(args)
    check = parse_trace(args.check_trace) if args.check_trace else None
    props = _props(args, propositions(phi), check.propositions if check else ())
    if not propositions(phi) <= set(props):
        raise UsageError("--props must cover the propositions of the formula")
    if check is not None and not check.propositions <= set(props):
        raise UsageError("--props must cover the propositions of --check-trace")
    if args.target == "nba":
        auto = rldl_to_nba(phi, beta, props)
        text = nba_to_hoa(auto, name=args.name)
        states, colors = auto.n_states, 1
        accepted = None if check is None else nba_accepts_lasso(auto, check)
    else:
        auto = rldl_to_dpa(phi, beta, props)
        text = dpa_to_hoa(auto, name=args.name)
        states = auto.n_states
        colors = max(auto.color) + 1 if auto.color else 0
        accepted = None if check is None else dpa_accepts_lasso(auto, check)
    sys.stdout.write(text)
    if args.stats:
        print(f"states: {states}", file=sys.stderr)
        print(f"colors: {colors}", file=sys.stderr)
    if check is not None:
        agrees = (eval_rldl(check, phi) >= beta) == accepted
        verdict = "yes" if accepted else "no"
        print(f"trace accepted: {verdict}", file=sys.stderr)
        if not agrees:
            print("oracle disagrees with the automaton", file=sys.stderr)
            return 1
    return 0


def _cmd_mc(args) -> int:
    logic = _logic(args.logic)
    phi = parse(args.formula, logic)
    with open(args.system, encoding="utf-8") as handle:
        ts = parse_transition_system(handle.read())
    if logic == LogicId.RLDL:
        result = mc_rldl(ts, phi, _beta(args))
    elif logic == LogicId.RPROMPT_LTL:
        result = mc_rprompt_ltl(ts, phi, _beta(args))
    elif logic == LogicId.RPROMPT_LDL:
        result = mc_fragment(ts, phi, _beta(args))
    elif logic in (LogicId.PROMPT_LTL, LogicId.PROMPT_LDL):
        result = prompt_mc(ts, phi)
    else:
        raise UsageError(f"model checking does not support logic {logic.value}")
    if result.holds:
        line = "holds"
        if result.bound is not None:
            line += f" (bound {result.bound})"
        print(line)
        return 0
    print("violated")
    if result.counterexample is not None:
        print(f"counterexample: {format_trace(result.counterexample)}")
    return 1


def _cmd_synth(args) -> int:
    logic = _logic(args.logic)
    phi = parse(args.formula, logic)
    with open(args.game, encoding="utf-8") as handle:
        graph = parse_labeled_game(handle.read())
    if logic == LogicId.RLDL:
        result = solve_rldl_game(graph, phi, _beta(args), args.vertex)
    elif logic == LogicId.RPROMPT_LTL:
        result = solve_rprompt_game(graph, phi, _beta(args), args.vertex)
    elif logic in (LogicId.PROMPT_LTL, LogicId.PROMPT_LDL):
        result = solve_prompt_game(graph, phi, args.vertex)
    else:
        raise UsageError(f"synthesis does not support logic {logic.value}")
    if result.winner == 0:
        line = "winner: 0"
        if result.bound is not None:
            line += f" (bound {result.bound})"
        print(line)
        if result.strategy is not None:
            print(result.strategy.format())
        return 0
    print("winner: 1")
    return 1


def _cmd_guard_check(args) -> int:
    guard = parse_guard(args.guard)
    test_free = not guard_tests(guard)
    if test_free:
        matching = "yes" if is_limit_matching(guard) else "no"
    else:
        matching = "n/a"
    free = "yes" if test_free else "no"
    print(f"test-free: {free}, limit-matching: {matching}")
    return 0


def _cmd_fuzz(args) -> int:
    from .semantics import eval_rldl as oracle
    from .truth import POSITIVE_VALUES

    props = tuple(p.strip() for p in args.props.split(",") if p.strip())
    if not props:
        raise UsageError("--props must name at least one proposition")
    if args.trials < 0:
        raise UsageError(f"--trials must be nonnegative, got {args.trials}")
    if args.size < 1:
        raise UsageError(f"--size must be at least 1, got {args.size}")
    rng = make_rng(args.seed)
    for trial in range(args.trials):
        phi = random_formula(rng, LogicId.RLDL, rng.randint(1, args.size), props)
        beta = POSITIVE_VALUES[rng.randrange(len(POSITIVE_VALUES))]
        trace = random_lasso(rng, props)
        want = oracle(trace, phi) >= beta
        routes = [("rldl_to_dpa", rldl_to_dpa(phi, beta, props))]
        if is_test_free(phi):
            plain = ldl_to_dpa(derobustify(phi, beta), props)
            routes.append(("ldl_to_dpa of derobustify", plain))
        for route, dpa in routes:
            got = dpa_accepts_lasso(dpa, trace)
            if got != want:
                print(f"divergence at trial {trial} (seed {args.seed})")
                print(f"formula: {format_formula(phi)}")
                print(f"beta: {beta}")
                print(f"trace: {format_trace(trace)}")
                print(f"route: {route}")
                print(f"oracle: {want}, automaton: {got}")
                return 1
    print("ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="robusttl",
        description="Robust temporal-logic evaluation, compilation, "
        "model checking, and synthesis.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a lasso trace")
    p.add_argument("--logic", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("translate", help="translate between logics")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--beta", default=None)
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("compile", help="compile a formula to an automaton")
    p.add_argument("--formula", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--target", choices=("nba", "dpa"), default="dpa")
    p.add_argument("--props", default=None)
    p.add_argument("--name", default=None)
    p.add_argument("--stats", action="store_true")
    p.add_argument("--check-trace", dest="check_trace", default=None)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("mc", help="model-check a transition system")
    p.add_argument("--system", required=True)
    p.add_argument("--logic", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--beta", default=None)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("synth", help="solve a labeled game")
    p.add_argument("--game", required=True)
    p.add_argument("--logic", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--beta", default=None)
    p.add_argument("--vertex", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("guard-check", help="analyze a guard expression")
    p.add_argument("guard")
    p.set_defaults(fn=_cmd_guard_check)

    p = sub.add_parser("fuzz", help="randomized oracle-vs-automaton trials")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--props", default="p,q")
    p.add_argument("--size", type=int, default=8)
    p.set_defaults(fn=_cmd_fuzz)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))
    except OSError as exc:
        return _fail(str(exc))
    except RecursionError:
        limit = sys.getrecursionlimit()
        return _fail(
            f"formula nested too deeply (Python recursion limit {limit})"
        )
    except Exception as exc:  # noqa: BLE001 - every other failure is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
