"""HOA v1 serialization for Buchi and parity automata.

Header lines are emitted in a fixed order so output is bit-stable:
HOA:, name:, States:, Start:, AP:, acc-name:, Acceptance:, properties:.
The name and the APs are HOA strings, with backslash and double quote
escaped.
AP i is the i-th sorted proposition, which is bit i of a letter number
(see ``guards``).  Every edge is labeled with the full conjunction
describing one letter, so the body is explicit; a state's edges follow
its letters ordered by their sorted member names.
"""

from __future__ import annotations

from .guards import all_letters
from .omega import DPA, NBA


def _labels(props: tuple) -> list:
    """(letter number, edge label) of every letter, in edge order."""
    letters = all_letters(props)
    out = []
    for a in sorted(range(len(letters)), key=lambda a: sorted(letters[a])):
        parts = [str(i) if a >> i & 1 else f"!{i}" for i in range(len(props))]
        out.append((a, " & ".join(parts) if parts else "t"))
    return out


def _quoted(text: str) -> str:
    """A HOA string: in double quotes, with backslash and quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _header(auto, name: str | None) -> list:
    """The HOA:, name:, States:, Start: and AP: lines of an automaton."""
    lines = ["HOA: v1"]
    if name is not None:
        lines.append(f"name: {_quoted(name)}")
    lines.append(f"States: {auto.n_states}")
    lines.append(f"Start: {auto.initial}")
    ap = " ".join(_quoted(p) for p in auto.props)
    lines.append(f"AP: {len(auto.props)} {ap}".rstrip())
    return lines


def _parity_acceptance(n_colors: int) -> str:
    # Max-even parity, built from the highest color downward.
    expr = None
    for c in range(n_colors):
        if c % 2 == 0:
            term = f"Inf({c})"
            expr = term if expr is None else f"({term} | {expr})"
        else:
            term = f"Fin({c})"
            expr = term if expr is None else f"({term} & {expr})"
    if expr is None:
        expr = "f"
    if expr.startswith("(") and expr.endswith(")"):
        expr = expr[1:-1]
    return expr


def nba_to_hoa(nba: NBA, name: str | None = None) -> str:
    lines = _header(nba, name)
    lines.append("acc-name: Buchi")
    lines.append("Acceptance: 1 Inf(0)")
    lines.append("properties: trans-labels explicit-labels state-acc")
    lines.append("--BODY--")
    labels = _labels(nba.props)
    for q in range(nba.n_states):
        mark = " {0}" if q in nba.accepting else ""
        lines.append(f"State: {q}{mark}")
        for a, label in labels:
            for q2 in nba.transitions.get((q, a), ()):
                lines.append(f"[{label}] {q2}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def dpa_to_hoa(dpa: DPA, name: str | None = None) -> str:
    n_colors = max(dpa.color) + 1 if dpa.color else 1
    lines = _header(dpa, name)
    lines.append(f"acc-name: parity max even {n_colors}")
    lines.append(f"Acceptance: {n_colors} {_parity_acceptance(n_colors)}")
    lines.append(
        "properties: trans-labels explicit-labels state-acc deterministic"
    )
    lines.append("--BODY--")
    labels = _labels(dpa.props)
    for q, row in enumerate(dpa.delta):
        lines.append(f"State: {q} {{{dpa.color[q]}}}")
        for a, label in labels:
            lines.append(f"[{label}] {row[a]}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
