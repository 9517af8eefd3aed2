"""HOA v1 serialization for Buchi and parity automata.

Header lines are emitted in a fixed order so output is bit-stable:
HOA:, States:, Start:, AP:, acc-name:, Acceptance:, properties:.
Every edge is labeled with the full conjunction describing one letter,
so the body is explicit and independent of AP ordering quirks.
"""

from __future__ import annotations

from .omega import DPA, NBA


def _letter_label(letter: frozenset, props: tuple) -> str:
    parts = []
    for i, p in enumerate(props):
        parts.append(str(i) if p in letter else f"!{i}")
    if not parts:
        return "t"
    return " & ".join(parts)


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
    lines = ["HOA: v1"]
    if name is not None:
        lines.append(f'name: "{name}"')
    lines.append(f"States: {nba.n_states}")
    lines.append(f"Start: {nba.initial}")
    ap = " ".join(f'"{p}"' for p in nba.props)
    lines.append(f"AP: {len(nba.props)} {ap}".rstrip())
    lines.append("acc-name: Buchi")
    lines.append("Acceptance: 1 Inf(0)")
    lines.append("properties: trans-labels explicit-labels state-acc")
    lines.append("--BODY--")
    letters = sorted(
        {letter for (_, letter) in nba.transitions}, key=lambda s: sorted(s)
    )
    for q in range(nba.n_states):
        mark = " {0}" if q in nba.accepting else ""
        lines.append(f"State: {q}{mark}")
        for letter in letters:
            for q2 in nba.transitions.get((q, letter), ()):
                lines.append(f"[{_letter_label(letter, nba.props)}] {q2}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


def dpa_to_hoa(dpa: DPA, name: str | None = None) -> str:
    n_colors = max(dpa.color) + 1 if dpa.color else 1
    lines = ["HOA: v1"]
    if name is not None:
        lines.append(f'name: "{name}"')
    lines.append(f"States: {dpa.n_states}")
    lines.append(f"Start: {dpa.initial}")
    ap = " ".join(f'"{p}"' for p in dpa.props)
    lines.append(f"AP: {len(dpa.props)} {ap}".rstrip())
    lines.append(f"acc-name: parity max even {n_colors}")
    lines.append(f"Acceptance: {n_colors} {_parity_acceptance(n_colors)}")
    lines.append(
        "properties: trans-labels explicit-labels state-acc deterministic"
    )
    lines.append("--BODY--")
    letters = sorted(
        {letter for (_, letter) in dpa.delta}, key=lambda s: sorted(s)
    )
    labels = [(letter, _letter_label(letter, dpa.props)) for letter in letters]
    for q in range(dpa.n_states):
        lines.append(f"State: {q} {{{dpa.color[q]}}}")
        for letter, label in labels:
            q2 = dpa.delta.get((q, letter))
            if q2 is not None:
                lines.append(f"[{label}] {q2}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"
