"""Ultimately periodic traces written as a finite prefix and a loop."""
from __future__ import annotations

from dataclasses import dataclass

from .formulas import PROP_NAME

Letter = frozenset


@dataclass(frozen=True)
class LassoTrace:
    """An infinite trace prefix . loop^omega over letters from 2^P."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.loop:
            msg = "lasso loop must be nonempty"
            raise ValueError(msg)

    @property
    def positions(self) -> int:
        """Number of canonical positions: |prefix| + |loop|."""
        return len(self.prefix) + len(self.loop)

    def canonical_index(self, j: int) -> int:
        """Fold position j into the range [0, |prefix| + |loop|)."""
        if j < 0:
            msg = f"negative position {j}"
            raise ValueError(msg)
        if j < len(self.prefix):
            return j
        return len(self.prefix) + (j - len(self.prefix)) % len(self.loop)

    def letter_at(self, j: int) -> frozenset[str]:
        """The letter at position j."""
        c = self.canonical_index(j)
        if c < len(self.prefix):
            return self.prefix[c]
        return self.loop[c - len(self.prefix)]

    def suffix(self, j: int) -> "LassoTrace":
        """The trace starting at position j, in canonical form.

        Suffixes at positions with the same canonical index are equal.
        """
        c = self.canonical_index(j)
        if c < len(self.prefix):
            return LassoTrace(self.prefix[c:], self.loop)
        shift = c - len(self.prefix)
        return LassoTrace((), self.loop[shift:] + self.loop[:shift])

    @property
    def propositions(self) -> frozenset[str]:
        out: set[str] = set()
        for letter in self.prefix + self.loop:
            out |= letter
        return frozenset(out)

    def project(self, props) -> "LassoTrace":
        """The same lasso with every letter restricted to props."""
        keep = frozenset(props)
        return LassoTrace(
            tuple(a & keep for a in self.prefix),
            tuple(a & keep for a in self.loop),
        )

    def __str__(self) -> str:
        return format_trace(self)


def _format_letter(letter: frozenset[str]) -> str:
    return "{" + ",".join(sorted(letter)) + "}"


def format_trace(trace: LassoTrace) -> str:
    """Render a lasso as ``{p,q} {} ; {p}`` (prefix, then loop)."""
    prefix = " ".join(_format_letter(a) for a in trace.prefix)
    loop = " ".join(_format_letter(a) for a in trace.loop)
    if prefix:
        return f"{prefix} ; {loop}"
    return f"; {loop}"


class TraceFormatError(ValueError):
    """Raised on malformed lasso text."""


def parse_trace(text: str) -> LassoTrace:
    """Parse a lasso written as letters, a semicolon, then loop letters."""
    if text.count(";") != 1:
        msg = "trace must contain exactly one ';' separating prefix and loop"
        raise TraceFormatError(msg)
    prefix_text, loop_text = text.split(";")
    loop = _parse_letters(loop_text)
    if not loop:
        msg = "lasso loop must be nonempty"
        raise TraceFormatError(msg)
    return LassoTrace(_parse_letters(prefix_text), loop)


def _parse_letters(text: str) -> tuple[frozenset[str], ...]:
    letters: list[frozenset[str]] = []
    rest = text.strip()
    while rest:
        if not rest.startswith("{"):
            msg = f"expected a letter starting with '{{' at {rest[:10]!r}"
            raise TraceFormatError(msg)
        end = rest.find("}")
        if end < 0:
            msg = f"unterminated letter in {rest[:10]!r}"
            raise TraceFormatError(msg)
        body = rest[1:end].strip()
        if body:
            props = [p.strip() for p in body.split(",")]
            if not all(props):
                msg = f"empty proposition name in letter {rest[: end + 1]!r}"
                raise TraceFormatError(msg)
            for p in props:
                if not PROP_NAME.fullmatch(p):
                    msg = f"proposition name {p!r} is not an identifier"
                    raise TraceFormatError(msg)
            letters.append(frozenset(props))
        else:
            letters.append(frozenset())
        rest = rest[end + 1 :].strip()
    return tuple(letters)
