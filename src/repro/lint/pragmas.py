"""``# lint: disable=CGxxx`` pragma parsing.

Two suppression scopes, decided by comment placement:

* **trailing** — a pragma sharing a line with code suppresses the named
  rules on that line only::

      usage = demand["gpu"]  # lint: disable=CG007

* **standalone** — a pragma on a line of its own suppresses the named
  rules for the whole file (conventionally placed near the top)::

      # lint: disable=CG003

``# lint: disable`` with no rule list suppresses *every* rule in its
scope.  Comments are located with :mod:`tokenize`, so a ``#`` inside a
string literal never reads as a pragma.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Suppressions", "parse_suppressions"]

#: Matches ``lint: disable`` / ``lint: disable=CG001,CG002`` inside a comment.
_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*disable(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+))?"
)

#: Wildcard marker meaning "all rules".
_ALL = "*"


@dataclass
class Suppressions:
    """Per-file suppression table built from pragma comments."""

    #: Rules disabled for the entire file (may contain ``"*"``).
    file_level: set[str] = field(default_factory=set)
    #: line number -> rules disabled on that line (may contain ``"*"``).
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: every explicitly named rule token with the line its pragma sits
    #: on, wildcards excluded — the engine's pragma-hygiene check flags
    #: tokens that name no registered rule (a typo'd pragma otherwise
    #: silently suppresses nothing).
    declared: list[tuple[int, str]] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``rule_id`` is disabled at ``line``."""
        if _ALL in self.file_level or rule_id in self.file_level:
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return _ALL in rules or rule_id in rules


def _parse_rule_list(raw: str | None) -> set[str]:
    if raw is None:
        return {_ALL}
    rules = {part.strip() for part in raw.split(",") if part.strip()}
    return rules or {_ALL}


def parse_suppressions(source: str) -> Suppressions:
    """Extract the pragma table from a module's source text.

    Tolerates tokenisation failures (the caller reports the syntax error
    separately) by returning an empty table.  A source the pragma regex
    never matches cannot hold a pragma comment, so it skips tokenisation.
    """
    table = Suppressions()
    if _PRAGMA_RE.search(source) is None:
        return table
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return table
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        row, col = tok.start
        text_before = lines[row - 1][:col] if row - 1 < len(lines) else ""
        if text_before.strip():
            table.by_line.setdefault(row, set()).update(rules)
        else:
            table.file_level.update(rules)
        table.declared.extend(
            (row, rule) for rule in sorted(rules) if rule != _ALL
        )
    return table
