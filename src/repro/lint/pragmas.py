"""``# lint: disable=CGxxx`` pragma parsing.

Two suppression scopes, decided by comment placement:

* **trailing** — a pragma sharing a line with code suppresses the named
  rules on that line only::

      usage = demand["gpu"]  # lint: disable=CG007

* **standalone** — a pragma on a line of its own suppresses the named
  rules for the whole file (conventionally placed near the top)::

      # lint: disable=CG003

``# lint: disable`` with no rule list suppresses *every* rule in its
scope.  A ``#`` inside a string literal never reads as a pragma.  The
literals' spans come from the one walk of the file
(:class:`~repro.lint.project.ImportTable`): a ``#`` outside every span
starts its line's comment, and a ``#`` inside one is settled by
tokenizing that literal's source alone, which finds a comment between
implicitly concatenated parts or inside a 3.12 f-string's replacement
field.  A source the pragma regex never matches is not looked at again.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Suppressions", "may_hold_pragma", "parse_suppressions"]

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


def may_hold_pragma(source: str) -> bool:
    """Whether the pragma regex matches ``source`` anywhere; one it
    never matches holds no pragma comment."""
    return _PRAGMA_RE.search(source) is not None


#: A line end as the parser counts the lines of AST positions and
#: findings: the table is keyed by the same lines.
_LINE_END_RE = re.compile(r"\r\n?|\n")


def _line_starts(source: str) -> List[int]:
    """The offset each line of ``source`` starts at."""
    return [0, *(match.end() for match in _LINE_END_RE.finditer(source))]


def _offset(source: str, line_start: int, byte_col: int) -> int:
    """The source offset of an AST's UTF-8 byte column on a line."""
    head = source[line_start:line_start + byte_col]
    if head.isascii():
        return line_start + byte_col
    return line_start + len(head.encode("utf-8")[:byte_col].decode("utf-8"))


def _literal_spans(source: str,
                   literals: Sequence[ast.expr]) -> List[Tuple[int, int]]:
    """The ``[start, end)`` source offsets of the outermost literals,
    in order; a literal nested in an f-string falls inside its span."""
    lines = _line_starts(source)
    spans = sorted(
        (_offset(source, lines[node.lineno - 1], node.col_offset),
         _offset(source, lines[node.end_lineno - 1],  # type: ignore[operator]
                 node.end_col_offset))  # type: ignore[arg-type]
        for node in literals
    )
    outer: List[Tuple[int, int]] = []
    for start, end in spans:
        if not outer or start >= outer[-1][1]:
            outer.append((start, end))
    return outer


def _literal_comments(source: str, start: int, end: int) -> Dict[int, str]:
    """Source offset -> text of each comment inside the literal
    ``source[start:end]``, found by tokenizing it alone."""
    snippet = "(" + source[start:end] + ")"
    # The rows tokenize reads, to turn its positions into offsets.
    rows = io.StringIO(snippet).readlines()
    row_starts = [0, *accumulate(len(row) for row in rows)]
    found: Dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(iter(rows).__next__):
            if tok.type == tokenize.COMMENT:
                row, col = tok.start
                found[start - 1 + row_starts[row - 1] + col] = tok.string
    except (tokenize.TokenError, SyntaxError):
        return {}
    return found


def _comments(source: str, rows: List[int], hits: List[int],
              literals: Sequence[ast.expr]) -> Dict[int, str]:
    """Source offset -> text of each comment that may hold one of the
    pragma regex's ``hits``; ``rows`` are the offsets lines start at.

    On a hit's line, the first ``#`` outside every literal starts the
    line's comment.  A literal a ``#`` on that line falls inside is
    tokenized alone, for the comments between its parts.
    """
    spans = _literal_spans(source, literals)
    span_starts = [start for start, _ in spans]
    comments: Dict[int, str] = {}
    scanned: Set[int] = set()
    settled: Set[int] = set()
    for row in (bisect_right(rows, hit) - 1 for hit in hits):
        if row in scanned:
            continue
        scanned.add(row)
        row_end = rows[row + 1] if row + 1 < len(rows) else len(source)
        at = source.find("#", rows[row], row_end)
        while at >= 0:
            i = bisect_right(span_starts, at) - 1
            if i < 0 or at >= spans[i][1]:
                # Like tokenize, end the comment at the first line-end
                # character.
                comments[at] = source[at:row_end].rstrip("\n").partition(
                    "\r")[0]
                break
            if i not in settled:
                settled.add(i)
                comments.update(_literal_comments(source, *spans[i]))
            at = source.find("#", spans[i][1], row_end)
    return comments


def parse_suppressions(
    source: str, literals: Optional[Sequence[ast.expr]] = None,
) -> Suppressions:
    """Extract the pragma table from a module's source text.

    ``literals`` are the module's string literals, as
    :class:`~repro.lint.project.ImportTable` records them with
    ``literals=True``.  Without them the source is parsed and walked
    here, and a source that does not parse yields an empty table (the
    caller reports the syntax error separately).
    """
    table = Suppressions()
    hits = [match.start() for match in _PRAGMA_RE.finditer(source)]
    if not hits:
        return table
    if literals is None:
        # Imported here: repro.lint.project imports this module.
        from repro.lint.project import ImportTable
        try:
            tree = ast.parse(source)
        except (SyntaxError, ValueError):
            return table
        literals = ImportTable(tree, frozenset(), literals=True).literals
    rows = _line_starts(source)
    comments = _comments(source, rows, hits, literals)
    for at in sorted(comments):
        match = _PRAGMA_RE.search(comments[at])
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        row = bisect_right(rows, at) - 1
        # The line's own text: splitlines() would also split at form
        # feeds and other characters the parser does not end a line at.
        if source[rows[row]:at].strip():
            table.by_line.setdefault(row + 1, set()).update(rules)
        else:
            table.file_level.update(rules)
        table.declared.extend(
            (row + 1, rule) for rule in sorted(rules) if rule != _ALL
        )
    return table
