"""The pragma parser against the tokenize-based reader it replaced.

:func:`reference_parse_suppressions` is the parser as it was when it
tokenized every file whose text matched the pragma regex: it sees each
comment exactly where Python's tokenizer does.  The linter now locates
comments from the string-literal spans its one walk records, tokenizing
only a literal that holds a ``#``.  Both must build the same table
(``file_level``, ``by_line`` and ``declared``, in order) on every
``.py`` file of the repository, both committed fixture trees included,
on named cases, and on generated sources mixing those cases.  The table
is read through both entry points: ``parse_suppressions(source)``, and
``FileContext``, which hands it the literals of the engine's walk.
"""
# lint: disable=CG004

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from bisect import bisect_right
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.engine import _SKIP_DIR_NAMES
from repro.lint.pragmas import (_ALL, _PRAGMA_RE, Suppressions,
                                _parse_rule_list, parse_suppressions)
from repro.lint.project import SUMMARY_HOOKS, node_hooks
from repro.lint.registry import FileContext, all_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_TREES = ("tests/data/sarif_fixture", "tests/data/shard_fixture")

#: The node classes the engine's walk records: every rule and summary
#: hook, as ``lint_paths`` collects them.
HOOKED = frozenset(
    [node_cls for rule in all_rules().values()
     for node_cls, _ in node_hooks(rule)]
    + [node_cls for node_cls, _ in SUMMARY_HOOKS])


#: A line end as ``ast`` counts lines, and a lone ``\r`` among them.
LINE_END_RE = re.compile(r"\r\n?|\n")
LONE_CR_RE = re.compile(r"\r(?!\n)")


def _tree(source: str) -> str | None:
    """The AST with every position, or ``None`` when it does not parse."""
    try:
        return ast.dump(ast.parse(source), include_attributes=True)
    except SyntaxError:
        return None


def reference_parse_suppressions(source: str) -> Suppressions:
    """The tokenize-based parser, as the linter shipped it before, with
    its table keyed by the parser's line numbers.

    Tokenize splits rows at ``"\n"`` only, so in a file with lone-CR
    line ends a comment token runs on over the lines after it.  Such a
    file is judged on its copy with every line end written as ``"\n"``:
    ``ast`` numbers ``"\r"``, ``"\r\n"`` and ``"\n"`` lines alike, and
    the copy's tree, positions included, is checked to be the same.
    """
    if LONE_CR_RE.search(source):
        rewritten = LINE_END_RE.sub("\n", source)
        assert _tree(rewritten) == _tree(source), "a line end moved the tree"
        return reference_parse_suppressions(rewritten)
    table = Suppressions()
    if _PRAGMA_RE.search(source) is None:
        return table
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return table
    # Tokenize reads rows split at "\n" only; the table is keyed by the
    # lines the parser numbers, which a lone "\r" also ends.  (The
    # splitlines() of the original also split at form feeds, so a row
    # after one read the wrong text.)
    rows = [0, *accumulate(len(row) + 1 for row in source.split("\n"))]
    lines = [0, *(m.end() for m in LINE_END_RE.finditer(source))]
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if match is None:
            continue
        rules = _parse_rule_list(match.group("rules"))
        row, col = tok.start
        at = rows[row - 1] + col
        line = bisect_right(lines, at)
        if source[lines[line - 1]:at].strip():
            table.by_line.setdefault(line, set()).update(rules)
        else:
            table.file_level.update(rules)
        table.declared.extend(
            (line, rule) for rule in sorted(rules) if rule != _ALL
        )
    return table


def _fields(table: Suppressions) -> tuple:
    return table.file_level, table.by_line, table.declared


def _through_engine(source: str) -> Suppressions:
    return FileContext(path="case.py", rel_parts=("case.py",),
                       tree=ast.parse(source), source=source,
                       hooked=HOOKED).suppressions


def assert_matches_reference(source: str) -> Suppressions:
    expected = _fields(reference_parse_suppressions(source))
    assert _fields(parse_suppressions(source)) == expected
    assert _fields(_through_engine(source)) == expected
    return reference_parse_suppressions(source)


def _repo_sources() -> list[Path]:
    return [path for path in sorted(REPO_ROOT.rglob("*.py"))
            if not any(part in _SKIP_DIR_NAMES for part in path.parts)]


def test_every_repo_file_matches_the_reference():
    files = _repo_sources()
    for tree in FIXTURE_TREES:
        assert any(REPO_ROOT / tree in path.parents for path in files), tree
    mismatched = []
    with_pragmas = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        expected = _fields(reference_parse_suppressions(source))
        with_pragmas += bool(expected[2] or expected[0])
        if (_fields(parse_suppressions(source)) != expected
                or _fields(_through_engine(source)) != expected):
            mismatched.append(str(path.relative_to(REPO_ROOT)))
    assert not mismatched
    assert with_pragmas > 0


#: name -> (source, expected ``by_line``, expected ``file_level``).
CASES = {
    "hash_in_str": ('x = "# lint: disable=CG001"\n', {}, set()),
    "hash_in_bytes": ("x = b'# lint: disable=CG001'\n", {}, set()),
    "hash_in_raw": ('x = r"\\d# lint: disable=CG001"  # lint: disable=CG002\n',
                    {1: {"CG002"}}, set()),
    "hash_in_fstring": ('x = f"{y}# lint: disable=CG001"  '
                        '# lint: disable=CG002\n', {1: {"CG002"}}, set()),
    "hash_in_docstring": ('def f():\n    """Run.\n\n    # lint: disable=CG003'
                          '\n    """\n', {}, set()),
    "hash_then_comment": ('x = "#"  # lint: disable=CG001\n',
                          {1: {"CG001"}}, set()),
    "between_concatenated_parts": ('x = ("abc"  # lint: disable=CG001\n'
                                   '     "d#ef")\n', {1: {"CG001"}}, set()),
    "between_fstring_parts": ('x = (f"{a}#"  # lint: disable=CG002\n'
                              '     "b")\n', {1: {"CG002"}}, set()),
    "standalone_between_parts": ('x = ("abc"\n# lint: disable=CG003\n'
                                 '     "#")\n', {}, {"CG003"}),
    "non_ascii_before_hash": ('s = "äöü"  # lint: disable=CG007\n'
                              't = "ü#"; u = 1  # lint: disable=CG001\n',
                              {1: {"CG007"}, 2: {"CG001"}}, set()),
    "non_ascii_in_concatenation": ('é = ("ü"  # lint: disable=CG002\n'
                                   '     "#")\n', {1: {"CG002"}}, set()),
    "crlf": ('x = 1  # lint: disable=CG001\r\n# lint: disable=CG002\r\n'
             'y = "# lint: disable=CG003"\r\n', {1: {"CG001"}}, {"CG002"}),
    "form_feed": ('\f# lint: disable=CG001\nx = 1  # lint: disable=CG002\n',
                  {2: {"CG002"}}, {"CG001"}),
    "trailing_after_form_feed_row": ("x = 1\n\f\ny = 2  # lint: disable=CG001\n",
                                     {3: {"CG001"}}, set()),
    "trailing_after_lone_cr": ("x = 1\ry = 2  # lint: disable=CG001\nz = 3\n",
                               {2: {"CG001"}}, set()),
    "standalone_after_lone_cr": ("x = 1\r# lint: disable=CG002\rz = 3\n",
                                 {}, {"CG002"}),
    "all_lone_cr": ("x = 1  # lint: disable=CG001\r# lint: disable=CG002\r"
                    'y = "#"  # lint: disable=CG003\r',
                    {1: {"CG001"}, 3: {"CG003"}}, {"CG002"}),
    "second_hash_in_comment": ("x = 1  # note # lint: disable=CG001\n",
                               {1: {"CG001"}}, set()),
    "trailing": ("x = 1  # lint: disable=CG001, CG002\n",
                 {1: {"CG001", "CG002"}}, set()),
    "standalone": ("# lint: disable=CG003\nx = 1\n", {}, {"CG003"}),
    "wildcard": ("x = 1  # lint: disable\n# lint: disable\n",
                 {1: {"*"}}, {"*"}),
}

#: A comment inside an f-string's replacement field parses from 3.12 on.
FSTRING_FIELD_COMMENT = ('x = f"{y  # lint: disable=CG001\n}"\n',
                         {1: {"CG001"}}, set())


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case(name):
    source, by_line, file_level = CASES[name]
    table = assert_matches_reference(source)
    assert table.by_line == by_line
    assert table.file_level == file_level


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="f-string replacement-field comments need 3.12")
def test_fstring_replacement_field_comment():
    source, by_line, file_level = FSTRING_FIELD_COMMENT
    table = assert_matches_reference(source)
    assert table.by_line == by_line
    assert table.file_level == file_level


#: Top-level statements mixing the named cases; ``{r}`` is a rule list.
TEMPLATES = [
    "x = 1  # lint: disable{r}",
    "# lint: disable{r}",
    'x = "# lint: disable{r}"',
    "x = b'#'  # note # lint: disable{r}",
    'x = r"\\#"  # lint: disable{r}',
    'x = f"{y}#"  # lint: disable{r}',
    'x = ("a#"  # lint: disable{r}\n     "b")',
    'x = (f"{a}"  # lint: disable{r}\n     "#")',
    'x = ("a"\n# lint: disable{r}\n     "#")',
    'def f():\n    """# lint: disable{r}"""\n    return 1  # lint: disable{r}',
    's = "äöü"  # lint: disable{r}',
    'é = ("ü"  # lint: disable{r}\n     "#")',
    'y = """\n# lint: disable{r}\n"""',
]
if sys.version_info >= (3, 12):
    TEMPLATES.append('x = f"{y  # lint: disable{r}\n}"')

RULE_LISTS = ["", "=CG001", "=CG001,CG002", "= CG007 ", "=CG199"]


@settings(max_examples=60, deadline=None)
@given(
    statements=st.lists(
        st.tuples(st.sampled_from(TEMPLATES), st.sampled_from(RULE_LISTS),
                  st.booleans()),
        min_size=1, max_size=8),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_generated_sources_match_the_reference(statements, newline):
    source = "".join(
        ("\f" if form_feed else "") + template.replace("{r}", rules) + "\n"
        for template, rules, form_feed in statements
    ).replace("\n", newline)
    assert_matches_reference(source)
