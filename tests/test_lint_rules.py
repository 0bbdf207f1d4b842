"""Tests for the ``repro.lint`` invariant checker (rules CG001–CG009, CG014)."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    UnknownRuleError,
    all_rules,
    lint_paths,
    render_json,
    render_text,
    resolve_rules,
)
from repro.lint.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, rel, source, *, select=None, ignore=None):
    """Write ``source`` at ``tmp_path/rel`` and lint the tree."""
    file = tmp_path / rel
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], select=select, ignore=ignore)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# CG001 — no global randomness
# ----------------------------------------------------------------------

class TestCG001:
    def test_flags_np_random_call(self, tmp_path):
        result = lint_source(tmp_path, "games/gen.py", """\
            import numpy as np

            def roll():
                return np.random.uniform(0, 1)
            """, select=["CG001"])
        assert rule_ids(result) == ["CG001"]
        assert result.findings[0].line == 4

    def test_flags_stdlib_random_call_and_import(self, tmp_path):
        result = lint_source(tmp_path, "games/gen.py", """\
            import random
            from random import randint

            def roll():
                return random.random()
            """, select=["CG001"])
        assert rule_ids(result) == ["CG001", "CG001"]

    def test_allows_seeded_constructors_and_rng_module(self, tmp_path):
        # default_rng / Generator construction is deterministic; and the
        # rule never applies inside util/rng.py itself.
        clean = lint_source(tmp_path, "games/gen.py", """\
            import numpy as np

            def make(seed):
                rng = np.random.default_rng(seed)
                return rng.uniform(0, 1)
            """, select=["CG001"])
        assert clean.ok
        exempt = lint_source(tmp_path, "util/rng.py", """\
            import numpy as np

            def helper():
                return np.random.rand(3)
            """, select=["CG001"])
        assert exempt.ok

    def test_flags_numpy_random_alias(self, tmp_path):
        result = lint_source(tmp_path, "games/gen.py", """\
            import numpy.random as npr

            def roll():
                return npr.shuffle([1, 2])
            """, select=["CG001"])
        assert rule_ids(result) == ["CG001"]


# ----------------------------------------------------------------------
# CG002 — no mutable defaults
# ----------------------------------------------------------------------

class TestCG002:
    def test_flags_mutable_defaults(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(xs=[], mapping={}, tags=set(), q=dict()):
                return xs, mapping, tags, q
            """, select=["CG002"])
        assert rule_ids(result) == ["CG002"] * 4

    def test_flags_kwonly_and_lambda(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(*, xs=[]):
                return xs

            g = lambda acc=[]: acc
            """, select=["CG002"])
        assert len(result.findings) == 2

    def test_allows_immutable_defaults(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(xs=None, pair=(), name="x", n=0):
                return xs, pair, name, n
            """, select=["CG002"])
        assert result.ok


# ----------------------------------------------------------------------
# CG003 — public functions typed in core/mlkit/platform_
# ----------------------------------------------------------------------

class TestCG003:
    BAD = """\
        class Thing:
            def compute(self, x):
                return x

        def helper(y):
            return y
        """

    def test_flags_unannotated_public_api(self, tmp_path):
        result = lint_source(tmp_path, "core/mod.py", self.BAD, select=["CG003"])
        # compute: params + return; helper: params + return.
        assert rule_ids(result) == ["CG003"] * 4

    def test_out_of_scope_package_is_ignored(self, tmp_path):
        result = lint_source(tmp_path, "games/mod.py", self.BAD, select=["CG003"])
        assert result.ok

    def test_annotated_and_private_pass(self, tmp_path):
        result = lint_source(tmp_path, "mlkit/mod.py", """\
            class Model:
                def fit(self, X: list) -> "Model":
                    return self

                def _impl(self, X):
                    return X

            def _private(y):
                return y
            """, select=["CG003"])
        assert result.ok

    def test_init_requires_param_annotations_only(self, tmp_path):
        result = lint_source(tmp_path, "platform_/mod.py", """\
            class Box:
                def __init__(self, size):
                    self.size = size
            """, select=["CG003"])
        assert rule_ids(result) == ["CG003"]
        assert "unannotated parameter" in result.findings[0].message


# ----------------------------------------------------------------------
# CG004 — __all__ consistency
# ----------------------------------------------------------------------

class TestCG004:
    def test_flags_nonexistent_export_and_missing_def(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            __all__ = ["ghost"]

            def visible():
                return 1
            """, select=["CG004"])
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert "'ghost' which is not defined" in messages[0]
        assert "'visible' missing from __all__" in messages[1]

    def test_flags_module_without_dunder_all(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def visible():
                return 1
            """, select=["CG004"])
        assert rule_ids(result) == ["CG004"]

    def test_consistent_module_passes(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            __all__ = ["visible", "CONST"]

            CONST = 3

            def visible():
                return _hidden()

            def _hidden():
                return 1

            __all__.append("Late")

            class Late:
                pass
            """, select=["CG004"])
        assert result.ok

    def test_lazy_table_names_count_as_defined(self, tmp_path):
        result = lint_source(tmp_path, "pkg/__init__.py", """\
            from repro import _lazy_exports

            __all__ = ["Engine", "run"]

            __getattr__, __dir__ = _lazy_exports(globals(), {
                "Engine": ".engine",
                "run": ".engine",
            })
            """, select=["CG004"])
        assert result.ok

    def test_lazy_table_is_checked_both_ways(self, tmp_path):
        result = lint_source(tmp_path, "pkg/__init__.py", """\
            from repro import _lazy_exports

            __all__ = ["Engine", "ghost"]

            __getattr__, __dir__ = _lazy_exports(globals(), {
                "Engine": ".engine",
                "unexported": ".engine",
            })
            """, select=["CG004"])
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert "'ghost' which is not defined" in messages[0]
        assert "lazy export 'unexported' missing from __all__" in messages[1]

    def test_dynamic_dunder_all_is_skipped(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            _names = ["a", "b"]
            __all__ = list(_names)

            def visible():
                return 1
            """, select=["CG004"])
        assert result.ok


# ----------------------------------------------------------------------
# CG005 — no wall clock in sim/
# ----------------------------------------------------------------------

class TestCG005:
    def test_flags_wall_clock_in_sim(self, tmp_path):
        result = lint_source(tmp_path, "sim/mod.py", """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
            """, select=["CG005"])
        assert rule_ids(result) == ["CG005"] * 2

    def test_flags_from_time_import(self, tmp_path):
        result = lint_source(tmp_path, "sim/mod.py", """\
            from time import perf_counter
            """, select=["CG005"])
        assert rule_ids(result) == ["CG005"]

    def test_wall_clock_outside_sim_allowed(self, tmp_path):
        result = lint_source(tmp_path, "workloads/mod.py", """\
            import time

            def stamp():
                return time.time()
            """, select=["CG005"])
        assert result.ok

    def test_engine_clock_calls_pass(self, tmp_path):
        result = lint_source(tmp_path, "sim/mod.py", """\
            def advance(engine):
                return engine.clock.time()
            """, select=["CG005"])
        assert result.ok


# ----------------------------------------------------------------------
# CG006 — exception hygiene
# ----------------------------------------------------------------------

class TestCG006:
    def test_flags_bare_except_anywhere(self, tmp_path):
        result = lint_source(tmp_path, "analysis/mod.py", """\
            def f():
                try:
                    return 1
                except:
                    return 0
            """, select=["CG006"])
        assert rule_ids(result) == ["CG006"]

    def test_flags_swallowed_exception_on_scheduler_path(self, tmp_path):
        result = lint_source(tmp_path, "core/scheduler.py", """\
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """, select=["CG006"])
        assert rule_ids(result) == ["CG006"]
        assert "swallowed" in result.findings[0].message

    def test_swallow_outside_control_path_allowed(self, tmp_path):
        result = lint_source(tmp_path, "analysis/mod.py", """\
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """, select=["CG006"])
        assert result.ok

    def test_handled_exception_passes(self, tmp_path):
        result = lint_source(tmp_path, "core/distributor.py", """\
            def f(log):
                try:
                    return 1
                except Exception as exc:
                    log.warning("placement failed: %s", exc)
                    raise
            """, select=["CG006"])
        assert result.ok


# ----------------------------------------------------------------------
# CG007 — canonical dimension constants
# ----------------------------------------------------------------------

class TestCG007:
    def test_flags_ad_hoc_dimension_strings(self, tmp_path):
        result = lint_source(tmp_path, "workloads/mod.py", """\
            def f(vec, dim):
                usage = vec["gpu"]
                if dim == "cpu":
                    usage += 1
                order = ("cpu", "gpu", "gpu_mem", "ram")
                return usage, order
            """, select=["CG007"])
        assert rule_ids(result) == ["CG007"] * 3

    def test_resources_module_is_exempt(self, tmp_path):
        result = lint_source(tmp_path, "platform_/resources.py", """\
            DIMENSIONS = ("cpu", "gpu", "gpu_mem", "ram")
            """, select=["CG007"])
        assert result.ok

    def test_keyword_and_mapping_construction_pass(self, tmp_path):
        result = lint_source(tmp_path, "workloads/mod.py", """\
            def f(make):
                vec = make(cpu=35.0, gpu=60.0)
                by_name = {"cpu": 35.0, "gpu": 60.0}
                return vec, by_name
            """, select=["CG007"])
        assert result.ok


# ----------------------------------------------------------------------
# CG008 — fault-path accountability
# ----------------------------------------------------------------------

class TestCG008:
    def test_flags_silent_substitution_on_fault_path(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            def f(node):
                try:
                    return node.place()
                except Exception:
                    return None
            """, select=["CG008"])
        assert rule_ids(result) == ["CG008"]

    def test_reraise_accounts(self, tmp_path):
        result = lint_source(tmp_path, "faults/injector.py", """\
            def f(node):
                try:
                    return node.place()
                except Exception:
                    raise
            """, select=["CG008"])
        assert result.ok

    def test_telemetry_log_accounts(self, tmp_path):
        result = lint_source(tmp_path, "core/scheduler.py", """\
            def f(node, telemetry):
                try:
                    return node.place()
                except Exception as exc:
                    telemetry.record_fault_event(0.0, "err", repr(exc))
                    return None
            """, select=["CG008"])
        assert result.ok

    def test_health_transition_accounts(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            def f(node, down):
                try:
                    return node.place()
                except Exception:
                    node.health = down
                    return None
            """, select=["CG008"])
        assert result.ok

    def test_narrow_handlers_are_out_of_scope(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            def f(node):
                try:
                    return node.place()
                except KeyError:
                    return None
            """, select=["CG008"])
        assert result.ok

    def test_other_packages_are_out_of_scope(self, tmp_path):
        result = lint_source(tmp_path, "analysis/mod.py", """\
            def f(node):
                try:
                    return node.place()
                except Exception:
                    return None
            """, select=["CG008"])
        assert result.ok


# ----------------------------------------------------------------------
# CG009 — bounded queues on the serving path
# ----------------------------------------------------------------------

class TestCG009:
    def test_flags_deque_without_maxlen(self, tmp_path):
        result = lint_source(tmp_path, "serve/gateway.py", """\
            from collections import deque

            def build():
                return deque()
            """, select=["CG009"])
        assert rule_ids(result) == ["CG009"]

    def test_flags_aliased_and_dotted_deque(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            import collections
            from collections import deque as dq

            def build():
                return dq(), collections.deque([1, 2])
            """, select=["CG009"])
        assert rule_ids(result) == ["CG009", "CG009"]

    def test_deque_with_maxlen_is_clean(self, tmp_path):
        result = lint_source(tmp_path, "serve/gateway.py", """\
            from collections import deque

            def build(capacity):
                return deque(maxlen=capacity)
            """, select=["CG009"])
        assert result.ok

    def test_flags_queue_named_empty_list(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            class C:
                def __init__(self):
                    self._queue = []
                    self.backlog = list()
            """, select=["CG009"])
        assert rule_ids(result) == ["CG009", "CG009"]

    def test_flags_annotated_queue_list(self, tmp_path):
        result = lint_source(tmp_path, "serve/gateway.py", """\
            class C:
                def __init__(self):
                    self.retry_queue: list = []
            """, select=["CG009"])
        assert rule_ids(result) == ["CG009"]

    def test_non_queue_names_and_nonempty_lists_are_clean(self, tmp_path):
        result = lint_source(tmp_path, "serve/slo.py", """\
            class C:
                def __init__(self):
                    self.samples = []
                    self.queue_limits = [1, 2, 3]
            """, select=["CG009"])
        assert result.ok

    def test_pragma_names_the_external_bound(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            class C:
                def __init__(self):
                    self._queue = []  # lint: disable=CG009 - bounded in submit()
            """, select=["CG009"])
        assert result.ok

    def test_other_packages_are_out_of_scope(self, tmp_path):
        result = lint_source(tmp_path, "workloads/requests.py", """\
            from collections import deque

            def build():
                queue = []
                return deque(), queue
            """, select=["CG009"])
        assert result.ok


# ----------------------------------------------------------------------
# CG014 — instance-owned aggregates
# ----------------------------------------------------------------------

class TestCG014:
    def test_flags_module_level_counter_dicts(self, tmp_path):
        result = lint_source(tmp_path, "serve/stats.py", """\
            from collections import Counter, defaultdict

            _totals = {}
            REQUEST_COUNTER = Counter()
            stats_by_node = defaultdict(int)
            """, select=["CG014"])
        assert rule_ids(result) == ["CG014", "CG014", "CG014"]

    def test_flags_annotated_and_comprehension_aggregates(self, tmp_path):
        result = lint_source(tmp_path, "cluster/tally.py", """\
            SHED_TOTAL: dict = dict()
            fault_tally = {k: 0 for k in ("crash", "drain")}
            """, select=["CG014"])
        assert rule_ids(result) == ["CG014", "CG014"]

    def test_class_and_function_scoped_state_is_clean(self, tmp_path):
        result = lint_source(tmp_path, "faults/log.py", """\
            class Injector:
                _totals = {}

                def __init__(self):
                    self.counters = {}

            def tally():
                totals = {}
                return totals
            """, select=["CG014"])
        assert result.ok

    def test_non_counter_names_and_immutables_are_clean(self, tmp_path):
        result = lint_source(tmp_path, "serve/config.py", """\
            _DEFAULTS = {"rate": 2.0}
            TOTAL_STAGES = 3
            COUNT_LABEL = "count"
            """, select=["CG014"])
        assert result.ok

    def test_pragma_marks_a_static_table(self, tmp_path):
        result = lint_source(tmp_path, "cluster/fleet.py", """\
            _STAT_NAMES = {"p50", "p99"}  # lint: disable=CG014 -- static table, never mutated
            """, select=["CG014"])
        assert result.ok

    def test_other_packages_are_out_of_scope(self, tmp_path):
        result = lint_source(tmp_path, "workloads/requests.py", """\
            _totals = {}
            """, select=["CG014"])
        assert result.ok


# ----------------------------------------------------------------------
# Alias forms the shared import table must keep resolving
# ----------------------------------------------------------------------

#: ``(rel path, rule, source, "line:col", message)``; expected values
#: were captured before CG001/CG005/CG009 moved onto ``ctx.imports``.
ALIAS_FORMS = [
    ("games/gen.py", "CG001", """\
        from numpy import random as r

        def roll():
            return r.uniform(0, 1)
        """, "4:12",
     "call to global-state numpy.random.uniform; use util.rng.as_rng and "
     "Generator methods"),
    ("games/gen.py", "CG001", """\
        def roll():
            import numpy as np
            return np.random.rand()
        """, "3:12",
     "call to global-state numpy.random.rand; use util.rng.as_rng and "
     "Generator methods"),
    ("sim/clock.py", "CG005", """\
        import datetime as dt

        def stamp():
            return dt.datetime.now()
        """, "4:12", "wall-clock call dt.datetime.now() in sim/"),
    ("sim/clock.py", "CG005", """\
        import time as t

        def stamp():
            return t.monotonic()
        """, "4:12", "wall-clock call t.monotonic() in sim/"),
    ("sim/clock.py", "CG005", """\
        from datetime import date

        def stamp():
            return date.today()
        """, "4:12", "wall-clock call date.today() in sim/"),
    ("serve/buffer.py", "CG009", """\
        import collections as c

        def make():
            return c.deque()
        """, "4:12",
     "deque without maxlen= on the serving path; declare the bound (or "
     "pragma the external one)"),
]


@pytest.mark.parametrize(
    ("rel", "rule", "source", "where", "message"), ALIAS_FORMS,
    ids=["numpy-random-as", "nested-numpy-import", "datetime-module-as",
         "time-as", "from-datetime-date", "collections-as"],
)
def test_alias_forms_resolve(tmp_path, rel, rule, source, where, message):
    result = lint_source(tmp_path, rel, source, select=[rule])
    assert [(f.rule_id, f"{f.line}:{f.col}", f.message)
            for f in result.findings] == [(rule, where, message)]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------

class TestPragmas:
    def test_trailing_pragma_suppresses_line_only(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(xs=[]):  # lint: disable=CG002
                return xs

            def g(ys=[]):
                return ys
            """, select=["CG002"])
        assert len(result.findings) == 1
        assert result.findings[0].line == 4

    def test_standalone_pragma_suppresses_whole_file(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            # lint: disable=CG002

            def f(xs=[]):
                return xs

            def g(ys=[]):
                return ys
            """, select=["CG002"])
        assert result.ok

    def test_pragma_does_not_suppress_other_rules(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            import numpy as np

            def f(xs=[]):  # lint: disable=CG001
                return np.random.rand(), xs
            """, select=["CG001", "CG002"])
        # CG002 still fires on the def line; CG001 fires on line 4
        # (the call), outside the pragma's line.
        assert sorted(rule_ids(result)) == ["CG001", "CG002"]

    def test_bare_disable_suppresses_all_rules_on_line(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(xs=[], ys={}):  # lint: disable
                return xs, ys
            """, select=["CG002"])
        assert result.ok

    def test_pragma_inside_string_is_not_a_pragma(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def f(xs=[]):
                return "# lint: disable=CG002"
            """, select=["CG002"])
        assert rule_ids(result) == ["CG002"]

    def test_multi_rule_pragma_suppresses_both_on_one_line(self, tmp_path):
        # One line violating two different rules (global RNG draw and
        # a wall-clock read inside sim/): a single pragma naming both
        # rule ids silences the line entirely.
        source = """\
            import random
            import time

            def tick():
                return random.random() + time.time(){pragma}
            """
        noisy = lint_source(tmp_path / "noisy", "sim/a.py",
                            source.format(pragma=""),
                            select=["CG001", "CG005"])
        assert sorted(rule_ids(noisy)) == ["CG001", "CG005"]
        assert noisy.findings[0].line == noisy.findings[1].line == 5
        clean = lint_source(
            tmp_path / "clean", "sim/b.py",
            source.format(pragma="  # lint: disable=CG001,CG005"),
            select=["CG001", "CG005"])
        assert clean.ok

    def test_multi_rule_pragma_leaves_unnamed_rule(self, tmp_path):
        result = lint_source(tmp_path, "sim/mod.py", """\
            import random
            import time

            def tick():
                return random.random() + time.time()  # lint: disable=CG001,CG007
            """, select=["CG001", "CG005"])
        assert rule_ids(result) == ["CG005"]

    def test_file_level_pragma_names_multiple_rules(self, tmp_path):
        result = lint_source(tmp_path, "sim/mod.py", """\
            # lint: disable=CG001, CG005

            import random
            import time

            def tick():
                return random.random() + time.time()
            """, select=["CG001", "CG005"])
        assert result.ok

    def test_pragma_cannot_suppress_cg000_syntax_error(self, tmp_path):
        # The file fails to tokenize, so the pragma table is empty and
        # the parse failure is always reported — a pragma must never
        # hide a file the analyzer cannot even read.
        result = lint_source(
            tmp_path, "mod.py",
            "def broken(:  # lint: disable=CG000\n",
        )
        assert rule_ids(result) == ["CG000"]

    def test_pragma_on_parsable_line_in_broken_file_is_moot(self, tmp_path):
        # Even pragmas on *other* lines die with the tokenize failure:
        # CG000 is the only finding, never suppressed.
        result = lint_source(tmp_path, "mod.py", """\
            # lint: disable
            def broken(:
                pass
            """)
        assert rule_ids(result) == ["CG000"]


# ----------------------------------------------------------------------
# Engine, registry, reporters, CLI
# ----------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_reported_as_cg000(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", "def broken(:\n")
        assert rule_ids(result) == ["CG000"]
        assert "does not parse" in result.findings[0].message

    def test_findings_sorted_and_ordered(self, tmp_path):
        result = lint_source(tmp_path, "mod.py", """\
            def g(ys={}):
                return ys

            def f(xs=[]):
                return xs
            """, select=["CG002"])
        assert [f.line for f in result.findings] == [1, 4]

    def test_unknown_rule_raises(self):
        with pytest.raises(UnknownRuleError):
            resolve_rules(select=["CG999"])
        with pytest.raises(UnknownRuleError):
            resolve_rules(ignore=["bogus"])

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/nonexistent/definitely/missing"])

    def test_registry_has_all_per_file_rules(self):
        assert sorted(all_rules()) == [
            "CG001", "CG002", "CG003", "CG004", "CG005", "CG006", "CG007",
            "CG008", "CG009", "CG014",
        ]


class TestReporters:
    def _result(self, tmp_path):
        return lint_source(tmp_path, "mod.py", "def f(xs=[]):\n    return xs\n",
                           select=["CG002"])

    def test_text_report_format(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert ":1:" in text and "CG002" in text
        assert text.endswith("1 finding in 1 file(s) checked")

    def test_json_report_is_machine_readable(self, tmp_path):
        payload = json.loads(render_json(self._result(tmp_path)))
        assert payload["count"] == 1
        assert payload["files_checked"] == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "CG002"
        assert finding["line"] == 1

    def test_finding_format_is_grep_friendly(self):
        finding = Finding(path="a.py", line=3, col=7,
                          rule_id="CG001", message="boom")
        assert finding.format() == "a.py:3:7: CG001 boom"


class TestCLI:
    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert lint_main([str(tmp_path)]) == 1
        assert lint_main([str(tmp_path), "--select", "CG005"]) == 0
        assert lint_main([str(tmp_path), "--select", "CG999"]) == 2
        assert lint_main([str(tmp_path), "--select", ""]) == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("CG001", "CG008"):
            assert rule_id in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        lint_main([str(tmp_path), "--format", "json", "--select", "CG002"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_cocg_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as cocg_main

        bad = tmp_path / "mod.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert cocg_main(["lint", str(tmp_path)]) == 1
        assert cocg_main(["lint", str(tmp_path), "--format", "json"]) == 1
        capsys.readouterr()


class TestShippedTree:
    def test_src_tree_is_clean(self):
        """The shipped source tree passes its own invariant checker."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**__import__("os").environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRegistration:
    def test_typoed_hook_fails_at_registration(self):
        from repro.lint.registry import Rule, register

        class Typo(Rule):
            rule_id = "CG999"

            def visit_Fucntiondef(self, node):
                self.report(node, "never called")

        with pytest.raises(ValueError, match="visit_Fucntiondef"):
            register(Typo)
        assert "CG999" not in all_rules()

    def test_hooks_name_node_classes(self):
        import ast

        from repro.lint.project import node_hooks

        for rule_cls in all_rules().values():
            for node_cls, attr in node_hooks(rule_cls):
                assert issubclass(node_cls, ast.AST)
                assert attr == f"visit_{node_cls.__name__}"


class TestPragmaScan:
    def test_pragma_free_source_skips_tokenize(self, monkeypatch):
        import tokenize

        from repro.lint.pragmas import parse_suppressions

        def boom(readline):
            raise AssertionError("tokenize ran on a pragma-free source")

        monkeypatch.setattr(tokenize, "generate_tokens", boom)
        table = parse_suppressions("x = 1  # an ordinary comment\n")
        assert not table.file_level and not table.by_line
        assert not table.declared

    def test_pragma_text_in_a_string_is_not_a_pragma(self):
        from repro.lint.pragmas import parse_suppressions

        table = parse_suppressions('s = "# lint: disable=CG001"\n')
        assert not table.file_level and not table.by_line
