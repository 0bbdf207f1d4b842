"""Tests for the whole-program phase: CG010–CG013, the incremental
cache, the SARIF/baseline reporters, and the git-scoped CLI flags."""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LintCache,
    all_project_rules,
    apply_baseline,
    cache_signature,
    fingerprint,
    lint_paths,
    load_baseline,
    render_sarif,
    resolve_project_rules,
    write_baseline,
)
from repro.lint import cache as cache_module
from repro.lint.cache import CacheEntry, decode, encode
from repro.lint.__main__ import main as lint_main
from repro.lint.registry import UnknownRuleError

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return tmp_path


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# CG010 — unordered iteration into ordering-sensitive sinks
# ----------------------------------------------------------------------

class TestCG010:
    def test_dict_iteration_reaching_dispatch_across_modules(self, tmp_path):
        """The acceptance scenario: an unsorted dict iteration whose
        enclosing function reaches ``dispatch_order`` through a helper
        in another module."""
        tree = write_tree(tmp_path, {
            "serve/gateway.py": """\
                from util.helpers import fanout

                def drain(queues):
                    for name, q in queues.items():
                        fanout(q)
                """,
            "util/helpers.py": """\
                def fanout(q):
                    return dispatch_order(q)

                def dispatch_order(q):
                    return list(q)
                """,
        })
        result = lint_paths([tree], select=["CG010"])
        assert rule_ids(result) == ["CG010"]
        finding = result.findings[0]
        assert "queues.items()" in finding.message
        assert "dispatch_order" in finding.message
        assert finding.path.endswith("gateway.py")
        assert finding.line == 4

    def test_set_iteration_direct_sink(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/sched.py": """\
                def submit(self, jobs):
                    for j in {1, 2, 3}:
                        self.place(j)
                """,
        })], select=["CG010"])
        assert rule_ids(result) == ["CG010"]
        assert "iteration over a set" in result.findings[0].message

    def test_sorted_iteration_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                def drain(queues):
                    for name in sorted(queues):
                        dispatch_order(queues[name])

                def dispatch_order(q):
                    return list(q)
                """,
        })], select=["CG010"])
        assert result.ok

    def test_loop_without_sink_reachability_is_clean(self, tmp_path):
        # Same loop, but nothing downstream is ordering-sensitive.
        result = lint_paths([write_tree(tmp_path, {
            "serve/stats.py": """\
                def widths(queues):
                    out = []
                    for name, q in queues.items():
                        out.append(len(q))
                    return out
                """,
        })], select=["CG010"])
        assert result.ok

    def test_non_critical_package_is_out_of_scope(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/tables.py": """\
                def submit(rows):
                    for k, v in rows.items():
                        record(k, v)

                def record(k, v):
                    return (k, v)
                """,
        })], select=["CG010"])
        assert result.ok

    def test_pragma_suppresses_with_proof(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                def drain(queues):
                    for name, q in queues.items():  # lint: disable=CG010 -- every q drained independently
                        dispatch_order(q)

                def dispatch_order(q):
                    return list(q)
                """,
        })], select=["CG010"])
        assert result.ok


# ----------------------------------------------------------------------
# CG011 — RNG stream discipline, whole-program
# ----------------------------------------------------------------------

class TestCG011:
    def test_unseeded_draw_two_calls_upstream_of_serve(self, tmp_path):
        """The acceptance scenario: ``random.random()`` laundered
        through two helpers before reaching ``serve/``."""
        tree = write_tree(tmp_path, {
            "serve/admit.py": """\
                from util.jitter import wobble

                def try_admit(x):
                    return wobble(x)
                """,
            "util/jitter.py": """\
                from util.noise import sample

                def wobble(x):
                    return x + sample()
                """,
            "util/noise.py": """\
                import random

                def sample():
                    return random.random()
                """,
        })
        result = lint_paths([tree], select=["CG011"])
        assert rule_ids(result) == ["CG011"]
        finding = result.findings[0]
        assert finding.path.endswith("admit.py")
        # The witness chain names the laundering path.
        assert "wobble" in finding.message
        assert "sample" in finding.message

    def test_draw_directly_inside_critical_package(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/chaos.py": """\
                import random

                def shake():
                    return random.gauss(0, 1)
                """,
        })], select=["CG011"])
        assert rule_ids(result) == ["CG011"]
        assert "random.gauss" in result.findings[0].message

    def test_seeded_streams_are_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/admit.py": """\
                from util.jitter import wobble

                def try_admit(x, rng):
                    return wobble(x, rng)
                """,
            "util/jitter.py": """\
                def wobble(x, rng):
                    return x + rng.uniform(0, 1)
                """,
        })], select=["CG011"])
        assert result.ok

    def test_draw_not_reachable_from_critical_code_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/boot.py": """\
                import random

                def resample(xs):
                    return random.choice(xs)
                """,
            "serve/admit.py": """\
                def try_admit(x):
                    return x
                """,
        })], select=["CG011"])
        assert result.ok


# ----------------------------------------------------------------------
# CG012 — wall-clock taint crossing into sim/
# ----------------------------------------------------------------------

class TestCG012:
    def test_laundered_wall_clock_read(self, tmp_path):
        tree = write_tree(tmp_path, {
            "sim/clock.py": """\
                from util.now import stamp

                def advance(t):
                    return stamp(t)
                """,
            "util/now.py": """\
                import time

                def stamp(t):
                    return time.time() + t
                """,
        })
        result = lint_paths([tree], select=["CG012"])
        assert rule_ids(result) == ["CG012"]
        finding = result.findings[0]
        assert finding.path.endswith("clock.py")
        assert "stamp" in finding.message

    def test_direct_read_in_sim_left_to_cg005(self, tmp_path):
        # A read *inside* sim/ is CG005's finding; CG012 only covers
        # the cross-module case, so selecting CG012 alone stays quiet.
        result = lint_paths([write_tree(tmp_path, {
            "sim/clock.py": """\
                import time

                def advance(t):
                    return time.time() + t
                """,
        })], select=["CG012"])
        assert result.ok

    def test_wall_clock_outside_sim_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/bench.py": """\
                import time

                def elapsed(t0):
                    return time.perf_counter() - t0
                """,
        })], select=["CG012"])
        assert result.ok


# ----------------------------------------------------------------------
# CG013 — digest completeness for event dataclasses
# ----------------------------------------------------------------------

class TestCG013:
    def test_unrecorded_event_dataclass(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
        })], select=["CG013"])
        assert rule_ids(result) == ["CG013"]
        assert "CrashEvent" in result.findings[0].message

    def test_event_constructed_in_digest_module_is_covered(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
            "sim/telemetry.py": """\
                from faults.events import CrashEvent

                def record_fault(node):
                    return CrashEvent(node=node)

                def digest():
                    return "d"
                """,
        })], select=["CG013"])
        assert result.ok

    def test_non_dataclass_and_other_packages_out_of_scope(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "faults/events.py": """\
                class PlainEvent:
                    pass
                """,
            "analysis/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class ReportEvent:
                    name: str
                """,
        })], select=["CG013"])
        assert result.ok

    def test_pragma_exempts_internal_event(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "sim/engine.py": """\
                from dataclasses import dataclass

                @dataclass
                class TickEvent:  # lint: disable=CG013 -- scheduler-internal
                    t: float
                """,
        })], select=["CG013"])
        assert result.ok


# ----------------------------------------------------------------------
# Registry / selection plumbing
# ----------------------------------------------------------------------

class TestProjectRegistry:
    def test_registry_has_all_project_rules(self):
        assert sorted(all_project_rules()) == [
            "CG010", "CG011", "CG012", "CG013",
            "CG015", "CG016", "CG017", "CG018",
            "CG019", "CG020", "CG021", "CG022",
        ]

    def test_select_spans_both_registries(self):
        # Selecting a per-file id must not error the project resolver
        # (it just resolves to no project rules), and vice versa.
        assert resolve_project_rules(select=["CG001"]) == []
        only_cg011 = resolve_project_rules(select=["CG011"])
        assert [cls.rule_id for cls in only_cg011] == ["CG011"]
        with pytest.raises(UnknownRuleError):
            resolve_project_rules(select=["CG999"])

    def test_no_project_phase_flag(self, tmp_path):
        tree = write_tree(tmp_path, {
            "faults/events.py": """\
                from dataclasses import dataclass

                @dataclass
                class CrashEvent:
                    node: str
                """,
        })
        assert lint_paths([tree], select=["CG013"], whole_program=False).ok
        assert not lint_paths([tree], select=["CG013"]).ok


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------

FIXTURE = {
    "serve/admit.py": """\
        from util.jitter import wobble

        def try_admit(x):
            return wobble(x)
        """,
    "util/jitter.py": """\
        from util.noise import sample

        def wobble(x):
            return x + sample()
        """,
    "util/noise.py": """\
        import random

        def sample():
            return random.random()
        """,
}


class TestIncrementalCache:
    def _signature(self):
        return cache_signature(["CG001"], ["CG011"])

    def _lint(self, tree, cache):
        return lint_paths([tree], select=["CG011"], cache=cache)

    @pytest.mark.parametrize("select", [["CG011"], ["CG001", "CG011"]],
                             ids="+".join)
    def test_warm_run_reparses_nothing_and_agrees(self, tmp_path, select):
        # CG001 adds a per-file finding, which the cache must store in a
        # form it can read back.
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cold_cache = LintCache.load(cache_file, self._signature())
        cold = lint_paths([tree], select=select, cache=cold_cache)
        cold_cache.save()
        assert cold.files_reparsed == cold.files_checked == 3
        assert sorted(rule_ids(cold)) == select

        warm_cache = LintCache.load(cache_file, self._signature())
        warm = lint_paths([tree], select=select, cache=warm_cache)
        assert warm.files_reparsed == 0
        assert warm.findings == cold.findings

    def test_every_entry_round_trips(self):
        cache = LintCache(None, "round-trip")
        lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests",
                    REPO_ROOT / "examples"], cache=cache)
        assert len(cache.entries) > 150
        for key, entry in cache.entries.items():
            stored = json.loads(json.dumps(encode(entry), sort_keys=True))
            assert decode(CacheEntry, stored) == entry, key

    def test_touched_file_alone_is_reanalyzed(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cache = LintCache.load(cache_file, self._signature())
        self._lint(tree, cache)
        cache.save()

        # Fixing the laundered draw changes one file; the warm run must
        # re-parse only it, yet the *project* findings still update.
        (tree / "util" / "noise.py").write_text(textwrap.dedent("""\
            def sample():
                return 0.5
            """))
        warm_cache = LintCache.load(cache_file, self._signature())
        warm = self._lint(tree, warm_cache)
        assert warm.files_reparsed == 1
        assert warm.ok

    def test_signature_mismatch_invalidates_everything(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cache = LintCache.load(cache_file, self._signature())
        self._lint(tree, cache)
        cache.save()

        other = LintCache.load(cache_file, cache_signature(["CG001"], []))
        assert other.entries == {}

    def test_signature_tracks_analyzer_source_bytes(self, tmp_path,
                                                    monkeypatch):
        # A rule edit without an ANALYZER_VERSION bump must still
        # invalidate every cached finding.
        copy = tmp_path / "lint"
        copy.mkdir()
        for source in cache_module._ANALYZER_DIR.glob("*.py"):
            (copy / source.name).write_bytes(source.read_bytes())
        monkeypatch.setattr(cache_module, "_ANALYZER_DIR", copy)
        before = self._signature()
        assert self._signature() == before
        rules = copy / "rules.py"
        data = bytearray(rules.read_bytes())
        data[-1] ^= 1
        rules.write_bytes(bytes(data))
        assert self._signature() != before

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        cache = LintCache.load(cache_file, self._signature())
        result = self._lint(tree, cache)
        assert result.files_reparsed == 3

    @pytest.mark.parametrize("mangle", [
        lambda entry: entry.pop("digest"),
        lambda entry: entry.update(findings={}),
        lambda entry: entry["summary"].update(rel_parts="util"),
        lambda entry: entry["summary"]["suppressions"]["by_line"].update(
            x=["CG001"]),
        lambda entry: entry["summary"]["functions"]["sample"].update(
            line="4"),
        lambda entry: entry["summary"]["suppressions"].update(
            declared=[[1]]),
    ])
    def test_malformed_entry_empties_the_cache(self, tmp_path, mangle):
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cache = LintCache.load(cache_file, self._signature())
        self._lint(tree, cache)
        cache.save()
        payload = json.loads(cache_file.read_text())
        key = next(k for k in payload["entries"] if k.endswith("noise.py"))
        mangle(payload["entries"][key])
        cache_file.write_text(json.dumps(payload))
        assert LintCache.load(cache_file, self._signature()).entries == {}

    def test_deleted_file_is_pruned(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        cache_file = tmp_path / "cache.json"
        cache = LintCache.load(cache_file, self._signature())
        self._lint(tree, cache)
        cache.save()
        (tree / "util" / "noise.py").unlink()
        warm = LintCache.load(cache_file, self._signature())
        self._lint(tree, warm)
        warm.save()
        keys = json.loads(cache_file.read_text())["entries"].keys()
        assert not any(k.endswith("noise.py") for k in keys)


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------

class TestSarif:
    def test_sarif_log_shape(self, tmp_path):
        tree = write_tree(tmp_path, FIXTURE)
        result = lint_paths([tree], select=["CG011"])
        log = json.loads(render_sarif(result))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"CG000", "CG001", "CG010", "CG011", "CG012",
                "CG013"} <= declared
        res = run["results"][0]
        assert res["ruleId"] == "CG011"
        assert res["locations"][0]["physicalLocation"]["region"]["startLine"] >= 1

    def test_cli_sarif_flag_writes_file(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        out = tmp_path / "lint.sarif"
        code = lint_main([str(tree), "--select", "CG011",
                          "--no-cache", "--sarif", str(out)])
        capsys.readouterr()
        assert code == 1
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "CG011"

    def test_cli_format_sarif_stdout(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        lint_main([str(tree), "--select", "CG011", "--no-cache",
                   "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------

class TestBaseline:
    def test_baseline_roundtrip_subtracts_known_findings(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        result = lint_paths([tree], select=["CG011"])
        assert not result.ok
        baseline_file = tmp_path / "baseline.json"
        n = write_baseline(baseline_file, result.findings)
        assert n == 1
        baseline = load_baseline(baseline_file)
        assert apply_baseline(result.findings, baseline) == []

    def test_new_finding_survives_baseline(self, tmp_path):
        tree = write_tree(tmp_path / "t", FIXTURE)
        result = lint_paths([tree], select=["CG011"])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, result.findings)

        (tree / "serve" / "direct.py").write_text(textwrap.dedent("""\
            import random

            def pick():
                return random.random()
            """))
        again = lint_paths([tree], select=["CG011"])
        new = apply_baseline(again.findings, load_baseline(baseline_file))
        assert [f.rule_id for f in new] == ["CG011"]
        assert new[0].path.endswith("direct.py")

    def test_fingerprint_survives_line_shift(self, tmp_path):
        tree = write_tree(tmp_path / "t", dict(FIXTURE))
        before = lint_paths([tree], select=["CG011"]).findings
        noise = tree / "util" / "noise.py"
        noise.write_text("# a leading comment\n\n" + noise.read_text())
        admit = tree / "serve" / "admit.py"
        admit.write_text("# shifted\n" + admit.read_text())
        after = lint_paths([tree], select=["CG011"]).findings
        assert [f.line for f in before] != [f.line for f in after]
        assert [fingerprint(f) for f in before] == [fingerprint(f) for f in after]

    def test_cli_baseline_flow(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        baseline_file = tmp_path / "baseline.json"
        args = [str(tree), "--select", "CG011", "--no-cache",
                "--baseline", str(baseline_file)]
        assert lint_main(args + ["--update-baseline"]) == 0
        assert lint_main(args) == 0  # old finding is baselined
        assert lint_main([str(tree), "--select", "CG011", "--no-cache",
                          "--update-baseline"]) == 2  # needs --baseline
        capsys.readouterr()

    def test_malformed_baseline_fails_loudly(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "t", FIXTURE)
        bad = tmp_path / "baseline.json"
        bad.write_text('{"findings": "nope"}')
        assert lint_main([str(tree), "--no-cache",
                          "--baseline", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --changed (git-diff-scoped reporting)
# ----------------------------------------------------------------------

def _git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
        cwd=cwd, check=True, capture_output=True,
    )


class TestChangedFlag:
    def test_only_changed_files_are_reported(self, tmp_path, monkeypatch,
                                             capsys):
        tree = write_tree(tmp_path, {
            "pkg/serve/old.py": """\
                import random

                def try_admit(x):
                    return random.random()
                """,
            "pkg/serve/fresh.py": """\
                def try_admit(x):
                    return x
                """,
        })
        _git(tree, "init", "-q")
        _git(tree, "add", ".")
        _git(tree, "commit", "-qm", "seed")
        # Introduce a violation in one file only; the committed one
        # keeps its (old) violation but must not be reported.
        (tree / "pkg" / "serve" / "fresh.py").write_text(textwrap.dedent("""\
            import random

            def try_admit(x):
                return random.random()
            """))
        monkeypatch.chdir(tree)
        assert lint_main(["pkg", "--select", "CG011", "--no-cache",
                          "--changed", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        paths = {f["path"] for f in payload["findings"]}
        assert all(p.endswith("fresh.py") for p in paths)
        assert payload["count"] >= 1

    def test_untracked_files_count_as_changed(self, tmp_path, monkeypatch,
                                              capsys):
        tree = write_tree(tmp_path, {
            "pkg/serve/ok.py": "def try_admit(x):\n    return x\n",
        })
        _git(tree, "init", "-q")
        _git(tree, "add", ".")
        _git(tree, "commit", "-qm", "seed")
        write_tree(tree, {
            "pkg/serve/new.py": """\
                import random

                def try_admit(x):
                    return random.random()
                """,
        })
        monkeypatch.chdir(tree)
        assert lint_main(["pkg", "--select", "CG011", "--no-cache",
                          "--changed"]) == 1
        out = capsys.readouterr().out
        assert "new.py" in out

    def test_changed_outside_git_is_usage_error(self, tmp_path, monkeypatch,
                                                capsys):
        tree = write_tree(tmp_path, {"pkg/mod.py": "x = 1\n"})
        monkeypatch.chdir(tree)
        monkeypatch.setenv("GIT_DIR", str(tree / "definitely-no-git"))
        assert lint_main(["pkg", "--no-cache", "--changed"]) == 2
        assert "error:" in capsys.readouterr().err
