"""Tests for the shard-interference analyzer: entry discovery, the
shard classification lattice, rules CG020–CG022 and the retired CG019
(positive / negative / pragma), the ``shardplan.json`` certificate
(schema, byte stability, committed golden), the runtime ``@shard_entry`` /
``validate_shard_plan`` half, and the CG000 pragma-hygiene check.

The golden certificate lives at ``tests/data/shardplan_golden.json``
and is rendered from the committed fixture tree
``tests/data/shard_fixture/`` (the test chdirs into it so module names
are machine-independent).  Regenerate after intentionally changing the
classification or the certificate layout::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_lint_shards.py
"""

import ast
import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.fleet.certify import load_certificate
from repro.lint import (
    SHARD_CLASSES,
    ProjectContext,
    explain_rule,
    lint_paths,
    render_shard_plan,
    shard_analysis,
    shard_entry_points,
    summarize_module,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.pragmas import parse_suppressions
from repro.lint.project import ImportTable
from repro.lint.shards import DEFAULT_GROUP
from repro.sim.engine import ShardPlanError, validate_shard_plan
from repro.util.effects import (
    EffectError,
    is_shard_merge_point,
    shard_entry,
    shard_entry_group,
    shard_merge_point,
)

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "shard_fixture"
GOLDEN = DATA / "shardplan_golden.json"


def write_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source))
    return tmp_path


def build_project(files):
    """A ProjectContext straight from ``{relpath: source}`` (no disk)."""
    mods = {}
    for rel, source in files.items():
        source = textwrap.dedent(source)
        tree = ast.parse(source)
        summary = summarize_module(
            tree,
            path=rel,
            rel_parts=tuple(rel.split("/")),
            suppressions=parse_suppressions(source),
            imports=ImportTable(tree),
            rule_hooks={},
        )
        mods[summary.module] = summary
    return ProjectContext(mods)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# The runtime half: @shard_entry / @shard_merge_point
# ----------------------------------------------------------------------

class TestShardDecorators:
    def test_shard_entry_is_zero_cost(self):
        def fn(x):
            return x

        decorated = shard_entry("east")(fn)
        assert decorated is fn
        assert shard_entry_group(fn) == "east"

    def test_undecorated_has_no_group(self):
        def fn():
            pass

        assert shard_entry_group(fn) is None

    @pytest.mark.parametrize("bad", ["", "two words", "a.b", 7, None])
    def test_invalid_group_rejected(self, bad):
        with pytest.raises(EffectError):
            shard_entry(bad)

    def test_dashes_allowed_in_group(self):
        @shard_entry("region-east")
        def fn():
            pass

        assert shard_entry_group(fn) == "region-east"

    def test_merge_point_marker(self):
        @shard_merge_point
        def join():
            pass

        def other():
            pass

        assert is_shard_merge_point(join)
        assert not is_shard_merge_point(other)


# ----------------------------------------------------------------------
# Entry discovery and the classification lattice
# ----------------------------------------------------------------------

class TestEntryDiscovery:
    def test_conventional_terminals_under_entry_packages(self):
        project = build_project({
            "cluster/fleet.py": """
                def submit(r):
                    pass
                def helper():
                    pass
            """,
            "serve/gateway.py": """
                def pump(t):
                    pass
            """,
            "core/scheduler.py": """
                def run():
                    pass
            """,
        })
        entries = shard_entry_points(project)
        assert entries == {
            "cluster.fleet::submit": DEFAULT_GROUP,
            "serve.gateway::pump": DEFAULT_GROUP,
        }

    def test_decoration_creates_entries_anywhere(self):
        project = build_project({
            "core/loop.py": """
                from repro.util.effects import shard_entry

                @shard_entry("east")
                def spin():
                    pass
            """,
        })
        assert shard_entry_points(project) == {"core.loop::spin": "east"}

    def test_decoration_wins_over_convention(self):
        project = build_project({
            "cluster/fleet.py": """
                from repro.util.effects import shard_entry

                @shard_entry("east")
                def dispatch(r):
                    pass
            """,
        })
        assert shard_entry_points(project) == {
            "cluster.fleet::dispatch": "east",
        }


class TestClassification:
    def test_single_group_is_shard_local(self):
        project = build_project({
            "cluster/a.py": """
                def run():
                    helper()
                def helper():
                    pass
            """,
        })
        analysis = shard_analysis(project)
        assert analysis.classification("cluster.a::run") == "shard_local"
        assert analysis.classification("cluster.a::helper") == "shard_local"

    def test_cross_group_readonly_is_shared_read(self):
        project = build_project({
            "cluster/a.py": """
                from repro.util.effects import shard_entry

                @shard_entry("east")
                def run_east():
                    shared()

                @shard_entry("west")
                def run_west():
                    shared()

                def shared():
                    pass
            """,
        })
        analysis = shard_analysis(project)
        assert analysis.classification("cluster.a::shared") == \
            "shard_shared_read"
        # Two entries in the *same* group stay shard-local: one group
        # is one partitioned heap.
        assert analysis.groups_of("cluster.a::shared") == ("east", "west")

    def test_write_reach_is_interfering(self):
        project = build_project({
            "cluster/a.py": """
                TOTALS = {}

                def run():
                    bump()

                def bump():
                    TOTALS["n"] = 1
            """,
        })
        analysis = shard_analysis(project)
        assert analysis.classification("cluster.a::bump") == \
            "shard_interfering"
        # The caller can reach the write too.
        assert analysis.classification("cluster.a::run") == \
            "shard_interfering"

    def test_exempt_package_writes_do_not_count(self):
        project = build_project({
            "cluster/a.py": """
                def run():
                    record()
            """,
            "lint/registry.py": """
                REGISTRY = {}

                def record():
                    REGISTRY["n"] = 1
            """,
        })
        analysis = shard_analysis(project)
        assert analysis.classification("cluster.a::run") == "shard_local"
        assert analysis.classification("lint.registry::record") == \
            "shard_local"

    def test_obs_writes_interfere(self):
        # obs/ only reads finished runs; it is no exempt package.
        project = build_project({
            "cluster/a.py": """
                def run():
                    record()
            """,
            "obs/metrics.py": """
                REGISTRY = {}

                def record():
                    REGISTRY["n"] = 1
            """,
        })
        analysis = shard_analysis(project)
        assert analysis.classification("cluster.a::run") == \
            "shard_interfering"
        assert analysis.classification("obs.metrics::record") == \
            "shard_interfering"

    def test_unreachable_is_unclassified(self):
        project = build_project({
            "core/x.py": """
                def orphan():
                    pass
            """,
        })
        assert shard_analysis(project).classification("core.x::orphan") is None


# ----------------------------------------------------------------------
# CG019 — retired: cross-partition mutable reach is reported by CG015
# ----------------------------------------------------------------------

CROSS_WRITE = {
    "cluster/a.py": """
        def run():
            bump()
    """,
    "cluster/b.py": """
        def run():
            bump()
    """,
    "cluster/shared.py": """
        TOTALS = {}

        def bump():
            TOTALS["n"] = 1
    """,
}


class TestCG019:
    """The cases of the retired CG019, on the same trees: CG015 reports
    the write once, with both chains, and the id names its successor."""

    def test_two_entries_one_write(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, CROSS_WRITE)],
                            select=["CG015"])
        assert rule_ids(result) == ["CG015"]
        message = result.findings[0].message
        assert "2 shard entry points" in message
        assert "chain 1:" in message and "chain 2:" in message
        assert "cluster.a:run" in message and "cluster.b:run" in message
        assert "metrics registry" not in message

    def test_single_entry_is_cg015s_business(self, tmp_path):
        files = dict(CROSS_WRITE)
        del files["cluster/b.py"]
        result = lint_paths([write_tree(tmp_path, files)], select=["CG015"])
        assert rule_ids(result) == ["CG015"]
        message = result.findings[0].message
        assert "shard entry point cluster.a:run (chain: " in message
        assert "chain 2:" not in message

    def test_exempt_package_clean(self, tmp_path):
        files = {
            "cluster/a.py": CROSS_WRITE["cluster/a.py"],
            "cluster/b.py": CROSS_WRITE["cluster/b.py"],
            "lint/shared.py": CROSS_WRITE["cluster/shared.py"],
        }
        result = lint_paths([write_tree(tmp_path, files)], select=["CG015"])
        assert rule_ids(result) == []

    def test_pragma_suppresses(self, tmp_path):
        files = dict(CROSS_WRITE)
        files["cluster/shared.py"] = """
            TOTALS = {}

            def bump():
                TOTALS["n"] = 1  # lint: disable=CG015
        """
        result = lint_paths([write_tree(tmp_path, files)], select=["CG015"])
        assert rule_ids(result) == []

    def test_retired_pragma_is_cg000_naming_the_successor(self, tmp_path):
        files = dict(CROSS_WRITE)
        files["cluster/shared.py"] = """
            TOTALS = {}

            def bump():
                TOTALS["n"] = 1  # lint: disable=CG019
        """
        result = lint_paths([write_tree(tmp_path, files)], select=["CG015"])
        assert rule_ids(result) == ["CG000", "CG015"]
        cg000 = result.findings[0]
        assert "retired rule id 'CG019'" in cg000.message
        assert "reported as CG015" in cg000.message
        assert "valid ids" not in cg000.message

    def test_explain_names_the_successor(self, capsys):
        assert lint_main(["--explain", "cg019"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CG019 · retired")
        assert "reported as CG015" in out
        assert "CG015 · shard-unsafe-global-write" in out

    def test_select_exits_2_naming_the_successor(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--no-cache",
                          "--select", "CG015,CG019"]) == 2
        err = capsys.readouterr().err
        assert "CG019 is retired" in err and "CG015" in err


# ----------------------------------------------------------------------
# CG020 — merge-order fragility
# ----------------------------------------------------------------------

class TestCG020:
    def test_dynamic_priority_flagged(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                def run(engine, p):
                    engine.at(0.0, run, priority=p + 1)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == ["CG020"]
        assert "cannot resolve" in result.findings[0].message

    def test_foreign_band_collision_flagged(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/prov.py": """
                LIFECYCLE_PRIORITY = -50

                def boot(engine):
                    engine.at(0.0, boot, priority=LIFECYCLE_PRIORITY)
            """,
            "serve/thing.py": """
                def pump(engine):
                    engine.at(0.0, pump, priority=-50)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == ["CG020"]
        finding = result.findings[0]
        assert finding.path.endswith("thing.py")
        assert "cluster.prov.LIFECYCLE_PRIORITY" in finding.message

    def test_referencing_owner_by_name_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/prov.py": """
                LIFECYCLE_PRIORITY = -50
            """,
            "serve/thing.py": """
                from cluster.prov import LIFECYCLE_PRIORITY

                def pump(engine):
                    engine.at(0.0, pump, priority=LIFECYCLE_PRIORITY)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == []

    def test_own_unique_band_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/thing.py": """
                _PRIO_PUMP = -30

                def pump(engine):
                    engine.at(0.0, pump, priority=_PRIO_PUMP)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == []

    def test_default_priority_is_exempt(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/thing.py": """
                def pump(engine):
                    engine.after(1.0, pump)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == []

    def test_sim_package_forwarding_is_exempt(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                def run(engine):
                    helper(engine, 3)
            """,
            "sim/engine.py": """
                def helper(engine, priority):
                    engine.after(1.0, helper, priority=priority)
            """,
        })], select=["CG020"])
        assert rule_ids(result) == []

    def test_pragma_suppresses(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                def run(engine, p):
                    engine.at(0.0, run, priority=p + 1)  # lint: disable=CG020
            """,
        })], select=["CG020"])
        assert rule_ids(result) == []


# ----------------------------------------------------------------------
# CG021 — seed-stream partition leakage
# ----------------------------------------------------------------------

class TestCG021:
    def test_raw_literal_seed_on_entry_path(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                from repro.util.rng import as_rng

                def run():
                    return jitter()

                def jitter():
                    return as_rng(7)
            """,
        })], select=["CG021"])
        assert rule_ids(result) == ["CG021"]
        message = result.findings[0].message
        assert "as_rng(7)" in message and "chain:" in message

    def test_raw_seed_unreachable_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                from repro.util.rng import as_rng

                def orphan():
                    return as_rng(7)
            """,
        })], select=["CG021"])
        assert rule_ids(result) == []

    def test_namespace_shared_across_modules(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                from repro.util.rng import derive_seed

                def run(seed):
                    return derive_seed(seed, "dup")
            """,
            "cluster/b.py": """
                from repro.util.rng import derive_seed

                def run(seed):
                    return derive_seed(seed, "dup")
            """,
        })], select=["CG021"])
        assert rule_ids(result) == ["CG021", "CG021"]
        first = result.findings[0].message
        assert "'dup'" in first and "cluster.b" in first

    def test_unique_namespaces_are_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                from repro.util.rng import derive_seed

                def run(seed):
                    return derive_seed(seed, "a-stream")
            """,
            "cluster/b.py": """
                from repro.util.rng import derive_seed

                def run(seed):
                    return derive_seed(seed, "b-stream")
            """,
        })], select=["CG021"])
        assert rule_ids(result) == []

    def test_same_namespace_one_module_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/a.py": """
                from repro.util.rng import derive_seed

                def run(seed):
                    return derive_seed(seed, "dup"), derive_seed(seed, "dup")
            """,
        })], select=["CG021"])
        assert rule_ids(result) == []


# ----------------------------------------------------------------------
# CG022 — cross-shard digest writes
# ----------------------------------------------------------------------

CROSS_DIGEST = {
    "cluster/agg.py": """
        from repro.util.effects import shard_entry

        @shard_entry("east")
        def run_east(t):
            record_all(t)

        @shard_entry("west")
        def run_west(t):
            record_all(t)

        def record_all(t):
            t.record(1)
    """,
}


class TestCG022:
    def test_two_groups_without_merge_point(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, CROSS_DIGEST)],
                            select=["CG022"])
        assert rule_ids(result) == ["CG022"]
        message = result.findings[0].message
        assert "east, west" in message
        assert "@shard_merge_point" in message

    def test_declared_merge_point_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/agg.py": """
                from repro.util.effects import shard_entry, shard_merge_point

                @shard_entry("east")
                def run_east(t):
                    record_all(t)

                @shard_entry("west")
                def run_west(t):
                    record_all(t)

                @shard_merge_point
                def record_all(t):
                    t.record(1)
            """,
        })], select=["CG022"])
        assert rule_ids(result) == []

    def test_single_group_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/agg.py": """
                def run(t):
                    t.record(1)

                def pump(t):
                    t.record(2)
            """,
        })], select=["CG022"])
        assert rule_ids(result) == []

    def test_pragma_suppresses(self, tmp_path):
        files = {
            "cluster/agg.py": CROSS_DIGEST["cluster/agg.py"].replace(
                "t.record(1)",
                "t.record(1)  # lint: disable=CG022",
            ),
        }
        result = lint_paths([write_tree(tmp_path, files)], select=["CG022"])
        assert rule_ids(result) == []


# ----------------------------------------------------------------------
# The shardplan.json certificate
# ----------------------------------------------------------------------

def _render_fixture(monkeypatch) -> str:
    monkeypatch.chdir(FIXTURE)
    result = lint_paths(["cluster", "serve"], shard_plan=True)
    assert result.shard_plan is not None
    return result.shard_plan


def _fixture_project():
    return build_project({
        rel: (FIXTURE / rel).read_text(encoding="utf-8")
        for rel in ("cluster/driver.py", "serve/frontdoor.py")
    })


class TestShardPlan:
    def test_schema_and_counts(self, monkeypatch):
        plan = json.loads(_render_fixture(monkeypatch))
        assert plan["schema"] == "cocg-shardplan/1"
        assert plan["classes"] == list(SHARD_CLASSES)
        counts = plan["counts"]
        reachable = sum(spec["reachable_functions"]
                        for spec in plan["modules"].values())
        assert counts["entry_points"] == len(plan["entry_points"])
        assert counts["reachable_functions"] == reachable
        assert counts["modules"] == len(plan["modules"])
        assert (counts["shard_local"] + counts["shard_shared_read"]
                + counts["shard_interfering"]) == reachable
        # All three classes are exercised by the fixture.
        assert counts["shard_local"] > 0
        assert counts["shard_shared_read"] > 0
        assert counts["shard_interfering"] > 0

    def test_fixture_classification(self, monkeypatch):
        plan = json.loads(_render_fixture(monkeypatch))
        assert plan["entry_points"]["cluster.driver::run_east"] == {
            "group": "east", "declared": True,
        }
        assert plan["entry_points"]["serve.frontdoor::pump"] == {
            "group": "fleet", "declared": False,
        }
        analysis = shard_analysis(_fixture_project())
        assert analysis.classification("cluster.driver::plan_step") == \
            "shard_shared_read"
        assert plan["modules"]["serve.frontdoor"]["class"] == \
            "shard_interfering"
        assert plan["partition_safe_modules"] == ["cluster.driver"]
        # The blocking write carries both the site and a witness chain.
        [blocker] = [
            entry for entry in plan["interfering"]
            if entry["function"] == "serve.frontdoor::tally"
        ]
        assert "WINDOW" in blocker["site"]
        assert blocker["chains"][0].startswith("serve.frontdoor:pump")

    def test_double_run_is_byte_identical(self, monkeypatch):
        assert _render_fixture(monkeypatch) == _render_fixture(monkeypatch)

    def test_matches_committed_golden(self, monkeypatch):
        rendered = _render_fixture(monkeypatch)
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN.write_text(rendered, encoding="utf-8")
        assert GOLDEN.is_file(), (
            "golden file missing; regenerate per the module docstring"
        )
        assert rendered == GOLDEN.read_text(encoding="utf-8"), (
            "shardplan.json drifted from tests/data/shardplan_golden.json; "
            "if the change is intentional (classification or certificate "
            "layout), regenerate the golden per the module docstring"
        )

    def test_plan_keys_have_no_paths(self, monkeypatch):
        plan = json.loads(_render_fixture(monkeypatch))
        names = [*plan["entry_points"], *plan["modules"],
                 *plan["partition_safe_modules"]]
        for blocker in plan["interfering"]:
            names += [blocker["function"], *blocker["entries"],
                      *blocker["chains"]]
        assert names
        for name in names:
            assert "/" not in name and "\\" not in name

    def test_packaged_certificate_has_the_rendered_keys(self, monkeypatch):
        packaged = load_certificate()
        rendered = json.loads(_render_fixture(monkeypatch))
        assert set(packaged) == set(rendered)
        assert "functions" not in packaged

    def test_render_direct_from_project(self):
        project = build_project(CROSS_WRITE)
        text = render_shard_plan(project)
        assert text.endswith("\n")
        plan = json.loads(text)
        assert plan["counts"]["entry_points"] == 2
        assert plan["partition_safe_modules"] == []


# ----------------------------------------------------------------------
# validate_shard_plan — the runtime cross-check
# ----------------------------------------------------------------------

def _plan(entries):
    return {
        "schema": "cocg-shardplan/1",
        "entry_points": {
            node: {"group": group, "declared": True}
            for node, group in entries.items()
        },
    }


class TestValidateShardPlan:
    def test_matching_plan_passes(self):
        @shard_entry("east")
        def spin():
            pass

        validate_shard_plan(
            _plan({"core.loop::TestValidateShardPlan."
                   "test_matching_plan_passes.<locals>.spin": "east"}),
            [spin],
        )

    def test_undecorated_entry_rejected(self):
        def bare():
            pass

        with pytest.raises(ShardPlanError, match="not decorated"):
            validate_shard_plan(_plan({}), [bare])

    def test_missing_from_certificate_rejected(self):
        @shard_entry("east")
        def spin():
            pass

        with pytest.raises(ShardPlanError, match="stale shardplan"):
            validate_shard_plan(_plan({"core.loop::other": "east"}), [spin])

    def test_group_mismatch_rejected(self):
        @shard_entry("west")
        def spin():
            pass

        qualname = spin.__qualname__
        with pytest.raises(ShardPlanError, match="recorded 'east'"):
            validate_shard_plan(_plan({f"core.loop::{qualname}": "east"}),
                                [spin])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ShardPlanError, match="schema"):
            validate_shard_plan({"schema": "bogus", "entry_points": {}}, [])

    def test_all_problems_reported_sorted(self):
        def bare():
            pass

        @shard_entry("east")
        def spin():
            pass

        with pytest.raises(ShardPlanError) as excinfo:
            validate_shard_plan({"schema": "bogus"}, [bare, spin])
        message = str(excinfo.value)
        lines = message.splitlines()[1:]
        # schema + no table + undecorated bare + spin missing from the
        # (absent) table — all collected, none short-circuits.
        assert len(lines) == 4
        assert lines == sorted(lines)


# ----------------------------------------------------------------------
# Pragma hygiene — unknown rule ids become CG000 findings
# ----------------------------------------------------------------------

class TestPragmaHygiene:
    def test_unknown_rule_id_is_cg000(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable=CG199
            """,
        })])
        cg000 = [f for f in result.findings if f.rule_id == "CG000"]
        assert len(cg000) == 1
        message = cg000[0].message
        assert "'CG199'" in message
        assert "valid ids:" in message
        listed = message.split("valid ids:")[1].split(", ")
        assert [r.strip() for r in listed] == \
            sorted(r.strip() for r in listed)
        assert "CG020" in message and "CG022" in message
        assert "CG018" not in listed and "CG019" not in listed

    def test_known_rule_id_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable=CG007
            """,
        })])
        assert "CG000" not in rule_ids(result)

    def test_wildcard_pragma_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                X = 1  # lint: disable
            """,
        })])
        assert "CG000" not in rule_ids(result)

    def test_cg000_is_not_suppressible(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/a.py": """
                # lint: disable=CG000,CG199
                X = 1
            """,
        })])
        assert "CG000" in rule_ids(result)


# ----------------------------------------------------------------------
# CLI and --explain
# ----------------------------------------------------------------------

class TestCLI:
    def test_shard_plan_out_writes_certificate(self, tmp_path, capsys):
        tree = write_tree(tmp_path / "tree", {
            "cluster/a.py": """
                def run():
                    pass
            """,
        })
        out = tmp_path / "shardplan.json"
        code = lint_main([str(tree), "--no-cache", "--select", "CG015",
                          "--shard-plan-out", str(out)])
        capsys.readouterr()
        assert code == 0
        plan = json.loads(out.read_text(encoding="utf-8"))
        assert plan["schema"] == "cocg-shardplan/1"
        assert "cluster.a::run" in plan["entry_points"]

    def test_empty_tree_still_writes_requested_artifacts(self, tmp_path,
                                                         capsys):
        tree = tmp_path / "tree"
        tree.mkdir()
        plan_out = tmp_path / "shardplan.json"
        effects_out = tmp_path / "effects.json"
        code = lint_main([str(tree), "--no-cache",
                          "--shard-plan-out", str(plan_out),
                          "--effects-out", str(effects_out)])
        capsys.readouterr()
        assert code == 0
        plan = json.loads(plan_out.read_text(encoding="utf-8"))
        assert plan["schema"] == "cocg-shardplan/1"
        assert plan["entry_points"] == {} and plan["modules"] == {}
        effects = json.loads(effects_out.read_text(encoding="utf-8"))
        assert effects["schema"] == "cocg-effects/1"
        assert effects["counts"]["functions_total"] == 0

    @pytest.mark.parametrize("rule", ["CG019", "CG020", "CG021", "CG022"])
    def test_explain_has_fix_recipe(self, rule):
        text = explain_rule(rule)
        assert "Fix:" in text
        assert "lint: disable=" + rule in text
