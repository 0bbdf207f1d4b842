"""Tests for the effect system: signature inference, the ``@effects``
decorator, CG015–CG018, the ``effects.json`` artifact, precise
``self.method`` and ``super().method`` call resolution, and the ``--explain``/``--effects-out``
CLI flags."""

import ast
import json
import textwrap

import pytest

from repro.lint import (
    EFFECT_NAMES,
    EffectInference,
    ProjectContext,
    build_call_graph,
    explain_rule,
    infer_effects,
    lint_paths,
    render_effects,
    rule_class,
    summarize_module,
)
from repro.lint.__main__ import main as lint_main
from repro.lint.pragmas import parse_suppressions
from repro.lint.project import ImportTable
from repro.lint.registry import UnknownRuleError
from repro.util.effects import (
    EFFECTS,
    EffectError,
    declared_effects,
    effects,
    is_hot_path,
)


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
# The @effects decorator (runtime half)
# ----------------------------------------------------------------------

class TestEffectsDecorator:
    def test_zero_cost_returns_function_unchanged(self):
        def fn(x):
            return x

        decorated = effects("rng")(fn)
        assert decorated is fn
        assert declared_effects(fn) == frozenset({"rng"})
        assert not is_hot_path(fn)

    def test_hot_path_flag(self):
        @effects(hot_path=True)
        def fn():
            return 0

        assert declared_effects(fn) == frozenset()
        assert is_hot_path(fn)

    def test_unknown_effect_fails_at_import_time(self):
        with pytest.raises(EffectError, match="unknown effect"):
            effects("rngg")

    def test_undecorated_function_is_undeclared(self):
        def fn():
            return 0

        assert declared_effects(fn) is None
        assert not is_hot_path(fn)

    def test_alphabet_matches_analyzer(self):
        # The analyzer mirrors the tuple instead of importing it; pin
        # the two together so they cannot drift.
        assert EFFECTS == EFFECT_NAMES


# ----------------------------------------------------------------------
# Effect-signature inference
# ----------------------------------------------------------------------

class TestEffectInference:
    def test_seeds_and_propagation(self):
        project = build_project({
            "serve/loop.py": """\
                import time
                from util.helpers import sample

                def outer(engine, rng):
                    return inner(engine, rng)

                def inner(engine, rng):
                    engine.after(5.0, outer)
                    return sample(rng) + time.time()
                """,
            "util/helpers.py": """\
                def sample(rng):
                    return rng.normal()
                """,
        })
        inf = EffectInference(project)
        assert inf.effects_of("util.helpers::sample") == {"rng"}
        assert inf.effects_of("serve.loop::inner") == \
            {"rng", "clock", "engine_emit"}
        # Callee effects propagate to the caller.
        assert inf.effects_of("serve.loop::outer") == \
            {"rng", "clock", "engine_emit"}

    def test_global_write_and_io_and_digest_seeds(self):
        project = build_project({
            "util/state.py": """\
                TOTALS = {}

                def bump():
                    TOTALS["n"] = 1

                def mutate():
                    TOTALS.update(n=2)

                def rebind():
                    global TOTALS
                    TOTALS = {}

                def dump(telemetry):
                    telemetry.record(1.0, {})
                    print("done")

                def local_only():
                    totals = {}
                    totals["n"] = 1
                    return totals
                """,
        })
        inf = EffectInference(project)
        assert inf.effects_of("util.state::bump") == {"global_write"}
        assert inf.effects_of("util.state::mutate") == {"global_write"}
        assert inf.effects_of("util.state::rebind") == {"global_write"}
        assert inf.effects_of("util.state::dump") == {"digest_write", "io"}
        assert inf.effects_of("util.state::local_only") == set()

    def test_instance_state_is_not_global_write(self):
        project = build_project({
            "core/ctl.py": """\
                class Ctl:
                    def tick(self):
                        self.count = 1
                        self.log.append("t")
                """,
        })
        inf = EffectInference(project)
        assert inf.effects_of("core.ctl::Ctl.tick") == set()

    def test_class_level_store_is_global_write(self):
        project = build_project({
            "core/cfg.py": """\
                class Config:
                    limit = 5

                def tune():
                    Config.limit = 9
                """,
        })
        inf = EffectInference(project)
        assert inf.effects_of("core.cfg::tune") == {"global_write"}

    def test_witness_chain_names_the_path(self):
        project = build_project({
            "serve/a.py": """\
                from util.b import middle

                def top():
                    return middle()
                """,
            "util/b.py": """\
                def middle():
                    return leaf()

                def leaf():
                    return open("x").read()
                """,
        })
        inf = EffectInference(project)
        chain = inf.chain("serve.a::top", "io")
        assert chain == ["serve.a::top", "util.b::middle", "util.b::leaf"]
        assert "open()" in inf.witness("serve.a::top", "io").target

    def test_memoised_per_project(self):
        project = build_project({"util/x.py": "def f():\n    return 1\n"})
        assert infer_effects(project) is infer_effects(project)

    def test_one_call_graph_per_run(self, tmp_path, monkeypatch):
        # Every project rule, the inference and the shard analysis share
        # the context's one graph.
        import repro.lint.dataflow as dataflow

        built = []
        original = dataflow.build_call_graph

        def counting(project):
            built.append(project)
            return original(project)

        monkeypatch.setattr(dataflow, "build_call_graph", counting)
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                import time

                def pump():
                    return helper()

                def helper():
                    return time.time()
                """,
        })], effects=True, shard_plan=True)
        assert result.effects is not None and result.shard_plan is not None
        assert len(built) == 1


# ----------------------------------------------------------------------
# Precise self.method call resolution (dataflow satellite)
# ----------------------------------------------------------------------

class TestSelfCallResolution:
    def test_self_call_resolves_to_own_class_only(self):
        project = build_project({
            "core/a.py": """\
                class Walker:
                    def entry(self):
                        return self.helper()

                    def helper(self):
                        return 1
                """,
            "util/b.py": """\
                import random

                def helper():
                    return random.random()
                """,
        })
        graph = project.graph
        assert graph.callees("core.a::Walker.entry") == {"core.a::Walker.helper"}
        # ...so the foreign helper's RNG draw does not leak into entry.
        inf = project.effects
        assert inf.effects_of("core.a::Walker.entry") == set()

    def test_unknown_self_method_keeps_conservative_fanout(self):
        project = build_project({
            "core/a.py": """\
                class Walker:
                    def entry(self):
                        return self.inherited()
                """,
            "util/b.py": """\
                def inherited():
                    return open("x")
                """,
        })
        graph = build_call_graph(project)
        assert graph.callees("core.a::Walker.entry") == {"util.b::inherited"}

    def test_call_on_a_call_result_or_subscript_is_an_edge(self):
        project = build_project({
            "trace/a.py": """\
                from cluster.b import build

                def record():
                    return build().run()

                def first(nodes):
                    return nodes[0].advance()
                """,
            "cluster/b.py": """\
                import random

                class Fleet:
                    def run(self):
                        return random.random()

                    def advance(self):
                        return open("x")

                def build():
                    return Fleet()
                """,
        })
        graph = project.graph
        assert graph.callees("trace.a::record") == {
            "cluster.b::build", "cluster.b::Fleet.run",
        }
        assert graph.callees("trace.a::first") == {"cluster.b::Fleet.advance"}
        inf = project.effects
        assert "rng" in inf.effects_of("trace.a::record")
        assert "io" in inf.effects_of("trace.a::first")


# ----------------------------------------------------------------------
# super() call resolution
# ----------------------------------------------------------------------

SUPER_BASES = {
    "core/base.py": """\
        import random

        class Base:
            def __init__(self):
                self.x = random.random()

        class Middle(Base):
            pass
        """,
    "util/other.py": """\
        import time

        class Clock:
            def __init__(self):
                self.t = time.time()
        """,
}


class TestSuperCallResolution:
    def test_exception_subclass_does_not_inherit_unrelated_init(self):
        project = build_project({**SUPER_BASES, "util/errors.py": """\
            class ShardError(Exception):
                def __init__(self, name):
                    super().__init__(name)
            """})
        node = "util.errors::ShardError.__init__"
        assert project.graph.callees(node) == set()
        assert project.effects.effects_of(node) == set()

    @pytest.mark.parametrize("import_line, base", [
        ("from core.base import Base", "Base"),
        ("from core.base import Base as Parent", "Parent"),
        ("import core.base as cb", "cb.Base"),
        ("from core.base import Middle", "Middle"),
    ])
    def test_project_base_init_effects_are_inherited(self, import_line, base):
        project = build_project({**SUPER_BASES, "serve/child.py": f"""\
            {import_line}

            class Child({base}):
                def __init__(self):
                    super().__init__()
            """})
        node = "serve.child::Child.__init__"
        assert project.graph.callees(node) == {"core.base::Base.__init__"}
        assert project.effects.effects_of(node) == {"rng"}


# ----------------------------------------------------------------------
# CG015 — shard safety
# ----------------------------------------------------------------------

class TestCG015:
    def test_module_write_reachable_from_fleet_run(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/fleet.py": """\
                COUNTS = {}

                class FleetExperiment:
                    def run(self):
                        return self.step()

                    def step(self):
                        COUNTS["runs"] = 1
                        return COUNTS
                """,
        })], select=["CG015"])
        assert rule_ids(result) == ["CG015"]
        message = result.findings[0].message
        assert "COUNTS" in message
        assert "FleetExperiment.run" in message  # the entry point
        assert "FleetExperiment.step" in message  # the chain

    def test_write_behind_gateway_pump_in_other_module(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                from util.stats import bump

                def pump(q):
                    bump()
                """,
            "util/stats.py": """\
                TOTALS = {}

                def bump():
                    TOTALS.update(n=1)
                """,
        })], select=["CG015"])
        assert rule_ids(result) == ["CG015"]
        assert result.findings[0].path.endswith("stats.py")

    def test_metrics_registry_writes_are_exempt(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "serve/gateway.py": """\
                from obs.metrics import bump

                def pump(q):
                    bump()
                """,
            "obs/metrics.py": """\
                TOTALS = {}

                def bump():
                    TOTALS["n"] = 1
                """,
        })], select=["CG015"])
        assert result.ok

    def test_instance_state_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/fleet.py": """\
                class FleetExperiment:
                    def run(self):
                        self.counts = {}
                        self.counts["runs"] = 1
                """,
        })], select=["CG015"])
        assert result.ok

    def test_unreachable_write_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "analysis/tables.py": """\
                CACHE = {}

                def fill():
                    CACHE["t"] = 1
                """,
        })], select=["CG015"])
        assert result.ok

    def test_pragma_suppresses(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/fleet.py": """\
                COUNTS = {}

                class FleetExperiment:
                    def run(self):
                        COUNTS["runs"] = 1  # lint: disable=CG015 -- single-shard tool
                """,
        })], select=["CG015"])
        assert result.ok


# ----------------------------------------------------------------------
# CG016 — declared vs inferred drift
# ----------------------------------------------------------------------

class TestCG016:
    def test_undeclared_effect_errors_with_witness(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "util/tools.py": """\
                from repro.util.effects import effects

                @effects()
                def emit():
                    print("x")
                """,
        })], select=["CG016"])
        assert rule_ids(result) == ["CG016"]
        message = result.findings[0].message
        assert "undeclared 'io'" in message
        assert "print()" in message

    def test_stale_declaration_errors(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "util/tools.py": """\
                from repro.util.effects import effects

                @effects("clock")
                def calc(x):
                    return x + 1
                """,
        })], select=["CG016"])
        assert rule_ids(result) == ["CG016"]
        assert "stale" in result.findings[0].message

    def test_matching_declaration_is_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "util/tools.py": """\
                from repro.util.effects import effects

                @effects("rng")
                def draw(rng):
                    return rng.normal()
                """,
        })], select=["CG016"])
        assert result.ok

    def test_transitive_effect_counts_against_declaration(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "util/tools.py": """\
                import time
                from repro.util.effects import effects

                @effects()
                def outer():
                    return helper()

                def helper():
                    return time.time()
                """,
        })], select=["CG016"])
        assert rule_ids(result) == ["CG016"]
        assert "undeclared 'clock'" in result.findings[0].message
        assert "helper" in result.findings[0].message

    def test_undecorated_functions_are_not_checked(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "util/tools.py": """\
                def emit():
                    print("x")
                """,
        })], select=["CG016"])
        assert result.ok


# ----------------------------------------------------------------------
# CG017 — architecture layering
# ----------------------------------------------------------------------

class TestCG017:
    def test_sim_importing_serve_is_a_back_edge(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "sim/engine.py": """\
                from repro.serve.gateway import Gateway

                def boot():
                    return Gateway
                """,
        })], select=["CG017"])
        assert rule_ids(result) == ["CG017"]
        finding = result.findings[0]
        assert finding.line == 1  # reported at the import statement
        assert "serve" in finding.message

    def test_downward_and_same_layer_imports_are_clean(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cluster/exp.py": """\
                from repro.core.scheduler import CoCGScheduler
                from repro.faults.plan import FaultPlan
                from repro.util.rng import as_rng
                """,
        })], select=["CG017"])
        assert result.ok

    def test_type_checking_guard_is_exempt(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "sim/types.py": """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.serve.gateway import Gateway

                def use(g: "Gateway") -> None:
                    return None
                """,
        })], select=["CG017"])
        assert result.ok

    def test_root_modules_are_the_composition_root(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "cli.py": """\
                from repro.serve.gateway import Gateway
                from repro.sim.engine import SimulationEngine
                """,
        })], select=["CG017"])
        assert result.ok

    def test_shipped_tree_has_no_back_edges(self):
        # The real package must satisfy its own DAG.
        result = lint_paths(["src"], select=["CG017"])
        assert result.ok, [f.format() for f in result.findings]


# ----------------------------------------------------------------------
# CG018 — hot-path purity
# ----------------------------------------------------------------------

class TestCG018:
    def test_clock_on_hot_path_errors(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/kernel.py": """\
                import time
                from repro.util.effects import effects

                @effects(hot_path=True)
                def step(x):
                    return time.time() + x
                """,
        })], select=["CG018"])
        assert rule_ids(result) == ["CG018"]
        assert "'clock'" in result.findings[0].message

    def test_undeclared_rng_suggests_declaring_it(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/kernel.py": """\
                from repro.util.effects import effects

                @effects(hot_path=True)
                def draw(rng):
                    return rng.normal()
                """,
        })], select=["CG018"])
        assert rule_ids(result) == ["CG018"]
        assert "@effects('rng', hot_path=True)" in result.findings[0].message

    def test_declared_rng_is_the_allowed_exception(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/kernel.py": """\
                from repro.util.effects import effects

                @effects("rng", hot_path=True)
                def draw(rng):
                    return rng.normal()
                """,
        })], select=["CG016", "CG018"])
        assert result.ok

    def test_hot_path_may_declare_at_most_rng(self, tmp_path):
        result = lint_paths([write_tree(tmp_path, {
            "core/kernel.py": """\
                from repro.util.effects import effects

                @effects("io", hot_path=True)
                def dump(x):
                    print(x)
                """,
        })], select=["CG018"])
        assert rule_ids(result) == ["CG018"]
        assert "at most 'rng'" in result.findings[0].message

    def test_shipped_hot_path_is_pure(self):
        # The annotated Algorithm-1/rollout path must hold under its own
        # analyzer: no CG016 drift, no CG018 impurity.
        result = lint_paths(["src"], select=["CG016", "CG018"])
        assert result.ok, [f.format() for f in result.findings]


# ----------------------------------------------------------------------
# effects.json artifact
# ----------------------------------------------------------------------

class TestEffectsArtifact:
    FILES = {
        "serve/loop.py": """\
            import time
            from repro.util.effects import effects

            @effects("clock")
            def tick():
                return time.time()

            def pure(x):
                return x + 1
            """,
    }

    def test_double_run_is_byte_identical(self, tmp_path):
        tree = write_tree(tmp_path, self.FILES)
        first = lint_paths([tree], effects=True).effects
        second = lint_paths([tree], effects=True).effects
        assert first is not None and first == second

    def test_artifact_shape(self, tmp_path):
        tree = write_tree(tmp_path, self.FILES)
        payload = json.loads(lint_paths([tree], effects=True).effects)
        assert payload["schema"] == "cocg-effects/1"
        assert payload["effect_alphabet"] == list(EFFECT_NAMES)
        fn = payload["functions"]["serve.loop::tick"]
        assert fn["effects"] == ["clock"]
        assert fn["declared"] == ["clock"]
        assert "time.time()" in fn["own"]["clock"]
        # Pure, undeclared functions are omitted.
        assert "serve.loop::pure" not in payload["functions"]

    def test_no_absolute_paths_in_artifact(self, tmp_path):
        tree = write_tree(tmp_path, self.FILES)
        text = lint_paths([tree], effects=True).effects
        assert str(tmp_path) not in text

    def test_render_effects_direct(self):
        project = build_project(self.FILES)
        assert render_effects(project) == render_effects(project)

    def test_cli_effects_out_writes_artifact(self, tmp_path, capsys):
        tree = write_tree(tmp_path, {
            "util/tools.py": """\
                from repro.util.effects import effects

                __all__ = ["draw"]

                @effects("rng")
                def draw(rng):
                    return rng.normal()
                """,
        })
        out = tmp_path / "effects.json"
        code = lint_main([str(tree), "--no-cache",
                          "--effects-out", str(out)])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "cocg-effects/1"
        assert payload["functions"]["util.tools::draw"]["effects"] == ["rng"]


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------

class TestExplain:
    @pytest.mark.parametrize("rule_id", [
        "CG000", "CG001", "CG010", "CG015", "CG016", "CG017", "CG018",
    ])
    def test_every_rule_explains_with_a_fix_recipe(self, rule_id):
        text = explain_rule(rule_id)
        assert text.startswith(rule_id)
        assert "Fix:" in text

    def test_unknown_rule_raises(self):
        with pytest.raises(UnknownRuleError):
            explain_rule("CG999")

    def test_rule_class_lookup(self):
        assert rule_class("CG015").rule_id == "CG015"

    def test_cli_explain_exit_codes(self, capsys):
        assert lint_main(["--explain", "cg017"]) == 0
        out = capsys.readouterr().out
        assert "CG017" in out and "Fix:" in out
        assert lint_main(["--explain", "CG999"]) == 2
