"""Tests for the command-line interface."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_catalog_parses(self):
        args = build_parser().parse_args(["catalog"])
        assert args.command == "catalog"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "contra"])
        assert args.game == "contra"
        assert args.players == 6 and args.sessions == 5

    def test_colocate_multiple_games(self):
        args = build_parser().parse_args(
            ["colocate", "genshin", "contra", "--strategy", "vbp"]
        )
        assert args.games == ["genshin", "contra"]
        assert args.strategy == "vbp"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["colocate", "contra", "--strategy", "magic"])

    def test_fleet_flags(self):
        args = build_parser().parse_args(
            ["fleet", "contra", "--nodes", "2", "--policy", "best-fit",
             "--heterogeneous"]
        )
        assert args.nodes == 2 and args.policy == "best-fit"
        assert args.heterogeneous

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["chaos", "contra", "dota2", "--nodes", "3",
             "--horizon", "600", "--plan", "plan.json"]
        )
        assert args.command == "chaos"
        assert args.games == ["contra", "dota2"]
        assert args.nodes == 3 and args.horizon == 600
        assert args.plan == "plan.json"

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos", "contra"])
        assert args.nodes == 2 and args.plan is None
        assert args.policy == "round-robin"
        assert not args.validate
        assert args.scenario == "default" and args.warm_pool is None

    def test_chaos_validate_needs_no_games(self):
        args = build_parser().parse_args(
            ["chaos", "--validate", "--plan", "plan.json"]
        )
        assert args.validate and args.games == []

    def test_chaos_scenario_and_warm_pool(self):
        args = build_parser().parse_args(
            ["chaos", "contra", "--scenario", "reclaim-storm",
             "--warm-pool", "2"]
        )
        assert args.scenario == "reclaim-storm" and args.warm_pool == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "contra", "--scenario", "bad"])

    def test_lint_help_names_the_highest_rule_id(self):
        import repro.lint.engine  # noqa: F401  (registers every rule)
        from repro.lint.registry import all_project_rules, all_rules

        highest = max(set(all_rules()) | set(all_project_rules()))
        assert f"(rules CG001-{highest})" in build_parser().format_help()


class TestCommands:
    def test_catalog_lists_games(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        for game in ("contra", "csgo", "dota2", "genshin", "devil_may_cry"):
            assert game in out

    def test_profile_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "contra.profile.json"
        code = main([
            "profile", "contra", "-o", str(out_file),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["game"] == "contra"
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_profile_unknown_game(self):
        with pytest.raises(SystemExit, match="unknown game"):
            main(["profile", "tetris"])

    def test_colocate_uses_saved_profile(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "colocate", "contra", "--horizon", "400",
            "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded profile" in out
        assert "throughput" in out

    def test_colocate_unknown_game(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown game"):
            main(["colocate", "tetris", "--profiles-dir", str(tmp_path)])

    def test_fleet_runs(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "fleet", "contra", "--nodes", "2", "--horizon", "500",
            "--rate", "3.0", "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 2 nodes" in out
        assert "throughput" in out

    def test_chaos_runs_with_custom_plan(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [
                {"kind": "node-crash", "time": 150.0, "node": "node-1",
                 "recover_after": 100.0},
                {"kind": "telemetry-dropout", "time": 0.0, "rate": 0.02,
                 "duration": 500.0},
            ],
        }))
        code = main([
            "chaos", "contra", "--nodes", "2", "--horizon", "500",
            "--plan", str(plan_file), "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "loaded fault plan" in out
        assert "fault-free" in out and "faulted" in out
        assert "telemetry digest" in out

    def test_chaos_validate_ok(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [
                {"kind": "spot-reclaim", "time": 60.0, "node": "node-0",
                 "notice": 30.0},
                {"kind": "provision-fail", "time": 10.0, "duration": 45.0},
            ],
        }))
        code = main(["chaos", "--validate", "--plan", str(plan_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok (2 faults, seed 3)" in out

    def test_chaos_validate_reports_problems(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({
            "seed": 3,
            "faults": [{"kind": "spot-reclaim", "time": 60.0, "grace": 1.0}],
        }))
        code = main(["chaos", "--validate", "--plan", str(plan_file)])
        assert code == 1
        captured = capsys.readouterr()
        # Diagnostics are routed to stderr; stdout stays report-only.
        assert "faults[0]" in captured.err and "grace" in captured.err
        assert "faults[0]" not in captured.out

    def test_chaos_validate_rejects_bad_json(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text("{not json")
        assert main(["chaos", "--validate", "--plan", str(plan_file)]) == 1

    def test_chaos_validate_requires_plan(self, capsys):
        assert main(["chaos", "--validate"]) == 2

    def test_chaos_games_required_without_validate(self, capsys):
        assert main(["chaos"]) == 2

    def test_chaos_bad_plan_points_at_validate(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"seed": 3, "faults": [
            {"kind": "meteor-strike", "time": 1.0},
        ]}))
        code = main(["chaos", "contra", "--plan", str(plan_file)])
        assert code == 2
        assert "--validate" in capsys.readouterr().err

    def test_chaos_reclaim_storm_scenario(self, capsys, tmp_path):
        main([
            "profile", "contra", "-o", str(tmp_path / "contra.profile.json"),
            "--players", "3", "--sessions", "3", "--seed", "1",
        ])
        capsys.readouterr()
        code = main([
            "chaos", "contra", "--nodes", "2", "--horizon", "400",
            "--scenario", "reclaim-storm", "--warm-pool", "1",
            "--profiles-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "reclaim-storm" in out
        assert "(unaccounted: 0)" in out
        assert "WARNING" not in out


class TestTraceCommands:
    """``cocg record`` / ``cocg replay`` / ``cocg corpus``."""

    def test_record_flags(self):
        args = build_parser().parse_args(
            ["record", "contra", "-o", "t.cgtrace", "--horizon", "200"]
        )
        assert args.command == "record"
        assert args.output == "t.cgtrace" and args.horizon == 200
        assert args.warm_pool is None and args.plan is None

    def test_corpus_flags(self):
        args = build_parser().parse_args(["corpus", "generate", "raid-night"])
        assert args.action == "generate" and args.names == ["raid-night"]
        assert args.out == "corpus"

    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.cgtrace"
        code = main([
            "record", "contra", "--horizon", "150", "--seed", "3",
            "-o", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet digest" in out and str(trace) in out
        assert trace.exists()

        code = main(["replay", str(trace)])
        assert code == 0
        captured = capsys.readouterr()
        assert "digest match:      yes" in captured.out
        assert captured.err == ""

    def test_replay_unreadable_trace_errors_to_stderr(self, capsys, tmp_path):
        missing = tmp_path / "nope.cgtrace"
        assert main(["replay", str(missing)]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""

    def test_replay_tampered_trace_fails(self, capsys, tmp_path):
        trace = tmp_path / "run.cgtrace"
        main([
            "record", "contra", "--horizon", "150", "--seed", "3",
            "-o", str(trace),
        ])
        capsys.readouterr()
        text = trace.read_text()
        trace.write_text(text.replace('"fleet_digest":"', '"fleet_digest":"0'))
        code = main(["replay", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert "digest match:      NO" in captured.out
        assert "diverged" in captured.err

    def test_record_unknown_game_errors_to_stderr(self, capsys, tmp_path):
        code = main([
            "record", "nonsuch", "-o", str(tmp_path / "t.cgtrace"),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "nonsuch" in captured.err

    def test_corpus_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("launch-day", "diurnal-wave", "raid-night",
                     "mobile-burst"):
            assert name in out

    def test_corpus_generate_unknown_scenario(self, capsys, tmp_path):
        code = main([
            "corpus", "generate", "nonsuch", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "nonsuch" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Pinned output: every fleet command's stdout (and artifacts), by hash
# ----------------------------------------------------------------------

_SMALL = ["--players", "2", "--sessions", "2", "--horizon", "240"]

#: Case -> (commands run in order, artifact files hashed after them).
#: ``{tmp}`` stands for the test's temporary directory.
_PINNED_CASES = {
    "colocate": (
        [["colocate", "contra", "dota2", "--horizon", "900",
          "--players", "2", "--sessions", "2", "--profiles-dir", "{tmp}",
          "--strategy", strategy]
         for strategy in ("cocg", "reactive")],
        []),
    "fleet-heterogeneous": (
        [["fleet", "contra", "--nodes", "3", "--heterogeneous", *_SMALL]],
        []),
    "fleet-regions": ([["fleet", "contra", "--regions", "2", *_SMALL]], []),
    "serve": ([["serve", "contra", *_SMALL]], []),
    "serve-obs": (
        [["serve", "contra", "--obs-out", "{tmp}/serve-obs", *_SMALL]],
        ["serve-obs/metrics.prom", "serve-obs/trace.json"]),
    "chaos": ([["chaos", "contra", *_SMALL]], []),
    "chaos-reclaim-storm": (
        [["chaos", "contra", "--scenario", "reclaim-storm", *_SMALL]], []),
    "chaos-reclaim-storm-obs": (
        [["chaos", "contra", "--scenario", "reclaim-storm",
          "--obs-out", "{tmp}/rs", *_SMALL]],
        ["rs/metrics.prom", "rs/trace.json"]),
    "obs-faults": (
        [["obs", "contra", "--faults", "--out", "{tmp}/obs", *_SMALL]],
        ["obs/metrics.prom", "obs/trace.json"]),
    "record-replay": (
        [["record", "contra", "-o", "{tmp}/run.cgtrace", *_SMALL],
         ["replay", "{tmp}/run.cgtrace"]],
        ["run.cgtrace"]),
}

#: sha256 over each case's stdout (temporary paths normalised) and
#: artifact bytes.
_PINNED_SHA256 = {
    "colocate": (
        "4a0a5307feef16e03bcb5136c4985300"
        "2ef9f4ca43613eedf8d5e8c07341969a"),
    "fleet-heterogeneous": (
        "04ca24f3ed2e63cf52be8a2d44d4567e"
        "8c429a302ea33aeac20669fcf7d1e890"),
    "fleet-regions": (
        "f28939cf189afc4b84565e17effcbb19"
        "76e0523db7e4bcf47214586c48e8acf6"),
    "serve": (
        "eec2b31f0a97a9553895f17d0ebc8dbb"
        "07bd703a6a9dc32b6b6fa1c136b25d4b"),
    "serve-obs": (
        "6324812111cc0be36c76c99819583161"
        "883a28f06756c7de3491a667bee9d114"),
    "chaos": (
        "e327b47114ee8ec541bd08c90fdf09c6"
        "f8505d7e276a95b96475951f344fa37f"),
    "chaos-reclaim-storm": (
        "c2973b1df02457ea7da9ac2a30a3f97f"
        "b262fa61d7293ffaf05cbd74358db651"),
    "chaos-reclaim-storm-obs": (
        "175d7e9aed191ce05f5deabfa2da92cd"
        "afc32e1e4e6fb9ac01c5e20198c5cc68"),
    "obs-faults": (
        "fb13a6efee1d570ab2b48f55564a3add"
        "0c2068b9b4c836a14e1dc069f1fdbc1c"),
    "record-replay": (
        "eebb48e669ac23d27c4c5e6a06ce1131"
        "87464781a4ee8a898caf5b97f5260ed8"),
}


class TestPinnedOutput:
    """Simulator commands print exactly what they printed when pinned."""

    @pytest.mark.parametrize("case", sorted(_PINNED_CASES))
    def test_output_is_pinned(self, case, capsys, tmp_path):
        commands, artifacts = _PINNED_CASES[case]
        digest = hashlib.sha256()
        for command in commands:
            argv = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
            assert main(argv) == 0
            out = capsys.readouterr().out.replace(str(tmp_path), "<tmp>")
            digest.update(out.encode())
        for name in artifacts:
            digest.update((tmp_path / name).read_bytes())
        assert digest.hexdigest() == _PINNED_SHA256[case]
