"""Lint analyzer speed: cold vs warm full-tree analysis.

The whole-program phase (CG010–CG013) re-runs every time — it is cheap
graph work — but the per-file phase dominates a cold run: read, parse,
per-file rules, and module summarisation for ~100 files.  The
content-hash cache makes a warm run skip all of that for unchanged
files, so the invariant this bench *asserts* (not just reports) is the
incremental contract: a warm run re-parses nothing — with the effect
system (CG015–CG017), the shard certification (CG020–CG022), and the
``effects.json``/``shardplan.json`` exports enabled, which run entirely
from cached summaries — and after touching one module only that module
is re-analyzed while project findings are still recomputed from the
full summary set.  The shard plan additionally has a project-level
memo keyed on the summary content hashes: a fully warm run serves the
byte-identical certificate without re-deriving the call graph.
"""

import shutil
import time
from pathlib import Path

from benchmarks.conftest import print_block
from repro.analysis.report import format_table
from repro.lint import (
    LintCache,
    all_project_rules,
    all_rules,
    cache_signature,
    lint_paths,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _timed_lint(tree, cache):
    t0 = time.perf_counter()
    result = lint_paths([tree], cache=cache, effects=True, shard_plan=True)
    return result, time.perf_counter() - t0


def test_lint_cold_vs_warm(tmp_path):
    tree = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src", tree,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_file = tmp_path / "lint_cache.json"
    signature = cache_signature(all_rules(), all_project_rules())

    cold_cache = LintCache.load(cache_file, signature)
    cold, cold_s = _timed_lint(tree, cold_cache)
    cold_cache.save()
    assert cold.ok, [f.format() for f in cold.findings]
    assert cold.files_reparsed == cold.files_checked

    t0 = time.perf_counter()
    warm_cache = LintCache.load(cache_file, signature)
    load_s = time.perf_counter() - t0
    warm, warm_s = _timed_lint(tree, warm_cache)
    warm_cache.save()
    assert warm.ok
    # The incremental contract: a warm run re-parses nothing, and the
    # effects phase — inference + rendered effects.json — is recomputed
    # from cached summaries to byte-identical output.
    assert warm.files_reparsed == 0
    assert warm.files_checked == cold.files_checked
    assert cold.effects is not None and warm.effects is not None
    assert warm.effects == cold.effects
    # Shard-plan memo: the cold run derived the certificate and stored
    # it keyed on the summary content hashes; the warm run must serve
    # byte-identical text from the cache with zero re-parses.
    assert cold.shard_plan is not None and warm.shard_plan is not None
    assert not cold.shard_plan_from_cache
    assert warm.shard_plan_from_cache
    assert warm.shard_plan == cold.shard_plan

    # Touch one module: only it may be re-analyzed.  (Project findings
    # are recomputed from summaries either way, so cross-module rules
    # stay sound without re-parsing reverse dependencies.)
    touched = tree / "repro" / "serve" / "slo.py"
    touched.write_text(touched.read_text() + "\n# touched by bench\n")
    touch_cache = LintCache.load(cache_file, signature)
    touch, touch_s = _timed_lint(tree, touch_cache)
    assert touch.ok
    assert touch.files_reparsed == 1
    # The touched tree is a different summary set, so the shard-plan
    # memo must miss and the certificate be re-derived (a trailing
    # comment changes no summary facts, so the bytes still match).
    assert not touch.shard_plan_from_cache
    assert touch.shard_plan == cold.shard_plan

    rows = [
        ["cold (empty cache)", cold.files_checked, cold.files_reparsed,
         f"{cold_s * 1000:.0f}"],
        ["warm (no changes)", warm.files_checked, warm.files_reparsed,
         f"{warm_s * 1000:.0f}"],
        ["warm (1 file touched)", touch.files_checked, touch.files_reparsed,
         f"{touch_s * 1000:.0f}"],
    ]
    print_block(
        format_table(
            ["run", "files checked", "files re-parsed", "wall (ms)"],
            rows,
            title="repro.lint: cold vs warm full-tree analysis",
        )
        + f"\nwarm speedup on per-file phase: {cold_s / max(warm_s, 1e-9):.1f}x"
        + f"\nwarm LintCache.load: {load_s * 1000:.1f} ms "
          f"({len(warm_cache.entries)} entries)"
    )
