"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs at a tiny size, so the whole file takes well under a
minute.  The wrong-pin cases run at full size, because the pinned
references apply only there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer, patched, resolve  # noqa: E402
from workloads import SRC, WORKLOADS, Pins, PumpProbe, Size  # noqa: E402

sys.path.insert(0, str(SRC))

TINY = Size(launch_day_horizon=60, fleet_horizon=60,
            lint_paths=("src/repro/util",))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _quiet(_line: str) -> None:
    pass


def _targets():
    """Every (owner, attr) a traced run patches, with its current value."""
    pairs = [resolve(PumpProbe.TARGET)]
    for layer in run.LAYERS:
        pairs += layer.resolve()
    return {(id(o), a): (o, a, vars(o)[a]) for o, a in pairs if o is not None}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = run.benchmark(workload, 11, 0, trace, size=TINY, log=_quiet)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_layers_read_zero_where_they_do_no_work():
    fleet = run.benchmark("fleet-n4", 11, 0, True, size=TINY, log=_quiet)
    launch = run.benchmark("launch-day", 11, 0, True, size=TINY, log=_quiet)
    lint = run.benchmark("lint-tree", 11, 0, True, size=TINY, log=_quiet)

    def calls(result, prefix):
        return sum(
            m["value"] for name, m in result["metrics"].items()
            if name.startswith(prefix) and name.endswith(".calls")
        )

    assert calls(fleet, "serve.") == 0 and calls(fleet, "trace.") == 0
    assert calls(launch, "fleet.") == 0
    assert calls(launch, "serve.") > 0 and calls(fleet, "fleet.") > 0
    for prefix in ("platform_.", "games.", "core.", "sim.", "cluster."):
        assert calls(lint, prefix) == 0
    assert calls(lint, "lint.") > 0


@pytest.mark.parametrize("workload, pins", [
    ("fleet-n4", Pins(fleet_n4_digest="0" * 64)),
    ("launch-day", Pins(launch_day_trace=HERE / "README.md")),
    ("lint-tree", Pins(shard_plan=HERE / "README.md")),
])
def test_a_wrong_pin_is_a_counted_failure(workload, pins):
    result = run.benchmark(workload, 11, 0, False, pins=pins, log=_quiet)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_a_non_canonical_seed_skips_the_pins():
    pins = Pins(fleet_n4_digest="0" * 64)
    result = run.benchmark("fleet-n4", 12, 0, False, size=TINY, pins=pins,
                           log=_quiet)
    assert result["correct"] is True


def test_traced_run_restores_every_wrapped_attribute():
    before = _targets()
    assert len(before) > len(run.LAYERS)
    run.benchmark("launch-day", 11, 0, True, size=TINY, log=_quiet)
    run.benchmark("fleet-n4", 11, 0, True, size=TINY, log=_quiet)
    assert {k: v[2] for k, v in _targets().items()} == {
        k: v[2] for k, v in before.items()
    }


def test_an_exception_inside_a_traced_run_is_counted_and_unwound():
    before = _targets()
    broken = Size(lint_paths=("no-such-dir",))
    result = run.benchmark("lint-tree", 11, 0, True, size=broken, log=_quiet)
    assert result["correct"] is False and result["failed"] >= 1
    assert {k: v[2] for k, v in _targets().items()} == {
        k: v[2] for k, v in before.items()
    }


def test_self_times_add_up_to_the_root():
    class Owner:
        @staticmethod
        def leaf(x):
            return x

        @classmethod
        def middle(cls, x):
            return cls.leaf(x) + cls.leaf(x)

    tracer = Tracer()
    hooks = [(Owner, "leaf", tracer.wrap("leaf", lambda r: r > 1)),
             (Owner, "middle", tracer.wrap("middle"))]
    with patched(hooks), tracer.span("run"):
        assert Owner.middle(2) == 4
    assert isinstance(vars(Owner)["leaf"], staticmethod)
    assert isinstance(vars(Owner)["middle"], classmethod)
    layers, roots = tracer.summary()
    assert layers["run"]["leaf"]["calls"] == 2
    assert tracer.flagged["leaf"] == 2
    total = sum(entry["self_s"] for entry in layers["run"].values())
    assert total == pytest.approx(roots["run"], rel=1e-9, abs=1e-12)
