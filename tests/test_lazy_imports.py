"""Lazy package roots: every package resolves its public names on use.

Each package ``__init__`` under :mod:`repro` keeps a literal ``__all__``
and binds PEP 562 ``__getattr__``/``__dir__`` from one
``{name: defining module}`` table.  Importing a package therefore loads
nothing else, so the linter and the CLI's parser start without numpy or
the simulator, while ``from repro import GameProfile`` and
``from pkg import *`` keep working.

Below the package roots, a module imports at load time only what it
executes: a name used only in annotations is imported under
``TYPE_CHECKING``, and an optional subsystem (gateway, capacity plane,
recorder, fault injector, the RF/GBDT backends, the non-CoCG baselines)
where it is built.  A plain fleet run then never loads them.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)
HEAVY = ("numpy", "repro.core")
#: The fork seam and the stdlib modules only it needs.
SEAM = ("repro.util.partition", "pickle", "signal", "traceback")
#: Every module of the observability package.  No layer of a run holds
#: an observer (the metrics and spans are read after the run), so a run
#: without a gateway loads none of them, not even the naming table.
OBS = ("repro.obs", *sorted(
    f"repro.obs.{info.name}"
    for info in pkgutil.iter_modules(importlib.import_module("repro.obs").__path__)
))
#: Modules no function of a plain fleet run executes: no gateway,
#: record, fault plan, observer or warm pool, CoCG with the DTC backend.
OPTIONAL = (
    "repro.cluster.provisioner",
    "repro.serve.gateway", "repro.serve.batching", "repro.serve.slo",
    "repro.faults.plan", "repro.faults.injector",
    "repro.trace.recorder", "repro.trace.format", "repro.trace.events",
    "repro.trace.players",
    *OBS,
    "repro.mlkit.forest", "repro.mlkit.gbdt", "repro.mlkit.regression_tree",
    "repro.mlkit.model_selection",
    "repro.baselines.reactive", "repro.baselines.gaugur",
    "repro.baselines.vbp", "repro.baselines.maxstatic",
    "repro.platform_.interference",
    "repro.streaming.encoder",
)
#: A short fleet-n4-shaped run: 4 regions x 2 nodes, gateway off, every
#: shard run in this process so none of its imports hides in a fork.
FLEET_N4_RUN = """
from repro.fleet import FleetOfFleets, RegionSpec
from repro.trace.harness import RunConfig

config = RunConfig(games=("contra", "dota2"), nodes=2, horizon=60,
                   rate_per_minute=6.0, players=2, sessions=2,
                   gateway=False, seed=11)
fleet = FleetOfFleets(config, [RegionSpec(f"r{i}") for i in range(4)])
shards = fleet.build_shards()
result = fleet.merge({name: shards[name].run() for name in sorted(shards)})
assert len(result.regions) == 4
"""


def loaded_after(code: str, modules: tuple = HEAVY) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    probe = code + (
        "\nimport json, sys\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_subpackage_is_covered():
    assert len(PACKAGES) == 18


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.lint.engine",
    "import repro.faults, repro.fleet, repro.serve, repro.trace",
])
def test_import_loads_neither_numpy_nor_core(code):
    assert loaded_after(code) == []


def test_lint_engine_import_leaves_the_fork_seam_unloaded():
    # lint_paths imports the seam only when two or more files need
    # analysing, so importing the engine pays nothing for it.
    assert loaded_after("import repro.lint.engine", SEAM) == []


def test_lint_of_one_file_leaves_the_fork_seam_unloaded():
    code = (
        "from repro.lint.engine import lint_paths\n"
        f"lint_paths([{str(SRC / 'repro' / 'util' / 'rng.py')!r}])\n"
    )
    assert loaded_after(code, SEAM) == []


def test_sim_binds_the_fork_seam_eagerly_without_numpy():
    code = (
        "import repro.sim\n"
        "assert 'run_partitioned' in vars(repro.sim)\n"
        "assert 'ShardError' in vars(repro.sim)\n"
    )
    assert loaded_after(code) == []


@pytest.mark.parametrize("argv", [["--help"], ["lint", "--list-rules"]])
def test_cli_parser_and_lint_load_neither_numpy_nor_core(argv):
    code = (
        "from repro.cli import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert loaded_after(code) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listing = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listing


def test_resolved_names_are_the_defining_modules_objects():
    from repro.core.pipeline import GameProfile

    assert repro.GameProfile is GameProfile
    assert repro.core.GameProfile is GameProfile
    assert "GameProfile" in vars(repro)  # cached after the first access
    # The one name shared with a submodule is the decorator, not the module.
    from repro.util.effects import effects

    assert repro.util.effects is effects


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["GameProfile"] is repro.GameProfile


@pytest.mark.parametrize("name", ["repro", "repro.core", "repro.util"])
def test_unknown_name_raises_attribute_error_naming_the_module(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'bogus'"):
        _ = package.bogus
    assert not hasattr(package, "bogus")


def test_plain_fleet_run_loads_no_optional_subsystem():
    assert loaded_after(FLEET_N4_RUN, OPTIONAL) == []


def test_a_run_that_builds_the_optional_subsystems_loads_them():
    # The positive control: the guard above passes because the plain
    # run skips these modules, not because the probe cannot see them.
    code = (
        "from repro.faults.plan import FaultPlan\n"
        "from repro.trace.harness import RunConfig, record_run\n"
        "config = RunConfig(games=('contra',), nodes=2, horizon=60,\n"
        "                   players=2, sessions=2, gateway=True, seed=11)\n"
        "plan = FaultPlan(seed=3).node_crash(10.0, 'node-0', "
        "recover_after=20.0)\n"
        "record_run(config, plan=plan)\n"
    )
    used = ("repro.serve.gateway", "repro.trace.recorder",
            "repro.faults.injector")
    assert loaded_after(code, used) == list(used)


#: CLI strategy name -> class name in :mod:`repro.baselines`.
STRATEGY_CLASSES = {
    "cocg": "CoCGStrategy",
    "reactive": "ReactiveStrategy",
    "gaugur": "GAugurStrategy",
    "vbp": "VBPStrategy",
    "max-static": "MaxStaticStrategy",
}


@pytest.mark.parametrize("name", list(STRATEGY_CLASSES))
def test_make_strategy_returns_a_fresh_instance_of_the_named_class(name):
    from repro.trace.harness import make_strategy

    cls = getattr(importlib.import_module("repro.baselines"),
                  STRATEGY_CLASSES[name])
    first, second = make_strategy(name), make_strategy(name)
    assert type(first) is cls and type(second) is cls
    assert first is not second


def test_strategy_names_keep_their_order():
    from repro.cli import _strategy_names
    from repro.trace.harness import STRATEGIES

    assert STRATEGIES == STRATEGY_CLASSES
    assert _strategy_names() == tuple(STRATEGY_CLASSES)


def test_unknown_strategy_is_rejected_naming_every_strategy():
    from repro.trace.harness import RunConfig, make_strategy

    for build in (lambda: make_strategy("bogus"),
                  lambda: RunConfig(games=("contra",), strategy="bogus")):
        with pytest.raises(ValueError) as raised:
            build()
        for name in STRATEGY_CLASSES:
            assert repr(name) in str(raised.value)
