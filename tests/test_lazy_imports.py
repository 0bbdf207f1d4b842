"""Lazy package roots: every package resolves its public names on use.

Each package ``__init__`` under :mod:`repro` keeps a literal ``__all__``
and binds PEP 562 ``__getattr__``/``__dir__`` from one
``{name: defining module}`` table.  Importing a package therefore loads
nothing else, so the linter and the CLI's parser start without numpy or
the simulator, while ``from repro import GameProfile`` and
``from pkg import *`` keep working.
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
