"""CoCG: fine-grained cloud-game co-location on heterogeneous platforms.

A faithful, self-contained reproduction of *"CoCG: Fine-grained Cloud
Game Co-location on Heterogeneous Platform"* (Wang et al., IPDPS 2024):
the frame-grained game profiler, the ML-based stage predictor, and the
complementary resource scheduler — plus every substrate they need
(synthetic cloud-game workloads, a heterogeneous server/QoS model, a
GamingAnywhere-style streaming pipeline, an ML toolkit, and the
baselines the paper compares against).

Quickstart::

    from repro import build_catalog, GameProfile, CoCGStrategy, ColocationExperiment

    catalog = build_catalog()
    profiles = {name: GameProfile.build(spec, seed=0)
                for name, spec in catalog.items()
                if name in ("genshin", "contra")}
    result = ColocationExperiment(profiles, CoCGStrategy(),
                                  horizon=3600, seed=0).run()
    print(result.throughput, result.completed_runs)

Every package resolves its public names lazily (PEP 562): importing
:mod:`repro` or a subpackage imports none of its modules until one of
its names is first used, so ``python -m repro.lint`` never imports the
simulator or numpy.

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-versus-measured record of every table and figure.
"""

import importlib
from typing import Any, Callable, Dict, List, MutableMapping, Tuple

__version__ = "1.0.0"

__all__ = [
    "build_catalog",
    "GameSession",
    "generate_trace",
    "generate_corpus",
    "FrameGrainedProfiler",
    "ProfilerConfig",
    "StagePredictor",
    "GameProfile",
    "CoCGScheduler",
    "CoCGConfig",
    "CoCGStrategy",
    "ReactiveStrategy",
    "GAugurStrategy",
    "VBPStrategy",
    "MaxStaticStrategy",
    "Server",
    "GPUDevice",
    "Allocator",
    "ColocationExperiment",
    "ExperimentResult",
    "__version__",
]


def _lazy_exports(
    namespace: MutableMapping[str, Any], table: Dict[str, str],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package's ``globals()``.

    ``table`` maps each public name to the module defining it, relative
    to the package (``".pipeline"``) or absolute.  The first access
    imports that module and caches the object in ``namespace``, so later
    lookups never reach ``__getattr__`` and the package attribute is the
    defining module's object.  Lint rule CG004 reads ``table`` as the
    package's module-level names.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(table[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "GameProfile": ".core.pipeline",
    "FrameGrainedProfiler": ".core.profiler",
    "ProfilerConfig": ".core.profiler",
    "StagePredictor": ".core.predictor",
    "CoCGConfig": ".core.scheduler",
    "CoCGScheduler": ".core.scheduler",
    "build_catalog": ".games.catalog",
    "GameSession": ".games.session",
    "generate_corpus": ".games.tracegen",
    "generate_trace": ".games.tracegen",
    "CoCGStrategy": ".baselines.cocg",
    "GAugurStrategy": ".baselines.gaugur",
    "MaxStaticStrategy": ".baselines.maxstatic",
    "ReactiveStrategy": ".baselines.reactive",
    "VBPStrategy": ".baselines.vbp",
    "Allocator": ".platform_.allocator",
    "GPUDevice": ".platform_.server",
    "Server": ".platform_.server",
    "ColocationExperiment": ".cluster.experiment",
    "ExperimentResult": ".cluster.experiment",
})
