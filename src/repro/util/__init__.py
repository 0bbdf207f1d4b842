"""Shared utilities: seeded randomness, validation, time series, logging.

Everything in :mod:`repro` that needs randomness takes either an integer
seed or a :class:`numpy.random.Generator`; :func:`repro.util.rng.as_rng`
normalises the two.  All experiments in the benchmark suite are therefore
reproducible bit-for-bit.
"""

from repro import _lazy_exports
# ``effects`` names both a submodule and the decorator it defines.  The
# first import of the submodule binds the module over the package
# attribute, which a lazy name would never override, so the decorator is
# bound eagerly (the module imports only ``typing``).
from repro.util.effects import effects

__all__ = [
    "as_rng",
    "spawn_rngs",
    "effects",
    "declared_effects",
    "is_hot_path",
    "check_fraction",
    "check_in",
    "check_nonnegative",
    "check_positive",
    "ResourceSeries",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "declared_effects": ".effects",
    "is_hot_path": ".effects",
    "as_rng": ".rng",
    "spawn_rngs": ".rng",
    "check_fraction": ".validation",
    "check_in": ".validation",
    "check_nonnegative": ".validation",
    "check_positive": ".validation",
    "ResourceSeries": ".timeseries",
})
