"""Shared utilities: seeded randomness, validation, time series, logging.

Everything in :mod:`repro` that needs randomness takes either an integer
seed or a :class:`numpy.random.Generator`; :func:`repro.util.rng.as_rng`
normalises the two.  All experiments in the benchmark suite are therefore
reproducible bit-for-bit.
"""

from repro.util.effects import declared_effects, effects, is_hot_path
from repro.util.rng import as_rng, spawn_rngs
from repro.util.validation import (
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
)
from repro.util.timeseries import ResourceSeries

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
