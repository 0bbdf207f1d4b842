"""Argument-validation helpers.

Small, dependency-free checks used at public API boundaries.  They raise
``ValueError``/``TypeError`` with messages that name the offending
argument, which keeps the individual modules terse.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_fraction",
    "check_in",
    "check_array_1d",
    "check_array_2d",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Require ``value`` in ``[0, 1]`` (or ``(0, 1)`` when not inclusive)."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not (0.0 <= value <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Require ``value`` to be a member of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_array_1d(name: str, array: Any, dtype=None) -> np.ndarray:
    """Convert to a 1-D ndarray, rejecting higher-rank input."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_array_2d(name: str, array: Any, dtype=None) -> np.ndarray:
    """Convert to a 2-D ndarray, rejecting other ranks."""
    out = np.asarray(array, dtype=dtype)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    return out
