"""The multi-dimensional resource vector.

Everything in the library — demand samples, allocations, capacities,
telemetry frames — is expressed over the same four dimensions the paper
measures (CPU utilisation via cgroups; GPU and GPU-memory utilisation via
GPU-Z; plus host RAM):

===========  =====================================================
dimension    meaning
===========  =====================================================
``cpu``      host CPU utilisation, percent of the machine (0–100)
``gpu``      GPU-core utilisation of the hosting GPU (0–100)
``gpu_mem``  GPU-memory utilisation of the hosting GPU (0–100)
``ram``      host RAM utilisation, percent of the machine (0–100)
===========  =====================================================

:class:`ResourceVector` is an immutable value type backed by a plain
4-tuple of Python floats.  The simulator samples and compares these
vectors once per session per simulated second, where numpy's per-call
overhead on 4-element arrays dominated; per-second consumers read the
floats through :attr:`ResourceVector.values`.  Numpy appears only at
matrix boundaries (telemetry series, profiling, ``mlkit``), where
:attr:`ResourceVector.array` builds a read-only ``(4,)`` array on demand.

Every operation reproduces the numpy expression it replaced bit for
bit: float64 ``+ - * /`` are the same IEEE operations in Python, and
element-wise max/min/clip follow numpy's tie rule on signed zeros
(``np.maximum(a, b)`` returns ``b`` when ``a == b``).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Tuple, Union

import numpy as np

__all__ = [
    "DIMENSIONS",
    "N_DIMS",
    "CPU",
    "GPU",
    "GPU_MEM",
    "RAM",
    "ResourceVector",
]

DIMENSIONS: tuple[str, ...] = ("cpu", "gpu", "gpu_mem", "ram")
N_DIMS: int = len(DIMENSIONS)
CPU, GPU, GPU_MEM, RAM = range(N_DIMS)

VectorLike = Union["ResourceVector", np.ndarray, Iterable[float], Mapping[str, float]]
Floats4 = Tuple[float, float, float, float]

#: ``np.allclose`` defaults, used by ``__eq__``.
_RTOL = 1e-05
_ATOL = 1e-08


def _wrap(values: Floats4) -> "ResourceVector":
    """A vector over an already-validated 4-tuple of floats."""
    out = object.__new__(ResourceVector)
    out._v = values
    return out


def _close(x: float, y: float) -> bool:
    """``np.isclose(x, y)`` with numpy's default tolerances."""
    return (abs(x - y) <= _ATOL + _RTOL * abs(y) and math.isfinite(y)) or x == y


def _round9(x: float) -> float:
    """``np.round(x, 9)``: scale, round half to even, unscale."""
    y = x * 1e9
    if y - y != 0.0:  # inf or nan pass through unchanged
        return y / 1e9
    return round(y) / 1e9


class ResourceVector:
    """An immutable point in resource space.

    Construct from keyword components, a mapping, an iterable of 4
    floats, or another vector::

        ResourceVector(cpu=35, gpu=60)           # unspecified dims are 0
        ResourceVector.from_array(np.array([35, 60, 40, 20]))

    Supports ``+``, ``-``, scalar ``*``/``/``, element-wise ``max``/
    ``min``, dominance comparison (:meth:`fits_within`), the raw float
    tuple (:attr:`values`) and conversion to an array (:attr:`array`).
    """

    __slots__ = ("_v",)

    _v: Floats4

    def __init__(self, *, cpu: float = 0.0, gpu: float = 0.0,
                 gpu_mem: float = 0.0, ram: float = 0.0):
        self._v = (float(cpu), float(gpu), float(gpu_mem), float(ram))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_array(values: Iterable[float]) -> "ResourceVector":
        """Build from any length-4 iterable/array."""
        if isinstance(values, np.ndarray):
            values = values.reshape(-1).tolist()
        floats = tuple(map(float, values))
        if len(floats) != N_DIMS:
            raise ValueError(f"expected {N_DIMS} components, got {len(floats)}")
        return _wrap(floats)

    @staticmethod
    def coerce(value: VectorLike) -> "ResourceVector":
        """Accept a vector, mapping, or iterable and return a vector."""
        if isinstance(value, ResourceVector):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - set(DIMENSIONS)
            if unknown:
                raise ValueError(f"unknown resource dimensions: {sorted(unknown)}")
            return ResourceVector(**{k: float(v) for k, v in value.items()})
        return ResourceVector.from_array(value)

    @staticmethod
    def zeros() -> "ResourceVector":
        """The origin."""
        return _ZERO

    @staticmethod
    def full(value: float) -> "ResourceVector":
        """All dimensions set to ``value`` (e.g. ``full(100)`` = capacity)."""
        v = float(value)
        return _wrap((v, v, v, v))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def values(self) -> Floats4:
        """The four components as a tuple of floats (hot paths)."""
        return self._v

    @property
    def array(self) -> np.ndarray:
        """A fresh read-only float64 array of shape ``(4,)``."""
        out = np.array(self._v)
        out.setflags(write=False)
        return out

    @property
    def cpu(self) -> float:
        """Host CPU component."""
        return self._v[CPU]

    @property
    def gpu(self) -> float:
        """GPU-core component."""
        return self._v[GPU]

    @property
    def gpu_mem(self) -> float:
        """GPU-memory component."""
        return self._v[GPU_MEM]

    @property
    def ram(self) -> float:
        """Host RAM component."""
        return self._v[RAM]

    def __getitem__(self, dim: Union[int, str]) -> float:
        if isinstance(dim, str):
            dim = DIMENSIONS.index(dim)
        return self._v[dim]

    def as_dict(self) -> dict[str, float]:
        """Mapping view ``{dimension: value}``."""
        return dict(zip(DIMENSIONS, self._v))

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: VectorLike) -> "ResourceVector":
        a0, a1, a2, a3 = self._v
        b0, b1, b2, b3 = ResourceVector.coerce(other)._v
        return _wrap((a0 + b0, a1 + b1, a2 + b2, a3 + b3))

    def __sub__(self, other: VectorLike) -> "ResourceVector":
        a0, a1, a2, a3 = self._v
        b0, b1, b2, b3 = ResourceVector.coerce(other)._v
        return _wrap((a0 - b0, a1 - b1, a2 - b2, a3 - b3))

    def __mul__(self, scalar: float) -> "ResourceVector":
        s = float(scalar)
        a0, a1, a2, a3 = self._v
        return _wrap((a0 * s, a1 * s, a2 * s, a3 * s))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "ResourceVector":
        s = float(scalar)
        a0, a1, a2, a3 = self._v
        return _wrap((a0 / s, a1 / s, a2 / s, a3 / s))

    def maximum(self, other: VectorLike) -> "ResourceVector":
        """Element-wise max (the 'peak' combinator)."""
        a0, a1, a2, a3 = self._v
        b0, b1, b2, b3 = ResourceVector.coerce(other)._v
        return _wrap((
            a0 if a0 > b0 else b0,
            a1 if a1 > b1 else b1,
            a2 if a2 > b2 else b2,
            a3 if a3 > b3 else b3,
        ))

    def minimum(self, other: VectorLike) -> "ResourceVector":
        """Element-wise min."""
        a0, a1, a2, a3 = self._v
        b0, b1, b2, b3 = ResourceVector.coerce(other)._v
        return _wrap((
            a0 if a0 < b0 else b0,
            a1 if a1 < b1 else b1,
            a2 if a2 < b2 else b2,
            a3 if a3 < b3 else b3,
        ))

    def clip(self, lo: float = 0.0, hi: float = np.inf) -> "ResourceVector":
        """Clamp every component into ``[lo, hi]``."""
        lo = float(lo)
        hi = float(hi)
        a0, a1, a2, a3 = self._v
        a0 = lo if a0 < lo else a0
        a1 = lo if a1 < lo else a1
        a2 = lo if a2 < lo else a2
        a3 = lo if a3 < lo else a3
        return _wrap((
            hi if a0 > hi else a0,
            hi if a1 > hi else a1,
            hi if a2 > hi else a2,
            hi if a3 > hi else a3,
        ))

    def scale(self, factors: VectorLike) -> "ResourceVector":
        """Element-wise multiply (platform heterogeneity scaling)."""
        a0, a1, a2, a3 = self._v
        f0, f1, f2, f3 = ResourceVector.coerce(factors)._v
        return _wrap((a0 * f0, a1 * f1, a2 * f2, a3 * f3))

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def fits_within(self, capacity: VectorLike, *, slack: float = 1e-9) -> bool:
        """True when every component is ≤ the capacity's (dominance)."""
        a0, a1, a2, a3 = self._v
        c0, c1, c2, c3 = ResourceVector.coerce(capacity)._v
        return (
            a0 <= c0 + slack and a1 <= c1 + slack
            and a2 <= c2 + slack and a3 <= c3 + slack
        )

    def dominates(self, other: VectorLike, *, slack: float = 1e-9) -> bool:
        """True when every component is ≥ the other's."""
        a0, a1, a2, a3 = self._v
        o0, o1, o2, o3 = ResourceVector.coerce(other)._v
        return (
            a0 + slack >= o0 and a1 + slack >= o1
            and a2 + slack >= o2 and a3 + slack >= o3
        )

    def is_nonnegative(self) -> bool:
        """True when no component is negative."""
        a0, a1, a2, a3 = self._v
        return a0 >= -1e-9 and a1 >= -1e-9 and a2 >= -1e-9 and a3 >= -1e-9

    def max_component(self) -> float:
        """Largest component (the binding dimension under uniform caps)."""
        a0, a1, a2, a3 = self._v
        m = a0 if a0 > a1 else a1
        m = m if m > a2 else a2
        return m if m > a3 else a3

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return all(map(_close, self._v, other._v))

    def __hash__(self) -> int:
        return hash(tuple(map(_round9, self._v)))

    def __repr__(self) -> str:
        return _REPR.format(*self._v)


_ZERO = ResourceVector()
#: ``ResourceVector(cpu=…, gpu=…, gpu_mem=…, ram=…)`` at one decimal.
_REPR = "ResourceVector(" + ", ".join(f"{d}={{:.1f}}" for d in DIMENSIONS) + ")"
