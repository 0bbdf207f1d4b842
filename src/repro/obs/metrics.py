"""The metrics registry: labeled counters, gauges, fixed-bucket histograms.

Design rules, all in service of *deterministic* observability (same seed
⇒ byte-identical ``metrics.prom``):

* metrics are registered once by canonical name
  (:mod:`repro.obs.naming`); re-registering the same name with the same
  kind/labels returns the existing family, a conflicting signature
  raises — so two readers can share one fleet-wide counter without
  coordinating order;
* samples are stamped with the **simulation time** their update passes
  (``time=``; a sample updated without one is unstamped) — never wall
  clock;
* histogram buckets are fixed at registration, never data-derived;
* iteration everywhere is sorted (families by name, children by label
  values), so exports cannot inherit insertion order.

Only :mod:`repro.obs` builds a registry: the reader fills one from a
finished run's plain records, and the exporters print it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.naming import check_label_name, check_metric_name

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class MetricError(ValueError):
    """Raised on metric misuse: re-registration with a different
    signature, unknown/missing labels, or a decreasing counter."""


LabelValues = Tuple[str, ...]


class _Child:
    """One labeled sample of a counter or gauge."""

    __slots__ = ("value", "time")

    def __init__(self) -> None:
        self.value = 0.0
        self.time: Optional[float] = None

    def inc(self, amount: float = 1.0, *, time: Optional[float] = None) -> None:
        """Add ``amount`` (must be ≥ 0 for counters; checked by caller)."""
        self.value += amount
        self.time = time

    def set(self, value: float, *, time: Optional[float] = None) -> None:
        """Overwrite the sample (gauges only; counters hide this)."""
        self.value = float(value)
        self.time = time


class _HistogramChild:
    """One labeled histogram: fixed-bucket counts, sum and count."""

    __slots__ = ("counts", "sum", "count", "time", "_bounds")

    def __init__(self, bounds: Tuple[float, ...]):
        self._bounds = bounds  # ascending, +inf last
        self.counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0
        self.time: Optional[float] = None

    def observe(self, value: float, *, time: Optional[float] = None) -> None:
        """Record one observation into its (first fitting) bucket."""
        self.observe_all([value], time=time)

    def observe_all(
        self, values: List[float], *, time: Optional[float] = None
    ) -> None:
        """Record ``values`` (none NaN) in order, each into its first
        fitting bucket; the sum adds them left to right."""
        if not values:
            return
        ordered = sorted(values)
        below = 0
        for i, bound in enumerate(self._bounds):
            upto = bisect_right(ordered, bound)
            self.counts[i] += upto - below
            below = upto
        self.sum = reduce(add, values, self.sum)
        self.count += len(values)
        self.time = time

    def cumulative(self) -> List[int]:
        """Prometheus-style cumulative bucket counts (``le`` semantics)."""
        out: List[int] = []
        acc = 0
        for c in self.counts:
            acc += c
            out.append(acc)
        return out


class _Family:
    """Common machinery: label handling and sorted child iteration."""

    kind = ""

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]):
        self.name = check_metric_name(name)
        self.help = help
        self.labelnames = tuple(check_label_name(n) for n in labelnames)
        self._children: Dict[LabelValues, object] = {}

    def _make_child(self) -> object:
        raise NotImplementedError

    def labels(self, **labelvalues: str):
        """The child for one label-value combination (created on first
        use, cached after — hold the child on hot paths)."""
        if set(labelvalues) != set(self.labelnames):
            raise MetricError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _default_child(self):
        """The single unlabeled child (for label-less families)."""
        if self.labelnames:
            raise MetricError(
                f"{self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def samples(self) -> Iterator[Tuple[LabelValues, object]]:
        """Children in sorted label order (deterministic export)."""
        for key in sorted(self._children):
            yield key, self._children[key]

    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        """What must match on re-registration."""
        return (self.kind, self.labelnames)


class Counter(_Family):
    """A monotonically increasing count (``*_total``)."""

    kind = "counter"

    def _make_child(self) -> _Child:
        return _Child()

    def inc(self, amount: float = 1.0, *, time: Optional[float] = None) -> None:
        """Increment the (unlabeled) counter by ``amount`` ≥ 0."""
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up, got {amount}")
        self._default_child().inc(amount, time=time)

    @property
    def value(self) -> float:
        """Value of the unlabeled counter (0 before the first inc)."""
        if self.labelnames:
            raise MetricError(f"{self.name} is labeled; read .labels(...).value")
        child = self._children.get(())
        return child.value if child is not None else 0.0


class Gauge(_Family):
    """A value that can go up and down (depths, sizes, temperatures)."""

    kind = "gauge"

    def _make_child(self) -> _Child:
        return _Child()

    def set(self, value: float, *, time: Optional[float] = None) -> None:
        """Set the (unlabeled) gauge."""
        self._default_child().set(value, time=time)

    @property
    def value(self) -> float:
        """Value of the unlabeled gauge (0 before the first set)."""
        if self.labelnames:
            raise MetricError(f"{self.name} is labeled; read .labels(...).value")
        child = self._children.get(())
        return child.value if child is not None else 0.0


class Histogram(_Family):
    """Fixed-bucket distribution (waits, durations, sizes).

    ``buckets`` are the finite upper bounds, ascending; ``+Inf`` is
    appended automatically.  Buckets are part of the registration
    signature: re-registering with different buckets raises.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Sequence[float],
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"{name}: a histogram needs >= 1 bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"{name}: buckets must be strictly ascending")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]
        self.buckets: Tuple[float, ...] = bounds + (math.inf,)
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, *, time: Optional[float] = None) -> None:
        """Record one observation on the unlabeled histogram."""
        self._default_child().observe(value, time=time)

    def signature(self) -> Tuple[str, Tuple[str, ...]]:
        return (f"histogram{self.buckets}", self.labelnames)


class MetricsRegistry:
    """The process-wide (well: observer-wide) metric namespace.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call registers the family, later calls with the same signature
    return it, a conflicting signature raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, signature) -> _Family:
        existing = self._families.get(name)
        if existing is not None:
            if existing.signature() != signature:
                raise MetricError(
                    f"{name} is already registered as {existing.signature()}, "
                    f"requested {signature}"
                )
            return existing
        family = factory()
        self._families[name] = family
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        names = tuple(labelnames)
        return self._get_or_create(  # type: ignore[return-value]
            name,
            lambda: Counter(name, help, names),
            ("counter", names),
        )

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        names = tuple(labelnames)
        return self._get_or_create(  # type: ignore[return-value]
            name,
            lambda: Gauge(name, help, names),
            ("gauge", names),
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float],
    ) -> Histogram:
        """Register (or fetch) a fixed-bucket histogram family."""
        names = tuple(labelnames)
        bounds = tuple(float(b) for b in buckets)
        probe = Histogram(name, help, names, bounds)
        return self._get_or_create(  # type: ignore[return-value]
            name, lambda: probe, probe.signature()
        )

    # ------------------------------------------------------------------
    def families(self) -> List[_Family]:
        """Registered families, sorted by name (deterministic export)."""
        return [self._families[n] for n in sorted(self._families)]

    def get(self, name: str) -> Optional[_Family]:
        """Look one family up by canonical name (``None`` if absent)."""
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)
