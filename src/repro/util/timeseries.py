"""Named, NumPy-backed resource time series.

The simulator, the profiler and the benchmarks all exchange resource
telemetry as a :class:`ResourceSeries`: a ``(T, D)`` float array with a
start time, a fixed sampling period, and named columns (one per resource
dimension).  The class is a thin, copy-free wrapper — heavy computation
happens on the underlying array, per the HPC guide (views, not copies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.util.validation import check_array_2d, check_positive

__all__ = ["ResourceSeries"]


@dataclass
class ResourceSeries:
    """A uniformly sampled multi-dimensional resource usage series.

    Parameters
    ----------
    values:
        Array of shape ``(T, D)``; row ``t`` holds the usage sampled over
        ``[start + t*period, start + (t+1)*period)``.
    columns:
        ``D`` column names, e.g. ``("cpu", "gpu", "gpu_mem", "ram")``.
    period:
        Sampling period in seconds (default 1.0).
    start:
        Timestamp of the first sample in seconds (default 0.0).
    """

    values: np.ndarray
    columns: Tuple[str, ...]
    period: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        self.values = check_array_2d("values", self.values, dtype=float)
        self.columns = tuple(self.columns)
        if len(self.columns) != self.values.shape[1]:
            raise ValueError(
                f"columns has {len(self.columns)} names but values has "
                f"{self.values.shape[1]} columns"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names: {self.columns}")
        check_positive("period", self.period)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        """Number of rows ``T``."""
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        """Number of resource dimensions ``D``."""
        return self.values.shape[1]

    @property
    def duration(self) -> float:
        """Covered wall time in seconds."""
        return self.n_samples * self.period

    @property
    def times(self) -> np.ndarray:
        """Sample start timestamps, shape ``(T,)``."""
        return self.start + self.period * np.arange(self.n_samples)

    def column(self, name: str) -> np.ndarray:
        """Return a *view* of one named column."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None
        return self.values[:, idx]

    def column_index(self, name: str) -> int:
        """Index of a named column."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def slice_time(self, t0: float, t1: float) -> "ResourceSeries":
        """Rows whose sample window starts in ``[t0, t1)`` (a view)."""
        if t1 < t0:
            raise ValueError(f"empty interval: t0={t0} > t1={t1}")
        lo = int(np.ceil(max(t0 - self.start, 0.0) / self.period - 1e-9))
        hi = int(np.ceil(max(t1 - self.start, 0.0) / self.period - 1e-9))
        lo = min(max(lo, 0), self.n_samples)
        hi = min(max(hi, lo), self.n_samples)
        return ResourceSeries(
            self.values[lo:hi],
            self.columns,
            period=self.period,
            start=self.start + lo * self.period,
        )

    def resample(self, period: float, reduce: str = "mean") -> "ResourceSeries":
        """Aggregate into coarser windows of ``period`` seconds.

        ``period`` must be an integer multiple of the current period.  A
        trailing partial window is dropped (matching the paper's 5-second
        frame slicing, which only considers complete frames).

        Parameters
        ----------
        period:
            New sampling period.
        reduce:
            ``"mean"`` or ``"max"`` aggregation within each window.
        """
        check_positive("period", period)
        ratio = period / self.period
        k = int(round(ratio))
        if k < 1 or abs(ratio - k) > 1e-9:
            raise ValueError(
                f"period {period} is not an integer multiple of {self.period}"
            )
        if k == 1:
            return ResourceSeries(self.values, self.columns, period=period, start=self.start)
        n_windows = self.n_samples // k
        trimmed = self.values[: n_windows * k].reshape(n_windows, k, self.n_dims)
        if reduce == "mean":
            agg = trimmed.mean(axis=1)
        elif reduce == "max":
            agg = trimmed.max(axis=1)
        else:
            raise ValueError(f"reduce must be 'mean' or 'max', got {reduce!r}")
        return ResourceSeries(agg, self.columns, period=period, start=self.start)

    def select(self, names: Sequence[str]) -> "ResourceSeries":
        """Project onto a subset of columns (copies the selected data)."""
        idx = [self.column_index(n) for n in names]
        return ResourceSeries(
            self.values[:, idx], tuple(names), period=self.period, start=self.start
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def peak(self) -> np.ndarray:
        """Per-dimension maximum, shape ``(D,)`` (zeros when empty)."""
        if self.n_samples == 0:
            return np.zeros(self.n_dims)
        return self.values.max(axis=0)

    def mean(self) -> np.ndarray:
        """Per-dimension mean, shape ``(D,)`` (zeros when empty)."""
        if self.n_samples == 0:
            return np.zeros(self.n_dims)
        return self.values.mean(axis=0)

    @staticmethod
    def zeros(
        n_samples: int, columns: Sequence[str], *, period: float = 1.0, start: float = 0.0
    ) -> "ResourceSeries":
        """All-zero series of the given length."""
        return ResourceSeries(
            np.zeros((n_samples, len(columns))), tuple(columns), period=period, start=start
        )

    # ------------------------------------------------------------------
    # CSV interchange (bring-your-own telemetry)
    # ------------------------------------------------------------------
    def to_csv(self, path) -> None:
        """Write ``time`` + named columns as CSV.

        The format is the profiler's real-trace entry point: export your
        own cgroup/GPU-Z telemetry in this shape and feed it to
        :meth:`from_csv` → :class:`~repro.core.profiler.FrameGrainedProfiler`.
        """
        from pathlib import Path

        header = "time," + ",".join(self.columns)
        body = np.column_stack([self.times, self.values])
        lines = [header]
        lines += [",".join(f"{v:.6g}" for v in row) for row in body]
        Path(path).write_text("\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path) -> "ResourceSeries":
        """Read a series written by :meth:`to_csv` (or hand-made in the
        same shape: a ``time`` column plus one column per dimension,
        uniformly sampled)."""
        from pathlib import Path

        lines = Path(path).read_text().strip().splitlines()
        if len(lines) < 2:
            raise ValueError(f"{path}: need a header and at least one row")
        header = [h.strip() for h in lines[0].split(",")]
        if not header or header[0] != "time":
            raise ValueError(f"{path}: first column must be 'time', got {header[:1]}")
        columns = tuple(header[1:])
        if not columns:
            raise ValueError(f"{path}: no data columns")
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[1:]]
        )
        if data.shape[1] != len(header):
            raise ValueError(f"{path}: ragged rows")
        times = data[:, 0]
        if len(times) > 1:
            periods = np.diff(times)
            if not np.allclose(periods, periods[0]):
                raise ValueError(f"{path}: sampling must be uniform")
            period = float(periods[0])
        else:
            period = 1.0
        return ResourceSeries(
            data[:, 1:], columns, period=period, start=float(times[0])
        )
