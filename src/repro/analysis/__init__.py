"""Analysis and reporting helpers used by the benchmark harness.

* :mod:`~repro.analysis.elbow` — the Fig-14 SSE-vs-K analysis;
* :mod:`~repro.analysis.report` — plain-text tables the benches print;
* :mod:`~repro.analysis.savings` — the Fig-10 allocated-vs-max savings
  accounting.
"""

from repro import _lazy_exports

__all__ = [
    "ElbowAnalysis",
    "elbow_analysis",
    "format_table",
    "format_series",
    "allocation_savings",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ElbowAnalysis": ".elbow",
    "elbow_analysis": ".elbow",
    "format_series": ".report",
    "format_table": ".report",
    "allocation_savings": ".savings",
})
