"""Higher-order log analytics on MithriLog output (Section 8).

The paper's conclusion sketches the layer above the accelerator: "more
complex analytical operations such as principal component analysis [79]
or clustering [36] can also be implemented to benefit from the fast data
extraction capability of MithriLog". This package is that layer:

- :mod:`repro.analytics.counting` — template count vectors over time
  windows (the feature representation of Xu et al. [79]),
- :mod:`repro.analytics.anomaly` — PCA subspace anomaly detection over
  count vectors,
- :mod:`repro.analytics.clustering` — k-means clustering of log windows
  (Lin et al. [36] style problem identification),
- :mod:`repro.analytics.sequences` — template-transition (workflow)
  models over the tag stream (CloudSeer [82] style monitoring),
- :mod:`repro.analytics.workload` — mining of the service's own query
  journal: hot templates, per-tenant/template/stage/outcome slices,
  and drift detection between journal windows (the *Query Log
  Compression for Workload Analytics* direction).

Everything consumes the tagger/filter output of :mod:`repro.core`, so
these analyses run over *extracted* data, never raw logs.

Exports load lazily (PEP 562): ``anomaly``, ``clustering``, ``counting``
and ``sequences`` need numpy, and importing the package (as
:mod:`repro.obs.report` does for ``workload``) must not.
"""

from importlib import import_module

#: exported name -> submodule that defines it
_EXPORTS = {
    "AggregateReport": "aggregate",
    "aggregate_matches": "aggregate",
    "PCAAnomalyDetector": "anomaly",
    "KMeans": "clustering",
    "TemplateCountMatrix": "counting",
    "count_windows": "counting",
    "TransitionModel": "sequences",
    "DriftReport": "workload",
    "SliceStats": "workload",
    "WorkloadProfile": "workload",
    "drift": "workload",
    "hot_templates": "workload",
    "mine": "workload",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
