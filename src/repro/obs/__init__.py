"""The observability plane: request tracing, live health/metrics
scraping, and admission control.

Everything here is *opt-in* and costs ~nothing when off: the tracer
follows the witness-chain discipline (one ``is None`` test per hook in
the hot paths), the sampler only exists when armed, and the admission
gate is a ``None`` attribute on servers until the testbed installs one.

- :mod:`repro.obs.tracer` — virtual-time span tracer; trace ids are
  minted at the NFS envelope (the agent side) and ride ``Message``
  metadata across RPCs.  ``build_cluster(tracing=True)``.
- :mod:`repro.obs.sampler` — periodic virtual-time snapshots of the
  counters and latency reservoirs, readable *mid-run*.
- :mod:`repro.obs.admission` — a virtual-time token bucket guarding the
  NFS envelope; overload answers ``ERR_BUSY`` instead of queueing.
- :mod:`repro.obs.health` — assembles the per-server ``health`` RPC
  reply and scrapes a whole cell (dead servers come back as a
  distinguishable ``ERR_UNREACHABLE`` row, not a hung RPC).
- :mod:`repro.obs.loadtest` — the saturation/SLO harness behind
  ``repro loadtest`` and ``benchmarks/test_perf_slo.py`` (imported
  directly, not re-exported here, because it imports the testbed).
"""

from repro.obs.admission import AdmissionConfig, AdmissionGate
from repro.obs.health import ERR_UNREACHABLE, scrape_cell
from repro.obs.sampler import MetricsSampler
from repro.obs.tracer import Tracer

__all__ = [
    "AdmissionConfig",
    "AdmissionGate",
    "ERR_UNREACHABLE",
    "MetricsSampler",
    "Tracer",
    "scrape_cell",
]
