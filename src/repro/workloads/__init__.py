"""Synthetic workloads implementing the paper's operational assumptions.

§2.3: files are read/written whole in streams of operations; nearly
simultaneous writes by two clients are very rare; files see long inactivity
punctuated by bursts; activity clusters in few directories; the op mix is
dominated by getattr, lookup, read, and write; most files are under 20 KB.

The design studies the paper cites (Ousterhout et al. BSD trace study,
Floyd's reference patterns) motivate the distributions used here.
"""

from repro.workloads.generator import (
    NAMED_WORKLOADS,
    FileProfile,
    Op,
    OpKind,
    WorkloadConfig,
    WorkloadGenerator,
    hotspot_config,
    named_ops,
    streaming_config,
    zipf_weights,
)
from repro.workloads.replay import ReplayStats, replay

__all__ = [
    "NAMED_WORKLOADS",
    "FileProfile",
    "Op",
    "OpKind",
    "ReplayStats",
    "WorkloadConfig",
    "WorkloadGenerator",
    "hotspot_config",
    "named_ops",
    "replay",
    "streaming_config",
    "zipf_weights",
]
