"""ISIS substrate: virtually synchronous process groups.

Deceit delegates all communication and process-group management to the ISIS
Distributed Programming Environment (§2.4, §5.4).  This package rebuilds the
ISIS facilities Deceit depends on:

- **process groups** with atomic membership change (view synchrony): a
  coordinator runs a flush protocol so every message multicast in a view is
  delivered in that view at every surviving member before the next view is
  installed — two parallel rounds whatever the group size, moving member
  summaries (delivered vector + undelivered keys) and only the message
  bodies somebody lacks; a view's log is trimmed at stability, which
  members learn from vectors piggybacked on replies and multicasts;
- **the broadcast primitive**: FIFO/causal multicast (``cbcast``,
  vector-clock delivery order, after Birman-Schiper-Stephenson) with
  ISIS-style "collect the first *k* replies" semantics;
- **failure detection coordinated with communication** (§3.4 footnote: "ISIS
  provides a clean notion of availability"): heartbeat-driven suspicion that
  feeds view changes, with shunning of stale epochs;
- **state transfer** to joining members via application callbacks;
- **group location** by name within a cell (the paper's "global search ...
  limited to within a Deceit cell", §3.2).

Partition behaviour follows the paper's forward-looking note (§2.4 footnote
4): this is the partition-*tolerant* variant — each side of a partition
installs its own view and keeps running; merge policy is left to the
application (Deceit's version machinery), which is exactly how §3.5/§3.6
describe recovery.
"""

from repro.isis.process import GroupApp, IsisProcess
from repro.isis.view import View
from repro.isis.vector_clock import VectorClock

__all__ = ["GroupApp", "IsisProcess", "VectorClock", "View"]
