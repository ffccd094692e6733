"""Reproduction of *Deceit: A Flexible Distributed File System* (1990).

Deceit (Siegel, Birman, Marzullo — Cornell, USENIX 1990) is a distributed
file system built on the ISIS toolkit whose thesis is **per-file tunable
semantics**: every file carries five parameters trading availability,
performance, and consistency, with plain-NFS behaviour as the default.

This package is a full reimplementation on a discrete-event simulation
(see ``ARCHITECTURE.md`` for the layer diagram):

- :mod:`repro.sim` — virtual-time kernel with async/await coroutines;
- :mod:`repro.net` — network with latency, loss, crashes, and partitions;
- :mod:`repro.storage` — non-volatile stores with a group-commit engine
  for synchronous writes and an asynchronous write-behind buffer;
- :mod:`repro.isis` — virtually synchronous process groups (the substrate);
- :mod:`repro.core` — the segment layer: a thin
  :class:`~repro.core.segment_server.SegmentServer` facade over the
  :mod:`repro.core.pipeline` services (catalog metadata, replica store +
  versioned read cache, read/update hot paths, conflict directory, crash
  recovery) plus the token / replication / stability protocol mixins;
- :mod:`repro.nfs` — the NFS file-service envelope and server facade;
- :mod:`repro.agent` — client agents (version-validated caching,
  failover, the access shortcut to a replica holder);
- :mod:`repro.baseline` — the plain-NFS comparison system;
- :mod:`repro.workloads` — synthetic workloads per the paper's §2.3
  operational assumptions;
- :mod:`repro.testbed` — one-call cluster/cell builders;
- :mod:`repro.cli` — the ``repro`` console entry point (quickstart demo).

Quickstart::

    from repro.testbed import build_cluster

    cluster = build_cluster(n_servers=3, n_agents=1)
    agent = cluster.agents[0]

    async def demo():
        await agent.mount()
        await agent.create("/", "hello.txt")
        await agent.write_file("/hello.txt", b"hi from Deceit")
        await agent.set_params("/hello.txt", min_replicas=3)
        return await agent.read_file("/hello.txt")

    print(cluster.run(demo()))
"""

from repro.core import Availability, FileParams, VersionPair, WriteOp
from repro.errors import NfsError, ReproError
from repro.nfs import DeceitServer, FileHandle
from repro.testbed import build_cells, build_cluster, build_core_cluster

__version__ = "1.0.0"

__all__ = [
    "Availability",
    "DeceitServer",
    "FileHandle",
    "FileParams",
    "NfsError",
    "ReproError",
    "VersionPair",
    "WriteOp",
    "build_cells",
    "build_cluster",
    "build_core_cluster",
    "__version__",
]
