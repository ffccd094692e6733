"""Per-server health: the ``health`` admin RPC and the cell scraper.

:func:`server_health` assembles one server's reply — failure-detector
suspicion state (who this server suspects, since when, at what epoch,
which peers it is watching and until when an alarm has it watch all),
token residency, replica/catalog counts, what the ISIS view logs hold and
how many groups a flush has paused, disk queue depths, and backend
status.  ``DeceitServer`` registers it as the ``health`` RPC handler,
so any node (an agent, an operator script, another cell) can scrape a
live server mid-run.

:func:`scrape_cell` walks a whole testbed cluster.  Dead servers do
**not** hang the scrape waiting out an RPC timeout: a server that is
fail-stopped (or partitioned from the scraping node) comes back as a
synthetic row with ``status == ERR_UNREACHABLE``, and the surviving
peers' rows carry their *last-known* view of it — the suspicion flag,
epoch, and since-when — which is exactly what an operator dashboard
shows for a down machine.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RpcTimeout, Unreachable

#: Status of a health row for a server that cannot answer.  A string —
#: deliberately distinguishable from every numeric ``NfsStat`` code.
ERR_UNREACHABLE = "unreachable"

HEALTH_RPC_TIMEOUT_MS = 200.0


def server_health(server: Any) -> dict:
    """Assemble the ``health`` reply for one live :class:`DeceitServer`."""
    proc = server.proc
    fd = proc.fd
    now = server.kernel.now
    since = getattr(fd, "suspected_since", {})
    watched = set(fd.watched)
    peers = {}
    for peer in fd.peers:
        suspected = peer in fd.suspected
        entry: dict[str, Any] = {
            "suspected": suspected,
            "epoch": fd.peer_epochs.get(peer, 0),
            # silence counts against a peer only while it is watched: a
            # calm cell watches ring neighbours, and an unwatched peer's
            # last_heard_ms is merely the last message that happened by
            "watched": peer in watched,
            "last_heard_ms": fd.last_heard.get(peer),
        }
        if suspected:
            t = since.get(peer)
            entry["suspected_since_ms"] = t
            entry["suspected_for_ms"] = None if t is None else now - t
        peers[peer] = entry
    disk = server.disk
    seg = server.segments
    isis_log = proc.log_vitals()
    reply = {
        "status": 0,
        "addr": server.addr,
        "alive": proc.alive,
        "epoch": proc.epoch,
        "now_ms": now,
        "peers": peers,
        "suspected": sorted(fd.suspected),
        # every peer is pinged and watched until then (0: never alarmed)
        "alarm_until_ms": fd.alarm_until,
        "tokens_held": len(seg.tokens),
        "replicas": len(seg.replicas),
        "catalogs": len(seg.catalogs),
        "groups": len(proc.group_names()),
        # multicasts the view logs hold for a flush (trimmed at stability:
        # growth means some member stopped reporting), and groups paused
        # by a flush no install has ended (non-zero at rest: a stuck change)
        "isis_log_entries": isis_log["log_entries"],
        "groups_flushing": isis_log["flushing"],
        "queues": {
            "disk_async_buffered": len(disk._buffer) + len(disk._deleted_buffer),
            "disk_pending_batches": len(disk._pending),
            "rpc_tasks": len(proc._tasks),
        },
        "backend": type(disk.backend).__name__,
        "stable_keys": disk.stable_keys,
    }
    gate = getattr(server, "admission", None)
    reply["admission"] = None if gate is None else gate.snapshot()
    return reply


def _unreachable_row(addr: str) -> dict:
    return {"status": ERR_UNREACHABLE, "addr": addr, "alive": False}


async def scrape_cell(cluster: Any, via: Any = None,
                      timeout_ms: float = HEALTH_RPC_TIMEOUT_MS) -> list[dict]:
    """Scrape every server in ``cluster``, one health row each.

    ``via`` is the node issuing the RPCs (default: the first agent).
    A fail-stopped or unreachable server yields an ``ERR_UNREACHABLE``
    row instead of stalling the sweep on an RPC timeout: liveness and
    link reachability are checked first, and the timeout path is kept
    only as a backstop for races (a server crashing mid-scrape).
    """
    node = cluster.agents[0] if via is None else via
    rows = []
    for server in cluster.servers:
        if not server.proc.alive or not node.network.reachable(node.addr,
                                                              server.addr):
            rows.append(_unreachable_row(server.addr))
            continue
        try:
            rows.append(await node.call(server.addr, "health",
                                        timeout=timeout_ms, tag="health"))
        except (RpcTimeout, Unreachable):
            rows.append(_unreachable_row(server.addr))
    return rows
