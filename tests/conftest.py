"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.metrics import Metrics
from repro.net import Network, UniformLatency
from repro.sim import Kernel


@pytest.fixture
def kernel() -> Kernel:
    """Fresh simulation kernel."""
    return Kernel()


@pytest.fixture
def network(kernel: Kernel) -> Network:
    """Network with mild latency jitter and no loss, seeded for determinism."""
    return Network(kernel, latency=UniformLatency(1.0, 4.0), seed=42, metrics=Metrics())


def run(kernel: Kernel, awaitable, limit: float = 60_000.0):
    """Drive the kernel until ``awaitable`` resolves (virtual-time bounded)."""
    return kernel.run_until_complete(awaitable, limit=limit)


def record_nfs(agent) -> list[list]:
    """Log every NFS call ``agent`` makes from now on as ``[op, args,
    reply]`` — the reply stays ``None`` when the call raised."""
    calls: list[list] = []
    nfs = agent._nfs

    async def recorded(op, args, **kwargs):
        call = [op, dict(args), None]
        calls.append(call)
        call[2] = await nfs(op, args, **kwargs)
        return call[2]

    agent._nfs = recorded
    return calls
