"""Shared machinery for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md's per-experiment index).  The quantities that matter are
*virtual*: message counts, communication rounds, virtual-time latencies —
the paper never published wall-clock numbers ("performance measures would
be premature", §7).  pytest-benchmark additionally records the real
wall-clock of each simulation for regression tracking.

Each benchmark prints a paper-shaped table (visible with ``-s`` or in the
captured section) and stores the same rows in ``benchmark.extra_info`` so
``--benchmark-json`` output carries them.  There is no cross-simulation
summary here: the performance ledger is ``bench/`` (``python -m bench.run``).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run a deterministic simulation exactly once under the benchmark.

    Simulations are seeded and deterministic, so repeated timing rounds
    would only measure interpreter noise; a single round keeps the full
    harness fast while still recording wall-clock.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def table(title: str, headers: list[str], rows: list[list]) -> str:
    """Format a paper-style results table."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) + 2
              for i, h in enumerate(headers)]
    lines = [title, "-" * (sum(widths))]
    lines.append("".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("".join(str(c).ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


@pytest.fixture
def report():
    """Print-and-collect helper: benchmarks call ``report(title, hdrs, rows)``."""
    printed = []

    def _report(title, headers, rows):
        text = table(title, headers, rows)
        printed.append(text)
        print("\n" + text)
        return text

    return _report
