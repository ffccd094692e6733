"""R1 — performance: whole-cell cold restart vs namespace size (§3.6).

A Deceit cell that loses every server at once comes back from
non-volatile state alone: each server replays its storage backend,
resurrects every file group it held, and starts serving.  This suite
drives :func:`repro.restartbench.restart_cycle` (populate → kill -9 →
restart → serve) on a 4-server journal-backed cell at 1k / 10k segments
cell-wide — plus the 100k point under ``RESTART_MATRIX=1``, the tier-2
``durability`` CI job's switch (that point alone is ~30 s) — and charts:

- **restart-to-serving** — wall clock from ``Cluster.restart`` (backend
  replay + cold start, no reconcile) through the first successful mount
  and end-to-end read;
- **journal-replay throughput** — records/s and MB/s of one server's
  append-only journal replayed by ``JournalBackend.load``, and the
  replay's traced memory peak (a second, untimed load under
  ``tracemalloc``);
- a backend comparison (memory / journal / sqlite) at the 10k point.

Cold start must be O(records): the per-size table asserts the per-record
restart cost stays flat between the two largest sizes run (the pre-fix
per-sid disk scans were quadratic — 0.17 s at 2k segments after the fix vs
3.2 s before).
"""

import gc
import os

from repro.restartbench import restart_cycle
from benchmarks.conftest import run_once

SIZES = [1_000, 10_000]
if os.environ.get("RESTART_MATRIX") == "1":
    SIZES.append(100_000)
COMPARE_SIZE = 10_000


def test_perf_cold_restart(benchmark, report, tmp_path):
    sizes = {}
    compare = {}

    def scenario():
        for n in SIZES:
            gc.collect()  # don't bill one cycle for its predecessor's heap
            sizes[n] = restart_cycle("journal", tmp_path, n)
        for backend in ("memory", "sqlite"):
            gc.collect()
            compare[backend] = restart_cycle(backend, tmp_path, COMPARE_SIZE)
        return sizes

    run_once(benchmark, scenario)

    rows = []
    for n, r in sorted(sizes.items()):
        rep = r["replay"]
        rows.append([
            f"{n // 1000}k", f"{r['populate_s']:.2f}",
            f"{r['restart_s']:.3f}", f"{r['first_read_s']:.3f}",
            f"{r['to_serving_s']:.3f}", f"{r['us_per_segment']:.1f}",
            f"{rep['records'] / rep['wall_s'] / 1000:.0f}k",
            f"{rep['bytes'] / rep['wall_s'] / 1e6:.1f}",
            f"{rep['peak_bytes'] / 2**20:.2f}",
        ])
    report(
        "R1: cold restart-to-serving vs namespace size — 4-server cell, "
        "journal backend",
        ["segments", "load s", "restart s", "1st read s", "to-serving s",
         "us/seg", "replay rec/s", "replay MB/s", "replay peak MiB"],
        rows,
    )
    comp_rows = [[r["backend"], f"{r['restart_s']:.3f}",
                  f"{r['to_serving_s']:.3f}"]
                 for r in ([sizes[COMPARE_SIZE]] + list(compare.values()))]
    report(
        f"R1b: backend comparison at {COMPARE_SIZE // 1000}k segments",
        ["backend", "restart s", "to-serving s"],
        comp_rows,
    )

    for n, r in sizes.items():
        # every synthetic segment plus the root/probe groups came back
        assert r["resurrected"] >= n, (
            f"{n}: only {r['resurrected']} groups resurrected")
    # cold start stays O(records): per-segment cost at the largest size
    # must not blow up vs the one below it (the quadratic scan this guards
    # against was ~50x worse per 10x)
    small, large = SIZES[-2:]
    flat = sizes[large]["us_per_segment"] / sizes[small]["us_per_segment"]
    assert flat < 5.0, (
        f"per-segment restart cost grew {flat:.1f}x from {small} to {large}")

    benchmark.extra_info.update({
        "sizes": {str(n): r for n, r in sizes.items()},
        "backend_comparison": {b: r for b, r in compare.items()},
    })
