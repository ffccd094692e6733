"""SLO — saturation ramp and graceful degradation under overload.

The paper never published load curves ("performance measures would be
premature", §7), but its NFS-envelope design implies a knee: the point
where offered concurrency stops buying throughput and only buys queueing
delay.  This benchmark drives :func:`repro.obs.loadtest.overload_comparison`
through a 4-server cell:

1. an ungated concurrency ramp locates the knee (last step that still
   bought ``KNEE_GAIN`` more ops/virtual-s);
2. the cell is then driven at **2x the knee**, once ungated (pure
   queueing) and once behind per-server admission gates calibrated to
   ``RATE_MARGIN`` times the knee throughput.

Acceptance — graceful degradation, both halves of it:

- the gate must not cost throughput: gated goodput at 2x-knee stays
  within ``MIN_GOODPUT_RATIO`` of the *ungated* run at the same load;
- the gate must bound latency: gated p99 stays within
  ``MAX_GATED_P99_VS_KNEE`` of the knee's own p99, while actually
  engaging (``busy_rejected > 0`` — a gate that never says BUSY proves
  nothing).
"""

from benchmarks.conftest import run_once
from repro.obs.loadtest import overload_comparison

N_SERVERS = 4
#: The cell plateaus between 128 and 256 clients since whole-file
#: rewrites go to the token holder; a ramp ending at 128 ran out of steps.
STEPS = (64, 128, 256)
DURATION_MS = 2_000.0
SEED = 42
N_FILES = 8
WRITE_FRACTION = 0.2
RATE_MARGIN = 1.2
#: Bucket depth.  Small on purpose: a burst that spans whole seconds of
#: admitted load never says BUSY inside a run this short, and the gate
#: degenerates to a no-op.
BURST = 32.0

#: Gated goodput at 2x-knee vs ungated goodput at the same offered load.
MIN_GOODPUT_RATIO = 0.85
#: Gated overload p99 relative to the knee's p99 ("bounded" = near 1;
#: the measured value at seed 42 is ~1.20).
MAX_GATED_P99_VS_KNEE = 1.6


def test_perf_slo_overload(benchmark, report):
    result = run_once(
        benchmark,
        lambda: overload_comparison(
            n_servers=N_SERVERS, steps=STEPS, duration_ms=DURATION_MS,
            seed=SEED, n_files=N_FILES, write_fraction=WRITE_FRACTION,
            rate_margin=RATE_MARGIN, burst=BURST))

    ramp = result["ramp"]
    knee = ramp["knee"]
    rows = [[s["concurrency"], s["succeeded"], f"{s['ops_per_vs']:.0f}",
             f"{s['p50_ms']:.1f}", f"{s['p99_ms']:.0f}", s["busy_rejected"],
             "knee" if s["concurrency"] == knee["concurrency"] else ""]
            for s in ramp["steps"]]
    for label, s in (("2x ungated", result["ungated"]),
                     ("2x gated", result["gated"])):
        rows.append([f"{s['concurrency']} ({label})", s["succeeded"],
                     f"{s['ops_per_vs']:.0f}", f"{s['p50_ms']:.1f}",
                     f"{s['p99_ms']:.0f}", s["busy_rejected"], ""])
    report(
        f"SLO: saturation ramp + 2x-knee overload — {N_SERVERS} servers, "
        f"{DURATION_MS / 1000:.0f}s virtual per step, seed {SEED}",
        ["clients", "ok", "ops/vs", "p50 ms", "p99 ms", "busy", ""],
        rows,
    )

    # the ramp found the knee *inside* the range, not at its last step
    assert knee["concurrency"] < STEPS[-1], (
        f"knee at the ramp's end ({knee['concurrency']}): the cell "
        f"out-scaled the ramp and the 2x-knee runs measured nothing")
    # the gate engaged: overload really was shed, not merely survived
    assert result["gated"]["busy_rejected"] > 0
    assert result["ungated"]["busy_rejected"] == 0
    # graceful degradation, throughput half: goodput held at same load
    assert result["goodput_ratio"] >= MIN_GOODPUT_RATIO, (
        f"admission gate cost too much goodput at 2x-knee: "
        f"{result['goodput_ratio']:.3f} < {MIN_GOODPUT_RATIO}")
    # graceful degradation, latency half: p99 bounded near the knee's
    assert result["gated_p99_vs_knee"] <= MAX_GATED_P99_VS_KNEE, (
        f"gated overload p99 not bounded: "
        f"{result['gated_p99_vs_knee']:.2f}x the knee's p99 "
        f"(limit {MAX_GATED_P99_VS_KNEE}x)")

    benchmark.extra_info.update({
        "ramp": ramp,
        "overload_concurrency": result["overload_concurrency"],
        "gate": result["gate"],
        "ungated": result["ungated"],
        "gated": result["gated"],
        "goodput_ratio": result["goodput_ratio"],
        "p99_ratio": result["p99_ratio"],
        "gated_p99_vs_knee": result["gated_p99_vs_knee"],
    })
