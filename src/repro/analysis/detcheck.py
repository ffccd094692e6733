"""``repro detcheck``: same-seed divergence detection and bisection.

The 64-server determinism pin going red tells you *that* two same-seed
runs diverged; it says nothing about *where*.  ``detcheck`` turns the
afternoon of manual bisecting into one command:

1. run a seeded workload twice with a witness chain attached
   (:class:`~repro.analysis.witness.WitnessRecorder`, checkpointed every
   ``checkpoint_interval`` events);
2. if the final chains match, report the shared digest and stop — that is
   the passing case CI pins;
3. otherwise binary-search the checkpoint arrays for the first divergent
   checkpoint (the hash-chain prefix property makes the predicate
   monotone), giving an event-index window one interval wide;
4. re-run both sides with full per-event detail recorded *only inside
   that window*, and report the first event where the two streams
   disagree — its index, virtual time, scheduling sequence number, and
   label (callback, owning task, message kind/src/dst).

``inject_fault_at`` plants a controlled divergence in the second run
(one stolen draw from the network RNG just before that event index —
the observable effect of an undisciplined entropy read), which is how
the bisector itself is tested.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.witness import WitnessRecorder, first_divergent_checkpoint


def _run_once(workload: str, n_servers: int, n_agents: int,
              duration_ms: float, seed: int, checkpoint_interval: int,
              detail_range: tuple[int, int] | None = None,
              fault_at: int | None = None,
              limit: float = 10_000_000.0) -> WitnessRecorder:
    """One seeded workload run with a witness attached; returns the witness.

    Everything that feeds behavior is derived from ``seed`` and no
    process-global state is touched, so repeated calls in one process
    produce identical chains.
    """
    from repro.testbed import build_scale_cluster
    from repro.workloads import NAMED_FILE_PARAMS, named_ops, replay

    ops = named_ops(workload, n_agents, duration_ms, seed)
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=n_agents,
                                  seed=seed)
    witness = WitnessRecorder(checkpoint_interval=checkpoint_interval,
                              detail_range=detail_range)
    if fault_at is not None:
        witness.fault_at = fault_at
        # One stolen RNG draw: every later latency sample shifts, exactly
        # like a wall-clock read leaking into the seeded stream would.
        witness.fault_fn = cluster.network.rng.random
    cluster.kernel.set_witness(witness)
    try:
        cluster.run(replay(cluster, ops,
                           file_params=NAMED_FILE_PARAMS.get(workload)),
                    limit=limit)
    finally:
        cluster.close()
    return witness


def _first_divergent_event(
        d1: list[tuple[int, float, int, str]],
        d2: list[tuple[int, float, int, str]]) -> dict[str, Any] | None:
    """First position where two detail windows disagree, as a report."""
    for e1, e2 in zip(d1, d2):
        if e1 != e2:
            return {
                "index": e1[0],
                "run1": {"when": e1[1], "seq": e1[2], "label": e1[3]},
                "run2": {"when": e2[1], "seq": e2[2], "label": e2[3]},
            }
    if len(d1) != len(d2):
        longer, which = (d1, "run1") if len(d1) > len(d2) else (d2, "run2")
        extra = longer[min(len(d1), len(d2))]
        return {
            "index": extra[0],
            "only_in": which,
            which: {"when": extra[1], "seq": extra[2], "label": extra[3]},
        }
    return None


def detcheck(workload: str = "hotspot", n_servers: int = 16,
             n_agents: int = 8, duration_ms: float = 2_000.0, seed: int = 42,
             checkpoint_interval: int = 1024,
             inject_fault_at: int | None = None) -> dict[str, Any]:
    """Run the workload twice; compare chains; bisect any divergence.

    Returns a report dict: ``identical`` (bool), per-run summaries, and —
    when the runs diverge — ``first_divergent`` naming the first event
    where the streams disagree, plus the checkpoint window the binary
    search narrowed it to.
    """
    run = dict(workload=workload, n_servers=n_servers, n_agents=n_agents,
               duration_ms=duration_ms, seed=seed,
               checkpoint_interval=checkpoint_interval)
    w1 = _run_once(**run)
    w2 = _run_once(**run, fault_at=inject_fault_at)
    report: dict[str, Any] = {
        "params": dict(run, inject_fault_at=inject_fault_at),
        "run1": w1.summary(),
        "run2": w2.summary(),
        "identical": w1.matches(w2),
    }
    if report["identical"]:
        return report
    # Locate the divergence window: first mismatching checkpoint (binary
    # search over the monotone prefix-equality predicate), or the tail
    # past the last shared checkpoint.
    ckpt = first_divergent_checkpoint(w1.checkpoints, w2.checkpoints)
    interval = checkpoint_interval
    if ckpt is None:
        lo = min(len(w1.checkpoints), len(w2.checkpoints)) * interval
        hi = max(w1.index, w2.index)
    else:
        lo = ckpt * interval
        hi = lo + interval
    report["window"] = {"first_divergent_checkpoint": ckpt,
                        "events": [lo, hi]}
    # Re-run both sides recording full detail only inside the window.
    d1 = _run_once(**run, detail_range=(lo, hi)).details
    d2 = _run_once(**run, detail_range=(lo, hi),
                   fault_at=inject_fault_at).details
    report["first_divergent"] = _first_divergent_event(d1, d2)
    return report


def format_report(report: dict[str, Any]) -> str:
    """Human-readable detcheck report."""
    params = report["params"]
    lines = [
        f"detcheck: {params['workload']} workload, "
        f"{params['n_servers']} servers / {params['n_agents']} agents, "
        f"seed {params['seed']}, {params['duration_ms']:.0f} ms virtual",
        f"  run 1: {report['run1']['events']} events, "
        f"chain {report['run1']['chain']}",
        f"  run 2: {report['run2']['events']} events, "
        f"chain {report['run2']['chain']}",
    ]
    if report["identical"]:
        lines.append("  IDENTICAL: witness chains match event-for-event")
        return "\n".join(lines)
    window = report.get("window", {})
    lines.append(
        f"  DIVERGED: first divergent checkpoint "
        f"{window.get('first_divergent_checkpoint')}, "
        f"event window {window.get('events')}")
    first = report.get("first_divergent")
    if first is None:
        lines.append("  (streams agree inside the window; divergence is "
                     "past the recorded detail)")
    else:
        lines.append(f"  first divergent event: index {first['index']}")
        for which in ("run1", "run2"):
            view = first.get(which)
            if view is not None:
                lines.append(
                    f"    {which}: t={view['when']:.3f} seq={view['seq']} "
                    f"{view['label']}")
        if "only_in" in first:
            lines.append(f"    (event exists only in {first['only_in']})")
    return "\n".join(lines)
