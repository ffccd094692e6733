"""``repro racecheck``: seeded schedule perturbation with ysan armed.

A check-then-act race that never loses the tie-break under the default
schedule passes every determinism pin and every unperturbed test.
``racecheck`` goes looking for the losing tie-break:

1. for each ``perturb_seed`` in ``1..N``, build the cell with the
   yield sanitizer armed (:mod:`repro.analysis.ysan`) and a dedicated
   perturbation RNG shuffling same-timestamp zero-delay tie-breaking in
   the kernel (``Kernel.set_perturbation`` — a separate stream, so the
   workload/network RNGs draw exactly what they always draw);
2. replay the seeded workload; collect ysan violations, invariant-oracle
   failures (at most one *enabled* write token per ``(sid, major)``
   cell-wide — §3.3's single-writer guarantee; every live replica of a
   major whose enabled token holder is live stable and at the token's
   version and applied-id record — §3.4's quiet point; members of one view
   agree on what was delivered in it — ISIS's virtual synchrony), and any
   hard errors;
3. on a hit, re-run the **same** ``(seed, perturb_seed)`` — perturbed
   runs are exactly reproducible because the perturbation stream is
   seeded too — with a witness detail window around the hit, which
   yields the labeled event neighborhood in the same form
   ``detcheck``'s bisector reports, ready for comparison against an
   unperturbed chain.

Exit status is clean only when every schedule runs to completion with
zero violations and zero oracle failures.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.witness import WitnessRecorder
from repro.core.striping.striper import RETIRE_DELAY_MS


def check_invariants(cluster: Any) -> list[str]:
    """Cell-wide protocol invariants checkable from the outside.

    §3.3: updates to one major funnel through a single write token, so at
    most one server may hold it *enabled* at any quiet point.

    §3.4: a burst ends with the stable mark once writes go quiet, so at a
    quiet point every live replica of a major whose enabled token holder
    is live is stable and at the token's version pair, and holds the
    token's record of applied update ids (the duplicate rule's).
    """
    problems: list[str] = []
    enabled: dict[Any, list[str]] = {}
    live_tokens: dict[Any, Any] = {}
    for server in cluster.servers:
        for key, token in sorted(server.segments.store.tokens.items()):
            if token.enabled:
                enabled.setdefault(key, []).append(server.addr)
                if server.proc.alive:
                    live_tokens.setdefault(key, token)
    for key, addrs in sorted(enabled.items()):
        if len(addrs) > 1:
            problems.append(
                f"token {key} enabled on {addrs} simultaneously "
                "(single-writer invariant)")
    for server in cluster.servers:
        if not server.proc.alive:
            continue
        for key, replica in sorted(server.segments.store.replicas.items()):
            token = live_tokens.get(key)
            if token is not None and (not replica.stable
                                      or replica.version != token.version):
                problems.append(
                    f"replica {key} at {server.addr} is "
                    f"{'stable' if replica.stable else 'unstable'} at "
                    f"{replica.version}, token at {token.version} "
                    "(§3.4 quiet point)")
            elif token is not None and replica.applied != token.applied:
                problems.append(
                    f"replica {key} at {server.addr} records other applied "
                    "update ids than its token (duplicate rule)")
    problems += check_virtual_synchrony([s.proc for s in cluster.servers])
    return problems


def check_virtual_synchrony(procs: list[Any]) -> list[str]:
    """§3.2's group contract at a quiet point: two live processes that list
    each other in the same-numbered view of a group hold the same
    membership and the same delivered vector, and neither has a multicast
    it received but could not deliver.

    Keyed on *mutual listing*, not on ``(group, view_id)``: unmerged
    instances of one group (the cell-wide conflict group boots as
    singletons that all number their view 1) are not one view.
    """
    problems: list[str] = []
    live = [p for p in procs if p.alive]
    for i, a in enumerate(live):
        for group, mine in sorted(a.groups.items()):
            for b in live[i + 1:]:
                theirs = b.groups.get(group)
                if (theirs is None
                        or theirs.view.view_id != mine.view.view_id
                        or b.addr not in mine.view.members
                        or a.addr not in theirs.view.members):
                    continue
                where = f"{group}#{mine.view.view_id} at {a.addr}/{b.addr}"
                if mine.view.members != theirs.view.members:
                    problems.append(
                        f"{where}: memberships differ, "
                        f"{list(mine.view.members)} vs "
                        f"{list(theirs.view.members)} (virtual synchrony)")
                elif mine.vc != theirs.vc:
                    problems.append(
                        f"{where}: delivered {mine.vc!r} vs {theirs.vc!r} "
                        "(virtual synchrony)")
                for proc, state in ((a, mine), (b, theirs)):
                    if state.pending:
                        problems.append(
                            f"{where}: {proc.addr} holds "
                            f"{len(state.pending)} undelivered multicast(s) "
                            "(virtual synchrony)")
    return problems


def _run_once(workload: str, n_servers: int, n_agents: int,
              duration_ms: float, seed: int, perturb_seed: int,
              detail_range: tuple[int, int] | None = None,
              limit: float = 10_000_000.0) -> dict[str, Any]:
    """One perturbed, sanitized workload run; returns its findings."""
    from repro.testbed import build_scale_cluster
    from repro.workloads import NAMED_FILE_PARAMS, named_ops, replay

    ops = named_ops(workload, n_agents, duration_ms, seed)
    cluster = build_scale_cluster(n_servers=n_servers, n_agents=n_agents,
                                  seed=seed, ysan=True,
                                  perturb_seed=perturb_seed)
    witness = None
    if detail_range is not None:
        witness = WitnessRecorder(detail_range=detail_range)
        cluster.kernel.set_witness(witness)
    error: str | None = None
    oracle: list[str] = []
    try:
        cluster.run(replay(cluster, ops,
                           file_params=NAMED_FILE_PARAMS.get(workload)),
                    limit=limit)
        # the quiet point comes after the longest one-shot protocol timer:
        # a restripe near the end retires its stripes that much later
        cluster.settle(RETIRE_DELAY_MS + 500.0)
        oracle = check_invariants(cluster)
    except Exception as exc:  # a perturbed schedule may break outright
        error = f"{type(exc).__name__}: {exc}"
    sanitizer = cluster.ysan
    events = cluster.kernel.events_processed
    cluster.close()
    return {"sanitizer": sanitizer, "oracle": oracle, "error": error,
            "witness": witness, "events": events}


def racecheck(workload: str = "zipf", n_servers: int = 16, n_agents: int = 8,
              duration_ms: float = 2_000.0, seed: int = 42,
              schedules: int = 8, replay_hits: bool = True) -> dict[str, Any]:
    """Run ``schedules`` perturbed schedules; report every hit.

    Returns a report dict: ``clean`` (bool), per-schedule summaries, and
    for each hit a replay confirmation plus the witness-labeled event
    neighborhood around the first violation.
    """
    params = dict(workload=workload, n_servers=n_servers, n_agents=n_agents,
                  duration_ms=duration_ms, seed=seed, schedules=schedules)
    runs: list[dict[str, Any]] = []
    total_violations = 0
    for perturb_seed in range(1, schedules + 1):
        result = _run_once(workload, n_servers, n_agents, duration_ms,
                           seed, perturb_seed)
        sanitizer = result["sanitizer"]
        entry: dict[str, Any] = {
            "perturb_seed": perturb_seed,
            "events": result["events"],
            "violations": sanitizer.total_violations,
            "reports": [v.format() for v in sanitizer.violations[:8]],
            "oracle": result["oracle"],
            "error": result["error"],
        }
        total_violations += sanitizer.total_violations
        if sanitizer.total_violations and replay_hits:
            first = sanitizer.violations[0]
            lo = max(0, first.read_event - 2)
            hi = first.write_event + 3
            confirm = _run_once(workload, n_servers, n_agents, duration_ms,
                                seed, perturb_seed, detail_range=(lo, hi))
            re_sanitizer = confirm["sanitizer"]
            entry["replayed"] = bool(
                re_sanitizer.violations
                and re_sanitizer.violations[0] == first)
            entry["witness_window"] = [
                {"index": idx, "when": when, "seq": seq, "label": label}
                for idx, when, seq, label in confirm["witness"].details]
        runs.append(entry)
    clean = (total_violations == 0
             and all(not r["oracle"] and r["error"] is None for r in runs))
    return {"params": params, "runs": runs,
            "violations": total_violations, "clean": clean}


def format_report(report: dict[str, Any]) -> str:
    """Human-readable racecheck report."""
    params = report["params"]
    lines = [
        f"racecheck: {params['workload']} workload, "
        f"{params['n_servers']} servers / {params['n_agents']} agents, "
        f"seed {params['seed']}, {params['schedules']} perturbed schedules",
    ]
    for run in report["runs"]:
        status = "clean"
        if run["error"]:
            status = f"ERROR {run['error']}"
        elif run["violations"] or run["oracle"]:
            status = (f"{run['violations']} violation(s), "
                      f"{len(run['oracle'])} oracle failure(s)")
        lines.append(f"  perturb_seed {run['perturb_seed']}: "
                     f"{run['events']} events — {status}")
        for text in run.get("reports", []):
            lines.append(f"    {text}")
        for text in run.get("oracle", []):
            lines.append(f"    oracle: {text}")
        if "replayed" in run:
            lines.append(
                f"    replay from (seed={params['seed']}, perturb_seed="
                f"{run['perturb_seed']}): "
                + ("EXACT — same violation at the same event positions"
                   if run["replayed"] else "did NOT reproduce (investigate)"))
        for event in run.get("witness_window", [])[:12]:
            lines.append(f"      event {event['index']}: t={event['when']:.3f} "
                         f"seq={event['seq']} {event['label']}")
    lines.append("racecheck: "
                 + ("CLEAN — every schedule atomicity-clean"
                    if report["clean"]
                    else f"{report['violations']} violation(s) across "
                         f"{len(report['runs'])} schedules"))
    return "\n".join(lines)
