"""The benchmark's one command.

Driver contract (one workload, in this process)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the named metrics and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload, each pass in a fresh
subprocess, one after the other (the box has 2 cores), and prints both
tables::

    PYTHONPATH=src python -m bench.run [--seed 42] [--scale F] [--no-trace]
    PYTHONPATH=src python -m bench.run --check-repeat
    PYTHONPATH=src python -m bench.run --seeds 41,42,43 [--write-baseline]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# `python3 bench/run.py` puts bench/ first on sys.path; the package and
# the program under test are found from the checkout root instead
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != BENCH_DIR]
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench import OUT_DIR, metrics as registry  # noqa: E402

BASELINE = os.path.join(BENCH_DIR, "BASELINE.json")


def _table(record: dict) -> str:
    known = registry.by_name()
    lines = [f"{record['workload']}  seed={record['seed']}  n_ops={record['n_ops']}  "
             f"failed={record['failed']}  corrupt={record['corrupt_reads']}  "
             f"acked_lost={record['acked_lost']}  digest={record['virtual_digest'][:16]}"
             + (f"  knee={record['knee']}" if "knee" in record else "")]
    for name, value in record["metrics"].items():
        m = known[name]
        bound = f"  bound {m.bound:.0%}" if m.bound is not None else ""
        lines.append(f"  {name:<38s} {value:>14.4f} {m.unit:<9s} {m.clock:<7s} "
                     f"{m.better} is better{bound}")
    for err, count in sorted(record["errors"].items()):
        lines.append(f"  error x{count}: {err}")
    for complaint in record["complaints"]:
        lines.append(f"  ORACLE: {complaint}")
    return "\n".join(lines)


def _self_checks(record: dict) -> list[str]:
    """The traced pass's own invariants (float tolerance)."""
    m = record["metrics"]
    problems = []
    if record["traced_digest"] != record["virtual_digest"]:
        problems.append("tracing perturbed the model: traced virtual_digest differs")
    split = sum(m[name] for name in registry.SELF_VMS) + m["bench.gen_lag_mean_vms"]
    if abs(split - record["traced_mean_op_vms"]) > 1e-6 * max(1.0, split):
        problems.append(f"layer self_vms sum to {split!r}, mean op latency is "
                        f"{record['traced_mean_op_vms']!r}")
    shares = sum(m[name] for name in registry.HOST_SHARES)
    if abs(shares - 1.0) > 1e-9:
        problems.append(f"host shares sum to {shares!r}")
    return problems


def run_one(args) -> int:
    """Driver-contract mode: one workload, here, now."""
    from bench.runner import run_workload
    record = run_workload(args.workload, args.seed, args.seconds * args.scale,
                          trace=bool(args.trace))
    problems = _self_checks(record) if args.trace else []
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_record_path(args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1)
    print(_table(record))
    for problem in problems:
        print(f"  SELF-CHECK FAILED: {problem}")
    units = {name: m.unit for name, m in registry.by_name().items()}
    print(json.dumps({
        "correct": record["correct"] and not problems,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0 if record["correct"] and not problems else 1


def _record_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")


def _child(workload: str, seed: int, args, trace: int) -> dict:
    """One pass in a fresh subprocess; returns its saved record."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--scale", str(args.scale), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    print(done.stdout.rsplit("\n", 2)[0], flush=True)   # the table, not the JSON line
    if done.returncode:
        raise SystemExit(f"bench: {workload} --trace {trace} exited {done.returncode}")
    with open(_record_path(workload, seed, trace)) as fh:
        return json.load(fh)


def run_set(args, seed: int, trace: bool) -> dict[str, dict]:
    """Every selected workload once: ``{workload: {"e2e": rec, "layers": rec}}``."""
    out = {}
    for name in args.only or registry.WORKLOADS:
        out[name] = {"e2e": _child(name, seed, args, 0)}
        if trace:
            out[name]["layers"] = _child(name, seed, args, 1)
    return out


def _spread(values: list[float]) -> float:
    """Interquartile range / median from four values up (the driver's
    own measure), (max - min) / median below that."""
    if len(values) >= 4:
        q = statistics.quantiles(values, n=4)
        width = q[2] - q[0]
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def _baseline_entry(name: str, runs: dict, seed_values: dict | None) -> dict:
    known = registry.by_name()

    def rows(record):
        return {n: {"value": v, "unit": known[n].unit, "clock": known[n].clock,
                    "better": known[n].better,
                    **({"bound": known[n].bound} if known[n].bound is not None
                       else {"moves": known[n].moves})}
                for n, v in record["metrics"].items()}

    e2e = runs["e2e"]
    entry = {"why": registry.WORKLOADS[name], "n_ops": e2e["n_ops"],
             "failed": e2e["failed"], "errors": e2e["errors"],
             "virtual_digest": e2e["virtual_digest"],
             "rounds": e2e["rounds"], "end_to_end": rows(e2e)}
    for metric, values in (seed_values or {}).items():
        entry["end_to_end"][metric].update(values=values, spread=_spread(values))
    if "knee" in e2e:
        entry["knee"] = e2e["knee"]
    if "layers" in runs:
        entry["per_layer"] = rows(runs["layers"])
    return entry


def write_baseline(args, results: dict, seed_values: dict | None = None) -> None:
    """``bench/BASELINE.json``: the numbers of the defining run (and,
    after ``--seeds``, each end-to-end metric's value per seed and their
    spread).  This PR defines the ruler, so it ends in ``"claim": null``."""
    workloads = {}
    if args.only and os.path.exists(BASELINE):   # a partial run updates its own rows
        with open(BASELINE) as fh:
            workloads = json.load(fh)["workloads"]
    workloads.update({n: _baseline_entry(n, r, (seed_values or {}).get(n))
                      for n, r in results.items()})
    doc = {"command": "PYTHONPATH=src python -m bench.run --write-baseline",
           "seed": args.seed, "seeds": args.seeds or [args.seed],
           "seconds": args.seconds, "scale": args.scale,
           "workloads": workloads, "claim": None}
    with open(BASELINE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(BASELINE, ROOT)}")


def check_repeat(args) -> int:
    """Two full sets of the same code must agree within the benchmark's
    own bounds: equal ``virtual_digest``, host metrics within bound, no
    round flagged contended."""
    first, second = run_set(args, args.seed, True), run_set(args, args.seed, True)
    bad = []
    for name in first:
        a, b = first[name], second[name]
        if a["e2e"]["virtual_digest"] != b["e2e"]["virtual_digest"]:
            bad.append(f"{name}: virtual_digest differs between identical runs")
        for m in registry.END_TO_END:
            if m.clock == "host":
                x, y = a["e2e"]["metrics"][m.name], b["e2e"]["metrics"][m.name]
                print(f"{name:<15s} {m.name:<15s} {x:12.4f} {y:12.4f} "
                      f"{abs(y - x) / x:7.2%} of {m.bound:.0%}")
                if abs(y - x) > m.bound * x:
                    bad.append(f"{name}: {m.name} moved {abs(y - x) / x:.1%} (bound {m.bound:.0%})")
        for run in (a, b):
            if run["layers"]["metrics"]["bench.contended"]:
                bad.append(f"{name}: a round was flagged bench.contended")
    for line in bad:
        print("REPEAT CHECK FAILED:", line)
    print("repeat check:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def calibrate(args) -> int:
    """One-off across-seed calibration: every end-to-end metric's spread
    over ``--seeds`` beside its bound (the driver compares runs made with
    different seeds, so a bound has to cover this)."""
    per_seed = {seed: run_set(args, seed, False) for seed in args.seeds}
    seed_values: dict[str, dict[str, list[float]]] = {}
    for name in next(iter(per_seed.values())):
        seed_values[name] = {}
        for m in registry.END_TO_END:
            values = [per_seed[s][name]["e2e"]["metrics"][m.name] for s in args.seeds]
            seed_values[name][m.name] = values
            print(f"{name:<15s} {m.name:<20s} spread {_spread(values):7.2%}  "
                  f"bound {m.bound:.0%}  {m.clock}")
    if args.write_baseline:
        write_baseline(args, run_set(args, args.seed, True), seed_values)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=list(registry.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=float(registry.RUN_SECONDS),
                    help="host seconds the measured windows took at the defining commit")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="one common factor on every virtual duration")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only", action="append", choices=list(registry.WORKLOADS),
                    help="full run: restrict to these workloads (repeatable)")
    ap.add_argument("--no-trace", action="store_true",
                    help="full run: skip the traced and profile passes")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")])
    ap.add_argument("--write-baseline", action="store_true",
                    help="record this run's numbers in bench/BASELINE.json")
    ap.add_argument("--write-manifest", action="store_true",
                    help="render BENCHMARK.json from bench/metrics.py and exit")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/ - nothing to measure", file=sys.stderr)
        return 2

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(registry.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload:
        return run_one(args)
    if args.check_repeat:
        return check_repeat(args)
    if args.seeds:
        return calibrate(args)
    results = run_set(args, args.seed, not args.no_trace)
    if args.write_baseline:
        write_baseline(args, results)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # crash_restart's virtual timeline depends on str-hash order (README,
        # "known findings"); pin it so a seed means one timeline everywhere
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
