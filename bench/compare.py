"""Compare two benchmark records, one row per workload x metric.

    PYTHONPATH=src python -m bench.compare OLD.json NEW.json

Both files are in the ``bench/BASELINE.json`` format (``--write-baseline``).
A metric entry carries ``value`` (the defining-seed run) and, after a
``--seeds`` calibration, ``values`` (one per seed); medians and the
interquartile spread come from ``values`` when there are at least four.

Verdicts for an end-to-end metric with bound ``b``:

- ``unresolved`` - either side's spread (IQR / median) exceeds ``b``: the
  runs cannot tell a regression of that size from noise;
- ``worse``      - the new median is worse than the old by more than ``b``;
- ``better``     - it is better by more than the spread (by any amount for
  a same-seed virtual metric, which repeats exactly);
- ``same``       - anything else.

Per-layer metrics have no bound: they are ``better`` / ``worse`` / ``same``
by direction alone and explain an end-to-end change, never justify one.
Every ratio is printed with its base (the old median).
"""

from __future__ import annotations

import json
import statistics
import sys


def _summary(entry: dict) -> tuple[float, float | None]:
    """(median, IQR / median or None when fewer than four values)."""
    values = entry.get("values") or [entry["value"]]
    median = statistics.median(values)
    if len(values) < 4 or not median:
        return median, None
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / abs(median)


def verdict(old: dict, new: dict) -> tuple[str, float, float, float | None]:
    """``(verdict, old median, new median, spread)`` for one metric."""
    a, spread_a = _summary(old)
    b, spread_b = _summary(new)
    known = [s for s in (spread_a, spread_b) if s is not None]
    spread = max(known) if known else None
    sign = 1.0 if old["better"] == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else (0.0 if b == a else sign * float("inf"))
    bound = old.get("bound")
    if bound is None:
        return ("same" if b == a else "worse" if worse_by > 0 else "better"), a, b, spread
    if spread is not None and spread > bound:
        return "unresolved", a, b, spread
    if worse_by > bound:
        return "worse", a, b, spread
    if -worse_by > (spread or 0.0):
        return "better", a, b, spread
    return "same", a, b, spread


def compare(old_doc: dict, new_doc: dict) -> list[tuple]:
    rows = []
    for workload, old_w in old_doc["workloads"].items():
        new_w = new_doc["workloads"].get(workload)
        if new_w is None:
            continue
        same_seed = old_doc.get("seed") == new_doc.get("seed")
        if same_seed and old_w["virtual_digest"] == new_w["virtual_digest"]:
            rows.append((workload, "virtual_digest", "same", None, None, None, "", False))
        for section in ("end_to_end", "per_layer"):
            for name, old_m in old_w.get(section, {}).items():
                new_m = new_w.get(section, {}).get(name)
                if new_m is not None:
                    rows.append((workload, name, *verdict(old_m, new_m), old_m["unit"],
                                 section == "end_to_end"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    print(f"{'workload':<15s} {'metric':<38s} {'verdict':<11s} {'old (base)':>14s} "
          f"{'new':>14s} {'new/old':>8s} {'spread':>7s}  unit")
    worse = 0
    for workload, name, what, a, b, spread, unit, bounded in compare(*docs):
        if a is None:
            print(f"{workload:<15s} {name:<38s} {what:<11s}")
            continue
        ratio = f"{b / a:8.4f}" if a else "     n/a"
        shown = f"{spread:7.2%}" if spread is not None else "    n/a"
        print(f"{workload:<15s} {name:<38s} {what:<11s} {a:>14.4f} {b:>14.4f} "
              f"{ratio} {shown}  {unit}")
        worse += what == "worse" and bounded
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
