"""Smoke tests for the benchmark itself.

Run explicitly (root ``testpaths`` does not list this directory, so the
tier-1 run is unchanged)::

    python -m pytest -q bench/tests
"""

import json
import os
import re

import pytest

from bench import metrics as registry
from bench import run as bench_run
from bench.driver import Oracle, make_payload, parse_payload
from bench.runner import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SIZE = registry.RUN_SECONDS * 0.02


def test_benchmark_json_is_the_registry_and_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc == registry.manifest(), "rerun: python3 bench/run.py --write-manifest"
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for x in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert all(p == "bench" or p.startswith("bench/") for p in doc["command"][1:])


def test_every_workload_runs_small_through_the_cli(capsys):
    assert bench_run.main(["--scale", "0.02", "--no-trace", "--seed", "7"]) == 0
    capsys.readouterr()
    for name in registry.WORKLOADS:
        with open(os.path.join(bench_run.OUT_DIR, f"{name}-seed7-trace0.json")) as fh:
            record = json.load(fh)
        assert record["correct"] and record["attempted"] >= 1
        assert set(record["metrics"]) == {m.name for m in registry.END_TO_END}
        assert all(v > 0 for v in record["metrics"].values()), record["metrics"]


@pytest.mark.parametrize("name", ["paper_mix", "stream_striped"])
def test_layer_split_sums_to_op_latency_and_tracing_is_inert(name):
    record = run_workload(name, 7, SMOKE_SIZE, trace=True)
    assert bench_run._self_checks(record) == []
    assert record["traced_digest"] == record["virtual_digest"]
    again = run_workload(name, 7, SMOKE_SIZE, trace=False)
    assert again["virtual_digest"] == record["virtual_digest"]


def test_oracle_fires_on_planted_corruption():
    oracle = Oracle()
    oracle.register("/d/f", 0)
    seq = oracle.begin_write("/d/f", 0, 1.0)
    good = make_payload("/d/f", 3, seq, 4096)
    oracle.ack_write("/d/f", 0, seq, 2.0)
    assert parse_payload(good) == ("/d/f", 3, seq, 0)
    oracle.check_read("/d/f", good)
    assert oracle.corrupt == 0

    flipped = good[:2000] + bytes([good[2000] ^ 1]) + good[2001:]
    oracle.check_read("/d/f", flipped)            # a torn body
    oracle.check_read("/d/f", good[:-1])          # a truncated reply
    oracle.check_read("/d/other", good)           # a misdirected write
    assert oracle.corrupt == 3 and len(oracle.complaints) == 3

    stale = make_payload("/d/f", 3, oracle.begin_write("/d/f", 0, 3.0), 4096)
    oracle.ack_write("/d/f", 0, oracle.seq, 4.0)
    oracle.check_final("/d/f", stale)             # the last acked write: fine
    assert oracle.lost == 0
    oracle.check_final("/d/f", good)              # an overwritten one came back
    assert oracle.lost == 1


def test_readme_glossary_names_every_metric_and_workload():
    with open(os.path.join(ROOT, "bench", "README.md")) as fh:
        readme = fh.read()
    for name in list(registry.WORKLOADS) + list(registry.by_name()):
        assert f"`{name}`" in readme, name


def test_compare_verdicts():
    from bench.compare import verdict

    def metric(values, better="lower", bound=0.10):
        return {"value": values[0], "values": values, "better": better, "bound": bound}

    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(metric(steady), metric([v * 1.2 for v in steady]))[0] == "worse"
    assert verdict(metric(steady), metric([v * 0.8 for v in steady]))[0] == "better"
    assert verdict(metric(steady), metric([v * 1.005 for v in steady]))[0] == "same"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(metric(noisy), metric(steady))[0] == "unresolved"
    # a same-seed virtual metric repeats exactly: any change is a change
    one = {"value": 10.0, "better": "higher", "bound": 0.10}
    assert verdict(one, {**one, "value": 10.0})[0] == "same"
    assert verdict(one, {**one, "value": 10.1})[0] == "better"
    assert verdict(one, {**one, "value": 8.0})[0] == "worse"
