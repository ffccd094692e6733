"""The determinism-contract toolchain: detlint rules, the runtime guard,
the witness chain, and the detcheck bisector.

Lint fixtures are tiny inline modules — one violating and one clean
snippet per rule — pushed through :func:`lint_source` with a sim-domain
path so the allowlist does not apply.  The dynamic half runs real (small)
clusters: same-seed witness chains must match, the guard must trip on a
host-clock read inside the loop and stay inert outside it, and detcheck
with an injected fault must bisect to the first divergent event.
"""

from __future__ import annotations

import pytest

from repro.analysis.detlint import (ALLOWLIST, RULES, lint_paths,
                                    lint_source)
from repro.analysis.guard import DeterminismError
from repro.analysis.witness import (WitnessRecorder,
                                    first_divergent_checkpoint)

SIM_PATH = "src/repro/sim/fixture.py"  # sim domain: no allowlist entry


def rules_of(violations):
    return sorted({v.rule for v in violations})


# --------------------------------------------------------------------- #
# rule fixtures: one violating + one clean snippet per rule
# --------------------------------------------------------------------- #

class TestWallclockRule:
    def test_time_module_call_flagged(self):
        src = "import time\n\ndef f():\n    return time.monotonic()\n"
        vs = lint_source(src, SIM_PATH)
        assert rules_of(vs) == ["wallclock"]
        assert vs[0].line == 4

    def test_from_import_flagged(self):
        src = ("from time import perf_counter\n\n"
               "def f():\n    return perf_counter()\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["wallclock"]

    def test_datetime_now_flagged(self):
        src = ("import datetime\n\n"
               "def f():\n    return datetime.datetime.now()\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["wallclock"]

    def test_kernel_now_clean(self):
        src = ("def f(kernel):\n"
               "    deadline = kernel.now + 5.0\n"
               "    return deadline\n")
        assert lint_source(src, SIM_PATH) == []

    def test_time_sleep_not_a_clock_read(self):
        # time.sleep blocks but reads nothing ordering-relevant; detlint
        # only polices clock *reads* (perf harnesses sleep legitimately).
        src = "import time\n\ndef f():\n    time.sleep(0.1)\n"
        assert lint_source(src, SIM_PATH) == []


class TestEntropyRule:
    def test_global_random_flagged(self):
        src = "import random\n\ndef f():\n    return random.random()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["entropy"]

    def test_unseeded_random_flagged(self):
        src = "import random\n\ndef f():\n    return random.Random()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["entropy"]

    def test_from_import_shuffle_flagged(self):
        src = ("from random import shuffle\n\n"
               "def f(items):\n    shuffle(items)\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["entropy"]

    def test_seeded_random_clean(self):
        src = ("import random\n\n"
               "def f(seed):\n    return random.Random(seed)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_injected_rng_clean(self):
        src = "def f(rng):\n    return rng.random()\n"
        assert lint_source(src, SIM_PATH) == []


class TestOsEntropyRule:
    def test_urandom_flagged(self):
        src = "import os\n\ndef f():\n    return os.urandom(8)\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["osentropy"]

    def test_uuid4_flagged(self):
        src = "import uuid\n\ndef f():\n    return uuid.uuid4()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["osentropy"]

    def test_secrets_flagged(self):
        src = "import secrets\n\ndef f():\n    return secrets.token_hex()\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["osentropy"]

    def test_os_path_clean(self):
        src = "import os\n\ndef f(p):\n    return os.path.join(p, 'x')\n"
        assert lint_source(src, SIM_PATH) == []


class TestIdOrderRule:
    def test_id_as_sort_key_flagged(self):
        src = "def f(items):\n    return sorted(items, key=lambda x: id(x))\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["idorder"]

    def test_id_ordering_comparison_flagged(self):
        src = "def f(a, b):\n    return id(a) < id(b)\n"
        assert rules_of(lint_source(src, SIM_PATH)) == ["idorder"]

    def test_id_for_identity_clean(self):
        # membership bookkeeping by id() is legal — only ordering is not
        src = ("def f(seen, obj):\n"
               "    if id(obj) in seen:\n"
               "        return True\n"
               "    seen.add(id(obj))\n    return False\n")
        assert lint_source(src, SIM_PATH) == []


class TestIterOrderRule:
    def test_dict_items_feeding_send_flagged(self):
        src = ("def f(net, peers):\n"
               "    for addr, msg in peers.items():\n"
               "        net.send(addr, msg)\n")
        vs = lint_source(src, SIM_PATH)
        assert rules_of(vs) == ["iterorder"]
        assert vs[0].line == 2

    def test_dict_values_completing_futures_flagged(self):
        src = ("def f(waits, exc):\n"
               "    for fut in waits.values():\n"
               "        fut.try_set_exception(exc)\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["iterorder"]

    def test_set_literal_feeding_spawn_flagged(self):
        src = ("def f(proc):\n"
               "    for peer in {'s1', 's0'}:\n"
               "        proc.spawn(peer)\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["iterorder"]

    def test_set_typed_name_flagged(self):
        src = ("def f(proc, members):\n"
               "    suspects = set(members)\n"
               "    for peer in suspects:\n"
               "        proc.send(peer, 'probe')\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["iterorder"]

    def test_comprehension_with_rng_draw_flagged(self):
        src = ("def f(rng, table):\n"
               "    return [rng.choice(v) for v in table.values()]\n")
        assert rules_of(lint_source(src, SIM_PATH)) == ["iterorder"]

    def test_sorted_wrap_clean(self):
        src = ("def f(net, peers):\n"
               "    for addr, msg in sorted(peers.items()):\n"
               "        net.send(addr, msg)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_list_of_sorted_clean(self):
        # order-preserving wrappers are unwrapped before judging
        src = ("def f(net, peers):\n"
               "    for addr, msg in list(sorted(peers.items())):\n"
               "        net.send(addr, msg)\n")
        assert lint_source(src, SIM_PATH) == []

    def test_effect_free_loop_clean(self):
        src = ("def f(table):\n"
               "    total = 0\n"
               "    for v in table.values():\n"
               "        total += v\n"
               "    return total\n")
        assert lint_source(src, SIM_PATH) == []

    def test_list_iteration_clean(self):
        src = ("def f(net, peers):\n"
               "    for addr in peers:\n"
               "        net.send(addr, 'hello')\n")
        # peers is an untyped parameter — not provably a set
        assert lint_source(src, SIM_PATH) == []

    # the pattern that slipped through: core/replication.py as it stood
    # before the LRU tie-break fix (holders is a set[str] declared in
    # another module; the .add() elsewhere in the file is what shows it)
    LRU_VICTIMS = (
        "class ReplicationMixin:\n"
        "    def _note_replica(self, info, target):\n"
        "        info.holders.add(target)\n"
        "\n"
        "    def _pick_lru_victims(self, info, excess, now):\n"
        "        candidates = [\n"
        "            h for h in {holders}\n"
        "            if h != self.proc.addr\n"
        "            and now - info.read_ts.get(h, 0.0) > REPLICA_IDLE_MS\n"
        "        ]\n"
        "        candidates.sort(key=lambda h: info.read_ts.get(h, 0.0))\n"
        "        return candidates[:excess]\n")

    def test_keyed_sort_of_list_built_from_set_flagged(self):
        vs = lint_source(self.LRU_VICTIMS.format(holders="info.holders"),
                         SIM_PATH)
        assert rules_of(vs) == ["iterorder"]
        assert vs[0].line == 11             # the .sort(key=...) call
        assert "ties" in vs[0].message

    def test_keyed_sort_of_list_built_from_sorted_set_clean(self):
        src = self.LRU_VICTIMS.format(holders="sorted(info.holders)")
        assert lint_source(src, SIM_PATH) == []

    def test_keyed_min_max_sorted_over_set_flagged(self):
        for call in ("sorted(peers, key=load.get)",
                     "min(peers, key=load.get)",
                     "max((p for p in peers if p), key=load.get)"):
            src = ("def f(members, load):\n"
                   "    peers = set(members)\n"
                   f"    return {call}\n")
            assert rules_of(lint_source(src, SIM_PATH)) == ["iterorder"], call

    def test_unkeyed_sort_and_keyed_dict_view_clean(self):
        # no key: equal elements are interchangeable; a dict view ties in
        # insertion order, which the seed decides, not the hash salt
        src = ("def f(members, table):\n"
               "    peers = set(members)\n"
               "    first = sorted(peers)\n"
               "    return first, sorted(table.items(), key=lambda kv: kv[1])\n")
        assert lint_source(src, SIM_PATH) == []

    def test_hash_ordered_name_is_scoped_to_its_function(self):
        src = ("def f(members, load):\n"
               "    peers = [p for p in set(members)]\n"
               "    return len(peers)\n"
               "\n"
               "def g(peers, load):\n"
               "    return sorted(peers, key=load.get)\n")
        assert lint_source(src, SIM_PATH) == []


# --------------------------------------------------------------------- #
# pragmas and allowlist
# --------------------------------------------------------------------- #

class TestPragmas:
    VIOLATING = ("import time\n\n"
                 "def f():\n"
                 "    return time.time()")

    def test_pragma_with_reason_suppresses(self):
        src = (self.VIOLATING
               + "  # detlint: ok(wallclock) - harness-side timing\n")
        assert lint_source(src, SIM_PATH) == []

    def test_pragma_on_line_above_suppresses(self):
        src = ("import time\n\n"
               "def f():\n"
               "    # detlint: ok(wallclock) - harness-side timing\n"
               "    return time.time()\n")
        assert lint_source(src, SIM_PATH) == []

    def test_pragma_without_reason_is_a_violation(self):
        src = self.VIOLATING + "  # detlint: ok(wallclock)\n"
        vs = lint_source(src, SIM_PATH)
        # the reasonless pragma is flagged AND does not suppress
        assert rules_of(vs) == ["pragma", "wallclock"]

    def test_pragma_unknown_rule_is_a_violation(self):
        src = self.VIOLATING + "  # detlint: ok(nonsense) - because\n"
        assert "pragma" in rules_of(lint_source(src, SIM_PATH))

    def test_pragma_for_wrong_rule_does_not_suppress(self):
        src = self.VIOLATING + "  # detlint: ok(entropy) - wrong rule\n"
        assert "wallclock" in rules_of(lint_source(src, SIM_PATH))

    def test_pragma_examples_in_docstrings_ignored(self):
        src = ('"""Docs may quote `# detlint: ok(broken` freely."""\n'
               "X = 1\n")
        assert lint_source(src, SIM_PATH) == []

    def test_multi_rule_pragma(self):
        src = ("import time, random\n\n"
               "def f():  # detlint: ok(wallclock, entropy) - demo seam\n"
               "    return time.time() + random.random()\n")
        assert lint_source(src, SIM_PATH) == []


class TestAllowlist:
    def test_backend_exempt_from_everything(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(src, "src/repro/storage/backend.py") == []

    def test_cli_exempt_from_wallclock_only(self):
        clock = "import time\n\ndef f():\n    return time.time()\n"
        assert lint_source(clock, "src/repro/cli.py") == []
        rng = "import random\n\ndef f():\n    return random.random()\n"
        assert rules_of(lint_source(rng, "src/repro/cli.py")) == ["entropy"]

    def test_every_allowlist_entry_states_a_reason(self):
        for suffix, _rules, reason in ALLOWLIST:
            assert reason.strip(), f"allowlist entry {suffix} lacks a reason"


# --------------------------------------------------------------------- #
# the tree itself
# --------------------------------------------------------------------- #

def test_rule_catalog_is_documented():
    assert set(RULES) == {"wallclock", "entropy", "osentropy", "idorder",
                          "iterorder", "pragma"}
    assert all(desc.strip() for desc in RULES.values())


def test_src_tree_is_clean():
    """The acceptance gate: zero unsuppressed violations under src/."""
    violations = lint_paths(["src"])
    assert violations == [], "\n".join(v.format() for v in violations)


# --------------------------------------------------------------------- #
# witness chain
# --------------------------------------------------------------------- #

def _witnessed_run(seed: int, detail_range=None, fault_at=None,
                   fault_fn_of=None):
    from repro.testbed import build_cluster
    from repro.workloads import hotspot_config, WorkloadGenerator
    from repro.workloads.replay import replay

    cfg = hotspot_config(n_clients=2, duration_ms=400.0, seed=seed)
    ops = WorkloadGenerator(cfg).generate()
    cluster = build_cluster(n_servers=4, n_agents=2, seed=seed)
    witness = WitnessRecorder(checkpoint_interval=64,
                              detail_range=detail_range)
    if fault_at is not None:
        witness.fault_at = fault_at
        witness.fault_fn = (fault_fn_of or
                            (lambda c: c.network.rng.random))(cluster)
    cluster.kernel.set_witness(witness)
    try:
        cluster.run(replay(cluster, ops))
    finally:
        cluster.close()
    return witness


def test_witness_same_seed_chains_match():
    w1 = _witnessed_run(seed=11)
    w2 = _witnessed_run(seed=11)
    assert w1.index > 100  # a real run, not a stub
    assert w1.matches(w2)
    assert w1.checkpoints == w2.checkpoints


def test_witness_different_seeds_diverge():
    assert not _witnessed_run(seed=11).matches(_witnessed_run(seed=12))


def test_witness_fault_injection_diverges():
    clean = _witnessed_run(seed=11)
    faulted = _witnessed_run(seed=11, fault_at=100)
    assert not clean.matches(faulted)
    ckpt = first_divergent_checkpoint(clean.checkpoints, faulted.checkpoints)
    assert ckpt is not None
    # fault before event 100 → first divergence at or after checkpoint 1,
    # i.e. the window [ckpt*64, (ckpt+1)*64) starts at or after event 64
    assert ckpt >= 1


def test_first_divergent_checkpoint_binary_search():
    a = [1, 2, 3, 4, 5]
    assert first_divergent_checkpoint(a, [1, 2, 3, 4, 5]) is None
    assert first_divergent_checkpoint(a, [1, 2, 9, 9, 9]) == 2
    assert first_divergent_checkpoint(a, [9, 9, 9, 9, 9]) == 0
    assert first_divergent_checkpoint(a, [1, 2, 3, 4, 9]) == 4
    assert first_divergent_checkpoint(a, [1, 2, 3]) is None  # shared prefix ok
    assert first_divergent_checkpoint([], []) is None


# One replicated file on six servers, written twice from the far end of
# the cell after REPLICA_IDLE_MS of quiet.  set_params blast-copies s0's
# replica to three peers, which inherit its read stamp.  The writes are
# range writes, which enter at the agent's mount server s5 and take the
# token there (a whole-file write would go to the token holder, and the
# token would not move); s5 then holds one replica too many and must drop
# the least recently used of replicas that tie.
_LRU_DROP_SCENARIO = """
from repro.agent import AgentConfig
from repro.analysis.witness import WitnessRecorder
from repro.testbed import build_cluster

cluster = build_cluster(6, 6, seed=7, scatter_agents=True,
                        agent_config=AgentConfig(cache=False))
witness = WitnessRecorder(checkpoint_interval=64)
cluster.kernel.set_witness(witness)
first, last = cluster.agents[0], cluster.agents[-1]

async def main():
    await first.mount()
    await last.mount()
    await first.create("/", "f")
    await first.set_params("/f", min_replicas=4)
    await first.write_file("/f", b"one")
    await cluster.kernel.sleep(6000.0)
    await last.write_at("/f", 0, b"two")
    await last.write_at("/f", 0, b"three")
    await cluster.kernel.sleep(500.0)

cluster.run(main())
print(cluster.metrics.get("deceit.replicas_lru_dropped"), witness.chain)
"""


def test_one_seed_one_timeline_under_any_hash_salt():
    """A seed names one virtual timeline whatever ``PYTHONHASHSEED`` is:
    the LRU replica drop used to break stamp ties in set-hash order."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outputs = []
    for salt in ("0", "4"):
        done = subprocess.run(
            [sys.executable, "-c", _LRU_DROP_SCENARIO],
            env={**os.environ, "PYTHONHASHSEED": salt, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert int(outputs[0][0]) >= 1          # the scenario reached the drop
    assert outputs[0] == outputs[1]


def test_witness_off_by_default():
    from repro.testbed import build_cluster
    cluster = build_cluster(n_servers=2)
    assert cluster.kernel._witness is None
    cluster.close()


# --------------------------------------------------------------------- #
# runtime guard
# --------------------------------------------------------------------- #

def test_guard_trips_on_wallclock_inside_sim():
    import time as time_mod
    from repro.testbed import build_cluster

    cluster = build_cluster(n_servers=2, det_guard=True)

    async def naughty():
        return time_mod.time()

    with pytest.raises(DeterminismError, match="time.time"):
        cluster.run(naughty())
    # outside the dispatch loop the wrapper passes through
    assert time_mod.time() > 0
    cluster.close()
    # after the last release the original attribute is restored
    assert not hasattr(time_mod.time, "_det_guard_original")


def test_guard_trips_on_unseeded_random_inside_sim():
    import random as random_mod
    from repro.testbed import build_cluster

    cluster = build_cluster(n_servers=2, det_guard=True)

    async def naughty():
        return random_mod.Random()

    async def fine():
        return random_mod.Random(7).random()

    with pytest.raises(DeterminismError, match="without a seed"):
        cluster.run(naughty())
    assert 0.0 <= cluster.run(fine()) < 1.0  # seeded construction is legal
    cluster.close()


def test_guarded_cluster_runs_the_demo_clean():
    """The existing codebase honors its own contract under the guard."""
    from repro.testbed import build_cluster

    cluster = build_cluster(n_servers=3, n_agents=1, det_guard=True)
    agent = cluster.agents[0]

    async def scenario():
        await agent.mount()
        await agent.create("/", "f.txt")
        await agent.write_file("/f.txt", b"guarded")
        return await agent.read_file("/f.txt")

    assert cluster.run(scenario()) == b"guarded"
    cluster.close()


def test_guard_refcounts_across_clusters():
    import time as time_mod
    from repro.testbed import build_cluster

    c1 = build_cluster(n_servers=2, det_guard=True)
    c2 = build_cluster(n_servers=2, det_guard=True)
    assert c1.det_guard is c2.det_guard  # shared singleton
    c1.close()
    # still installed: c2 holds a reference
    assert hasattr(time_mod.time, "_det_guard_original")
    c2.close()
    assert not hasattr(time_mod.time, "_det_guard_original")


# --------------------------------------------------------------------- #
# detcheck
# --------------------------------------------------------------------- #

def test_detcheck_identical_runs():
    from repro.analysis.detcheck import detcheck, format_report

    report = detcheck(workload="hotspot", n_servers=4, n_agents=2,
                      duration_ms=400.0, seed=21, checkpoint_interval=128)
    assert report["identical"]
    assert report["run1"]["chain"] == report["run2"]["chain"]
    assert "IDENTICAL" in format_report(report)


def test_detcheck_bisects_injected_fault():
    from repro.analysis.detcheck import detcheck, format_report

    fault_at = 300
    report = detcheck(workload="hotspot", n_servers=4, n_agents=2,
                      duration_ms=400.0, seed=21, checkpoint_interval=128,
                      inject_fault_at=fault_at)
    assert not report["identical"]
    lo, hi = report["window"]["events"]
    first = report["first_divergent"]
    assert first is not None, "bisector must name the first divergent event"
    # the named event sits inside the bisected window, at or after the
    # fault injection point (the stolen draw shifts only later samples)
    assert lo <= first["index"] < hi
    assert first["index"] >= fault_at
    # both sides carry scheduling context for the divergent event
    for side in ("run1", "run2"):
        if side in first:
            assert {"when", "seq", "label"} <= set(first[side])
    text = format_report(report)
    assert "DIVERGED" in text and "first divergent event" in text
