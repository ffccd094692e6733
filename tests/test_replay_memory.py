"""What a cold start holds in memory while it reads its durable state.

A journal keeps every commit it ever framed, so its file grows with the
cell's history while the live map stays the size of the records still
current.  ``JournalBackend.load`` must stream the file: its traced peak
is the live map plus one frame and a fixed read buffer, whatever the
journal's length, and a corrupt length field must never be allocated.
"""

import os
import subprocess
import sys
import tracemalloc

from repro.storage import JournalBackend
from repro.storage.backend import _HEADER, JOURNAL_MAGIC

MIB = 1024 * 1024
VALUE = 64 * 1024


def _superseded_journal(path, mib: int, keys: int = 4) -> dict:
    """Commit ``mib`` MiB of 64 KiB values round-robin to ``keys`` keys,
    so all but the last value of each key is superseded; return the live
    map a replay must give."""
    b = JournalBackend(str(path), fsync=False)
    live = {}
    for i in range(mib * MIB // VALUE):
        key = f"seg/rep/{i % keys}"
        live[key] = bytes([i % 251]) * VALUE
        b.commit([(key, live[key])], [])
    b.close()
    return live


def _traced_load(backend: JournalBackend) -> tuple[dict, int]:
    """``backend.load()`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        data = backend.load()
        return data, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_memory_does_not_grow_with_the_journal(tmp_path):
    path = tmp_path / "j"
    live = _superseded_journal(path, mib=8)
    assert os.path.getsize(path) > 8 * MIB
    b = JournalBackend(str(path))
    data, peak = _traced_load(b)
    b.close()
    assert data == live
    assert b.replay_stats["batches"] == 8 * MIB // VALUE
    assert peak < 2 * MIB, f"replay peaked at {peak / MIB:.2f} MiB"


def test_a_length_past_eof_is_a_torn_tail_and_never_allocated(tmp_path):
    path = tmp_path / "j"
    live = _superseded_journal(path, mib=2, keys=1)
    clean = os.path.getsize(path)
    with open(path, "ab") as f:  # a header claiming ~2 GiB, then 100 bytes
        f.write(_HEADER.pack(JOURNAL_MAGIC, 0, 2**31 - 1) + b"p" * 100)
    b = JournalBackend(str(path))
    data, peak = _traced_load(b)
    b.close()
    assert data == live
    assert b.replay_stats["torn_tail"]
    assert b.replay_stats["bytes"] == clean
    assert os.path.getsize(path) == clean  # truncated at the torn header
    assert peak < MIB, f"replay peaked at {peak / MIB:.2f} MiB"


def test_the_next_commit_appends_after_the_last_good_frame(tmp_path):
    """The replay reads ahead of the last good frame; the commit after it
    must still land there, not past a truncated tail (a hole of zeros that
    the next replay would call torn)."""
    path = tmp_path / "j"
    live = _superseded_journal(path, mib=4)
    with open(path, "ab") as f:
        f.write(JOURNAL_MAGIC + b"\x01" * 40)  # a torn next frame
    b = JournalBackend(str(path))
    data, peak = _traced_load(b)
    assert data == live and b.replay_stats["torn_tail"]
    assert peak < 2 * MIB, f"replay peaked at {peak / MIB:.2f} MiB"
    b.commit([("post/restart", 1)], [])
    reopened = b.reopen()
    after = reopened.load()
    reopened.close()
    assert after == {**live, "post/restart": 1}
    assert not reopened.replay_stats["torn_tail"]
    assert reopened.replay_stats["bytes"] == os.path.getsize(path)


def test_a_memory_backed_cell_does_not_import_sqlite3():
    probe = ("import sys\n"
             "from repro import build_cluster\n"
             "cell = build_cluster(2, n_agents=1, seed=1)\n"
             "cell.close()\n"
             "assert 'sqlite3' not in sys.modules, 'sqlite3 imported'\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
