"""Trace generator for the §2.3 access-pattern assumptions."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum


class OpKind(Enum):
    """Client-visible operations, matching the paper's op-mix list (plus
    the two *ranged* kinds the large-file streaming mix uses)."""

    GETATTR = "getattr"
    LOOKUP = "lookup"
    READ = "read"
    WRITE = "write"
    CREATE = "create"
    REMOVE = "remove"
    READDIR = "readdir"
    #: sequential chunked scan over a large file (one op per chunk)
    READ_RANGE = "read_range"
    #: positioned write of one chunk at a random offset
    WRITE_RANGE = "write_range"


@dataclass(frozen=True)
class Op:
    """One trace entry: which client touches which file, how, and when.
    ``offset`` only matters for the ranged kinds."""

    at_ms: float
    client: int
    kind: OpKind
    path: str
    size: int = 0
    offset: int = 0


@dataclass
class FileProfile:
    """A synthetic file: its directory, name, and size."""

    path: str
    size: int


@dataclass
class WorkloadConfig:
    """Tunable knobs, defaulted to the paper's assumptions.

    The op mix follows §2.3 ("the vast majority of NFS operations are get
    attribute, lookup, read, and write"); sizes follow "most files are
    small, i.e. less than 20 kilobytes"; ``dir_zipf_s`` concentrates
    activity in a few directories; bursts model "long periods of total
    inactivity punctuated by high activity where they may be rewritten
    several times in a few minutes".
    """

    n_clients: int = 4
    n_dirs: int = 8
    files_per_dir: int = 12
    duration_ms: float = 60_000.0
    mean_interarrival_ms: float = 40.0
    op_mix: dict[OpKind, float] = field(default_factory=lambda: {
        OpKind.GETATTR: 0.38,
        OpKind.LOOKUP: 0.24,
        OpKind.READ: 0.20,
        OpKind.WRITE: 0.10,
        OpKind.CREATE: 0.03,
        OpKind.REMOVE: 0.02,
        OpKind.READDIR: 0.03,
    })
    median_file_bytes: int = 4096
    max_file_bytes: int = 20 * 1024   # "most files are small"
    dir_zipf_s: float = 1.2           # directory-locality skew
    #: When set, file choice is Zipf(s) over the popularity-ranked *whole*
    #: population (a skewed hotspot) instead of two-level dir/file picking.
    file_zipf_s: float | None = None
    burst_length: int = 4             # rewrites per write burst
    write_share_collision_prob: float = 0.01  # concurrent writes are rare
    #: chunk size for the ranged kinds (scan steps and range writes)
    range_chunk_bytes: int = 64 * 1024
    seed: int = 0


def zipf_weights(n: int, s: float) -> list[float]:
    """Unnormalized Zipf(s) popularity weights over ranks ``0..n-1``.

    The shared skew primitive: directory locality and the hotspot
    workload both draw from this shape."""
    return [1.0 / (rank + 1) ** s for rank in range(n)]


def hotspot_config(**overrides) -> WorkloadConfig:
    """A skewed-hotspot profile: Zipf file popularity and a read-heavy mix.

    Models many clients hammering a small hot set through whatever server
    they mounted — as opposed to the paper's §2.3 baseline mix.  Keyword
    overrides replace any :class:`WorkloadConfig` field.
    """
    base: dict = dict(
        file_zipf_s=1.2,
        mean_interarrival_ms=15.0,
        op_mix={
            OpKind.GETATTR: 0.15,
            OpKind.LOOKUP: 0.10,
            OpKind.READ: 0.60,
            OpKind.WRITE: 0.10,
            OpKind.CREATE: 0.02,
            OpKind.REMOVE: 0.01,
            OpKind.READDIR: 0.02,
        },
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def streaming_config(**overrides) -> WorkloadConfig:
    """A large-file streaming mix: sequential scans plus random range
    writes over a small population of multi-megabyte files.

    Models the §6.2 data-collection-and-dispersion regime the striping
    layer exists for — captures scanned front to back in chunks while
    analysis jobs rewrite regions in place — as opposed to §2.3's
    whole-small-file baseline.  Replay it with its
    :data:`NAMED_FILE_PARAMS` entry (``replay(..., file_params=...)``) so
    the population is striped.  Keyword overrides replace any
    :class:`WorkloadConfig` field.
    """
    base: dict = dict(
        n_dirs=2,
        files_per_dir=3,
        median_file_bytes=1024 * 1024,
        max_file_bytes=2 * 1024 * 1024,
        range_chunk_bytes=256 * 1024,
        mean_interarrival_ms=150.0,
        duration_ms=20_000.0,
        op_mix={
            OpKind.GETATTR: 0.10,
            OpKind.LOOKUP: 0.05,
            OpKind.READ_RANGE: 0.45,
            OpKind.WRITE_RANGE: 0.30,
            OpKind.READ: 0.05,
            OpKind.WRITE: 0.05,
        },
    )
    base.update(overrides)
    return WorkloadConfig(**base)


class WorkloadGenerator:
    """Produces a file population and an operation trace."""

    def __init__(self, config: WorkloadConfig | None = None):
        self.config = config or WorkloadConfig()
        self.rng = random.Random(self.config.seed)
        self.files: list[FileProfile] = []
        self.dirs: list[str] = []
        self._build_population()

    def _build_population(self) -> None:
        cfg = self.config
        for d in range(cfg.n_dirs):
            dirpath = f"/dir{d}"
            self.dirs.append(dirpath)
            for f in range(cfg.files_per_dir):
                size = self._file_size()
                self.files.append(FileProfile(f"{dirpath}/file{f}", size))
        # the population is fixed from here on: compute choice weights once
        self._dir_weights = zipf_weights(cfg.n_dirs, cfg.dir_zipf_s)
        self._file_weights = (
            zipf_weights(len(self.files), cfg.file_zipf_s)
            if cfg.file_zipf_s is not None else None
        )

    def _file_size(self) -> int:
        """Log-normal-ish small sizes, capped at the paper's 20 KB bound."""
        cfg = self.config
        size = int(self.rng.lognormvariate(
            mu=_ln(cfg.median_file_bytes), sigma=0.9))
        return max(64, min(size, cfg.max_file_bytes))

    def _pick_dir_index(self) -> int:
        """Zipf-like directory choice: activity clusters in few dirs."""
        cfg = self.config
        return self.rng.choices(range(cfg.n_dirs),
                                weights=self._dir_weights)[0]

    def _pick_file(self) -> FileProfile:
        cfg = self.config
        if self._file_weights is not None:
            index = self.rng.choices(range(len(self.files)),
                                     weights=self._file_weights)[0]
            return self.files[index]
        d = self._pick_dir_index()
        index = d * cfg.files_per_dir + self.rng.randrange(cfg.files_per_dir)
        return self.files[index]

    def _pick_kind(self) -> OpKind:
        kinds = list(self.config.op_mix)
        weights = [self.config.op_mix[k] for k in kinds]
        return self.rng.choices(kinds, weights=weights)[0]

    def generate(self) -> list[Op]:
        """Produce the trace, sorted by time.

        Writes come in bursts (whole-file rewrites a few times in quick
        succession); each file has a single "owning" client for writes
        except with small probability, keeping write sharing rare.
        """
        cfg = self.config
        ops: list[Op] = []
        owner: dict[str, int] = {}
        # files this trace created (safe to remove), each with its creator:
        # open-loop, another client's remove could overtake a queued create
        removable: list[tuple[str, int]] = []
        t = 0.0
        while t < cfg.duration_ms:
            t += self.rng.expovariate(1.0 / cfg.mean_interarrival_ms)
            client = self.rng.randrange(cfg.n_clients)
            kind = self._pick_kind()
            profile = self._pick_file()
            if kind is OpKind.WRITE:
                who = owner.setdefault(profile.path, client)
                if who != client and self.rng.random() >= cfg.write_share_collision_prob:
                    client = who  # keep write sharing very rare (§2.3)
                burst_t = t
                for _n in range(self.rng.randint(1, cfg.burst_length)):
                    ops.append(Op(burst_t, client, OpKind.WRITE,
                                  profile.path, profile.size))
                    burst_t += self.rng.uniform(5.0, 50.0)
                t = burst_t
            elif kind is OpKind.READ_RANGE:
                # a sequential scan: the whole file front to back in chunks
                pos, scan_t = 0, t
                while pos < profile.size:
                    take = min(cfg.range_chunk_bytes, profile.size - pos)
                    ops.append(Op(scan_t, client, kind, profile.path,
                                  take, offset=pos))
                    pos += take
                    scan_t += self.rng.uniform(1.0, 10.0)
                t = scan_t
            elif kind is OpKind.WRITE_RANGE:
                take = min(cfg.range_chunk_bytes, profile.size)
                limit = max(1, profile.size - take + 1)
                ops.append(Op(t, client, kind, profile.path, take,
                              offset=self.rng.randrange(limit)))
            elif kind is OpKind.READDIR:
                dirpath = profile.path.rsplit("/", 1)[0]
                ops.append(Op(t, client, kind, dirpath))
            elif kind is OpKind.CREATE:
                fresh = f"{profile.path}.new{len(ops)}"
                removable.append((fresh, client))
                ops.append(Op(t, client, kind, fresh, self._file_size()))
            elif kind is OpKind.REMOVE:
                # only remove files this trace created, so later ops never
                # reference a deleted file (real traces don't either)
                if not removable:
                    ops.append(Op(t, client, OpKind.GETATTR,
                                  profile.path, profile.size))
                else:
                    path, creator = removable.pop()
                    ops.append(Op(t, creator, kind, path))
            else:
                ops.append(Op(t, client, kind, profile.path, profile.size))
        ops.sort(key=lambda op: op.at_ms)
        return ops

    def summary(self) -> dict[str, float]:
        """Population facts a benchmark can print alongside results."""
        sizes = sorted(f.size for f in self.files)
        return {
            "files": len(self.files),
            "dirs": len(self.dirs),
            "median_bytes": sizes[len(sizes) // 2],
            "max_bytes": sizes[-1],
            "under_20k_fraction": sum(s <= 20 * 1024 for s in sizes) / len(sizes),
        }


#: The named workload mixes the ``repro`` tools (``profile``, ``trace``,
#: ``detcheck``, ``racecheck``) accept: name -> :class:`WorkloadConfig`
#: factory.  ``zipf`` is an alias of ``hotspot``.
NAMED_WORKLOADS = {
    "hotspot": hotspot_config,
    "zipf": hotspot_config,
    "baseline": WorkloadConfig,
    "streaming": streaming_config,
}

#: The per-file parameters a named mix's population is replayed with
#: (``replay``'s ``file_params``; a mix not listed uses the defaults).
#: The streaming mix stripes at half its scan chunk, so every scan
#: crosses a stripe boundary.
NAMED_FILE_PARAMS: dict[str, dict] = {
    "streaming": {"stripe_size": streaming_config().range_chunk_bytes // 2},
}


def named_ops(name: str, n_clients: int, duration_ms: float,
              seed: int) -> list[Op]:
    """The seeded op trace of one :data:`NAMED_WORKLOADS` mix."""
    cfg = NAMED_WORKLOADS[name](n_clients=n_clients, duration_ms=duration_ms,
                                seed=seed)
    return WorkloadGenerator(cfg).generate()


def _ln(x: float) -> float:
    import math
    return math.log(x)
