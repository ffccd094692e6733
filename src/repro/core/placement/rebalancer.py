"""Rebalancer: the background replica-placement control loop.

One per segment server, coordinated through the segment's existing ISIS
file group — every placement action reuses the group protocols (blast
transfer + ``replica_created`` / ``replica_deleted`` broadcasts), so group
members always agree on the holder set.  Each control round a server
plays up to three roles:

1. **Requester** — for segments its clients keep reading but it does not
   hold (its :class:`~repro.core.placement.heat.HeatTracker` rate is at or
   above ``attract_rate``), pull a local replica from the token holder:
   hot segments migrate toward their readers.
2. **Token holder** — for every write token held: *regenerate* when
   fewer than ``min_replicas`` holders are reachable (member failure),
   and *shed* reachable cold extras down to ``min_replicas`` — never
   itself, never below the level, and only replicas held at least
   ``min_hold_ms`` whose reported rate is at or below ``shed_rate``.
3. **Reporter** — for replicas held without the token, push the local
   heat total to the token holder (the ``seg_heat_report`` RPC) so its
   shed decisions see remote use.

Hysteresis against ping-pong: ``attract_rate`` sits well above
``shed_rate``, freshly placed replicas are immune to shedding for
``min_hold_ms``, and failed/successful pulls are not retried within
``attract_cooldown_ms``.

The loop also *owns* the one-shot §3.1-method-4 migration: the read
path's ``file_migration`` hook routes through :meth:`Rebalancer.
migrate_here`, so in-flight migrations are tracked and
:meth:`Rebalancer.quiesced` gives tests and benchmarks a deterministic
"background placement work has drained" barrier instead of a sleep.

The periodic loop is off until :meth:`start` (see ``testbed``'s
``rebalance`` flag): by default the system keeps the paper's lazy §3.1
behaviour, where replicas are only generated at update time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.placement.heat import HeatTracker
from repro.errors import RpcTimeout
from repro.metrics import Metrics
from repro.net.network import RpcRemoteError


@dataclass(frozen=True)
class PlacementConfig:
    """Tuning knobs of the placement control loop."""

    #: How often each server runs a control round.
    interval_ms: float = 500.0
    #: Local read rate (events/s) at a non-holder that pulls a replica.
    attract_rate: float = 1.0
    #: Reported read rate (events/s) at or below which a holder's extra
    #: replica counts as cold.  Keep well under ``attract_rate``.
    shed_rate: float = 0.1
    #: Replicas are immune to shedding for this long after placement.
    min_hold_ms: float = 5000.0
    #: Do not re-attempt a pull for the same segment within this window.
    attract_cooldown_ms: float = 1000.0
    #: Timeout for one heat-report RPC to a token holder.
    report_timeout_ms: float = 300.0


class Rebalancer:
    """Placement control loop of one segment server."""

    def __init__(self, server, heat: HeatTracker,
                 config: PlacementConfig | None = None,
                 metrics: Metrics | None = None):
        self.server = server
        self.heat = heat
        self.config = config or PlacementConfig()
        self.metrics = metrics or heat.metrics
        self.kernel = server.kernel
        self._started = False
        self._round_running = False
        self._inflight = 0
        self._waiters: list = []
        # token-holder view of remote replica use: (sid, major) ->
        # holder -> (reported rate, report ts)
        self._holder_rate: dict[tuple[str, int], dict[str, tuple[float, float]]] = {}
        # (sid, major) -> holder -> first time we saw it hold a replica
        self._holder_since: dict[tuple[str, int], dict[str, float]] = {}
        self._attempted_at: dict[tuple[str, int], float] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Arm the periodic control loop (idempotent)."""
        if self._started:
            return
        self._started = True
        self._arm()

    def _arm(self) -> None:
        self.kernel.schedule(self.config.interval_ms, self._tick)

    def _tick(self) -> None:
        self._arm()
        proc = self.server.proc
        if not proc.alive or self._round_running:
            return
        proc.spawn(self._run_round(), name=f"{proc.addr}:rebalance")

    def reset(self) -> None:
        """Drop volatile placement state (host crash).  The loop stays
        armed; rounds resume once the process is alive again."""
        self.heat.clear()
        self._holder_rate.clear()
        self._holder_since.clear()
        self._attempted_at.clear()
        self._inflight = 0
        self._round_running = False
        # resolve (not drop) pending quiesced() waiters: with in-flight
        # work gone, the drained condition now holds
        self._settle_quiet()

    def forget(self, sid: str, major: int) -> None:
        """A major was deleted group-wide; drop its placement state."""
        self.heat.forget(sid, major)
        self._holder_rate.pop((sid, major), None)
        self._holder_since.pop((sid, major), None)
        self._attempted_at.pop((sid, major), None)

    # ------------------------------------------------------------------ #
    # quiescence (the deterministic "migration settled" barrier)
    # ------------------------------------------------------------------ #

    def quiesced(self):
        """Awaitable resolving once background placement work has drained.

        With the loop running: resolves after the next *full* control
        round that takes no action while nothing is in flight — a stale
        quiet flag from before the caller's load cannot satisfy it.  With
        the loop off: resolves as soon as no tracked one-shot migration
        is in flight.
        """
        fut = self.kernel.create_future()
        if not self._started and self._inflight == 0:
            fut.set_result(None)
        else:
            self._waiters.append(fut)
        return fut

    def _settle_quiet(self) -> None:
        self._settle(list(self._waiters))

    def _settle(self, waiters) -> None:
        for fut in waiters:
            if fut in self._waiters:
                self._waiters.remove(fut)
            fut.try_set_result(None)

    def _task_done(self) -> None:
        # clamped: a crash may reset() the counter before the cancelled
        # task's ``finally`` runs, and -1 would wedge quiesced() forever
        self._inflight = max(0, self._inflight - 1)
        if self._inflight == 0 and not self._started:
            self._settle_quiet()

    # ------------------------------------------------------------------ #
    # the one-shot migration path (read-path ``file_migration`` hook)
    # ------------------------------------------------------------------ #

    def migrate_here(self, sid: str, major: int):
        """Coroutine for one tracked migration request (spawned by the
        read path when a forwarded read hits a ``file_migration`` file)."""
        self._inflight += 1

        async def _pull():
            try:
                await self.server._request_migration(sid, major)
            finally:
                self._task_done()

        return _pull()

    # ------------------------------------------------------------------ #
    # the control round
    # ------------------------------------------------------------------ #

    async def _run_round(self) -> None:
        self._round_running = True
        # the barrier contract: only waiters who saw this round *start*
        # may be settled by it — load arriving mid-round waits for the next
        eligible = list(self._waiters)
        acted = 1
        try:
            acted = await self._round()
        finally:
            self._round_running = False
        if acted == 0 and self._inflight == 0:
            self._settle(eligible)

    async def _round(self) -> int:
        me = self.server.proc.addr
        now = self.kernel.now
        self.heat.prune()
        self._prune_state(now)
        acted = 0
        # token-holder role first: restoring min_replicas is the safety-
        # critical move and must not wait behind slow attraction pulls
        acted += await self._rebalance_held_tokens(me, now)
        acted += await self._attract_hot(me, now)
        await self._report_heat(me)
        self._record_rate_histograms()
        return acted

    def _prune_state(self, now: float) -> None:
        """Bound the per-round bookkeeping: holder views only matter for
        tokens held here, and pull attempts only within their cooldown."""
        for table in (self._holder_rate, self._holder_since):
            for key in list(table):
                if key not in self.server.tokens:
                    del table[key]
        for key, ts in list(self._attempted_at.items()):
            if now - ts > self.config.attract_cooldown_ms:
                del self._attempted_at[key]

    async def _attract_hot(self, me: str, now: float) -> int:
        """Requester role: pull replicas of segments our clients are hot on."""
        cfg = self.config
        acted = 0
        for sid, major in self.heat.read_keys():
            if self.heat.read_rate(sid, major, me) < cfg.attract_rate:
                continue
            if (sid, major) in self.server.replicas:
                continue
            cat = self.server.catalogs.get(sid)
            if cat is None or major not in cat.majors:
                continue
            if now - self._attempted_at.get((sid, major), -1e18) \
                    < cfg.attract_cooldown_ms:
                continue
            self._attempted_at[(sid, major)] = now
            self._inflight += 1
            acted += 1
            try:
                await self.server._request_migration(sid, major)
            except Exception:
                self.metrics.incr("placement.round_errors")
            finally:
                self._task_done()
            if (sid, major) in self.server.replicas:
                self.metrics.incr("placement.attractions")
        return acted

    def _reachable_holders(self, me: str, info) -> list[str]:
        """Holders this server can currently talk to (itself included)."""
        network = self.server.proc.network
        return [h for h in sorted(info.holders)
                if h == me or network.reachable(me, h)]

    async def _rebalance_held_tokens(self, me: str, now: float) -> int:
        """Token-holder role: regenerate under- and shed over-replication."""
        acted = 0
        for (sid, major) in list(self.server.tokens):
            try:
                acted += await self._rebalance_one(me, now, sid, major)
            except Exception:
                # a segment deleted / group dissolved mid-round must not
                # silently abort the remaining tokens' rebalancing
                self.metrics.incr("placement.round_errors")
        return acted

    async def _rebalance_one(self, me: str, now: float,
                             sid: str, major: int) -> int:
        cfg = self.config
        cat = self.server.catalogs.get(sid)
        if cat is None or major not in cat.majors:
            return 0
        info = cat.majors[major]
        reachable = self._reachable_holders(me, info)
        want = cat.params.min_replicas
        if len(reachable) < want:
            created = await self.server._replenish(sid, major)
            if created:
                self.metrics.incr("placement.regenerations", created)
            return created
        excess = len(reachable) - want
        since = self._holder_since.setdefault((sid, major), {})
        for holder in list(since):
            if holder not in info.holders:
                del since[holder]
        for holder in info.holders:
            since.setdefault(holder, now)
        if excess <= 0:
            return 0
        victims = [
            h for h in reachable
            if h != me
            and now - since[h] >= cfg.min_hold_ms
            and self._holder_rate_of(sid, major, h) <= cfg.shed_rate
        ]
        victims.sort(key=lambda h: self._holder_rate_of(sid, major, h))
        acted = 0
        for victim in victims[:excess]:
            # recheck against *live* state: a concurrent LRU drop (or a
            # previous shed's broadcast) may have shrunk the holder set
            # while this loop awaited — never go below the level
            if len(self._reachable_holders(me, info)) <= want:
                break
            if victim not in info.holders:
                continue  # already gone; others may still be excess
            if await self.server.delete_replica(sid, victim, major=major):
                acted += 1
                self.metrics.incr("placement.sheds")
                # a re-placed replica must earn a fresh immunity window
                since.pop(victim, None)
                self._holder_rate.get((sid, major), {}).pop(victim, None)
        return acted

    def _holder_rate_of(self, sid: str, major: int, holder: str) -> float:
        """Read rate flowing through ``holder``'s replica, as last reported
        (decayed since the report so stale reports read as cooling)."""
        entry = self._holder_rate.get((sid, major), {}).get(holder)
        if entry is None:
            return 0.0
        rate, ts = entry
        return self.heat.decay(rate, ts)

    async def _report_heat(self, me: str) -> None:
        """Reporter role: push local heat to the token holder of every
        replica we hold without owning its token."""
        cfg = self.config
        proc = self.server.proc
        reports: dict[str, list[dict]] = {}
        for (sid, major) in self.server.replicas:
            if (sid, major) in self.server.tokens:
                continue
            cat = self.server.catalogs.get(sid)
            if cat is None or major not in cat.majors:
                continue
            holder = cat.majors[major].holder
            if holder in (None, me):
                continue
            rate = self.heat.total_read_rate(sid, major)
            if rate <= 0.0:
                continue  # a missing report already reads as cold
            reports.setdefault(holder, []).append(
                {"sid": sid, "major": major, "rate": rate})
        for holder, entries in sorted(reports.items()):
            if not proc.network.reachable(me, holder):
                continue
            try:
                await proc.call(holder, "seg_heat_report", entries=entries,
                                timeout=cfg.report_timeout_ms,
                                tag="heat_report")
                self.metrics.incr("placement.heat_reports")
            except (RpcTimeout, RpcRemoteError):
                pass  # best effort; stale reports decay toward cold anyway

    async def handle_heat_report(self, src: str, entries: list[dict]) -> dict:
        """RPC handler at the token holder: fold in one holder's heat."""
        now = self.kernel.now
        for entry in entries:
            key = (entry["sid"], entry["major"])
            self._holder_rate.setdefault(key, {})[src] = (entry["rate"], now)
        return {"ok": True}

    def _record_rate_histograms(self) -> None:
        """Surface the EWMA rate distribution in the metrics histograms."""
        for sid, major in self.heat.read_keys():
            self.metrics.latency("placement.read_rate").record(
                self.heat.total_read_rate(sid, major))
            rate = self.heat.total_write_rate(sid, major)
            if rate:
                self.metrics.latency("placement.write_rate").record(rate)
