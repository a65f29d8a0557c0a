"""LOFT: large-flow tracing by aggregation and periodic inversion.

LOFT (Scherrer et al., "Low-Rate Overuse Flow Tracer (LOFT): Accurate
Detection of all Flows above a Very Low Threshold", arXiv:2102.01397)
targets the same gap CLEF does — overuse flows below EARDet's exact
detection threshold — but with a different shape: instead of narrowing
a counter tree onto one flow, it **aggregates** all traffic into a small
sketch per epoch and periodically **inverts** the sketch, promoting the
flows with the highest per-epoch estimates into a bounded exact
watchlist of per-flow leaky buckets.

The implementation here keeps the scheme's two-tier structure:

1. **Aggregation** — a ``stages x aggregates`` conservative count-min
   sketch accumulates per-flow byte estimates over one epoch; hash
   seeds rotate every epoch so collisions do not persist.
2. **Inversion** — at each epoch boundary, every flow observed during
   the epoch whose minimum-stage estimate exceeds the epoch's
   low-bandwidth byte budget (``gamma * epoch + beta``) is promoted
   into the watchlist.  The watchlist holds at most ``watchlist``
   entries; when full, the entry with the lowest current bucket level
   is evicted (deterministic tie-break on the canonical flow key).
3. **Confirmation** — watched flows bypass the sketch and feed an exact
   :class:`~repro.model.thresholds.LeakyBucket` with drain rate
   ``gamma``; a flow is flagged only when its *exact* bucket exceeds
   ``beta``, so every flag is backed by post-promotion per-flow
   evidence (a colliding sketch estimate alone can never flag a flow).
   Detection remains probabilistic end-to-end because promotion itself
   can miss (bounded tracking, eviction churn).

All arithmetic is integer-exact (bytes, nanoseconds, scaled byte-ns
levels); hashing is the deterministic splitmix64 mix; ``snapshot`` /
``restore`` capture complete state for bit-identical crash recovery.

A stage's hash salt depends only on the seed, the epoch index and the
stage, so the current epoch's ``stages`` salts live in a table that is
rebuilt the first time it is read after the epoch index moves, and a
sketch packet costs one ``canonical_key`` and one splitmix64 round per
stage.  :meth:`LOFT.observe` and :meth:`LOFT.observe_batch` run the same
per-packet body, :meth:`LOFT._step`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import EARDetConfig
from ..model.packet import FlowId, Packet
from ..model.thresholds import LeakyBucket
from ..model.units import NS_PER_S
from .base import Detector
from .hashing import canonical_key, splitmix64


@dataclass
class LOFTStats:
    """Operational counters for diagnostics and telemetry."""

    packets: int = 0
    sketch_packets: int = 0
    watch_packets: int = 0
    epochs: int = 0
    promotions: int = 0
    evictions: int = 0
    demotions: int = 0
    untracked_packets: int = 0
    flags: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def restore(self, state: Dict[str, int]) -> None:
        for name, value in state.items():
            if name not in self.__dataclass_fields__:
                raise ValueError(f"unknown stats field {name!r}")
            setattr(self, name, value)


class LOFT(Detector):
    """The LOFT detector.

    Parameters
    ----------
    aggregates:
        Buckets per sketch stage.
    epoch_ns:
        Aggregation epoch length; inversion runs at every boundary.
    gamma, beta:
        The low-bandwidth threshold ``TH_l(t) = gamma t + beta`` whose
        violators LOFT exists to trace (bytes/s, bytes).
    stages:
        Sketch stages (estimate = minimum over stages).
    watchlist:
        Maximum exact per-flow buckets held after inversion.
    flow_limit:
        Maximum distinct flows remembered per epoch for inversion
        (bounds the candidate scan; overflow is counted, not tracked).
    seed:
        Salts all hashing; epoch index rotates the per-stage seeds.
    """

    name = "loft"

    #: Version of the LOFT snapshot schema; bump on incompatible change.
    SNAPSHOT_FORMAT = 1

    def __init__(
        self,
        aggregates: int,
        epoch_ns: int,
        gamma: int,
        beta: int,
        stages: int = 2,
        watchlist: int = 64,
        flow_limit: int = 4096,
        seed: int = 0,
    ):
        super().__init__()
        if aggregates < 1:
            raise ValueError(f"aggregates must be >= 1, got {aggregates}")
        if epoch_ns <= 0:
            raise ValueError(f"epoch_ns must be positive, got {epoch_ns}")
        if gamma < 0 or beta < 0:
            raise ValueError(f"threshold must be >= 0, got {gamma}, {beta}")
        if stages < 1:
            raise ValueError(f"stages must be >= 1, got {stages}")
        if watchlist < 1:
            raise ValueError(f"watchlist must be >= 1, got {watchlist}")
        if flow_limit < 1:
            raise ValueError(f"flow_limit must be >= 1, got {flow_limit}")
        self.aggregates = aggregates
        self.epoch_ns = epoch_ns
        self.gamma = gamma
        self.beta = beta
        self.stages = stages
        self.watchlist = watchlist
        self.flow_limit = flow_limit
        self.seed = seed
        self._beta_scaled = beta * NS_PER_S
        # One epoch's byte budget for a TH_l-compliant flow, in scaled
        # byte-ns units so the comparison against estimates is exact.
        self._budget_scaled = gamma * epoch_ns + beta * NS_PER_S
        self.stats = LOFTStats()
        # The epoch the salt table was built for (None: not built yet).
        self._salt_epoch: Optional[int] = None
        self._salt_table: List[int] = []
        self._reset_state()

    @classmethod
    def for_config(
        cls,
        config: EARDetConfig,
        aggregates: int,
        epoch_ns: int,
        stages: int = 2,
        watchlist: int = 64,
        flow_limit: int = 4096,
        seed: int = 0,
    ) -> "LOFT":
        """Size against the config's low-bandwidth threshold (the
        boundary of the ambiguity region being watched)."""
        return cls(
            aggregates=aggregates,
            epoch_ns=epoch_ns,
            gamma=config.gamma_l,
            beta=config.beta_l,
            stages=stages,
            watchlist=watchlist,
            flow_limit=flow_limit,
            seed=seed,
        )

    # -- hashing ------------------------------------------------------------

    def _salts(self) -> List[int]:
        """The current epoch's salt of every sketch stage, rebuilt only
        when the epoch index has moved since the table was built."""
        if self._salt_epoch != self._epoch_index:
            base = splitmix64(self.seed ^ self._epoch_index)
            self._salt_table = [
                splitmix64(base + stage) for stage in range(self.stages)
            ]
            self._salt_epoch = self._epoch_index
        return self._salt_table

    # -- epoch machinery ----------------------------------------------------

    def _estimate(self, fid: FlowId) -> int:
        """Minimum-over-stages byte estimate for a flow this epoch."""
        key = canonical_key(fid)
        aggregates = self.aggregates
        return min(
            row[splitmix64(key ^ salt) % aggregates]
            for row, salt in zip(self._sketch, self._salts())
        )

    def _drain_to(self, bucket: LeakyBucket, time_ns: int) -> int:
        """Bucket level at ``time_ns`` without adding bytes (mutating,
        unlike ``level_at`` — keeps later arithmetic incremental)."""
        drained = bucket.gamma * (time_ns - bucket.last_time)
        bucket.level_scaled = max(0, bucket.level_scaled - drained)
        bucket.last_time = time_ns
        return bucket.level_scaled

    def _promote(self, fid: FlowId, boundary_ns: int) -> None:
        """Admit a flow to the watchlist, evicting the lowest-level
        entry if full.  The new bucket starts *empty*: flags need
        post-promotion exact evidence, so sketch collisions can inflate
        candidacy but never a verdict."""
        if fid in self._watch:
            return
        if len(self._watch) >= self.watchlist:
            victim = min(
                self._watch.items(),
                key=lambda item: (item[1].level_scaled, canonical_key(item[0])),
            )[0]
            del self._watch[victim]
            self.stats.evictions += 1
        bucket = LeakyBucket(self.gamma)
        bucket.last_time = boundary_ns
        self._watch[fid] = bucket
        self.stats.promotions += 1

    def _end_epoch(self, boundary_ns: int) -> None:
        """Invert the epoch's sketch into promotions, demote idle
        watchlist entries, clear per-epoch state, rotate hashes."""
        # Demote before promoting: a flow admitted at this boundary
        # starts with an empty bucket and must not be judged idle by the
        # very boundary that admitted it.
        for fid in [
            fid
            for fid, bucket in self._watch.items()
            if self._drain_to(bucket, boundary_ns) == 0
            and fid not in self.sink
        ]:
            del self._watch[fid]
            self.stats.demotions += 1
        candidates = [
            fid
            for fid in self._tracked
            if self._estimate(fid) * NS_PER_S > self._budget_scaled
        ]
        for fid in candidates:
            self._promote(fid, boundary_ns)
        self._sketch = [[0] * self.aggregates for _ in range(self.stages)]
        self._tracked.clear()
        self._epoch_index += 1
        self.stats.epochs += 1

    def _advance_time(self, now_ns: int) -> None:
        if not self._started:
            self._started = True
            self._epoch_start = now_ns
            return
        elapsed = (now_ns - self._epoch_start) // self.epoch_ns
        if elapsed <= 0:
            return
        # Close the current (possibly non-empty) epoch at its boundary.
        self._end_epoch(self._epoch_start + self.epoch_ns)
        self._epoch_start += elapsed * self.epoch_ns
        if elapsed > 1:
            # The remaining epochs saw no traffic: the sketch stays
            # zero, so inversion promotes nothing; only watchlist
            # draining at the final boundary is observable.
            self._epoch_index += elapsed - 1
            self.stats.epochs += elapsed - 1
            for fid in [
                fid
                for fid, bucket in self._watch.items()
                if self._drain_to(bucket, self._epoch_start) == 0
                and fid not in self.sink
            ]:
                del self._watch[fid]
                self.stats.demotions += 1

    # -- Detector interface -------------------------------------------------

    def _update(self, packet: Packet) -> bool:
        return self._step(packet.time, packet.size, packet.fid)

    def observe_batch(
        self,
        times: Iterable[int],
        sizes: Iterable[int],
        fids: Iterable[FlowId],
    ) -> None:
        """Process parallel packet columns in order, without building a
        :class:`~repro.model.packet.Packet`.  Per packet this is exactly
        :meth:`observe`: :meth:`_step`, a sink report when the packet is
        flagged, and the invariant checker."""
        step = self._step
        report = self.sink.report
        checker = self.checker
        for now, size, fid in zip(times, sizes, fids):
            if step(now, size, fid):
                report(fid, now)
            if checker is not None:
                checker.after_packet(self)

    def _step(self, now: int, size: int, fid: FlowId) -> bool:
        """One packet; True when it flags its flow.  The one body both
        :meth:`observe` and :meth:`observe_batch` run."""
        stats = self.stats
        stats.packets += 1
        if not self._started or now - self._epoch_start >= self.epoch_ns:
            self._advance_time(now)
        bucket = self._watch.get(fid)
        if bucket is not None:
            stats.watch_packets += 1
            if bucket.add(now, size) > self._beta_scaled:
                stats.flags += 1
                return True
            return False
        stats.sketch_packets += 1
        key = canonical_key(fid)
        aggregates = self.aggregates
        for row, salt in zip(self._sketch, self._salts()):
            row[splitmix64(key ^ salt) % aggregates] += size
        tracked = self._tracked
        if fid not in tracked:
            if len(tracked) < self.flow_limit:
                tracked[fid] = None
            else:
                stats.untracked_packets += 1
        return False

    def _reset_state(self) -> None:
        self._sketch: List[List[int]] = [
            [0] * self.aggregates for _ in range(self.stages)
        ]
        # Insertion-ordered dict used as a set: iteration order (and so
        # promotion order) is stream-deterministic, unlike a real set of
        # string fids under hash randomization.
        self._tracked: Dict[FlowId, None] = {}
        self._watch: Dict[FlowId, LeakyBucket] = {}
        self._epoch_index = 0
        self._epoch_start = 0
        self._started = False
        self.stats.reset()

    def counter_count(self) -> int:
        """Sketch cells plus current exact watchlist entries."""
        return self.stages * self.aggregates + len(self._watch)

    # -- introspection ------------------------------------------------------

    @property
    def watched(self) -> Tuple[FlowId, ...]:
        """Flows currently holding an exact watchlist bucket."""
        return tuple(self._watch)

    @property
    def epoch(self) -> int:
        """Completed aggregation epochs (hash-rotation index)."""
        return self._epoch_index

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Complete state as plain data; restoring and replaying the
        remaining packets is bit-identical to an uninterrupted run."""
        return {
            "format": self.SNAPSHOT_FORMAT,
            "sketch": [list(row) for row in self._sketch],
            "tracked": list(self._tracked),
            "watch": [
                [fid, bucket.level_scaled, bucket.peak_scaled, bucket.last_time]
                for fid, bucket in self._watch.items()
            ],
            "epoch_index": self._epoch_index,
            "epoch_start": self._epoch_start,
            "started": self._started,
            "stats": self.stats.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported LOFT snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        sketch = [list(row) for row in state["sketch"]]  # type: ignore[union-attr]
        if len(sketch) != self.stages or any(
            len(row) != self.aggregates for row in sketch
        ):
            raise ValueError("snapshot sketch shape does not match detector")
        tracked: Dict[FlowId, None] = {
            self._revive_fid(fid): None
            for fid in state["tracked"]  # type: ignore[union-attr]
        }
        if len(tracked) > self.flow_limit:
            raise ValueError(
                f"snapshot tracks {len(tracked)} flows, detector tracks at "
                f"most {self.flow_limit}"
            )
        watch: Dict[FlowId, LeakyBucket] = {}
        for fid, level, peak, last in state["watch"]:  # type: ignore[misc]
            bucket = LeakyBucket(self.gamma)
            bucket.level_scaled = level
            bucket.peak_scaled = peak
            bucket.last_time = last
            watch[self._revive_fid(fid)] = bucket
        if len(watch) > self.watchlist:
            raise ValueError(
                f"snapshot watches {len(watch)} flows, detector watches at "
                f"most {self.watchlist}"
            )
        epoch_index = state["epoch_index"]
        if epoch_index < 0:  # type: ignore[operator]
            raise ValueError(f"snapshot epoch index {epoch_index} is negative")
        self._sketch = sketch
        self._tracked = tracked
        self._watch = watch
        self._epoch_index = epoch_index  # type: ignore[assignment]
        self._epoch_start = state["epoch_start"]  # type: ignore[assignment]
        self._started = state["started"]  # type: ignore[assignment]
        self.stats.restore(state["stats"])  # type: ignore[arg-type]
        self.sink.restore(state["sink"])  # type: ignore[arg-type]
        if self.checker is not None:
            self.checker.reset()

    @staticmethod
    def _revive_fid(fid: object) -> FlowId:
        """JSON round-trips tuples as lists; re-tuple them so restored
        flow ids hash identically (mirrors ReportSink.restore)."""
        if isinstance(fid, list):
            return tuple(fid)
        return fid  # type: ignore[return-value]

    def __repr__(self) -> str:
        return (
            f"LOFT(aggregates={self.aggregates}, stages={self.stages}, "
            f"epoch_ns={self.epoch_ns}, watched={len(self._watch)}, "
            f"detected={len(self.sink)})"
        )
