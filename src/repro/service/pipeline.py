"""Two-stage exact + probabilistic detection pipeline.

EARDet shards are exact *outside* the ambiguity region; a flow pacing
itself between ``TH_l`` and ``TH_h`` is invisible to them forever.  This
module adds the second stage that watches exactly that blind spot: a
per-shard **watcher** — :class:`~repro.detectors.clef.TwinRLFD` (the
CLEF arrangement; the exact half of CLEF *is* the shard's EARDet) or
:class:`~repro.detectors.loft.LOFT` — observing the same routed
sub-stream as the shard's EARDet.

Stage separation is a hard semantic boundary, mirroring how the
exactness envelope refuses to launder lost packets:

- The watcher **taps the stream at the routing point**, before queueing,
  overflow, fault injection, or the overload ladder touch it: the
  engine appends each routed packet to its slot's tap columns there and
  hands every non-empty slot's ``(times, sizes, fids)`` to
  :meth:`WatcherStage.observe` once per batch — also when the batch
  raises part-way, so the watchers have seen exactly the packets routed
  so far.  It never feeds the EARDet shards and never consumes from
  their queues, so enabling a watcher leaves exact detections
  bit-identical — and the watcher keeps seeing in-region traffic even
  while the ladder sheds the exact stage's load (which is precisely when
  the ambiguity region widens and watching it matters most).
- Watcher verdicts are **probabilistic** and are carried in their own
  :class:`ServiceReport` section.  Nothing in this module ever merges
  them into ``ServiceReport.detections`` or the exactness envelope.

The stage checkpoints with the engine: its snapshot rides in the engine
snapshot's optional ``"watcher"`` key (engine format unchanged — old
checkpoints simply have no watcher state and restore a fresh stage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Union

from ..core.config import EARDetConfig
from ..detectors.clef import TwinRLFD
from ..detectors.loft import LOFT
from ..model.packet import FlowId

#: Watcher kinds the service can arm ("none" is expressed as no policy).
WATCHER_KINDS = ("clef", "loft")

#: A built watcher: both kinds take per-slot columns via ``observe_batch``.
Watcher = Union[TwinRLFD, LOFT]

#: Default sizing: small enough to be an obviously-cheap sidecar next to
#: an EARDet shard, large enough to localize a handful of in-region
#: flows (override per deployment via the CLI sizing flags).
DEFAULT_COUNTERS = 32
DEFAULT_DEPTH = 2
DEFAULT_FAST_PERIOD_NS = 50_000_000
DEFAULT_SLOW_PERIOD_NS = 400_000_000
DEFAULT_EPOCH_NS = 100_000_000
DEFAULT_STAGES = 2
DEFAULT_WATCHLIST = 64
DEFAULT_FLOW_LIMIT = 4096

#: The least value each kind's constructor accepts for each sizing field
#: it reads (``RecursiveLargeFlowDetector`` for clef, ``LOFT`` for loft).
SIZING_FLOORS = {
    "clef": {
        "counters": 2, "depth": 1, "fast_period_ns": 1, "slow_period_ns": 1,
    },
    "loft": {
        "counters": 1, "stages": 1, "watchlist": 1, "flow_limit": 1,
        "epoch_ns": 1,
    },
}


@dataclass(frozen=True)
class WatcherPolicy:
    """Which watcher to arm per shard, and its sizing.

    ``counters`` is the RLFD branching factor for ``kind="clef"`` and
    the per-stage aggregate count for ``kind="loft"``; the remaining
    fields apply to one kind each and are ignored by the other.  Each
    field the kind reads is checked against :data:`SIZING_FLOORS` here,
    so a policy (CLI-built or restored by :meth:`from_dict`) that
    constructs at all builds its watchers.
    """

    kind: str
    counters: int = DEFAULT_COUNTERS
    depth: int = DEFAULT_DEPTH
    fast_period_ns: int = DEFAULT_FAST_PERIOD_NS
    slow_period_ns: int = DEFAULT_SLOW_PERIOD_NS
    epoch_ns: int = DEFAULT_EPOCH_NS
    stages: int = DEFAULT_STAGES
    watchlist: int = DEFAULT_WATCHLIST
    flow_limit: int = DEFAULT_FLOW_LIMIT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in WATCHER_KINDS:
            raise ValueError(
                f"watcher kind must be one of {WATCHER_KINDS}, got "
                f"{self.kind!r}"
            )
        for name, floor in SIZING_FLOORS[self.kind].items():
            value = getattr(self, name)
            if value < floor:
                raise ValueError(
                    f"{self.kind} {name} must be >= {floor}, got {value}"
                )

    def build(self, config: EARDetConfig, shard: int) -> Watcher:
        """Instantiate this policy's watcher for one shard (seeds are
        salted per shard so shards group flows independently)."""
        shard_seed = (self.seed * 0x1000003) ^ (shard + 1)
        if self.kind == "clef":
            return TwinRLFD.for_config(
                config,
                counters=self.counters,
                depth=self.depth,
                fast_period_ns=self.fast_period_ns,
                slow_period_ns=self.slow_period_ns,
                seed=shard_seed,
            )
        return LOFT.for_config(
            config,
            aggregates=self.counters,
            epoch_ns=self.epoch_ns,
            stages=self.stages,
            watchlist=self.watchlist,
            flow_limit=self.flow_limit,
            seed=shard_seed,
        )

    def as_dict(self) -> Dict[str, object]:
        """Plain-data form stored in checkpoint metadata."""
        return {
            "kind": self.kind,
            "counters": self.counters,
            "depth": self.depth,
            "fast_period_ns": self.fast_period_ns,
            "slow_period_ns": self.slow_period_ns,
            "epoch_ns": self.epoch_ns,
            "stages": self.stages,
            "watchlist": self.watchlist,
            "flow_limit": self.flow_limit,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WatcherPolicy":
        known = {name for name in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown watcher policy fields {sorted(unknown)!r}"
            )
        return cls(**data)  # type: ignore[arg-type]


class WatcherStage:
    """Per-shard ambiguity-region watchers riding next to the engine.

    The engine calls :meth:`observe` once per batch for every slot it
    routed packets to, with that slot's packets as columns; everything
    else here is reporting and checkpointing.  The stage never returns
    verdicts into the ingest path — a probabilistic verdict must be
    *read out* of the watcher section, never folded into the exact
    detection set.
    """

    #: Version of the stage snapshot schema; bump on incompatible change.
    SNAPSHOT_FORMAT = 1

    def __init__(
        self, policy: WatcherPolicy, config: EARDetConfig, shards: int
    ):
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        self.policy = policy
        self.config = config
        self._watchers: List[Watcher] = [
            policy.build(config, shard) for shard in range(shards)
        ]

    # -- hot path ----------------------------------------------------------

    def observe(
        self,
        slot: int,
        times: Sequence[int],
        sizes: Sequence[int],
        fids: Sequence[FlowId],
    ) -> None:
        """Feed one slot's routed packets, as parallel columns in arrival
        order, to that slot's watcher.  Verdicts land in the watcher's
        own sink; nothing is returned to the caller's ingest path by
        design."""
        self._watchers[slot].observe_batch(times, sizes, fids)

    # -- introspection -----------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self._watchers)

    @property
    def kind(self) -> str:
        return self.policy.kind

    def watcher(self, shard: int) -> Watcher:
        """The underlying detector of one shard (tests, telemetry)."""
        return self._watchers[shard]

    def verdicts(self) -> Dict[FlowId, int]:
        """Merged ``{flow: first-flag time ns}`` across shards.  Flows
        are disjoint across shards (same router as the exact stage), so
        the union is conflict-free.  **Probabilistic** — never merge
        into an exact detection set."""
        merged: Dict[FlowId, int] = {}
        for watcher in self._watchers:
            for fid, time_ns in watcher.detected.items():
                current = merged.get(fid)
                if current is None or time_ns < current:
                    merged[fid] = time_ns
        return merged

    def occupancy(self, shard: int) -> int:
        """Counters/buckets the shard's watcher currently holds."""
        return self._watchers[shard].counter_count()

    def shard_stats(self, shard: int) -> Dict[str, int]:
        """The shard watcher's operational stats (kind-specific keys;
        LOFT exposes churn, TwinRLFD per-twin descent counts)."""
        watcher = self._watchers[shard]
        if isinstance(watcher, TwinRLFD):
            fast = watcher.fast.stats
            slow = watcher.slow.stats
            return {
                "packets": fast.packets,
                "fast_period_ends": fast.period_ends,
                "fast_descents": fast.descents,
                "fast_flags": fast.flags,
                "slow_period_ends": slow.period_ends,
                "slow_descents": slow.descents,
                "slow_flags": slow.flags,
            }
        assert isinstance(watcher, LOFT)
        return watcher.stats.snapshot()

    def churn(self) -> Dict[str, int]:
        """Candidate churn summed across shards: how busy the
        promotion/descent machinery is (telemetry)."""
        totals = {"promotions": 0, "evictions": 0, "demotions": 0, "descents": 0}
        for shard in range(len(self._watchers)):
            stats = self.shard_stats(shard)
            totals["promotions"] += stats.get("promotions", 0)
            totals["evictions"] += stats.get("evictions", 0)
            totals["demotions"] += stats.get("demotions", 0)
            totals["descents"] += stats.get(
                "descents",
                stats.get("fast_descents", 0) + stats.get("slow_descents", 0),
            )
        return totals

    def report(self) -> Dict[str, object]:
        """The ``ServiceReport.watcher`` section: JSON-safe, explicitly
        labelled probabilistic, with per-shard occupancy and churn."""
        verdicts = self.verdicts()
        return {
            "kind": self.policy.kind,
            "probabilistic": True,
            "verdicts": {
                str(fid): time_ns
                for fid, time_ns in sorted(
                    verdicts.items(), key=lambda item: (item[1], str(item[0]))
                )
            },
            "verdict_count": len(verdicts),
            "memory_counters": sum(
                self.occupancy(shard) for shard in range(len(self._watchers))
            ),
            "churn": self.churn(),
            "shards": [
                {
                    "shard": shard,
                    "occupancy": self.occupancy(shard),
                    "verdicts": len(self._watchers[shard].detected),
                    "stats": self.shard_stats(shard),
                }
                for shard in range(len(self._watchers))
            ],
        }

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Complete stage state as plain data (rides in the engine
        snapshot's optional ``"watcher"`` key)."""
        return {
            "format": self.SNAPSHOT_FORMAT,
            "policy": self.policy.as_dict(),
            "shards": [watcher.snapshot() for watcher in self._watchers],
        }

    def restore(self, state: Dict[str, object]) -> None:
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported watcher stage snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        policy = WatcherPolicy.from_dict(state["policy"])  # type: ignore[arg-type]
        if policy != self.policy:
            raise ValueError(
                f"watcher snapshot policy {policy.as_dict()!r} does not "
                f"match armed policy {self.policy.as_dict()!r}"
            )
        shards = state["shards"]
        if len(shards) != len(self._watchers):  # type: ignore[arg-type]
            raise ValueError(
                f"watcher snapshot has {len(shards)} shards, "  # type: ignore[arg-type]
                f"stage has {len(self._watchers)}"
            )
        for watcher, shard_state in zip(self._watchers, shards):  # type: ignore[arg-type]
            watcher.restore(shard_state)  # type: ignore[attr-defined]

    def reset(self) -> None:
        for watcher in self._watchers:
            watcher.reset()

    def __repr__(self) -> str:
        return (
            f"WatcherStage(kind={self.policy.kind!r}, "
            f"shards={len(self._watchers)}, "
            f"verdicts={len(self.verdicts())})"
        )
