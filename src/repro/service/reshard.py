"""Exact live resharding: slot layouts, migration plans, the two-phase
migration protocol, and the skew-driven elasticity coordinator.

Why migrations here can be *exact*
----------------------------------

EARDet's counter store is shared across the flows of a shard (min-
eviction couples every flow's counter to every other's), so per-flow
state is **not separable**: splitting one detector's state between two
detectors cannot reproduce what two detectors would have computed.  The
engines therefore route flows onto a fixed number of **slots** (``fid →
slot`` via the seeded stage hash), keep one full EARDet *per slot*, and
map slots onto shards through a versioned :class:`ShardLayout`.  A
shard is purely a *hosting* unit — queues, overload ladders and loss
accounting live per shard — while detection state lives per slot.

Each slot's detector sees exactly the slot's hash sub-stream in arrival
order **no matter which shard hosts it**, so::

    detections(any layout history) == detections(static layout)

bit for bit — the property the differential harness in
``tests/test_reshard.py`` enforces.  Migration then never splits state:
it moves whole slots, through the same snapshot/restore path checkpoints
use.

The two-phase protocol
----------------------

:func:`execute_migration` runs a :class:`MigrationPlan` at a batch
boundary:

1. **freeze** — flush the overload ladder's rung buffers and drain the
   affected stream prefix (in-process: a full drain; multiprocess: the
   in-band barrier — workers answer the extract message only after
   every queued packet), and spawn any new target shards;
2. **extract** — snapshot the moving slots' detectors and remove them
   from their source shards;
3. the extracted state is sealed into a **versioned, CRC-protected
   migration record** (the checkpoint codec) and decode-verified before
   anything is installed — a corrupt record aborts before touching the
   target;
4. **install** — restore the verified slot states on their targets;
5. **cutover** — atomically swap in the new layout (epoch + 1) so the
   router sends subsequent packets to the new hosts.

Any failure before cutover triggers **rollback**: partially installed
copies are discarded and the extracted states are reinstalled under the
pre-migration layout, so a half-applied plan can never exist.  Fault
gates, the time budget, retries, worker-crash passthrough and the typed
terminal :class:`~repro.service.errors.MigrationError` come from the
guarded-transition executor the retune shares
(:mod:`repro.service.transition`).

The coordinator
---------------

:class:`Coordinator` closes the elasticity loop: it watches per-shard
routed-packet rates (plus queue high-water and degradation level for
reporting) and proposes split plans under sustained skew — and merge
plans once load flattens — with hysteresis (a persistence requirement
before acting plus a cooldown after) so it never flaps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .backoff import BackoffPolicy
from .checkpoint import CheckpointError, dumps, loads
from .errors import MigrationError
from .transition import MIGRATION_PHASES, TransitionReport, run_transition

__all__ = [
    "Coordinator",
    "CoordinatorPolicy",
    "MIGRATION_PHASES",
    "MIGRATION_RECORD_FORMAT",
    "MigrationPlan",
    "MigrationReport",
    "ShardLayout",
    "SlotMove",
    "decode_migration_record",
    "encode_migration_record",
    "execute_migration",
]

#: Version of the migration record schema; bump on incompatible change.
MIGRATION_RECORD_FORMAT = 1


# -- layout ----------------------------------------------------------------


@dataclass(frozen=True)
class ShardLayout:
    """A versioned assignment of flow slots to hosting shards.

    ``assignment[slot]`` is the shard currently hosting ``slot``;
    ``shards`` is the number of hosting shards the layout spans (a shard
    may own zero slots — a hot spare after a merge); ``epoch`` counts
    committed layout changes, so two engines can tell whose layout is
    newer and reports can show how many cutovers a run survived.
    """

    slots: int
    assignment: Tuple[int, ...]
    shards: int
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"need at least 1 slot, got {self.slots}")
        if self.shards < 1:
            raise ValueError(f"need at least 1 shard, got {self.shards}")
        if len(self.assignment) != self.slots:
            raise ValueError(
                f"assignment has {len(self.assignment)} entries for "
                f"{self.slots} slots"
            )
        for slot, shard in enumerate(self.assignment):
            if not 0 <= shard < self.shards:
                raise ValueError(
                    f"slot {slot} assigned to shard {shard}, outside "
                    f"[0, {self.shards})"
                )
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch}")

    @classmethod
    def default(cls, slots: int, shards: int) -> "ShardLayout":
        """The round-robin initial layout (``slot % shards``) — the
        identity mapping when ``slots == shards``, which is what makes a
        slot-unaware deployment bit-compatible with the pre-reshard
        engines."""
        return cls(
            slots=slots,
            assignment=tuple(slot % shards for slot in range(slots)),
            shards=shards,
        )

    def shard_of(self, slot: int) -> int:
        return self.assignment[slot]

    def slots_of(self, shard: int) -> List[int]:
        return [
            slot
            for slot, owner in enumerate(self.assignment)
            if owner == shard
        ]

    def counts(self) -> List[int]:
        """Slots hosted per shard."""
        counts = [0] * self.shards
        for owner in self.assignment:
            counts[owner] += 1
        return counts

    @property
    def is_identity(self) -> bool:
        """True for the trivial one-slot-per-shard mapping."""
        return self.slots == self.shards and all(
            slot == owner for slot, owner in enumerate(self.assignment)
        )

    def apply(self, plan: "MigrationPlan") -> "ShardLayout":
        """The layout after ``plan`` commits (epoch + 1)."""
        plan.validate(self)
        assignment = list(self.assignment)
        for move in plan.moves:
            assignment[move.slot] = move.target
        return ShardLayout(
            slots=self.slots,
            assignment=tuple(assignment),
            shards=max(self.shards, plan.target_shards),
            epoch=self.epoch + 1,
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "slots": self.slots,
            "assignment": list(self.assignment),
            "shards": self.shards,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardLayout":
        return cls(
            slots=int(data["slots"]),  # type: ignore[arg-type]
            assignment=tuple(data["assignment"]),  # type: ignore[arg-type]
            shards=int(data["shards"]),  # type: ignore[arg-type]
            epoch=int(data.get("epoch", 0)),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:
        return (
            f"ShardLayout(slots={self.slots}, shards={self.shards}, "
            f"epoch={self.epoch}, counts={self.counts()})"
        )


# -- plans -----------------------------------------------------------------


@dataclass(frozen=True)
class SlotMove:
    """Move one slot from its current shard to a target shard."""

    slot: int
    source: int
    target: int

    def __post_init__(self) -> None:
        if self.slot < 0:
            raise ValueError(f"slot must be >= 0, got {self.slot}")
        if self.source < 0 or self.target < 0:
            raise ValueError("source/target shards must be >= 0")
        if self.source == self.target:
            raise ValueError(
                f"slot {self.slot}: source and target are both shard "
                f"{self.source}"
            )


@dataclass(frozen=True)
class MigrationPlan:
    """A set of slot moves executed as one atomic cutover.

    ``target_shards`` is the shard count after the migration (>= the
    current count; new shards are spawned in the freeze phase).  Use the
    constructors — :meth:`move_slots`, :meth:`split`, :meth:`merge` —
    rather than hand-building moves.
    """

    moves: Tuple[SlotMove, ...]
    target_shards: int
    reason: str = ""

    def __post_init__(self) -> None:
        if not self.moves:
            raise ValueError("a migration plan needs at least one move")
        if self.target_shards < 1:
            raise ValueError(
                f"target_shards must be >= 1, got {self.target_shards}"
            )
        seen = set()
        for move in self.moves:
            if move.slot in seen:
                raise ValueError(f"slot {move.slot} moved twice in one plan")
            seen.add(move.slot)
            if move.target >= self.target_shards:
                raise ValueError(
                    f"slot {move.slot} targets shard {move.target}, outside "
                    f"target_shards={self.target_shards}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def move_slots(
        cls,
        layout: ShardLayout,
        slots: Sequence[int],
        target: int,
        reason: str = "",
    ) -> "MigrationPlan":
        """Move the given slots to ``target`` (which may be a brand-new
        shard index == ``layout.shards``)."""
        moves = []
        for slot in slots:
            if not 0 <= slot < layout.slots:
                raise ValueError(
                    f"slot {slot} outside [0, {layout.slots})"
                )
            source = layout.shard_of(slot)
            if source == target:
                continue
            moves.append(SlotMove(slot=slot, source=source, target=target))
        if not moves:
            raise ValueError(
                f"no slot in {list(slots)} actually changes shard "
                f"(all already on {target})"
            )
        return cls(
            moves=tuple(moves),
            target_shards=max(layout.shards, target + 1),
            reason=reason,
        )

    @classmethod
    def split(
        cls,
        layout: ShardLayout,
        shard: int,
        target: Optional[int] = None,
        reason: str = "",
    ) -> "MigrationPlan":
        """Move half of ``shard``'s slots to ``target`` (default: a new
        shard).  Requires the shard to host at least two slots."""
        owned = layout.slots_of(shard)
        if len(owned) < 2:
            raise ValueError(
                f"cannot split shard {shard}: it hosts {len(owned)} slot(s)"
            )
        if target is None:
            target = layout.shards
        moving = owned[len(owned) // 2 :]
        return cls.move_slots(
            layout, moving, target, reason=reason or f"split shard {shard}"
        )

    @classmethod
    def merge(
        cls,
        layout: ShardLayout,
        source: int,
        target: int,
        reason: str = "",
    ) -> "MigrationPlan":
        """Move every slot off ``source`` onto ``target``, leaving
        ``source`` an idle hot spare (shard count is never shrunk — the
        hosting processes stay up and a later split can reuse them)."""
        owned = layout.slots_of(source)
        if not owned:
            raise ValueError(f"shard {source} hosts no slots; nothing to merge")
        return cls.move_slots(
            layout,
            owned,
            target,
            reason=reason or f"merge shard {source} into {target}",
        )

    # -- queries -----------------------------------------------------------

    @property
    def slot_ids(self) -> List[int]:
        return [move.slot for move in self.moves]

    def assignment_after(self) -> Dict[int, int]:
        """Moved slot → target shard."""
        return {move.slot: move.target for move in self.moves}

    def assignment_before(self) -> Dict[int, int]:
        """Moved slot → source shard (the rollback assignment)."""
        return {move.slot: move.source for move in self.moves}

    def validate(self, layout: ShardLayout) -> None:
        """Check the plan is executable against ``layout`` right now."""
        if self.target_shards < layout.shards:
            raise ValueError(
                f"plan shrinks the fleet ({layout.shards} -> "
                f"{self.target_shards}); merge to a hot spare instead"
            )
        for move in self.moves:
            if not 0 <= move.slot < layout.slots:
                raise ValueError(
                    f"slot {move.slot} outside [0, {layout.slots})"
                )
            actual = layout.shard_of(move.slot)
            if actual != move.source:
                raise ValueError(
                    f"slot {move.slot} is hosted by shard {actual}, not "
                    f"shard {move.source}; the plan is stale"
                )

    def resulting_layout(self, layout: ShardLayout) -> ShardLayout:
        return layout.apply(self)

    def describe(self) -> str:
        moves = ", ".join(
            f"slot {move.slot}: {move.source}->{move.target}"
            for move in self.moves
        )
        label = f" ({self.reason})" if self.reason else ""
        return f"[{moves}] -> {self.target_shards} shards{label}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "moves": [
                {
                    "slot": move.slot,
                    "source": move.source,
                    "target": move.target,
                }
                for move in self.moves
            ],
            "target_shards": self.target_shards,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MigrationPlan":
        return cls(
            moves=tuple(
                SlotMove(
                    slot=int(move["slot"]),  # type: ignore[index]
                    source=int(move["source"]),  # type: ignore[index]
                    target=int(move["target"]),  # type: ignore[index]
                )
                for move in data["moves"]  # type: ignore[union-attr]
            ),
            target_shards=int(data["target_shards"]),  # type: ignore[arg-type]
            reason=str(data.get("reason", "")),
        )


# -- migration records -----------------------------------------------------


def encode_migration_record(
    plan: MigrationPlan,
    layout: ShardLayout,
    seed: int,
    slot_states: Dict[int, Dict[str, object]],
    watcher_states: Optional[Dict[int, Dict[str, object]]] = None,
) -> bytes:
    """Seal extracted slot states into a versioned, CRC-protected record.

    Uses the checkpoint codec (magic + CRC-32 framing), so a record that
    decodes is known-intact — the install phase only ever consumes a
    decode-verified record.  ``watcher_states`` carries the per-slot
    ambiguity-region watcher snapshots for forensics and cross-host
    transfer; in-process and one-tree multiprocess deployments keep the
    watcher stage parent-side, where it never physically moves.
    """
    return dumps(
        {
            "kind": "eardet-migration",
            "format": MIGRATION_RECORD_FORMAT,
            "plan": plan.as_dict(),
            "layout": layout.as_dict(),
            "seed": seed,
            "states": dict(slot_states),
            "watcher": dict(watcher_states) if watcher_states else None,
        }
    )


def decode_migration_record(blob: bytes) -> Dict[str, object]:
    """Decode and validate a migration record (CRC + schema checks)."""
    record = loads(blob)
    if not isinstance(record, dict) or record.get("kind") != "eardet-migration":
        raise CheckpointError("not a migration record")
    fmt = record.get("format")
    if fmt != MIGRATION_RECORD_FORMAT:
        raise CheckpointError(
            f"unsupported migration record format {fmt!r} "
            f"(this build reads format {MIGRATION_RECORD_FORMAT})"
        )
    states = record.get("states")
    if not isinstance(states, dict) or not states:
        raise CheckpointError("migration record carries no slot states")
    return record


# -- the two-phase executor ------------------------------------------------


@dataclass
class MigrationReport(TransitionReport):
    """What one :func:`execute_migration` call did."""

    from_shards: int = 0
    to_shards: int = 0
    slots_moved: int = 0
    record_bytes: int = 0


def execute_migration(
    engine,
    plan: MigrationPlan,
    attempts: int = 3,
    backoff: Optional[BackoffPolicy] = None,
    timeout_s: Optional[float] = 30.0,
    fault_plan=None,
    migration_index: int = 1,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> MigrationReport:
    """Run ``plan`` against ``engine`` under the two-phase protocol.

    Call at a batch boundary (nothing mid-ingest).  On success the
    engine's layout is the plan's resulting layout (epoch + 1) and the
    report carries the measured pause.  On terminal failure the engine
    is back on the pre-migration layout (every attempt rolls back before
    retrying) and a :class:`~repro.service.errors.MigrationError` is
    raised; worker crashes (:class:`ShardCrashError`, including injected
    ``mode=kill`` faults) propagate un-rolled-back for the supervisor's
    checkpoint restore, which is exact regardless of layout.
    """
    old_layout: ShardLayout = engine.layout
    plan.validate(old_layout)
    new_layout = plan.resulting_layout(old_layout)
    report = MigrationReport(
        plan=plan.describe(),
        committed=False,
        attempts=0,
        phase_reached=MIGRATION_PHASES[0],
        from_epoch=old_layout.epoch,
        to_epoch=old_layout.epoch,
        from_shards=old_layout.shards,
        to_shards=old_layout.shards,
    )

    def extract(scratch) -> None:
        scratch["extracted"] = engine.extract_slots(plan.slot_ids)
        record = encode_migration_record(
            plan,
            old_layout,
            engine.seed,
            scratch["extracted"],
            _watcher_states(engine, plan.slot_ids),
        )
        report.record_bytes = len(record)
        # Decode-verify (CRC + schema) before touching the target: only
        # a provably intact record is ever installed.
        scratch["states"] = decode_migration_record(record)["states"]

    actions = (
        lambda scratch: engine.prepare_migration(plan),
        extract,
        lambda scratch: engine.install_slots(
            scratch["states"], plan.assignment_after()
        ),
        lambda scratch: engine.commit_layout(new_layout),
    )
    # Rollback discards any partially installed copies on the targets
    # and reinstalls the extracted states on their sources; the layout
    # was never swapped, so routing is already correct.
    run_transition(
        MigrationError,
        zip(MIGRATION_PHASES, actions),
        lambda scratch: engine.abort_migration(
            plan, scratch.get("extracted", {})
        ),
        report,
        attempts=attempts,
        backoff=backoff,
        timeout_s=timeout_s,
        fault_plan=fault_plan,
        index=migration_index,
        clock=clock,
        sleep=sleep,
    )
    report.to_epoch = new_layout.epoch
    report.to_shards = new_layout.shards
    report.slots_moved = len(plan.moves)
    return report


def _watcher_states(engine, slot_ids) -> Optional[Dict[int, Dict[str, object]]]:
    """Per-slot watcher snapshots for the migration record (forensics /
    cross-host transfer; the stage itself is slot-keyed at the router
    and does not physically move within one process tree)."""
    stage = getattr(engine, "watcher", None)
    if stage is None:
        return None
    states = {}
    for slot in slot_ids:
        try:
            states[slot] = stage.watcher(slot).snapshot()
        except Exception:  # pragma: no cover - forensics are best-effort
            continue
    return states or None


# -- the elasticity coordinator --------------------------------------------


@dataclass(frozen=True)
class CoordinatorPolicy:
    """When the coordinator may act, and how hard it hesitates.

    Skew is ``max(shard rate) / mean(shard rate)`` over the observation
    window, computed across shards that host at least one slot.  A split
    of the hottest shard is proposed once skew stays at or above
    ``skew_high`` for ``persistence`` consecutive windows; a merge of
    the coldest shard once skew stays at or below ``skew_low`` that
    long.  After any migration the coordinator sleeps for ``cooldown``
    windows, and windows smaller than ``min_window_packets`` accumulate
    instead of being judged — together these are the hysteresis that
    keeps it from flapping.  ``skew_low < skew_high`` is enforced so
    the split and merge bands can never overlap.
    """

    skew_high: float = 2.0
    skew_low: float = 1.25
    persistence: int = 3
    cooldown: int = 10
    min_window_packets: int = 2048
    max_shards: int = 8
    min_shards: int = 1
    merge_enabled: bool = True
    attempts: int = 3
    timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.skew_high <= 1.0:
            raise ValueError(f"skew_high must be > 1, got {self.skew_high}")
        if not 1.0 <= self.skew_low < self.skew_high:
            raise ValueError(
                f"skew_low must be in [1, skew_high), got {self.skew_low}"
            )
        if self.persistence < 1:
            raise ValueError(
                f"persistence must be >= 1, got {self.persistence}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.min_window_packets < 1:
            raise ValueError(
                f"min_window_packets must be >= 1, got "
                f"{self.min_window_packets}"
            )
        if self.max_shards < 1:
            raise ValueError(f"max_shards must be >= 1, got {self.max_shards}")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"min_shards must be in [1, max_shards], got {self.min_shards}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def as_dict(self) -> Dict[str, object]:
        return {
            "skew_high": self.skew_high,
            "skew_low": self.skew_low,
            "persistence": self.persistence,
            "cooldown": self.cooldown,
            "min_window_packets": self.min_window_packets,
            "max_shards": self.max_shards,
            "min_shards": self.min_shards,
            "merge_enabled": self.merge_enabled,
            "attempts": self.attempts,
            "timeout_s": self.timeout_s,
        }


#: Bound on retained coordinator decisions (reports stay small).
MAX_DECISIONS = 64


class Coordinator:
    """Skew watcher proposing migration plans with hysteresis.

    Call :meth:`observe` once per ingested batch (the service does);
    it returns a :class:`MigrationPlan` when action is due, else None.
    The coordinator never executes plans itself — the service runs them
    through :func:`execute_migration` so manual and automatic migrations
    share one code path (and one fault-injection surface).
    """

    def __init__(self, policy: CoordinatorPolicy):
        self.policy = policy
        self._last_routed: List[int] = []
        self._window_base: List[int] = []
        self._hot_streak = 0
        self._cold_streak = 0
        self._cooldown = 0
        self.windows = 0
        self.proposals = 0
        self.decisions: List[Dict[str, object]] = []

    def note_result(self, committed: bool) -> None:
        """Tell the coordinator how its last proposal went (both
        outcomes re-arm the cooldown: a rolled-back migration should not
        be immediately retried into the same failure)."""
        self._cooldown = self.policy.cooldown
        self._hot_streak = 0
        self._cold_streak = 0
        if self.decisions:
            self.decisions[-1]["committed"] = committed

    def observe(self, engine) -> Optional[MigrationPlan]:
        """Update skew streaks from the engine's per-shard routed
        counters; return a plan when hysteresis says act."""
        policy = self.policy
        routed: List[int] = list(engine.routed)
        if len(self._last_routed) < len(routed):
            # New shards appear with zero history.
            self._last_routed += [0] * (len(routed) - len(self._last_routed))
        if len(self._window_base) < len(routed):
            self._window_base += [0] * (len(routed) - len(self._window_base))
        deltas = [
            now - base for now, base in zip(routed, self._window_base)
        ]
        total = sum(deltas)
        if total < policy.min_window_packets:
            # Window too small to judge: keep accumulating.
            self._last_routed = routed
            return None
        self._window_base = list(routed)
        self._last_routed = routed
        self.windows += 1
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        layout: ShardLayout = engine.layout
        eligible = [
            (shard, deltas[shard])
            for shard in range(min(len(deltas), layout.shards))
            if layout.slots_of(shard)
        ]
        if len(eligible) < 1:
            return None
        rates = [rate for _, rate in eligible]
        mean = sum(rates) / len(rates)
        if mean <= 0:
            return None
        skew = max(rates) / mean
        if skew >= policy.skew_high and len(eligible) >= 1:
            self._cold_streak = 0
            self._hot_streak += 1
            if self._hot_streak >= policy.persistence:
                plan = self._propose_split(layout, eligible, skew)
                if plan is not None:
                    return plan
        elif (
            policy.merge_enabled
            and skew <= policy.skew_low
            and len(eligible) > policy.min_shards
        ):
            self._hot_streak = 0
            self._cold_streak += 1
            if self._cold_streak >= policy.persistence:
                plan = self._propose_merge(layout, eligible, skew)
                if plan is not None:
                    return plan
        else:
            self._hot_streak = 0
            self._cold_streak = 0
        return None

    def _propose_split(
        self, layout: ShardLayout, eligible, skew: float
    ) -> Optional[MigrationPlan]:
        hot = max(eligible, key=lambda item: item[1])[0]
        if len(layout.slots_of(hot)) < 2:
            # One slot cannot be split exactly (state is not separable);
            # the overload ladder remains the only relief.
            return None
        if layout.shards < self.policy.max_shards:
            target = layout.shards  # spawn a new shard
        else:
            spares = [
                shard
                for shard in range(layout.shards)
                if not layout.slots_of(shard)
            ]
            if spares:
                target = spares[0]
            else:
                cold = min(eligible, key=lambda item: item[1])[0]
                if cold == hot:
                    return None
                target = cold
        plan = MigrationPlan.split(
            layout,
            hot,
            target=target,
            reason=f"skew {skew:.2f} >= {self.policy.skew_high} "
            f"for {self._hot_streak} windows",
        )
        self._record(plan, "split", skew)
        return plan

    def _propose_merge(
        self, layout: ShardLayout, eligible, skew: float
    ) -> Optional[MigrationPlan]:
        ordered = sorted(eligible, key=lambda item: item[1])
        cold = ordered[0][0]
        if len(ordered) < 2:
            return None
        target = ordered[1][0]
        plan = MigrationPlan.merge(
            layout,
            cold,
            target,
            reason=f"skew {skew:.2f} <= {self.policy.skew_low} "
            f"for {self._cold_streak} windows",
        )
        self._record(plan, "merge", skew)
        return plan

    def _record(self, plan: MigrationPlan, action: str, skew: float) -> None:
        self.proposals += 1
        self.decisions.append(
            {
                "action": action,
                "skew": skew,
                "plan": plan.describe(),
                "window": self.windows,
            }
        )
        if len(self.decisions) > MAX_DECISIONS:
            del self.decisions[: len(self.decisions) - MAX_DECISIONS]

    def report(self) -> Dict[str, object]:
        return {
            "policy": self.policy.as_dict(),
            "windows": self.windows,
            "proposals": self.proposals,
            "cooldown_remaining": self._cooldown,
            "hot_streak": self._hot_streak,
            "cold_streak": self._cold_streak,
            "decisions": list(self.decisions),
        }

    def __repr__(self) -> str:
        return (
            f"Coordinator(windows={self.windows}, "
            f"proposals={self.proposals}, cooldown={self._cooldown})"
        )
