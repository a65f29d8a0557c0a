"""Deterministic, seedable fault injection for the detection service.

Chaos testing a detector whose whole value is a *deterministic* guarantee
needs deterministic chaos: every fault in a :class:`FaultPlan` triggers
at an exact packet index (never on a timer), so a failing run is
reproducible bit for bit.  A plan is built programmatically or parsed
from the compact spec string the CLI accepts via ``--fault-plan``::

    kill:shard=1,at=5000              # shard 1's worker dies at its
                                      # 5000th shard-local packet
    stall:shard=0,at=2000,secs=0.25   # shard 0 sleeps 0.25s once
    drop:shard=1,at=4000,count=50     # shard 1 loses packets 4000..4049
    source:kind=transient,at=3000     # source raises after 3000 packets
    source:kind=permanent,at=8000     # ... and never recovers
    ckpt:after=2,mode=truncate        # damage the 2nd checkpoint write
    mig:phase=install,mode=fail,at=1  # 1st migration fails at install
    mig:phase=extract,mode=stall,at=2,secs=0.2  # ... 2nd sleeps 0.2s
    mig:phase=cutover,mode=kill,at=1  # worker dies at the cutover point
    tune:phase=apply,mode=fail,at=1   # 1st retune fails at its apply step
    tune:phase=verify,mode=stall,at=2,secs=0.2  # ... 2nd sleeps 0.2s
    tune:phase=commit,mode=kill,at=1  # worker dies at the commit point
    net:kind=drop,shard=0,at=5        # shard 0's 5th sent frame vanishes
    net:kind=dup,shard=0,at=3         # ... 3rd frame arrives twice
    net:kind=reorder,shard=0,at=6     # ... 6th frame swaps with the 7th
    net:kind=delay,shard=0,at=4,secs=0.05   # ... 4th frame is held 50ms
    net:kind=partition,shard=1,at=12,secs=0.2  # connection severed at
                                      # frame 12; reconnects refused 0.2s
    net:kind=halfopen,shard=1,at=9    # writes silently vanish from
                                      # frame 9 until liveness notices
    seed:42                           # RNG seed for corruption bytes

    --fault-plan "kill:shard=1,at=5000;source:kind=transient,at=3000"

Semantics that make recovery testable:

- **Shard faults** trigger on the *shard-local* packet index (the Nth
  packet routed to / processed by that shard), which the engines restore
  from checkpoints — so a fault position means the same packet before
  and after a supervised restart.
- **Kill and stall faults fire once.**  The plan records the firing
  (worker kills are recorded by the parent when it detects the death),
  so a supervised restart does not crash-loop on the same fault.
- **Drop faults are positional and idempotent**: replaying the same
  window drops the same packets, keeping recovered runs deterministic.
- **Source faults** trigger at a global stream position; transient ones
  fire once (a retry succeeds), permanent ones fire on every attempt.
- **Checkpoint faults** damage the file right after the Nth successful
  write, exercising the corrupt-checkpoint recovery path.
- **Migration and tune faults** (:class:`PhaseFault`) fire at a phase
  boundary of the ``at``-th migration or retune attempted in the run
  (1-based, fire-once; see :mod:`repro.service.transition`):
  ``mode=fail`` injects a transient failure (exercising rollback and
  retry), ``mode=stall`` sleeps ``secs`` there (exercising the time
  budget), ``mode=kill`` raises a worker death (exercising supervised
  restart-from-checkpoint mid-transition).
- **Net faults** fire at an exact *frame send index* on one remote
  shard connection (1-based, counting every frame the transport
  attempts to put on the wire, replays included) and fire once —
  replayed frames advance the same counter, so a positional fault
  would otherwise re-trip forever and the run could never converge.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import ClassVar, Iterator, List, Optional, Tuple, Union

from ..model.packet import Packet
from .errors import PermanentSourceError, TransientSourceError
from .sources import PacketSource
from .transition import MIGRATION_PHASES, RETUNE_PHASES

#: Exit code an injected worker kill uses (visible in ShardCrashError).
KILL_EXIT_CODE = 70

SHARD_FAULT_KINDS = ("kill", "stall", "drop")
SOURCE_FAULT_KINDS = ("transient", "permanent")
CHECKPOINT_FAULT_MODES = ("flip", "truncate", "zero")
PHASE_FAULT_MODES = ("fail", "stall", "kill")
NET_FAULT_KINDS = ("drop", "dup", "reorder", "delay", "partition", "halfopen")


@dataclass
class ShardFault:
    """A fault pinned to one shard at a shard-local packet index."""

    kind: str  # kill | stall | drop
    shard: int
    at: int  # 1-based shard-local packet index
    count: int = 1  # drop window length
    duration_s: float = 0.0  # stall sleep
    fired: bool = False

    def __post_init__(self):
        if self.kind not in SHARD_FAULT_KINDS:
            raise ValueError(
                f"shard fault kind must be one of {SHARD_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.at < 1:
            raise ValueError(f"fault position must be >= 1, got {self.at}")
        if self.count < 1:
            raise ValueError(f"drop count must be >= 1, got {self.count}")


@dataclass
class SourceFault:
    """Make the source raise after delivering ``at`` packets."""

    kind: str  # transient | permanent
    at: int
    fired: bool = False

    def __post_init__(self):
        if self.kind not in SOURCE_FAULT_KINDS:
            raise ValueError(
                f"source fault kind must be one of {SOURCE_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.at < 0:
            raise ValueError(f"fault position must be >= 0, got {self.at}")


@dataclass
class CheckpointFault:
    """Damage the checkpoint file right after its ``after``-th write."""

    after: int  # 1-based write index
    mode: str = "flip"
    fired: bool = False

    def __post_init__(self):
        if self.mode not in CHECKPOINT_FAULT_MODES:
            raise ValueError(
                f"checkpoint fault mode must be one of "
                f"{CHECKPOINT_FAULT_MODES}, got {self.mode!r}"
            )
        if self.after < 1:
            raise ValueError(f"after must be >= 1, got {self.after}")


@dataclass
class PhaseFault:
    """A fault fired at a phase boundary of the ``at``-th guarded
    transition (see :mod:`repro.service.transition`).  Subclasses name
    the transition ``kind``, their DSL ``prefix``, the ``label`` their
    messages use and the protocol's ``phases``."""

    phase: str
    mode: str = "fail"  # fail | stall | kill
    at: int = 1  # 1-based index of the transition in the run
    duration_s: float = 0.1  # stall sleep
    fired: bool = False

    kind: ClassVar[str]
    prefix: ClassVar[str]
    label: ClassVar[str]
    phases: ClassVar[Tuple[str, ...]]

    def __post_init__(self):
        if self.phase not in self.phases:
            raise ValueError(
                f"{self.label} fault phase must be one of {self.phases}, "
                f"got {self.phase!r}"
            )
        if self.mode not in PHASE_FAULT_MODES:
            raise ValueError(
                f"{self.label} fault mode must be one of "
                f"{PHASE_FAULT_MODES}, got {self.mode!r}"
            )
        if self.at < 1:
            raise ValueError(f"{self.kind} index must be >= 1, got {self.at}")

    def describe(self) -> str:
        extra = f",secs={self.duration_s:g}" if self.mode == "stall" else ""
        return (
            f"{self.prefix}:phase={self.phase},mode={self.mode},"
            f"at={self.at}{extra}" + (" (fired)" if self.fired else "")
        )


class MigrationFault(PhaseFault):
    """A fault fired at a phase boundary of the ``at``-th migration."""

    kind, prefix, label, phases = (
        "migration", "mig", "migration", MIGRATION_PHASES,
    )


class TuneFault(PhaseFault):
    """A fault fired at a phase boundary of the ``at``-th retune."""

    kind, prefix, label, phases = "retune", "tune", "tune", RETUNE_PHASES


@dataclass
class NetFault:
    """A fault fired at an exact frame index on one shard connection.

    ``at`` is the 1-based index in the connection's *send attempt*
    stream (replays advance it too).  ``duration_s`` is the delay for
    ``delay`` faults and the reconnect-refusal window for ``partition``
    faults; ``count`` widens ``drop`` windows.
    """

    kind: str  # drop | dup | reorder | delay | partition | halfopen
    shard: int
    at: int  # 1-based frame send index on that connection
    count: int = 1  # drop window length
    duration_s: float = 0.0  # delay sleep / partition reconnect refusal
    fired: bool = False

    def __post_init__(self):
        if self.kind not in NET_FAULT_KINDS:
            raise ValueError(
                f"net fault kind must be one of {NET_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.at < 1:
            raise ValueError(f"fault position must be >= 1, got {self.at}")
        if self.count < 1:
            raise ValueError(f"drop count must be >= 1, got {self.count}")
        if self.duration_s < 0:
            raise ValueError(
                f"duration must be >= 0, got {self.duration_s}"
            )


Fault = Union[ShardFault, SourceFault, CheckpointFault, MigrationFault,
              TuneFault, NetFault]


class FaultPlan:
    """A deterministic schedule of injected failures.

    One plan instance is threaded through a whole supervised run — the
    engines, the source wrapper, and the checkpoint writer all consult
    the *same* object, which is how fire-once faults stay fired across a
    supervised engine rebuild.
    """

    def __init__(self, faults: "List[Fault] | Tuple[Fault, ...]" = (),
                 seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.shard_faults: List[ShardFault] = []
        self.source_faults: List[SourceFault] = []
        self.checkpoint_faults: List[CheckpointFault] = []
        self.migration_faults: List[MigrationFault] = []
        self.tune_faults: List[TuneFault] = []
        self.net_faults: List[NetFault] = []
        for fault in faults:
            self.add(fault)

    def add(self, fault: Fault) -> "FaultPlan":
        if isinstance(fault, ShardFault):
            self.shard_faults.append(fault)
        elif isinstance(fault, SourceFault):
            self.source_faults.append(fault)
        elif isinstance(fault, CheckpointFault):
            self.checkpoint_faults.append(fault)
        elif isinstance(fault, MigrationFault):
            self.migration_faults.append(fault)
        elif isinstance(fault, TuneFault):
            self.tune_faults.append(fault)
        elif isinstance(fault, NetFault):
            self.net_faults.append(fault)
        else:
            raise TypeError(f"not a fault: {fault!r}")
        return self

    def __bool__(self) -> bool:
        return bool(
            self.shard_faults
            or self.source_faults
            or self.checkpoint_faults
            or self.migration_faults
            or self.tune_faults
            or self.net_faults
        )

    # -- parsing -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the CLI spec format (see the module docstring)."""
        plan = cls()
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if ":" not in clause:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected 'kind:key=value,...'"
                )
            kind, _, body = clause.partition(":")
            kind = kind.strip()
            if kind == "seed":
                plan.seed = int(body)
                plan._rng = random.Random(plan.seed)
                continue
            fields = {}
            for pair in body.split(","):
                if "=" not in pair:
                    raise ValueError(
                        f"bad fault field {pair!r} in clause {clause!r}"
                    )
                key, _, value = pair.partition("=")
                fields[key.strip()] = value.strip()
            try:
                plan.add(cls._parse_clause(kind, fields))
            except (KeyError, ValueError) as error:
                raise ValueError(
                    f"bad fault clause {clause!r}: {error}"
                ) from error
        return plan

    @staticmethod
    def _parse_clause(kind: str, fields: dict) -> Fault:
        if kind == "kill":
            return ShardFault(
                "kill", shard=int(fields["shard"]), at=int(fields["at"])
            )
        if kind == "stall":
            return ShardFault(
                "stall",
                shard=int(fields["shard"]),
                at=int(fields["at"]),
                duration_s=float(fields.get("secs", 0.1)),
            )
        if kind == "drop":
            return ShardFault(
                "drop",
                shard=int(fields["shard"]),
                at=int(fields["at"]),
                count=int(fields.get("count", 1)),
            )
        if kind == "source":
            return SourceFault(fields["kind"], at=int(fields["at"]))
        if kind == "ckpt":
            return CheckpointFault(
                after=int(fields["after"]), mode=fields.get("mode", "flip")
            )
        for phase_fault in (MigrationFault, TuneFault):
            if kind == phase_fault.prefix:
                return phase_fault(
                    phase=fields["phase"],
                    mode=fields.get("mode", "fail"),
                    at=int(fields.get("at", 1)),
                    duration_s=float(fields.get("secs", 0.1)),
                )
        if kind == "net":
            return NetFault(
                kind=fields["kind"],
                shard=int(fields["shard"]),
                at=int(fields["at"]),
                count=int(fields.get("count", 1)),
                duration_s=float(fields.get("secs", 0.05)),
            )
        raise ValueError(f"unknown fault kind {kind!r}")

    def describe(self) -> str:
        parts = []
        for fault in self.shard_faults:
            extra = ""
            if fault.kind == "drop":
                extra = f",count={fault.count}"
            elif fault.kind == "stall":
                extra = f",secs={fault.duration_s:g}"
            parts.append(
                f"{fault.kind}:shard={fault.shard},at={fault.at}{extra}"
                + (" (fired)" if fault.fired else "")
            )
        for fault in self.source_faults:
            parts.append(
                f"source:kind={fault.kind},at={fault.at}"
                + (" (fired)" if fault.fired else "")
            )
        for fault in self.checkpoint_faults:
            parts.append(
                f"ckpt:after={fault.after},mode={fault.mode}"
                + (" (fired)" if fault.fired else "")
            )
        parts += [
            fault.describe()
            for fault in self.migration_faults + self.tune_faults
        ]
        for fault in self.net_faults:
            extra = ""
            if fault.kind == "drop" and fault.count > 1:
                extra = f",count={fault.count}"
            elif fault.kind in ("delay", "partition"):
                extra = f",secs={fault.duration_s:g}"
            parts.append(
                f"net:kind={fault.kind},shard={fault.shard},at={fault.at}"
                f"{extra}" + (" (fired)" if fault.fired else "")
            )
        if self.seed:
            parts.append(f"seed:{self.seed}")
        return "; ".join(parts) if parts else "(empty plan)"

    # -- shard-fault queries (engines call these) --------------------------

    def kill_at(self, shard: int) -> Optional[int]:
        """The next unfired kill position for ``shard``, or None."""
        for fault in self.shard_faults:
            if fault.kind == "kill" and fault.shard == shard and not fault.fired:
                return fault.at
        return None

    def mark_kill_fired(self, shard: int) -> None:
        """Record that ``shard``'s pending kill fault went off (called by
        the parent when it detects the death — the dying worker cannot)."""
        for fault in self.shard_faults:
            if fault.kind == "kill" and fault.shard == shard and not fault.fired:
                fault.fired = True
                return

    def take_kill(self, shard: int, local_index: int) -> Optional[ShardFault]:
        """In-process kill check: fires (once) when the shard's local
        packet index reaches the fault position."""
        for fault in self.shard_faults:
            if (
                fault.kind == "kill"
                and fault.shard == shard
                and not fault.fired
                and local_index >= fault.at
            ):
                fault.fired = True
                return fault
        return None

    def take_stall(self, shard: int, local_index: int) -> Optional[ShardFault]:
        for fault in self.shard_faults:
            if (
                fault.kind == "stall"
                and fault.shard == shard
                and not fault.fired
                and local_index >= fault.at
            ):
                fault.fired = True
                return fault
        return None

    def stall_for(self, shard: int) -> Optional[ShardFault]:
        """The next unfired stall fault for ``shard`` (handed to a
        multiprocess worker at spawn)."""
        for fault in self.shard_faults:
            if fault.kind == "stall" and fault.shard == shard and not fault.fired:
                return fault
        return None

    def should_drop(self, shard: int, local_index: int) -> bool:
        """Whether the shard's ``local_index``-th packet falls inside an
        injected drop window.  Positional, hence idempotent on replay."""
        for fault in self.shard_faults:
            if (
                fault.kind == "drop"
                and fault.shard == shard
                and fault.at <= local_index < fault.at + fault.count
            ):
                return True
        return False

    # -- phase-fault queries (the transition executor calls this) ----------

    def take_phase(
        self, kind: str, phase: str, index: int
    ) -> Optional[PhaseFault]:
        """The fault (if any) armed for this phase boundary of the
        ``index``-th transition of ``kind`` (``"migration"`` or
        ``"retune"``).  Fire-once: a rolled-back transition's retry
        attempts do not re-trip the same fault, so chaos runs converge
        instead of crash-looping."""
        for fault in self.migration_faults + self.tune_faults:
            if (
                fault.kind == kind
                and fault.phase == phase
                and fault.at == index
                and not fault.fired
            ):
                fault.fired = True
                return fault
        return None

    # -- net-fault queries (the TCP transport calls this) ------------------

    def take_net(self, shard: int, frame_index: int) -> Optional[NetFault]:
        """The fault (if any) armed for this send attempt on ``shard``'s
        connection.  ``frame_index`` is 1-based and counts every frame
        the transport tries to send, replays included.  Fire-once: a
        replayed frame re-enters the counter stream, so a positional
        fault would re-trip on its own replay forever; firing once lets
        the exactly-once machinery converge.  ``drop`` windows wider
        than one frame stay armed until the whole window has passed."""
        for fault in self.net_faults:
            if fault.shard != shard or fault.fired:
                continue
            if fault.kind == "drop":
                if fault.at <= frame_index < fault.at + fault.count:
                    if frame_index == fault.at + fault.count - 1:
                        fault.fired = True
                    return fault
            elif fault.at == frame_index:
                fault.fired = True
                return fault
        return None

    # -- source-fault queries ----------------------------------------------

    def source_fault_at(self, position: int) -> Optional[SourceFault]:
        """The fault (if any) that fires once the source has delivered
        ``position`` packets.  Transient faults are marked fired;
        permanent faults keep firing on every attempt."""
        for fault in self.source_faults:
            if fault.at == position and (
                fault.kind == "permanent" or not fault.fired
            ):
                fault.fired = True
                return fault
        return None

    # -- checkpoint-fault application --------------------------------------

    def corrupt_checkpoint(self, path, write_index: int) -> Optional[str]:
        """Damage ``path`` if a checkpoint fault targets the
        ``write_index``-th write; returns the mode applied, else None."""
        for fault in self.checkpoint_faults:
            if fault.after == write_index and not fault.fired:
                fault.fired = True
                self._apply_corruption(path, fault.mode)
                return fault.mode
        return None

    def _apply_corruption(self, path, mode: str) -> None:
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        if mode == "zero" or not data:
            data = bytearray()
        elif mode == "truncate":
            data = data[: max(1, len(data) // 2)]
        else:  # flip — seeded, hence reproducible
            index = self._rng.randrange(len(data))
            data[index] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
            handle.flush()
            os.fsync(handle.fileno())

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()!r}, seed={self.seed})"


class FaultySource(PacketSource):
    """Wrap a source so it raises according to a :class:`FaultPlan`.

    The error is raised *before* the packet at the fault position is
    delivered, so ``position`` in the raised :class:`SourceError` equals
    the number of packets successfully handed downstream.
    """

    def __init__(self, inner: PacketSource, plan: FaultPlan):
        self._inner = inner
        self._plan = plan
        self.name = f"faulty({inner.name})"
        self.replayable = inner.replayable

    def iter_packets(self) -> Iterator[Packet]:
        plan = self._plan
        position = 0
        for packet in self._inner.iter_packets():
            fault = plan.source_fault_at(position)
            if fault is not None:
                raise self._error(fault, position)
            yield packet
            position += 1
        fault = plan.source_fault_at(position)
        if fault is not None:
            raise self._error(fault, position)

    @staticmethod
    def _error(fault: SourceFault, position: int) -> Exception:
        if fault.kind == "transient":
            return TransientSourceError(
                f"injected transient source error after {position} packets",
                position=position,
            )
        return PermanentSourceError(
            f"injected permanent source error after {position} packets",
            position=position,
        )
