"""CLEF: EARDet composed with recursive large-flow detection (RLFD).

EARDet is exact only outside its ambiguity region: a flow pacing itself
between ``TH_l`` and ``TH_h`` can overuse the link forever without ever
being caught.  CLEF (Wu, Hsiao et al., "CLEF: Limiting the Damage Caused
by Large Flows in the Internet Core", arXiv:1807.05652) closes that gap
probabilistically: a small **Recursive Large-Flow Detector** re-uses one
array of ``m`` counters over a virtual ``m``-ary tree of depth ``d``,
narrowing onto a persistent in-region flow over ``d`` consecutive time
periods.  Because a counter array of size ``m`` covers ``m^d`` flow
groups, the memory cost of watching the ambiguity region is logarithmic
in the flow space.

Per level, every flow whose hashed path matches the currently selected
prefix is counted into one of the ``m`` counters; at the end of the
period the largest counter's branch is selected and the detector
descends.  At the bottom level a counter belongs to few (ideally one)
flows, so a counter exceeding the low-bandwidth threshold
``gamma t + beta`` identifies a concrete overuse flow.  The tree then
restarts with rotated hash seeds, so a flow cannot hide behind one
unlucky grouping forever.

All state is integer-exact (bytes, nanoseconds), every hash is the
deterministic :func:`~repro.detectors.hashing.splitmix64` mix, and
``snapshot``/``restore`` capture the complete state, so RLFD-based
watchers survive checkpoint/restore bit-identically.

A level's hash salt depends only on the seed, the epoch and the level,
so each RLFD keeps the current epoch's ``depth`` salts in a table that
is rebuilt the first time it is read after the epoch moves (a restart,
an idle fast-forward, a restore or a reset).  A packet then costs one
``canonical_key`` and one splitmix64 round per level it is hashed at.
:meth:`TwinRLFD.observe_batch` computes that key once per packet for
both twins and runs each twin's column kernel over it; the per-packet
``observe`` path is the reference the kernel is tested against.

Three classes:

- :class:`RecursiveLargeFlowDetector` — one RLFD instance.
- :class:`TwinRLFD` — the paper's twin arrangement: a fast-period RLFD
  (catches bursty in-region flows quickly) and a slow-period one
  (catches low-rate persistent flows the fast twin resets too often to
  see).
- :class:`CLEF` — EARDet + TwinRLFD as a single hybrid
  :class:`~repro.detectors.base.Detector`; exact detections and
  probabilistic ones are kept separately inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.config import EARDetConfig
from ..model.packet import FlowId, Packet
from ..model.units import NS_PER_S
from .base import Detector
from .hashing import canonical_key, splitmix64

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids an import cycle
    from ..core.eardet import EARDet


def rlfd_threshold(gamma: int, beta: int, period_ns: int) -> int:
    """The byte budget a ``TH_l``-compliant flow may use in one period.

    A flow obeying ``TH_l(t) = gamma t + beta`` sends at most
    ``gamma * period + beta`` bytes in any window of ``period`` ns, so a
    bottom-level counter above this is evidence of overuse (exact
    integer floor division; erring low only tightens detection).
    """
    return (gamma * period_ns) // NS_PER_S + beta


def rlfd_depth_for(flow_space: int, counters: int) -> int:
    """Smallest tree depth ``d`` with ``counters ** d >= flow_space``,
    i.e. deep enough that a bottom-level counter maps to roughly one
    flow (the paper's in-core sizing rule)."""
    if counters < 2:
        raise ValueError(f"counters must be >= 2, got {counters}")
    if flow_space < 1:
        raise ValueError(f"flow_space must be >= 1, got {flow_space}")
    depth = 1
    reach = counters
    while reach < flow_space:
        reach *= counters
        depth += 1
    return depth


@dataclass
class RLFDStats:
    """Operational counters for diagnostics and telemetry."""

    packets: int = 0
    counted_packets: int = 0
    off_path_packets: int = 0
    period_ends: int = 0
    descents: int = 0
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


class RecursiveLargeFlowDetector(Detector):
    """One recursive large-flow detector (RLFD).

    Parameters
    ----------
    counters:
        Branching factor ``m``: size of the single counter array.
    depth:
        Tree depth ``d``; the detector covers ``m^d`` flow groups.
    period_ns:
        Duration of one level's observation period.
    threshold:
        Byte threshold a bottom-level counter must exceed to flag the
        triggering flow; use :func:`rlfd_threshold` to derive it from a
        low-bandwidth threshold function.
    seed:
        Salts every hash; each tree restart additionally rotates the
        seeds so groupings change between descents.
    """

    name = "rlfd"

    #: Version of the RLFD snapshot schema; bump on incompatible change.
    SNAPSHOT_FORMAT = 1

    def __init__(
        self,
        counters: int,
        depth: int,
        period_ns: int,
        threshold: int,
        seed: int = 0,
    ):
        super().__init__()
        if counters < 2:
            raise ValueError(f"counters must be >= 2, got {counters}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.counters = counters
        self.depth = depth
        self.period_ns = period_ns
        self.threshold = threshold
        self.seed = seed
        self.stats = RLFDStats()
        # The epoch the salt table was built for (None: not built yet).
        self._salt_epoch: Optional[int] = None
        self._salt_table: List[int] = []
        self._reset_state()

    # -- tree bookkeeping ---------------------------------------------------

    def _salts(self) -> List[int]:
        """The current epoch's salt of every tree level, rebuilt only
        when the epoch has moved since the table was built."""
        if self._salt_epoch != self._epoch:
            base = splitmix64(self.seed ^ self._epoch)
            self._salt_table = [
                splitmix64(base + level) for level in range(self.depth)
            ]
            self._salt_epoch = self._epoch
        return self._salt_table

    def _branch(self, key: int, level: int) -> int:
        """The counter index a flow's canonical key hashes to at a tree
        level, salted by the current epoch so restarts regroup flows."""
        return splitmix64(key ^ self._salts()[level]) % self.counters

    def _end_period(self) -> None:
        """Close the current period: descend into the largest branch, or
        restart the tree from the bottom level (ties pick the lowest
        index, so the choice is deterministic)."""
        self.stats.period_ends += 1
        if self._level < self.depth - 1:
            best = max(range(self.counters), key=lambda i: (self._counts[i], -i))
            self._path.append(best)
            self._level += 1
        else:
            self._epoch += 1
            self._level = 0
            self._path = []
            self.stats.descents += 1
        self._counts = [0] * self.counters

    def _advance_time(self, now_ns: int) -> None:
        """Fast-forward period boundaries up to ``now_ns``.  A long idle
        gap is handled arithmetically: after the first boundary all
        counters are zero, so every further selection deterministically
        picks branch 0 — no per-period loop is needed."""
        if not self._started:
            self._started = True
            self._period_start = now_ns
            return
        elapsed = (now_ns - self._period_start) // self.period_ns
        if elapsed <= 0:
            return
        self._period_start += elapsed * self.period_ns
        self._end_period()  # the only boundary where counts matter
        elapsed -= 1
        if elapsed == 0:
            return
        # Remaining boundaries see all-zero counters: selection appends
        # branch 0 until the bottom level, then the tree restarts.
        self.stats.period_ends += elapsed
        to_restart = self.depth - self._level  # boundaries until restart
        if elapsed < to_restart:
            self._path.extend([0] * elapsed)
            self._level += elapsed
            return
        elapsed -= to_restart
        full_trees, partial = divmod(elapsed, self.depth)
        self._epoch += 1 + full_trees
        self.stats.descents += 1 + full_trees
        self._level = partial
        self._path = [0] * partial
        self._counts = [0] * self.counters

    # -- Detector interface -------------------------------------------------

    def _update(self, packet: Packet) -> bool:
        self.stats.packets += 1
        self._advance_time(packet.time)
        key = canonical_key(packet.fid)
        for level, chosen in enumerate(self._path):
            if self._branch(key, level) != chosen:
                self.stats.off_path_packets += 1
                return False
        self.stats.counted_packets += 1
        index = self._branch(key, self._level)
        self._counts[index] += packet.size
        if (
            self._level == self.depth - 1
            and self._counts[index] > self.threshold
        ):
            self.stats.flags += 1
            return True
        return False

    def _kernel_locals(self):
        """What :meth:`_observe_keys` holds in locals between period
        boundaries: the counter array, the ``(salt, chosen branch)`` of
        every level above the current one, the current level's salt,
        whether it is the bottom level, and the next boundary."""
        salts = self._salts()
        return (
            self._counts,
            list(zip(salts, self._path)),
            salts[self._level],
            self._level == self.depth - 1,
            self._period_start + self.period_ns,
        )

    def _observe_keys(
        self, times: Sequence[int], sizes: Sequence[int], keys: Sequence[int]
    ) -> List[int]:
        """Run parallel packet columns through the detector, ``keys``
        holding each packet's ``canonical_key(fid)``; return the
        positions of the packets it flags.

        Per packet this is exactly :meth:`_update`, with the state held
        in locals: the period boundary is tested inline and only a
        crossing calls :meth:`_advance_time` (the locals are reloaded
        after it), the splitmix64 round is inlined, and ``stats`` is
        written once per call.  Reporting flagged packets to a sink is
        the caller's job, as is the invariant checker."""
        flagged: List[int] = []
        if times and not self._started:
            self._advance_time(times[0])
        counts, above, salt, at_bottom, boundary = self._kernel_locals()
        counters = self.counters
        threshold = self.threshold
        mask = 0xFFFFFFFFFFFFFFFF
        counted = 0
        position = -1
        for now, size, key in zip(times, sizes, keys):
            position += 1
            if now >= boundary:
                self._advance_time(now)
                counts, above, salt, at_bottom, boundary = (
                    self._kernel_locals()
                )
            # splitmix64(key ^ salt) % counters, inlined, per level.
            for level_salt, chosen in above:
                mixed = ((key ^ level_salt) + 0x9E3779B97F4A7C15) & mask
                mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & mask
                mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & mask
                if (mixed ^ (mixed >> 31)) % counters != chosen:
                    break
            else:
                counted += 1
                mixed = ((key ^ salt) + 0x9E3779B97F4A7C15) & mask
                mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & mask
                mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & mask
                index = (mixed ^ (mixed >> 31)) % counters
                total = counts[index] = counts[index] + size
                if at_bottom and total > threshold:
                    flagged.append(position)
        packets = position + 1
        stats = self.stats
        stats.packets += packets
        stats.counted_packets += counted
        stats.off_path_packets += packets - counted
        stats.flags += len(flagged)
        return flagged

    def _reset_state(self) -> None:
        self._counts: List[int] = [0] * self.counters
        self._path: List[int] = []
        self._level = 0
        self._epoch = 0
        self._period_start = 0
        self._started = False
        self.stats.reset()

    def counter_count(self) -> int:
        return self.counters

    # -- introspection ------------------------------------------------------

    @property
    def level(self) -> int:
        """Current tree level (0 = root)."""
        return self._level

    @property
    def epoch(self) -> int:
        """Completed full-tree descents (hash-rotation epoch)."""
        return self._epoch

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Complete state as plain data; restoring and replaying the
        remaining packets is bit-identical to an uninterrupted run."""
        return {
            "format": self.SNAPSHOT_FORMAT,
            "counts": list(self._counts),
            "path": list(self._path),
            "level": self._level,
            "epoch": self._epoch,
            "period_start": self._period_start,
            "started": self._started,
            "stats": self.stats.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported RLFD snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        counts = list(state["counts"])  # type: ignore[arg-type]
        if len(counts) != self.counters:
            raise ValueError(
                f"snapshot has {len(counts)} counters, detector has "
                f"{self.counters}"
            )
        path = list(state["path"])  # type: ignore[arg-type]
        level = state["level"]
        epoch = state["epoch"]
        if not 0 <= level < self.depth:  # type: ignore[operator]
            raise ValueError(
                f"snapshot level {level} is outside this detector's "
                f"depth {self.depth}"
            )
        if len(path) != level:
            raise ValueError(
                f"snapshot path {path} does not lead to level {level}"
            )
        if any(not 0 <= chosen < self.counters for chosen in path):
            raise ValueError(
                f"snapshot path {path} names a branch outside "
                f"[0, {self.counters})"
            )
        if epoch < 0:  # type: ignore[operator]
            raise ValueError(f"snapshot epoch {epoch} is negative")
        self._counts = counts
        self._path = path
        self._level = level  # type: ignore[assignment]
        self._epoch = epoch  # type: ignore[assignment]
        self._period_start = state["period_start"]  # type: ignore[assignment]
        self._started = state["started"]  # type: ignore[assignment]
        self.stats.restore(state["stats"])  # type: ignore[arg-type]
        self.sink.restore(state["sink"])  # type: ignore[arg-type]
        if self.checker is not None:
            self.checker.reset()

    def __repr__(self) -> str:
        return (
            f"RecursiveLargeFlowDetector(m={self.counters}, d={self.depth}, "
            f"period_ns={self.period_ns}, detected={len(self.sink)})"
        )


class TwinRLFD(Detector):
    """Two RLFDs over the same stream with different periods.

    The CLEF paper pairs a **fast** RLFD (short periods; catches bursty
    in-region flows before they do much damage) with a **slow** one
    (long periods; accumulates enough bytes from a low-rate persistent
    flow for its counter to cross the threshold).  Both see every
    packet; a flow flagged by either twin is reported here.
    """

    name = "twin-rlfd"

    SNAPSHOT_FORMAT = 1

    def __init__(self, fast: RecursiveLargeFlowDetector, slow: RecursiveLargeFlowDetector):
        super().__init__()
        self.fast = fast
        self.slow = slow

    @classmethod
    def for_config(
        cls,
        config: EARDetConfig,
        counters: int,
        depth: int,
        fast_period_ns: int,
        slow_period_ns: int,
        seed: int = 0,
    ) -> "TwinRLFD":
        """Size both twins against the config's low-bandwidth threshold
        ``TH_l(t) = gamma_l t + beta_l`` (the boundary of the ambiguity
        region the twins are watching)."""
        fast = RecursiveLargeFlowDetector(
            counters=counters,
            depth=depth,
            period_ns=fast_period_ns,
            threshold=rlfd_threshold(config.gamma_l, config.beta_l, fast_period_ns),
            seed=splitmix64(seed ^ 0xFA57),
        )
        slow = RecursiveLargeFlowDetector(
            counters=counters,
            depth=depth,
            period_ns=slow_period_ns,
            threshold=rlfd_threshold(config.gamma_l, config.beta_l, slow_period_ns),
            seed=splitmix64(seed ^ 0x510F),
        )
        return cls(fast, slow)

    def _update(self, packet: Packet) -> bool:
        # Both twins must see every packet; no short-circuiting.
        in_fast = self.fast.observe(packet)
        in_slow = self.slow.observe(packet)
        return in_fast or in_slow

    def observe_batch(
        self,
        times: Sequence[int],
        sizes: Sequence[int],
        fids: Sequence[FlowId],
    ) -> None:
        """Process parallel packet columns in order, without building a
        :class:`~repro.model.packet.Packet`; the sinks and states end
        exactly as per-packet :meth:`observe` leaves them.

        Each packet's ``canonical_key`` is computed once and both twins'
        column kernels run over the key column.  A twin's flagged
        packets go to its own sink, and every packet either twin flagged
        goes to this sink in packet order: per packet, a flow enters
        this sink exactly at the packet where either twin first flags
        it.  With an invariant checker attached anywhere the batch runs
        through :meth:`observe`, since a checker audits every packet."""
        fast, slow = self.fast, self.slow
        if any(d.checker is not None for d in (self, fast, slow)):
            for now, size, fid in zip(times, sizes, fids):
                self.observe(Packet(now, size, fid))
            return
        keys = [canonical_key(fid) for fid in fids]
        flagged_fast = fast._observe_keys(times, sizes, keys)
        flagged_slow = slow._observe_keys(times, sizes, keys)
        for twin, flagged in ((fast, flagged_fast), (slow, flagged_slow)):
            report = twin.sink.report
            for position in flagged:
                report(fids[position], times[position])
        report = self.sink.report
        for position in sorted({*flagged_fast, *flagged_slow}):
            report(fids[position], times[position])

    def _reset_state(self) -> None:
        self.fast.reset()
        self.slow.reset()

    def counter_count(self) -> int:
        return self.fast.counter_count() + self.slow.counter_count()

    def snapshot(self) -> Dict[str, object]:
        return {
            "format": self.SNAPSHOT_FORMAT,
            "fast": self.fast.snapshot(),
            "slow": self.slow.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported TwinRLFD snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        self.fast.restore(state["fast"])  # type: ignore[arg-type]
        self.slow.restore(state["slow"])  # type: ignore[arg-type]
        self.sink.restore(state["sink"])  # type: ignore[arg-type]
        if self.checker is not None:
            self.checker.reset()

    def __repr__(self) -> str:
        return (
            f"TwinRLFD(fast={self.fast.period_ns}ns, "
            f"slow={self.slow.period_ns}ns, detected={len(self.sink)})"
        )


class CLEF(Detector):
    """The CLEF hybrid: EARDet for exact out-of-region guarantees plus a
    :class:`TwinRLFD` bounding damage from in-region flows.

    The two verdict classes stay separately inspectable:
    :attr:`exact_detections` carries EARDet's no-FNl/no-FPs guarantees;
    :attr:`probabilistic_detections` are RLFD flags, which are evidence
    of in-region overuse but carry no exactness guarantee.  The combined
    :attr:`detected` set (via the base class sink) is their union and is
    therefore *not* exact — service code that must preserve the
    exactness envelope composes the parts instead (see
    :mod:`repro.service.pipeline`).
    """

    name = "clef"

    SNAPSHOT_FORMAT = 1

    def __init__(self, eardet: EARDet, watcher: TwinRLFD):
        super().__init__()
        self.eardet = eardet
        self.watcher = watcher

    @classmethod
    def for_config(
        cls,
        config: EARDetConfig,
        counters: int,
        depth: int,
        fast_period_ns: int,
        slow_period_ns: int,
        seed: int = 0,
    ) -> "CLEF":
        # Local import: repro.core.eardet itself imports Detector from
        # this package, so a module-level import here would be a cycle.
        from ..core.eardet import EARDet

        return cls(
            EARDet(config),
            TwinRLFD.for_config(
                config, counters, depth, fast_period_ns, slow_period_ns, seed
            ),
        )

    def _update(self, packet: Packet) -> bool:
        in_exact = self.eardet.observe(packet)
        in_watch = self.watcher.observe(packet)
        return in_exact or in_watch

    def _reset_state(self) -> None:
        self.eardet.reset()
        self.watcher.reset()

    def counter_count(self) -> int:
        return self.eardet.counter_count() + self.watcher.counter_count()

    # -- verdict classes ----------------------------------------------------

    @property
    def exact_detections(self) -> Dict[FlowId, int]:
        """EARDet's detections: exact outside the ambiguity region."""
        return self.eardet.detected

    @property
    def probabilistic_detections(self) -> Dict[FlowId, int]:
        """RLFD flags: probabilistic in-region evidence, never exact."""
        return self.watcher.detected

    # -- checkpointing ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "format": self.SNAPSHOT_FORMAT,
            "eardet": self.eardet.snapshot(),
            "watcher": self.watcher.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        fmt = state.get("format")
        if fmt != self.SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported CLEF snapshot format {fmt!r} "
                f"(this build reads format {self.SNAPSHOT_FORMAT})"
            )
        self.eardet.restore(state["eardet"])  # type: ignore[arg-type]
        self.watcher.restore(state["watcher"])  # type: ignore[arg-type]
        self.sink.restore(state["sink"])  # type: ignore[arg-type]
        if self.checker is not None:
            self.checker.reset()

    def __repr__(self) -> str:
        return (
            f"CLEF(eardet={self.eardet!r}, exact={len(self.eardet.sink)}, "
            f"probabilistic={len(self.watcher.sink)})"
        )
