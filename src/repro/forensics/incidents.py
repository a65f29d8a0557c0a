"""The incident store: an append-only, CRC-protected JSONL event log.

Every forensic producer in the service — supervisor recoveries, dead-
letter first losses, invariant violations, guard rejections, overload
rung transitions, migration rollbacks, net partition/void events,
watcher promotions and verdicts, and the exact detections themselves —
writes through one :class:`IncidentStore`, so an operator reconstructing
"why did this flow get flagged at 14:02" reads a single ordered log
instead of greping per-subsystem strings.

The schema is stable and versioned (:data:`INCIDENT_FORMAT`): every
record carries a monotonic ``id``, wall *and* stream time, the
shard/slot it concerns, a ``class`` (see :data:`INCIDENT_CLASSES`), a
``severity``, and a structured ``payload``.  On disk each record is one
JSON line wrapping the record body with a CRC-32 of its canonical
encoding::

    {"crc": "9f3a1c02", "v": {"id": 0, "class": "detection", ...}}

A flipped byte anywhere in the line fails the CRC on read and raises
:class:`IncidentLogCorruptError` with the line number — the same
fail-loud discipline as the checkpoint container.

This module deliberately imports nothing from :mod:`repro.service`, so
the service layer (supervisor, report) can depend on it without cycles.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from ..model.packet import FiveTuple

#: Incident record schema version (the ``v`` body's ``format`` is implied
#: by the store header line; see :class:`IncidentStore`).
INCIDENT_FORMAT = 1

#: Ordered severity levels (render order and a filtering contract).
SEVERITIES = ("info", "warning", "error", "critical")

#: The incident classes the in-tree producers emit.  The store accepts
#: any class string (forward compatibility); this tuple is the
#: documented vocabulary (see ``docs/FORENSICS.md``).
INCIDENT_CLASSES = (
    "detection",
    "watcher-verdict",
    "watcher-promotion",
    "invariant-violation",
    "guard-rejection",
    "exactness-void",
    "overload-transition",
    "migration",
    "migration-rollback",
    "net-outage",
    "recovery",
    "restart",
    "source-failure",
    "retune",
    "retune-rollback",
    "retune-infeasible",
)

#: Default cap on incident records retained in memory (the JSONL file,
#: when armed, always holds the full log).
DEFAULT_RETAIN = 4096


class IncidentLogCorruptError(Exception):
    """An incident-log line failed its CRC or could not be decoded.

    ``line_number`` is 1-based; ``expected_crc``/``actual_crc`` carry the
    mismatch when the line parsed but the checksum disagreed.
    """

    def __init__(
        self,
        message: str,
        line_number: Optional[int] = None,
        expected_crc: Optional[str] = None,
        actual_crc: Optional[str] = None,
    ):
        super().__init__(message)
        self.line_number = line_number
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


@dataclass
class Incident:
    """One structured forensic event.

    ``message`` is the stable human-rendered line (what the supervisor's
    old plain-string incidents carried); everything else is the
    structure those strings were hiding.  ``str(incident)`` returns the
    message and ``"needle" in incident`` searches it, so code (and
    tests) written against the plain-string log keep working.
    """

    id: int
    incident_class: str
    message: str
    severity: str = "info"
    wall_time_ns: int = 0
    stream_time_ns: Optional[int] = None
    packet_index: Optional[int] = None
    shard: Optional[int] = None
    slot: Optional[int] = None
    payload: Dict[str, object] = field(default_factory=dict)
    #: Path of the replay bundle captured for this incident, when the
    #: capture layer snapshotted one (detections, verdicts, violations).
    bundle: Optional[str] = None

    def __str__(self) -> str:
        return self.message

    def __contains__(self, needle: object) -> bool:
        return isinstance(needle, str) and needle in self.message

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "class": self.incident_class,
            "severity": self.severity,
            "message": self.message,
            "wall_time_ns": self.wall_time_ns,
            "stream_time_ns": self.stream_time_ns,
            "packet_index": self.packet_index,
            "shard": self.shard,
            "slot": self.slot,
            "payload": self.payload,
            "bundle": self.bundle,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Incident":
        return cls(
            id=int(data["id"]),  # type: ignore[arg-type]
            incident_class=str(data["class"]),
            severity=str(data.get("severity", "info")),
            message=str(data.get("message", "")),
            wall_time_ns=int(data.get("wall_time_ns", 0)),  # type: ignore[arg-type]
            stream_time_ns=(
                None
                if data.get("stream_time_ns") is None
                else int(data["stream_time_ns"])  # type: ignore[arg-type]
            ),
            packet_index=(
                None
                if data.get("packet_index") is None
                else int(data["packet_index"])  # type: ignore[arg-type]
            ),
            shard=(
                None if data.get("shard") is None
                else int(data["shard"])  # type: ignore[arg-type]
            ),
            slot=(
                None if data.get("slot") is None
                else int(data["slot"])  # type: ignore[arg-type]
            ),
            payload=dict(data.get("payload") or {}),  # type: ignore[arg-type]
            bundle=(
                None if data.get("bundle") is None else str(data["bundle"])
            ),
        )


def _json_fid(value: object) -> Dict[str, object]:
    """JSON form of a flow id JSON has no type for (``json.dumps``
    ``default``): a :class:`FiveTuple` or ``bytes`` becomes a one-key
    object that :func:`_normalize_fid` turns back into the flow id."""
    if isinstance(value, FiveTuple):
        return {"five_tuple": [value.src, value.dst, value.sport,
                               value.dport, value.proto]}
    if isinstance(value, bytes):
        return {"bytes": value.hex()}
    raise TypeError(f"cannot encode {type(value).__name__} in an incident")


def _normalize_fid(fid):
    """Flow ids round-trip through JSON: tuples come back as lists, and
    :func:`_json_fid` objects as the flow ids they encode."""
    if isinstance(fid, list):
        return tuple(_normalize_fid(item) for item in fid)
    if isinstance(fid, dict):
        if "five_tuple" in fid:
            return FiveTuple(*fid["five_tuple"])
        if "bytes" in fid:
            return bytes.fromhex(fid["bytes"])
    return fid


def _canonical(body: Dict[str, object]) -> str:
    """The canonical encoding the CRC covers: sorted keys, no spaces."""
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=_json_fid
    )


def encode_line(record: Incident) -> str:
    """One CRC-protected JSONL line for ``record`` (no newline)."""
    body = record.as_dict()
    canonical = _canonical(body)
    crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
    return json.dumps(
        {"crc": f"{crc:08x}", "v": body},
        sort_keys=True,
        separators=(",", ":"),
        default=_json_fid,
    )


def decode_line(line: str, line_number: Optional[int] = None) -> Incident:
    """Parse and CRC-verify one log line; raises
    :class:`IncidentLogCorruptError` on any damage."""
    try:
        wrapper = json.loads(line)
    except ValueError as error:
        raise IncidentLogCorruptError(
            f"incident log line {line_number}: not valid JSON ({error})",
            line_number=line_number,
        ) from error
    if not isinstance(wrapper, dict) or "v" not in wrapper or "crc" not in wrapper:
        raise IncidentLogCorruptError(
            f"incident log line {line_number}: missing crc/v envelope",
            line_number=line_number,
        )
    body = wrapper["v"]
    expected = str(wrapper["crc"])
    actual = f"{zlib.crc32(_canonical(body).encode('utf-8')) & 0xFFFFFFFF:08x}"
    if actual != expected:
        raise IncidentLogCorruptError(
            f"incident log line {line_number}: CRC mismatch "
            f"(expected {expected}, computed {actual})",
            line_number=line_number,
            expected_crc=expected,
            actual_crc=actual,
        )
    return Incident.from_dict(body)


class IncidentStore:
    """Append-only incident log with exact per-class totals.

    With ``path=None`` the store is memory-only (the supervisor's
    default when no forensics directory is armed); with a path every
    append is written through as one CRC-protected JSONL line and
    flushed, so the log survives the crash it is describing.  Appending
    to an existing log continues its monotonic ids.

    ``totals_by_class`` is exact and unbounded; the in-memory ``records``
    list is capped at ``retain`` entries (oldest evicted) so a noisy
    incident class cannot grow memory without bound.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        retain: int = DEFAULT_RETAIN,
        clock_ns: Callable[[], int] = time.time_ns,
    ):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self.path = Path(path) if path is not None else None
        self.retain = retain
        self._clock_ns = clock_ns
        self.records: List[Incident] = []
        self.total = 0
        self.totals_by_class: Dict[str, int] = {}
        self._next_id = 0
        self._file = None
        if self.path is not None:
            if self.path.exists():
                for record in self.load(self.path):
                    self._remember(record)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "a", encoding="utf-8")

    def _remember(self, record: Incident) -> None:
        self.records.append(record)
        if len(self.records) > self.retain:
            del self.records[0]
        self.total += 1
        cls = record.incident_class
        self.totals_by_class[cls] = self.totals_by_class.get(cls, 0) + 1
        self._next_id = max(self._next_id, record.id + 1)

    def append(
        self,
        incident_class: str,
        message: str,
        severity: str = "info",
        shard: Optional[int] = None,
        slot: Optional[int] = None,
        stream_time_ns: Optional[int] = None,
        packet_index: Optional[int] = None,
        payload: Optional[Dict[str, object]] = None,
        bundle: Optional[str] = None,
    ) -> Incident:
        """Create, persist, and return the next incident record."""
        if severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {severity!r}"
            )
        record = Incident(
            id=self._next_id,
            incident_class=incident_class,
            message=message,
            severity=severity,
            wall_time_ns=self._clock_ns(),
            stream_time_ns=stream_time_ns,
            packet_index=packet_index,
            shard=shard,
            slot=slot,
            payload=dict(payload or {}),
            bundle=bundle,
        )
        self._remember(record)
        if self._file is not None:
            self._file.write(encode_line(record) + "\n")
            self._file.flush()
        return record

    @property
    def next_id(self) -> int:
        """The id the next :meth:`append` will assign (the capture layer
        names a bundle file after it *before* appending the incident
        that references the bundle)."""
        return self._next_id

    def find(self, incident_id: int) -> Optional[Incident]:
        """The retained record with this id, or None (evicted/unknown)."""
        for record in self.records:
            if record.id == incident_id:
                return record
        return None

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return self.total

    def __enter__(self) -> "IncidentStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def load(path: Union[str, Path]) -> List[Incident]:
        """Read and CRC-verify a whole incident log.  Raises
        :class:`IncidentLogCorruptError` on the first damaged line —
        a forensic log you cannot trust end to end is worse than an
        explicit failure."""
        records: List[Incident] = []
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                records.append(decode_line(line, line_number=number))
        return records
