"""Versioned binary checkpoints for exact state persistence.

A checkpoint file holds the complete, exact state of a detection engine at
a *packet boundary*: after exactly ``meta["packets"]`` packets of the
source have been ingested.  Because EARDet's state is all-integer, the
encoding below is lossless and restoring a checkpoint then replaying the
remaining packets is **bit-identical** to never having stopped.

File layout (all integers little-endian)::

    bytes 0-3   magic  b"ERCK"
    bytes 4-5   format version (uint16), currently 1
    bytes 6-9   payload length (uint32)
    bytes 10-   payload: one encoded value (the checkpoint dict)
    last 4      CRC-32 of the payload

The payload encoding is a small, self-describing tagged format (a
deliberately tiny CBOR-like scheme rather than pickle: no code execution
on load, stable across Python versions, and deterministic — equal states
produce equal bytes, which makes checkpoint files diffable and
content-addressable).  Supported values: ``None``, bools, arbitrary-
precision ints, floats, strings, bytes, tuples, lists, dicts, and
:class:`~repro.model.packet.FiveTuple` flow IDs.

Writes are atomic and termination-safe: the payload goes to a temp file
in the same directory (fsync'd before the atomic ``os.replace``, with the
directory fsync'd after), so a crash — or a SIGTERM/SIGKILL — at *any*
instant leaves either the complete previous checkpoint or the complete
new one, never a torn file; a failed attempt's temp file is removed.
``tests/test_checkpoint_hardening.py`` kills a writer mid-write at many
byte offsets and asserts the previous checkpoint stays loadable.

The value codec (:func:`dumps` / :func:`loads`) is also the payload
encoding of the multi-host frame protocol (:mod:`repro.service.net`):
batch and control frames carry one codec value each, under the frame
layer's own magic, sequence numbers and CRC.  Determinism matters there
too — equal payloads produce equal frames, so a retransmitted frame is
byte-identical to the original.

Packet batches travel as parallel columns (times, sizes, flow IDs), and
:func:`pack_column` / :func:`unpack_column` own one column's layout: a
column whose values are all ``int`` inside int64 is packed little-endian
int64 ``bytes`` (8 bytes a value, no per-value tag); any other column
stays a codec list.  Frame ``BATCH`` payloads and the trace slices of
forensic replay bundles both use it.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from ..model.packet import FiveTuple

PathLike = Union[str, Path]

MAGIC = b"ERCK"
#: Bump on any incompatible change to the file layout or value encoding.
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHI")
_CRC = struct.Struct("<I")

# Value tags.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_FIVETUPLE = 0x0A


class CheckpointError(ValueError):
    """Raised on malformed, truncated, or corrupt checkpoint data."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is damaged: truncated, zero-byte, or failing its
    CRC.  Carries forensics for the operator:

    - ``offset`` — byte offset at which the damage was detected (for
      truncation, the file length);
    - ``expected_crc`` / ``actual_crc`` — the stored vs recomputed
      payload CRC-32, when the failure is a CRC mismatch.

    Distinct from a plain :class:`CheckpointError` (wrong magic, foreign
    file, unsupported version): a *corrupt* checkpoint was once valid,
    so the supervisor treats it as lost state and falls back to an
    earlier checkpoint or a from-scratch replay.
    """

    def __init__(
        self,
        message: str,
        offset: "int | None" = None,
        expected_crc: "int | None" = None,
        actual_crc: "int | None" = None,
    ):
        super().__init__(message)
        self.offset = offset
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


# -- varints ---------------------------------------------------------------


#: Single-byte varint encodings (values 0..127): the overwhelmingly
#: common case in snapshots, written with one allocation-free lookup.
_VARINT1 = tuple(bytes((v,)) for v in range(0x80))


def _write_uvarint(out: io.BytesIO, value: int) -> None:
    if value < 0x80:
        out.write(_VARINT1[value])
        return
    buf = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            out.write(buf)
            return


def _read_uvarint(data: memoryview, offset: int):
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CheckpointCorruptError(
                f"truncated varint at payload offset {offset}", offset=offset
            )
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


# Arbitrary-precision ints: fixed-width zigzag would overflow, so fold the
# sign into the low bit of the magnitude instead.
def _int_to_uint(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) | 1


def _uint_to_int(value: int) -> int:
    return -(value >> 1) if value & 1 else value >> 1


# -- value encoding --------------------------------------------------------


# Pre-built one-byte tags (and tag+varint pairs for small ints): the
# encoder is on the checkpoint hot path and, via replay bundles, on the
# forensic capture path; per-call ``bytes((tag,))`` allocations were its
# dominant cost.  The wire format is unchanged.
_B_NONE = bytes((_T_NONE,))
_B_TRUE = bytes((_T_TRUE,))
_B_FALSE = bytes((_T_FALSE,))
_B_INT = bytes((_T_INT,))
_B_FLOAT = bytes((_T_FLOAT,))
_B_STR = bytes((_T_STR,))
_B_BYTES = bytes((_T_BYTES,))
_B_FIVETUPLE = bytes((_T_FIVETUPLE,))
_B_TUPLE = bytes((_T_TUPLE,))
_B_LIST = bytes((_T_LIST,))
_B_DICT = bytes((_T_DICT,))
_B_INT_SMALL = tuple(bytes((_T_INT, v)) for v in range(0x80))
_B_STR_SHORT = tuple(bytes((_T_STR, n)) for n in range(0x80))


def _encode(out: io.BytesIO, value: Any) -> None:
    if value is None:
        out.write(_B_NONE)
    elif value is True:
        out.write(_B_TRUE)
    elif value is False:
        out.write(_B_FALSE)
    elif isinstance(value, int):
        folded = value << 1 if value >= 0 else ((-value) << 1) | 1
        if folded < 0x80:
            out.write(_B_INT_SMALL[folded])
        else:
            out.write(_B_INT)
            _write_uvarint(out, folded)
    elif isinstance(value, float):
        out.write(_B_FLOAT)
        out.write(struct.pack("<d", value))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.write(_B_STR)
        _write_uvarint(out, len(encoded))
        out.write(encoded)
    elif isinstance(value, bytes):
        out.write(_B_BYTES)
        _write_uvarint(out, len(value))
        out.write(value)
    elif isinstance(value, FiveTuple):
        out.write(_B_FIVETUPLE)
        for field in (value.src, value.dst, value.sport, value.dport, value.proto):
            _write_uvarint(out, _int_to_uint(field))
    elif isinstance(value, tuple):
        out.write(_B_TUPLE)
        _write_uvarint(out, len(value))
        _encode_items(out, value)
    elif isinstance(value, list):
        out.write(_B_LIST)
        _write_uvarint(out, len(value))
        _encode_items(out, value)
    elif isinstance(value, dict):
        out.write(_B_DICT)
        _write_uvarint(out, len(value))
        for key, item in value.items():
            _encode(out, key)
            _encode(out, item)
    elif isinstance(value, Encoded):
        out.write(value.data)
    else:
        raise CheckpointError(
            f"cannot serialize {type(value).__name__} value {value!r}"
        )


def _encode_items(out: io.BytesIO, items: Sequence[Any]) -> None:
    """A tuple's or list's items.  A short ``str`` — a flow id in a
    codec-list column — is written in one call, without the type
    dispatch of :func:`_encode`; the bytes are the same."""
    write = out.write
    for item in items:
        if type(item) is str:
            encoded = item.encode("utf-8")
            if len(encoded) < 0x80:
                write(_B_STR_SHORT[len(encoded)] + encoded)
                continue
        _encode(out, item)


class Encoded:
    """A value encoded once: a :func:`dumps` that contains it writes
    these bytes verbatim, and :func:`loads` returns the value itself.
    For a value that many payloads embed — a replay bundle's trace
    batch, shared by every incident in its capture window — so a codec
    list column is walked once, not once per payload."""

    __slots__ = ("data",)

    def __init__(self, value: Any):
        out = io.BytesIO()
        _encode(out, value)
        self.data = out.getvalue()


def _decode(data: memoryview, offset: int):
    if offset >= len(data):
        raise CheckpointCorruptError(
            f"truncated value at payload offset {offset}", offset=offset
        )
    tag = data[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        raw, offset = _read_uvarint(data, offset)
        return _uint_to_int(raw), offset
    if tag == _T_FLOAT:
        if offset + 8 > len(data):
            raise CheckpointCorruptError(
                f"truncated float at payload offset {offset}", offset=offset
            )
        return struct.unpack_from("<d", data, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES):
        length, offset = _read_uvarint(data, offset)
        if offset + length > len(data):
            raise CheckpointCorruptError(
                f"truncated string/bytes at payload offset {offset}",
                offset=offset,
            )
        raw = bytes(data[offset : offset + length])
        offset += length
        return (raw.decode("utf-8") if tag == _T_STR else raw), offset
    if tag == _T_FIVETUPLE:
        fields = []
        for _ in range(5):
            raw, offset = _read_uvarint(data, offset)
            fields.append(_uint_to_int(raw))
        return FiveTuple(*fields), offset
    if tag in (_T_TUPLE, _T_LIST):
        count, offset = _read_uvarint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), offset
    if tag == _T_DICT:
        count, offset = _read_uvarint(data, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode(data, offset)
            value, offset = _decode(data, offset)
            result[key] = value
        return result, offset
    raise CheckpointCorruptError(
        f"unknown value tag 0x{tag:02x} at payload offset {offset - 1}",
        offset=offset - 1,
    )


# -- public codec ----------------------------------------------------------


def dumps(value: Any) -> bytes:
    """Serialize a checkpoint value to framed, CRC-protected bytes."""
    payload = io.BytesIO()
    _encode(payload, value)
    body = payload.getvalue()
    return (
        _HEADER.pack(MAGIC, FORMAT_VERSION, len(body))
        + body
        + _CRC.pack(zlib.crc32(body))
    )


def loads(data: bytes) -> Any:
    """Parse bytes produced by :func:`dumps`, verifying magic, version,
    length and CRC."""
    if len(data) < _HEADER.size + _CRC.size:
        raise CheckpointCorruptError(
            f"checkpoint too short ({len(data)} bytes; a valid file is at "
            f"least {_HEADER.size + _CRC.size})",
            offset=len(data),
        )
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a checkpoint file")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {version} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    body_end = _HEADER.size + length
    if body_end + _CRC.size != len(data):
        raise CheckpointCorruptError(
            f"length mismatch: header says {length} payload bytes, file has "
            f"{len(data) - _HEADER.size - _CRC.size}",
            offset=len(data),
        )
    body = data[_HEADER.size : body_end]
    (crc,) = _CRC.unpack_from(data, body_end)
    actual = zlib.crc32(body)
    if crc != actual:
        raise CheckpointCorruptError(
            f"CRC mismatch (stored 0x{crc:08x}, computed 0x{actual:08x}); "
            "checkpoint is corrupt",
            offset=body_end,
            expected_crc=crc,
            actual_crc=actual,
        )
    value, offset = _decode(memoryview(body), 0)
    if offset != len(body):
        raise CheckpointCorruptError(
            f"{len(body) - offset} trailing payload bytes", offset=offset
        )
    return value


# -- packed columns --------------------------------------------------------


def pack_column(values: Sequence[Any]) -> Union[bytes, List[Any]]:
    """One column of a columnar batch in its encoded form.

    Packed little-endian int64 ``bytes`` when every value has type
    ``int`` (``bool`` is not) and fits in int64; otherwise the values as
    a list for the value codec, the only form that carries ``str``,
    ``tuple``, :class:`~repro.model.packet.FiveTuple`, ``bytes`` or
    ``bool`` flow IDs and ints beyond int64.  Deterministic, like the
    codec: equal columns encode to equal values."""
    if set(map(type, values)) == {int}:
        try:
            return struct.pack(f"<{len(values)}q", *values)
        except struct.error:  # an int beyond int64
            pass
    return list(values)


def unpack_column(column: Any) -> Sequence[Any]:
    """Inverse of :func:`pack_column`: a packed column's values as a
    tuple of ints, a list column as it is.  Raises
    :class:`CheckpointCorruptError` on a packed column that is not a
    whole number of int64 values or on any other type."""
    if isinstance(column, bytes):
        if len(column) % 8:
            raise CheckpointCorruptError(
                f"packed column of {len(column)} bytes is not a whole "
                "number of int64 values",
                offset=len(column),
            )
        return struct.unpack(f"<{len(column) // 8}q", column)
    if isinstance(column, list):
        return column
    raise CheckpointCorruptError(
        f"a column is packed bytes or a list, not {type(column).__name__}"
    )


# -- checkpoint files ------------------------------------------------------


def write_checkpoint(
    path: PathLike,
    payload: Dict[str, Any],
    retry=None,
    attempts: int = 3,
    sleep=None,
    durable: bool = True,
) -> int:
    """Atomically write a checkpoint dict; returns bytes written.

    The temp-file + rename dance guarantees readers (and crash recovery)
    only ever see a complete previous or complete new checkpoint.

    ``retry`` is an optional
    :class:`~repro.service.backoff.BackoffPolicy`: transient ``OSError``
    failures (a momentarily full or flaky filesystem) are retried up to
    ``attempts - 1`` times with the policy's delays before the last
    error propagates.  With ``retry=None`` (the default) a failure
    propagates immediately — the historical behaviour.  ``sleep`` is
    injectable for tests.

    ``durable=False`` skips the file and directory fsyncs while keeping
    the atomic rename: the old-or-new invariant against *process* death
    still holds, but the new file can be lost to a power failure.
    Replay-bundle capture uses this — a torn or missing bundle fails
    loudly on read (the container CRC), so durability there is a latency
    trade, not a correctness one; recovery checkpoints must keep the
    default.
    """
    path = Path(path)
    data = dumps(payload)
    # The temp name embeds the pid so a checkpoint directory shared by a
    # supervisor and the service it restarted never sees two writers
    # clobbering each other's in-progress file.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    if sleep is None:
        import time

        sleep = time.sleep
    attempt = 0
    while True:
        try:
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    if durable:
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp, path)
            except BaseException:
                # Never leave a torn temp file behind — neither on an
                # OSError (we may retry into a fresh one) nor on an
                # interrupt unwinding through here.  A SIGKILL skips this,
                # which is fine: the stray .tmp is inert and the real
                # checkpoint was never touched.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            if durable:
                _fsync_directory(path.parent)
            return len(data)
        except OSError:
            if retry is None or attempt >= attempts - 1:
                raise
            sleep(retry.delay_s(attempt))
            attempt += 1


def _fsync_directory(directory: Path) -> None:
    """Flush the directory entry after a rename, so the *new* checkpoint
    survives power loss too (the rename itself already guarantees the
    old-or-new invariant against process death).  Best-effort: some
    filesystems refuse ``open(dir)``."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def read_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Read and validate a checkpoint file."""
    with open(path, "rb") as handle:
        data = handle.read()
    payload = loads(data)
    if not isinstance(payload, dict) or "meta" not in payload:
        raise CheckpointError(f"{path}: payload is not a checkpoint dict")
    return payload


def _watcher_occupancy(state: Dict[str, Any]) -> int:
    """Watchlist size of one slot's watcher snapshot, kind-agnostic:
    LOFT keeps an explicit watch table; CLEF's twin RLFDs hold a fixed
    counter array, where occupancy = counters currently non-zero."""
    if "watch" in state:
        return len(state.get("watch") or [])
    if "fast" in state:
        total = 0
        for twin in ("fast", "slow"):
            counts = (state.get(twin) or {}).get("counts") or []
            total += sum(1 for count in counts if count)
        return total
    return 0


def summarize_checkpoint(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Structured per-shard state sizes for a checkpoint (the machine
    face of ``eardet checkpoint inspect --json``).

    Slot detector states are grouped onto the shard currently hosting
    them under the checkpoint's layout (identity when the checkpoint
    predates resharding), and each shard row reports counter occupancy,
    blacklist length, detections, packets and — when a watcher stage is
    armed — its watchlist size, plus a per-slot breakdown.
    """
    engine = payload.get("engine", {})
    slot_states = engine.get("shards", [])
    slots = int(engine.get("slots") or len(slot_states))
    layout = engine.get("layout") or {
        "slots": slots,
        "assignment": [
            slot % max(1, int(engine.get("shard_count") or 1))
            for slot in range(slots)
        ],
        "shards": int(engine.get("shard_count") or 1),
        "epoch": 0,
    }
    watcher = engine.get("watcher") or {}
    watcher_states = watcher.get("shards") or []
    assignment = list(layout.get("assignment", []))
    shard_rows = []
    for shard in range(int(layout.get("shards", 1))):
        hosted = [
            slot for slot, owner in enumerate(assignment) if owner == shard
        ]
        row = {
            "shard": shard,
            "slots": hosted,
            "counters_in_use": 0,
            "counter_capacity": 0,
            "blacklist": 0,
            "detections": 0,
            "packets": 0,
            "watcher_watchlist": 0,
            "per_slot": [],
        }
        for slot in hosted:
            state = slot_states[slot]
            store = state.get("store", {})
            entries = store.get("entries", [])
            in_use = len(entries) + len(store.get("virtual", []))
            capacity = store.get("capacity", 0)
            blacklist = len(state.get("blacklist", []))
            detections = len(state.get("sink", []))
            packets = state.get("stats", {}).get("packets", 0)
            watchlist = (
                _watcher_occupancy(watcher_states[slot])
                if slot < len(watcher_states)
                else 0
            )
            row["counters_in_use"] += in_use
            row["counter_capacity"] += capacity or 0
            row["blacklist"] += blacklist
            row["detections"] += detections
            row["packets"] += packets
            row["watcher_watchlist"] += watchlist
            row["per_slot"].append(
                {
                    "slot": slot,
                    "counters_in_use": in_use,
                    "counter_capacity": capacity,
                    "blacklist": blacklist,
                    "detections": detections,
                    "packets": packets,
                    "watcher_watchlist": watchlist,
                }
            )
        shard_rows.append(row)
    summary: Dict[str, Any] = {
        "layout": layout,
        "shards": shard_rows,
    }
    if watcher:
        summary["watcher_kind"] = (watcher.get("policy") or {}).get("kind")
    return summary


def describe_checkpoint(payload: Dict[str, Any]) -> str:
    """Human-readable summary of a checkpoint (``eardet checkpoint
    inspect``)."""
    meta = payload.get("meta", {})
    lines = [f"checkpoint (format {FORMAT_VERSION})"]
    for key in sorted(meta):
        if key == "control":
            continue  # rendered structurally below
        value = meta[key]
        if isinstance(value, dict):
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
            lines.append(f"  {key}: {rendered}")
        else:
            lines.append(f"  {key}: {value}")
    control = meta.get("control")
    if control is None:
        if "config" in meta:
            lines.append("  config epoch: 0 (static; no retune recorded)")
    else:
        lines.append(f"  config epoch: {control.get('epoch', 0)}")
        inputs = control.get("inputs")
        if inputs:
            lines.append(
                "  solver inputs: "
                f"gamma_l={inputs.get('gamma_l')}, "
                f"beta_l={inputs.get('beta_l')}, "
                f"gamma_h={inputs.get('gamma_h')}, "
                f"t_upincb={inputs.get('t_upincb_seconds')}s, "
                f"alpha={inputs.get('alpha')}"
            )
        for entry in control.get("history") or []:
            cfg = entry.get("config") or {}
            lines.append(
                f"    epoch {entry.get('epoch')}: from packet "
                f"{entry.get('from_packets')} — n={cfg.get('n')}, "
                f"gamma_l={cfg.get('gamma_l')}, "
                f"beta_th={cfg.get('beta_th')}"
            )
    summary = summarize_checkpoint(payload)
    layout = summary["layout"]
    shard_rows = summary["shards"]
    lines.append(
        f"  engine layout: {layout.get('slots')} slots over "
        f"{layout.get('shards')} shards (epoch {layout.get('epoch', 0)})"
    )
    has_watcher = "watcher_kind" in summary
    for row in shard_rows:
        line = (
            f"    shard {row['shard']}: "
            f"{row['counters_in_use']}/{row['counter_capacity'] or '?'} "
            f"counters, {row['blacklist']} blacklisted, "
            f"{row['detections']} detections, {row['packets']} packets"
        )
        if has_watcher:
            line += f", watchlist {row['watcher_watchlist']}"
        if len(row["slots"]) != 1 or row["slots"] != [row["shard"]]:
            slots = ",".join(str(slot) for slot in row["slots"])
            line += f" (slots {slots or 'none — hot spare'})"
        lines.append(line)
        if len(row["slots"]) > 1:
            for slot_row in row["per_slot"]:
                lines.append(
                    f"      slot {slot_row['slot']}: "
                    f"{slot_row['counters_in_use']}/"
                    f"{slot_row['counter_capacity'] or '?'} counters, "
                    f"{slot_row['blacklist']} blacklisted, "
                    f"{slot_row['detections']} detections, "
                    f"{slot_row['packets']} packets"
                )
    engine = payload.get("engine", {})
    watcher = engine.get("watcher")
    if watcher:
        policy = watcher.get("policy", {})
        shards = watcher.get("shards", [])
        lines.append(
            f"  watcher stage: {policy.get('kind', '?')} across "
            f"{len(shards)} slots (probabilistic; separate from the "
            "exact detections above)"
        )
    return "\n".join(lines)
