"""The collector wire: length-prefixed frames and the binary codec.

Every message on a collector connection — in either direction — is one
*frame*: a 4-byte big-endian unsigned length followed by that many bytes
of frame *body*.  This module owns the whole wire: length prefixes,
size caps, exact reads, the serializable :class:`SessionResultPayload`,
the ten typed frame kinds (frozen dataclasses — :class:`Hello`,
:class:`HelloOk`, :class:`Result`, :class:`Batch`, :class:`Ack`,
:class:`Metrics`, :class:`MetricsOk`, :class:`Bye`, :class:`ByeOk`,
:class:`ProtocolError`) and the one codec that packs them.

Length prefixes are capped (:data:`MAX_FRAME_BYTES`); an oversized
prefix raises :class:`FrameTooLarge` and a peer closing mid-frame
raises :class:`FrameTruncated` — both are *clean protocol errors* the
server answers by counting ``collector.frames.rejected`` and closing
the connection, never a raw ``asyncio.IncompleteReadError`` traceback.

Wire format
-----------

A body's first byte is its kind tag (0x81–0x8A); :func:`decode_any`
dispatches on it.  The hot frame is ``Result``: one
:class:`struct.Struct` pack of a fixed header

====== ======== ===========================================
offset format   field
====== ======== ===========================================
0      ``B``    tag ``0x81``
1      ``B``    flags (bit 0 degraded, bit 1 exact present,
                bit 2 exact true, bit 3 deltas present,
                bit 4 extra JSON present)
2      ``>H``   counter mask (11 bits)
4      ``>I``   seq
8      ``>I``   session_index
12     ``>q``   seed
20     ``>I``   n_keys
24     ``>I``   device_id byte length
28     ``>I``   text byte length
32     ``>I``   extra byte length
36     ``>11Q`` the 11 counter deltas (Table-1 order)
====== ======== ===========================================

followed by the UTF-8 ``device_id`` and ``text`` bytes and an optional
JSON tail (``metrics`` / ``meta`` — cold fields that stay out of the
hot pack).  The counter deltas ship as 11 fixed u64s plus the mask —
no per-field JSON encode on the fleet's hot path.  The cold control
frames (``hello``, ``metrics``, ``bye``) are the tag byte plus a JSON
object tail; ``hello_ok``, ``metrics_ok`` and ``bye_ok`` are the bare
tag.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

#: Protocol revision carried in the ``hello`` frame.
PROTO_VERSION = 2

#: Hard cap on one frame's body; a length prefix beyond this is
#: treated as a corrupt stream, not an allocation request.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Number of fixed counter-delta slots in a result payload — the 11
#: performance counters of the paper's Table 1.
N_COUNTERS = 11

#: Binary body kind tags (first body byte).
TAG_RESULT = 0x81
TAG_ACK = 0x82
TAG_METRICS = 0x83
TAG_BYE = 0x84
TAG_METRICS_OK = 0x85
TAG_BYE_OK = 0x86
TAG_ERROR = 0x87
TAG_BATCH = 0x88
TAG_HELLO = 0x89
TAG_HELLO_OK = 0x8A

_FLAG_DEGRADED = 1
_FLAG_EXACT_PRESENT = 2
_FLAG_EXACT_TRUE = 4
_FLAG_HAS_DELTAS = 8
_FLAG_HAS_EXTRA = 16

_LEN = struct.Struct(">I")

#: The one pack of a binary result: tag, flags, mask, seq, session_index,
#: seed, n_keys, three tail lengths, 11 counter deltas.
_RESULT = struct.Struct(">BBHIIqIIII11Q")
_ACK = struct.Struct(">BI")
_BATCH_HEAD = struct.Struct(">BI")
_BATCH_ITEM_LEN = struct.Struct(">I")

_U32_MAX = 2 ** 32 - 1
_U64_MAX = 2 ** 64 - 1


# -- transport ----------------------------------------------------------


class FrameError(Exception):
    """A malformed, oversized, or truncated frame."""


class FrameTooLarge(FrameError):
    """A length prefix above the frame-size cap (a corrupt or hostile peer)."""


class FrameTruncated(FrameError):
    """The peer closed the connection in the middle of a frame."""


class ConnectionClosed(FrameError):
    """The peer closed the connection cleanly between frames."""


def prefix_body(body: bytes, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Wrap an encoded frame body in its length prefix, enforcing the cap."""
    if len(body) > max_bytes:
        raise FrameTooLarge(f"frame body of {len(body)} bytes exceeds {max_bytes}")
    return _LEN.pack(len(body)) + body


def parse_length(prefix: bytes, max_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate and unpack a 4-byte length prefix."""
    if len(prefix) != _LEN.size:
        raise FrameError(f"truncated length prefix ({len(prefix)} bytes)")
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise FrameTooLarge(f"frame length {length} exceeds cap {max_bytes}")
    return length


async def read_body_async(reader, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Read one frame body from an :class:`asyncio.StreamReader`.

    Raises :class:`ConnectionClosed` on clean EOF between frames,
    :class:`FrameTooLarge` on an oversized prefix, and
    :class:`FrameTruncated` on EOF mid-frame — never the raw
    ``asyncio.IncompleteReadError``.
    """
    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise ConnectionClosed("peer closed between frames") from exc
        raise FrameTruncated("connection closed inside a length prefix") from exc
    length = parse_length(prefix, max_bytes)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated("connection closed inside a frame body") from exc


def read_body_sock(sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Read one frame body from a blocking socket (the client side)."""

    def read_exactly(n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                if remaining == n and not chunks:
                    raise ConnectionClosed("peer closed between frames")
                raise FrameTruncated("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    length = parse_length(read_exactly(_LEN.size), max_bytes)
    return read_exactly(length)


# -- the payload --------------------------------------------------------


@dataclass
class SessionResultPayload:
    """The serializable unit one device reports per finished session.

    This is the *shipped* form of a run-level result — everything fleet
    aggregation needs, nothing that drags simulator objects across the
    wire.  ``metrics`` optionally carries the device run's
    ``MetricsRegistry.snapshot()`` (most devices send one consolidated
    ``metrics`` frame instead; see :mod:`repro.collector.fleet`).

    ``deltas`` is the session's aggregate change of the 11 selected
    performance counters (Table 1 order, one value per counter) and
    ``mask`` a bitmask of counters whose aggregate is unknown (bit *i*
    set = counter *i* masked).  The pair is exactly the fixed-width
    block the binary codec packs as ``11×u64`` + ``u16`` — the reason
    a result frame needs one :class:`struct.Struct` pack and no
    per-field JSON encoding.
    """

    device_id: str
    session_index: int
    text: str
    n_keys: int
    degraded: bool = False
    exact: Optional[bool] = None
    seed: int = 0
    deltas: Optional[Tuple[int, ...]] = None
    mask: int = 0
    metrics: Optional[Dict[str, object]] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deltas is not None:
            self.deltas = tuple(int(v) for v in self.deltas)
            if len(self.deltas) != N_COUNTERS:
                raise ValueError(
                    f"deltas must carry {N_COUNTERS} counter values, "
                    f"got {len(self.deltas)}"
                )
            if any(v < 0 for v in self.deltas):
                raise ValueError("counter deltas are non-negative")
        if not 0 <= self.mask < (1 << N_COUNTERS):
            raise ValueError(f"mask must fit {N_COUNTERS} bits, got {self.mask}")

    @classmethod
    def from_result(
        cls,
        result,
        device_id: str,
        session_index: int,
        seed: int = 0,
        expected: Optional[str] = None,
        deltas: Optional[Tuple[int, ...]] = None,
    ) -> "SessionResultPayload":
        """Build from any :class:`~repro.core.results.SessionResult`."""
        text = result.text
        return cls(
            device_id=device_id,
            session_index=session_index,
            text=text,
            n_keys=len(result.keys),
            degraded=bool(getattr(result, "degraded", False)),
            exact=None if expected is None else text == expected,
            seed=seed,
            deltas=deltas,
        )


# -- the frame kinds ----------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Connection opener; carries the device identity and protocol revision."""

    device_id: str
    proto: int = PROTO_VERSION


@dataclass(frozen=True)
class HelloOk:
    pass


@dataclass(frozen=True)
class Result:
    """One session's outcome, sequenced for exactly-once delivery."""

    seq: int
    payload: SessionResultPayload

    @property
    def device_id(self) -> str:
        return self.payload.device_id


@dataclass(frozen=True)
class Batch:
    """Many results on one wire frame, acked together.

    The client's delivery loop writes each burst of two or more
    :class:`Result` frames — each with its own ``seq`` and dedup
    identity — as one batch (a burst of one goes out as the lone
    result, so ``CollectorConfig.pipeline_depth == 1`` never sends a
    batch).  The server admits a batch through the same path as a lone
    result and answers with a single :class:`Ack` carrying the *last*
    member's ``seq``, which acknowledges every member.  This collapses
    the per-result read/decode/journal-flush/ack round trip that
    dominates bulk uploads into one round trip per burst, without
    changing the delivery contract (members are deduplicated
    individually).
    """

    frames: Tuple[Result, ...]


@dataclass(frozen=True)
class Ack:
    seq: int


@dataclass(frozen=True)
class Metrics:
    """A device-side ``MetricsRegistry.snapshot()`` for merging."""

    snapshot: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsOk:
    pass


@dataclass(frozen=True)
class Bye:
    """End-of-stream tally a device reports before disconnecting."""

    device_id: str
    sent: int = 0
    retries: int = 0
    reconnects: int = 0


@dataclass(frozen=True)
class ByeOk:
    pass


@dataclass(frozen=True)
class ProtocolError:
    """Server-to-client rejection (proto mismatch, oversized frame, ...)."""

    error: str


Frame = Union[
    Hello, HelloOk, Result, Batch, Ack, Metrics, MetricsOk, Bye, ByeOk, ProtocolError
]


# -- the codec ----------------------------------------------------------


def _encode_result_binary(frame: Result) -> bytes:
    p = frame.payload
    device_b = p.device_id.encode("utf-8")
    text_b = p.text.encode("utf-8")
    extra: Dict[str, object] = {}
    if p.metrics is not None:
        extra["metrics"] = p.metrics
    if p.meta:
        extra["meta"] = p.meta
    extra_b = (
        json.dumps(extra, separators=(",", ":"), sort_keys=True).encode("utf-8")
        if extra
        else b""
    )
    flags = 0
    if p.degraded:
        flags |= _FLAG_DEGRADED
    if p.exact is not None:
        flags |= _FLAG_EXACT_PRESENT
        if p.exact:
            flags |= _FLAG_EXACT_TRUE
    deltas = p.deltas
    if deltas is not None:
        flags |= _FLAG_HAS_DELTAS
    else:
        deltas = (0,) * N_COUNTERS
    if extra_b:
        flags |= _FLAG_HAS_EXTRA
    if not 0 <= frame.seq <= _U32_MAX:
        raise FrameError(f"seq {frame.seq} does not fit u32")
    if not 0 <= p.session_index <= _U32_MAX:
        raise FrameError(f"session_index {p.session_index} does not fit u32")
    if not 0 <= p.n_keys <= _U32_MAX:
        raise FrameError(f"n_keys {p.n_keys} does not fit u32")
    if any(v > _U64_MAX for v in deltas):
        raise FrameError("counter delta does not fit u64")
    header = _RESULT.pack(
        TAG_RESULT,
        flags,
        p.mask,
        frame.seq,
        p.session_index,
        p.seed,
        p.n_keys,
        len(device_b),
        len(text_b),
        len(extra_b),
        *deltas,
    )
    return header + device_b + text_b + extra_b


def _decode_result_binary(body: bytes) -> Result:
    if len(body) < _RESULT.size:
        raise FrameError(f"binary result header truncated ({len(body)} bytes)")
    fields = _RESULT.unpack_from(body)
    (_tag, flags, mask, seq, session_index, seed, n_keys,
     device_len, text_len, extra_len) = fields[:10]
    deltas = fields[10:]
    expected = _RESULT.size + device_len + text_len + extra_len
    if len(body) != expected:
        raise FrameError(
            f"binary result length mismatch: {len(body)} bytes, expected {expected}"
        )
    offset = _RESULT.size
    try:
        device_id = body[offset:offset + device_len].decode("utf-8")
        offset += device_len
        text = body[offset:offset + text_len].decode("utf-8")
        offset += text_len
    except UnicodeDecodeError as exc:
        raise FrameError(f"binary result strings are not UTF-8: {exc}") from exc
    metrics = None
    meta: Dict[str, object] = {}
    if flags & _FLAG_HAS_EXTRA:
        try:
            extra = json.loads(body[offset:offset + extra_len].decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise FrameError(f"binary result extra tail is not JSON: {exc}") from exc
        if not isinstance(extra, dict):
            raise FrameError("binary result extra tail must be a JSON object")
        metrics = extra.get("metrics")
        meta = extra.get("meta", {})
    exact = bool(flags & _FLAG_EXACT_TRUE) if flags & _FLAG_EXACT_PRESENT else None
    try:
        payload = SessionResultPayload(
            device_id=device_id,
            session_index=session_index,
            text=text,
            n_keys=n_keys,
            degraded=bool(flags & _FLAG_DEGRADED),
            exact=exact,
            seed=seed,
            deltas=tuple(deltas) if flags & _FLAG_HAS_DELTAS else None,
            mask=mask,
            metrics=metrics,
            meta=meta,
        )
    except (ValueError, TypeError) as exc:
        raise FrameError(f"binary result payload invalid: {exc}") from exc
    return Result(seq=seq, payload=payload)


def _encode_batch_binary(frame: Batch) -> bytes:
    if not frame.frames:
        raise FrameError("batch frame must carry at least one result")
    parts = [_BATCH_HEAD.pack(TAG_BATCH, len(frame.frames))]
    for item in frame.frames:
        body = _encode_result_binary(item)
        parts.append(_BATCH_ITEM_LEN.pack(len(body)))
        parts.append(body)
    return b"".join(parts)


def _decode_batch_binary(body: bytes) -> Batch:
    if len(body) < _BATCH_HEAD.size:
        raise FrameError(f"binary batch header truncated ({len(body)} bytes)")
    _tag, count = _BATCH_HEAD.unpack_from(body)
    if count < 1:
        raise FrameError("binary batch must carry at least one result")
    members = []
    offset = _BATCH_HEAD.size
    for _ in range(count):
        if len(body) - offset < _BATCH_ITEM_LEN.size:
            raise FrameError("binary batch member length truncated")
        (item_len,) = _BATCH_ITEM_LEN.unpack_from(body, offset)
        offset += _BATCH_ITEM_LEN.size
        end = offset + item_len
        if end > len(body):
            raise FrameError("binary batch member body truncated")
        members.append(_decode_result_binary(body[offset:end]))
        offset = end
    if offset != len(body):
        raise FrameError(
            f"binary batch length mismatch: {len(body) - offset} trailing bytes"
        )
    return Batch(frames=tuple(members))


def _json_tail_frame(tag: int, obj: Dict[str, object]) -> bytes:
    return bytes([tag]) + json.dumps(
        obj, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def _decode_json_tail(body: bytes, what: str) -> Dict[str, object]:
    try:
        obj = json.loads(body[1:].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"binary {what} tail is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"binary {what} tail must be a JSON object")
    return obj


class BinaryCodec:
    """The struct-packed wire codec every collector connection speaks."""

    def encode(self, frame: Frame, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
        if isinstance(frame, Result):
            body = _encode_result_binary(frame)
        elif isinstance(frame, Batch):
            body = _encode_batch_binary(frame)
        elif isinstance(frame, Ack):
            if not 0 <= frame.seq <= _U32_MAX:
                raise FrameError(f"seq {frame.seq} does not fit u32")
            body = _ACK.pack(TAG_ACK, frame.seq)
        elif isinstance(frame, Hello):
            body = _json_tail_frame(
                TAG_HELLO, {"device_id": frame.device_id, "proto": frame.proto}
            )
        elif isinstance(frame, HelloOk):
            body = bytes([TAG_HELLO_OK])
        elif isinstance(frame, Metrics):
            body = _json_tail_frame(TAG_METRICS, frame.snapshot)
        elif isinstance(frame, MetricsOk):
            body = bytes([TAG_METRICS_OK])
        elif isinstance(frame, Bye):
            body = _json_tail_frame(
                TAG_BYE,
                {
                    "device_id": frame.device_id,
                    "sent": frame.sent,
                    "retries": frame.retries,
                    "reconnects": frame.reconnects,
                },
            )
        elif isinstance(frame, ByeOk):
            body = bytes([TAG_BYE_OK])
        elif isinstance(frame, ProtocolError):
            body = bytes([TAG_ERROR]) + frame.error.encode("utf-8")
        else:
            raise TypeError(f"not a frame: {frame!r}")
        return prefix_body(body, max_bytes)


BINARY_CODEC = BinaryCodec()

#: The tag-only reply frames, by tag.
_BARE_FRAMES = {
    TAG_HELLO_OK: HelloOk(),
    TAG_METRICS_OK: MetricsOk(),
    TAG_BYE_OK: ByeOk(),
}


def decode_any(body: bytes) -> Frame:
    """Decode one frame body, dispatching on its leading kind tag."""
    if not body:
        raise FrameError("empty frame body")
    first = body[0]
    if first == TAG_RESULT:
        return _decode_result_binary(body)
    if first == TAG_BATCH:
        return _decode_batch_binary(body)
    if first == TAG_ACK:
        if len(body) != _ACK.size:
            raise FrameError(f"binary ack must be {_ACK.size} bytes, got {len(body)}")
        _tag, seq = _ACK.unpack(body)
        return Ack(seq=seq)
    if first == TAG_HELLO:
        obj = _decode_json_tail(body, "hello")
        try:
            return Hello(device_id=str(obj["device_id"]), proto=int(obj["proto"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FrameError(f"binary hello tail invalid: {exc!r}") from exc
    if first == TAG_METRICS:
        return Metrics(snapshot=_decode_json_tail(body, "metrics"))
    if first == TAG_BYE:
        obj = _decode_json_tail(body, "bye")
        try:
            return Bye(
                device_id=str(obj.get("device_id", "?")),
                sent=int(obj.get("sent", 0)),
                retries=int(obj.get("retries", 0)),
                reconnects=int(obj.get("reconnects", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise FrameError(f"binary bye tail invalid: {exc}") from exc
    if first in _BARE_FRAMES:
        return _BARE_FRAMES[first]
    if first == TAG_ERROR:
        try:
            return ProtocolError(error=body[1:].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FrameError(f"binary error tail is not UTF-8: {exc}") from exc
    raise FrameError(f"unknown frame leading byte 0x{first:02x}")

