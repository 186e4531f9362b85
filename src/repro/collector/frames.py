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

A body's first byte is its kind tag (0x81–0x8B); :func:`decode_any`
dispatches on it.  The hot frames carry results, and every result is one
fixed *row* followed by its strings:

====== ======== ===========================================
offset format   field (offsets within the row)
====== ======== ===========================================
0      ``B``    flags (bit 0 degraded, bit 1 exact present,
                bit 2 exact true, bit 3 deltas present,
                bit 4 extra JSON present)
1      ``>H``   counter mask (11 bits)
3      ``>I``   seq
7      ``>I``   session_index
11     ``>q``   seed
19     ``>I``   n_keys
23     ``>I``   device_id byte length
27     ``>I``   text byte length
31     ``>I``   extra byte length
35     ``>11Q`` the 11 counter deltas (Table-1 order)
====== ======== ===========================================

A member's *heap* is its UTF-8 ``device_id`` and ``text`` bytes and an
optional JSON tail (``metrics`` / ``meta`` — cold fields that stay out
of the hot pack).  The counter deltas ship as 11 fixed u64s plus the
mask — no per-field JSON encode on the fleet's hot path.

* ``result`` (``0x81``) is the tag, one row, then that member's heap.
* ``batch`` (``0x8B``) is columnar: the tag, a ``>I`` member count,
  ``count`` rows back to back, then one heap holding every member's
  strings in member order.  The rows pack in one :func:`struct.pack`
  and unpack in one :func:`struct.unpack_from` of the row format
  repeated ``count`` times; a lone result is the one-row case of the
  same packer and unpacker.

Decoding is columnar.  :func:`_unpack_members` checks the row bytes
against the count, the heap against the rows' lengths, and every mask
against the 11 bits a payload holds (the wire's ``>H`` would carry 16),
each once per frame over the unpacked columns, and each string and JSON
tail as it decodes it.  It builds each slotted
:class:`SessionResultPayload` without its validating constructor, since
the unpack already bounds everything else.
A ``batch`` decodes to its ``seqs`` and ``payloads`` columns, not to a
:class:`Result` per member.

Protocol 2's batch (``0x88``: a count, then a ``u32`` length and a whole
``result`` body per member) is retired; :func:`decode_any` refuses it
with a :class:`FrameError` naming protocol 3.  A lone ``result`` body is
byte-identical in both revisions.

The cold control frames (``hello``, ``metrics``, ``bye``) are the tag
byte plus a JSON object tail; ``hello_ok``, ``metrics_ok`` and
``bye_ok`` are the bare tag.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

#: Protocol revision carried in the ``hello`` frame.
PROTO_VERSION = 3

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
TAG_HELLO = 0x89
TAG_HELLO_OK = 0x8A
TAG_BATCH = 0x8B

#: Protocol 2's per-member length-prefixed batch tag, refused since 3.
TAG_RETIRED_BATCH = 0x88

_FLAG_DEGRADED = 1
_FLAG_EXACT_PRESENT = 2
_FLAG_EXACT_TRUE = 4
_FLAG_HAS_DELTAS = 8
_FLAG_HAS_EXTRA = 16

_LEN = struct.Struct(">I")

#: One result member's fixed row: flags, mask, seq, session_index, seed,
#: n_keys, three heap lengths, 11 counter deltas.
_ROW_FORMAT = "BHIIqIIII11Q"
_ROW_SIZE = struct.calcsize(">" + _ROW_FORMAT)
_ROW_FIELDS = 9 + N_COUNTERS
_ACK = struct.Struct(">BI")
_BATCH_HEAD = struct.Struct(">BI")

_U32_MAX = 2 ** 32 - 1
_NO_DELTAS = (0,) * N_COUNTERS

#: A row's two exact bits -> the payload's ``exact``.
_EXACT_FLAGS = _FLAG_EXACT_PRESENT | _FLAG_EXACT_TRUE
_EXACT_BY_FLAGS = {0: None, _FLAG_EXACT_TRUE: None, _FLAG_EXACT_PRESENT: False, _EXACT_FLAGS: True}


# -- transport ----------------------------------------------------------


class FrameError(Exception):
    """A malformed, oversized, or truncated frame."""


class FrameTooLarge(FrameError):
    """A length prefix above the frame-size cap (a corrupt or hostile peer)."""


class FrameTruncated(FrameError):
    """The peer closed the connection in the middle of a frame."""


class ConnectionClosed(FrameError):
    """The peer closed the connection cleanly between frames."""


def prefix_body(body: bytes) -> bytes:
    """Wrap an encoded frame body in its length prefix, enforcing the cap."""
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LEN.pack(len(body)) + body


def parse_length(prefix: bytes) -> int:
    """Validate and unpack a 4-byte length prefix."""
    if len(prefix) != _LEN.size:
        raise FrameError(f"truncated length prefix ({len(prefix)} bytes)")
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame length {length} exceeds cap {MAX_FRAME_BYTES}")
    return length


async def read_body_async(reader) -> bytes:
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
    length = parse_length(prefix)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated("connection closed inside a frame body") from exc


def read_body_sock(sock: socket.socket) -> bytes:
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

    length = parse_length(read_exactly(_LEN.size))
    return read_exactly(length)


# -- the payload --------------------------------------------------------


#: ``dataclass(slots=True)`` where the interpreter has it (3.10+).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(**_SLOTS)
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
    a frame's rows need one :func:`struct.pack` and no per-field JSON
    encoding.

    The constructor validates ``deltas`` and ``mask``.  The decoder
    builds payloads without it: it has checked a frame's columns once
    (see :func:`_unpack_members`).  Slots spare each payload a
    ``__dict__``, which matters to a collector that holds every result
    it ingests.
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
            deltas = self.deltas = tuple(map(int, self.deltas))
            if len(deltas) != N_COUNTERS:
                raise ValueError(
                    f"deltas must carry {N_COUNTERS} counter values, got {len(deltas)}"
                )
            if min(deltas) < 0:
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

    A batch is its two columns, ``seqs`` and ``payloads`` (member *i* is
    ``Result(seqs[i], payloads[i])``): the decoder fills them, and the
    server admits them, without a :class:`Result` per member.
    :attr:`frames` builds those results for the readers that want them.

    The client's delivery loop writes each burst of two or more
    results — each with its own ``seq`` and dedup identity — as one
    batch (a burst of one goes out as the lone
    result, so ``CollectorConfig.pipeline_depth == 1`` never sends a
    batch).  The server admits a batch through the same path as a lone
    result and answers with a single :class:`Ack` carrying the *last*
    member's ``seq``, which acknowledges every member.  This collapses
    the per-result read/decode/journal-flush/ack round trip that
    dominates bulk uploads into one round trip per burst, without
    changing the delivery contract (members are deduplicated
    individually).
    """

    seqs: Tuple[int, ...]
    payloads: Tuple[SessionResultPayload, ...]

    def __post_init__(self) -> None:
        if len(self.seqs) != len(self.payloads):
            raise ValueError(
                f"batch has {len(self.seqs)} seqs for {len(self.payloads)} payloads"
            )

    @property
    def frames(self) -> Tuple[Result, ...]:
        """The members as :class:`Result` frames (built on each access)."""
        return tuple(map(Result, self.seqs, self.payloads))


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


def _pack_members(
    head: str,
    head_values: Tuple,
    seqs: Sequence[int],
    payloads: Sequence[SessionResultPayload],
) -> bytes:
    """Pack ``head`` and one row per member in a single ``struct.pack``,
    then append every member's heap in member order."""
    values = list(head_values)
    heap = []
    for seq, p in zip(seqs, payloads):
        device_b = p.device_id.encode("utf-8")
        text_b = p.text.encode("utf-8")
        extra_b = b""
        flags = 0
        if p.metrics is not None or p.meta:
            extra: Dict[str, object] = {}
            if p.metrics is not None:
                extra["metrics"] = p.metrics
            if p.meta:
                extra["meta"] = p.meta
            extra_b = json.dumps(extra, separators=(",", ":"), sort_keys=True).encode("utf-8")
            flags |= _FLAG_HAS_EXTRA
        if p.degraded:
            flags |= _FLAG_DEGRADED
        if p.exact is not None:
            flags |= _FLAG_EXACT_PRESENT | (_FLAG_EXACT_TRUE if p.exact else 0)
        deltas = p.deltas
        if deltas is None:
            deltas = _NO_DELTAS
        else:
            flags |= _FLAG_HAS_DELTAS
        values += (flags, p.mask, seq, p.session_index, p.seed, p.n_keys,
                   len(device_b), len(text_b), len(extra_b))
        values += deltas
        heap += (device_b, text_b, extra_b)
    try:
        rows = struct.pack(head + _ROW_FORMAT * len(payloads), *values)
    except struct.error as exc:
        raise FrameError(f"result field out of range: {exc}") from exc
    return rows + b"".join(heap)


def _unpack_members(
    body: bytes, offset: int, count: int
) -> Tuple[Tuple[int, ...], Tuple[SessionResultPayload, ...]]:
    """Decode ``count`` rows starting at ``offset`` and the heap after
    them, which must end exactly at the end of ``body``, into the
    frame's ``(seqs, payloads)`` columns.

    The heap length and the mask bound (the wire's ``>H`` holds 16
    bits, a payload's mask 11) are checked once per frame over the
    unpacked columns; the strings and JSON tails as they are decoded.
    What the row unpack already bounds — 11 non-negative ``u64`` deltas,
    ints everywhere — is not checked again: the payloads are built
    without :meth:`SessionResultPayload.__post_init__`.
    """
    rows_end = offset + count * _ROW_SIZE
    if rows_end > len(body):
        raise FrameError(
            f"binary result rows truncated: {count} rows need {rows_end} bytes, "
            f"body has {len(body)}"
        )
    # one flat tuple, not a tuple per row: CPython keeps up to 2,000 freed
    # 20-tuples on a free list, which would hold ~0.4 MB after a run
    fields = struct.unpack_from(">" + _ROW_FORMAT * count, body, offset)
    heap = sum(fields[6::_ROW_FIELDS]) + sum(fields[7::_ROW_FIELDS]) + sum(fields[8::_ROW_FIELDS])
    if rows_end + heap != len(body):
        raise FrameError(
            f"binary result length mismatch: {len(body)} bytes, "
            f"expected {rows_end + heap}"
        )
    mask_top = max(fields[1::_ROW_FIELDS])
    if mask_top >= 1 << N_COUNTERS:
        raise FrameError(f"binary result mask must fit {N_COUNTERS} bits, got {mask_top}")
    payloads = []
    new = object.__new__
    pos = rows_end
    device_b = device_id = None
    for at in range(0, len(fields), _ROW_FIELDS):
        flags, mask, _seq, session_index, seed, n_keys, device_len, text_len, extra_len = (
            fields[at:at + 9]
        )
        text_at = pos + device_len
        extra_at = text_at + text_len
        end = extra_at + extra_len
        raw_device = body[pos:text_at]
        try:
            if raw_device != device_b:
                # members from one device share its id string
                device_b, device_id = raw_device, raw_device.decode("utf-8")
            text = body[text_at:extra_at].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"binary result strings are not UTF-8: {exc}") from exc
        metrics = None
        meta: Dict[str, object] = {}
        if flags & _FLAG_HAS_EXTRA:
            try:
                extra = json.loads(body[extra_at:end].decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise FrameError(f"binary result extra tail is not JSON: {exc}") from exc
            if not isinstance(extra, dict):
                raise FrameError("binary result extra tail must be a JSON object")
            metrics = extra.get("metrics")
            meta = extra.get("meta", {})
        pos = end
        payload = new(SessionResultPayload)
        payload.device_id = device_id
        payload.session_index = session_index
        payload.text = text
        payload.n_keys = n_keys
        payload.degraded = flags & _FLAG_DEGRADED == _FLAG_DEGRADED
        payload.exact = _EXACT_BY_FLAGS[flags & _EXACT_FLAGS]
        payload.seed = seed
        payload.deltas = fields[at + 9:at + _ROW_FIELDS] if flags & _FLAG_HAS_DELTAS else None
        payload.mask = mask
        payload.metrics = metrics
        payload.meta = meta
        payloads.append(payload)
    return fields[2::_ROW_FIELDS], tuple(payloads)


def _decode_batch(body: bytes) -> Batch:
    if len(body) < _BATCH_HEAD.size:
        raise FrameError(f"binary batch header truncated ({len(body)} bytes)")
    _tag, count = _BATCH_HEAD.unpack_from(body)
    if count < 1:
        raise FrameError("binary batch must carry at least one result")
    return Batch(*_unpack_members(body, _BATCH_HEAD.size, count))


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

    def encode(self, frame: Frame) -> bytes:
        if isinstance(frame, Result):
            body = _pack_members(">B", (TAG_RESULT,), (frame.seq,), (frame.payload,))
        elif isinstance(frame, Batch):
            if not frame.seqs:
                raise FrameError("batch frame must carry at least one result")
            body = _pack_members(
                ">BI", (TAG_BATCH, len(frame.seqs)), frame.seqs, frame.payloads
            )
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
        return prefix_body(body)


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
        (seq,), (payload,) = _unpack_members(body, 1, 1)
        return Result(seq, payload)
    if first == TAG_BATCH:
        return _decode_batch(body)
    if first == TAG_RETIRED_BATCH:
        raise FrameError(
            f"batch tag 0x{first:02x} was retired in proto {PROTO_VERSION}: "
            f"a proto 2 peer or journal sent it"
        )
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

