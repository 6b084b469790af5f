"""Wire format of the distributed-ingest subsystem.

Every message is one *frame*::

    +-------+---------+----------+-------------+----------------+
    | magic | version | msg type | payload len |    payload     |
    |  2 B  |   1 B   |   1 B    |  4 B (BE)   | payload-len B  |
    +-------+---------+----------+-------------+----------------+

The header is fixed-size and length-prefixed, so stream transports (TCP)
can delimit frames without scanning, and message transports (queues,
pipes) just carry whole frames.  The version byte is checked on every
decode; a mismatch raises :class:`WireFormatError` instead of guessing.

Two payload families do the real work:

* **Batch payloads** (:func:`encode_batch` / :func:`decode_batch`) carry a
  chunk of the key/value stream.  They reuse the packed per-key encodings of
  the batch datapath (``EncodedKeyBatch.encoded`` — the ``key_to_bytes``
  forms, which are reversible given a one-byte type tag), so the decoder
  rebuilds an :class:`~repro.hashing.EncodedKeyBatch` *without re-encoding a
  single key*.  Int batches take array paths with no per-key work on either
  side: small non-negative ints (the paper's 32-bit flow IDs) ship as one
  ``uint32`` array, other int64 keys as tagged slots written and read by
  the whole-array int codec of ``repro.hashing.families``.
* **State payloads** (:func:`encode_state` / :func:`decode_state`) carry a
  sketch's table state (the :meth:`~repro.sketches.base.Sketch.state_snapshot`
  arrays) as a JSON header plus raw C-order array bytes — the collector
  restores them into a structurally identical replica and merges.

The format is deliberately self-contained (no pickle): a frame's bytes mean
the same thing on every platform, and a malformed frame fails loudly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hashing import EncodedKeyBatch
from repro.hashing.families import (
    KEY_TAG_BYTES,
    KEY_TAG_INT,
    KEY_TAG_STR,
    decode_int_keys,
    decode_zigzag_int,
    encode_int_keys,
    key_to_bytes,
    pack_int_keys,
)

MAGIC = b"RS"
#: Bump on any incompatible layout change; decoders reject other versions.
#: v2: MSG_QUERY_REPLY carries a status byte (OK / BUSY back-pressure).
#: v3: the dynamic-ingest frames — HEARTBEAT/HEARTBEAT_ACK (liveness),
#: HANDOFF/HANDOFF_ACK (epoch-fenced partition migration), CREDIT
#: (flow control) and ROUTED_BATCH (per-partition, epoch-stamped data);
#: MSG_SNAPSHOT_REQUEST optionally carries a per-partition body.
WIRE_VERSION = 3

#: Upper bound on a single frame's payload.  Nothing legitimate comes close
#: (the largest payloads are sketch-state snapshots, a few MiB at paper
#: budgets); a declared length beyond this is a hostile or corrupt header,
#: and rejecting it here means no server ever allocates buffers for it.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

_FRAME_HEADER = struct.Struct(">2sBBI")
FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 8 bytes

# Message types.
MSG_CONFIG = 1  # collector -> worker: configuration JSON
MSG_BATCH = 2  # client -> server: one key/value chunk to ingest
MSG_SNAPSHOT_REQUEST = 3  # collector -> worker: send your state
MSG_SNAPSHOT = 4  # worker -> collector: sketch state + ingest stats
MSG_SHUTDOWN = 5  # collector -> worker: drain and exit
MSG_QUERY = 6  # client -> server: one query request (serving layer)
MSG_QUERY_REPLY = 7  # server -> client: the epoch-stamped answer
MSG_HEARTBEAT = 8  # coordinator -> worker: liveness probe (seq, epoch)
MSG_HEARTBEAT_ACK = 9  # worker -> coordinator: echo + ingest stats
MSG_HANDOFF = 10  # coordinator -> worker: install one partition's state
MSG_HANDOFF_ACK = 11  # worker -> coordinator: partition installed at epoch
MSG_CREDIT = 12  # worker -> coordinator: return flow-control credits
MSG_ROUTED_BATCH = 13  # coordinator -> worker: epoch-fenced partition chunk

_MESSAGE_TYPES = frozenset(
    {
        MSG_CONFIG,
        MSG_BATCH,
        MSG_SNAPSHOT_REQUEST,
        MSG_SNAPSHOT,
        MSG_SHUTDOWN,
        MSG_QUERY,
        MSG_QUERY_REPLY,
        MSG_HEARTBEAT,
        MSG_HEARTBEAT_ACK,
        MSG_HANDOFF,
        MSG_HANDOFF_ACK,
        MSG_CREDIT,
        MSG_ROUTED_BATCH,
    }
)

# Request kinds of the serving layer's MSG_QUERY / MSG_QUERY_REPLY payloads.
QUERY_KEYS = 0  # batch point estimates for an explicit key list
QUERY_TOP_K = 1  # the k heaviest keys of the service's directory
QUERY_STATS = 2  # service counters as JSON
QUERY_FLUSH = 3  # force an epoch publish; reply carries the new epoch id

_QUERY_KINDS = frozenset({QUERY_KEYS, QUERY_TOP_K, QUERY_STATS, QUERY_FLUSH})

# Status byte of a MSG_QUERY_REPLY (wire v2).  BUSY is the typed
# back-pressure signal of the async front end: the request was *not*
# served (the global in-flight bound was hit) and carries no body — the
# client may retry.  The reply still echoes the request id and kind, so
# pipelined clients keep their in-order bookkeeping.  EPOCH_GONE is the
# temporal layer's typed rejection of a pinned-epoch (or windowed) read
# whose epoch the ring has evicted: like BUSY it carries no body, but
# unlike BUSY the request can *never* succeed by retrying — clients must
# raise, not back off (``epoch_id`` echoes the requested epoch).
STATUS_OK = 0
STATUS_BUSY = 1
STATUS_EPOCH_GONE = 2

_QUERY_STATUSES = frozenset({STATUS_OK, STATUS_BUSY, STATUS_EPOCH_GONE})

#: Reply statuses that carry no body (the request was not answered).
_BODYLESS_STATUSES = frozenset({STATUS_BUSY, STATUS_EPOCH_GONE})

# Key-block modes of a batch payload.
_KEYS_INT32 = 0  # all keys are ints in [0, 2^31): one uint32 array
_KEYS_TAGGED = 1  # per-key type tag + length + key_to_bytes encoding

# Per-key type tags of the tagged mode — the reversible key codec of
# ``repro.hashing.families`` is the single source of the tag assignment,
# shared with sketch snapshots (``keys_to_arrays``).
_TAG_INT = KEY_TAG_INT
_TAG_STR = KEY_TAG_STR
_TAG_BYTES = KEY_TAG_BYTES

# Value-block modes of a batch payload.
_VALUES_ONES = 0  # every value is 1 (the paper's frequency streams)
_VALUES_UNIFORM = 1  # one shared int64
_VALUES_ARRAY = 2  # one int64 per key


class WireFormatError(ValueError):
    """A frame or payload violates the wire format (or its version)."""


class FrameTooLargeError(WireFormatError):
    """A frame's payload exceeds :data:`MAX_PAYLOAD_BYTES`."""


def encode_frame(msg_type: int, payload: bytes = b"") -> bytes:
    """Wrap ``payload`` in a versioned, length-prefixed frame."""
    if msg_type not in _MESSAGE_TYPES:
        raise WireFormatError(f"unknown message type {msg_type}")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise FrameTooLargeError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
        )
    return _FRAME_HEADER.pack(MAGIC, WIRE_VERSION, msg_type, len(payload)) + payload


def parse_frame_header(header: bytes) -> tuple[int, int]:
    """Validate a frame header and return ``(msg_type, payload_length)``."""
    if len(header) != FRAME_HEADER_SIZE:
        raise WireFormatError(
            f"frame header must be {FRAME_HEADER_SIZE} bytes, got {len(header)}"
        )
    magic, version, msg_type, payload_length = _FRAME_HEADER.unpack(header)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (expected {WIRE_VERSION})"
        )
    if msg_type not in _MESSAGE_TYPES:
        raise WireFormatError(f"unknown message type {msg_type}")
    if payload_length > MAX_PAYLOAD_BYTES:
        # A hostile or corrupt header must never make a server allocate (or
        # wait for) an absurd payload — fail at the header, before any read.
        raise FrameTooLargeError(
            f"declared payload of {payload_length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte bound"
        )
    return msg_type, payload_length


def decode_frame(frame: bytes) -> tuple[int, bytes]:
    """Split one whole frame into ``(msg_type, payload)``."""
    msg_type, payload_length = parse_frame_header(frame[:FRAME_HEADER_SIZE])
    payload = frame[FRAME_HEADER_SIZE:]
    if len(payload) != payload_length:
        raise WireFormatError(
            f"frame payload is {len(payload)} bytes, header promised {payload_length}"
        )
    return msg_type, payload


# ---------------------------------------------------------------------------
# Batch payloads


def _append_key_block(parts: list[bytes], batch: EncodedKeyBatch) -> None:
    """Append the key block of ``batch`` (mode byte + packed keys) to ``parts``.

    Shared by batch payloads and the serving layer's query frames, so every
    frame family ships keys in the same packed encodings.  Int batches (an
    integer ndarray, or a list of plain ints, in ``(-2^63, 2^63)``) encode
    with array operations: the ``uint32`` mode inside ``[0, 2^31)``, the
    tagged mode's tags, lengths and blob otherwise.  Every other batch is
    screened by ``set(map(type, keys))`` and tagged per key.  Both paths
    write the same bytes.
    """
    count = len(batch)
    ints = batch.int64_keys
    if ints is not None and (not count or (int(ints.min()) >= 0 and int(ints.max()) < 2**31)):
        parts.append(bytes([_KEYS_INT32]))
        parts.append(ints.astype("<u4").tobytes())
        return
    parts.append(bytes([_KEYS_TAGGED]))
    if ints is not None:
        lengths, rows = encode_int_keys(ints)
        parts.append(bytes([_TAG_INT]) * count)
        parts.append(lengths.astype("<u4").tobytes())
        parts.append(pack_int_keys(lengths, rows).tobytes())
        return
    # Tag before touching the encodings: an unsupported key type must
    # surface as a WireFormatError, not a hashing-layer TypeError.
    keys = batch.keys
    tag_of = {}
    for kind in set(map(type, keys)):
        if issubclass(kind, bytes):
            tag_of[kind] = _TAG_BYTES
        elif issubclass(kind, str):
            tag_of[kind] = _TAG_STR
        elif issubclass(kind, int):
            tag_of[kind] = _TAG_INT
        else:
            raise WireFormatError(f"unsupported key type: {kind!r}")
    encoded = batch.encoded
    parts.append(bytes(map(tag_of.__getitem__, map(type, keys))))
    parts.append(np.fromiter(map(len, encoded), dtype="<u4", count=count).tobytes())
    parts.append(b"".join(encoded))


def _read_key_block(read, count: int) -> EncodedKeyBatch:
    """Inverse of :func:`_append_key_block` over a payload ``read`` cursor.

    A ``uint32`` block decodes to an int64 batch that builds no key list
    unless a consumer asks for one.  A tagged block whose slots are all
    ``INT`` of at most 8 bytes decodes with array operations into an int
    batch; any other tagged block per key.  On both paths an ``INT`` slot
    must hold exactly ``key_to_bytes`` of its value: the receiver hashes
    the key's own encoding, so a padded or truncated slot would make
    remote answers differ from local ones.
    """
    key_mode = read(1)[0]
    if key_mode == _KEYS_INT32:
        # One int64 batch, no per-key Python objects: the receiver hashes
        # and compares the keys as arrays.
        return EncodedKeyBatch(np.frombuffer(read(4 * count), dtype="<u4").astype(np.int64))
    if key_mode == _KEYS_TAGGED:
        tags = read(count)
        lengths = np.frombuffer(read(4 * count), dtype="<u4")
        blob = read(int(lengths.sum()))
        if count and tags.count(_TAG_INT) == count and int(lengths.max()) <= 8:
            ints = decode_int_keys(lengths, np.frombuffer(blob, dtype=np.uint8))
            canonical_lengths, rows = encode_int_keys(ints)
            if (
                not np.array_equal(canonical_lengths, lengths)
                or pack_int_keys(canonical_lengths, rows).tobytes() != blob
            ):
                raise WireFormatError("non-canonical int key encoding")
            return EncodedKeyBatch(ints)
        keys: list[object] = []
        encoded: list[bytes] = []
        position = 0
        for tag, length in zip(tags, lengths.tolist()):
            piece = blob[position : position + length]
            position += length
            encoded.append(piece)
            if tag == _TAG_BYTES:
                keys.append(piece)
            elif tag == _TAG_STR:
                try:
                    keys.append(piece.decode("utf-8"))
                except UnicodeDecodeError as error:
                    raise WireFormatError(f"malformed str key: {error}") from None
            elif tag == _TAG_INT:
                key = decode_zigzag_int(piece)
                if key_to_bytes(key) != piece:
                    raise WireFormatError("non-canonical int key encoding")
                keys.append(key)
            else:
                raise WireFormatError(f"unknown key tag {tag}")
        return EncodedKeyBatch(keys, _encoded=encoded)
    raise WireFormatError(f"unknown key mode {key_mode}")


def _payload_reader(payload: bytes):
    """A bounds-checked ``read(size)`` cursor plus its position probe."""
    offset = 0

    def read(size: int) -> bytes:
        nonlocal offset
        blob = payload[offset : offset + size]
        if len(blob) != size:
            raise WireFormatError("truncated payload")
        offset += size
        return blob

    def position() -> int:
        return offset

    return read, position


_NON_POSITIVE_VALUE = "non-positive batch value (every sketch rejects it)"


def encode_batch(
    keys: Sequence[object], values: Sequence[int] | np.ndarray | int | None = None
) -> bytes:
    """Serialize a key/value chunk into a ``MSG_BATCH`` payload.

    ``keys`` may be a plain sequence or an :class:`EncodedKeyBatch`; passing
    a batch whose encodings are already materialised (e.g. a routed
    sub-batch) reuses them instead of re-encoding.  Stream order is
    preserved — decode returns the keys in exactly this order, which is what
    keeps remote ingest exact for order-dependent sketches.  A value of 0 or
    less raises :class:`WireFormatError`, as it does on decode.
    """
    batch = keys if isinstance(keys, EncodedKeyBatch) else EncodedKeyBatch(keys)
    count = len(batch)
    parts = [struct.pack(">I", count)]
    _append_key_block(parts, batch)

    if values is None:
        parts.append(bytes([_VALUES_ONES]))
    elif isinstance(values, int):
        if count and values <= 0:
            raise WireFormatError(_NON_POSITIVE_VALUE)
        parts.append(bytes([_VALUES_UNIFORM]) + struct.pack(">q", values))
    else:
        value_array = np.asarray(values, dtype=np.int64)
        if value_array.shape != (count,):
            raise WireFormatError("values must match the number of keys")
        if count and int(value_array.min()) <= 0:
            raise WireFormatError(_NON_POSITIVE_VALUE)
        if count and (value_array == value_array[0]).all():
            # Degenerate to the uniform mode (covers the all-ones frequency
            # streams of the paper): 8 bytes instead of 8 per key.
            parts.append(bytes([_VALUES_UNIFORM]) + struct.pack(">q", int(value_array[0])))
        else:
            parts.append(bytes([_VALUES_ARRAY]) + value_array.astype("<i8").tobytes())
    return b"".join(parts)


def decode_batch(payload: bytes) -> tuple[EncodedKeyBatch, np.ndarray]:
    """Inverse of :func:`encode_batch`: ``(EncodedKeyBatch, int64 values)``.

    A tagged block of int keys decodes into an int batch, which the
    receiving sketch's hash kernels pack with whole-array operations; any
    other tagged block is seeded with the transmitted per-key encodings, so
    they are packed straight into matrices without re-encoding.
    """
    read, position = _payload_reader(payload)
    (count,) = struct.unpack(">I", read(4))
    batch = _read_key_block(read, count)

    value_mode = read(1)[0]
    if value_mode == _VALUES_ONES:
        values = np.ones(count, dtype=np.int64)
    elif value_mode == _VALUES_UNIFORM:
        (value,) = struct.unpack(">q", read(8))
        values = np.full(count, value, dtype=np.int64)
    elif value_mode == _VALUES_ARRAY:
        values = np.frombuffer(read(8 * count), dtype="<i8").astype(np.int64)
    else:
        raise WireFormatError(f"unknown value mode {value_mode}")
    if value_mode != _VALUES_ONES and count and int(values.min()) <= 0:
        raise WireFormatError(_NON_POSITIVE_VALUE)
    if position() != len(payload):
        raise WireFormatError("trailing bytes after batch payload")
    return batch, values


# ---------------------------------------------------------------------------
# Sketch-state payloads


def encode_state(
    state: dict[str, np.ndarray], algorithm: str, meta: dict | None = None
) -> bytes:
    """Serialize a ``state_snapshot()`` dict into a ``MSG_SNAPSHOT`` payload.

    ``algorithm`` names the registry entry the snapshot came from (the
    collector validates it restores into the same family), ``meta`` carries
    small JSON-serializable ingest stats (item counts, timings).
    """
    return b"".join(encode_state_parts(state, algorithm, meta))


def encode_state_parts(
    state: dict[str, np.ndarray], algorithm: str, meta: dict | None = None
) -> list:
    """The :func:`encode_state` payload as buffers whose ``b"".join`` it is.

    The length-prefixed JSON header as ``bytes``, then every array
    C-contiguous (the array itself when it already is), in ``state``
    order.  Callers that checksum and frame the payload, like the store's
    snapshot files, build their output from these with a single copy.
    """
    arrays = [np.ascontiguousarray(array) for array in state.values()]
    entries = [
        {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        for name, array in zip(state, arrays)
    ]
    header = json.dumps(
        {"algorithm": algorithm, "arrays": entries, "meta": meta or {}}
    ).encode("utf-8")
    return [struct.pack(">I", len(header)) + header, *arrays]


def decode_state(payload: bytes) -> tuple[dict[str, np.ndarray], str, dict]:
    """Inverse of :func:`encode_state`: ``(state, algorithm, meta)``."""
    if len(payload) < 4:
        raise WireFormatError("truncated state payload")
    (header_length,) = struct.unpack(">I", payload[:4])
    header_end = 4 + header_length
    if len(payload) < header_end:
        raise WireFormatError("truncated state header")
    try:
        header = json.loads(payload[4:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"malformed state header: {error}") from None
    state: dict[str, np.ndarray] = {}
    offset = header_end
    try:
        algorithm = header["algorithm"]
        meta = header["meta"]
        entries = [
            (entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"]))
            for entry in header["arrays"]
        ]
    except (KeyError, TypeError, ValueError) as error:
        # Structurally invalid headers (missing keys, bogus dtypes) must
        # honour the module contract: WireFormatError, never a raw escape.
        raise WireFormatError(f"invalid state header: {error!r}") from None
    for name, dtype, shape in entries:
        size = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        blob = payload[offset : offset + size]
        if len(blob) != size:
            raise WireFormatError(f"truncated array {name!r}")
        offset += size
        state[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    if offset != len(payload):
        raise WireFormatError("trailing bytes after state payload")
    return state, algorithm, meta


# ---------------------------------------------------------------------------
# Config payloads


def encode_config(config: dict) -> bytes:
    """Serialize a worker-configuration dict (JSON, UTF-8)."""
    return json.dumps(config).encode("utf-8")


def decode_config(payload: bytes) -> dict:
    """Inverse of :func:`encode_config`."""
    try:
        config = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"malformed config payload: {error}") from None
    if not isinstance(config, dict):
        raise WireFormatError("config payload must be a JSON object")
    return config


# ---------------------------------------------------------------------------
# Dynamic-ingest payloads (live resharding / fault tolerance)
#
# Every frame of the dynamic protocol is *epoch-fenced*: it carries the
# routing epoch the sender believed in.  Decoders accept an optional
# ``expected_epoch``; a mismatch raises :class:`WireFormatError` — a stale
# frame (routed before an epoch flip) must never be applied silently, which
# is what keeps at-most-once delivery provable under fault injection.

_HEARTBEAT = struct.Struct(">II")  # seq, epoch
_HEARTBEAT_ACK = struct.Struct(">IIQI")  # seq, epoch, items, stale_dropped
_CREDIT = struct.Struct(">II")  # epoch, amount
_ROUTED_HEADER = struct.Struct(">II")  # epoch, partition
_HANDOFF_HEADER = struct.Struct(">II")  # epoch, partition
_HANDOFF_ACK = struct.Struct(">II")  # epoch, partition
_SNAPSHOT_REQUEST = struct.Struct(">IIB")  # epoch, partition, release flag


def _check_epoch(epoch: int, expected_epoch: int | None, what: str) -> None:
    if expected_epoch is not None and epoch != expected_epoch:
        raise WireFormatError(
            f"{what} is fenced at epoch {epoch}, expected epoch {expected_epoch}"
        )


def _unpack_exact(layout: struct.Struct, payload: bytes, what: str) -> tuple:
    """Unpack a fixed-layout payload, rejecting truncation and trailing bytes."""
    if len(payload) != layout.size:
        raise WireFormatError(
            f"{what} payload must be {layout.size} bytes, got {len(payload)}"
        )
    return layout.unpack(payload)


def encode_heartbeat(seq: int, epoch: int) -> bytes:
    """Serialize a coordinator liveness probe (``MSG_HEARTBEAT``)."""
    try:
        return _HEARTBEAT.pack(seq, epoch)
    except struct.error as error:
        raise WireFormatError(f"invalid heartbeat fields: {error}") from None


def decode_heartbeat(payload: bytes, expected_epoch: int | None = None) -> tuple[int, int]:
    """Inverse of :func:`encode_heartbeat`: ``(seq, epoch)``."""
    seq, epoch = _unpack_exact(_HEARTBEAT, payload, "heartbeat")
    _check_epoch(epoch, expected_epoch, "heartbeat")
    return seq, epoch


def encode_heartbeat_ack(seq: int, epoch: int, items: int, stale_dropped: int = 0) -> bytes:
    """Serialize a worker's heartbeat echo (``MSG_HEARTBEAT_ACK``).

    ``items`` is the worker's total applied item count, ``stale_dropped`` how
    many epoch-fenced frames it rejected — both ride along so every liveness
    round doubles as a cheap accounting probe.
    """
    try:
        return _HEARTBEAT_ACK.pack(seq, epoch, items, stale_dropped)
    except struct.error as error:
        raise WireFormatError(f"invalid heartbeat-ack fields: {error}") from None


def decode_heartbeat_ack(
    payload: bytes, expected_epoch: int | None = None
) -> tuple[int, int, int, int]:
    """Inverse of :func:`encode_heartbeat_ack`: ``(seq, epoch, items, stale_dropped)``."""
    seq, epoch, items, stale_dropped = _unpack_exact(
        _HEARTBEAT_ACK, payload, "heartbeat ack"
    )
    _check_epoch(epoch, expected_epoch, "heartbeat ack")
    return seq, epoch, items, stale_dropped


def encode_credit(epoch: int, amount: int) -> bytes:
    """Serialize a flow-control credit grant (``MSG_CREDIT``).

    A worker returns one credit per applied (or deliberately rejected)
    ``MSG_ROUTED_BATCH`` frame; the coordinator never has more than the
    credit limit outstanding, which is the bounded-queue guarantee.
    """
    if amount <= 0:
        raise WireFormatError("credit amount must be positive")
    try:
        return _CREDIT.pack(epoch, amount)
    except struct.error as error:
        raise WireFormatError(f"invalid credit fields: {error}") from None


def decode_credit(payload: bytes) -> tuple[int, int]:
    """Inverse of :func:`encode_credit`: ``(epoch, amount)``.

    Credits are deliberately *not* epoch-fenced on decode: a credit returned
    for a pre-flip batch still frees a real send slot.
    """
    epoch, amount = _unpack_exact(_CREDIT, payload, "credit")
    if amount <= 0:
        raise WireFormatError("credit amount must be positive")
    return epoch, amount


def encode_routed_batch(
    epoch: int,
    partition: int,
    keys: Sequence[object],
    values: Sequence[int] | np.ndarray | int | None = None,
) -> bytes:
    """Serialize an epoch-fenced per-partition chunk (``MSG_ROUTED_BATCH``).

    The body after the 8-byte fence header is exactly an
    :func:`encode_batch` payload, so routed frames reuse the packed key
    encodings of the batch datapath unchanged.
    """
    try:
        header = _ROUTED_HEADER.pack(epoch, partition)
    except struct.error as error:
        raise WireFormatError(f"invalid routed-batch fields: {error}") from None
    return header + encode_batch(keys, values)


def refence_routed_batch(payload: bytes, epoch: int) -> bytes:
    """Re-stamp an encoded ``MSG_ROUTED_BATCH`` payload at ``epoch``.

    The partition and the batch body are kept byte for byte, so the result
    equals :func:`encode_routed_batch` at ``epoch`` without re-encoding a
    key — how a coordinator replays journaled frames after an epoch flip.
    A payload already fenced at ``epoch`` is returned as is.
    """
    if len(payload) < _ROUTED_HEADER.size:
        raise WireFormatError("truncated routed-batch payload")
    fenced_epoch, partition = _ROUTED_HEADER.unpack_from(payload)
    if fenced_epoch == epoch:
        return payload
    try:
        header = _ROUTED_HEADER.pack(epoch, partition)
    except struct.error as error:
        raise WireFormatError(f"invalid routed-batch fields: {error}") from None
    return header + payload[_ROUTED_HEADER.size :]


def decode_routed_batch(
    payload: bytes, expected_epoch: int | None = None
) -> tuple[int, int, EncodedKeyBatch, np.ndarray]:
    """Inverse of :func:`encode_routed_batch`: ``(epoch, partition, batch, values)``."""
    if len(payload) < _ROUTED_HEADER.size:
        raise WireFormatError("truncated routed-batch payload")
    epoch, partition = _ROUTED_HEADER.unpack(payload[: _ROUTED_HEADER.size])
    _check_epoch(epoch, expected_epoch, "routed batch")
    batch, values = decode_batch(payload[_ROUTED_HEADER.size :])
    return epoch, partition, batch, values


def encode_handoff(
    epoch: int,
    partition: int,
    state: dict[str, np.ndarray],
    algorithm: str,
    meta: dict | None = None,
) -> bytes:
    """Serialize a partition-state migration (``MSG_HANDOFF``).

    ``epoch`` is the *new* routing epoch the receiver must adopt; the body
    after the fence header is an :func:`encode_state` payload, so handoff
    reuses the existing sketch-state frames wholesale.
    """
    try:
        header = _HANDOFF_HEADER.pack(epoch, partition)
    except struct.error as error:
        raise WireFormatError(f"invalid handoff fields: {error}") from None
    return header + encode_state(state, algorithm, meta)


def decode_handoff(
    payload: bytes, expected_epoch: int | None = None
) -> tuple[int, int, dict[str, np.ndarray], str, dict]:
    """Inverse of :func:`encode_handoff`: ``(epoch, partition, state, algorithm, meta)``."""
    if len(payload) < _HANDOFF_HEADER.size:
        raise WireFormatError("truncated handoff payload")
    epoch, partition = _HANDOFF_HEADER.unpack(payload[: _HANDOFF_HEADER.size])
    _check_epoch(epoch, expected_epoch, "handoff")
    state, algorithm, meta = decode_state(payload[_HANDOFF_HEADER.size :])
    return epoch, partition, state, algorithm, meta


def encode_handoff_ack(epoch: int, partition: int) -> bytes:
    """Serialize the receiver's installation acknowledgement (``MSG_HANDOFF_ACK``)."""
    try:
        return _HANDOFF_ACK.pack(epoch, partition)
    except struct.error as error:
        raise WireFormatError(f"invalid handoff-ack fields: {error}") from None


def decode_handoff_ack(
    payload: bytes, expected_epoch: int | None = None
) -> tuple[int, int]:
    """Inverse of :func:`encode_handoff_ack`: ``(epoch, partition)``."""
    epoch, partition = _unpack_exact(_HANDOFF_ACK, payload, "handoff ack")
    _check_epoch(epoch, expected_epoch, "handoff ack")
    return epoch, partition


def encode_snapshot_request(epoch: int, partition: int, release: bool = False) -> bytes:
    """Serialize a per-partition snapshot request body (dynamic protocol).

    The static protocol sends ``MSG_SNAPSHOT_REQUEST`` with an empty payload
    ("snapshot your whole shard"); the dynamic protocol names a partition.
    ``release=True`` additionally tells the owner to drop its copy once the
    snapshot is on the wire — the quiesce step of a handoff.
    """
    try:
        return _SNAPSHOT_REQUEST.pack(epoch, partition, 1 if release else 0)
    except struct.error as error:
        raise WireFormatError(f"invalid snapshot-request fields: {error}") from None


def decode_snapshot_request(
    payload: bytes, expected_epoch: int | None = None
) -> tuple[int, int, bool]:
    """Inverse of :func:`encode_snapshot_request`: ``(epoch, partition, release)``."""
    epoch, partition, release = _unpack_exact(
        _SNAPSHOT_REQUEST, payload, "snapshot request"
    )
    if release not in (0, 1):
        raise WireFormatError(f"invalid snapshot-request release flag {release}")
    _check_epoch(epoch, expected_epoch, "snapshot request")
    return epoch, partition, bool(release)


# ---------------------------------------------------------------------------
# Query payloads (the serving layer)


@dataclass(frozen=True)
class QueryRequest:
    """One decoded ``MSG_QUERY`` payload.

    ``keys`` is set for :data:`QUERY_KEYS` (an :class:`EncodedKeyBatch`
    carrying the transmitted packed encodings), ``k`` for
    :data:`QUERY_TOP_K`; :data:`QUERY_STATS` and :data:`QUERY_FLUSH` carry
    nothing but the request id.
    """

    request_id: int
    kind: int
    keys: EncodedKeyBatch | None = None
    k: int | None = None
    #: Pin the answer to a specific published epoch (temporal reads); the
    #: server resolves it against its epoch ring and replies
    #: :data:`STATUS_EPOCH_GONE` when evicted.  ``None`` = latest epoch.
    epoch: int | None = None
    #: Answer from the delta of the last ``window`` epochs instead of the
    #: cumulative sketch (subtractable families only).  ``None`` = cumulative.
    window: int | None = None


@dataclass(frozen=True)
class QueryResponse:
    """One decoded ``MSG_QUERY_REPLY`` payload.

    ``epoch_id`` stamps every answer with the epoch that produced it — the
    client-visible handle of snapshot isolation (two answers with the same
    epoch id came from the same frozen replica).  ``estimates`` is set for
    key and top-k queries, ``keys`` for top-k (the ranked keys, heaviest
    first), ``stats`` for stats requests.

    ``status`` is :data:`STATUS_OK` for a served answer.  A
    :data:`STATUS_BUSY` reply is the admission-control rejection of the
    async front end: the request was never executed, the reply carries no
    body, and the client may retry it.  A :data:`STATUS_EPOCH_GONE` reply
    rejects a pinned or windowed read whose epoch the ring has evicted —
    also bodyless, but retrying can never succeed; ``epoch_id`` echoes the
    epoch that was requested and is gone.
    """

    request_id: int
    kind: int
    epoch_id: int
    estimates: np.ndarray | None = None
    keys: EncodedKeyBatch | None = None
    stats: dict | None = None
    status: int = STATUS_OK


# Temporal extension of a MSG_QUERY payload: an optional trailing block
# (flags byte + fields) appended after the kind body.  Emitted *only* when a
# temporal field is set, so plain latest-epoch requests stay byte-identical
# to pre-temporal frames — a compatible extension within wire v3.
_TEMPORAL_EPOCH = 0x01  # + 8-byte BE epoch id: pin the answer to that epoch
_TEMPORAL_WINDOW = 0x02  # + 4-byte BE N: answer from the last-N-epochs delta


def _check_temporal_fields(kind: int, epoch: int | None, window: int | None) -> None:
    """Shared encode/decode validation of the temporal extension."""
    if epoch is not None and window is not None:
        raise WireFormatError("a query may pin an epoch or a window, not both")
    if epoch is not None:
        if kind not in (QUERY_KEYS, QUERY_TOP_K):
            raise WireFormatError("only key and top-k queries can pin an epoch")
        if epoch < 0:
            raise WireFormatError("pinned epoch must be non-negative")
    if window is not None:
        if kind != QUERY_KEYS:
            raise WireFormatError("only key queries can request a window")
        if window <= 0:
            raise WireFormatError("window must be a positive epoch count")


def encode_query_request(
    request_id: int,
    kind: int,
    keys: Sequence[object] | None = None,
    k: int | None = None,
    epoch: int | None = None,
    window: int | None = None,
) -> bytes:
    """Serialize a query request into a ``MSG_QUERY`` payload.

    Key lists ride the same packed key block as batch payloads, so a query
    for a million keys costs the sender no per-key Python work on the int
    fast path.  ``epoch`` pins the request to a specific published epoch,
    ``window`` asks for last-``N``-epochs estimates; either appends the
    temporal extension block — requests with neither are byte-identical to
    pre-temporal frames.
    """
    if kind not in _QUERY_KINDS:
        raise WireFormatError(f"unknown query kind {kind}")
    _check_temporal_fields(kind, epoch, window)
    parts = [struct.pack(">IB", request_id, kind)]
    if kind == QUERY_KEYS:
        if keys is None:
            raise WireFormatError("QUERY_KEYS requires a key list")
        batch = keys if isinstance(keys, EncodedKeyBatch) else EncodedKeyBatch(keys)
        parts.append(struct.pack(">I", len(batch)))
        _append_key_block(parts, batch)
    elif kind == QUERY_TOP_K:
        if k is None or k <= 0:
            raise WireFormatError("QUERY_TOP_K requires a positive k")
        parts.append(struct.pack(">I", k))
    if epoch is not None:
        parts.append(struct.pack(">BQ", _TEMPORAL_EPOCH, epoch))
    elif window is not None:
        parts.append(struct.pack(">BI", _TEMPORAL_WINDOW, window))
    return b"".join(parts)


def decode_query_request(payload: bytes) -> QueryRequest:
    """Inverse of :func:`encode_query_request`."""
    read, position = _payload_reader(payload)
    request_id, kind = struct.unpack(">IB", read(5))
    if kind not in _QUERY_KINDS:
        raise WireFormatError(f"unknown query kind {kind}")
    keys = None
    k = None
    if kind == QUERY_KEYS:
        (count,) = struct.unpack(">I", read(4))
        keys = _read_key_block(read, count)
    elif kind == QUERY_TOP_K:
        (k,) = struct.unpack(">I", read(4))
        if k <= 0:
            raise WireFormatError("QUERY_TOP_K requires a positive k")
    epoch = None
    window = None
    if position() != len(payload):
        # The temporal extension block (absent on plain latest-epoch frames).
        flags = read(1)[0]
        if flags == _TEMPORAL_EPOCH:
            (epoch,) = struct.unpack(">Q", read(8))
        elif flags == _TEMPORAL_WINDOW:
            (window,) = struct.unpack(">I", read(4))
        else:
            raise WireFormatError(f"unknown temporal extension flags {flags:#x}")
        _check_temporal_fields(kind, epoch, window)
    if position() != len(payload):
        raise WireFormatError("trailing bytes after query request")
    return QueryRequest(
        request_id=request_id, kind=kind, keys=keys, k=k, epoch=epoch, window=window
    )


def encode_query_response(
    request_id: int,
    kind: int,
    epoch_id: int,
    estimates: np.ndarray | Sequence[int] | None = None,
    keys: Sequence[object] | None = None,
    stats: dict | None = None,
    status: int = STATUS_OK,
) -> bytes:
    """Serialize an epoch-stamped answer into a ``MSG_QUERY_REPLY`` payload.

    A :data:`STATUS_BUSY` or :data:`STATUS_EPOCH_GONE` reply carries no body
    (the request was rejected, not answered), so ``estimates``/``keys``/
    ``stats`` must be omitted; an EPOCH_GONE reply echoes the requested
    epoch in ``epoch_id``.
    """
    if kind not in _QUERY_KINDS:
        raise WireFormatError(f"unknown query kind {kind}")
    if status not in _QUERY_STATUSES:
        raise WireFormatError(f"unknown reply status {status}")
    parts = [struct.pack(">IBBQ", request_id, kind, status, epoch_id)]
    if status in _BODYLESS_STATUSES:
        if estimates is not None or keys is not None or stats is not None:
            raise WireFormatError("a rejection reply must not carry a body")
        return b"".join(parts)
    if kind in (QUERY_KEYS, QUERY_TOP_K):
        if estimates is None:
            raise WireFormatError("key and top-k responses require estimates")
        estimate_array = np.asarray(estimates, dtype=np.int64)
        if estimate_array.ndim != 1:
            raise WireFormatError("estimates must be one-dimensional")
        parts.append(struct.pack(">I", len(estimate_array)))
        if kind == QUERY_TOP_K:
            if keys is None:
                raise WireFormatError("top-k responses require the ranked keys")
            batch = keys if isinstance(keys, EncodedKeyBatch) else EncodedKeyBatch(keys)
            if len(batch) != len(estimate_array):
                raise WireFormatError("top-k keys must match the estimates")
            _append_key_block(parts, batch)
        parts.append(estimate_array.astype("<i8").tobytes())
    elif kind == QUERY_STATS:
        if stats is None:
            raise WireFormatError("stats responses require a stats dict")
        parts.append(json.dumps(stats).encode("utf-8"))
    return b"".join(parts)


def decode_query_response(payload: bytes) -> QueryResponse:
    """Inverse of :func:`encode_query_response`."""
    read, position = _payload_reader(payload)
    request_id, kind, status, epoch_id = struct.unpack(">IBBQ", read(14))
    if kind not in _QUERY_KINDS:
        raise WireFormatError(f"unknown query kind {kind}")
    if status not in _QUERY_STATUSES:
        raise WireFormatError(f"unknown reply status {status}")
    estimates = None
    keys = None
    stats = None
    if status in _BODYLESS_STATUSES:
        if position() != len(payload):
            raise WireFormatError("trailing bytes after a rejection reply")
        return QueryResponse(
            request_id=request_id, kind=kind, epoch_id=epoch_id, status=status
        )
    if kind in (QUERY_KEYS, QUERY_TOP_K):
        (count,) = struct.unpack(">I", read(4))
        if kind == QUERY_TOP_K:
            keys = _read_key_block(read, count)
        estimates = np.frombuffer(read(8 * count), dtype="<i8").astype(np.int64)
    elif kind == QUERY_STATS:
        blob = payload[position():]
        read(len(blob))
        try:
            stats = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(f"malformed stats payload: {error}") from None
        if not isinstance(stats, dict):
            raise WireFormatError("stats payload must be a JSON object")
    if position() != len(payload):
        raise WireFormatError("trailing bytes after query response")
    return QueryResponse(
        request_id=request_id,
        kind=kind,
        epoch_id=epoch_id,
        estimates=estimates,
        keys=keys,
        stats=stats,
        status=status,
    )
