"""On-disk formats of the durable epoch store: snapshot files and the WAL.

Both file kinds reuse the wire codec (`repro.distributed.wire`) for their
bodies — a snapshot body *is* an ``encode_state`` payload, a WAL frame body
*is* an ``encode_batch`` payload — so the store inherits the array-segment
framing, the packed key encodings, and the int fast path that the
distributed layer already pins bit-identical.  What this module adds is the
at-rest armor the wire does not need:

* a magic + **format version** byte per file, so stores survive code
  evolution (an unknown version is a typed error, never a misparse);
* a CRC-32 over every byte that matters, so a flipped bit anywhere —
  header, body, trailer — is detected before a single count is served;
* explicit length framing, so truncation *and* extension are both
  detectable (a snapshot file's size must equal exactly what its header
  promises).

Snapshot file (``epoch-<id>.snap``)::

    magic  b"RSNP"            4 bytes
    version                   1 byte   (STORE_FORMAT_VERSION)
    body length               >Q
    body                      encode_state(state, algorithm, meta)
    crc32(magic..body)        >I

WAL file (``wal-<id>.log``) — an append-only journal of the ingest batches
accepted *after* snapshot ``<id>`` was published::

    magic  b"RWAL"            4 bytes
    version                   1 byte
    epoch id                  >Q       (the snapshot this journal extends)
    frame*                    each: length >I, crc32(payload) >I, payload

WAL frames are individually checksummed and length-framed so a torn tail
(the crash window of an in-flight append) invalidates only the tail: every
frame before it replays, everything from the first bad byte on is
quarantined.  :func:`read_wal` implements exactly that prefix discipline.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.distributed.wire import (
    WireFormatError,
    decode_batch,
    decode_state,
    encode_batch,
    encode_state_parts,
)

#: Version byte stamped into every file this package writes.  Bump on any
#: incompatible layout change; readers reject unknown versions loudly.
STORE_FORMAT_VERSION = 1

SNAPSHOT_MAGIC = b"RSNP"
WAL_MAGIC = b"RWAL"

_SNAPSHOT_HEADER = struct.Struct(">4sBQ")  # magic, version, body length
_WAL_HEADER = struct.Struct(">4sBQ")  # magic, version, epoch id
_CRC = struct.Struct(">I")
_FRAME_HEADER = struct.Struct(">II")  # payload length, payload crc32

#: WAL frames above this are rejected as corrupt lengths (matches the wire
#: layer's ceiling — a legitimate frame is a single ingest batch).
MAX_WAL_FRAME_BYTES = 64 * 1024 * 1024

_SNAPSHOT_NAME = re.compile(r"^epoch-(\d{12})\.snap$")
_WAL_NAME = re.compile(r"^wal-(\d{12})\.log$")


class StoreError(RuntimeError):
    """Base error of the durable store (configuration and I/O misuse)."""


class StoreCorruptionError(StoreError):
    """A store file failed validation (bad magic/version/checksum/length).

    Raised when the store cannot produce *any* trustworthy state — a single
    corrupt file that an older epoch can cover never raises, it is
    quarantined and recovery falls back.
    """


# --------------------------------------------------------------------- names
def snapshot_filename(epoch_id: int) -> str:
    """Canonical snapshot filename; zero-padded so lexical order = epoch order."""
    return f"epoch-{epoch_id:012d}.snap"


def wal_filename(epoch_id: int) -> str:
    """Canonical WAL filename for the journal extending ``epoch_id``."""
    return f"wal-{epoch_id:012d}.log"


def parse_snapshot_filename(name: str) -> int | None:
    """Epoch id of a snapshot filename, or ``None`` if not one."""
    match = _SNAPSHOT_NAME.match(name)
    return int(match.group(1)) if match else None


def parse_wal_filename(name: str) -> int | None:
    """Epoch id of a WAL filename, or ``None`` if not one."""
    match = _WAL_NAME.match(name)
    return int(match.group(1)) if match else None


# ----------------------------------------------------------------- snapshots
def encode_snapshot_file(
    state: dict[str, np.ndarray], algorithm: str, meta: dict | None = None
) -> bytes:
    """Serialize one epoch's ``state_snapshot()`` into a snapshot file blob.

    The state is copied once: the CRC runs over the file header and each
    body piece (:func:`encode_state_parts`) in place, and one join builds
    the file.
    """
    parts = encode_state_parts(state, algorithm, meta)
    body_length = sum(memoryview(part).nbytes for part in parts)
    header = _SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, STORE_FORMAT_VERSION, body_length)
    crc = zlib.crc32(header)
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join([header, *parts, _CRC.pack(crc)])


def decode_snapshot_file(blob: bytes) -> tuple[dict[str, np.ndarray], str, dict]:
    """Inverse of :func:`encode_snapshot_file`; raises on *any* damage.

    Every failure mode — short file, wrong magic, unknown version, length
    mismatch (truncated *or* extended), checksum mismatch, malformed body —
    raises :class:`StoreCorruptionError`.  A successful return is a
    byte-verified ``(state, algorithm, meta)``.
    """
    if len(blob) < _SNAPSHOT_HEADER.size + _CRC.size:
        raise StoreCorruptionError("snapshot file shorter than its fixed framing")
    magic, version, body_length = _SNAPSHOT_HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise StoreCorruptionError(f"bad snapshot magic {magic!r}")
    if version != STORE_FORMAT_VERSION:
        raise StoreCorruptionError(
            f"snapshot format version {version} (this build reads {STORE_FORMAT_VERSION})"
        )
    expected = _SNAPSHOT_HEADER.size + body_length + _CRC.size
    if len(blob) != expected:
        raise StoreCorruptionError(
            f"snapshot file is {len(blob)} bytes, header promises {expected}"
        )
    body_end = _SNAPSHOT_HEADER.size + body_length
    (stored_crc,) = _CRC.unpack_from(blob, body_end)
    actual_crc = zlib.crc32(blob[:body_end])
    if stored_crc != actual_crc:
        raise StoreCorruptionError(
            f"snapshot checksum mismatch (stored {stored_crc:#010x}, computed {actual_crc:#010x})"
        )
    try:
        return decode_state(blob[_SNAPSHOT_HEADER.size : body_end])
    except WireFormatError as error:
        # CRC passed but the body does not parse: the file was *written*
        # malformed (or the codec changed without a version bump) — still a
        # corruption from the reader's point of view.
        raise StoreCorruptionError(f"snapshot body malformed: {error}") from None


# ----------------------------------------------------------------------- wal
def encode_wal_header(epoch_id: int) -> bytes:
    """The fixed header opening the journal that extends ``epoch_id``."""
    return _WAL_HEADER.pack(WAL_MAGIC, STORE_FORMAT_VERSION, epoch_id)


#: Size of the fixed WAL header (the minimum size of a valid WAL file).
WAL_HEADER_BYTES = _WAL_HEADER.size


def decode_wal_header(blob: bytes) -> int:
    """Validate a WAL file's fixed header and return its epoch id."""
    if len(blob) < _WAL_HEADER.size:
        raise StoreCorruptionError("WAL file shorter than its fixed header")
    magic, version, epoch_id = _WAL_HEADER.unpack_from(blob)
    if magic != WAL_MAGIC:
        raise StoreCorruptionError(f"bad WAL magic {magic!r}")
    if version != STORE_FORMAT_VERSION:
        raise StoreCorruptionError(
            f"WAL format version {version} (this build reads {STORE_FORMAT_VERSION})"
        )
    return epoch_id


def encode_wal_frame(keys, values=None) -> bytes:
    """One journal frame: an ``encode_batch`` payload with length + CRC."""
    payload = encode_batch(keys, values)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class WalContents:
    """Result of scanning a WAL file with the torn-tail prefix discipline.

    ``batches`` are the frames that validated, in append order; all of them
    lie within ``valid_bytes`` of the file start.  ``tail_error`` is ``None``
    for a clean file, otherwise a human-readable account of the first
    invalid byte — everything from ``valid_bytes`` on is untrustworthy and
    the caller must quarantine + truncate before appending again.
    """

    epoch_id: int
    batches: tuple[tuple[object, np.ndarray], ...]
    valid_bytes: int
    tail_error: str | None

    @property
    def items(self) -> int:
        return sum(len(batch) for batch, _ in self.batches)


def read_wal(blob: bytes) -> WalContents:
    """Scan a WAL file, returning its valid prefix.

    The fixed header must validate (a damaged header means the *identity*
    of the journal is unknowable — :class:`StoreCorruptionError`).  Frames
    are then read until the first length/checksum/decode failure; that and
    everything after it is reported as the torn tail, never replayed.
    """
    epoch_id = decode_wal_header(blob)
    offset = _WAL_HEADER.size
    batches: list[tuple[object, np.ndarray]] = []
    tail_error: str | None = None
    while offset < len(blob):
        if offset + _FRAME_HEADER.size > len(blob):
            tail_error = f"torn frame header at byte {offset}"
            break
        length, stored_crc = _FRAME_HEADER.unpack_from(blob, offset)
        if length > MAX_WAL_FRAME_BYTES:
            tail_error = f"frame at byte {offset} claims {length} bytes"
            break
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > len(blob):
            tail_error = f"torn frame payload at byte {offset}"
            break
        payload = blob[start:end]
        if zlib.crc32(payload) != stored_crc:
            tail_error = f"frame checksum mismatch at byte {offset}"
            break
        try:
            batch, values = decode_batch(payload)
        except WireFormatError as error:
            tail_error = f"frame at byte {offset} malformed: {error}"
            break
        batches.append((batch, values))
        offset = end
    return WalContents(
        epoch_id=epoch_id,
        batches=tuple(batches),
        valid_bytes=offset,
        tail_error=tail_error,
    )
