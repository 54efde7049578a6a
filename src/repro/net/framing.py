"""Length-prefixed binary framing for the shard-serving wire protocol.

One RPC exchange is one request frame and one response frame over a plain
TCP stream.  A frame is a fixed 20-byte header followed by the payload::

    offset  size  field
    0       4     magic  b"RNET"
    4       2     protocol version (big-endian u16)
    6       2     frame kind       (big-endian u16, see FRAME_*)
    8       8     payload length   (big-endian u64)
    16      4     CRC32 of payload (big-endian u32)
    20      n     payload bytes

The header carries everything needed to reject garbage *before* touching
the payload: a foreign magic or version fails the handshake immediately,
an oversized length bound refuses to allocate, and the checksum catches
truncation or corruption of the payload itself.  Every violation raises
:class:`~repro.exceptions.ProtocolError` — the stream is then out of sync
and the connection must be dropped, never resynchronised.

Payloads are pickled Python values (the task/result messages of
:mod:`repro.index.executors` are self-contained and picklable by design);
``PING``/``PONG``/``INFO`` frames carry empty or small dict payloads.
Typed error frames carry ``{"error_type", "message", "traceback"}`` so a
client can surface the server's original failure verbatim.
"""

from __future__ import annotations

import pickle
import struct
import zlib

from ..exceptions import ProtocolError

__all__ = [
    "PROTOCOL_VERSION", "MAGIC", "HEADER", "MAX_PAYLOAD",
    "FRAME_SEARCH", "FRAME_RESULT", "FRAME_ERROR", "FRAME_PING",
    "FRAME_PONG", "FRAME_INFO", "FRAME_INFO_REPLY", "FRAME_RELOAD",
    "FRAME_RELOAD_REPLY", "FRAME_KINDS",
    "encode_frame", "pack_frame", "read_frame", "read_exactly",
    "dumps", "loads",
]

#: Version of the wire protocol.  Bump on any incompatible frame change;
#: both sides reject mismatched versions with a clear error instead of
#: misparsing each other's bytes.  Version 2: ``ShardSearchTask`` lost its
#: ``single``/``strategy`` fields (the pickled payload's shape changed).
#: Version 3: shard results carry global ids (the shard files hold them)
#: and ``ShardSearchTask`` lost its no-op ``seed`` field.
PROTOCOL_VERSION = 3

#: Frame preamble — rejects non-protocol traffic on the first 4 bytes.
MAGIC = b"RNET"

#: ``magic, version, kind, payload_length, payload_crc32``.
HEADER = struct.Struct(">4sHHQI")

#: Upper bound on a payload a reader will allocate (a corrupt length field
#: must not become a multi-terabyte allocation).  256 MiB comfortably holds
#: any realistic query batch or top-k result block.
MAX_PAYLOAD = 256 * 1024 * 1024

FRAME_SEARCH = 1      #: request: pickled ShardSearchTask
FRAME_RESULT = 2      #: response: pickled ShardSearchResult
FRAME_ERROR = 3       #: response: pickled error dict (type/message/traceback)
FRAME_PING = 4        #: request: empty payload
FRAME_PONG = 5        #: response: empty payload
FRAME_INFO = 6        #: request: empty payload
FRAME_INFO_REPLY = 7  #: response: pickled server-info dict
FRAME_RELOAD = 8      #: request: empty payload — re-read the served index
FRAME_RELOAD_REPLY = 9  #: response: pickled server-info dict (post-reload)

FRAME_KINDS = (FRAME_SEARCH, FRAME_RESULT, FRAME_ERROR, FRAME_PING,
               FRAME_PONG, FRAME_INFO, FRAME_INFO_REPLY, FRAME_RELOAD,
               FRAME_RELOAD_REPLY)


def dumps(value) -> bytes:
    """Serialize a frame payload (pickle, highest protocol)."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def loads(payload: bytes):
    """Deserialize a frame payload written by :func:`dumps`."""
    return pickle.loads(payload)


def pack_frame(kind: int, payload: bytes = b"", *,
               version: int = PROTOCOL_VERSION) -> bytes:
    """Serialize one frame (header + payload) into bytes.

    ``version`` is overridable so tests can fabricate mismatched frames;
    production callers always send :data:`PROTOCOL_VERSION`.
    """
    if kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    header = HEADER.pack(MAGIC, version, kind, len(payload),
                         zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


def encode_frame(kind: int, value=None, *,
                 version: int = PROTOCOL_VERSION) -> bytes:
    """Pickle ``value`` and wrap it in a frame (``None`` → empty payload)."""
    payload = b"" if value is None else dumps(value)
    return pack_frame(kind, payload, version=version)


def read_exactly(sock, n: int) -> bytes:
    """Read exactly ``n`` bytes from a socket.

    Raises :class:`ConnectionError` when the peer closes the stream first —
    a half-delivered frame is a dead connection, not data.
    """
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                "bytes received)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock) -> tuple[int, bytes]:
    """Read one frame from a socket; returns ``(kind, payload_bytes)``.

    Raises :class:`~repro.exceptions.ProtocolError` on a foreign magic, a
    protocol-version mismatch, an unknown frame kind, an oversized length
    field or a payload failing its checksum, and :class:`ConnectionError`
    when the stream ends mid-frame.
    """
    header = read_exactly(sock, HEADER.size)
    magic, version, kind, length, crc = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): the peer is "
            "not speaking the shard-serving protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer sent version {version}, "
            f"this build speaks version {PROTOCOL_VERSION}")
    if kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"frame declares a {length}-byte payload, above the "
            f"{MAX_PAYLOAD}-byte bound — refusing to allocate")
    payload = read_exactly(sock, length)
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise ProtocolError(
            f"payload checksum mismatch (declared {crc:#010x}, computed "
            f"{actual:#010x}): the frame was truncated or corrupted in "
            "transit")
    return kind, payload
