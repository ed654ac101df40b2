"""Binary checkpoint container: a named-tensor table with a checksum.

Layout (all integers little-endian):

    magic  b"MSGM"
    u32    format version (currently 1)
    entry* u16 name length, UTF-8 name, u8 dtype code, u8 ndim,
           ndim x u32 dims, raw little-endian payload
    u32    CRC32 of every preceding byte

Dtype codes: 0 = f32, 1 = f64, 2 = u8, 3 = i64.  Entry order is preserved,
so a round trip is bit exact.  Everything that is not naturally a tensor
(RNG streams, config JSON, hashes) is stored as a u8 byte tensor.
"""

import hashlib
import json
import os
import struct
import zlib

import numpy as np

from .errors import CheckpointError

MAGIC = b"MSGM"
VERSION = 1

_DTYPE_CODES = {0: "<f4", 1: "<f8", 2: "u1", 3: "<i8"}
_CODE_FOR_KIND = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.uint8): 2,
    np.dtype(np.int64): 3,
}


def save_tensors(path, named):
    """Write an ordered {name: ndarray} mapping atomically and return the
    bytes written; dtypes outside the format are rejected rather than
    silently converted."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    for name, arr in named.items():
        arr = np.asarray(arr)
        if arr.dtype not in _CODE_FOR_KIND:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        code = _CODE_FOR_KIND[arr.dtype]
        raw_name = name.encode("utf-8")
        if len(raw_name) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:40]!r}...")
        out += struct.pack("<H", len(raw_name))
        out += raw_name
        out += struct.pack("<BB", code, arr.ndim)
        for dim in arr.shape:
            out += struct.pack("<I", dim)
        out += np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes()
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    write_atomic(path, out)
    return out


def write_atomic(path, data):
    """Write `data` (bytes-like, or str as UTF-8) to a temp file beside `path`
    that then replaces it, so a failed write leaves any previous file at
    `path` intact and no temp file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_tensors(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError("checkpoint truncated: shorter than header + checksum")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {blob[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported, expected {VERSION}")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    actual_crc = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CheckpointError(
            f"checkpoint checksum mismatch: stored {stored_crc:08x}, computed {actual_crc:08x}"
        )

    named = {}
    pos, end = 8, len(blob) - 4

    def need(n, what):
        if pos + n > end:
            raise CheckpointError(f"checkpoint truncated while reading {what}")

    while pos < end:
        need(2, "name length")
        (name_len,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        need(name_len, "name")
        name = blob[pos:pos + name_len].decode("utf-8")
        pos += name_len
        need(2, f"{name}: dtype/ndim")
        code, ndim = blob[pos], blob[pos + 1]
        pos += 2
        if code not in _DTYPE_CODES:
            raise CheckpointError(f"{name}: unknown dtype code {code}")
        need(4 * ndim, f"{name}: dims")
        shape = struct.unpack_from(f"<{ndim}I", blob, pos) if ndim else ()
        pos += 4 * ndim
        dt = np.dtype(_DTYPE_CODES[code])
        count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
        need(count * dt.itemsize, f"{name}: payload")
        arr = np.frombuffer(blob, dtype=dt, count=count, offset=pos).reshape(shape)
        pos += count * dt.itemsize
        named[name] = arr.astype(dt.newbyteorder("="), copy=True)
    return named


# ---------------------------------------------------------------------------
# helpers for non-tensor state

def bytes_to_u8(raw):
    return np.frombuffer(raw, dtype=np.uint8).copy()


def u8_to_bytes(arr):
    return np.asarray(arr, dtype=np.uint8).tobytes()


# stream tags, the first entry of a `stream_rng` spawn key: one per kind of draw
STREAM_DATA = 1  # pretraining data order: sensor id, cycle
STREAM_MASK = 2
STREAM_CROSS = 3
STREAM_TASK = 4  # fine-tuning task order: 0, cycle
STREAM_EVAL = 5  # self; cross with the entry 1
STREAM_RENDER = 6
STREAM_PARAM = 7  # parameter init: crc32 of the name
STREAM_SYNTH = 8  # synthetic data: source sensor id
STREAM_PAIR = 9  # pair channel mix, under seed 7041: source id, partner id


def stream_rng(seed, stream, *extra):
    """The generator of `seed`'s stream `stream` (a STREAM_* tag) at `extra`;
    no other code seeds one.  The tag and entries form the SeedSequence spawn
    key, mixed in after the zero-padded seed, so (1,) and (1, 0) are two
    streams while seeds stay below 2**128 and entries below 2**32; a run's
    `seed` is checked to lie in [0, 2**64)."""
    key = (int(stream), *map(int, extra))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=key)))


def rng_to_u8(gen):
    """Serialize a numpy Generator's full bit-generator state."""
    return bytes_to_u8(json.dumps(gen.bit_generator.state).encode("utf-8"))


def rng_from_u8(arr):
    state = json.loads(u8_to_bytes(arr).decode("utf-8"))
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = state
    return gen


def json_to_u8(obj):
    return bytes_to_u8(json.dumps(obj, sort_keys=True).encode("utf-8"))


def u8_to_json(arr):
    return json.loads(u8_to_bytes(arr).decode("utf-8"))


def registry_digest(registry):
    """Stable 32-byte digest of the sensor table; stored in checkpoints and
    compared on load so a model is never applied to foreign sensors."""
    lines = []
    for s in registry:
        pair = -1 if s.paired_with is None else s.paired_with
        # the per-channel 0.0 and 1.0 fields keep the digests of old files
        mean, std = (",".join([v] * s.channels) for v in ("0.0", "1.0"))
        lines.append(f"{s.sensor_id}|{s.name}|{s.channels}|{pair}|{mean}|{std}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
    return bytes_to_u8(digest)
