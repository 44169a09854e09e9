"""Deterministic content hashing for the deduplicated store.

The store needs two independent hashes of a line's canonical encoding
(section 3.1):

* the **bucket hash**, selecting the DRAM row (hash bucket) the line must
  live in, and
* the **signature**, an 8-bit digest stored in the bucket's signature line
  and used to filter candidate ways before full content compares.

A third, the **fingerprint**, filters the candidates of a bucket that
has spilled into the overflow area; it is the bucket hash's bits above
the bucket index, so it costs no second CRC.

All three must be deterministic across processes (benchmarks compare
footprints between runs), so Python's randomized ``hash()`` is not used.
CRC32 (a C primitive) keeps the simulator fast.
"""

from __future__ import annotations

import zlib

from repro.memory.line import Line, encode_line

#: the two CRC32 seeds; :meth:`DedupStore.lookup` applies them in line
SIGNATURE_SEED = zlib.crc32(b"hicamp-signature")
BUCKET_SEED = zlib.crc32(b"hicamp-bucket")


def bucket_hash(encoded: bytes, num_buckets: int) -> int:
    """Map a line's canonical encoding to its hash bucket index."""
    return zlib.crc32(encoded, BUCKET_SEED) % num_buckets


def signature(encoded: bytes) -> int:
    """8-bit signature of a line's canonical encoding.

    Signatures are non-zero: the store uses a zero signature byte to mark
    an empty (or deallocated) way, so the 256 hash values are folded onto
    1..255.
    """
    h = zlib.crc32(encoded, SIGNATURE_SEED) & 0xFF
    return h if h != 0 else 1


def fingerprint(encoded: bytes, num_buckets: int) -> int:
    """8-bit fingerprint of a line's canonical encoding: the bucket
    CRC's bits above the bucket index, folded onto 1..255 like the
    signature (zero marks a free slot)."""
    return zlib.crc32(encoded, BUCKET_SEED) // num_buckets & 0xFF or 1


def line_hashes(line: Line, num_buckets: int) -> "tuple[int, int, bytes]":
    """Convenience: (bucket, signature, canonical encoding) of a line."""
    enc = encode_line(line)
    return bucket_hash(enc, num_buckets), signature(enc), enc
