"""Unit tests for content hashing and signatures."""

import random

import pytest

from repro.memory import hashing
from repro.memory.line import encode_line


class TestBucketHash:
    def test_deterministic(self):
        enc = encode_line((1, 2, 3, 4))
        assert hashing.bucket_hash(enc, 1024) == hashing.bucket_hash(enc, 1024)

    def test_in_range(self):
        for i in range(200):
            enc = encode_line((i, i * 7, 0, 1))
            assert 0 <= hashing.bucket_hash(enc, 64) < 64

    def test_spreads_content(self):
        buckets = {
            hashing.bucket_hash(encode_line((i, 0)), 1 << 16) for i in range(500)
        }
        # 500 distinct single-word lines should land in many buckets.
        assert len(buckets) > 400


class TestSignature:
    def test_non_zero(self):
        # Zero signatures mark empty ways, so content signatures fold to 1..255.
        for i in range(2000):
            assert hashing.signature(encode_line((i, i ^ 0xFF))) != 0

    def test_deterministic(self):
        enc = encode_line((42, 43))
        assert hashing.signature(enc) == hashing.signature(enc)

    def test_signatures_spread(self):
        # The 8-bit signature should cover most of its 1..255 range so
        # that same-bucket contents rarely share a signature (the false
        # positive argument of section 3.1).
        sigs = {hashing.signature(encode_line((i, 1))) for i in range(1000)}
        assert len(sigs) > 200

    def test_pairwise_collision_rate_low(self):
        # With ~12 lines per bucket (the paper's geometry) the chance of
        # a stray signature match should be small (< 5 % per the paper).
        import itertools
        sigs = [hashing.signature(encode_line((i, 1))) for i in range(120)]
        pairs = list(itertools.combinations(sigs, 2))
        collisions = sum(1 for a, b in pairs if a == b)
        assert collisions / len(pairs) < 0.05


@pytest.mark.xfail(strict=True, reason=(
    "known bug, recorded not fixed: CRC32 is linear, so the two seeded "
    "CRCs of one message differ by a constant and the low 8 bits of the "
    "signature are a function of the bucket index whenever num_buckets "
    "is a power of two >= 256 — measured 1 distinct signature per bucket "
    "over 200 000 random lines at the default 65 536 buckets (13-32 at "
    "non-power-of-two sizes). Fixing it moves paper-profile DramStats, "
    "so it needs its own re-baselining PR (ROADMAP open items)."))
def test_signature_independent_of_bucket():
    rng = random.Random(2012)
    num_buckets = 1 << 16
    per_bucket = {}
    for _ in range(200_000):
        enc = encode_line((rng.getrandbits(64), rng.getrandbits(64)))
        per_bucket.setdefault(hashing.bucket_hash(enc, num_buckets),
                              set()).add(hashing.signature(enc))
    # ~3 lines per bucket: independent signatures would almost never
    # all agree within a bucket that holds several lines
    assert max(len(sigs) for sigs in per_bucket.values()) > 1


class TestLineHashes:
    def test_triple(self):
        bucket, sig, enc = hashing.line_hashes((5, 6), 128)
        assert enc == encode_line((5, 6))
        assert bucket == hashing.bucket_hash(enc, 128)
        assert sig == hashing.signature(enc)
