"""Property-based tests for the crypto boundary."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.auth import AuthenticationError
from repro.crypto.chacha import LANES_PER_PASS, ChaCha20, chacha20_blocks
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError

ENGINE = SecureBlockEngine(b"property test master key")

ADDRS = st.integers(0, 2**48)
VERSIONS = st.integers(0, 2**31)
BLOCKS = st.binary(min_size=64, max_size=64)


class TestEngineProperties:
    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_seal_open_roundtrip(self, addr, version, pt):
        ct, tag = ENGINE.seal(addr, version, pt)
        assert ENGINE.open(addr, version, ct, tag) == pt

    @settings(max_examples=60, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS,
           flip=st.integers(0, 63), bit=st.integers(0, 7))
    def test_any_single_bit_flip_detected(self, addr, version, pt, flip, bit):
        ct, tag = ENGINE.seal(addr, version, pt)
        bad = bytearray(ct)
        bad[flip] ^= 1 << bit
        with pytest.raises(AuthenticationError):
            ENGINE.open(addr, version, bytes(bad), tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS, other=ADDRS)
    def test_splice_to_other_address_detected(self, addr, version, pt, other):
        if other == addr:
            other += 64
        ct, tag = ENGINE.seal(addr, version, pt)
        with pytest.raises(AuthenticationError):
            ENGINE.open(other, version, ct, tag)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=st.integers(0, 2**31 - 2), pt=BLOCKS)
    def test_version_replay_detected(self, addr, version, pt):
        ct, tag = ENGINE.seal(addr, version, pt)
        with pytest.raises(AuthenticationError):
            ENGINE.open(addr, version + 1, ct, tag)

    @settings(max_examples=30, deadline=None)
    @given(addrs=st.lists(ADDRS, min_size=1, max_size=40),
           version=VERSIONS, pt=BLOCKS)
    def test_batched_pads_seal_like_one_off_seals(self, addrs, version, pt):
        pads = ENGINE.pads(addrs, [version] * len(addrs))
        for addr, pad in zip(addrs, pads):
            assert ENGINE.seal(addr, version, pt, pad) == ENGINE.seal(
                addr, version, pt)

    @settings(max_examples=40, deadline=None)
    @given(addr=ADDRS, version=VERSIONS, pt=BLOCKS)
    def test_ciphertext_never_equals_plaintext(self, addr, version, pt):
        ct, _ = ENGINE.seal(addr, version, pt)
        assert ct != pt  # 2^-512 failure probability: effectively never


class TestChaChaProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(min_size=0, max_size=300),
           counter=st.integers(0, 1000))
    def test_xor_is_involution(self, data, counter):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert c.xor(c.xor(data, counter), counter) == data

    @settings(max_examples=40, deadline=None)
    @given(c1=st.integers(0, 10**6), c2=st.integers(0, 10**6))
    def test_distinct_counters_distinct_blocks(self, c1, c2):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        if c1 == c2:
            assert c.block(c1) == c.block(c2)
        else:
            assert c.block(c1) != c.block(c2)

    @settings(max_examples=30, deadline=None)
    @given(length=st.integers(0, 500), counter=st.integers(0, 100))
    def test_keystream_length_exact(self, length, counter):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert len(c.keystream(length, counter)) == length


class TestBatchedChaChaProperties:
    @settings(max_examples=12, deadline=None)
    @given(key=st.binary(min_size=32, max_size=32),
           lanes=st.integers(1, 2100),
           nonce_seed=st.integers(0, 2**32 - 1),
           counter=st.integers(0, 2**32 - 1))
    @example(key=bytes(32), lanes=2100, nonce_seed=0, counter=0)
    @example(key=bytes(32), lanes=LANES_PER_PASS + 1, nonce_seed=1,
             counter=2**32 - 1)
    def test_batched_equals_scalar_oracle(self, key, lanes, nonce_seed,
                                          counter):
        """Every lane of one batched call -- across pass boundaries --
        equals the scalar RFC 8439 block for its own nonce."""
        rng = np.random.default_rng(nonce_seed)
        nonces = rng.integers(0, 256, (lanes, 12), dtype=np.uint8)
        words = nonces.view("<u4").reshape(lanes, 3)
        out = chacha20_blocks(key, words, counter)
        assert out.shape == (lanes, 64)
        for i in range(lanes):
            expect = ChaCha20(key, nonces[i].tobytes()).block(counter)
            assert out[i].tobytes() == expect


class TestMerkleProperties:
    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 7), data=st.data())
    def test_updates_keep_tree_verifiable(self, levels, data):
        import hashlib
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        for i in range(data.draw(st.integers(1, 8))):
            bucket = data.draw(st.integers(0, n - 1))
            tree.update_bucket(
                bucket, hashlib.sha256(f"u{i}".encode()).digest()
            )
        for leaf in range(min(4, 1 << (levels - 1))):
            tree.verify_path(leaf)

    @settings(max_examples=25, deadline=None)
    @given(levels=st.integers(2, 6), data=st.data())
    def test_any_content_tamper_detected(self, levels, data):
        import hashlib
        tree = BucketMerkleTree(levels)
        n = (1 << levels) - 1
        victim = data.draw(st.integers(0, n - 1))
        tree.update_bucket(victim, hashlib.sha256(b"legit").digest())
        tree.tamper_content(victim, hashlib.sha256(b"evil").digest())
        with pytest.raises(IntegrityError):
            tree.verify_bucket(victim)
