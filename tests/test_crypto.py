"""Tests for the crypto boundary (repro.crypto).

The ChaCha20 implementations -- the scalar oracle and the batched,
lane-parallel one the data path uses -- are validated against the
official RFC 8439 test vectors; the authenticator, engine, and Merkle tree are tested for
round-trips and -- more importantly -- for *detection*: every modelled
attack (bit flips, splicing, version rollback, consistent replay) must
raise.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.crypto.auth import AuthenticationError, BlockAuthenticator
from repro.crypto.chacha import (
    LANES_PER_PASS, ChaCha20, chacha20_blocks, chacha20_xor,
)
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError


class TestChaCha20Rfc8439:
    """Official test vectors from RFC 8439."""

    def test_block_function_vector(self):
        """RFC 8439 section 2.3.2."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = ChaCha20(key, nonce).block(1)
        expect = bytes.fromhex(
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e"
        )
        assert block == expect

    def test_encryption_vector(self):
        """RFC 8439 section 2.4.2: the sunscreen plaintext."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = ChaCha20(key, nonce).xor(plaintext, counter=1)
        expect = bytes.fromhex(
            "6e2e359a2568f98041ba0728dd0d6981"
            "e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b357"
            "1639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e"
            "52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42"
            "874d"
        )
        assert ciphertext == expect

    def test_keystream_block_zero_vector(self):
        """RFC 8439 section 2.3.2 uses counter=1; appendix A.1 test
        vector #1 is the all-zero state at counter 0."""
        block = ChaCha20(bytes(32), bytes(12)).block(0)
        expect = bytes.fromhex(
            "76b8e0ada0f13d90405d6ae55386bd28"
            "bdd219b8a08ded1aa836efcc8b770dc7"
            "da41597c5157488d7724e03fb8d84a37"
            "6a43b8f41518a11cc387b669b2ee6586"
        )
        assert block == expect


def nonce_words(*nonces: bytes) -> np.ndarray:
    """12-byte nonces as the (n, 3) little-endian words the batched
    cipher takes."""
    return np.frombuffer(b"".join(nonces), dtype="<u4").reshape(-1, 3)


class TestChaCha20BlocksRfc8439:
    """The same RFC 8439 block vectors, through the batched function."""

    # (key, nonce, counter, keystream block): section 2.3.2, then the
    # appendix A.1 block-function test vectors #1-#5.
    VECTORS = [
        (bytes(range(32)), bytes.fromhex("000000090000004a00000000"), 1,
         "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
         "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"),
        (bytes(32), bytes(12), 0,
         "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
         "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"),
        (bytes(32), bytes(12), 1,
         "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
         "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"),
        (bytes(31) + b"\x01", bytes(12), 1,
         "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a"
         "8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0"),
        (b"\x00\xff" + bytes(30), bytes(12), 2,
         "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca"
         "13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096"),
        (bytes(32), bytes(11) + b"\x02", 0,
         "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c7"
         "8a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d"),
    ]

    @pytest.mark.parametrize("key,nonce,counter,expect", VECTORS)
    def test_block_vector(self, key, nonce, counter, expect):
        out = chacha20_blocks(key, nonce_words(nonce), counter)
        assert out.shape == (1, 64) and out.dtype == np.uint8
        assert out[0].tobytes() == bytes.fromhex(expect)

    def test_vectors_as_lanes_of_one_call(self):
        """Lanes are independent: vectors sharing a key and counter come
        out right side by side, in order."""
        nonces = [bytes(12), bytes(11) + b"\x02", bytes(12)]
        out = chacha20_blocks(bytes(32), nonce_words(*nonces), 0)
        assert out[0].tobytes() == bytes.fromhex(self.VECTORS[1][3])
        assert out[1].tobytes() == bytes.fromhex(self.VECTORS[5][3])
        assert out[2].tobytes() == out[0].tobytes()


class TestChaCha20Blocks:
    def test_matches_scalar_across_pass_boundary(self):
        key = hashlib.sha256(b"lanes").digest()
        n = LANES_PER_PASS + 3
        nonces = [struct.pack("<QI", 64 * i, i + 1) for i in range(n)]
        out = chacha20_blocks(key, nonce_words(*nonces))
        for i in (0, 1, LANES_PER_PASS - 1, LANES_PER_PASS, n - 1):
            assert out[i].tobytes() == ChaCha20(key, nonces[i]).block(0)

    def test_zero_lanes(self):
        out = chacha20_blocks(bytes(32), np.zeros((0, 3), dtype=np.uint32))
        assert out.shape == (0, 64)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            chacha20_blocks(b"short", nonce_words(bytes(12)))
        with pytest.raises(ValueError):
            chacha20_blocks(bytes(32), np.zeros((2, 4), dtype=np.uint32))
        with pytest.raises(ValueError):
            chacha20_blocks(bytes(32), nonce_words(bytes(12)), counter=-1)
        with pytest.raises(ValueError):
            chacha20_blocks(bytes(32), nonce_words(bytes(12)),
                            counter=2**32)


class TestChaCha20Api:
    def test_xor_roundtrip(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        msg = b"hello oram world" * 5
        assert c.xor(c.xor(msg)) == msg

    def test_one_shot_helper(self):
        key, nonce = b"k" * 32, b"n" * 12
        ct = chacha20_xor(key, nonce, b"data")
        assert chacha20_xor(key, nonce, ct) == b"data"

    def test_different_counters_differ(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert c.block(0) != c.block(1)

    def test_different_nonces_differ(self):
        a = ChaCha20(b"k" * 32, b"a" * 12).block(0)
        b = ChaCha20(b"k" * 32, b"b" * 12).block(0)
        assert a != b

    def test_keystream_prefix_property(self):
        c = ChaCha20(b"k" * 32, b"n" * 12)
        assert c.keystream(100)[:64] == c.block(0)

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"short", b"n" * 12)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"short")

    def test_bad_counter(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"n" * 12).block(-1)

    def test_negative_length(self):
        with pytest.raises(ValueError):
            ChaCha20(b"k" * 32, b"n" * 12).keystream(-1)


class TestBlockAuthenticator:
    def test_roundtrip(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        auth.verify(0x1000, 3, b"c" * 64, tag)

    def test_tampered_ciphertext_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x1000, 3, b"d" + b"c" * 63, tag)

    def test_spliced_address_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x2000, 3, b"c" * 64, tag)

    def test_rolled_back_version_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        tag = auth.tag(0x1000, 3, b"c" * 64)
        with pytest.raises(AuthenticationError):
            auth.verify(0x1000, 2, b"c" * 64, tag)

    def test_tag_is_truncated(self):
        auth = BlockAuthenticator(b"x" * 32)
        assert len(auth.tag(0, 0, b"")) == auth.TAG_BYTES

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            BlockAuthenticator(b"tiny")

    def test_negative_inputs_rejected(self):
        auth = BlockAuthenticator(b"x" * 32)
        with pytest.raises(ValueError):
            auth.tag(-1, 0, b"")


class TestSecureBlockEngine:
    def test_seal_open_roundtrip(self):
        eng = SecureBlockEngine(b"master key bytes")
        pt = bytes(range(64))
        ct, tag = eng.seal(0xABC0, 7, pt)
        assert eng.open(0xABC0, 7, ct, tag) == pt

    def test_ciphertext_differs_from_plaintext(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, _ = eng.seal(0, 1, bytes(64))
        assert ct != bytes(64)

    def test_same_plaintext_two_versions_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal(0, 1, bytes(64))
        ct2, _ = eng.seal(0, 2, bytes(64))
        assert ct1 != ct2

    def test_same_plaintext_two_addresses_unrelated(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct1, _ = eng.seal(64, 1, bytes(64))
        ct2, _ = eng.seal(128, 1, bytes(64))
        assert ct1 != ct2

    def test_wrong_size_rejected(self):
        eng = SecureBlockEngine(b"master key bytes")
        with pytest.raises(ValueError):
            eng.seal(0, 0, b"short")
        with pytest.raises(ValueError):
            eng.open(0, 0, b"short", b"t" * 8)

    def test_tamper_detected(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, tag = eng.seal(0, 1, bytes(64))
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            eng.open(0, 1, bad, tag)

    def test_short_master_key_rejected(self):
        with pytest.raises(ValueError):
            SecureBlockEngine(b"short")

    def test_pads_are_the_nonce_keystream(self):
        """A pad is ChaCha20 at counter 0 under (addr, version), the
        nonce the engine always used, with the engine's derived key."""
        master = b"master key bytes"
        eng = SecureBlockEngine(master)
        enc_key = hashlib.sha256(b"repro/enc|" + master).digest()
        addrs, versions = [0, 64, 2**40 + 128], [1, 7, 2**31]
        pads = eng.pads(addrs, versions)
        assert pads.shape == (3, 64)
        for row, addr, version in zip(pads, addrs, versions):
            nonce = struct.pack("<QI", addr, version)
            assert row.tobytes() == ChaCha20(enc_key, nonce).block(0)

    def test_precomputed_pad_gives_the_same_bytes(self):
        eng = SecureBlockEngine(b"master key bytes")
        pt = bytes(range(64))
        pad = eng.pads([0xABC0], [7])[0]
        assert eng.seal(0xABC0, 7, pt, pad) == eng.seal(0xABC0, 7, pt)
        ct, tag = eng.seal(0xABC0, 7, pt)
        assert eng.open(0xABC0, 7, ct, tag, pad) == pt

    def test_mac_checked_before_the_pad_is_used(self):
        eng = SecureBlockEngine(b"master key bytes")
        ct, tag = eng.seal(0, 1, bytes(64))
        bad = bytes([ct[0] ^ 1]) + ct[1:]
        with pytest.raises(AuthenticationError):
            eng.open(0, 1, bad, tag, eng.pads([0], [1])[0])


class TestBucketMerkleTree:
    def make(self, levels=4):
        return BucketMerkleTree(levels)

    def digest(self, label: bytes) -> bytes:
        return hashlib.sha256(label).digest()

    def test_fresh_tree_verifies(self):
        t = self.make()
        for leaf in range(8):
            t.verify_path(leaf)

    def test_update_then_verify(self):
        t = self.make()
        t.update_bucket(9, self.digest(b"bucket 9"))
        for leaf in range(8):
            t.verify_path(leaf)
        assert t.updates == 1

    def test_root_changes_on_update(self):
        t = self.make()
        before = t.root
        t.update_bucket(0, self.digest(b"new"))
        assert t.root != before

    def test_tampered_content_detected(self):
        t = self.make()
        t.update_bucket(9, self.digest(b"legit"))
        t.tamper_content(9, self.digest(b"evil"))
        with pytest.raises(IntegrityError):
            t.verify_bucket(9)

    def test_tampered_digest_detected(self):
        t = self.make()
        t.tamper_digest(4, self.digest(b"evil"))
        # Bucket 4's parent chain no longer matches.
        with pytest.raises(IntegrityError):
            t.verify_bucket(4)

    def test_consistent_replay_caught_at_root(self):
        """The strongest off-chip attack: rewrite a whole consistent
        hash chain. The on-chip root still disagrees."""
        t = self.make()
        t.update_bucket(9, self.digest(b"v1"))
        old_content = t.stored_content(9)
        t.update_bucket(9, self.digest(b"v2"))
        # Attacker restores the old content and re-hashes consistently.
        t.tamper_content(9, old_content)
        t.tamper_rehash(9)
        with pytest.raises(IntegrityError):
            t.verify_bucket(9)

    def test_update_validates_args(self):
        t = self.make()
        with pytest.raises(ValueError):
            t.update_bucket(100, bytes(32))
        with pytest.raises(ValueError):
            t.update_bucket(0, b"short")

    def test_two_level_tree(self):
        t = BucketMerkleTree(2)
        t.update_bucket(1, self.digest(b"x"))
        t.verify_path(0)
        t.verify_path(1)
