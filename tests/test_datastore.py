"""Tests for the encrypted tree store and the end-to-end secure data
path (controller + EncryptedTreeStore)."""

import pickle

import numpy as np
import pytest

from conftest import tiny_ab_config, tiny_config

from repro.core.remote import RemoteAllocator
from repro.crypto.auth import AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import IntegrityError
from repro.faults.memory import FaultyMemory
from repro.faults.plan import FaultPlan
from repro.oram.datastore import EncryptedTreeStore, pad_block
from repro.oram.ring import RingOram

KEY = b"test master key."


@pytest.fixture
def store(cfg_small):
    return EncryptedTreeStore(cfg_small, KEY, seed=1)


class TestPadBlock:
    def test_pads_right(self):
        assert pad_block(b"ab", 8) == b"ab" + b"\x00" * 6

    def test_exact_size(self):
        assert pad_block(b"x" * 8, 8) == b"x" * 8

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            pad_block(b"x" * 9, 8)

    def test_type_checked(self):
        with pytest.raises(TypeError):
            pad_block("not bytes")


class TestEncryptedTreeStore:
    def test_seal_open_roundtrip(self, store):
        store.seal_slot(3, 1, b"payload")
        assert store.open_slot(3, 1) == pad_block(b"payload", 64)

    def test_reseal_bumps_version(self, store):
        store.seal_slot(3, 1, b"v1")
        ct1 = store.raw_ciphertext(3, 1)
        store.seal_slot(3, 1, b"v1")
        ct2 = store.raw_ciphertext(3, 1)
        assert ct1 != ct2  # same plaintext, fresh version -> new bytes
        assert store.open_slot(3, 1) == pad_block(b"v1", 64)

    def test_never_sealed_slot_rejected(self, store):
        with pytest.raises(KeyError):
            store.open_slot(0, 0)

    def test_ciphertext_is_not_plaintext(self, store):
        store.seal_slot(0, 0, b"secret")
        assert b"secret" not in store.raw_ciphertext(0, 0)

    def test_dummy_seal_opens_to_noise(self, store):
        store.seal_dummy(2, 0)
        noise = store.open_slot(2, 0)
        assert len(noise) == 64

    def test_payload_tamper_detected(self, store):
        store.seal_slot(3, 1, b"payload")
        store.tamper_payload(3, 1)
        with pytest.raises(AuthenticationError):
            store.open_slot(3, 1)

    def test_version_rollback_detected(self, store):
        store.seal_slot(3, 1, b"v1")
        store.seal_slot(3, 1, b"v2")
        store.tamper_version(3, 1)
        with pytest.raises((AuthenticationError, IntegrityError)):
            store.open_slot(3, 1)

    def test_full_replay_detected_by_merkle_root(self, store):
        """Restore a consistent old (ciphertext, tag, version) triple
        AND rebuild the hash chain: the on-chip root still disagrees."""
        store.seal_slot(3, 1, b"old")
        old_ct = store.raw_ciphertext(3, 1)
        old_tag = store._tags[(3, 1)]
        old_ver = int(store._version[3, 1])
        store.seal_slot(3, 1, b"new")
        # Attacker restores everything off-chip, consistently.
        off = store._offset(3, 1)
        store._memory[off:off + 64] = old_ct
        store._tags[(3, 1)] = old_tag
        store._version[3, 1] = old_ver
        store.integrity.tamper_content(3, store._content_digest(3))
        store.integrity.tamper_rehash(3)
        with pytest.raises(IntegrityError):
            store.open_slot(3, 1)

    def test_without_integrity_tree(self, cfg_small):
        s = EncryptedTreeStore(cfg_small, KEY, with_integrity=False)
        s.seal_slot(0, 0, b"x")
        assert s.open_slot(0, 0) == pad_block(b"x", 64)

    def test_counters(self, store):
        store.seal_slot(0, 0, b"x")
        store.open_slot(0, 0)
        assert store.seals == 1
        assert store.opens == 1


class TestPadPool:
    """Precomputed keystream pads: same bytes as one-off sealing, one
    batched refill per run of stale slots, fresh pads for rolled-back
    versions, and every attack still caught."""

    def _count_pad_calls(self, store, monkeypatch):
        calls = []
        real = store.engine.pads

        def counting(addrs, versions):
            calls.append(len(addrs))
            return real(addrs, versions)

        monkeypatch.setattr(store.engine, "pads", counting)
        return calls

    def test_ciphertext_is_a_pure_function_of_addr_and_version(self, store):
        oracle = SecureBlockEngine(KEY)
        for value in (b"one", b"two", b"three"):
            store.seal_slot(3, 1, value)
            snap = store.snapshot_slot(3, 1)
            addr = store.layout.data_addr(3, 1)
            assert oracle.seal(addr, snap.version, pad_block(value, 64)) == (
                snap.ciphertext, snap.tag)

    def test_reseal_then_open(self, store):
        store.seal_slot(3, 1, b"v1")
        store.seal_slot(3, 1, b"v2")
        assert store.open_slot(3, 1) == pad_block(b"v2", 64)
        store.seal_slot(3, 1, b"v3")
        assert store.open_slot(3, 1) == pad_block(b"v3", 64)

    def test_build_fills_every_pad(self, store, monkeypatch):
        calls = self._count_pad_calls(store, monkeypatch)
        for b in range(store.cfg.n_buckets):
            z = store.cfg.geometry[(b + 1).bit_length() - 1].z_total
            for s in range(z):
                store.seal_slot(b, s, b"first")
        assert calls == []

    def test_one_batched_refill_per_bucket_reseal(self, store, monkeypatch):
        z = store.cfg.z_max
        store.seal_many([(0, s, None) for s in range(z)])
        store.seal_many([(1, s, None) for s in range(z)])
        calls = self._count_pad_calls(store, monkeypatch)
        store.seal_many([(0, s, b"again") for s in range(z)])
        # Slot (0, 0) found its pad stale and refilled every stale slot
        # (both buckets) at once; bucket 1 then reseals refill-free.
        assert calls == [2 * z]
        store.seal_many([(1, s, b"again") for s in range(z)])
        assert calls == [2 * z]
        assert store.open_slot(1, z - 1) == pad_block(b"again", 64)

    def test_open_after_tamper_version_detected(self, store):
        store.seal_slot(3, 1, b"v1")
        store.seal_slot(3, 1, b"v2")
        store.tamper_version(3, 1)
        with pytest.raises((AuthenticationError, IntegrityError)):
            store.open_slot(3, 1)

    def test_tamper_version_without_integrity_still_fails_the_mac(
            self, cfg_small):
        s = EncryptedTreeStore(cfg_small, KEY, with_integrity=False)
        s.seal_slot(3, 1, b"v1")
        s.seal_slot(3, 1, b"v2")
        s.tamper_version(3, 1)
        with pytest.raises(AuthenticationError):
            s.open_slot(3, 1)

    def test_rolled_back_version_decrypts_with_a_fresh_pad(self, cfg_small):
        """Without the Merkle tree a full replay goes through; the old
        plaintext comes back because the pad is recomputed for the
        rolled-back version, not taken from the current-pad table."""
        s = EncryptedTreeStore(cfg_small, KEY, with_integrity=False)
        s.seal_slot(3, 1, b"old")
        snap = s.snapshot_slot(3, 1)
        s.seal_slot(3, 1, b"new")
        s.restore_slot(3, 1, snap, restore_version=True)
        assert s.open_slot(3, 1) == pad_block(b"old", 64)
        s.seal_slot(3, 1, b"newer")  # reseal after the rollback
        assert s.open_slot(3, 1) == pad_block(b"newer", 64)

    def test_full_replay_with_rehash_still_raises(self, store):
        store.seal_slot(3, 1, b"old")
        snap = store.snapshot_slot(3, 1)
        store.seal_slot(3, 1, b"new")
        store.restore_slot(3, 1, snap, restore_version=True, rehash=True)
        with pytest.raises(IntegrityError):
            store.open_slot(3, 1)

    def test_bit_flip_still_detected(self, store):
        mem = FaultyMemory(store, FaultPlan(seed=0, rates={"bit_flip": 1.0}))
        mem.seal_slot(3, 1, b"payload")
        with pytest.raises(AuthenticationError):
            mem.open_slot(3, 1)
        assert mem.detected["bit_flip"] == mem.injected["bit_flip"] == 1

    def test_pads_left_out_of_the_pickle(self, store):
        for s in range(store.cfg.z_max):
            store.seal_slot(2, s, b"kept")
        blob = pickle.dumps(store)
        # The sealed image is in the pickle; not even one pad table is.
        assert len(blob) < len(store._memory) + store._cur_pad.nbytes
        loaded = pickle.loads(blob)
        assert (loaded._next_ver == -1).all() and (loaded._cur_ver == -1).all()
        assert loaded.open_slot(2, 0) == pad_block(b"kept", 64)
        loaded.seal_slot(2, 0, b"fresh")
        store.seal_slot(2, 0, b"fresh")
        assert loaded.snapshot_slot(2, 0) == store.snapshot_slot(2, 0)
        assert loaded.open_slot(2, 0) == pad_block(b"fresh", 64)


class TestEncryptedOramEndToEnd:
    def _oram(self, cfg, seed=0):
        ds = EncryptedTreeStore(cfg, KEY, seed=seed, with_integrity=True)
        ext = RemoteAllocator(cfg) if cfg.deadq_levels else None
        return RingOram(cfg, seed=seed, extensions=ext, datastore=ds), ds

    def test_roundtrip_through_ciphertext(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg)
        oram.write(3, b"attack at dawn")
        assert oram.read(3) == pad_block(b"attack at dawn", 64)

    def test_values_survive_evictions(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=2)
        shadow = {}
        rng = np.random.default_rng(0)
        for i in range(120):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                val = f"v{i}".encode()
                shadow[blk] = pad_block(val, 64)
                oram.write(blk, val)
            else:
                got = oram.read(blk)
                if blk in shadow:
                    assert got == shadow[blk]
        oram.check_invariants()
        assert ds.seals > 0 and ds.opens > 0

    def test_values_survive_remote_allocation(self):
        """The AB data path: payloads follow blocks into rented slots."""
        cfg = tiny_ab_config(levels=5)
        oram, ds = self._oram(cfg, seed=3)
        oram.warm_fill()
        shadow = {}
        rng = np.random.default_rng(1)
        for i in range(250):
            blk = int(rng.integers(cfg.n_real_blocks))
            if rng.random() < 0.5:
                val = f"ab{i}".encode()
                shadow[blk] = pad_block(val, 64)
                oram.write(blk, val)
            else:
                got = oram.read(blk)
                if blk in shadow:
                    assert got == shadow[blk]
        assert oram.ext.remote_reads > 0, "remote path never exercised"
        oram.check_invariants()

    def test_warm_fill_seals_residents(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=4)
        oram.warm_fill()
        # Any resident block can be read back (decrypt+verify passes).
        assert oram.read(0) == bytes(64)

    def test_tamper_is_detected_on_next_touch(self):
        cfg = tiny_config(levels=5)
        oram, ds = self._oram(cfg, seed=5)
        oram.warm_fill()
        # Find some resident real block and flip a ciphertext byte.
        rows = oram.store.slots
        reals = np.argwhere(rows >= 0)
        b, s = map(int, reals[0])
        blk = int(rows[b, s])
        ds.tamper_payload(b, s)
        with pytest.raises(AuthenticationError):
            for _ in range(5):
                oram.read(blk)

    def test_oversize_write_rejected(self):
        cfg = tiny_config(levels=5)
        oram, _ = self._oram(cfg)
        with pytest.raises(ValueError):
            oram.write(0, b"x" * 65)

    def test_non_bytes_write_rejected(self):
        cfg = tiny_config(levels=5)
        oram, _ = self._oram(cfg)
        with pytest.raises(TypeError):
            oram.write(0, 12345)
