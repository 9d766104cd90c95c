"""Encrypted, authenticated payload storage for the ORAM tree.

The timing simulator only counts accesses; this module is the
*functional* memory image for deployments and end-to-end tests: a byte
array laid out exactly like the physical tree
(:class:`~repro.mem.layout.TreeLayout`), where every slot holds a
sealed 64B block -- ChaCha20-encrypted, MAC'd against its physical
address and write version, and covered by a bucket-granular Merkle
tree whose root stays on-chip (:mod:`repro.crypto`).

The Ring ORAM controller drives it through two calls:

- ``seal_slot(bucket, slot, plaintext)`` whenever a reshuffle (or a
  remote allocation) writes a slot;
- ``open_slot(bucket, slot)`` whenever a readPath/eviction consumes a
  slot whose plaintext matters (the real target, a green block, or a
  resident collected for eviction). Dummy reads are discarded
  unverified, exactly as a real controller discards them undecrypted.

Tamper anywhere -- payload bytes, a tag, a version, a Merkle digest --
and the next ``open_slot`` of an affected block raises.

Keystream pads are precomputed, as counter-mode secure processors
precompute their one-time pads. A slot's pad is the ChaCha20 block
under nonce (address, version), known before its plaintext is, so the
store keeps two trusted on-chip tables, each tagged per slot with the
version its row belongs to: the *next* pad ``K(addr, version + 1)``
that the slot's next seal will use, and the *current* pad
``K(addr, version)`` its sealed contents decrypt with. A seal consumes
the next pad, which leaves it stale; the first seal to meet a stale
pad refills every stale slot in one lane-parallel batch. An open whose
version no longer matches the current pad's tag (a rolled-back version
word) computes its pad afresh, so the pad used is always a pure
function of (key, address, version). The tables are derived data:
they are not pickled, and a loaded store starts with every pad stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError
from repro.mem.layout import TreeLayout
from repro.oram import tree as tree_mod
from repro.oram.config import OramConfig

import hashlib


@dataclass(frozen=True)
class SlotSnapshot:
    """One slot's off-chip state at a point in time.

    Everything an off-chip adversary can capture and later replay: the
    ciphertext, its MAC tag and the version it was sealed under. The
    on-chip trusted version counter is *not* part of the snapshot.
    """

    ciphertext: bytes
    tag: bytes
    version: int


def pad_block(value: bytes, block_bytes: int = 64) -> bytes:
    """Right-pad a payload to the block size (rejects oversize)."""
    if not isinstance(value, (bytes, bytearray)):
        raise TypeError(f"encrypted payloads must be bytes, got {type(value)}")
    if len(value) > block_bytes:
        raise ValueError(
            f"payload of {len(value)} bytes exceeds the {block_bytes}B block"
        )
    return bytes(value) + b"\x00" * (block_bytes - len(value))


class EncryptedTreeStore:
    """Sealed byte image of the ORAM data tree."""

    def __init__(
        self,
        cfg: OramConfig,
        master_key: bytes,
        seed: int = 0,
        with_integrity: bool = True,
    ) -> None:
        self.cfg = cfg
        self.layout = TreeLayout(cfg)
        self.engine = SecureBlockEngine(master_key)
        self._memory = bytearray(self.layout.data_bytes)
        self._version = np.zeros((cfg.n_buckets, cfg.z_max), dtype=np.uint32)
        self._tags: Dict[Tuple[int, int], bytes] = {}
        self.integrity: Optional[BucketMerkleTree] = (
            BucketMerkleTree(cfg.levels) if with_integrity else None
        )
        self._rng = np.random.default_rng(seed)
        self._sealed_buckets: Set[int] = set()
        self.seals = 0
        self.opens = 0
        # Pad rows are indexed by slot number in address order (memory
        # offset // block size); slot i's version word is
        # _version.flat[_version_at[i]].
        buckets, slots = self.layout.slot_index()
        self._version_at = buckets * cfg.z_max + slots
        self._init_pads()
        self._refill_pads()

    # ---------------------------------------------------------- pad pool

    def _init_pads(self) -> None:
        """Pad tables with every slot stale (tag -1 matches no version)."""
        n = self._version_at.size
        self._next_pad = np.zeros((n, self.engine.BLOCK_BYTES), np.uint8)
        self._cur_pad = np.zeros_like(self._next_pad)
        self._next_ver = np.full(n, -1, dtype=np.int64)
        self._cur_ver = np.full(n, -1, dtype=np.int64)

    def _refill_pads(self) -> None:
        """Compute the next pad of every stale slot in one batch."""
        want = self._version.ravel()[self._version_at].astype(np.int64) + 1
        stale = np.flatnonzero(self._next_ver != want)
        addrs = self.layout.base_addr + stale * self.cfg.block_bytes
        self._next_pad[stale] = self.engine.pads(addrs, want[stale])
        self._next_ver[stale] = want[stale]

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in ("_next_pad", "_cur_pad", "_next_ver", "_cur_ver"):
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._init_pads()

    # ------------------------------------------------------------- sealing

    def _offset(self, bucket: int, slot: int) -> int:
        return self.layout.data_addr(bucket, slot) - self.layout.base_addr

    def seal_slot(self, bucket: int, slot: int, plaintext: bytes) -> None:
        """Encrypt + authenticate one slot and update the Merkle path."""
        plaintext = pad_block(plaintext, self.cfg.block_bytes)
        off = self._offset(bucket, slot)
        i = off // self.cfg.block_bytes
        version = int(self._version[bucket, slot]) + 1
        if self._next_ver[i] != version:
            self._refill_pads()
        pad = self._cur_pad[i]
        pad[:] = self._next_pad[i]
        self._cur_ver[i] = version
        self._version[bucket, slot] = version
        ciphertext, tag = self.engine.seal(
            self.layout.base_addr + off, version, plaintext, pad
        )
        self._memory[off:off + self.cfg.block_bytes] = ciphertext
        self._tags[(bucket, slot)] = tag
        self._sealed_buckets.add(bucket)
        if self.integrity is not None:
            self.integrity.update_bucket(bucket, self._content_digest(bucket))
        self.seals += 1

    def _dummy_plaintext(self) -> bytes:
        """Fresh random filler for a dummy seal (dummies must look like
        data). Split out so wrappers can route dummy seals through their
        own ``seal_slot`` without perturbing the RNG stream."""
        return self._rng.integers(0, 256, self.cfg.block_bytes,
                                  dtype=np.uint8).tobytes()

    def seal_dummy(self, bucket: int, slot: int) -> None:
        """Seal fresh random bytes into a dummy slot."""
        self.seal_slot(bucket, slot, self._dummy_plaintext())

    def seal_many(
        self, items: Sequence[Tuple[int, int, Optional[bytes]]]
    ) -> None:
        """Seal a batch of slots in order; ``None`` payload means dummy.

        One reshuffle's write-back arrives as a single call instead of
        one ``seal_slot``/``seal_dummy`` per slot. Deliberately a plain
        in-order loop: the dummy-filler RNG draws, the per-slot version
        bumps, the Merkle updates and the ``seals`` counter must all
        land exactly as the scalar calls would, because fault campaigns
        and integrity counters pin that sequence. The keystream is
        batched underneath instead: each seal takes its slot's
        precomputed next pad, and the first seal to find a stale pad
        refills every stale slot at once (see the module docstring),
        so a write-back normally costs one lane-parallel cipher call.
        """
        for bucket, slot, plaintext in items:
            if plaintext is None:
                self.seal_dummy(bucket, slot)
            else:
                self.seal_slot(bucket, slot, plaintext)

    # ------------------------------------------------------------- opening

    def open_slot(self, bucket: int, slot: int) -> bytes:
        """Verify (MAC + Merkle) and decrypt one slot."""
        key = (bucket, slot)
        if key not in self._tags:
            raise KeyError(f"slot {key} was never sealed")
        if self.integrity is not None:
            # Recomputing the content digest from the (untrusted) tags
            # and versions just fetched catches dropped writes whose
            # stale tag still hangs off a consistent hash chain.
            self.integrity.verify_bucket(
                bucket, content_digest=self._content_digest(bucket)
            )
        off = self._offset(bucket, slot)
        ciphertext = bytes(self._memory[off:off + self.cfg.block_bytes])
        version = int(self._version[bucket, slot])
        self.opens += 1
        i = off // self.cfg.block_bytes
        pad = self._cur_pad[i] if self._cur_ver[i] == version else None
        return self.engine.open(self.layout.base_addr + off, version,
                                ciphertext, self._tags[key], pad)

    # ----------------------------------------------------------- integrity

    def _content_digest(self, bucket: int) -> bytes:
        """Digest of a bucket's tags + versions (Merkle leaf content)."""
        z = self.cfg.geometry[
            (bucket + 1).bit_length() - 1
        ].z_total
        h = hashlib.sha256()
        h.update(self._version[bucket, :z].tobytes())
        for s in range(z):
            h.update(self._tags.get((bucket, s), b"\x00" * 8))
        return h.digest()

    def verify_path(self, leaf: int) -> None:
        """Verify one path's buckets end to end (readPath prefetch check).

        For every sealed bucket on the path, the content digest is
        recomputed from the tags/versions currently in memory and
        checked against the Merkle tree's stored copy, then the whole
        hash chain is checked against the on-chip root. Never-sealed
        buckets only participate in the chain check (their stored
        content is the initialization sentinel).
        """
        if self.integrity is None:
            return
        for b in tree_mod.path_buckets(leaf, self.cfg.levels):
            if b in self._sealed_buckets:
                stored = self.integrity.stored_content(b)
                if stored != self._content_digest(b):
                    raise IntegrityError(
                        f"content digest mismatch at bucket {b}", bucket=b
                    )
        self.integrity.verify_path(leaf)

    # ---------------------------------------------------- snapshot/restore

    def snapshot_slot(self, bucket: int, slot: int) -> SlotSnapshot:
        """Capture a slot's off-chip state (what an adversary could keep)."""
        key = (bucket, slot)
        if key not in self._tags:
            raise KeyError(f"slot {key} was never sealed")
        return SlotSnapshot(
            ciphertext=self.raw_ciphertext(bucket, slot),
            tag=self._tags[key],
            version=int(self._version[bucket, slot]),
        )

    def restore_slot(
        self,
        bucket: int,
        slot: int,
        snap: SlotSnapshot,
        restore_version: bool = False,
        rehash: bool = False,
    ) -> None:
        """Adversarially write an old sealed triple back (attack hook).

        ``restore_version`` also rolls back the untrusted version word
        (a full replay); ``rehash`` additionally rebuilds the Merkle
        chain consistently -- everything an off-chip adversary controls.
        The on-chip root copy is never touched.
        """
        off = self._offset(bucket, slot)
        self._memory[off:off + self.cfg.block_bytes] = snap.ciphertext
        self._tags[(bucket, slot)] = snap.tag
        if restore_version:
            self._version[bucket, slot] = snap.version
        if rehash and self.integrity is not None:
            self.integrity.tamper_content(bucket, self._content_digest(bucket))
            self.integrity.tamper_rehash(bucket)

    # -------------------------------------------------------- attack hooks

    def tamper_payload(self, bucket: int, slot: int, flip_byte: int = 0) -> None:
        """Flip one ciphertext byte in memory (for tamper tests)."""
        off = self._offset(bucket, slot) + flip_byte
        self._memory[off] ^= 0xFF

    def tamper_version(self, bucket: int, slot: int) -> None:
        """Roll a slot's version back (replay attempt)."""
        self._version[bucket, slot] = max(0, int(self._version[bucket, slot]) - 1)

    def raw_ciphertext(self, bucket: int, slot: int) -> bytes:
        off = self._offset(bucket, slot)
        return bytes(self._memory[off:off + self.cfg.block_bytes])
