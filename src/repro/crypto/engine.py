"""The per-block seal/open engine.

``seal`` turns a 64B plaintext block into (ciphertext, tag) for one
physical slot; ``open`` reverses and authenticates it. The nonce is
derived from the slot address and a per-write version counter, so the
same plaintext written twice (or to two places) produces unrelated
ciphertexts -- the property that makes real and dummy blocks
indistinguishable on the memory bus, which Ring ORAM's security
argument relies on.

The keystream ("pad") of a slot is the ChaCha20 block at counter 0
under nonce (addr, version), so it depends on nothing but the key and
those two numbers and can be computed before the plaintext exists.
``pads`` computes many at once (:func:`~repro.crypto.chacha.chacha20_blocks`);
``seal``/``open`` XOR with a precomputed pad, or compute a one-lane
batch themselves when the caller has none.

Key separation: independent subkeys for encryption and authentication
are derived from the master key with SHA256 domain tags.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.auth import BlockAuthenticator
from repro.crypto.chacha import chacha20_blocks

IntArray = Union[Sequence[int], np.ndarray]


class SecureBlockEngine:
    """Seals/opens fixed-size blocks keyed by (slot address, version)."""

    BLOCK_BYTES = 64

    def __init__(self, master_key: bytes) -> None:
        if len(master_key) < 16:
            raise ValueError("master key must be >= 16 bytes")
        self._enc_key = hashlib.sha256(b"repro/enc|" + master_key).digest()
        self._auth = BlockAuthenticator(
            hashlib.sha256(b"repro/mac|" + master_key).digest()
        )

    @property
    def tag_bytes(self) -> int:
        return self._auth.TAG_BYTES

    def pads(self, addrs: IntArray, versions: IntArray) -> np.ndarray:
        """Keystream pads for many slots: ``(n, 64)`` uint8.

        Row ``i`` is the ChaCha20 block under the 12-byte nonce made of
        the low 8 bytes of ``addrs[i]`` and the low 4 of ``versions[i]``
        (little-endian); the version also feeds the MAC, so wrap-around
        cannot alias.
        """
        addrs = np.asarray(addrs, dtype=np.uint64)
        versions = np.asarray(versions, dtype=np.uint64)
        words = np.empty((addrs.shape[0], 3), dtype=np.uint32)
        words[:, 0] = addrs & 0xFFFFFFFF
        words[:, 1] = addrs >> 32
        words[:, 2] = versions & 0xFFFFFFFF
        return chacha20_blocks(self._enc_key, words)

    def _pad(self, addr: int, version: int,
             pad: Optional[np.ndarray]) -> np.ndarray:
        if pad is not None:
            return pad
        return self.pads([addr & (2**64 - 1)], [version & (2**32 - 1)])[0]

    def seal(self, addr: int, version: int, plaintext: bytes,
             pad: Optional[np.ndarray] = None) -> Tuple[bytes, bytes]:
        """Encrypt + authenticate one block; returns (ciphertext, tag).

        ``pad`` is the slot's precomputed ``pads([addr], [version])``
        row; without one the engine computes it.
        """
        if len(plaintext) != self.BLOCK_BYTES:
            raise ValueError(
                f"plaintext must be {self.BLOCK_BYTES} bytes, got {len(plaintext)}"
            )
        pad = self._pad(addr, version, pad)
        ciphertext = np.bitwise_xor(
            np.frombuffer(plaintext, dtype=np.uint8), pad
        ).tobytes()
        return ciphertext, self._auth.tag(addr, version, ciphertext)

    def open(self, addr: int, version: int, ciphertext: bytes,
             tag: bytes, pad: Optional[np.ndarray] = None) -> bytes:
        """Authenticate + decrypt one block (raises on tampering).

        The MAC is checked before any pad is used or computed.
        """
        if len(ciphertext) != self.BLOCK_BYTES:
            raise ValueError(
                f"ciphertext must be {self.BLOCK_BYTES} bytes, got {len(ciphertext)}"
            )
        self._auth.verify(addr, version, ciphertext, tag)
        pad = self._pad(addr, version, pad)
        return np.bitwise_xor(
            np.frombuffer(ciphertext, dtype=np.uint8), pad
        ).tobytes()
