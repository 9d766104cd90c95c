"""ChaCha20 stream cipher (RFC 8439), from scratch.

The secure engine needs a fast(ish), well-specified stream cipher to
encrypt 64B blocks before they leave the processor. ChaCha20 is a good
fit: one cipher block is exactly 64 bytes, the construction is pure
ARX (add/rotate/xor) so a dependency-free implementation stays short,
and RFC 8439 ships official test vectors the test suite checks this
code against.

Two implementations share the constants:

- :func:`chacha20_blocks` computes one keystream block for *n* nonces
  at once, lane-parallel in numpy. Every sealed slot has its own nonce
  at counter 0, so a whole refill of the engine's pad pool is one call.
  This is the only keystream the production data path uses.
- :class:`ChaCha20` is the scalar, one-block-at-a-time reference. It is
  kept as the RFC 8439 test oracle the batched function is checked
  against; no production code calls it.

Only encryption/keystream generation is provided (stream ciphers are
symmetric: decryption is the same XOR).
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

_MASK = 0xFFFFFFFF
_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)  # "expand 32-byte k"


def _rotl(v: int, n: int) -> int:
    v &= _MASK
    return ((v << n) | (v >> (32 - n))) & _MASK


def _quarter_round(state: List[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK
    state[b] = _rotl(state[b] ^ state[c], 7)


class ChaCha20:
    """ChaCha20 keystream generator for one (key, nonce) pair."""

    KEY_BYTES = 32
    NONCE_BYTES = 12
    BLOCK_BYTES = 64

    def __init__(self, key: bytes, nonce: bytes) -> None:
        if len(key) != self.KEY_BYTES:
            raise ValueError(f"key must be {self.KEY_BYTES} bytes, got {len(key)}")
        if len(nonce) != self.NONCE_BYTES:
            raise ValueError(
                f"nonce must be {self.NONCE_BYTES} bytes, got {len(nonce)}"
            )
        self._key_words = struct.unpack("<8I", key)
        self._nonce_words = struct.unpack("<3I", nonce)

    def block(self, counter: int) -> bytes:
        """The 64-byte keystream block at ``counter`` (RFC 8439 2.3)."""
        if not 0 <= counter <= _MASK:
            raise ValueError(f"counter out of range: {counter}")
        state = list(_CONSTANTS) + list(self._key_words) + [counter] + list(
            self._nonce_words
        )
        working = list(state)
        for _ in range(10):  # 20 rounds: 10 column+diagonal double rounds
            _quarter_round(working, 0, 4, 8, 12)
            _quarter_round(working, 1, 5, 9, 13)
            _quarter_round(working, 2, 6, 10, 14)
            _quarter_round(working, 3, 7, 11, 15)
            _quarter_round(working, 0, 5, 10, 15)
            _quarter_round(working, 1, 6, 11, 12)
            _quarter_round(working, 2, 7, 8, 13)
            _quarter_round(working, 3, 4, 9, 14)
        out = [(w + s) & _MASK for w, s in zip(working, state)]
        return struct.pack("<16I", *out)

    def keystream(self, length: int, counter: int = 0) -> bytes:
        """``length`` keystream bytes starting at block ``counter``."""
        if length < 0:
            raise ValueError("length must be non-negative")
        chunks = []
        produced = 0
        while produced < length:
            chunks.append(self.block(counter))
            counter += 1
            produced += self.BLOCK_BYTES
        return b"".join(chunks)[:length]

    def xor(self, data: bytes, counter: int = 0) -> bytes:
        """Encrypt/decrypt ``data`` (XOR with the keystream)."""
        ks = self.keystream(len(data), counter)
        return bytes(a ^ b for a, b in zip(data, ks))


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """One-shot ChaCha20 encryption/decryption."""
    return ChaCha20(key, nonce).xor(data, counter)


# ------------------------------------------------------------ lane-parallel

#: Lanes per numpy pass: bounds the working set of one batched call.
LANES_PER_PASS = 1024

# The 16-word state is held as four (4, n) row arrays a, b, c, d (state
# words 0-3, 4-7, 8-11, 12-15), so one column round is a single quarter
# round over whole rows. The diagonal round rotates rows b, c, d left by
# 1, 2, 3 words first -- word i of each row then holds diagonal i -- and
# rotates them back afterwards, exactly as SIMD ChaCha kernels do.
_ROT1 = np.array([1, 2, 3, 0])
_ROT2 = np.array([2, 3, 0, 1])
_ROT3 = np.array([3, 0, 1, 2])


def _rotl_rows(v: np.ndarray, n: int, tmp: np.ndarray) -> None:
    """In-place 32-bit rotate left of every word of ``v``."""
    np.left_shift(v, n, out=tmp)
    v >>= 32 - n
    v |= tmp


def _quarter_round_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                        d: np.ndarray, tmp: np.ndarray) -> None:
    # uint32 array additions wrap modulo 2**32, as the cipher requires.
    a += b
    d ^= a
    _rotl_rows(d, 16, tmp)
    c += d
    b ^= c
    _rotl_rows(b, 12, tmp)
    a += b
    d ^= a
    _rotl_rows(d, 8, tmp)
    c += d
    b ^= c
    _rotl_rows(b, 7, tmp)


def _blocks_pass(key_words: np.ndarray, nonce_words: np.ndarray,
                 counter: int) -> np.ndarray:
    """Keystream words, shape (16, n), for one pass of <= LANES_PER_PASS."""
    n = nonce_words.shape[0]
    init = np.empty((16, n), dtype=np.uint32)
    init[0:4] = np.array(_CONSTANTS, dtype=np.uint32)[:, None]
    init[4:12] = key_words[:, None]
    init[12] = counter
    init[13:16] = nonce_words.T
    a, b, c, d = (init[i:i + 4].copy() for i in range(0, 16, 4))
    tmp = np.empty_like(a)
    for _ in range(10):  # 20 rounds: 10 column+diagonal double rounds
        _quarter_round_rows(a, b, c, d, tmp)
        b, c, d = b[_ROT1], c[_ROT2], d[_ROT3]
        _quarter_round_rows(a, b, c, d, tmp)
        b, c, d = b[_ROT3], c[_ROT2], d[_ROT1]
    out = np.concatenate((a, b, c, d))
    out += init
    return out


def chacha20_blocks(key: bytes, nonce_words: np.ndarray,
                    counter: int = 0) -> np.ndarray:
    """The keystream block at ``counter`` for many nonces at once.

    ``nonce_words`` has shape ``(n, 3)``: each row is one 12-byte nonce
    as three little-endian uint32 words (RFC 8439 state words 13-15).
    Returns ``(n, 64)`` uint8, row ``i`` equal to
    ``ChaCha20(key, nonce_i).block(counter)``. Lanes are processed in
    passes of at most :data:`LANES_PER_PASS`.
    """
    if len(key) != ChaCha20.KEY_BYTES:
        raise ValueError(f"key must be {ChaCha20.KEY_BYTES} bytes, got {len(key)}")
    if not 0 <= counter <= _MASK:
        raise ValueError(f"counter out of range: {counter}")
    nonce_words = np.asarray(nonce_words, dtype=np.uint32)
    if nonce_words.ndim != 2 or nonce_words.shape[1] != 3:
        raise ValueError(
            f"nonce_words must have shape (n, 3), got {nonce_words.shape}"
        )
    key_words = np.frombuffer(key, dtype="<u4").astype(np.uint32)
    n = nonce_words.shape[0]
    out = np.empty((n, ChaCha20.BLOCK_BYTES), dtype=np.uint8)
    for lo in range(0, n, LANES_PER_PASS):
        hi = min(n, lo + LANES_PER_PASS)
        words = _blocks_pass(key_words, nonce_words[lo:hi], counter)
        out[lo:hi] = np.ascontiguousarray(words.T, dtype="<u4").view(np.uint8)
    return out
