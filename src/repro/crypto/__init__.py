"""The secure-processor crypto boundary.

The paper's threat model (section II) assumes program data lives in
memory as ciphertext, encrypted and integrity-protected by an on-chip
secure engine; only access *patterns* remain observable, which is what
the ORAM then hides. This package implements that boundary:

- :mod:`repro.crypto.chacha` -- the ChaCha20 stream cipher (RFC 8439),
  implemented from scratch and validated against the RFC test vectors:
  a lane-parallel numpy function computing one block for many nonces
  at once (the data path's keystream), and the scalar class kept as
  its test oracle;
- :mod:`repro.crypto.auth` -- keyed block authentication (HMAC-SHA256
  tags with domain separation per slot address and version);
- :mod:`repro.crypto.engine` -- the per-block seal/open engine
  combining both, with version-based nonces and batched pads;
- :mod:`repro.crypto.integrity` -- a Merkle tree over the ORAM tree's
  buckets providing freshness (anti-replay), with the root held
  on-chip.

The timing simulator does not route payload bytes (the paper's schemes
never change crypto cost), but the functional controller can: see
``EncryptedTreeStore`` in :mod:`repro.oram.datastore`.

Pad pool. A slot's keystream ("pad") is the ChaCha20 block under the
nonce (slot address, version), so it can be computed before the
plaintext exists, as counter-mode secure processors precompute their
one-time pads. ``EncryptedTreeStore`` keeps, per slot, the pad for the
slot's next version and the pad for its current one, in two tables on
the trusted side of the boundary:

- The pads are on-chip state. The adversary's view -- ciphertexts,
  tags, versions and Merkle digests in memory -- is byte-identical to
  sealing each block with a freshly computed pad, and the MAC is still
  verified before a pad is used.
- They cost twice the sealed image in memory (64 B per slot per
  table; 1 MiB for the L10 tree), and are left out of pickles, so a
  checkpoint stays the size of the image.
- Refill policy: a seal consumes its slot's next pad, leaving it
  stale; the first seal that finds its pad stale refills every stale
  slot in one batched call (passes of at most 1,024 lanes). Building
  the store fills every pad; a loaded store starts all-stale. An open
  whose version word no longer matches the current pad (rolled back by
  a replay) computes its pad afresh, so the pad is always a pure
  function of (key, address, version).
"""

from repro.crypto.chacha import ChaCha20, chacha20_blocks, chacha20_xor
from repro.crypto.auth import BlockAuthenticator, AuthenticationError
from repro.crypto.engine import SecureBlockEngine
from repro.crypto.integrity import BucketMerkleTree, IntegrityError

__all__ = [
    "ChaCha20",
    "chacha20_blocks",
    "chacha20_xor",
    "BlockAuthenticator",
    "AuthenticationError",
    "SecureBlockEngine",
    "BucketMerkleTree",
    "IntegrityError",
]
