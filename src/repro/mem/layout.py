"""Physical layout of the ORAM tree in memory.

The data tree is laid out bucket-after-bucket in level order; each
bucket's slots are contiguous, so reshuffles enjoy row-buffer locality
while remote allocation's redirected accesses land in *other* buckets'
rows -- the row-hit degradation the paper cites as DR's main overhead
("it may incur a slight increase in memory block accesses due to lower
row buffer hit in DRAM DIMMs").

Bucket metadata lives in a separate region after the data tree, one or
more 64B lines per bucket.

Because AB-ORAM geometries are non-uniform, per-bucket byte offsets are
a prefix sum over per-level bucket sizes (vectorized; trees with
millions of buckets take milliseconds).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.oram.config import OramConfig


class TreeLayout:
    """Byte addresses for every (bucket, slot) and every metadata record."""

    def __init__(
        self,
        cfg: OramConfig,
        metadata_blocks: int = 1,
        base_addr: int = 0,
    ) -> None:
        self.cfg = cfg
        self.metadata_blocks = metadata_blocks
        self.base_addr = base_addr
        bucket_bytes = np.empty(cfg.n_buckets, dtype=np.int64)
        for lv in range(cfg.levels):
            lo = (1 << lv) - 1
            hi = (1 << (lv + 1)) - 1
            bucket_bytes[lo:hi] = cfg.geometry[lv].z_total * cfg.block_bytes
        self._offsets = np.zeros(cfg.n_buckets, dtype=np.int64)
        np.cumsum(bucket_bytes[:-1], out=self._offsets[1:])
        self.data_bytes = int(bucket_bytes.sum())
        self.meta_base = base_addr + self.data_bytes
        self.meta_stride = metadata_blocks * cfg.block_bytes
        self.meta_bytes = cfg.n_buckets * self.meta_stride

    @property
    def total_bytes(self) -> int:
        """Data tree plus metadata tree."""
        return self.data_bytes + self.meta_bytes

    def data_addr(self, bucket: int, slot: int) -> int:
        """Byte address of one slot."""
        if not 0 <= bucket < self.cfg.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        return self.base_addr + int(self._offsets[bucket]) + slot * self.cfg.block_bytes

    def slot_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(buckets, slots)`` of every data slot, in address order.

        Entry ``i`` is the slot whose :meth:`data_addr` is
        ``base_addr + i * block_bytes``.
        """
        block = self.cfg.block_bytes
        z = np.diff(np.append(self._offsets, self.data_bytes)) // block
        buckets = np.repeat(np.arange(self.cfg.n_buckets), z)
        slots = np.arange(buckets.size) - (self._offsets // block)[buckets]
        return buckets, slots

    def meta_addr(self, bucket: int, block: int = 0) -> int:
        """Byte address of one 64B line of a bucket's metadata record."""
        if not 0 <= bucket < self.cfg.n_buckets:
            raise ValueError(f"bucket {bucket} out of range")
        return self.meta_base + bucket * self.meta_stride + block * self.cfg.block_bytes
