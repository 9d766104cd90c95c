"""Outside-in layer tracing: spans around the program's public calls.

The benchmark never edits the program. For a traced run it replaces
selected public methods and functions with thin wrappers that record
one span per call -- layer, start, end and the enclosing span -- and
restores the originals afterwards. Self time is a span's duration minus
the time its child spans cover, accumulated as the spans close.

Boundaries are deliberately coarse. Wrapping every public accessor of
the bucket store and remote allocator costs ~90 wrapped calls per
request on the plaintext path; the methods below are the ones that do
a unit of work (a path read, a bucket refresh, a batch of DRAM
requests), not the one-line getters between them.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: layer -> [(module, class or None, attribute names)]. A target that
#: does not exist is skipped, so a later refactor that deletes one
#: boundary leaves the rest of the ledger intact.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "serve.loop": [
        ("repro.serve.resilience", None, ("resilient_replay",)),
        ("repro.serve.replay", None, ("replay",)),
    ],
    "serve.scheduler": [
        ("repro.serve.scheduler", "BatchScheduler", ("serve_batch",)),
    ],
    "app.kvstore": [
        ("repro.app.kvstore", "ObliviousKV",
         ("get", "put", "delete", "preload", "resident_value")),
    ],
    "oram.ring": [
        ("repro.oram.ring", "RingOram",
         ("access", "warm_fill", "flush_recovery")),
    ],
    "oram.bucket": [
        ("repro.oram.bucket", "BucketStore",
         ("refresh", "path_slot_views", "consume_path")),
    ],
    "oram.stash": [
        ("repro.oram.stash", "Stash",
         ("pick_for_bucket", "remove_many", "add_many")),
    ],
    "oram.posmap": [
        ("repro.oram.position_map", "PositionMap",
         ("lookup", "remap", "peek_many")),
    ],
    "core.remote": [
        ("repro.core.remote", "RemoteAllocator",
         ("acquire", "gather_path", "write_remote_all", "reclaim")),
    ],
    "core.dead_queue": [
        ("repro.core.dead_queue", "DeadQueue",
         ("push_many", "pop_valid")),
    ],
    "sim.dramsink": [
        ("repro.sim.engine", "DramSink",
         ("data_access_many", "data_access_repeat", "data_access_block",
          "metadata_access_many")),
    ],
    "mem.dram": [
        ("repro.mem.dram", "DramModel",
         ("access_batch", "access", "access_repeat")),
    ],
    "core.pipeline": [
        ("repro.core.pipeline", "PipelinedDramSink",
         ("data_access_many", "data_access_repeat", "data_access_block",
          "metadata_access_many", "end_op")),
    ],
    "oram.datastore": [
        ("repro.oram.datastore", "EncryptedTreeStore",
         ("seal_slot", "open_slot", "seal_many", "seal_dummy",
          "verify_path")),
    ],
    "crypto.chacha": [
        ("repro.crypto.chacha", "ChaCha20", ("xor",)),
    ],
    "crypto.mac": [
        ("repro.crypto.auth", "BlockAuthenticator", ("tag", "verify")),
    ],
    "crypto.merkle": [
        ("repro.crypto.integrity", "BucketMerkleTree",
         ("update_bucket", "verify_bucket", "verify_path")),
    ],
    "faults.memory": [
        ("repro.faults.memory", "FaultyMemory",
         ("seal_slot", "open_slot", "seal_many", "seal_dummy")),
    ],
    "core.security": [
        ("repro.core.security", "GuessingAttacker", ("on_read_path",)),
    ],
    "core.sharding": [
        ("repro.core.sharding.fleet", None, ("run_fleet", "shard_requests")),
        ("repro.core.sharding.partition", "PartitionMap",
         ("shard_of_bytes",)),
    ],
    "parallel.pool": [
        ("repro.parallel.executor", None, ("run_cells",)),
    ],
    "sim.engine": [
        ("repro.sim.engine", "Simulation", ("step",)),
    ],
    "serve.loadgen": [
        ("repro.serve.loadgen", None, ("generate_requests", "initial_items")),
    ],
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)


class Tracer:
    """Span recorder with per-layer call counts and self time.

    Spans live in flat ``array`` columns (layer id, start ns, end ns,
    parent index) so a traced window of a few hundred thousand calls
    stays a few megabytes; :meth:`save` writes them out at the end.
    """

    def __init__(self, layers: Sequence[str] = LAYER_NAMES) -> None:
        self.layers = list(layers)
        self._lid = {name: i for i, name in enumerate(self.layers)}
        self.calls = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # Open spans: [span index, child ns] per frame.
        self._stack: List[List[int]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----------------------------------------------------------- wrapping

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """Return ``fn`` wrapped to record one ``layer`` span per call."""
        lid = self._lid[layer]
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        s_layer, s_parent = self.span_layer, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(s_start)
            s_layer.append(lid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            s_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[idx] = t1
                dur = t1 - t0
                calls[lid] += 1
                self_ns[lid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYERS` that exists."""
        for layer in self.layers:
            for mod_name, cls_name, attrs in LAYERS[layer]:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    continue
                owner = mod if cls_name is None else getattr(mod, cls_name, None)
                if owner is None:
                    continue
                for attr in attrs:
                    if cls_name is None:
                        self._patch_function(mod, attr, layer)
                    elif callable(owner.__dict__.get(attr)):
                        orig = owner.__dict__[attr]
                        setattr(owner, attr, self.wrap(orig, layer))
                        self._patches.append((owner, attr, orig))

    def _patch_function(self, mod: Any, attr: str, layer: str) -> None:
        """Wrap a module function everywhere it was imported by name."""
        orig = getattr(mod, attr, None)
        if not callable(orig):
            return
        wrapped = self.wrap(orig, layer)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if not (name.startswith("repro") or name.startswith("perfbench")):
                continue
            if getattr(other, attr, None) is orig:
                setattr(other, attr, wrapped)
                self._patches.append((other, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # ------------------------------------------------------------ results

    @property
    def spans(self) -> int:
        return len(self.span_start)

    def ledger(self, total_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer calls, self seconds and share of ``total_s``."""
        out: Dict[str, Dict[str, float]] = {}
        for i, name in enumerate(self.layers):
            self_s = self.self_ns[i] / 1e9
            out[name] = {
                "calls": self.calls[i],
                "self_s": self_s,
                "share": self_s / total_s if total_s > 0 else 0.0,
            }
        return out

    def save(self, path: str) -> None:
        """Write the spans (columns + layer names) as a ``.npz`` file."""
        import numpy as np
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def self_times_from_spans(
    layer: Sequence[int], parent: Sequence[int],
    start_ns: Sequence[int], end_ns: Sequence[int], n_layers: int,
) -> List[int]:
    """Recompute per-layer self ns from saved span columns.

    The reference for :meth:`Tracer.wrap`'s running accumulation: a
    span's self time is its duration minus its direct children's.
    """
    child = [0] * len(layer)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end_ns[i] - start_ns[i]
    out = [0] * n_layers
    for i, lid in enumerate(layer):
        out[lid] += end_ns[i] - start_ns[i] - child[i]
    return out
