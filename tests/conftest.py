"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import schemes
from repro.oram.config import BucketGeometry, OramConfig, uniform_geometry
from repro.serve.request import DELETE, OK, PUT, STATUSES


def tiny_config(
    levels: int = 6,
    z_real: int = 3,
    s_reserved: int = 2,
    overlap: int = 2,
    **kw,
) -> OramConfig:
    """A small CB-style config for fast protocol tests."""
    opts = dict(
        levels=levels,
        geometry=uniform_geometry(levels, z_real, s_reserved, overlap=overlap),
        evict_rate=3,
        stash_capacity=500,
        name="tiny",
    )
    opts.update(kw)
    return OramConfig(**opts)


def tiny_ab_config(levels: int = 6, **kw) -> OramConfig:
    """A small config exercising DeadQ + remote extension at the bottom."""
    bottom = tuple(range(levels - 2, levels))
    geometry = list(uniform_geometry(levels, 3, 2, overlap=2))
    for lv in bottom:
        geometry[lv] = BucketGeometry(3, 1, overlap=2, remote_extension=1)
    opts = dict(
        levels=levels,
        geometry=tuple(geometry),
        evict_rate=3,
        stash_capacity=500,
        deadq_levels=bottom,
        deadq_capacity=64,
        name="tiny-ab",
    )
    opts.update(kw)
    return OramConfig(**opts)


def check_per_key_fifo(requests, completions, initial):
    """Every served answer equals the serial-replay answer.

    The plain-dict reference model of the serving layer: replays the
    *served* operations (``TIMED_OUT``/``SHED``/``FAILED`` have no
    store effect) in arrival order against a dict seeded with
    ``initial``; every ok get must return exactly the reference value,
    whatever batching, degraded mode or shard routing sat in between.
    """
    reqs = {r.rid: r for r in requests}
    assert len(completions) == len(requests)
    assert {c.rid for c in completions} == set(reqs)
    store = dict(initial)
    for c in sorted(completions, key=lambda c: (c.arrival_ns, c.rid)):
        assert c.status in STATUSES
        if c.status != OK:
            assert c.accesses == 0
            continue
        req = reqs[c.rid]
        if req.op == PUT:
            store[req.key] = req.value
        elif req.op == DELETE:
            store.pop(req.key, None)
        else:
            expected = store.get(req.key)
            assert c.value == expected, (
                f"rid {c.rid} read {c.value!r}, serial replay says "
                f"{expected!r} (degraded={c.degraded})"
            )
            assert c.ok == (expected is not None)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cfg_small():
    return tiny_config()


@pytest.fixture
def cfg_ab_small():
    return tiny_ab_config()


@pytest.fixture
def paper_schemes():
    """The five main schemes at the paper's 24-level geometry."""
    return schemes.main_schemes(24)
