"""The correctness gate: a per-key-FIFO dict model of the KV store.

The serving layer promises per-key FIFO: every served answer equals
what a serial replay of the requests, in arrival order, would give, and
a request that ends shed, timed out or failed has no effect on the
store. :func:`check_fifo` replays every request against a plain dict in
``(arrival_ns, rid)`` order, applying only the ones that completed OK,
and compares every OK get value and every delete ack with the model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

GET, PUT, DELETE = "get", "put", "delete"
OK = "ok"


def check_fifo(
    initial: Iterable[Tuple[bytes, bytes]],
    requests: Sequence,
    completions: Sequence,
    limit: int = 5,
) -> List[str]:
    """Mismatches between ``completions`` and the dict model.

    ``requests`` and ``completions`` are the program's own
    ``Request``/``Completion`` records; every request must have exactly
    one completion. Returns at most ``limit`` human-readable problems
    (an empty list means the run is correct).
    """
    problems: List[str] = []
    by_rid: Dict[int, object] = {}
    for c in completions:
        if c.rid in by_rid:
            problems.append(f"rid {c.rid} completed twice")
        by_rid[c.rid] = c
    if len(by_rid) != len(requests):
        problems.append(
            f"{len(requests)} requests but {len(by_rid)} completions"
        )
    model: Dict[bytes, bytes] = dict(initial)
    for req in sorted(requests, key=lambda r: (r.arrival_ns, r.rid)):
        comp = by_rid.get(req.rid)
        if comp is None:
            problems.append(f"rid {req.rid} never completed")
        elif comp.status != OK:
            continue
        elif req.op == GET:
            want: Optional[bytes] = model.get(req.key)
            if comp.value != want:
                problems.append(
                    f"rid {req.rid} get {req.key!r}: served "
                    f"{_short(comp.value)}, model {_short(want)}"
                )
        elif req.op == PUT:
            model[req.key] = req.value
        elif req.op == DELETE:
            existed = model.pop(req.key, None) is not None
            if comp.ok != existed:
                problems.append(
                    f"rid {req.rid} delete {req.key!r}: acked {comp.ok}, "
                    f"model {existed}"
                )
        if len(problems) >= limit:
            break
    return problems[:limit]


def _short(value: Optional[bytes]) -> str:
    if value is None:
        return "None"
    return repr(value[:24]) + ("..." if len(value) > 24 else "")
