"""One parametrized harness over every committed report (repro.reports).

Each committed baseline -- one or more per report kind -- must validate,
keep a stable deterministic encoding, compare clean against itself, and
trip each gate its kind declares: a copy regressed at that gate's path
alone, just past the tolerance, exits 1 naming the gate; just inside,
it stays OK. Errored cells, missing cells and mixed kinds exit 2.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.reports import (
    ANY,
    BEST,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REGRESSION,
    HIGHER,
    PCT,
    PP,
    PP_TOLERANCE,
    compare_files,
    compare_reports,
    deterministic_bytes,
    kind_of,
    validate_report,
)

ROOT = Path(__file__).resolve().parent.parent
BASELINES = sorted((ROOT / "benchmarks" / "baselines").glob("*.json")) + [
    ROOT / "BENCH_perf.json"
]
THRESHOLD = 10.0


def _load(path):
    return json.loads(path.read_text())


def _get(obj, path):
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def _set(obj, path, value):
    *parents, leaf = path.split(".")
    for part in parents:
        obj = obj[part]
    obj[leaf] = value


def _gate_cases():
    for path in BASELINES:
        for gate in kind_of(_load(path)).gates:
            yield pytest.param(path, gate, id=f"{path.name}-{gate.label}")


def _moved(gate, old, past):
    """``old`` moved just past (or just inside) the gate's tolerance."""
    worse = -1 if gate.better == HIGHER else 1
    if gate.tolerance == PCT:
        step = THRESHOLD + (1 if past else -1)
        return old * (1 + worse * step / 100.0)
    if gate.tolerance == PP:
        step = PP_TOLERANCE + (0.1 if past else -0.1)
        return old + worse * step / 100.0
    if gate.tolerance == ANY:
        return old + worse if past else old
    assert gate.tolerance == BEST
    if not past:
        return old
    return False if isinstance(old, bool) else 0.99


@pytest.fixture(params=BASELINES, ids=lambda p: p.name)
def doc(request):
    return _load(request.param)


class TestEveryBaseline:
    def test_validates(self, doc):
        assert validate_report(doc) == []

    def test_deterministic_bytes_survive_json_round_trip(self, doc):
        again = json.loads(json.dumps(doc))
        assert deterministic_bytes(again) == deterministic_bytes(doc)

    def test_self_compare_is_all_ok(self, doc):
        code, messages = compare_reports(doc, doc)
        assert code == EXIT_OK
        assert messages and all(m.startswith("OK ") for m in messages)

    def test_errored_cell_is_an_error(self, doc):
        kind = kind_of(doc)
        new = copy.deepcopy(doc)
        first = new["cells"][0]
        new["cells"][0] = {
            name: first[name] for name in kind.error_cell if name != "error"
        }
        new["cells"][0]["error"] = "worker died\ntraceback"
        assert validate_report(new) == []
        code, messages = compare_reports(doc, new)
        assert code == EXIT_ERROR
        assert any("errored in new report: worker died" in m
                   for m in messages)

    def test_missing_cell_is_an_error(self, doc):
        new = copy.deepcopy(doc)
        del new["cells"][0]
        code, messages = compare_reports(doc, new)
        assert code == EXIT_ERROR
        assert any(m.startswith("ERROR") and "missing" in m
                   for m in messages)

    def test_mixed_kinds_are_an_error(self, doc, tmp_path):
        other = next(
            _load(p) for p in BASELINES if _load(p)["kind"] != doc["kind"]
        )
        base, new = tmp_path / "base.json", tmp_path / "new.json"
        base.write_text(json.dumps(doc))
        new.write_text(json.dumps(other))
        code, messages = compare_files(str(base), str(new))
        assert code == EXIT_ERROR
        assert any("cannot compare" in m for m in messages)

    def test_missing_field_is_named(self, doc):
        bad = copy.deepcopy(doc)
        field = next(iter(kind_of(doc).config))
        del bad["config"][field]
        assert any(f"missing field {field!r}" in e
                   for e in validate_report(bad))


@pytest.mark.parametrize("path, gate", list(_gate_cases()))
class TestEveryGate:
    def _regressed(self, path, gate, past):
        doc = _load(path)
        new = copy.deepcopy(doc)
        for cell in new["cells"]:
            old = _get(cell, gate.path)
            if old is None or (gate.tolerance == BEST and not old >= 1):
                continue
            _set(cell, gate.path, _moved(gate, old, past))
            return doc, new
        pytest.fail(f"no cell in {path.name} carries {gate.path}")

    def test_fires_just_past_tolerance(self, path, gate):
        doc, new = self._regressed(path, gate, past=True)
        code, messages = compare_reports(doc, new, THRESHOLD)
        assert code == EXIT_REGRESSION
        fired = [m.split(" -- ", 1)[1] for m in messages
                 if m.startswith("REGRESSION")]
        assert len(fired) == 1 and gate.label in fired[0]

    def test_holds_just_inside_tolerance(self, path, gate):
        doc, new = self._regressed(path, gate, past=False)
        code, messages = compare_reports(doc, new, THRESHOLD)
        assert code == EXIT_OK
        assert all(m.startswith("OK ") for m in messages)
