"""The canonical JSON codec."""

import gc
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ptanner import jsonio
from ptanner.csp import LinInstance
from ptanner.errors import DomainError
from ptanner.jsonio import dumps, loads, read_artifact
from ptanner.tanner import DistanceReport


@dataclass
class _Plain:
    name: str
    values: tuple


def test_dumps_is_compact_sorted_and_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            dumps({"x": bad})
    doc = {"b": np.arange(3), "a": np.int64(7), "c": _Plain("p", (1, 2))}
    assert dumps(doc) == '{"a":7,"b":[0,1,2],"c":{"name":"p","values":[1,2]}}'
    report = DistanceReport(upper_bound=math.inf, exact=False, method="m", trials=0)
    assert '"upper_bound":null' in dumps(report)


@pytest.fixture(params=[True, False], ids=["gc enabled", "gc disabled"])
def gc_state(request):
    """The caller's collector setting, restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_loads_leave_the_collector_as_found(gc_state, tmp_path, monkeypatch):
    """`loads` and `read_artifact` run `json.loads` with the collector as the
    caller has it; `LinInstance.from_json` pauses it.  Each leaves it as
    found, also when the text is malformed."""
    seen = []

    def recording_loads(text):
        seen.append(gc.isenabled())
        return json_loads(text)

    json_loads = jsonio.json.loads
    monkeypatch.setattr(jsonio.json, "loads", recording_loads)
    assert loads('{"a":[1,2]}', dict) == {"a": [1, 2]} and gc.isenabled() == gc_state
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text("[1,2,3]")
    bad.write_text('{"p": 2,')
    assert read_artifact(good, len) == 3 and gc.isenabled() == gc_state
    with pytest.raises(DomainError):
        read_artifact(bad, len)
    assert gc.isenabled() == gc_state and seen == [gc_state] * 3
    text = LinInstance.from_dense(2, [[1, 1]], [1]).to_json()
    assert LinInstance.from_json(text).to_json() == text and gc.isenabled() == gc_state
    with pytest.raises(ValueError):
        LinInstance.from_json('{"p": 2,')
    assert gc.isenabled() == gc_state and seen[3:] == [False, False]
