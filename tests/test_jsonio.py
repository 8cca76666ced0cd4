"""The canonical JSON codec."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from ptanner.jsonio import dumps
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
