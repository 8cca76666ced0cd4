"""Small textbook CSS codes shared by the test suites."""

import numpy as np

from ptanner.gf import FMatrix
from ptanner.tanner import CssCode


def steane_code() -> CssCode:
    """[[7,1,3]] self-dual CSS code on the Hamming checks."""
    h = FMatrix.from_dense(
        2,
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    )
    return CssCode(p=2, n=7, h_x=h, h_z=h, provenance={"kind": "imported", "name": "steane"})


def shor_code() -> CssCode:
    """[[9,1,3]] code: Z checks pair qubits inside blocks, X checks span
    adjacent blocks."""
    pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
    z_rows = np.zeros((6, 9), dtype=np.int64)
    for r, (a, b) in enumerate(pairs):
        z_rows[r, a] = z_rows[r, b] = 1
    x_rows = np.zeros((2, 9), dtype=np.int64)
    x_rows[0, 0:6] = 1
    x_rows[1, 3:9] = 1
    return CssCode(
        p=2,
        n=9,
        h_x=FMatrix.from_dense(2, x_rows),
        h_z=FMatrix.from_dense(2, z_rows),
        provenance={"kind": "imported", "name": "shor"},
    )
