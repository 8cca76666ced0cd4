"""What a `ptanner` process loads.

SciPy's graph and eigensolver stacks and `jsonschema` take longer to
import than the flagship takes to run; only the Lanczos branch of
`spectral_expansion`, `nlts.build_clusters` and `RunConfig.from_mapping`
load them, on first use.  A fresh interpreter records `sys.modules` after
numpy and `scipy.sparse` (the baseline: some SciPy releases load more of
themselves there), after `import ptanner.cli`, and after a flagship run
with the `code verify` and `csp unsat` read-backs.
"""

import json
import os
import subprocess
import sys

FLAGSHIP_DOC = {
    "field_p": 2, "group": {"p": 3, "m": 1}, "delta": 5, "k_a": 2, "k_b": 3,
    "rho_target": "1/8", "seed": 7,
    "stages": ["expander", "inner", "complex", "code", "verify", "distance", "ssexp", "csp"],
}

GRAPH_AND_EIGENSOLVER = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")

SCRIPT = """
import json, sys
from pathlib import Path

loaded = []
snapshot = lambda: loaded.append(sorted(sys.modules))
import numpy, scipy.sparse
snapshot()
import ptanner.cli
snapshot()
from ptanner import cli, pipeline
out = Path(sys.argv[1])
pipeline.run_pipeline(pipeline.RunConfig.from_mapping(json.loads(sys.argv[2])), out_dir=out)
codes = [
    cli.main(["code", "verify", "--code", str(out / "code.json"), "--out", str(out / "v.json")]),
    cli.main(["csp", "unsat", "--instance", str(out / "csp_instance.json"),
              "--out", str(out / "u.json")]),
]
snapshot()
(out / "modules.json").write_text(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _under(modules, packages):
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


def test_flagship_process_loads_no_graph_or_eigensolver_stack(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(FLAGSHIP_DOC)],
                   env=env, capture_output=True, check=True)
    record = json.loads((tmp_path / "modules.json").read_text())
    assert record["codes"] == [0, 0]
    baseline, imported, ran = (set(m) for m in record["loaded"])
    assert not _under(imported, ("jsonschema",))
    for after in (imported, ran):
        assert _under(after, GRAPH_AND_EIGENSOLVER) <= _under(baseline, GRAPH_AND_EIGENSOLVER)
