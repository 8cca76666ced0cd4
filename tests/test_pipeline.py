"""Pipeline orchestration and CLI tests.

The heavyweight math is covered by the per-module suites; here the
oracles are file hashes recomputed in-test, manifest echo checks, and
exit-code contracts.
"""

import collections
import hashlib
import importlib.util
import json
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy import sparse

from ptanner import expander, gf
from ptanner.cli import main
from ptanner.csp import LinInstance, TannerConstraintStream, emit_lin_instance, max_sat
from ptanner.errors import DomainError, MissingArtifact, SearchExhausted
from ptanner.expander import element_from_index
from ptanner.inner import InnerCodePair
from ptanner.jsonio import dumps, read_artifact
from ptanner.nlts import depth_lower_bound
from ptanner.pipeline import (
    CONFIG_SCHEMA,
    DEFAULT_BUDGETS,
    PIPELINE_STAGES,
    RunConfig,
    load_config,
    load_manifest,
    render_report,
    run_pipeline,
    stage_seed,
)
from ptanner.tanner import (
    DEFAULT_DISTANCE_BUDGET,
    LAYERS,
    X_LAYERS,
    Z_LAYERS,
    CssCode,
    SquareCayleyComplex,
    build_code,
    estimate_distance,
)

from small_codes import (
    assert_check_eliminations_match_oracle,
    face_column,
    face_from_index,
    steane_code,
    table_check_matrix,
)

SMALL_DOC = {
    "field_p": 3,
    "group": {"p": 2, "m": 1},
    "delta": 4,
    "k_a": 2,
    "k_b": 2,
    "rho_target": "1/8",
    "seed": 11,
    "stages": [
        "expander",
        "inner",
        "complex",
        "code",
        "verify",
        "distance",
        "ssexp",
        "csp",
    ],
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = RunConfig.from_mapping(SMALL_DOC)
    manifest = run_pipeline(config, out_dir=out)
    return config, manifest, out


# ---------------------------------------------------------------- config


def test_config_parses_flagship():
    config = RunConfig.from_mapping(
        {"field_p": 2, "group": {"p": 3, "m": 1}, "delta": 5, "k_a": 2, "k_b": 3}
    )
    assert config.n == 27 * 25 == 675
    assert config.rho_target.numerator == 1
    assert config.budget("inner_candidates") == DEFAULT_BUDGETS["inner_candidates"]


def test_config_refuses_huge_prime_quickly():
    """The 2^16 limit is tested before trial division, which would take
    minutes on a 61-bit prime."""
    for field_p, group_p in ((2**61 - 1, 3), (2, 2**61 - 1)):
        doc = {"field_p": field_p, "group": {"p": group_p, "m": 1}, "delta": 5,
               "k_a": 2, "k_b": 3}
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="prime up to 2\\^16"):
            RunConfig.from_mapping(doc)
        assert time.perf_counter() - t0 < 1.0


def test_config_coprimality_precheck():
    doc = {"field_p": 3, "group": {"p": 3, "m": 1}, "delta": 3, "k_a": 1, "k_b": 1}
    with pytest.raises(DomainError, match="coprimality"):
        RunConfig.from_mapping(doc)


def test_config_schema_rejections():
    base = {"field_p": 2, "group": {"p": 3, "m": 1}, "delta": 5, "k_a": 2, "k_b": 3}
    for mutate in (
        lambda d: d.pop("group"),
        lambda d: d.update(field_p=4),
        lambda d: d.update(k_a=9),
        lambda d: d.update(stages=["csp"]),
        lambda d: d.update(stages=["nonsense"]),
        lambda d: d.update(budgets={"no_such_budget": 3}),
        lambda d: d.update(unexpected=1),
        lambda d: d.update(ssexp_grid=[0.0]),
    ):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(DomainError):
            RunConfig.from_mapping(doc)


def test_config_schema_messages_match_jsonschema_validate():
    """The validator built once gives the message `jsonschema.validate`
    raises, which checks the schema against its metaschema on each call."""
    base = {"field_p": 2, "group": {"p": 3, "m": 1}, "delta": 5, "k_a": 2, "k_b": 3}
    for mutate in (
        lambda d: d.update(delta="5"),  # wrong type
        lambda d: d["group"].update(m=1.5),
        lambda d: d.update(stages=["expander", "nonsense"]),  # unknown stage
        lambda d: d.update(stages=["expander", "inner", "expander"]),  # repeated stage
        lambda d: d.pop("k_b"),  # missing key
        lambda d: d["group"].pop("p"),
        lambda d: d.update(seed=-1, unexpected=1, delta=True),  # several errors at once
    ):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        with pytest.raises(DomainError) as got:
            RunConfig.from_mapping(doc)
        assert str(got.value) == f"config schema violation: {expected.value.message}"


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_DOC))
    config = load_config(path)
    assert config.n == 8 * 16 == 128
    echo = config.to_mapping()
    assert echo["group"] == {"p": 2, "m": 1}
    assert echo["rho_target"] == "1/8"
    with pytest.raises(MissingArtifact):
        load_config(tmp_path / "absent.json")


def test_stage_seed_split():
    a = stage_seed(7, "inner")
    assert a == stage_seed(7, "inner")
    assert a != stage_seed(7, "expander")
    assert a != stage_seed(8, "inner")
    assert 0 <= a < 2**64


# ------------------------------------------------------------- execution


def test_manifest_structure_and_hashes(small_run):
    config, manifest, out = small_run
    assert manifest["n"] == 128
    assert manifest["order"] == list(SMALL_DOC["stages"])
    assert manifest["config"] == config.to_mapping()
    for entry in manifest["stages"].values():
        for art in entry["artifacts"].values():
            data = (out / art["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == art["sha256"]


def test_rate_half_build_is_planted(small_run):
    _, manifest, _ = small_run
    verify = manifest["stages"]["verify"]["summary"]
    assert verify["planted"] is True
    # R_A = R_B = 1/2: counting bound degenerates to 0, planting still gives k >= 1
    assert verify["check_counting_bound"] == 0
    assert verify["dimension"] >= 1
    csp = manifest["stages"]["csp"]["summary"]
    assert csp["consistent"] is False
    assert csp["num_constraints"] == 128
    assert "xor_vars" not in csp  # ternary field: no 3-XOR artifact


def test_artifacts_load_back(small_run):
    _, manifest, out = small_run
    pair_art = manifest["stages"]["inner"]["artifacts"]["inner_pair"]
    pair = InnerCodePair.from_json((out / pair_art["path"]).read_text())
    assert pair.p == 3 and pair.n == 4
    ones = np.ones(4, dtype=np.int64)
    assert pair.code_a.contains(ones)
    assert pair.code_b.dual().contains(ones)


def test_rerun_is_byte_identical(small_run, tmp_path):
    config, _, out = small_run
    run_pipeline(config, out_dir=tmp_path)
    ours = sorted(p.name for p in tmp_path.iterdir())
    theirs = sorted(p.name for p in out.iterdir())
    assert ours == theirs
    for name in ours:
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    # every JSON file, the manifest included, is in the one canonical form
    for name in ours:
        if name.endswith(".json"):
            text = (out / name).read_text().removesuffix("\n")
            assert dumps(json.loads(text)) == text, name


FLAGSHIP_DOC = {
    "field_p": 2, "group": {"p": 3, "m": 1}, "delta": 5, "k_a": 2, "k_b": 3,
    "rho_target": "1/8", "seed": 7, "stages": list(PIPELINE_STAGES),
}


def test_flagship_estimators_are_pinned(tmp_path):
    """Group (3,1), delta 5, GF(2), k = (2,3), seed 7, all stages: the
    distance and ssexp artifacts are pinned (the distance witness is the
    information-set walk's); the CSP artifacts are pinned too, so the
    instance type cannot move their bytes."""
    run_pipeline(RunConfig.from_mapping(FLAGSHIP_DOC), out_dir=tmp_path)
    pinned = {
        "code.json": "72f2c8a2480e3212c3b373ed4519882bcb9ec2958aee4787c3f08965141554ed",
        "verify.json": "45fbc513b370b8e25d10b988df6f033d2cc75c219ec0e738056778a1d66f1321",
        "distance.json": "32aab19c4db3f0043d4534fbfa0512762d6f5ea6438c93ba879a9224d450b6d3",
        "ssexp_curve.json": "16a28d7e5c18afe6d5f52976db27541d2161bc0643bbcf37e6a9c2d9277d9914",
        "csp_instance.json": "9bf9fa73e42eb7bb0cf91968ced1dd206b003261a5db25e7d5d19ca844dd7231",
        "csp_unsat.json": "3fcfe87344161655d87f4fac363897202f688a6fc4c1360128ad89a22af148f0",
        "csp_instance.xor": "73782bc1fb951d1490d92a98099b2ae2aa4d24ddbd7a637129d01e281a847da9",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    distance = json.loads((tmp_path / "distance.json").read_text())
    assert distance["upper_bound"] == 6
    assert distance["trials"] == 64
    assert distance["side"] == "z-logical"
    # local-search max-sat on the ones-CSP, as the benchmark's lab runs it
    instance = read_artifact(tmp_path / "csp_instance.json", LinInstance.from_doc)
    report = max_sat(instance, mode="local-search", seed=7, restarts=2, max_steps=50)
    assert report.num_constraints == 675
    assert report.best_satisfied == 490


L1C_DOC = {
    "field_p": 2, "group": {"p": 3, "m": 1}, "delta": 7, "k_a": 3, "k_b": 4,
    "rho_target": "1/8", "seed": 7, "require_generation": True,
    "stages": ["expander", "inner", "complex", "code", "distance"],
}


def test_l1c_distance_is_pinned(tmp_path):
    """The connected level-1 config (n = 1,323): the information-set walk's
    bound, side, trials and witness are pinned."""
    run_pipeline(RunConfig.from_mapping(L1C_DOC), out_dir=tmp_path)
    data = (tmp_path / "distance.json").read_bytes()
    digest = "d4b8bd6db082c335f3e66e8347b389355c4b2615296736ce8da1f7f506c955f4"
    assert hashlib.sha256(data).hexdigest() == digest
    distance = json.loads(data)
    assert (distance["upper_bound"], distance["side"], distance["trials"]) == (4, "x-logical", 64)


@pytest.mark.parametrize("doc", [FLAGSHIP_DOC, L1C_DOC], ids=["flagship", "l1c"])
def test_check_eliminations_match_column_loop(doc, tmp_path):
    run_pipeline(
        RunConfig.from_mapping({**doc, "stages": ["expander", "inner", "complex", "code"]}),
        out_dir=tmp_path,
    )
    assert_check_eliminations_match_oracle(read_artifact(tmp_path / "code.json", CssCode.from_doc))


def test_flagship_eliminates_each_check_matrix_once(tmp_path, monkeypatch):
    """H_X and H_Z (324 x 675) are eliminated once each and kept on the
    code for verify, distance, ssexp and csp.  The distance search walks
    from the packed kernel rows of the check echelon one pivot step at a
    time, so the 363 x 675 duals are never eliminated.
    certify_unsat reads the ones-CSP's certificate off the cached H_Z
    echelon (A^T = H_Z) and, b lying outside, never solves the 675 x 325
    augmented system.  The inner falsifier keeps each candidate's
    decomposition, so it never solves the 25 x 20 tagged-basis system."""
    seen = collections.Counter()
    eliminate = gf._eliminate

    def counting(rows, n_cols):
        seen[rows.shape[0], n_cols] += 1
        return eliminate(rows, n_cols)

    monkeypatch.setattr(gf, "_eliminate", counting)
    run_pipeline(RunConfig.from_mapping(FLAGSHIP_DOC), out_dir=tmp_path)
    assert seen[324, 675] == 2
    assert seen[363, 675] == 0
    assert seen[675, 325] == 0
    assert seen[25, 20] == 0
    unsat = json.loads((tmp_path / "csp_unsat.json").read_text())
    assert len(unsat["certificate"]) == 35


def test_stage_failure_carries_context(tmp_path):
    doc = dict(SMALL_DOC)
    doc["rho_target"] = "9/10"  # unreachable: screening rejects every candidate
    doc["budgets"] = {"inner_candidates": 2}
    doc["stages"] = ["expander", "inner"]
    config = RunConfig.from_mapping(doc)
    with pytest.raises(SearchExhausted, match="stage 'inner'"):
        run_pipeline(config, out_dir=tmp_path)


# ---------------------------------------------------------------- report


def test_report_echoes_manifest_values(small_run):
    _, manifest, _ = small_run
    text = render_report(manifest)
    assert "dimension = " in text and ">= 1 (planted)" in text
    boundary = manifest["stages"]["ssexp"]["summary"]["boundary_constant"]
    assert json.dumps(boundary) in text
    dim = manifest["stages"]["verify"]["summary"]["dimension"]
    assert f"dimension = {dim} >= 1 (planted)" in text
    assert "128 constraints" in text


def test_report_marks_missing_stages(small_run):
    _, manifest, _ = small_run
    pruned = json.loads(json.dumps(manifest))
    del pruned["stages"]["ssexp"]
    del pruned["stages"]["distance"]
    text = render_report(pruned)
    assert "ssexp: skipped" in text
    assert "distance: skipped" in text
    with pytest.raises(MissingArtifact):
        render_report({"n": 1})


def test_load_manifest_missing(tmp_path):
    with pytest.raises(MissingArtifact):
        load_manifest(tmp_path / "manifest.json")


# ------------------------------------------------------------------- cli


@pytest.fixture()
def steane_file(tmp_path):
    path = tmp_path / "steane.json"
    path.write_text(dumps(steane_code()))
    return path


def test_cli_expander_chain(tmp_path, capsys):
    gens_file = tmp_path / "gens.json"
    assert main(
        ["expander", "build", "--p", "3", "--m", "1", "--degree", "6",
         "--out", str(gens_file)]
    ) == 0
    assert gens_file.is_file()
    assert main(["expander", "spectrum", "--gens", str(gens_file)]) == 0
    spectrum = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert spectrum["num_vertices"] == 27
    assert spectrum["second_eigenvalue"] < 6
    assert main(
        ["expander", "neighbor", "--gens", str(gens_file), "--vertex", "5",
         "--gen", "2"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["neighbor"] != 5 and 0 <= doc["neighbor"] < 27
    # graph source missing: neither --gens nor full group parameters
    assert main(["expander", "spectrum", "--p", "3"]) == 2


def test_cli_code_chain(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    code_file = tmp_path / "code.json"
    assert main(
        ["inner", "search", "--p", "2", "--delta", "3", "--ka", "1", "--kb", "2",
         "--out", str(pair_file)]
    ) == 0
    pair = InnerCodePair.from_json(pair_file.read_text())
    assert pair.n == 3
    assert main(
        ["code", "build", "--p", "3", "--m", "1", "--delta", "3",
         "--inner", str(pair_file), "--allow-nongenerating",
         "--out", str(code_file)]
    ) == 0
    capsys.readouterr()
    assert main(["code", "verify", "--code", str(code_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["planted"]["planted"] is True
    assert doc["dimension"] >= 1
    assert main(["code", "ssexp", "--code", str(code_file), "--eps", "0.01",
                 "--trials", "20"]) == 0
    curve = json.loads(capsys.readouterr().out)
    assert len(curve["points"]) == 1


def test_cli_nlts(steane_file, capsys):
    assert main(
        ["nlts", "clusters", "--code", str(steane_file), "--eps", "0.34",
         "--c1", "0.1", "--c2", "0.14"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["all_ok"] is True
    assert main(
        ["nlts", "spread", "--code", str(steane_file), "--trials", "2",
         "--seed", "5"]
    ) == 0
    trials = json.loads(capsys.readouterr().out)
    assert len(trials) == 2
    assert all(t["x"]["mass0"] + t["x"]["mass1"] <= 1 + 1e-9 for t in trials)
    assert main(
        ["nlts", "depth-bound", "--n", "1000000", "--mu", "0.02",
         "--delta", "0.1", "--corollary"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["depth_lower_bound"] == depth_lower_bound(
        10**6, 0.02, 0.1, corollary=True
    )


def test_cli_spread_refuses_non_finite_state(steane_file, tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[float("nan"), 0.0]] + [[1.0, 0.0]] * 127))
    assert main(["nlts", "spread", "--code", str(steane_file), "--state", str(state)]) == 2
    err = capsys.readouterr().err
    assert "precondition failed" in err and "finite" in err


def test_cli_csp_chain(steane_file, tmp_path, capsys):
    lin_file = tmp_path / "lin.json"
    assert main(
        ["csp", "emit", "--code", str(steane_file), "--beta", "one",
         "--out", str(lin_file)]
    ) == 0
    capsys.readouterr()
    assert main(["csp", "unsat", "--instance", str(lin_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["consistent"] is False
    assert main(
        ["csp", "maxsat", "--instance", str(lin_file), "--mode", "ls",
         "--seed", "3"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "local-search"
    assert 0 < doc["best_fraction"] < 1
    assert main(["csp", "reduce3", "--instance", str(lin_file)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("p xor ")
    assert main(
        ["csp", "sos-bound", "--c1", "0.01", "--c2", "0.1", "--m", "10000",
         "--ell", "25"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sos_level_bound"] == pytest.approx(0.1)


def test_cli_pipeline_and_report(tmp_path, capsys):
    doc = dict(SMALL_DOC)
    doc["stages"] = ["expander", "inner", "complex", "code", "verify", "csp"]
    doc["out_dir"] = str(tmp_path / "run")
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(doc))
    assert main(["pipeline", "run", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "completed stages" in out
    manifest_path = tmp_path / "run" / "manifest.json"
    assert manifest_path.is_file()
    assert main(["report", "--manifest", str(manifest_path)]) == 0
    report = capsys.readouterr().out
    assert "ssexp: skipped" in report
    assert ">= 1 (planted)" in report
    assert "no empirical constants available" in report


def test_cli_exit_codes(tmp_path, capsys, steane_file):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"field_p": 3, "group": {"p": 3, "m": 1}, "delta": 3,
             "k_a": 1, "k_b": 1}
        )
    )
    assert main(["pipeline", "run", "--config", str(bad)]) == 2
    assert "coprimality" in capsys.readouterr().err
    assert main(["report", "--manifest", str(tmp_path / "absent.json")]) == 2
    # the inner pair is read before the generators are searched for
    missing = tmp_path / "missing.json"
    assert main(["code", "build", "--p", "3", "--m", "1", "--delta", "5",
                 "--inner", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "MissingArtifact" in err and str(missing) in err
    lin_file = tmp_path / "lin.json"
    main(["csp", "emit", "--code", str(steane_file), "--out", str(lin_file)])
    assert main(
        ["csp", "maxsat", "--instance", str(lin_file), "--budget", "4"]
    ) == 3


def test_cli_memory_error_exits_3(tmp_path, capsys, monkeypatch):
    """A run that cannot get its memory exits 3 with one line naming
    MemoryError: group (3,8) reaches `cayley_table`, which here raises at
    once instead of asking for its 2 TiB."""
    def no_memory(*args):
        raise MemoryError("Unable to allocate 2.05 TiB")

    monkeypatch.setattr(expander, "cayley_table", no_memory)
    config = tmp_path / "m8.json"
    doc = {**FLAGSHIP_DOC, "group": {"p": 3, "m": 8}, "stages": ["expander"]}
    config.write_text(json.dumps(doc))
    assert main(["pipeline", "run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "MemoryError" in err[0] and "2.05 TiB" in err[0]


TWO_COORD_GENS = '{"degree":2,"generators":[[1,0],[2,0,0]],"m":1,"p":3}'
HUGE_ENTRY_CODE = json.dumps({
    "p": 2, "n": 1,
    "h_x": {"p": 2, "rows": 1, "cols": 1, "entries": [[0, 0, 2**70]]},
    "h_z": {"p": 2, "rows": 0, "cols": 1, "entries": []},
})

# X1 and Z1Z2 anticommute; the NLTS lab refuses such a code
NONCOMMUTING_CODE = json.dumps({
    "p": 2, "n": 2,
    "h_x": {"p": 2, "rows": 1, "cols": 2, "entries": [[0, 0, 1]]},
    "h_z": {"p": 2, "rows": 1, "cols": 2, "entries": [[0, 0, 1], [0, 1, 1]]},
})


def _instance_text(**change):
    """A two-variable instance document with `change` applied to its one
    constraint, or to the document for keys p, m and arity_bound."""
    con = {"vars": [0, 1], "coeffs": [1, 1], "rhs": 1}
    doc = {"p": 2, "m": 2, "arity_bound": 2, "constraints": [con]}
    for key, value in change.items():
        (doc if key in doc else con)[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv, content",
    [
        (["code", "verify", "--code", "{bad}"], '{"p":2,"n":3}'),
        (["code", "dimension", "--code", "{bad}"], HUGE_ENTRY_CODE),
        (["csp", "unsat", "--instance", "{bad}"], "not json"),
        (["pipeline", "run", "--config", "{bad}"], "not json"),
        (["report", "--manifest", "{bad}"], "not json"),
        (["expander", "spectrum", "--gens", "{bad}"], TWO_COORD_GENS),
        (["code", "build", "--p", "3", "--m", "1", "--delta", "3",
          "--allow-nongenerating", "--inner", "{bad}"], "[]"),
        (["csp", "emit", "--code", "{steane}", "--beta", "{bad}"], '{"b": 1}'),
        (["nlts", "spread", "--code", "{steane}", "--state", "{bad}"], "[[1]]"),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(m=10**30)),
        (["csp", "maxsat", "--instance", "{bad}"], _instance_text(m=10**30)),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(vars=[0.5, 1])),
        (["csp", "maxsat", "--instance", "{bad}"], _instance_text(vars=[0.5, 1])),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(coeffs=[1, 1.5])),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(rhs=0.5)),
        (["csp", "reduce3", "--instance", "{bad}"], _instance_text(rhs="1")),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(p=2**61 - 1)),
        (["csp", "unsat", "--instance", "{bad}"], _instance_text(vars=[True, 0])),
        (["nlts", "clusters", "--code", "{bad}", "--eps", "0.5", "--c1", "0.1", "--c2", "0.1"],
         NONCOMMUTING_CODE),
        (["nlts", "spread", "--code", "{bad}"], NONCOMMUTING_CODE),
    ],
)
def test_cli_malformed_artifact_exits_2(tmp_path, capsys, steane_file, argv, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    paths = {"bad": str(bad), "steane": str(steane_file)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert str(bad) in err
    if content == NONCOMMUTING_CODE:
        assert "X and Z checks do not commute" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expander", "neighbor", "--p", "3", "--m", "1", "--degree", "6",
         "--vertex", "0", "--gen", "9"],
        ["expander", "neighbor", "--p", "3", "--m", "1", "--degree", "6",
         "--vertex", "0", "--gen", "-1"],
        ["inner", "search", "--p", "2", "--delta", "3", "--ka", "1", "--kb", "2",
         "--rho", "abc"],
        ["csp", "maxsat", "--instance", "{lin}", "--mode", "ls", "--restarts", "0"],
        ["nlts", "depth-bound", "--n", "10", "--mu", "0.5", "--delta", "1e308"],
        ["csp", "sos-bound", "--c1", "1e200", "--c2", "1e200", "--m", "3", "--ell", "2"],
    ],
)
def test_cli_bad_argument_exits_2(tmp_path, capsys, argv):
    lin = tmp_path / "lin.json"
    lin.write_text(dumps(emit_lin_instance(steane_code(), np.ones(7, dtype=np.int64))))
    assert main([arg.format(lin=lin) for arg in argv]) == 2
    assert "precondition failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["csp", "maxsat", "--instance", "{lin}", "--mode", "ls", "--seed", "-1"],
        ["csp", "maxsat", "--instance", "{lin}", "--mode", "ls", "--steps", "-3"],
        ["csp", "maxsat", "--instance", "{lin}", "--mode", "ls", "--steps", "2.5"],
        ["expander", "build", "--p", "3", "--m", "1", "--degree", "4", "--seed", "-1"],
        ["nlts", "spread", "--code", "{lin}", "--seed", "x"],
        ["nlts", "spread", "--code", "{lin}", "--trials", "-1"],
        ["code", "ssexp", "--code", "{lin}", "--eps", "0.1", "--trials", "-1"],
        ["code", "distance", "--code", "{lin}", "--trials", "-1"],
        ["code", "distance", "--code", "{lin}", "--budget", "-1"],
        ["csp", "maxsat", "--instance", "{lin}", "--budget", "-1"],
        ["inner", "search", "--p", "2", "--delta", "3", "--ka", "1", "--kb", "2",
         "--budget", "-1"],
    ],
)
def test_cli_negative_seed_or_steps_exits_2(tmp_path, capsys, argv):
    lin = tmp_path / "lin.json"
    lin.write_text(dumps(emit_lin_instance(steane_code(), np.ones(7, dtype=np.int64))))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(lin=lin) for arg in argv])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["nlts", "clusters", "--code", "{lin}", "--eps", "nan", "--c1", "1", "--c2", "1"],
        ["nlts", "clusters", "--code", "{lin}", "--eps", "0.1", "--c1", "inf", "--c2", "1"],
        ["nlts", "clusters", "--code", "{lin}", "--eps", "0.1", "--c1", "1", "--c2", "nan"],
        ["nlts", "spread", "--code", "{lin}", "--eps", "nan"],
        ["nlts", "depth-bound", "--n", "10", "--mu", "0.5", "--delta", "nan"],
        ["csp", "sos-bound", "--c1", "nan", "--c2", "1", "--m", "3", "--ell", "2"],
        ["code", "ssexp", "--code", "{lin}", "--eps", "0.1", "inf"],
    ],
)
def test_cli_non_finite_float_exits_2(tmp_path, capsys, argv):
    lin = tmp_path / "lin.json"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(lin=lin) for arg in argv])
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.fixture(scope="module")
def level2_run(tmp_path_factory):
    """Group (3,2), delta 5, GF(2), k = (2,3), n = 18,225, through `verify`
    and `csp`."""
    out = tmp_path_factory.mktemp("level2")
    config = RunConfig.from_mapping({
        "field_p": 2, "group": {"p": 3, "m": 2}, "delta": 5, "k_a": 2, "k_b": 3,
        "rho_target": "1/8", "seed": 7,
        "stages": ["expander", "inner", "complex", "code", "verify", "csp"],
    })
    return run_pipeline(config, out_dir=out), out


def test_level2_verify_stage_plants_logicals(level2_run):
    manifest, out = level2_run
    verify = json.loads((out / "verify.json").read_text())
    planted = verify["planted"]
    for flag in ("ones_in_ker_x", "ones_in_ker_z",
                 "ones_outside_x_rowspace", "ones_outside_z_rowspace"):
        assert planted[flag] is True, flag
    assert verify["dimension"] >= 1
    assert verify["dimension"] == 909  # rank H_X = rank H_Z = 8658
    assert manifest["stages"]["verify"]["summary"]["planted"] is True


def test_level2_code_stage_is_css_orthogonal(level2_run):
    """Group (3,2), n = 18,225, through `code`; H_X H_Z^T = 0 is checked with
    a scipy.sparse product built straight from code.json."""
    manifest, tmp_path = level2_run
    summary = manifest["stages"]["code"]["summary"]
    assert summary["n"] == 18225
    doc = json.loads((tmp_path / "code.json").read_text())

    def csr(m):
        e = np.array(m["entries"], dtype=np.int64).reshape(-1, 3)
        return sparse.csr_array((e[:, 2], (e[:, 0], e[:, 1])), shape=(m["rows"], m["cols"]))

    h_x, h_z = csr(doc["h_x"]), csr(doc["h_z"])
    assert h_x.shape == (summary["m_x"], 18225)
    assert h_z.shape == (summary["m_z"], 18225)
    assert h_x.nnz > 0 and h_z.nnz > 0
    assert not ((h_x @ h_z.T).data % 2).any()

    # every streamed constraint is its face's column of H_Z
    cx = SquareCayleyComplex.from_json((tmp_path / "complex.json").read_text())
    pair = InnerCodePair.from_json((tmp_path / "inner_pair.json").read_text())
    stream = TannerConstraintStream(cx, pair, np.ones(cx.num_faces, dtype=np.int64))
    cols = sparse.csc_array(h_z)
    cols.sort_indices()
    streamed = [stream.constraint(f) for f in range(cx.num_faces)]
    for f, con in enumerate(streamed):
        lo, hi = cols.indptr[f], cols.indptr[f + 1]
        assert con.vars == tuple(cols.indices[lo:hi].tolist())
        assert con.coeffs == tuple(cols.data[lo:hi].tolist())
        assert con.rhs == 1
    # the whole-group instance equals the scalar stream, constraint by constraint
    assert stream.as_instance().constraints == streamed

    # the forward incidence inverts local_view on all four layers
    for layer in LAYERS:
        for gi in range(cx.group_size):
            v = element_from_index(cx.p, cx.m, gi)
            for (r, c), face in np.ndenumerate(cx.local_view(layer, v)):
                assert cx.incidence(layer, *face_from_index(cx, face)) == (v, r, c)


def test_level3_code_is_planted_and_orthogonal(tmp_path):
    """Group (3,3), n = 492,075, expander through complex, then the code:
    both check matrices annihilate the all-ones word, H_X H_Z^T = 0, both
    equal the Cayley-table oracle, and every 97th column of H_Z is its
    face's `face_column`."""
    config = RunConfig.from_mapping({
        "field_p": 2, "group": {"p": 3, "m": 3}, "delta": 5, "k_a": 2, "k_b": 3,
        "rho_target": "1/8", "seed": 7, "stages": ["expander", "inner", "complex"],
    })
    run_pipeline(config, out_dir=tmp_path)
    cx = SquareCayleyComplex.from_json((tmp_path / "complex.json").read_text())
    pair = InnerCodePair.from_json((tmp_path / "inner_pair.json").read_text())
    code = build_code(cx, pair)
    assert code.n == 492075
    ones = np.ones(code.n, dtype=np.int64)
    assert not code.h_x.apply(ones).any()
    assert not code.h_z.apply(ones).any()
    assert code.css_orthogonal()
    dual_a, dual_b = pair.code_a.dual().basis.tolist(), pair.code_b.dual().basis.tolist()
    assert code.h_x == table_check_matrix(cx, X_LAYERS, pair.code_a.basis, pair.code_b.basis, 2)
    assert code.h_z == table_check_matrix(cx, Z_LAYERS, dual_a, dual_b, 2)
    sample = range(0, code.n, 97)
    picks = [(f, k, 1) for k, f in enumerate(sample)]
    pick = gf.FMatrix.from_entries(2, code.n, len(sample), picks)
    expected = [
        (r, k, val)
        for k, f in enumerate(sample)
        for r, val in zip(*face_column(cx, f, Z_LAYERS, dual_a, dual_b, 2))
    ]
    assert code.h_z @ pick == gf.FMatrix.from_entries(2, code.m_z, len(sample), expected)


def test_level2_csp_artifacts_are_pinned(level2_run):
    """The level-2 instance and its 3-XOR text are pinned, so the instance
    type cannot move their bytes."""
    _, out = level2_run
    pinned = {
        "code.json": "04c3aa3d6a2082fe99a6e0b9d94e54ae90a3ada03d3d5f44b8d342999fc0d3ab",
        "verify.json": "4196ab144bfd011851725d20641f93d0f56a496f79957cfb1cd3559df11525e4",
        "csp_instance.json": "42364907c411faa93d10c91c5063b7715b95dc2f8e2460ec0451da36fda7628b",
        "csp_instance.xor": "042a2e7db131b4b702928832bacae90de50ddaf8e0289f09d3f17d582a9da64e",
    }
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_level2_csp_certificate_refutes_ones(level2_run, monkeypatch):
    """The ones-CSP certificate u has u.H_Z^T = 0 and u.beta != 0.
    `estimate_distance` refuses to enumerate the 2^9567-word kernels before
    building them: with no trials it builds no dual and eliminates nothing
    beyond the code's kept row spaces."""
    manifest, out = level2_run
    unsat = json.loads((out / "csp_unsat.json").read_text())
    assert unsat["consistent"] is False
    assert manifest["stages"]["csp"]["summary"]["certificate_size"] == len(unsat["certificate"])
    code = read_artifact(out / "code.json", CssCode.from_doc)
    u = np.zeros(code.n, dtype=np.int64)
    idx, val = np.array(unsat["certificate"], dtype=np.int64).T
    u[idx] = val
    assert not code.h_z.apply(u).any()
    assert int(u @ np.ones(code.n, dtype=np.int64)) % 2 == 1

    code.rowspace_x, code.rowspace_z
    calls = []
    monkeypatch.setattr(gf, "_eliminate", lambda *args: calls.append(args))
    monkeypatch.setattr(gf.LinearCode, "dual", lambda self: calls.append(self))
    report = estimate_distance(code, DEFAULT_DISTANCE_BUDGET, trials=0)
    assert (report.exact, report.trials, report.witness) == (False, 0, None)
    assert calls == []


def test_level2_check_eliminations_match_column_loop(level2_run):
    _, out = level2_run
    assert_check_eliminations_match_oracle(read_artifact(out / "code.json", CssCode.from_doc))


def test_level2_dual_is_built_from_packed_kernel_rows(level2_run):
    """ker H_Z at n = 18,225: `rowspace_z.dual()` has dimension 9,567, its
    rows satisfy H_Z u^T = 0, and building it peaks under 256 MB as traced
    (its kernel rows as a dense int64 array would take 1.39 GB)."""
    _, out = level2_run
    code = read_artifact(out / "code.json", CssCode.from_doc)
    checks = code.rowspace_z
    tracemalloc.start()
    try:
        dual = checks.dual()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dual.dim == 9567 == code.n - checks.dim
    assert peak < 256 * 2**20, peak
    indptr, indices, data = code.h_z.csr()
    h_z = sparse.csr_array((data, indices, indptr), shape=code.h_z.shape)
    for lo in range(0, dual.dim, 1024):
        u = np.unpackbits(dual._rows[lo : lo + 1024].view(np.uint8), axis=1, count=code.n,
                          bitorder="little")
        assert not ((h_z @ u.T.astype(np.int64)) % 2).any()


def test_level2_distance_walk_bounds_the_distance(level2_run):
    """The information-set walk on the level-2 code (kernels of 9,567 rows
    over 18,225 columns) scores 64 trials as the `distance` stage would and
    finds a logical of weight at most 6: in the kernel of its side's checks
    and outside the other side's stabilizers."""
    _, out = level2_run
    code = read_artifact(out / "code.json", CssCode.from_doc)
    report = estimate_distance(
        code, seed=stage_seed(7, "distance"), trials=DEFAULT_BUDGETS["distance_trials"]
    )
    assert not report.exact and report.trials == 64
    assert report.upper_bound <= 6
    w = report.witness
    assert np.count_nonzero(w) == report.upper_bound
    checks, stabilizers = (code.h_z, code.rowspace_x) if report.side == "z-logical" else (
        code.h_x, code.rowspace_z)
    assert not checks.apply(w).any()
    assert not stabilizers.contains(w)


# ------------------------------------------------------ benchmark seams


def test_benchmark_tracer_targets_resolve():
    """perfbench/tracing.py wraps package functions by (module, path); each
    must still exist, and the tracer must install and uninstall cleanly."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr_path, *_ in tracing.SPANS + tracing.COUNTS:
        target = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            target = getattr(target, attr)
        assert callable(target), (module_name, attr_path)
    before = {name: getattr(gf, name) for name in ("row_reduce", "rank", "solve")}
    tracer = tracing.Tracer()
    tracer.begin_pass(0)
    assert gf.row_reduce is not before["row_reduce"]
    tracer.end_pass()
    assert {name: getattr(gf, name) for name in before} == before
    # the benchmark's worker reads inner-code bases as dense arrays
    basis = gf.LinearCode(2, 4, [[1, 1, 0, 0], [0, 1, 1, 1]]).dual().basis
    assert isinstance(basis, np.ndarray) and basis.dtype == np.int64
