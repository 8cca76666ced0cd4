"""Command-line entrypoint.

Subcommands mirror the package layout: expander, inner, code, nlts, csp,
pipeline, report.  Exit codes: 0 success, 2 precondition failure, 3 budget
or search exhaustion or a run out of memory.  Output is JSON unless a text
format is called for (3-XOR instances, the report table).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .csp import (
    BETA_ONES,
    LinInstance,
    certify_unsat,
    emit_lin_instance,
    max_sat,
    reduce_to_3xor,
    sos_level_bound,
)
from .errors import DomainError, PreconditionError, ResourceError
from .expander import (
    CayleyMultigraph,
    GeneratorMultiset,
    default_generators,
    spectral_expansion,
)
from .inner import InnerCodePair, search_inner_pair
from .jsonio import dumps, read_artifact
from .nlts import (
    build_clusters,
    depth_lower_bound,
    enumerate_syndrome_set,
    logical_pair,
    measure_spread,
    verify_cluster_lemma,
)
from .pipeline import (
    load_config,
    load_manifest,
    render_report,
    run_pipeline,
    verify_document,
)
from .tanner import (
    DEFAULT_DISTANCE_BUDGET,
    CssCode,
    SquareCayleyComplex,
    build_code,
    check_counting_bound,
    code_dimension,
    estimate_distance,
    estimate_ssexp,
)


def _deliver(args, text: str) -> int:
    if not text.endswith("\n"):
        text += "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


def _load_code(path, commuting: bool = False) -> CssCode:
    parse = (lambda doc: CssCode.from_doc(doc).validate()) if commuting else CssCode.from_doc
    return read_artifact(path, parse)


def _load_instance(path) -> LinInstance:
    return read_artifact(path, LinInstance.from_doc)


def _load_gens(args) -> GeneratorMultiset:
    if getattr(args, "gens", None):
        return read_artifact(args.gens, GeneratorMultiset.from_doc)
    if args.p is None or args.m is None or args.degree is None:
        raise DomainError("provide either --gens FILE or all of --p/--m/--degree")
    return default_generators(
        args.p,
        args.m,
        args.degree,
        seed=args.seed,
        require_generation=not args.allow_nongenerating,
    )


def _non_negative_int(text: str) -> int:
    """argparse type of seeds, step and trial counts and budgets."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    """argparse type of every real-valued option: nan and +-inf are refused."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_group_args(sub, with_gens_file: bool = True) -> None:
    if with_gens_file:
        sub.add_argument("--gens", help="generator multiset JSON file")
    sub.add_argument("--p", type=int, help="group prime")
    sub.add_argument("--m", type=int, help="congruence level")
    sub.add_argument("--degree", type=int, help="multiset degree")
    sub.add_argument("--seed", type=_non_negative_int, default=0)
    sub.add_argument(
        "--allow-nongenerating",
        action="store_true",
        help="accept multisets whose closure is a proper subgroup",
    )


# ---- handlers ----------------------------------------------------------


def _cmd_expander_build(args) -> int:
    return _deliver(args, dumps(_load_gens(args)))


def _cmd_expander_spectrum(args) -> int:
    report = spectral_expansion(CayleyMultigraph(_load_gens(args)))
    return _deliver(args, dumps(report))


def _cmd_expander_neighbor(args) -> int:
    graph = CayleyMultigraph(_load_gens(args))
    nb = graph.neighbor(args.vertex, args.gen)
    return _deliver(
        args, dumps({"vertex": args.vertex, "gen": args.gen, "neighbor": nb})
    )


def _cmd_inner_search(args) -> int:
    pair = search_inner_pair(
        args.p,
        args.delta,
        args.ka,
        args.kb,
        rho_target=args.rho,
        budget=args.budget,
        seed=args.seed,
    )
    return _deliver(args, dumps(pair))


def _cmd_code_build(args) -> int:
    pair = read_artifact(args.inner, InnerCodePair.from_doc)
    gens = default_generators(
        args.p,
        args.m,
        args.delta,
        seed=args.seed,
        require_generation=not args.allow_nongenerating,
    )
    code = build_code(SquareCayleyComplex(gens, gens, args.convention), pair)
    return _deliver(args, dumps(code))


def _cmd_code_verify(args) -> int:
    return _deliver(args, dumps(verify_document(_load_code(args.code))))


def _cmd_code_dimension(args) -> int:
    code = _load_code(args.code)
    doc = {
        "dimension": code_dimension(code),
        "check_counting_bound": check_counting_bound(code),
    }
    return _deliver(args, dumps(doc))


def _cmd_code_distance(args) -> int:
    report = estimate_distance(
        _load_code(args.code), budget=args.budget, seed=args.seed, trials=args.trials
    )
    return _deliver(args, dumps(report))


def _cmd_code_ssexp(args) -> int:
    curve = estimate_ssexp(
        _load_code(args.code), args.eps, trials=args.trials, seed=args.seed
    )
    return _deliver(args, dumps(curve))


def _cmd_nlts_clusters(args) -> int:
    code = _load_code(args.code, commuting=True)
    sset = enumerate_syndrome_set(code, args.basis, args.eps)
    part = build_clusters(sset, args.c1)
    report = verify_cluster_lemma(part, args.c2)
    return _deliver(args, dumps({"partition": part, "report": report}))


def _load_state(source: str, n: int, seed: int, rng_trial: int) -> np.ndarray:
    if source != "random":
        return read_artifact(
            source, lambda doc: np.array([complex(re, im) for re, im in doc])
        )
    rng = np.random.default_rng((seed, rng_trial))
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)  # the spread normalizes it


def _cmd_nlts_spread(args) -> int:
    code = _load_code(args.code, commuting=True)
    part_x = build_clusters(enumerate_syndrome_set(code, "X", args.eps), args.c1)
    part_z = build_clusters(enumerate_syndrome_set(code, "Z", args.eps), args.c1)
    logicals = logical_pair(code)
    trials = args.trials if args.state == "random" else 1
    results = []
    for t in range(trials):
        state = _load_state(args.state, code.n, args.seed, t)
        rx, rz = measure_spread(state, code, part_x, part_z, logicals)
        results.append({"trial": t, "x": rx, "z": rz})
    return _deliver(args, dumps(results))


def _cmd_nlts_depth_bound(args) -> int:
    value = depth_lower_bound(args.n, args.mu, args.delta, corollary=args.corollary)
    return _deliver(args, dumps({"depth_lower_bound": value}))


def _cmd_csp_emit(args) -> int:
    code = _load_code(args.code)
    if args.beta in BETA_ONES:
        beta = np.ones(code.n, dtype=np.int64)
    else:
        beta = read_artifact(args.beta, lambda doc: np.array(doc, dtype=np.int64))
    return _deliver(args, dumps(emit_lin_instance(code, beta)))


def _cmd_csp_unsat(args) -> int:
    instance = _load_instance(args.instance)
    return _deliver(args, dumps(certify_unsat(instance)))


def _cmd_csp_maxsat(args) -> int:
    instance = _load_instance(args.instance)
    mode = {"exact": "exact", "ls": "local-search"}[args.mode]
    report = max_sat(
        instance,
        mode=mode,
        budget=args.budget,
        seed=args.seed,
        restarts=args.restarts,
        max_steps=args.steps,
    )
    return _deliver(args, dumps(report))


def _cmd_csp_reduce3(args) -> int:
    instance = _load_instance(args.instance)
    return _deliver(args, reduce_to_3xor(instance).to_text())


def _cmd_csp_sos_bound(args) -> int:
    value = sos_level_bound(args.c1, args.c2, args.m, args.ell)
    return _deliver(args, dumps({"sos_level_bound": value}))


def _cmd_pipeline_run(args) -> int:
    config = load_config(args.config)
    manifest = run_pipeline(config, out_dir=args.out)
    target = Path(args.out if args.out else config.out_dir)
    print(f"completed stages: {', '.join(manifest['order'])}")
    print(f"manifest: {target / 'manifest.json'}")
    return 0


def _cmd_report(args) -> int:
    sys.stdout.write(render_report(load_manifest(args.manifest)))
    return 0


# ---- parser ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptanner",
        description="planted quantum Tanner codes: build, verify, and probe",
    )
    top = parser.add_subparsers(dest="command", required=True)

    p_exp = top.add_parser("expander", help="congruence-group Cayley graphs")
    sub = p_exp.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("build", help="pick a symmetric generator multiset")
    _add_group_args(s, with_gens_file=False)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_expander_build)
    s = sub.add_parser("spectrum", help="measured second eigenvalue")
    _add_group_args(s)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_expander_spectrum)
    s = sub.add_parser("neighbor", help="single neighbor query")
    _add_group_args(s)
    s.add_argument("--vertex", type=int, required=True)
    s.add_argument("--gen", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_expander_neighbor)

    p_inner = top.add_parser("inner", help="planted inner code pairs")
    sub = p_inner.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("search", help="randomized certified pair search")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--delta", type=int, required=True)
    s.add_argument("--ka", type=int, required=True)
    s.add_argument("--kb", type=int, required=True)
    s.add_argument("--rho", default="1/8")
    s.add_argument("--budget", type=_non_negative_int, default=200)
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_inner_search)

    p_code = top.add_parser("code", help="quantum Tanner codes on a square complex")
    sub = p_code.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("build")
    s.add_argument("--p", type=int, required=True, help="group prime")
    s.add_argument("--m", type=int, required=True, help="congruence level")
    s.add_argument("--delta", type=int, required=True)
    s.add_argument("--inner", required=True, help="inner pair JSON file")
    s.add_argument("--convention", choices=("paired", "direct"), default="paired")
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--allow-nongenerating", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_code_build)
    for name, fn in (("verify", _cmd_code_verify), ("dimension", _cmd_code_dimension)):
        s = sub.add_parser(name)
        s.add_argument("--code", required=True)
        s.add_argument("--out")
        s.set_defaults(func=fn)
    s = sub.add_parser("distance")
    s.add_argument("--code", required=True)
    s.add_argument("--budget", type=_non_negative_int, default=DEFAULT_DISTANCE_BUDGET)
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--trials", type=_non_negative_int, default=32)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_code_distance)
    s = sub.add_parser("ssexp")
    s.add_argument("--code", required=True)
    s.add_argument("--eps", type=_finite_float, nargs="+", required=True)
    s.add_argument("--trials", type=_non_negative_int, default=200)
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_code_ssexp)

    p_nlts = top.add_parser("nlts", help="clusters, spread, circuit depth bounds")
    sub = p_nlts.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("clusters")
    s.add_argument("--code", required=True)
    s.add_argument("--eps", type=_finite_float, required=True)
    s.add_argument("--c1", type=_finite_float, required=True)
    s.add_argument("--c2", type=_finite_float, required=True)
    s.add_argument("--basis", choices=("Z", "X"), default="Z")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_nlts_clusters)
    s = sub.add_parser("spread")
    s.add_argument("--code", required=True)
    s.add_argument("--state", default="random", help="state JSON file or 'random'")
    s.add_argument("--trials", type=_non_negative_int, default=1)
    s.add_argument("--eps", type=_finite_float, default=1 / 3)
    s.add_argument("--c1", type=_finite_float, default=0.1)
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_nlts_spread)
    s = sub.add_parser("depth-bound")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mu", type=_finite_float, required=True)
    s.add_argument("--delta", type=_finite_float, required=True)
    s.add_argument("--corollary", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_nlts_depth_bound)

    p_csp = top.add_parser("csp", help="linear-equation instances from codes")
    sub = p_csp.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("emit")
    s.add_argument("--code", required=True)
    s.add_argument("--beta", default="one", help="'one' or a JSON vector file")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_csp_emit)
    s = sub.add_parser("unsat")
    s.add_argument("--instance", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_csp_unsat)
    s = sub.add_parser("maxsat")
    s.add_argument("--instance", required=True)
    s.add_argument("--mode", choices=("exact", "ls"), default="exact")
    s.add_argument("--budget", type=_non_negative_int, default=2**20)
    s.add_argument("--seed", type=_non_negative_int, default=0)
    s.add_argument("--restarts", type=int, default=8)
    s.add_argument("--steps", type=_non_negative_int, default=200)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_csp_maxsat)
    s = sub.add_parser("reduce3")
    s.add_argument("--instance", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_csp_reduce3)
    s = sub.add_parser("sos-bound")
    s.add_argument("--c1", type=_finite_float, required=True)
    s.add_argument("--c2", type=_finite_float, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--ell", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_csp_sos_bound)

    p_pipe = top.add_parser("pipeline", help="full staged build")
    sub = p_pipe.add_subparsers(dest="subcommand", required=True)
    s = sub.add_parser("run")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="override output directory")
    s.set_defaults(func=_cmd_pipeline_run)

    p_rep = top.add_parser("report", help="render a manifest as text")
    p_rep.add_argument("--manifest", required=True)
    p_rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"precondition failed [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (ResourceError, MemoryError) as exc:
        print(f"budget exhausted [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
