"""Run one benchmark workload in this process and stream JSON-line records.

Started by ``run.py``; not meant to be run by hand.  The process caps its
own address space, generates the workload's inputs from ``--seed`` (the
set-up), then runs passes until ``--seconds`` is used up.  Each op is one
timed call (or sweep of calls) into ptanner; its output is checked after
the clock stops.  Records go to the original stdout; anything the package
prints is sent to stderr instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy
from scipy import sparse

import checks
from ptanner import cli, csp, expander, nlts, pipeline, tanner
from ptanner.gf import FMatrix
from ptanner.inner import InnerCodePair
from tracing import Tracer

MEMORY_CAP_BYTES = 3 << 30
OP_TIMEOUT_S = 120
SPREAD_STATES = 4


class OpTimeout(Exception):
    pass


class PassAborted(Exception):
    pass


def _alarm(_signum, _frame):
    raise OpTimeout()


class Recorder:
    """Times ops, checks their outputs and writes one record per event."""

    def __init__(self, channel):
        self.channel = channel
        self.tracer: Tracer | None = None
        self.pass_id = 0
        self.wall = 0.0
        self.cpu = 0.0

    def emit(self, **record) -> None:
        self.channel.write(json.dumps(record) + "\n")
        self.channel.flush()

    def op(self, name, call, check):
        """Run call() under the op time cap, then check(result) untimed."""
        self.emit(kind="op_start", op=name, pass_id=self.pass_id)
        error = None
        result = None
        traced = self.tracer is not None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            if traced:
                self.tracer.active = True
            try:
                result = call()
            finally:
                if traced:
                    self.tracer.active = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = "timeout"
        except MemoryError:
            error = "oom"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        self.wall += wall
        self.cpu += cpu
        if error is None:
            try:
                check(result)
            except checks.CheckFailed as exc:
                error = f"check: {exc}"
            except MemoryError:
                error = "oom"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.emit(kind="op", op=name, pass_id=self.pass_id, wall_s=wall, cpu_s=cpu,
                  error=error)
        if error is not None:
            raise PassAborted(name)
        return result


# ---- workloads ---------------------------------------------------------------


def _config(seed: int, group: tuple[int, int], stages):
    return pipeline.RunConfig.from_mapping({
        "field_p": 2, "group": {"p": group[0], "m": group[1]}, "delta": 5,
        "k_a": 2, "k_b": 3, "rho_target": "1/8", "seed": seed, "stages": list(stages),
    })


class FlagshipWorkload:
    """run_pipeline with all 8 stages, then the `code verify` and `csp unsat`
    CLI read-backs."""

    def __init__(self, seed: int, work: Path):
        self.config = _config(seed, (3, 1), pipeline.PIPELINE_STAGES)
        self.out = work / "run"

    def run_pass(self, rec: Recorder) -> None:
        out = self.out
        facts = {}

        def check_run(manifest):
            facts.update(checks.pipeline_run(out, manifest))

        rec.op("run_pipeline", lambda: pipeline.run_pipeline(self.config, out_dir=str(out)),
               check_run)
        rec.op("cli.code_verify",
               lambda: cli.main(["code", "verify", "--code", str(out / "code.json"),
                                 "--out", str(out / "cli_verify.json")]),
               lambda rc: checks.cli_verify(rc, out / "cli_verify.json", facts))
        rec.op("cli.csp_unsat",
               lambda: cli.main(["csp", "unsat", "--instance", str(out / "csp_instance.json"),
                                 "--out", str(out / "cli_unsat.json")]),
               lambda rc: checks.cli_unsat(rc, out / "cli_unsat.json", facts))


class Level2Workload:
    """The strongly explicit path at level 2: group arithmetic, incidence and
    the constraint stream, with no check matrix formed."""

    def __init__(self, seed: int, work: Path):
        self.config = _config(seed, (3, 2), ("expander", "inner", "complex"))
        self.out = work / "run"

    def run_pass(self, rec: Recorder) -> None:
        out = self.out
        rec.op("run_pipeline", lambda: pipeline.run_pipeline(self.config, out_dir=str(out)),
               lambda manifest: checks.manifest_hashes(out, manifest))
        gens_doc = json.loads((out / "generators.json").read_text())
        gens = expander.GeneratorMultiset.from_json(json.dumps(gens_doc))
        cx = tanner.SquareCayleyComplex.from_json((out / "complex.json").read_text())
        pair = InnerCodePair.from_json((out / "inner_pair.json").read_text())
        p, m, gs = cx.p, cx.m, cx.group_size

        rec.op("neighbor_lists", lambda: expander.CayleyMultigraph(gens).neighbor_lists(),
               lambda lists: checks.neighbor_lists(lists, p, m, gens_doc["generators"]))
        views = rec.op(
            "local_view_sweep",
            lambda: {layer: [cx.local_view(layer, expander.element_from_index(p, m, g))
                             for g in range(gs)] for layer in tanner.LAYERS},
            lambda v: checks.local_views(v, cx.num_faces),
        )
        ones = np.ones(cx.num_faces, dtype=np.int64)

        def stream_all():
            stream = csp.TannerConstraintStream(cx, pair, ones)
            return stream, [stream.constraint(f) for f in range(stream.num_constraints)]

        def check_stream(result):
            dual_a = pair.code_a.dual().basis % pair.p
            dual_b = pair.code_b.dual().basis % pair.p
            checks.stream_columns(result[1], views, dual_a, dual_b, pair.p, gs)

        stream, _ = rec.op("stream_constraints", stream_all, check_stream)

        def to_3xor():
            instance = stream.as_instance()
            return instance, csp.reduce_to_3xor(instance)

        instance, _ = rec.op("reduce_to_3xor", to_3xor, lambda r: checks.three_xor(*r))

        def round_trip():
            text = instance.to_json()
            return text, csp.LinInstance.from_json(text)

        rec.op("instance_json", round_trip,
               lambda r: checks.json_round_trip(instance, *r))


def _hypergraph_product(h):
    """CSS code of the hypergraph product of a classical check matrix with itself."""
    h = np.asarray(h, dtype=np.int64)
    r, c = h.shape
    h_x = np.hstack([np.kron(h, np.eye(c, dtype=np.int64)), np.kron(np.eye(r, dtype=np.int64), h.T)])
    h_z = np.hstack([np.kron(np.eye(c, dtype=np.int64), h), np.kron(h.T, np.eye(r, dtype=np.int64))])
    return tanner.CssCode(p=2, n=h_x.shape[1], h_x=FMatrix.from_dense(2, h_x % 2),
                          h_z=FMatrix.from_dense(2, h_z % 2))


class LabWorkload:
    """Syndrome sets, clusters, the cluster lemma, logical pairs and spread on
    small codes, then local-search max-sat on the flagship ones-CSP."""

    def __init__(self, seed: int, work: Path):
        toric = _hypergraph_product([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # 3x3 torus, n=18
        planar = _hypergraph_product([[1, 1, 0], [0, 1, 1]])  # open boundaries, n=13
        # (name, code, epsilon, c1, c2, lemma expected to hold)
        self.cases = [
            ("toric", toric, Fraction(1, 8), Fraction(1, 10), Fraction(1, 18), True),
            ("planar", planar, Fraction(1, 2), Fraction(1, 20), Fraction(1, 13), True),
            # c1 outside the lemma's regime: one giant cluster, quadratic pair list
            ("planar_wide", planar, Fraction(1, 2), Fraction(1, 10), Fraction(1, 13), None),
        ]
        rng = np.random.default_rng(seed)
        self.states = {}
        for name, code, *_ in self.cases:
            states = []
            for _ in range(SPREAD_STATES):
                vec = rng.normal(size=1 << code.n) + 1j * rng.normal(size=1 << code.n)
                states.append(vec / np.linalg.norm(vec))
            self.states[name] = states
        run = work / "csp"
        stages = ("expander", "inner", "complex", "code", "csp")
        pipeline.run_pipeline(_config(seed, (3, 1), stages), out_dir=str(run))
        self.instance = csp.LinInstance.from_json((run / "csp_instance.json").read_text())
        a = self.instance.coefficient_matrix()
        self.csp_matrix = sparse.csr_matrix(a)
        self.csp_rhs = self.instance.rhs_vector()
        self.seed = seed

    def run_pass(self, rec: Recorder) -> None:
        for name, code, eps, c1, c2, holds in self.cases:
            dense = {"X": code.h_x.toarray(), "Z": code.h_z.toarray()}
            parts = {}
            for basis in ("X", "Z"):
                sset = rec.op(f"{name}.enumerate_syndrome_set.{basis}",
                              lambda: nlts.enumerate_syndrome_set(code, basis, float(eps)),
                              lambda s: checks.syndrome_set(s, dense[basis], float(eps)))
                part = rec.op(f"{name}.build_clusters.{basis}",
                              lambda: nlts.build_clusters(sset, float(c1)),
                              lambda pt: checks.clusters(pt, sset))
                rec.op(f"{name}.verify_cluster_lemma.{basis}",
                       lambda: nlts.verify_cluster_lemma(part, float(c2)),
                       lambda rep: checks.lemma(rep, holds))
                parts[basis] = part
            logicals = rec.op(f"{name}.logical_pair", lambda: nlts.logical_pair(code),
                              lambda lp: checks.logicals(lp, dense["X"], dense["Z"]))
            for k, state in enumerate(self.states[name]):
                rec.op(f"{name}.measure_spread.{k}",
                       lambda: nlts.measure_spread(state, code, parts["X"], parts["Z"], logicals),
                       lambda reps: checks.spread(reps, parts["X"], parts["Z"]))
        rec.op("max_sat",
               lambda: csp.max_sat(self.instance, mode="local-search", seed=self.seed,
                                   restarts=2, max_steps=50),
               lambda rep: checks.max_sat(rep, self.csp_matrix, self.csp_rhs, self.instance.p))


WORKLOADS = {
    "flagship": FlagshipWorkload,
    "level2": Level2Workload,
    "lab": LabWorkload,
}


# ---- main --------------------------------------------------------------------


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    signal.signal(signal.SIGALRM, _alarm)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    rec = Recorder(channel)
    rec.emit(kind="setup", t=time.monotonic(), env=environment())
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    start = time.monotonic()
    while True:
        # a traced run alternates untraced and traced passes
        traced = bool(args.trace) and rec.pass_id % 2 == 1
        rec.wall = rec.cpu = 0.0
        rec.tracer = tracer if traced else None
        if traced:
            tracer.begin_pass(rec.pass_id)
        try:
            workload.run_pass(rec)
            completed = True
        except PassAborted:
            completed = False
        finally:
            if traced:
                tracer.end_pass()
        rec.emit(kind="pass", pass_id=rec.pass_id, traced=traced, completed=completed,
                 wall_s=rec.wall, cpu_s=rec.cpu)
        rec.pass_id += 1
        if time.monotonic() - start >= args.seconds and rec.pass_id >= 1 + args.trace:
            break

    layers = None
    if tracer is not None:
        layers = tracer.pass_metrics()
        tracer.write_spans(work / "spans.json")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec.emit(kind="end", peak_rss_mb=rss_mb, layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
