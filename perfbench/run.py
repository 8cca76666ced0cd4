"""ptanner benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload flagship --seed 7 --seconds 22 --trace 0

Each workload runs in its own capped child process (``worker.py``).  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs in turn.  See README.md beside this
file for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 165
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment(child_env: dict, seed: int) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ptanner").glob("*.py")):
        src.update(path.read_bytes())
    return {
        **child_env,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def run_child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
              deadline: float) -> dict:
    """Start one worker, collect its records and wait for it to end."""
    work = WORK / workload
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    work.mkdir(parents=True, exist_ok=True)
    records: list[dict] = []
    with open(work / "worker.log", "ab") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log)

        def read():
            for line in proc.stdout:
                records.append(json.loads(line))

        reader = threading.Thread(target=read)
        reader.start()
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            killed_by_deadline = False
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            killed_by_deadline = True
        reader.join()
        proc.stdout.close()
    return {"started": started, "records": records, "returncode": proc.returncode,
            "killed_by_deadline": killed_by_deadline}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Set up SETUP_SAMPLES times (the last one also runs the passes) and
    reduce the records to metrics.  None when the workload cannot start."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    (WORK / workload / "worker.log").unlink(missing_ok=True)
    setup_samples = []
    for k in range(SETUP_SAMPLES):
        child = run_child(workload, seed, seconds, trace, k < SETUP_SAMPLES - 1, deadline)
        setup = next((r for r in child["records"] if r["kind"] == "setup"), None)
        if setup is None:
            sys.stderr.write(f"{workload}: set-up failed (exit {child['returncode']}); "
                             f"see {WORK / workload / 'worker.log'}\n")
            return None
        setup_samples.append(setup["t"] - child["started"])

    records = child["records"]
    ops = [r for r in records if r["kind"] == "op"]
    failures = [{"op": r["op"], "pass_id": r["pass_id"], "error": r["error"]}
                for r in ops if r["error"]]
    started = [(r["op"], r["pass_id"]) for r in records if r["kind"] == "op_start"]
    attempted = len(started)
    ended = any(r["kind"] == "end" for r in records)
    if not ended:
        # the worker died: the op it was running failed, or the worker itself
        reason = ("timeout" if child["killed_by_deadline"]
                  else "oom" if child["returncode"] == -9
                  else f"worker exited {child['returncode']}")
        finished = {(r["op"], r["pass_id"]) for r in ops}
        lost = [s for s in started if s not in finished]
        if not lost:
            lost = [("worker", None)]
            attempted += 1
        failures += [{"op": op, "pass_id": pid, "error": reason} for op, pid in lost]
    passes = [r for r in records if r["kind"] == "pass"]
    plain = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    if not plain:
        sys.stderr.write(f"{workload}: no pass completed\n")
        return None
    end = next((r for r in records if r["kind"] == "end"), {})
    wall = statistics.median(r["wall_s"] for r in plain)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "peak_rss_mb": end.get("peak_rss_mb"),
        "setup_s": statistics.median(setup_samples),
        "ok_frac": (attempted - len(failures)) / attempted,
    }
    layers = dict(end.get("layers") or {})
    if traced:
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    setup_record = next(r for r in records if r["kind"] == "setup")
    return {
        "workload": workload,
        "environment": environment(setup_record["env"], seed),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "pass_count": len(plain),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "pass_cpu_s": [r["cpu_s"] for r in plain],
        "traced_pass_wall_s": [r["wall_s"] for r in traced],
        "setup_samples_s": setup_samples,
        "end_to_end": metrics,
        "per_layer": layers,
    }


def select(values: dict, metrics: list[dict]) -> dict:
    """The listed metrics with their units; a layer the workload never ran reads 0."""
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in metrics}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptanner" / "__init__.py").is_file():
        sys.stderr.write(f"no ptanner sources under {ROOT / 'src'}\n")
        return 2
    kind = "per_layer" if args.trace else "end_to_end"

    results = []
    for workload in [args.workload] if args.workload else names:
        detail = run_workload(workload, args.seed, args.seconds, args.trace)
        if detail is None:
            return 1
        detail["metrics"] = select(detail[kind], bench[kind])
        tag = f"seed{args.seed}-trace{args.trace}"
        (WORK / workload / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
        for name, metric in detail["metrics"].items():
            print(f"{workload:9s} {name:40s} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:9s} detail: {json.dumps({k: detail[k] for k in ('environment', 'pass_count', 'pass_wall_s', 'failures')})}")
        results.append(detail)

    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{d['workload']}.{name}": m for d in results for name, m in d["metrics"].items()}
    failed = sum(d["failed"] for d in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
