#!/usr/bin/env python3
"""lpkit benchmark: closed-loop CLI jobs, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 bench/run.py --workload bilateral-ascent --seed 0 --seconds 35 --trace 0

One client in this process runs one ``lpkit.cli.main(argv)`` job at a time
over the workload's job list, pass after pass, until ``--seconds`` is used
up (at least one whole pass).  Every job's output is parsed and checked.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run makes one untraced pass
and two traced passes and reports the per-layer metrics instead.  A result
file with the machine block and the output digest is written to
``bench/results/``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# cap BLAS threads at the core count before numpy is imported anywhere
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # no job may run past this point of a run
SETUP_REPEATS = 5
EXACT_ROUNDS = 4
WORKDIR = os.path.join("bench", ".work")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference")

# a fresh interpreter importing lpkit.cli and loading the inputs, as every
# CLI invocation does
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import lpkit.cli
from lpkit import CyclicElement, LaurentPolynomial, SpectralConfiguration
loaders = {
    "poly": LaurentPolynomial.from_json,
    "cyclic": CyclicElement.from_json,
    "config": SpectralConfiguration.from_json,
    "matrix": lambda o: np.array([[complex(*z) for z in row] for row in o["matrix"]]),
}
for path, kind in json.loads(sys.argv[2]):
    with open(path) as fh:
        loaders[kind](json.load(fh))
"""


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, job, timeout: float, tracer=None) -> dict:
    """Run one CLI job in-process; return its record (no checks yet)."""
    out, err = io.StringIO(), io.StringIO()
    status = "ok"
    span = tracer.open("cli.main") if tracer else None
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except JobTimeout:
        rc, status = None, "timeout"
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc, status = None, f"crash: {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if span is not None:
            tracer.close(span)
            span[4] = {"job": job.name}
    if status == "ok" and rc != 0:
        status = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return {"job": job, "latency": latency, "status": status, "output": out.getvalue()}


def check_record(rec: dict, reference: dict | None) -> None:
    """Fill in rec["brackets"] and rec["error"] (None when every check passed)."""
    job = rec["job"]
    rec["brackets"], rec["error"] = [], None
    if rec["status"] != "ok":
        rec["error"] = rec["status"]
        return
    try:
        rec["brackets"], obj = checks.check(job, rec["output"], ROOT)
        if reference is not None:
            checks.compare_reference(rec["brackets"], reference.get(job.name))
        if job.chain:
            with open(os.path.join(ROOT, job.chain), "w") as fh:
                json.dump(obj["result"], fh)
    except (checks.CheckError, KeyError, TypeError, ValueError, OSError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"


def run_pass(cli, jobs, deadline: float, reference, tracer=None,
             rounds: int = 0) -> tuple[list, float]:
    """Run every job once, in order, and check it.

    With `rounds`, every exact job runs again in each of that many rounds,
    spread between the ascent jobs (which follow the exact jobs), and its
    latency is the median of its samples.  Exact jobs take milliseconds, so
    one sample would only catch the host's speed at one instant.  Returns
    the records and the pass's wall time, the sum of the job latencies,
    which leaves out the checks and other harness work.
    """
    ascent = [job.name for job in jobs if job.kind == "ascent"]
    resample_after = [ascent[(i + 1) * len(ascent) // rounds - 1]
                      for i in range(rounds)] if ascent else []
    records = []

    def sample(job):
        # keep the harness's own heap out of the job's garbage collections,
        # as in a fresh CLI process
        gc.collect()
        gc.freeze()
        return run_job(cli, job, min(JOB_TIMEOUT_S, deadline - time.perf_counter()), tracer)

    for job in jobs:
        if job.chain:  # a failed job must not leave the next ones an old output
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(ROOT, job.chain))
        rec = sample(job)
        rec["samples"] = [rec["latency"]]
        check_record(rec, reference)
        records.append(rec)
        for _ in range(resample_after.count(job.name)):
            for prev in records:
                if prev["job"].kind == "exact":
                    again = sample(prev["job"])
                    prev["samples"].append(again["latency"])
                    if prev["error"] is None and again["output"] != prev["output"]:
                        prev["error"] = "output differs between samples"
    for rec in records:
        rec["latency"] = statistics.median(rec["samples"])
    return records, sum(rec["latency"] for rec in records)


def measure_setup(inputs) -> float:
    """Median wall time of a fresh interpreter importing lpkit.cli and loading inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, os.path.join(ROOT, "src"), json.dumps(inputs)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=60)
        if i:  # the first start warms the file cache
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def digest(records) -> str:
    """SHA-256 over the jobs' output bytes, in job-name order."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r["job"].name):
        h.update(rec["output"].encode())
    return h.hexdigest()


def machine_block(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seeds": {"run": args.seed, "corpus": workloads.CORPUS_SEED[args.workload],
                  "cli": int(workloads.CLI_SEED)},
    }


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE, f"{workload}.json")) as fh:
        return json.load(fh)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _job_p50(records, kind: str) -> float:
    """Median over the jobs of one kind of each job's median latency in the run."""
    per_job: dict[str, list] = {}
    for r in records:
        if r["job"].kind == kind:
            per_job.setdefault(r["job"].name, []).append(r["latency"])
    return _median([statistics.median(v) for v in per_job.values()])


def end_to_end(records, pass_walls, setup_s: float) -> dict:
    """End-to-end metrics of a timed run (latencies over every pass)."""
    widths = [(b["upper"] - b["lower"]) / b["upper"]
              for r in records if r["job"].kind == "ascent"
              for b in r["brackets"] if b["p"] not in (1.0, 2.0) and b["upper"] > 0]
    ok = sum(r["error"] is None for r in records)
    return {
        "setup_s": setup_s,
        "wall_s": _median(pass_walls),
        "ascent_job_p50_s": _job_p50(records, "ascent"),
        "exact_job_p50_s": _job_p50(records, "exact"),
        "width_rel_mean": statistics.fmean(widths) if widths else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(records),
    }


def timed_run(cli, jobs, inputs, reference, seconds: float, start: float) -> dict:
    setup_s = measure_setup(inputs)
    deadline = start + RUN_BUDGET_S
    t_loop = time.perf_counter()
    records, walls = [], []
    while True:
        recs, wall = run_pass(cli, jobs, deadline, reference, rounds=EXACT_ROUNDS)
        records += recs
        walls.append(wall)
        elapsed = time.perf_counter() - t_loop
        if elapsed * (len(walls) + 1) / len(walls) > seconds:  # no room for another pass
            break
    return {"records": records, "passes": len(walls), "pass_walls": walls,
            "metrics": end_to_end(records, walls, setup_s)}


def traced_run(cli, jobs, reference, start: float, spans_path: str) -> dict:
    deadline = start + RUN_BUDGET_S
    base, base_wall = run_pass(cli, jobs, deadline, reference)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            recs, wall = run_pass(cli, jobs, deadline, reference, tracer)
        finally:
            tracer.uninstall()
        out_bytes = sum(len(r["output"].encode()) for r in recs)
        passes.append((recs, wall, tracer.spans, tracing.layer_metrics(tracer.spans, out_bytes)))
    with gzip.open(spans_path, "wt") as fh:
        for k, (_, _, spans, _) in enumerate(passes):
            for span in spans:
                fh.write(json.dumps([k] + span) + "\n")
    (recs_a, wall_a, _, layers_a), (recs_b, wall_b, _, layers_b) = passes
    mismatched = [r["job"].name for recs in (recs_a, recs_b)
                  for r, b in zip(recs, base) if r["output"] != b["output"]]
    # every metric but the times is a count or a ratio of counts
    unrepeated = {k: [layers_a[k], layers_b[k]] for k in layers_a
                  if not k.endswith("_s") and layers_a[k] != layers_b[k]}
    return {
        "records": base + recs_a + recs_b,
        "layers": layers_a,
        "outputs_identical": not mismatched,
        "mismatched_outputs": mismatched,
        "unrepeated_counters": unrepeated,
        "untraced_wall_s": base_wall,
        "traced_wall_s": [wall_a, wall_b],
        "trace_overhead_s": statistics.fmean([wall_a, wall_b]) - base_wall,
    }


def record_reference(cli, workload: str) -> None:
    """Record the brackets every job of the workload reports at this commit."""
    jobs, _ = workloads.build(workload, 0, ROOT, os.path.join(WORKDIR, workload))
    recs, _ = run_pass(cli, jobs, time.perf_counter() + 3600.0, None)
    bad = [(r["job"].name, r["error"]) for r in recs if r["error"]]
    if bad:
        raise SystemExit(f"cannot record a reference, failed jobs: {bad}")
    out = {r["job"].name: [[b["lower"], b["upper"]] for b in r["brackets"]] for r in recs}
    os.makedirs(REFERENCE, exist_ok=True)
    with open(os.path.join(REFERENCE, f"{workload}.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the workload's reference brackets and exit")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)

    import lpkit.cli as cli

    if args.record_reference:
        record_reference(cli, args.workload)
        return 0

    jobs, inputs = workloads.build(args.workload, args.seed, ROOT,
                                   os.path.join(WORKDIR, args.workload))
    reference = load_reference(args.workload)
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}_seed{args.seed}_trace{args.trace}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    if args.trace:
        res = traced_run(cli, jobs, reference, start, stem + "_spans.jsonl.gz")
        values = res["layers"]
        extra = {k: res[k] for k in ("outputs_identical", "mismatched_outputs",
                                     "unrepeated_counters", "untraced_wall_s",
                                     "traced_wall_s", "trace_overhead_s")}
        correct_extra = res["outputs_identical"]
    else:
        res = timed_run(cli, jobs, inputs, reference, args.seconds, start)
        values = res["metrics"]
        extra = {"passes": res["passes"], "pass_walls_s": res["pass_walls"]}
        correct_extra = True

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    records = res["records"]
    failed = [(r["job"].name, r["error"]) for r in records if r["error"]]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(args),
        "output_sha256": digest(records[:len(jobs)]),
        "failures": failed,
        "jobs": [{"name": r["job"].name, "kind": r["job"].kind,
                  "latency_s": r["latency"], "error": r["error"]} for r in records],
        "metrics": metrics,
        **extra,
    }
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)

    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"output_sha256 {result['output_sha256']}")
    for key, value in extra.items():
        print(f"{key} {json.dumps(value)}")
    for name, error in failed:
        print(f"FAILED {name}: {error}")
    print(json.dumps({
        "correct": not failed and correct_extra,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
