"""The triparts benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark imports triparts from
./src and drives triparts.cli.main(argv) in this process as a closed
loop: one client, one job at a time, each job starting when the previous
one returns.  The only concurrency is the process pool that `verify`
starts itself; TRIPARTS_WORKERS is removed from the environment so the
default worker count runs.

The seeded job list of the workload (see workloads.py) is run in passes
until S seconds have gone by.  Each job's stdout (and the file `tile`
writes) is captured, hashed and checked by the oracles in oracles.py
after its timer stops.  With --trace 0 the end-to-end metrics are
reported; with --trace 1 untraced and traced passes alternate and the
per-layer metrics of tracing.py are reported, with the tracing overhead.

The last line of stdout is the result object; the line before it is a
summary, and .bench_out/ holds the full results, including every argv
list, so any run can be replayed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import oracles
import workloads
from tracing import LAYER_METRICS, Tracer

OUT_DIR = ".bench_out"
SETUP_REPEATS = 11
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "query_p50_ms": "ms", "query_p99_ms": "ms"}
READY = "import triparts, triparts.cli; print('ready', flush=True)"


def measure_setup(src):
    """Seconds from starting a fresh interpreter until triparts and
    triparts.cli are imported and a first job could start."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("fresh interpreter could not import triparts")
    return elapsed


def run_job(cli, job):
    """Run one job in this process: (exit code or error, seconds, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(job["argv"]))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


def run_pass(cli, jobs, tracer=None):
    """One pass over the job list."""
    digest = hashlib.sha256()
    latencies, failures = [], []
    stdout_bytes = 0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        code, elapsed, out, err = run_job(cli, job)
        latencies.append(elapsed)
        data = out.encode("utf-8")
        stdout_bytes += len(data)
        digest.update(hashlib.sha256(data).digest())
        file_text = None
        path = job["facts"].get("path")
        if path and os.path.exists(path):
            with open(path, "rb") as fp:
                raw = fp.read()
            os.remove(path)
            digest.update(hashlib.sha256(raw).digest())
            file_text = raw.decode("utf-8")
        reason = oracles.check(job, code, out, file_text)
        if reason is not None:
            failures.append({"job": i, "argv": job["argv"], "reason": reason,
                             "stderr": err[-500:]})
    return {"latencies": latencies,
            "failures": failures, "sha256": digest.hexdigest(),
            "stdout_bytes": stdout_bytes}


def percentile(values, q):
    """q-th percentile (1..99) by linear interpolation between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    """Peak RSS of this process or any child it waited for, in MiB."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_passes(seconds, step):
    """Call step() as long as one more call is expected to end within
    seconds of the start, and at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def job_medians(passes):
    """Median latency of each job of the list over the passes: spikes
    from other load on the machine hit single passes, not the median."""
    return [statistics.median(ts) for ts in zip(*(p["latencies"] for p in passes))]


def main(argv=None):
    parser = argparse.ArgumentParser(description="triparts benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "triparts", "cli.py")):
        print("error: run from the root of a triparts checkout "
              "(no src/triparts/cli.py)", file=sys.stderr)
        return 2
    os.environ.pop("TRIPARTS_WORKERS", None)
    sys.path.insert(0, src)
    import triparts.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print("error: imported triparts from %s, not %s" % (cli.__file__, src),
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = workloads.generate(args.workload, args.seed, OUT_DIR)

    spans = absent = None
    if args.trace == 0:
        setup = statistics.median(measure_setup(src) for _ in range(SETUP_REPEATS))
        passes = timed_passes(args.seconds, lambda: run_pass(cli, jobs))
        latencies = job_medians(passes)
        values = {
            "wall_s": sum(latencies),
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb(),
            "query_p50_ms": 1000 * percentile(latencies, 50),
            "query_p99_ms": 1000 * percentile(latencies, 99),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        def untraced_then_traced():
            plain = run_pass(cli, jobs)
            with Tracer() as tracer:
                traced = run_pass(cli, jobs, tracer)
            return plain, traced, tracer

        triples = timed_passes(args.seconds, untraced_then_traced)
        passes = [p for plain, traced, _ in triples for p in (plain, traced)]
        latencies = job_medians(passes)
        layer = [{**tracer.metrics(), "cli.stdout_bytes": traced["stdout_bytes"]}
                 for _, traced, tracer in triples]
        layer_values = {name: statistics.median(values[name] for values in layer)
                        for name in layer[0]}
        layer_values["trace.overhead_ratio"] = (
            sum(job_medians([traced for _, traced, _ in triples]))
            / sum(job_medians([plain for plain, _, _ in triples])))
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, unit, _, _ in LAYER_METRICS}
        spans, absent = triples[-1][2].spans, triples[-1][2].absent

    digests = {p["sha256"] for p in passes}
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(jobs) * len(passes)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(jobs),
        "query_samples": len(latencies),
        "fail_ratio": len(failures) / attempted,
        "sha256": sorted(digests),
    }
    results = dict(summary, seconds=args.seconds, cpu_count=os.cpu_count(),
                   python=platform.python_version(), metrics=metrics,
                   layer_targets={n: t for n, _, _, t in LAYER_METRICS},
                   argv=[job["argv"] for job in jobs], failures=failures,
                   latencies=[p["latencies"] for p in passes],
                   absent=absent, spans=spans)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(results, fp)
    summary["results"] = path
    print(json.dumps(summary))
    print(json.dumps({"correct": not failures and len(digests) == 1,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
