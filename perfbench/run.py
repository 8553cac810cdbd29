"""End-to-end benchmark of the cluster-geom CLI.

    python3 perfbench/run.py --workload exchange-deep --seed 1 --seconds 25 --trace 0

Drives `cluster_geom.cli.main(argv)` in this process as a single-client
closed loop: the next job starts when the previous one returns, with no
threads and `--workers 1`.  The job cycle of the workload (workloads.py) is
repeated until `--seconds` have passed, always ending on a whole cycle, so
every run measures the same mix.  Gauge samples (gauge.py) run between jobs,
and every job time is reported at the gauge's reference speed, so that the
drift of a shared host's speed cancels.  Each job's stdout is captured,
hashed and checked (oracles.py).  With `--trace 1` the end-to-end loop is
replaced by an untraced and a traced pass over the same jobs, without the
gauge, and per-layer metrics are reported instead (tracing.py).

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--workload all` runs every workload in
a fresh process and prints a table instead.  The exit code is 0 only when
the run measured and checked its jobs; 2 means the program could not be
found or the arguments were invalid.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import gauge  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
TRACE_SHARE = 1 / 3  # of --seconds spent on untraced cycles in a traced run
TAIL_PERCENTILE = 90  # of job time, reported as job_s.tail
TAIL_BEYOND = 10  # jobs slower than the reported tail time, at least
GAUGE_SHARE = 1 / 8  # of the timed loop spent on gauge samples
GAUGE_REACH = 0.1  # seconds around a job whose gauge samples set its speed
GAUGE_WINDOW_MIN = 4  # gauge samples behind every job's speed, at least
SETUP_GAUGE_SAMPLES = 9  # per set-up interpreter
WORK_FIELDS = ("nodes", "edges", "clusters", "paths_checked", "max_terms")

# Time to import the package and load every input file once, in a fresh
# interpreter with no site or environment influence, then the median gauge
# time in the same interpreter (gauge.py), taken after the timed part so that
# the gauge's own imports are not counted.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from cluster_geom import cli
for path in sys.argv[4:]:
    cli.load_seed_file(path)
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import gauge, statistics
level = statistics.median(gauge.sample() for _ in range(int(sys.argv[3])))
print(repr(took), repr(level))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def write_inputs(wl, work):
    work.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in wl.files.items():
        path = work / name
        path.write_text(json.dumps(doc, sort_keys=True))
        paths[name] = str(path)
    return paths


def job_argvs(wl, paths):
    """Each job's argv with its input file names replaced by paths."""
    return [[paths.get(a, a) for a in job["argv"]] for job in wl.jobs]


def measure_setup(paths):
    """Median over fresh interpreters, each at the gauge's reference speed;
    one untimed run first writes the bytecode cache, which users pay once."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(HERE),
           str(SETUP_GAUGE_SAMPLES), *sorted(paths.values())]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
        if i:
            took, level = map(float, done.stdout.split()[-2:])
            samples.append(took * gauge.REF_S / level)
    return statistics.median(samples)


def run_job(cli, argv):
    """One cli.main call: (seconds, exit code or None, stdout, error)."""
    out = io.StringIO()
    err = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a job must never take the loop down
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue(), error or err.getvalue().strip() or None


def run_cycles(cli, argvs, seconds=None, cycles=None, tracer=None, gauged=False):
    """Whole cycles over the jobs until `seconds` passed and the tail has
    its samples (or until `cycles` ran).  With `gauged`, gauge samples fill
    GAUGE_SHARE of the loop, run between jobs.
    Returns (wall, executions, cycles, gauge samples) with executions (job
    index, start, seconds, exit code, stdout sha256, stdout in the first
    cycle else None, error) and gauge samples (middle, seconds), all times
    from the start of the loop."""
    execs, samples = [], []
    gc.collect()
    t0 = time.perf_counter()
    if gauged:
        for _ in range(GAUGE_WINDOW_MIN):
            start = time.perf_counter()
            g = gauge.sample()
            samples.append((start - t0 + g / 2, g))
    debt = 0.0
    done = 0
    while True:
        for idx, argv in enumerate(argvs):
            if tracer is not None:
                tracer.job = idx
            start = time.perf_counter() - t0
            dt, code, stdout, error = run_job(cli, argv)
            sha = hashlib.sha256(stdout.encode()).hexdigest()
            execs.append((idx, start, dt, code, sha,
                          stdout if done == 0 else None, error))
            if gauged:
                debt += GAUGE_SHARE / (1 - GAUGE_SHARE) * dt
            while debt > 0:
                start = time.perf_counter()
                g = gauge.sample()
                samples.append((start - t0 + g / 2, g))
                debt -= g
        done += 1
        if cycles is not None and done >= cycles:
            break
        if (seconds is not None and time.perf_counter() - t0 >= seconds
                and len(execs) >= TAIL_BEYOND + 1):
            break
    return time.perf_counter() - t0, execs, done, samples


def gauged_times(execs, samples):
    """Each execution's wall time at the gauge's reference speed: times
    REF_S over the median of the gauge samples within GAUGE_REACH seconds of
    the job (at least the GAUGE_WINDOW_MIN nearest ones)."""
    mids = [m for m, _ in samples]
    out = []
    for _, start, dt, *_ in execs:
        lo = bisect.bisect_left(mids, start - GAUGE_REACH)
        hi = bisect.bisect_right(mids, start + dt + GAUGE_REACH)
        while hi - lo < GAUGE_WINDOW_MIN:
            if lo > 0 and (hi == len(mids)
                           or start - mids[lo - 1] < mids[hi] - start - dt):
                lo -= 1
            else:
                hi += 1
        level = statistics.median(g for _, g in samples[lo:hi])
        out.append(dt * gauge.REF_S / level)
    return out


def check_executions(wl, execs, reference, default_seed):
    """Check the outputs of the first cycle; an execution is correct when
    its job passed and it printed exactly the same stdout.
    Returns (verdicts, problems, work record)."""
    jobs = wl.jobs
    first = execs[:len(jobs)]
    problems, reports, job_ok, record = [], [], [], []
    for job, (_, _, _, code, sha, stdout, error) in zip(jobs, first):
        rep, errs = None, []
        if error is not None and code is None:
            errs.append(f"exception escaped main: {error}")
        elif code != job["expect_exit"]:
            errs.append(f"exit code {code}, expected {job['expect_exit']} ({error})")
        else:
            try:
                rep = json.loads(stdout)
            except json.JSONDecodeError as exc:
                errs.append(f"stdout is not JSON: {exc}")
        if rep is not None:
            errs.extend(oracles.check_report(job, rep, reference, default_seed))
        reports.append(rep)
        problems.extend(f"{job['id']}: {e}" for e in errs)
        job_ok.append((not errs, sha))
        entry = {"id": job["id"], "argv": job["argv"], "exit": code, "sha256": sha}
        if rep is not None:
            entry.update({k: rep[k] for k in WORK_FIELDS if k in rep})
        record.append(entry)
    cross = oracles.check_cross(jobs, reports)
    problems.extend(cross)
    verdicts = []
    for idx, _, _, _, sha, _, _ in execs:
        ok, first_sha = job_ok[idx]
        if sha != first_sha:
            problems.append(f"{jobs[idx]['id']}: stdout differs from its first run")
            ok = False
        verdicts.append(ok and not cross)
    return verdicts, problems, record


def tail(times):
    """The 90th percentile of job time, or a lower one where that leaves
    fewer than 10 jobs beyond it: (value, percentile, sample count)."""
    ordered = sorted(times)
    n = len(ordered)
    k = min(math.ceil(TAIL_PERCENTILE / 100 * n), n - TAIL_BEYOND) - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def measure(args, cli, wl, paths, setup_s=None):
    """The timed loop (or the untraced and traced passes); the outputs of
    the first cycle are the ones checked.
    Returns (verdicts, problems, record, metrics, notes, tracer or None)."""
    argvs = job_argvs(wl, paths)
    reference = load_reference()
    default_seed = args.seed == workloads.DEFAULT_SEED
    if not args.trace:
        wall, execs, cycles, samples = run_cycles(
            cli, argvs, seconds=args.seconds, gauged=True)
        verdicts, problems, record = check_executions(
            wl, execs, reference, default_seed)
        times = gauged_times(execs, samples)
        tail_s, tail_pct, n = tail(times)
        metrics = {
            "jobs_per_s": metric(sum(verdicts) / sum(times), "1/s"),
            "job_s.p50": metric(statistics.median(times), "s"),
            "job_s.tail": metric(tail_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        gauge_s = [g for _, g in samples]
        notes = {"cycles": cycles, "jobs": n, "tail_percentile": tail_pct,
                 "loop_wall_s": wall, "gauge_samples": len(gauge_s),
                 "gauge_s.p50": statistics.median(gauge_s),
                 "wall_jobs_per_s": sum(verdicts) / sum(e[2] for e in execs),
                 "job_times": [[e[0], e[1], e[2], t] for e, t in zip(execs, times)],
                 "gauge_samples_s": samples}
        return verdicts, problems, record, metrics, notes, None

    import tracing
    # Untraced and traced cycles alternate, each pair in the other order, so
    # both see the same machine; together they take about 2 * TRACE_SHARE of
    # --seconds plus the tracing overhead.
    tracer = tracing.Tracer()
    walls, runs = [0.0, 0.0], [[], []]
    pairs = 0
    while not pairs or walls[0] < args.seconds * TRACE_SHARE:
        for traced in ((0, 1) if pairs % 2 == 0 else (1, 0)):
            with tracer.installed() if traced else contextlib.nullcontext():
                wall, execs, _, _ = run_cycles(cli, argvs, cycles=1,
                                               tracer=tracer if traced else None)
            walls[traced] += wall
            runs[traced] += execs
        pairs += 1
    verdicts, problems, record = check_executions(
        wl, runs[0] + runs[1], reference, default_seed)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = metric(walls[1] / walls[0], "ratio")
    for name in tracing.silent_counters(args.workload, metrics):
        print(f"warning: {name} is zero on {args.workload}, where it should move",
              file=sys.stderr)
    notes = {"cycles": pairs, "jobs": len(runs[0]),
             "untraced_wall_s": walls[0], "traced_wall_s": walls[1]}
    return verdicts, problems, record, metrics, notes, tracer


def run_all(args):
    """Every workload in a fresh process; prints one table."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: failed (exit {done.returncode})\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio="
              f"{result['failed'] / result['attempted']:.4g}")
        for key, m in sorted(result["metrics"].items()):
            print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
        status = status or (0 if result["correct"] else 1)
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cluster_geom" / "__init__.py").is_file():
        print(f"error: no cluster_geom package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.pop("CLUSTER_GEOM_MAX_TERMS", None)
    wl = workloads.build(args.workload, args.seed)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = write_inputs(wl, work)
        setup_s = None if args.trace else measure_setup(paths)
        sys.path.insert(0, str(SRC))
        from cluster_geom import cli
        verdicts, problems, record, metrics, notes, tracer = measure(
            args, cli, wl, paths, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = f"{args.workload}-seed{args.seed}"
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "jobs": record},
        indent=1, sort_keys=True))
    if tracer is not None:
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{stem}.json", [job["id"] for job in wl.jobs])
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(verdicts)
    failed = attempted - sum(verdicts)
    times = notes.pop("job_times", None)
    if times is not None:
        (records / f"{stem}-times.json").write_text(json.dumps(
            {"jobs": times, "gauge": notes.pop("gauge_samples_s")}))
    print(json.dumps({"notes": notes, "fail_ratio": failed / attempted}, sort_keys=True),
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
