"""Self-tests of the benchmark (stdlib unittest, about a minute):

    python3 perfbench/selftest.py

They check that one seed gives byte-identical inputs, that a tampered report
fails its oracle, that the trace wrappers change no output and are removed
afterwards, that every layer counter moves on the workload named for it, that
job times are scaled by the gauge samples near them, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
import unittest

import oracles
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
from cluster_geom import cli  # noqa: E402

WORK = run.OUT / "selftest"


def first_cycle(wl):
    """(argv with paths, exit code, stdout) for each job, one cycle."""
    paths = run.write_inputs(wl, WORK / f"{wl.name}-{wl.seed}")
    out = []
    for argv in run.job_argvs(wl, paths):
        _, code, stdout, _ = run.run_job(cli, argv)
        out.append((argv, code, stdout))
    return out


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        cls.reference = run.load_reference()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.build(name, 7), workloads.build(name, 7)
            self.assertEqual(json.dumps(a.files, sort_keys=True),
                             json.dumps(b.files, sort_keys=True))
            self.assertEqual(a.jobs, b.jobs)
            c = workloads.build(name, 8)
            self.assertNotEqual(json.dumps(a.files, sort_keys=True),
                                json.dumps(c.files, sort_keys=True))

    def test_default_seed_passes_and_tampering_fails(self):
        tampers = {
            "explore": lambda r: r.update(nodes=r["nodes"] + 1),
            "laurent-check": lambda r: r.update(paths_checked=r["paths_checked"] - 1),
            "picard": lambda r: r["invariant_factors"].append(0),
            "rank2": lambda r: r["gram"][0].__setitem__(0, r["gram"][0][0] + 1)
            if r["gram"] else r.update(supported=True),
            "mutate": lambda r: r["seed"]["basis"][0].__setitem__(
                0, r["seed"]["basis"][0][0] + 1),
        }
        seen = set()
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, workloads.DEFAULT_SEED)
            for job, (_, code, stdout) in zip(wl.jobs, first_cycle(wl)):
                self.assertEqual(code, job["expect_exit"], job["id"])
                rep = json.loads(stdout)
                self.assertEqual(
                    oracles.check_report(job, rep, self.reference, True), [], job["id"])
                command = job["argv"][0]
                seen.add(command)
                bad = copy.deepcopy(rep)
                tampers[command](bad)
                # as on any other seed: oracles and family references only
                self.assertNotEqual(
                    oracles.check_report(job, bad, self.reference, False), [],
                    f"{job['id']}: tampered report passed")
        self.assertEqual(seen, set(oracles.CHECKS))

    def test_reference_catches_changed_numbers(self):
        wl = workloads.build("exchange-deep", workloads.DEFAULT_SEED)
        # the oriented 4-cycle has no closed form: only the reference knows
        pos = next(i for i, job in enumerate(wl.jobs)
                   if job["family"] == "explore/cycle4/d3/labeled")
        job = wl.jobs[pos]
        rep = json.loads(first_cycle(wl)[pos][2])
        rep["max_terms"] += 1
        self.assertNotEqual(oracles.check_report(job, rep, self.reference, False), [])

    def test_wrappers_keep_outputs_and_uninstall(self):
        originals = {
            name: {k: v for k, v in vars(mod).items()
                   if isinstance(v, (types.FunctionType, type))}
            for name, mod in sys.modules.items() if name.startswith("cluster_geom")
        }
        methods = {
            (cls, k): v for mod in tracing._package_modules()
            for cls in vars(mod).values() if isinstance(cls, type)
            for k, v in vars(cls).items()
        }
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 3)
            plain = first_cycle(wl)
            tracer = tracing.Tracer()
            with tracer.installed():
                self.assertIsNot(cli.main, originals["cluster_geom.cli"]["main"])
                traced = [(argv, *run.run_job(cli, argv)[1:3]) for argv, _, _ in plain]
            self.assertEqual(plain, traced, name)
            self.assertGreater(len(tracer.start), 0)
        for name, funcs in originals.items():
            for k, v in funcs.items():
                self.assertIs(vars(sys.modules[name])[k], v, f"{name}.{k}")
        for (cls, k), v in methods.items():
            self.assertIs(vars(cls)[k], v, f"{cls.__name__}.{k}")

    def test_counters_move_where_listed(self):
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, 4)
            paths = run.write_inputs(wl, WORK / f"counters-{name}")
            argvs = run.job_argvs(wl, paths)
            tracer = tracing.Tracer()
            with tracer.installed():
                run.run_cycles(cli, argvs, cycles=1, tracer=tracer)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = {"value": 1.0}
            self.assertEqual(tracing.silent_counters(name, metrics), [], name)
            self.assertEqual(
                set(metrics), {m for m, _, _ in tracing.REPORTED}, name)

    def test_gauged_times_use_nearby_samples(self):
        # Gauge twice as slow after 10 s: a job there reads half its wall time.
        samples = [(0.1 * i, run.gauge.REF_S * (2 if i >= 100 else 1))
                   for i in range(200)]
        execs = [(0, 2.0, 0.5, 0, "", None, None), (0, 15.0, 0.5, 0, "", None, None)]
        self.assertEqual(run.gauged_times(execs, samples), [0.5, 0.25])
        # Too few samples in reach: the nearest GAUGE_WINDOW_MIN are used.
        far = [(100.0 + i, 2 * run.gauge.REF_S) for i in range(run.GAUGE_WINDOW_MIN)]
        self.assertEqual(run.gauged_times(execs[:1], samples[:1] + far), [0.25])

    def test_benchmark_json_lists_every_metric(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(m, u) for m, u, _ in tracing.REPORTED])

    def test_refuses_without_sources(self):
        bare = WORK / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "geometry",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
