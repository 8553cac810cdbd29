"""Record reference.json: the numeric report fields of every job of the
default seed, and the seed-independent fields of every job family.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted; the benchmark fails any
job whose numbers differ from the recorded ones.  Every job must also pass
its oracle, and each family must give the same values on every checked
seed, which tests the claim that the generator's moves leave the work
unchanged.
"""

from __future__ import annotations

import json
import shutil
import sys

import oracles
import run
import workloads


CHECK_SEEDS = 4  # seeds besides the default one that each family must agree on


def main():
    sys.path.insert(0, str(run.SRC))
    from cluster_geom import cli

    families, jobs, problems = {}, {}, []
    seeds = [workloads.DEFAULT_SEED + i for i in range(CHECK_SEEDS + 1)]
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl = workloads.build(name, seed)
            work = run.OUT / f"reference-{name}-{seed}"
            try:
                paths = run.write_inputs(wl, work)
                for job, argv in zip(wl.jobs, run.job_argvs(wl, paths)):
                    _, code, stdout, error = run.run_job(cli, argv)
                    if code != job["expect_exit"]:
                        problems.append(f"{name}/{seed}/{job['id']}: exit {code} {error}")
                        continue
                    rep = json.loads(stdout)
                    command = job["argv"][0]
                    for p in oracles.CHECKS[command](rep, job["oracle"]):
                        problems.append(f"{name}/{seed}/{job['id']}: {p}")
                    if seed == workloads.DEFAULT_SEED:
                        jobs.setdefault(name, {})[job["id"]] = oracles.numeric_values(
                            command, rep)
                    if job["family"] is not None:
                        got = oracles.family_values(command, rep)
                        want = families.setdefault(job["family"], got)
                        if got != want:
                            problems.append(
                                f"{name}/{seed}/{job['id']}: family {job['family']} "
                                f"gives {got}, earlier {want}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    out = run.HERE / "reference.json"
    out.write_text(json.dumps({"families": families, "jobs": jobs},
                              indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(families)} families, "
          f"{sum(map(len, jobs.values()))} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
