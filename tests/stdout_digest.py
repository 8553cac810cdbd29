"""One sha256 digest of the exit code and stdout of every perfbench job.

The jobs are those of perfbench/workloads.py (imported, not changed) for
the four workloads and the run seeds in SEEDS (1, 2 and 3: 204 jobs).
Each job's input files are written to a temporary directory, and the job
runs once in-process through cluster_geom.cli.main, with the package
imported from src/ of this checkout.  The digest covers, job by
job in cycle order, the JSON pair [exit code, stdout].  Two checkouts, or
two hash seeds, that print the same digest printed the same bytes:

    PYTHONHASHSEED=0 python tests/stdout_digest.py
    PYTHONHASHSEED=4242 python tests/stdout_digest.py

Every job must leave its stderr empty: a job that writes to it (a
warning, a traceback) stops the script with exit 1 and no digest.  The
digest goes to stdout and the job count to stderr.  pytest does not
collect this file.  tests/stdout_digest.sha256 holds the digest of the
current stdout, and CI checks both hash seeds against it, so a change
that alters stdout also updates that file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cluster_geom import cli  # noqa: E402

SEEDS = (1, 2, 3)

def digest(seeds):
    """(sha256 hex digest, job count) over every job of the seeds."""
    os.environ.pop("CLUSTER_GEOM_MAX_TERMS", None)
    h = hashlib.sha256()
    jobs = 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                wl = workloads.build(name, seed)
                work = Path(tmp, f"{name}-{seed}")
                work.mkdir()
                paths = {}
                for file, doc in wl.files.items():
                    paths[file] = work / file
                    paths[file].write_text(json.dumps(doc, sort_keys=True))
                for job in wl.jobs:
                    argv = [str(paths.get(a, a)) for a in job["argv"]]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    if err.getvalue():
                        sys.exit(f"{' '.join(job['argv'])} wrote to stderr:\n{err.getvalue()}")
                    h.update(json.dumps([code, out.getvalue()]).encode() + b"\n")
                    jobs += 1
    return h.hexdigest(), jobs


def main():
    hexdigest, jobs = digest(SEEDS)
    print(hexdigest)
    print(f"{jobs} jobs, seeds {list(SEEDS)}", file=sys.stderr)


if __name__ == "__main__":
    main()
