"""Seeded job lists for the four benchmark workloads.

A workload is a cycle of CLI jobs.  Each job is the argv of one
`cluster_geom.cli.main` call, the exit code it must return, and the oracle
spec its report is checked against (see oracles.py).  Input files are JSON
seed documents written by the benchmark; the program sees only those files
and argv.

Every job comes from a vetted family: Markov, the oriented 4-cycle with
double arrows, linear A_n, D_4, the nine-ray / cubic / weighted-triangle
plane data, and fixed weight-one plane configurations with entries in
{-1, 0, 1}.  The run seed picks, per file, the orientation of the exchange
matrix (eps or -eps) or a rotation of the plane by a multiple of 90 degrees,
and it shuffles the order of the cycle.  Those moves leave the work of every
job unchanged, so every seed costs the same and one reference value per
family serves every seed.  Relabeling indices is not one of them: it changes
the graded-lex term order and with it the cost of exact division by up to a
quarter.  Unconstrained random exchange matrices are kept out because their
term growth is explosive: the acyclic (2,2,2) triangle at depth 4 already
reaches 4505 terms.
"""

from __future__ import annotations

import random
from math import gcd

from oracles import catalan, generates_plane, mutate_plane

WORKLOADS = ("exchange-deep", "exchange-wide", "laurent-verify", "geometry")
DEFAULT_SEED = 1
# Passed on every explore and laurent-check argv, so that the caller's
# CLUSTER_GEOM_MAX_TERMS cannot change the work.
MAX_TERMS = "200000"

MARKOV = ((0, 2, -2), (-2, 0, 2), (2, -2, 0))
CYCLE4 = ((0, 2, 0, -2), (-2, 0, 2, 0), (0, -2, 0, 2), (2, 0, -2, 0))
D4 = ((0, 1, 0, 0), (-1, 0, 1, 1), (0, -1, 0, 0), (0, -1, 0, 0))
NINE_RAY = ((1, 0),) * 3 + ((0, 1),) * 3 + ((-1, -1),) * 3
CUBIC = ((1, 0), (0, 1), (-1, -1))
UNIT_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def linear_a(n):
    eps = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        eps[i][i + 1], eps[i + 1][i] = 1, -1
    return tuple(map(tuple, eps))


def rotate(w, turns):
    x, y = w
    for _ in range(turns % 4):
        x, y = -y, x
    return (x, y)


def plane_bases(tag, sizes, path_lengths):
    """Fixed weight-one configurations drawn from the unit rays, each with a
    mutation path whose plane images stay primitive with entries at most 3
    (which keeps the fan completion, and so the cost, small).  The draw uses
    its own fixed seed: these are constants of the benchmark, not inputs of
    a run."""
    rng = random.Random(f"perfbench/{tag}")
    out = []
    for n, length in zip(sizes, path_lengths):
        while True:
            ws = [rng.choice(UNIT_RAYS) for _ in range(n)]
            if not generates_plane(ws):
                continue
            path = []
            while len(path) < length:
                k = rng.randrange(n)
                if not path or k != path[-1]:
                    path.append(k)
            images, _ = mutate_plane(ws, path)
            if all(gcd(*v) == 1 and max(map(abs, v)) <= 3 for v in images):
                break
        out.append((f"{tag}{n}", tuple(ws), tuple(path)))
    return out


GEOMETRY_BASES = plane_bases("g", range(6, 15), (1, 2, 3) * 3)
EXPLORE_BASES = plane_bases("x", (6, 7, 8), (1, 1, 1))


class Workload:
    """Files and jobs of one workload for one seed."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.rng = random.Random(f"{name}/{seed}")
        self.files = {}
        self.jobs = []

    def add_file(self, stem, doc):
        name = f"{len(self.files):02d}-{stem}.json"
        self.files[name] = doc
        return name

    def add_job(self, argv, oracle, family=None):
        self.jobs.append({
            "workload": self.name,
            "argv": list(argv),
            "expect_exit": 0,
            "oracle": oracle,
            "family": family,
        })

    def skew_file(self, stem, eps, flip=True):
        """The seed or, by the run seed's choice, its opposite -eps.  The
        exchange relation is symmetric in the two monomials, so both give
        the same exchange graph with the same cluster variables."""
        sign = self.rng.choice((1, -1)) if flip else 1
        skew = [[sign * x for x in row] for row in eps]
        return self.add_file(stem, {"rank": len(eps), "skew": skew})

    def explore(self, stem, eps, depth, dedup="labeled", oracle=None, file=None):
        if file is None:
            file = self.skew_file(stem, eps)
        spec = {"depth": depth, "dedup": dedup, **(oracle or {})}
        self.add_job(
            ["explore", file, "--depth", str(depth), "--dedup", dedup,
             "--max-terms", MAX_TERMS],
            spec, f"explore/{stem}/d{depth}/{dedup}",
        )
        return file

    def laurent(self, stem, eps, side, q, depth):
        # On the X side the opposite seed changes the work (and needs -q).
        file = self.skew_file(stem, eps, flip=side == "A")
        self.add_job(
            ["laurent-check", file, "--side", side,
             "--q=" + ",".join(map(str, q)), "--depth", str(depth),
             "--max-terms", MAX_TERMS],
            {"side": side, "q": list(q), "depth": depth, "unfrozen": len(eps)},
            f"laurent-check/{stem}/{side}{''.join(map(str, q))}/d{depth}",
        )

    # -- plane data ------------------------------------------------------------

    def plane_file(self, stem, ws, nu=None):
        """The rays rotated by the run seed's choice of a quarter turn: the
        exchange matrix is unchanged and the fan completion turns along."""
        turns = self.rng.randrange(4)
        new = [rotate(w, turns) for w in ws]
        doc = {"w": [list(v) for v in new]}
        if nu is not None:
            doc["nu"] = list(nu)
        return self.add_file(stem, doc), new

    def geometry(self, stem, ws, path, nu=None, rank2_oracle=None, mutate=True):
        nu = tuple(nu or (1,) * len(ws))
        file, new = self.plane_file(stem, ws, nu if nu[0] != 1 else None)
        path = list(path) if path is not None else None
        spec = {"w": new, "nu": list(nu), "path": path, **(rank2_oracle or {})}
        argv = ["rank2", file]
        if path is not None:
            argv += ["--mutations", ",".join(map(str, path))]
        self.add_job(argv, spec, f"rank2/{stem}")
        self.add_job(["picard", file], spec, f"picard/{stem}")
        if mutate:
            self.add_job(["mutate", file, "--path", ",".join(map(str, path))], spec)

    def finish(self):
        """Shuffle the cycle and number the jobs in their final order."""
        self.rng.shuffle(self.jobs)
        for pos, job in enumerate(self.jobs):
            job["id"] = f"{pos:02d}-{job['argv'][0]}-{job['argv'][1][3:-5]}"
        return self


def build(name, seed):
    """The workload's files and job cycle for one seed."""
    builders = {
        "exchange-deep": _exchange_deep,
        "exchange-wide": _exchange_wide,
        "laurent-verify": _laurent_verify,
        "geometry": _geometry,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    wl = Workload(name, seed)
    builders[name](wl)
    return wl.finish()


def _exchange_deep(wl):
    """Few nodes, big polynomials: the exchange product and exact division.
    In the sorted job times of a cycle the Markov depth-4 block holds the
    median and the depth-5 block, the top quarter, the 90th percentile;
    depth 5 takes about three fifths of the time.  Depth 6 is left out: its
    big-integer products slow down less than the gauge in the shared host's
    slow phases (see gauge.py), so its gauged time was not steady."""
    markov = {"markov": True}
    for depth in (5, 5, 5, 4, 4, 4, 4, 4, 4, 3, 3, 3):
        if depth == 3:
            wl.explore("cycle4", CYCLE4, 3)
        else:
            wl.explore("markov", MARKOV, depth, oracle=markov)


def _exchange_wide(wl):
    """Many nodes, tiny variables: seed mutation, Matrix construction and
    node keys.  Labeled/unlabeled twins run on the same file; unlabeled jobs
    take about a quarter of the time.  The three unlabeled A4 jobs hold the
    median (three unlabeled A3 jobs, small ones, keep it off the edge of that
    block) and the two A5 jobs the 90th percentile."""
    for tag, ws, _ in EXPLORE_BASES:
        file, _ = wl.plane_file(tag, ws)
        wl.explore(tag, None, 3, file=file)
    file, _ = wl.plane_file("nine-ray", NINE_RAY)
    wl.explore("nine-ray", None, 3, file=file)
    for stem, eps, depth, clusters, unlabeled in (
        ("A3", linear_a(3), 4, catalan(4), 3),
        ("A4", linear_a(4), 5, catalan(5), 3),
        ("D4", D4, 6, 50, 1),
    ):
        twin = {"clusters": clusters, "pair": stem}
        file = wl.explore(stem, eps, depth, oracle=twin)
        for _ in range(unlabeled):
            wl.explore(stem, eps, depth, "unlabeled", oracle=twin, file=file)
    for _ in range(2):
        wl.explore("A5", linear_a(5), 6, oracle={"clusters": catalan(6)})


def _laurent_verify(wl):
    """The same Laurent layer through binomial twists, shifts and the
    division of fractions with growing denominators."""
    wl.laurent("markov", MARKOV, "A", (1, 0, 0), 5)
    wl.laurent("cycle4", CYCLE4, "A", (0, 0, 0, 1), 4)
    wl.laurent("markov", MARKOV, "A", (0, 1, 1), 5)
    wl.laurent("D4", D4, "X", (0, 0, -1, -1), 5)
    wl.laurent("markov", MARKOV, "A", (1, 0, 0), 5)


def _geometry(wl):
    """Rank-2 geometry: Smith forms, integer solves and inertia, no Laurent
    work.  Every base gets rank2 with a mutation path, picard and mutate, so
    about two jobs in three are small."""
    for tag, ws, path in GEOMETRY_BASES:
        wl.geometry(tag, ws, path)
    wl.geometry("nine-ray", NINE_RAY, (0, 4, 8), rank2_oracle={
        "boundary": [-2, -2, -2],
        "classification": "negative_semidefinite_degenerate",
    })
    wl.geometry("cubic", CUBIC, (0,), rank2_oracle={
        "boundary": [0, 0, 0], "gram": [[-2]], "classification": "negative_definite",
    })
    wl.geometry("weighted-triangle", CUBIC, None, nu=(3, 3, 3), mutate=False)
