"""Known-answer checks for the benchmark's jobs.

Every check here is computed without calling `cluster_geom`: closed forms
from the theory (Markov node counts, Catalan cluster counts, the number of
non-backtracking paths), plane geometry for the rank-2 kernel pairing, and a
direct transcription of seed mutation for `mutate`.  On top of those, the
numeric report fields are compared with `reference.json`, which was recorded
at the commit that introduced the benchmark.

Each check function takes the parsed report and the job's oracle spec and
returns a list of problems; an empty list means the job is correct.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd

# Report fields that the README documents as numbers, per subcommand.  These
# are compared exactly with the reference; a changed value fails the job.
NUMERIC_FIELDS = {
    "explore": ("depth", "nodes", "edges", "clusters", "max_terms"),
    "laurent-check": ("depth", "q", "paths_checked", "max_terms", "max_degree"),
    "picard": ("invariant_factors",),
    "rank2": ("epsilon", "K_basis", "gram", "inertia", "boundary_self_intersections"),
    "mutate": ("epsilon", "path", "seed"),
}

# Fields that do not change under the orientation flips and plane rotations the
# generator applies, so one reference value serves every seed.
FAMILY_FIELDS = {
    "explore": ("depth", "nodes", "edges", "clusters", "max_terms"),
    "laurent-check": ("depth", "paths_checked", "max_terms", "max_degree"),
    "picard": ("invariant_factors",),
    "rank2": ("inertia", "classification", "boundary_multiset"),
}


def wedge(u, v):
    return u[0] * v[1] - u[1] * v[0]


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def markov_counts(depth):
    """Labeled exchange graph of the Markov quiver to the given depth: a
    3-regular tree, so nodes = 3*2^d - 2 and edges = 3(3*2^(d-1) - 2)."""
    return 3 * 2 ** depth - 2, 3 * (3 * 2 ** (depth - 1) - 2)


def path_count(unfrozen, depth):
    """Non-backtracking label paths of length 1..depth: u * sum (u-1)^i."""
    return unfrozen * sum((unfrozen - 1) ** i for i in range(depth))


# -- rank-2 geometry -----------------------------------------------------------

def _half(u):
    return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1


def _angle_key(u):
    # Angle in [0, 2 pi), exactly: half plane, then the ray on the positive
    # axis of that half, then minus the cotangent.
    h = _half(u)
    x, y = (u[0], u[1]) if h == 0 else (-u[0], -u[1])
    return (h, 0, 0) if y == 0 else (h, 1, Fraction(-x, y))


def double_area_form(ws, a, b):
    """Intersection number of the toric divisor classes that meet the
    boundary divisor of each ray u in sum_{w_i = u} a_i (resp. b_i).

    Such a class is a virtual lattice polygon with edge vectors c_u rot(u)
    taken in angular order of the rays u; its self-intersection is twice its
    area, so the mixed form is the polarization of twice the shoelace area.
    No fan and no linear solve are involved.
    """
    def twice_area(c):
        rays = sorted(c, key=_angle_key)
        x = y = 0
        pts = []
        for u in rays:
            x -= c[u] * u[1]
            y += c[u] * u[0]
            pts.append((x, y))
        return sum(wedge(p, q) for p, q in zip(pts, pts[1:] + pts[:1]))

    def coeffs(vec):
        c = {}
        for ai, wi in zip(vec, ws):
            c[tuple(wi)] = c.get(tuple(wi), 0) + ai
        return c

    ca, cb = coeffs(a), coeffs(b)
    both = {u: ca.get(u, 0) + cb.get(u, 0) for u in set(ca) | set(cb)}
    mixed = twice_area(both) - twice_area(ca) - twice_area(cb)
    if mixed % 2:
        raise ValueError("mixed area is not integral")
    return mixed // 2


def kernel_gram(ws, basis):
    """The kernel pairing <a, b> = D_a . D_b - a . b for weight-one data."""
    return [
        [double_area_form(ws, a, b) - sum(x * y for x, y in zip(a, b)) for b in basis]
        for a in basis
    ]


def inertia(rows):
    """(positive, negative, zero) counts of a symmetric rational matrix by
    congruence diagonalization (Lagrange's method)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    pos = neg = 0
    live = list(range(n))
    while live:
        i = next((k for k in live if m[k][k] != 0), None)
        if i is None:
            pair = next(
                ((k, j) for k in live for j in live if j != k and m[k][j] != 0), None
            )
            if pair is None:
                break
            k, j = pair
            # replace basis vector k by e_k + e_j; its square becomes 2 m_kj
            for r in range(n):
                m[r][k] += m[r][j]
            for c in range(n):
                m[k][c] += m[j][c]
            i = k
        p = m[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        live.remove(i)
        for r in live:
            f = m[r][i] / p
            if f:
                for c in live:
                    m[r][c] -= f * m[i][c]
    return pos, neg, n - pos - neg


def classification(inert):
    pos, neg, zero = inert
    if pos + neg + zero == 0:
        return "zero_rank"
    if pos > 0:
        return "indefinite"
    if zero > 0:
        return "negative_semidefinite_degenerate"
    return "negative_definite"


def mutate_plane(ws, path):
    """Plane images of the seed basis along a mutation path, with the basis
    itself (columns in initial coordinates), for weight-one data:
    e_k -> -e_k, e_i -> e_i + [eps_ik]_+ e_k with eps_ij = w_i ^ w_j."""
    n = len(ws)
    ws = [tuple(w) for w in ws]
    cols = [[int(a == i) for a in range(n)] for i in range(n)]
    for k in path:
        new_ws, new_cols = [], []
        for i in range(n):
            if i == k:
                new_ws.append((-ws[k][0], -ws[k][1]))
                new_cols.append([-x for x in cols[k]])
            else:
                e = max(wedge(ws[i], ws[k]), 0)
                new_ws.append((ws[i][0] + e * ws[k][0], ws[i][1] + e * ws[k][1]))
                new_cols.append([x + e * y for x, y in zip(cols[i], cols[k])])
        ws, cols = new_ws, new_cols
    return ws, cols


def generates_plane(ws):
    g = 0
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            g = gcd(g, wedge(ws[i], ws[j]))
    return g == 1


def boundary_sum_ok(boundary, n_points):
    """Noether's formula on a smooth toric surface with r rays blown up at
    n points: the boundary self-intersections sum to 12 - 3r - n."""
    return sum(boundary) == 12 - 3 * len(boundary) - n_points


# -- per-command checks --------------------------------------------------------

def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_explore(rep, spec):
    p = []
    _expect(p, "depth", rep.get("depth"), spec["depth"])
    _expect(p, "laurent_ok", rep.get("laurent_ok"), True)
    _expect(p, "witnesses", rep.get("witnesses"), [])
    _expect(p, "truncated", rep.get("truncated"), False)
    # positivity of cluster variables holds for skew-symmetric seeds
    _expect(p, "nonnegative_coefficients_observed",
            rep.get("nonnegative_coefficients_observed"), True)
    if spec.get("markov"):
        nodes, edges = markov_counts(spec["depth"])
        _expect(p, "nodes", rep.get("nodes"), nodes)
        _expect(p, "edges", rep.get("edges"), edges)
    if "clusters" in spec:
        _expect(p, "clusters", rep.get("clusters"), spec["clusters"])
    if spec.get("dedup") == "unlabeled":
        _expect(p, "nodes (unlabeled nodes are clusters)", rep.get("nodes"),
                rep.get("clusters"))
    return p


def check_laurent(rep, spec):
    p = []
    _expect(p, "side", rep.get("side"), spec["side"])
    _expect(p, "q", rep.get("q"), spec["q"])
    _expect(p, "depth", rep.get("depth"), spec["depth"])
    _expect(p, "laurent_ok", rep.get("laurent_ok"), True)
    _expect(p, "witnesses", rep.get("witnesses"), [])
    _expect(p, "paths_checked", rep.get("paths_checked"),
            path_count(spec["unfrozen"], spec["depth"]))
    return p


def check_picard(rep, spec):
    p = []
    n, nu = len(spec["w"]), spec["nu"]
    c = nu[0]
    if any(x != c for x in nu):
        raise ValueError("picard oracle covers constant weights only")
    # eps = c W^T J W with W onto Z^2, so the cokernel of eps^T is
    # (Z/c)^2 + Z^(n-2)
    want = ([c, c] if c > 1 else []) + [0] * (n - 2)
    _expect(p, "invariant_factors", rep.get("invariant_factors"), want)
    _expect(p, "torsion_free", rep.get("torsion_free"), c == 1)
    return p


def check_rank2(rep, spec):
    p = []
    ws, nu = spec["w"], spec["nu"]
    n = len(ws)
    _expect(p, "epsilon", rep.get("epsilon"),
            [[nu[0] * wedge(u, v) for v in ws] for u in ws])
    if any(x != 1 for x in nu):
        for key in ("supported", "K_basis", "gram", "inertia", "invariance_ok"):
            _expect(p, key, rep.get(key), False if key == "supported" else None)
        return p
    _expect(p, "supported", rep.get("supported"), True)
    basis = rep.get("K_basis") or []
    _expect(p, "K_basis size", len(basis), n - 2)
    for a in basis:
        if any(sum(ai * w[t] for ai, w in zip(a, ws)) for t in (0, 1)):
            p.append(f"K_basis vector {a} is not in the kernel")
    if p:
        return p
    gram = kernel_gram(ws, basis)
    _expect(p, "gram", rep.get("gram"), gram)
    inert = list(inertia(gram))
    _expect(p, "inertia", rep.get("inertia"), inert)
    _expect(p, "classification", rep.get("classification"), classification(inert))
    _expect(p, "fg_conjecture_possible", rep.get("fg_conjecture_possible"),
            classification(inert) in ("negative_definite", "zero_rank"))
    boundary = rep.get("boundary_self_intersections") or []
    if not boundary_sum_ok(boundary, n):
        p.append(f"boundary self-intersections {boundary} violate Noether's formula")
    all_m2 = all(b == -2 for b in boundary)
    _expect(p, "all_minus_two", rep.get("all_minus_two"), all_m2)
    _expect(p, "non_noetherian_principal", rep.get("non_noetherian_principal"), all_m2)
    if "boundary" in spec:
        _expect(p, "boundary_self_intersections", boundary, spec["boundary"])
    if "gram" in spec:
        _expect(p, "gram (known answer)", rep.get("gram"), spec["gram"])
    if "classification" in spec:
        _expect(p, "classification (known answer)", rep.get("classification"),
                spec["classification"])
    path = spec.get("path")
    _expect(p, "invariance_checked_paths", rep.get("invariance_checked_paths"),
            [path] if path is not None else [])
    _expect(p, "invariance_ok", rep.get("invariance_ok"),
            True if path is not None else None)
    return p


def check_mutate(rep, spec):
    p = []
    ws, path = spec["w"], spec["path"]
    new_ws, cols = mutate_plane(ws, path)
    n = len(ws)
    _expect(p, "path", rep.get("path"), path)
    _expect(p, "epsilon", rep.get("epsilon"),
            [[wedge(u, v) for v in new_ws] for u in new_ws])
    seed = rep.get("seed") or {}
    _expect(p, "seed.basis", seed.get("basis"),
            [[cols[j][i] for j in range(n)] for i in range(n)])
    _expect(p, "seed.skew", seed.get("skew"), [[wedge(u, v) for v in ws] for u in ws])
    return p


CHECKS = {
    "explore": check_explore,
    "laurent-check": check_laurent,
    "picard": check_picard,
    "rank2": check_rank2,
    "mutate": check_mutate,
}


def family_values(command, rep):
    """The seed-independent fields of a report (see FAMILY_FIELDS)."""
    out = {}
    for key in FAMILY_FIELDS.get(command, ()):
        if key == "boundary_multiset":
            b = rep.get("boundary_self_intersections")
            out[key] = sorted(b) if b is not None else None
        else:
            out[key] = rep.get(key)
    return out


def numeric_values(command, rep):
    return {key: rep.get(key) for key in NUMERIC_FIELDS[command]}


def check_report(job, rep, reference, default_seed):
    """All problems with one job's report: the oracle, the family reference
    (every seed) and the per-job reference (default seed only)."""
    command = job["argv"][0]
    problems = CHECKS[command](rep, job["oracle"])
    family = job.get("family")
    if family is not None:
        want = reference["families"].get(family)
        if want is None:
            problems.append(f"no reference for family {family}")
        else:
            got = family_values(command, rep)
            for key, value in want.items():
                _expect(problems, f"{key} (reference {family})", got.get(key), value)
    if default_seed:
        want = reference["jobs"].get(job["workload"], {}).get(job["id"])
        if want is None:
            problems.append(f"no reference for job {job['id']}")
        else:
            got = numeric_values(command, rep)
            for key, value in want.items():
                _expect(problems, f"{key} (reference)", got.get(key), value)
    return problems


def check_cross(jobs, reports):
    """Labeled and unlabeled exploration of one file to one depth reach the
    same clusters."""
    problems = []
    seen = {}
    for job, rep in zip(jobs, reports):
        pair = job["oracle"].get("pair")
        if pair is None or rep is None:
            continue
        clusters = rep.get("clusters")
        if pair in seen and seen[pair] != clusters:
            problems.append(
                f"{job['id']}: {clusters} clusters, its labeled/unlabeled twin "
                f"has {seen[pair]}"
            )
        seen.setdefault(pair, clusters)
    return problems
