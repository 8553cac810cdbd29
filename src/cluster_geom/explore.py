"""Exchange-graph search, cluster-variable tracking, and depth-bounded
Laurent-phenomenon verification.

Cluster variables are tracked as exact Laurent polynomials in the initial
variables; the exchange relation at index k replaces the k-th variable by
(prod_+ + prod_-) / old, where the products run over the positive and
negative parts of row k of the exchange matrix.  That the division is exact
is the Laurent phenomenon; a failure raises LaurentViolation and would
falsify the implementation, not the theory.

Graph nodes are identified by (exchange matrix, cluster variables): mutation
is involutive on that pair, while the underlying bases return from a double
mutation only up to a linear shear.  The optional "unlabeled" mode also
quotients by simultaneous relabelings of the unfrozen indices.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import permutations

from .errors import (
    LaurentViolation,
    PreconditionError,
    ResourceLimitExceeded,
    ValidationError,
)
from .laurent import (
    LaurentPolynomial,
    RationalExpression,
    exact_divide,
    inverse_pullback_A,
    inverse_pullback_X,
)
from .seeds import Seed, mutate_seed

MAX_TERMS_ENV = "CLUSTER_GEOM_MAX_TERMS"
DEFAULT_MAX_TERMS = 200_000


def max_terms_limit(explicit=None):
    limit = explicit
    if limit is None:
        raw = os.environ.get(MAX_TERMS_ENV)
        if not raw:
            return DEFAULT_MAX_TERMS
        try:
            limit = int(raw)
        except ValueError:
            raise ValidationError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}")
    if limit < 1:
        raise ValidationError(f"the term cap must be at least 1, got {limit}")
    return limit


@dataclass(frozen=True)
class SeedNode:
    """A seed together with its cluster variables written in the initial
    variables.  The variables are genuine Laurent polynomials; that property
    is (re)checked whenever a node is produced by a mutation step."""

    seed: Seed
    cluster_vars: tuple
    depth: int = 0


def root_node(seed):
    n = seed.n
    return SeedNode(
        seed, tuple(LaurentPolynomial.variable(n, i) for i in range(n)), 0
    )


def exchange_polynomial(node, k):
    """prod_j vars_j^[eps_kj]_+  +  prod_j vars_j^[-eps_kj]_+ ."""
    plus = minus = None
    for v, e in zip(node.cluster_vars, node.seed.eps.row(k)):
        if e > 0:
            f = v ** e
            plus = f if plus is None else plus * f
        elif e < 0:
            f = v ** -e
            minus = f if minus is None else minus * f
    one = LaurentPolynomial.one(node.seed.n)
    return (one if plus is None else plus) + (one if minus is None else minus)


def step(node, k, max_terms=None):
    """Mutate a node at index k via the exchange relation."""
    seed = node.seed
    if k in seed.fixed.frozen:
        raise ValidationError(f"cannot mutate at frozen index {k}")
    limit = max_terms_limit(max_terms)
    p = exchange_polynomial(node, k)
    old = node.cluster_vars[k]
    new_var = exact_divide(p, old)
    if new_var is None:
        raise LaurentViolation(
            f"exchange relation at index {k} failed exact division",
            path=seed.path + (k,),
            expression=RationalExpression(p, old),
        )
    if new_var.n_terms() > limit:
        raise ResourceLimitExceeded(
            f"cluster variable exceeds {limit} terms (set {MAX_TERMS_ENV} to raise)"
        )
    vars_new = list(node.cluster_vars)
    vars_new[k] = new_var
    return SeedNode(mutate_seed(seed, k), tuple(vars_new), node.depth + 1)


# -- node and seed keys -------------------------------------------------------

def canonical_key(seed):
    """Exact-equality key for a seed: its basis matrix (and fixed data)."""
    return (seed.fixed, seed.basis)


def _relabelings(fixed):
    """Permutations of the unfrozen indices that preserve the symmetrizers,
    as full index orders.  Brute force; meant for small ranks."""
    unf = fixed.unfrozen
    for perm in permutations(unf):
        if any(fixed.d[a] != fixed.d[b] for a, b in zip(unf, perm)):
            continue
        mapping = dict(zip(unf, perm))
        yield [mapping.get(i, i) for i in range(fixed.n)]


def unlabeled_seed_key(seed):
    """Canonical form of (basis, exchange matrix) under simultaneous
    relabelings of the unfrozen indices."""
    n = seed.n
    best = None
    for order in _relabelings(seed.fixed):
        basis = tuple(
            tuple(seed.basis[i, order[j]] for i in range(n)) for j in range(n)
        )
        eps = tuple(
            tuple(seed.eps[order[i], order[j]] for j in range(n)) for i in range(n)
        )
        cand = (basis, eps)
        if best is None or cand < best:
            best = cand
    return best


def _node_key(node, dedup):
    eps = node.seed.eps
    if dedup == "labeled":
        return (eps.data, tuple(v.terms() for v in node.cluster_vars))
    if dedup != "unlabeled":
        raise ValidationError(f"unknown dedup policy {dedup!r}")
    n = node.seed.n
    best = None
    for order in _relabelings(node.seed.fixed):
        eps_p = tuple(tuple(eps[order[i], order[j]] for j in range(n)) for i in range(n))
        vars_p = tuple(node.cluster_vars[order[i]].terms() for i in range(n))
        cand = (eps_p, vars_p)
        if best is None or cand < best:
            best = cand
    return best


@dataclass(frozen=True)
class ExchangeGraph:
    """Deduplicated depth-bounded exchange graph.

    nodes[i] is the first-discovered representative of identity class i;
    edges are (source id, mutation index, target id).
    """

    nodes: tuple
    edges: tuple
    depth: int
    truncated: bool

    def cluster_sets(self):
        """Distinct unordered clusters (sets of variables) among the nodes."""
        out = set()
        for node in self.nodes:
            out.add(frozenset(v.terms() for v in node.cluster_vars))
        return out

    def report(self):
        max_terms = 0
        nonneg = True
        for node in self.nodes:
            for v in node.cluster_vars:
                max_terms = max(max_terms, v.n_terms())
                nonneg = nonneg and v.has_nonnegative_coefficients()
        return {
            "depth": self.depth,
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "clusters": len(self.cluster_sets()),
            "laurent_ok": True,
            "witnesses": [],
            "max_terms": max_terms,
            "nonnegative_coefficients_observed": nonneg,
            "truncated": self.truncated,
        }


def explore(root, depth, dedup="labeled", workers=1, max_terms=None):
    """Breadth-first exploration of the exchange graph to the given depth.

    Deterministic regardless of worker count: each frontier's expansions are
    computed (possibly in a thread pool, in task order) and merged
    sequentially in canonical order.  Hitting a resource cap marks the graph
    truncated instead of failing.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    if isinstance(root, Seed):
        root = root_node(root)
    limit = max_terms_limit(max_terms)
    unfrozen = root.seed.fixed.unfrozen
    nodes = [root]
    ids = {_node_key(root, dedup): 0}
    edges = []
    truncated = False
    frontier = [0]
    for _ in range(depth):
        if not frontier:
            break
        tasks = [(nid, k) for nid in frontier for k in unfrozen]

        def expand(task):
            nid, k = task
            try:
                return nid, k, step(nodes[nid], k, max_terms=limit), None
            except ResourceLimitExceeded as exc:
                return nid, k, None, exc

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(expand, tasks))
        else:
            results = [expand(t) for t in tasks]
        next_frontier = []
        for nid, k, child, exc in results:
            if exc is not None:
                truncated = True
                continue
            key = _node_key(child, dedup)
            cid = ids.get(key)
            if cid is None:
                cid = len(nodes)
                ids[key] = cid
                nodes.append(child)
                next_frontier.append(cid)
            edges.append((nid, k, cid))
        frontier = next_frontier
    return ExchangeGraph(tuple(nodes), tuple(edges), depth, truncated)


# -- depth-bounded Laurent verification ---------------------------------------

def _verify_along_paths(seed, start, apply_step, depth, max_terms):
    """Walk every non-backtracking label path, carrying the expression of the
    starting function on the current seed torus; record Laurent-ness.

    Immediate label repeats are skipped: a double mutation changes the
    expression by an exact linear change of monomial basis, so Laurent-ness
    and term counts are unaffected.
    """
    limit = max_terms_limit(max_terms)
    labels = seed.fixed.unfrozen
    stats = {"paths": 0, "max_terms": 1, "max_degree": 0}
    witnesses = []
    stack = [(seed, start, ())]
    while stack:
        cur_seed, expr, path = stack.pop()
        if len(path) >= depth:
            continue
        for k in sorted(labels, reverse=True):
            if path and k == path[-1]:
                continue
            nxt = apply_step(cur_seed, k, expr)
            nxt_seed = mutate_seed(cur_seed, k)
            as_poly = nxt.as_laurent()
            stats["paths"] += 1
            if as_poly is None:
                witnesses.append({
                    "path": list(path + (k,)),
                    "expression": nxt.to_str(),
                })
            else:
                stats["max_terms"] = max(stats["max_terms"], as_poly.n_terms())
                stats["max_degree"] = max(
                    stats["max_degree"], as_poly.max_abs_exponent()
                )
                if as_poly.n_terms() > limit:
                    raise ResourceLimitExceeded(
                        f"expression exceeds {limit} terms"
                    )
            stack.append((nxt_seed, nxt, path + (k,)))
    return stats, witnesses


def verify_laurent_A(seed, q, depth, max_terms=None):
    """Check that the dual-side monomial z^q stays an exact Laurent
    polynomial on every seed torus within the given mutation depth.

    Precondition: q pairs nonnegatively with every unfrozen basis vector
    (z^q is regular on the A-side toric model of this seed)."""
    q = tuple(q)
    for i in seed.fixed.unfrozen:
        if seed.pair_with_dual(seed.e_vector(i), q) < 0:
            raise PreconditionError(
                f"monomial pairs negatively with basis vector {i}"
            )
    start = RationalExpression.from_monomial(q)
    stats, witnesses = _verify_along_paths(
        seed, start, inverse_pullback_A, depth, max_terms
    )
    return {
        "side": "A",
        "q": list(q),
        "depth": depth,
        "paths_checked": stats["paths"],
        "laurent_ok": not witnesses,
        "witnesses": witnesses,
        "max_terms": stats["max_terms"],
        "max_degree": stats["max_degree"],
    }


def verify_laurent_X(seed, q, depth, max_terms=None):
    """Lattice-side analogue: z^q for q in N, with q pairing nonnegatively
    with every -v_i (z^q regular on the dual-side toric model)."""
    q = tuple(q)
    for i in seed.fixed.unfrozen:
        v = seed.v_vector(i)
        pairing = -seed.pair_with_dual(q, v)
        if pairing < 0:
            raise PreconditionError(
                f"monomial pairs negatively with ray -v_{i}"
            )
    start = RationalExpression.from_monomial(q)
    stats, witnesses = _verify_along_paths(
        seed, start, inverse_pullback_X, depth, max_terms
    )
    return {
        "side": "X",
        "q": list(q),
        "depth": depth,
        "paths_checked": stats["paths"],
        "laurent_ok": not witnesses,
        "witnesses": witnesses,
        "max_terms": stats["max_terms"],
        "max_degree": stats["max_degree"],
    }
