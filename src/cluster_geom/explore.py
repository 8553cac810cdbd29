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
quotients by simultaneous relabelings of the unfrozen indices that keep the
symmetrizers.  The cluster variables of a seed are algebraically independent
(Fomin and Zelevinsky, "Cluster algebras I"), hence pairwise distinct, so
sorting the unfrozen indices by (symmetrizer, variable) fixes the one
relabeling that can match; the key is the node permuted by that sort.

Within one explore call every cluster variable is one object: a variable
equal to one already found is replaced by it, and each object has a rank,
the order in which its value was first found.  Node keys hold ranks, not
terms.  Each exchange relation is solved once: the new variable depends
only on the old variable and the variables that row k touches, with their
exponents, up to one sign for all of them, and not on k or the labels.  A
repeat of that data, and the backtracking step that reverses a solved
relation, reuse the variable and compute only the child's exchange matrix,
by the three-case rule on its rows; with the ranks that gives the child's
key.  A seed (basis, checked exchange matrix, path) is built only for a
child that is a new node, or by the step that solves a relation, so every
stored node holds a real seed and a repeat edge builds none.  A mutated
exchange matrix is again skew-symmetrizable with the same d (Fomin and
Zelevinsky, Prop. 4.5), so the unchecked rule serves the key.

Everything runs serially in one thread: the work is pure Python and holds
the GIL, so threads cannot speed it up.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LaurentViolation,
    PreconditionError,
    ResourceLimitExceeded,
    ValidationError,
)
from .laurent import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    LaurentPolynomial,
    RationalExpression,
    exact_divide,
    inverse_pullback_A,
    inverse_pullback_X,
    max_terms_limit,
)
from .seeds import Seed, _mutated_rows, mutate_seed


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
    """prod_j vars_j^[eps_kj]_+  +  prod_j vars_j^[-eps_kj]_+ .

    In each product the single-term factors are folded into one exponent
    vector and one coefficient, applied by one shift (or one monomial when
    no other factor is left), so powers and products run only on factors
    with more than one term.  A factor whose exponents alone reach the bound
    raises ExponentOverflow, as its power would."""
    n = node.seed.n
    products = [None, None]  # the factors with more than one term
    shifts = [[0] * n, [0] * n]
    coeffs = [1, 1]
    for v, e in zip(node.cluster_vars, node.seed.eps.row(k)):
        if not e:
            continue
        side = e < 0
        e = abs(e)
        if v.n_terms() == 1:
            ((m, c),) = v.items()
            top = e * max(map(abs, m), default=0)
            if top >= EXPONENT_LIMIT:
                raise ExponentOverflow(f"exponent {top} exceeds the supported range")
            shifts[side] = [x + e * y for x, y in zip(shifts[side], m)]
            coeffs[side] *= c ** e
        else:
            f = v ** e
            p = products[side]
            products[side] = f if p is None else p * f
    halves = []
    for p, exps, c in zip(products, shifts, coeffs):
        if p is None:
            halves.append(LaurentPolynomial.monomial(exps, c))
        else:
            p = p.shift(exps)
            halves.append(p if c == 1 else p * c)
    return halves[0] + halves[1]


def step(node, k, max_terms=None):
    """Mutate a node at index k via the exchange relation."""
    seed = node.seed
    if k in seed.fixed.frozen:
        raise ValidationError(f"cannot mutate at frozen index {k}")
    p = exchange_polynomial(node, k)
    old = node.cluster_vars[k]
    new_var = exact_divide(p, old, max_terms_limit(max_terms))
    if new_var is None:
        raise LaurentViolation(
            f"exchange relation at index {k} failed exact division",
            path=seed.path + (k,),
            expression=RationalExpression(p, old),
        )
    return _exchanged(node, k, new_var)


def _exchanged(node, k, new_var):
    """The child of a node at index k, whose k-th variable is new_var."""
    vars_new = list(node.cluster_vars)
    vars_new[k] = new_var
    return SeedNode(mutate_seed(node.seed, k), tuple(vars_new), node.depth + 1)


# -- node keys ---------------------------------------------------------------

def _node_key(eps, fixed, ranks, dedup):
    """(exchange matrix rows, per-index variable ranks), permuted in
    unlabeled mode by the sort of the unfrozen indices by (d_i, rank) into
    the unfrozen positions, themselves sorted by d; frozen indices stay.

    ranks[i] stands for the value of the i-th variable: equal ranks for
    equal values, distinct ranks for distinct ones."""
    if dedup == "labeled":
        return (eps, ranks)
    if dedup != "unlabeled":
        raise ValidationError(f"unknown dedup policy {dedup!r}")
    d = fixed.d
    ranked = sorted(fixed.unfrozen, key=lambda i: (d[i], ranks[i]))
    for a, b in zip(ranked, ranked[1:]):
        if d[a] == d[b] and ranks[a] == ranks[b]:
            raise ValidationError(
                f"cluster variables {a} and {b} are equal, so the node has no "
                "canonical relabeling"
            )
    order = list(range(fixed.n))
    for pos, i in zip(sorted(fixed.unfrozen, key=d.__getitem__), ranked):
        order[pos] = i
    return (
        tuple(tuple(eps[a][b] for b in order) for a in order),
        tuple(ranks[a] for a in order),
    )


@dataclass(frozen=True)
class ExchangeGraph:
    """Deduplicated depth-bounded exchange graph.

    nodes[i] is the first-discovered representative of identity class i;
    edges are (source id, mutation index, target id).  explore builds one
    object per variable value, shared by every node that holds the value,
    so report() reads each variable once and compares them by identity.
    """

    nodes: tuple
    edges: tuple
    depth: int
    truncated: bool

    def report(self):
        variables = {
            id(v): v for node in self.nodes for v in node.cluster_vars
        }.values()
        clusters = {frozenset(map(id, node.cluster_vars)) for node in self.nodes}
        return {
            "depth": self.depth,
            "nodes": len(self.nodes),
            "edges": len(self.edges),
            "clusters": len(clusters),
            "laurent_ok": True,
            "witnesses": [],
            "max_terms": max((v.n_terms() for v in variables), default=0),
            "nonnegative_coefficients_observed": all(
                v.has_nonnegative_coefficients() for v in variables
            ),
            "truncated": self.truncated,
        }


def explore(root, depth, dedup="labeled", max_terms=None):
    """Breadth-first exploration of the exchange graph to the given depth.

    Each frontier is expanded serially, node by node and index by index, and
    every child is merged as soon as it is computed, so the result is
    deterministic.  Hitting a resource cap marks the graph truncated instead
    of failing.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if isinstance(root, Seed):
        root = root_node(root)
    limit = max_terms_limit(max_terms)
    fixed = root.seed.fixed
    unfrozen = fixed.unfrozen
    variables = []  # rank -> the one object with that value
    rank_of = {}  # terms -> rank

    def intern(v):
        """The rank of v's value; v stands for the value if it is new."""
        rank = rank_of.setdefault(v.terms(), len(variables))
        if rank == len(variables):
            variables.append(v)
        return rank

    root_ranks = tuple(map(intern, root.cluster_vars))
    root = SeedNode(root.seed, tuple(variables[r] for r in root_ranks), root.depth)
    nodes = [root]
    ranks_of = [root_ranks]  # node id -> ranks of its variables
    ids = {_node_key(root.seed.eps.data, fixed, root_ranks, dedup): 0}
    edges = []
    truncated = False
    frontier = [0]
    # (rank of old, relation) -> rank of new, where the relation is the
    # rank-sorted (rank, exponent) pairs of the nonzero entries of row k,
    # negated if the first exponent is negative: the exchange polynomial is
    # symmetric in its two monomials.  A seed's variables are distinct, so
    # negating keeps the sort order.
    solved = {}
    for _ in range(depth):
        if not frontier:  # the graph is complete; deeper levels add nothing
            break
        next_frontier = []
        for nid in frontier:
            node, ranks = nodes[nid], ranks_of[nid]
            eps = node.seed.eps.data
            for k in unfrozen:
                relation = sorted((ranks[j], e) for j, e in enumerate(eps[k]) if e)
                if relation and relation[0][1] < 0:
                    relation = [(r, -e) for r, e in relation]
                relation = tuple(relation)
                new = solved.get((ranks[k], relation))
                if new is None:
                    try:
                        child = step(node, k, max_terms=limit)
                    except ResourceLimitExceeded:
                        truncated = True
                        continue
                    var = child.cluster_vars[k]
                    new = intern(var)
                    if var is not variables[new]:  # found before, elsewhere
                        vars_new = list(child.cluster_vars)
                        vars_new[k] = variables[new]
                        child = SeedNode(child.seed, tuple(vars_new), child.depth)
                    # row k of the child's matrix is minus row k, which
                    # gives the same relation
                    solved[(ranks[k], relation)] = new
                    solved[(new, relation)] = ranks[k]
                    child_eps = child.seed.eps.data
                else:
                    # the seed is built only if the child is a new node
                    child = None
                    child_eps = _mutated_rows(eps, k)
                child_ranks = ranks[:k] + (new,) + ranks[k + 1:]
                key = _node_key(child_eps, fixed, child_ranks, dedup)
                cid = ids.get(key)
                if cid is None:
                    if child is None:
                        child = _exchanged(node, k, variables[new])
                    cid = len(nodes)
                    ids[key] = cid
                    nodes.append(child)
                    ranks_of.append(child_ranks)
                    next_frontier.append(cid)
                edges.append((nid, k, cid))
        frontier = next_frontier
    return ExchangeGraph(tuple(nodes), tuple(edges), depth, truncated)


# -- depth-bounded Laurent verification ---------------------------------------

def _verify_along_paths(seed, side, q, apply_step, depth, max_terms):
    """Walk every non-backtracking label path, carrying the expression of the
    monomial z^q on the current seed torus; report Laurent-ness.

    Immediate label repeats are skipped: a double mutation changes the
    expression by an exact linear change of monomial basis, so Laurent-ness
    and term counts are unaffected.  Paths of full length are checked but
    not extended, so their seeds are never mutated.  A path is extended with
    the reduced Laurent polynomial when the step's result is Laurent (the
    Laurent form is unique, so the reports do not change) and with the
    unreduced fraction otherwise.  The pullbacks twist a Laurent polynomial
    line by line and return it reduced, so a Laurent step divides no
    fraction; after a witness its fraction takes monomial_twist's general
    route.  A path is carried as its seed, whose path mutate_seed extends by
    a parent link, and spelled out only for a witness.
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    limit = max_terms_limit(max_terms)
    labels = sorted(seed.fixed.unfrozen, reverse=True)
    paths = 0
    max_terms_seen = 1
    max_degree = 0
    witnesses = []
    stack = [(seed, RationalExpression.from_monomial(q), 0, None)] if depth > 0 else []
    while stack:
        cur_seed, expr, length, last = stack.pop()
        extend = length + 1 < depth
        for k in labels:
            if k == last:
                continue
            nxt = apply_step(cur_seed, k, expr)
            as_poly = nxt.as_laurent(limit)
            paths += 1
            if as_poly is None:
                witnesses.append({
                    "path": [*cur_seed.path[len(seed.path):], k],
                    "expression": nxt.to_str(),
                })
            else:
                max_terms_seen = max(max_terms_seen, as_poly.n_terms())
                max_degree = max(max_degree, as_poly.max_abs_exponent())
            if extend:
                carried = nxt if as_poly is None else as_poly
                stack.append((mutate_seed(cur_seed, k), carried, length + 1, k))
    return {
        "side": side,
        "q": list(q),
        "depth": depth,
        "paths_checked": paths,
        "laurent_ok": not witnesses,
        "witnesses": witnesses,
        "max_terms": max_terms_seen,
        "max_degree": max_degree,
    }


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
    return _verify_along_paths(seed, "A", q, inverse_pullback_A, depth, max_terms)


def verify_laurent_X(seed, q, depth, max_terms=None):
    """Lattice-side analogue: z^q for q in N, with q pairing nonnegatively
    with every -v_i (z^q regular on the dual-side toric model)."""
    q = tuple(q)
    for i in seed.fixed.unfrozen:
        if seed.pair_with_dual(q, seed.v_vector(i)) > 0:
            raise PreconditionError(
                f"monomial pairs negatively with ray -v_{i}"
            )
    return _verify_along_paths(seed, "X", q, inverse_pullback_X, depth, max_terms)
