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
key.  A mutated exchange matrix is again skew-symmetrizable with the same
d (Fomin and Zelevinsky, Prop. 4.5), so the unchecked rule serves the key,
and no key, relation or report field reads a basis.  The step that
solves a relation makes its child's seed by the checked mutate_seed; a
new node that a repeat edge finds gets its seed by the unchecked mutation,
from the rows its key was made of; a repeat edge to a known node makes no
seed.  A mutated seed builds its basis only when the basis is first read
(see seeds.Seed), so explore builds none.

A relation that is solved is also solved for its images under the signed
symmetries of the root: the index permutations s that map frozen indices
to frozen ones and have one sign t with eps[s(i)][s(j)] = t eps[i][j].
Renaming x_i to x_s(i) is a ring automorphism s* of the Laurent ring, so it
maps the true relation new * old = P+ + P- to a true relation, with old,
new and the variables of P+- replaced by their images; the sign t only
swaps P+ and P-.  The memo records that image relation with s*(new), and
no division takes place for it.  This holds for every permutation, so a
symmetry that the search misses only shares less, and a permutation that
is not a symmetry changes no answer.  A symmetry maps label paths from the
root to label paths of the same length, so every image is a relation that
the search meets at the same depth anyway from a root made by root_node,
whose variables s* maps as s maps its indices.  From any other root an
image is still a true relation, so explore uses every generator found.
s* keeps term counts, so a relation that passes the term cap is never
solved, and each of its images passes it too when it is met.

Everything runs serially in one thread: the work is pure Python and holds
the GIL, so threads cannot speed it up.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import (
    LaurentViolation,
    PreconditionError,
    Record,
    ResourceLimitExceeded,
    ValidationError,
    as_tuple,
    is_int,
)
from .laurent import (
    LaurentPolynomial,
    RationalExpression,
    exact_divide,
    inverse_pullback_A,
    inverse_pullback_X,
    max_terms_limit,
    step_twist,
)
from .seeds import Seed, _mutated_rows, _mutated_seed, mutate_seed


class SeedNode(Record):
    """A seed together with its cluster variables written in the initial
    variables, and its depth.  A step from a node checks that the new
    variable is a genuine Laurent polynomial (the division is exact); a
    node that explore keeps on a repeat edge takes its variable from the
    step that solved the same relation.  `rows` are the rows of the seed's
    exchange matrix."""

    __slots__ = ("seed", "cluster_vars", "depth")

    def __init__(self, seed, cluster_vars, depth=0):
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "cluster_vars", cluster_vars)
        object.__setattr__(self, "depth", depth)

    def __repr__(self):
        return f"SeedNode(depth={self.depth}, rows={self.rows!r})"

    @property
    def rows(self):
        return self.seed.eps.data


def root_node(seed):
    n = seed.n
    return SeedNode(
        seed, tuple(LaurentPolynomial.variable(n, i) for i in range(n)), 0
    )


def exchange_polynomial(node, k):
    """prod_j vars_j^[eps_kj]_+  +  prod_j vars_j^[-eps_kj]_+ : each side is
    the product of v ** |e| over the entries e of row k with that sign, or 1
    if there are none.  __pow__ returns a factor itself at exponent 1 and
    __mul__ shifts by a single-term factor, so those need no route of their
    own.  A factor that reaches the exponent bound raises ExponentOverflow
    from the frame test of the product that forms it."""
    sides = [None, None]  # the products of the positive and negative parts
    for v, e in zip(node.cluster_vars, node.rows[k]):
        if e:
            f = v ** abs(e)
            p = sides[e < 0]
            sides[e < 0] = f if p is None else p * f
    one = LaurentPolynomial.one(len(node.rows))
    plus, minus = (one if p is None else p for p in sides)
    return plus + minus


def step(node, k, max_terms=None):
    """Mutate a node at index k via the exchange relation.  The index is
    checked, by mutate_seed, before any other work."""
    seed = mutate_seed(node.seed, k)
    p = exchange_polynomial(node, k)
    old = node.cluster_vars[k]
    new_var = exact_divide(p, old, max_terms_limit(max_terms))
    if new_var is None:
        raise LaurentViolation(
            f"exchange relation at index {k} failed exact division",
            path=seed.path,
            expression=RationalExpression(p, old),
        )
    return _exchanged(node, k, new_var, seed)


def _exchanged(node, k, new_var, seed):
    """The child of a node at index k, with the given seed, whose k-th
    variable is new_var."""
    vars_new = list(node.cluster_vars)
    vars_new[k] = new_var
    return SeedNode(seed, tuple(vars_new), node.depth + 1)


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


# -- signed symmetries of the root --------------------------------------------

# The candidate tests that the symmetry search may make, per squared rank.
_SYMMETRY_BUDGET = 64


def _symmetry_generators(eps, frozen):
    """Generators of the group of index permutations s, each as the tuple
    (s(0), ..., s(n-1)), that map frozen indices to frozen ones and have one
    sign t = +-1 with eps[s(i)][s(j)] = t eps[i][j] for all i, j.  The
    search makes at most _SYMMETRY_BUDGET * n^2 candidate tests and returns
    the generators found by then."""
    return _symmetry_search(eps, frozen, _SYMMETRY_BUDGET * len(eps) ** 2)[0]


def _symmetry_search(eps, frozen, budget):
    """(generators, candidate tests made), by a stabilizer chain: for i from
    n - 1 down to 0, and for each c > i outside the orbit of i under the
    generators found so far, search for one symmetry that fixes 0..i-1 and
    sends i to c.  Unless the budget runs out, the generators found from
    level i on generate the symmetries that fix 0..i-1: they lie in that
    group, contain generators of the stabilizer of 0..i, and move i across
    its whole orbit.

    The search extends a partial map index by index.  The candidates for
    s(j) are the indices of j's kind (frozen or not) whose sorted row is
    sorted(t row j), and a candidate test checks one candidate against
    every index mapped so far.  Once `budget` tests are spent the search
    stops and keeps what it found."""
    n = len(eps)
    frozen = set(frozen)
    kind = {}  # (frozen, sorted row) -> indices
    for i, row in enumerate(eps):
        kind.setdefault((i in frozen, tuple(sorted(row))), []).append(i)
    candidates = {
        t: [kind.get((j in frozen, tuple(sorted(t * x for x in row))), ())
            for j, row in enumerate(eps)]
        for t in (1, -1)
    }
    cols = tuple(zip(*eps))
    generators = []
    tests = 0

    def fits(s, x, t):
        """Whether index len(s) may map to x, given the images s of the
        indices before it; False once the budget is spent."""
        nonlocal tests
        if tests == budget:
            return False
        tests += 1
        j = len(s)
        row, col, image_row, image_col = eps[j], cols[j], eps[x], cols[x]
        # the diagonal of a skew-symmetrizable matrix is zero
        return all(
            image_row[y] == t * row[a] and image_col[y] == t * col[a]
            for a, y in enumerate(s)
        )

    def complete(s, t):
        """The symmetry with sign t that extends s, or None."""
        if len(s) == n:
            return tuple(s)
        for x in candidates[t][len(s)]:
            if x not in s and fits(s, x, t):
                found = complete(s + [x], t)
                if found:
                    return found
        return None

    for i in range(n - 1, -1, -1):
        orbit = {i}
        # a symmetry that fixes 0..i-1 has the sign -1 only if eps vanishes
        # on them
        zero = not any(eps[a][b] for a in range(i) for b in range(i))
        for c in range(i + 1, n):
            if c in orbit:
                continue
            for t in (1, -1) if zero else (1,):
                s = list(range(i))
                if c in candidates[t][i] and fits(s, c, t):
                    found = complete(s + [c], t)
                    if found:
                        generators.append(found)
                        orbit = _orbit(i, generators)
                        break
            if tests == budget:
                return generators, tests
    return generators, tests


def _orbit(i, generators):
    orbit = {i}
    todo = [i]
    while todo:
        x = todo.pop()
        for g in generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                todo.append(g[x])
    return orbit


def _record(solved, movers, old, relation, new):
    """Record in the memo that the relation turns the variable of rank old
    into the one of rank new, and the same for each image of it under the
    symmetries.  The child's row k is minus the parent's, which gives the
    same relation, so each is recorded both ways.  An image's new variable
    is moved only if the image is not solved yet."""
    solved[(old, relation)] = new
    solved[(new, relation)] = old
    todo = [(old, relation, new)]
    while todo:
        old, relation, new = todo.pop()
        for move in movers:
            old_image = move(old)
            image = _relation((move(r), e) for r, e in relation)
            if (old_image, image) not in solved:
                new_image = move(new)
                solved[(old_image, image)] = new_image
                solved[(new_image, image)] = old_image
                todo.append((old_image, image, new_image))


def _relation(pairs):
    """The rank-sorted (rank, exponent) pairs of a relation, negated if the
    first exponent is negative: the exchange polynomial is symmetric in its
    two monomials.  A seed's variables are distinct, so negating keeps the
    sort order."""
    relation = sorted(pairs)
    if relation and relation[0][1] < 0:
        relation = [(r, -e) for r, e in relation]
    return tuple(relation)


class ExchangeGraph(Record):
    """Deduplicated depth-bounded exchange graph.

    nodes[i] is the first-discovered representative of identity class i;
    edges are (source id, mutation index, target id).  explore builds one
    object per variable value, shared by every node that holds the value,
    so report() reads each variable once and compares them by identity.
    """

    __slots__ = ("nodes", "edges", "depth", "truncated")

    def __init__(self, nodes, edges, depth, truncated):
        super().__init__(nodes, edges, depth, truncated)

    def report(self):
        """The graph's summary, as `explore` prints it.  A failed exact
        division raises LaurentViolation out of explore, so no graph that
        broke Laurentness is reported.  "laurent_ok" is always True and
        "witnesses" always [], yet both keys stay: perfbench/oracles.py
        reads both, and ROADMAP item 7 decides their future."""
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


def _check_depth(depth):
    if not is_int(depth) or depth < 0:
        raise ValidationError(f"depth must be a nonnegative integer, got {depth!r}")


def explore(root, depth, dedup="labeled", max_terms=None):
    """Breadth-first exploration of the exchange graph to the given depth.

    Each frontier is expanded serially, node by node and index by index, and
    every child is merged as soon as it is computed, so the result is
    deterministic.  Hitting a resource cap marks the graph truncated instead
    of failing.
    """
    _check_depth(depth)
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
    ids = {_node_key(root.rows, fixed, root_ranks, dedup): 0}
    edges = []
    truncated = False
    frontier = [0]
    # (rank of old, relation) -> rank of new, where the relation is
    # _relation of the (rank, exponent) pairs of the nonzero entries of row k
    solved = {}

    def mover(g):
        """rank -> rank of g*(variable), where g* renames x_i to x_g(i);
        each image is computed once."""
        exponents = itemgetter(*[g.index(j) for j in range(fixed.n)])
        images = {}

        def move(rank):
            image = images.get(rank)
            if image is None:
                v = variables[rank]
                image = images[rank] = intern(LaurentPolynomial._raw(
                    v.nvars, {exponents(m): c for m, c in v.items()}
                ))
            return image
        return move

    movers = [mover(g) for g in _symmetry_generators(root.rows, fixed.frozen)]
    for _ in range(depth):
        if not frontier:  # the graph is complete; deeper levels add nothing
            break
        next_frontier = []
        for nid in frontier:
            node, ranks = nodes[nid], ranks_of[nid]
            eps = node.rows
            for k in unfrozen:
                relation = _relation((ranks[j], e) for j, e in enumerate(eps[k]) if e)
                new = solved.get((ranks[k], relation))
                if new is None:
                    try:
                        child = step(node, k, max_terms=limit)
                    except ResourceLimitExceeded:
                        truncated = True
                        continue
                    seed = child.seed
                    new = intern(child.cluster_vars[k])
                    _record(solved, movers, ranks[k], relation, new)
                    child_eps = child.rows
                else:  # a repeat edge: a seed only for a kept child
                    seed = None
                    child_eps = _mutated_rows(eps, k)
                child_ranks = ranks[:k] + (new,) + ranks[k + 1:]
                key = _node_key(child_eps, fixed, child_ranks, dedup)
                cid = ids.get(key)
                if cid is None:
                    cid = len(nodes)
                    ids[key] = cid
                    if seed is None:
                        seed = _mutated_seed(node.seed, k, child_eps)
                    nodes.append(_exchanged(node, k, variables[new], seed))
                    ranks_of.append(child_ranks)
                    next_frontier.append(cid)
                edges.append((nid, k, cid))
        frontier = next_frontier
    return ExchangeGraph(tuple(nodes), tuple(edges), depth, truncated)


# -- depth-bounded Laurent verification ---------------------------------------

def _verify_along_paths(seed, side, q, apply_step, depth, max_terms):
    """Walk every non-backtracking label path, carrying the Laurent
    polynomial of the monomial z^q on the current seed torus.

    Immediate label repeats are skipped: a double mutation changes the
    expression by an exact linear change of monomial basis, so Laurent-ness
    and term counts are unaffected.  Paths of full length are checked but
    not extended, so their seeds are never mutated.  The pullbacks twist a
    Laurent polynomial line by line and return it over the denominator 1,
    so each step's one as_laurent divides no fraction.  By the Laurent
    phenomenon only a bug makes a step's result non-Laurent; that raises
    LaurentViolation with the path from the walk's seed, as step does.  A
    path is carried as its seed, whose path mutate_seed extends by a parent
    link.

    Many paths meet the same polynomial, and a step's twist is the same
    computation wherever its key meets again: step_twist(seed, k, side)
    reads only the walk's fixed data, d_k and e_k = seed.e_vector(k), so
    apply_step is a function of (polynomial, d_k, e_k), compared by exact
    equality, and the walk keeps its reduced result with the term count
    and largest |exponent| under that key.  No theorem is assumed.  Paths,
    term counts and degrees are still tallied per step, so the report is
    unchanged, and a violation or a term cap can only stop a step that
    computes, so it stops the walk at the same first path as without the
    memo.  To keep memory flat on walks that never repeat, a polynomial's
    results are stored only when its hash was met before: one set of ints
    holds the hashes, each state's hash is taken once, and polynomials
    that share a hash (frozenset hashes of exponent vectors do collide)
    are told apart by equality within the hash's bucket.

    "laurent_ok" is always True and "witnesses" always [], yet both keys
    stay: perfbench/oracles.py reads both, and ROADMAP item 7 decides their
    future.
    """
    _check_depth(depth)
    limit = max_terms_limit(max_terms)
    d = seed.fixed.d
    labels = sorted(seed.fixed.unfrozen, reverse=True)

    def twist(cur_seed, k, poly):
        nxt = apply_step(cur_seed, k, poly)
        reduced = nxt.as_laurent(limit)
        if reduced is None:
            raise LaurentViolation(
                f"side {side} pullback at index {k} is not Laurent",
                path=cur_seed.path[len(seed.path):] + (k,),
                expression=nxt,
            )
        return reduced, reduced.n_terms(), reduced.max_abs_exponent()

    paths = 0
    max_terms_seen = 1
    max_degree = 0
    seen = set()  # hashes of the polynomials met so far
    memo = {}  # hash -> [(polynomial, {(d_k, e_k): its twist}), ...]
    stack = [(seed, LaurentPolynomial.monomial(q), 0, None)] if depth > 0 else []
    while stack:
        cur_seed, poly, length, last = stack.pop()
        extend = length + 1 < depth
        h = hash(poly)
        twists = None
        if h in seen:
            bucket = memo.setdefault(h, [])
            twists = next((t for p, t in bucket if p == poly), None)
            if twists is None:
                twists = {}
                bucket.append((poly, twists))
        else:
            seen.add(h)
        for k in labels:
            if k == last:
                continue
            paths += 1
            if twists is None:
                reduced, terms, degree = twist(cur_seed, k, poly)
            else:
                key = (d[k], cur_seed.e_vector(k))
                found = twists.get(key)
                if found is None:
                    found = twists[key] = twist(cur_seed, k, poly)
                reduced, terms, degree = found
            max_terms_seen = max(max_terms_seen, terms)
            max_degree = max(max_degree, degree)
            if extend:
                stack.append((mutate_seed(cur_seed, k), reduced, length + 1, k))
    return {
        "side": side,
        "q": list(q),
        "depth": depth,
        "paths_checked": paths,
        "laurent_ok": True,
        "witnesses": [],
        "max_terms": max_terms_seen,
        "max_degree": max_degree,
    }


def _regular_monomial(seed, q, side, paired):
    """q as a tuple of seed.n ints at which each unfrozen step's form on the
    side (see step_twist) is >= 0; paired names the step's vector."""
    q = as_tuple(q, f"exponent vector entries must be integers, got {q!r}")
    if len(q) != seed.n:
        raise ValidationError(f"exponent vector has length {len(q)}, expected {seed.n}")
    if not all(map(is_int, q)):
        raise ValidationError(f"exponent vector entries must be integers, got {q!r}")
    for i in seed.fixed.unfrozen:
        if step_twist(seed, i, side)[1](q) < 0:
            raise PreconditionError(f"monomial pairs negatively with {paired}{i}")
    return q


def verify_laurent_A(seed, q, depth, max_terms=None):
    """Check that the dual-side monomial z^q stays an exact Laurent
    polynomial on every seed torus within the given mutation depth.

    Precondition: each unfrozen step's A-side form m -> <d_i e_i, m> (see
    step_twist) is >= 0 at q: z^q is regular on this seed's toric model."""
    q = _regular_monomial(seed, q, "A", "basis vector ")
    return _verify_along_paths(seed, "A", q, inverse_pullback_A, depth, max_terms)


def verify_laurent_X(seed, q, depth, max_terms=None):
    """Lattice-side analogue: z^q for q in N, with each unfrozen step's
    X-side form >= 0 at q (z^q regular on the dual-side toric model)."""
    q = _regular_monomial(seed, q, "X", "ray -v_")
    return _verify_along_paths(seed, "X", q, inverse_pullback_X, depth, max_terms)
