import importlib
import random
from itertools import permutations
from math import gcd, lcm

import pytest
from test_acceptance import random_symmetrizable_seed

from cluster_geom.errors import (
    ClusterGeomError,
    PreconditionError,
    ResourceLimitExceeded,
    ValidationError,
)
from cluster_geom.explore import (
    SeedNode,
    _node_key,
    _verify_along_paths,
    exchange_polynomial,
    explore,
    root_node,
    step,
    verify_laurent_A,
    verify_laurent_X,
)
from cluster_geom.intmat import Matrix, kernel_basis
from cluster_geom.laurent import (
    MAX_TERMS_ENV,
    ExponentOverflow,
    LaurentPolynomial,
    RationalExpression,
    inverse_pullback_A,
    max_terms_limit,
    pullback_A,
)
from cluster_geom.rank2 import Rank2Data, build_seed
from cluster_geom.seeds import epsilon_from_basis, mutate_seed, seed_from_epsilon
from golden_cases import NINE_RAY

LP = LaurentPolynomial
# the module, which the package's `explore` function shadows as an attribute
explore_module = importlib.import_module("cluster_geom.explore")

A2 = [[0, 1], [-1, 0]]
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
CYCLE4 = [[0, 2, 0, -2], [-2, 0, 2, 0], [0, -2, 0, 2], [2, 0, -2, 0]]
D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
A5 = [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0],
      [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]]
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
# type B3: skew [[0,1,0],[-1,0,1],[0,-1,0]] with d = (1, 1, 2)
B3 = [[0, 1, 0], [-1, 0, 2], [0, -1, 0]]


def a2_root():
    return root_node(seed_from_epsilon(A2))


def _key(node, ranks, dedup):
    """explore's key of a node whose variables have the given ranks."""
    return _node_key(node.seed.eps.data, node.seed.fixed, ranks, dedup)


def _ranks(node, rank_of):
    """The ranks of a node's variables, numbering values in the order they
    are first seen through rank_of (a dict from terms to rank), as explore
    numbers them."""
    return tuple(
        rank_of.setdefault(v.terms(), len(rank_of)) for v in node.cluster_vars
    )


# The five A2 cluster variables, frozen from hand-iterating the exchange
# relation: A0, A1, (1+A1)/A0, (1+A0+A1)/(A0 A1), (1+A0)/A1.
A2_VARS = [
    LP(2, {(1, 0): 1}),
    LP(2, {(0, 1): 1}),
    LP(2, {(-1, 0): 1, (-1, 1): 1}),
    LP(2, {(-1, -1): 1, (0, -1): 1, (-1, 0): 1}),
    LP(2, {(0, -1): 1, (1, -1): 1}),
]


class TestStep:
    def test_a2_first_mutation(self):
        node = step(a2_root(), 0)
        assert node.cluster_vars[0] == A2_VARS[2]
        assert node.cluster_vars[1] == A2_VARS[1]
        assert node.depth == 1

    def test_a2_second_mutation(self):
        node = step(step(a2_root(), 0), 1)
        assert node.cluster_vars[1] == A2_VARS[3]

    def test_involution_on_variables(self):
        node = a2_root()
        back = step(step(node, 0), 0)
        assert back.cluster_vars == node.cluster_vars

    def test_resource_cap(self):
        node = root_node(seed_from_epsilon(MARKOV))
        with pytest.raises(ResourceLimitExceeded):
            n = node
            for _ in range(12):
                n = step(n, 0, max_terms=5)
                n = step(n, 1, max_terms=5)
                n = step(n, 2, max_terms=5)


class TestLimits:
    def test_term_cap_must_be_positive(self, monkeypatch):
        monkeypatch.delenv(MAX_TERMS_ENV, raising=False)
        assert max_terms_limit(1) == 1
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                max_terms_limit(bad)
        monkeypatch.setenv(MAX_TERMS_ENV, "0")
        with pytest.raises(ValidationError):
            max_terms_limit()
        monkeypatch.setenv(MAX_TERMS_ENV, "7")
        assert max_terms_limit() == 7

    def test_exchange_polynomial_without_negative_part(self):
        # row 0 of A2 is (0, 1): the product over negative entries is empty
        assert exchange_polynomial(a2_root(), 0) == LP(2, {(0, 1): 1, (0, 0): 1})


class TestA2Periodicity:
    def test_five_clusters_then_repeat(self):
        node = a2_root()
        seen = []
        for t in range(10):
            k = t % 2
            node = step(node, k)
            cluster = frozenset(v.terms() for v in node.cluster_vars)
            seen.append(cluster)
        initial = frozenset(v.terms() for v in a2_root().cluster_vars)
        distinct = {initial} | set(seen)
        assert len(distinct) == 5
        # the walk returns to the initial cluster after five cluster changes
        assert seen[3] == initial or seen[4] == initial

    def test_variable_set_is_the_classical_one(self):
        node = a2_root()
        produced = {v.terms() for v in node.cluster_vars}
        for t in range(10):
            node = step(node, t % 2)
            produced |= {v.terms() for v in node.cluster_vars}
        assert produced == {v.terms() for v in A2_VARS}

    def test_node_key_period_ten(self):
        # labeled identity = (exchange matrix, cluster variables): the
        # alternating walk first repeats after ten steps
        node = a2_root()
        rank_of = {}
        keys = [_key(node, _ranks(node, rank_of), "labeled")]
        for t in range(20):
            node = step(node, t % 2)
            keys.append(_key(node, _ranks(node, rank_of), "labeled"))
        first_repeat = next(
            t for t in range(1, 21) if keys[t] == keys[0]
        )
        assert first_repeat == 10


class TestExplore:
    def test_depth_zero(self):
        g = explore(a2_root(), 0)
        assert len(g.nodes) == 1
        assert len(g.edges) == 0

    def test_rank_zero(self):
        # no variables: one node, one empty cluster, no terms
        rep = explore(seed_from_epsilon([]), 2).report()
        assert (rep["nodes"], rep["clusters"], rep["max_terms"]) == (1, 1, 0)

    def test_a2_labeled_graph_is_ten_cycle(self):
        g = explore(a2_root(), 12)
        assert len(g.nodes) == 10
        assert g.report()["clusters"] == 5
        # every node has exactly two distinct neighbours
        neighbours = {i: set() for i in range(len(g.nodes))}
        for u, _, v in g.edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        assert all(len(s) == 2 for s in neighbours.values())

    def test_a2_unlabeled_pentagon(self):
        g = explore(a2_root(), 12, dedup="unlabeled")
        assert len(g.nodes) == 5
        assert g.report()["clusters"] == 5

    def test_edges_involutive(self):
        g = explore(root_node(seed_from_epsilon(MARKOV)), 3)
        rank_of = {}

        def key(node):
            return _key(node, _ranks(node, rank_of), "labeled")

        key_to_id = {key(n): i for i, n in enumerate(g.nodes)}
        for u, k, v in g.edges:
            assert key_to_id[key(step(g.nodes[v], k))] == u

    def test_markov_depth3_laurent_and_positive(self):
        g = explore(root_node(seed_from_epsilon(MARKOV)), 3)
        rep = g.report()
        assert rep["laurent_ok"]
        assert rep["nonnegative_coefficients_observed"]
        assert not rep["truncated"]


class TestFrozenCoefficients:
    def test_frozen_variables_enter_exchange_but_never_mutate(self):
        seed = seed_from_epsilon(
            [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], frozen={2}
        )
        node = root_node(seed)
        stepped = step(node, 0)
        # P_0 = A_1 A_2 + 1, so the new first variable is (1 + A_1 A_2)/A_0
        assert stepped.cluster_vars[0] == LP(3, {(-1, 1, 1): 1, (-1, 0, 0): 1})
        assert stepped.cluster_vars[2] == node.cluster_vars[2]
        g = explore(node, 4)
        assert g.report()["laurent_ok"]
        for n in g.nodes:
            assert n.cluster_vars[2] == node.cluster_vars[2]

    def test_principal_double_exploration(self):
        from cluster_geom.seeds import principal_double
        ps = principal_double(seed_from_epsilon(A2))
        g = explore(root_node(ps.seed), 6)
        rep = g.report()
        assert rep["laurent_ok"]
        # with principal coefficients the alternating walk still closes up
        assert rep["clusters"] == 5
        # coefficient variables are never inverted or changed
        for n in g.nodes:
            assert n.cluster_vars[2] == LP(4, {(0, 0, 1, 0): 1})
            assert n.cluster_vars[3] == LP(4, {(0, 0, 0, 1): 1})


def _brute_force_key(eps, fixed, labels):
    """Least (exchange matrix, per-index labels) over all relabelings of the
    unfrozen indices that keep the symmetrizers: the unlabeled key as it
    was first defined, by trying all n! relabelings.  labels[i] stands for
    the value of the i-th variable, such as its terms."""
    unf = fixed.unfrozen
    best = None
    for perm in permutations(unf):
        if any(fixed.d[a] != fixed.d[b] for a, b in zip(unf, perm)):
            continue
        mapping = dict(zip(unf, perm))
        order = [mapping.get(i, i) for i in range(fixed.n)]
        cand = (
            tuple(tuple(eps[a][b] for b in order) for a in order),
            tuple(labels[a] for a in order),
        )
        if best is None or cand < best:
            best = cand
    return best


def _partition(keys):
    """The index of the first equal key, for each key."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _relabeled(node, rng):
    """The node under a random relabeling of its unfrozen indices that keeps
    the symmetrizers."""
    fixed = node.seed.fixed
    order = list(range(fixed.n))
    for d in set(fixed.d):
        block = [i for i in fixed.unfrozen if fixed.d[i] == d]
        for i, j in zip(block, rng.sample(block, len(block))):
            order[i] = j
    eps = node.seed.eps.data
    seed = seed_from_epsilon(
        [[eps[a][b] for b in order] for a in order], fixed.d, fixed.frozen
    )
    return SeedNode(seed, tuple(node.cluster_vars[a] for a in order), node.depth)


def _seed_id(seed):
    return f"n{seed.n}-d{''.join(map(str, seed.fixed.d))}-f{len(seed.fixed.frozen)}"


def _random_seeds():
    """Random seeds of rank 2 to 6 from the acceptance generator, most with
    some d_i != 1, each also with its last index frozen."""
    rng = random.Random(31)
    for n in (2, 3, 4, 5, 6):
        seed = random_symmetrizable_seed(rng, n)
        yield seed
        yield seed_from_epsilon(seed.eps.data, seed.fixed.d, {n - 1})


class TestKeys:
    def test_equal_seeds_equal_keys(self):
        s = seed_from_epsilon(A2)
        assert s == seed_from_epsilon(A2)

    @pytest.mark.parametrize("seed", [
        *_random_seeds(),
        seed_from_epsilon(D4),
        seed_from_epsilon(B3, (1, 1, 2)),
        seed_from_epsilon(A5, frozen={4}),
    ], ids=_seed_id)
    def test_sorted_key_matches_the_brute_force_key(self, seed):
        # the nodes of a labeled explore, each followed by a relabeled copy:
        # both keys must merge every copy with its node and agree on the rest
        rng = random.Random(seed.n)
        nodes = []
        for node in explore(seed, 3, max_terms=300).nodes:
            nodes += [node, _relabeled(node, rng)]
        rank_of = {}
        sorted_keys = [
            _key(node, _ranks(node, rank_of), "unlabeled") for node in nodes
        ]
        partition = _partition(sorted_keys)
        assert partition == _partition(
            _brute_force_key(
                node.seed.eps.data,
                node.seed.fixed,
                tuple(v.terms() for v in node.cluster_vars),
            )
            for node in nodes
        )
        assert partition[1::2] == partition[0::2]

    @pytest.mark.parametrize("eps, d", [(A5, None), (D4, None), (B3, (1, 1, 2))])
    def test_unlabeled_graph_matches_the_brute_force_key(self, eps, d, monkeypatch):
        seed = seed_from_epsilon(eps, d)
        fast = explore(seed, 6, dedup="unlabeled")
        keyed = []

        def brute_force_key(eps, fixed, ranks, dedup):
            # within one explore, ranks stand for values one to one
            keyed.append(ranks)
            return _brute_force_key(eps, fixed, ranks)

        monkeypatch.setattr(explore_module, "_node_key", brute_force_key)
        slow = explore(seed, 6, dedup="unlabeled")
        # the oracle keyed the root and every child
        assert len(keyed) == len(slow.edges) + 1
        assert fast.edges == slow.edges
        assert fast.report() == slow.report()

    def test_equal_variables_have_no_canonical_key(self):
        x0 = LP.variable(2, 0)
        node = SeedNode(seed_from_epsilon(A2), (x0, x0))
        assert _key(node, (0, 0), "labeled")
        with pytest.raises(ClusterGeomError, match="are equal"):
            _key(node, (0, 0), "unlabeled")
        with pytest.raises(ClusterGeomError, match="are equal"):
            explore(node, 1, dedup="unlabeled")


def _product_of_powers(node, k):
    """The exchange polynomial by its first route: every factor raised to
    its power by __pow__ and multiplied in, one product per sign."""
    plus = minus = None
    for v, e in zip(node.cluster_vars, node.seed.eps.row(k)):
        if e > 0:
            f = v ** e
            plus = f if plus is None else plus * f
        elif e < 0:
            f = v ** -e
            minus = f if minus is None else minus * f
    one = LP.one(node.seed.n)
    return (one if plus is None else plus) + (one if minus is None else minus)


def _random_variable(rng, n, terms):
    """A Laurent polynomial in n variables with the given number of terms,
    coefficients in -3..3 and exponents in -3..3."""
    out = {}
    while len(out) < terms:
        out[tuple(rng.randint(-3, 3) for _ in range(n))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return LP(n, out)


def _small_random_seeds():
    """Two random seeds of each rank 2 to 5 with d_i in {1, 2} and
    |eps_ij| <= 2, each also with its last index frozen: small entries keep
    the powers of explored variables small.  Entries next to the diagonal
    are nonzero, so every variable takes part in some exchange."""
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        for _ in range(2):
            d = [1] + [rng.choice((1, 1, 2)) for _ in range(n - 1)]
            rng.shuffle(d)
            eps = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    t = rng.choice((-1, 1) if j == i + 1 else (-1, 0, 1))
                    g = gcd(d[i], d[j])
                    eps[i][j], eps[j][i] = t * (d[j] // g), -t * (d[i] // g)
            yield seed_from_epsilon(eps, d)
            yield seed_from_epsilon(eps, d, {n - 1})


class TestExchangePolynomial:
    @pytest.mark.parametrize("seed", _small_random_seeds(), ids=_seed_id)
    def test_matches_the_product_of_powers_on_explored_nodes(self, seed):
        sizes = set()
        for node in explore(seed, 3, max_terms=300).nodes:
            for k in seed.fixed.unfrozen:
                assert exchange_polynomial(node, k) == _product_of_powers(node, k)
            sizes |= {min(v.n_terms(), 2) for v in node.cluster_vars}
        # both single-term and multi-term factors occurred
        assert sizes == {1, 2}

    @pytest.mark.parametrize(
        "seed", [s for s in _random_seeds() if s.n <= 4], ids=_seed_id
    )
    def test_matches_the_product_of_powers_on_hand_built_variables(self, seed):
        # single-term variables with coefficients other than 1 and negative
        # exponents, among binomials
        rng = random.Random(seed.n + len(seed.fixed.frozen))
        for _ in range(10):
            variables = tuple(
                _random_variable(rng, seed.n, rng.choice((1, 1, 2)))
                for _ in range(seed.n)
            )
            node = SeedNode(seed, variables)
            for k in seed.fixed.unfrozen:
                assert exchange_polynomial(node, k) == _product_of_powers(node, k)

    def test_a_factor_alone_reaching_the_bound_overflows(self):
        h = 1 << 61
        seed = seed_from_epsilon([[0, 2, 2], [-2, 0, 0], [-2, 0, 0]])
        cancel = LP.monomial((0, 0, -h))
        for big in (LP.monomial((0, 0, h)), LP(3, {(0, 0, h): 1, (0, 0, 0): 1})):
            # x_2^(2h) reaches the bound although x_1 cancels its exponent,
            # on either side of the relation
            for k, variables in ((0, (LP.variable(3, 0), cancel, big)),
                                 (1, (big, LP.variable(3, 1), cancel))):
                node = SeedNode(seed, variables)
                for route in (exchange_polynomial, _product_of_powers):
                    with pytest.raises(ExponentOverflow):
                        route(node, k)
        # one below the bound, the single-term route agrees
        node = SeedNode(seed, (LP.variable(3, 0), LP.monomial((0, 0, 1 - h), 5),
                               LP.monomial((0, 0, h - 1), -1)))
        assert exchange_polynomial(node, 0) == _product_of_powers(node, 0)
        assert exchange_polynomial(node, 0) == LP(3, {(0, 0, 0): 26})


def _assert_nodes_replay(root, graph):
    """Every node of the graph is its path from the root, stepped again: the
    same basis, exchange matrix and variables; and its exchange matrix is
    the one its basis defines."""
    for node in graph.nodes:
        replay = root
        for k in node.seed.path:
            replay = step(replay, k)
        assert replay.seed.basis == node.seed.basis
        assert replay.seed.eps == node.seed.eps
        assert epsilon_from_basis(node.seed) == node.seed.eps
        assert replay.cluster_vars == node.cluster_vars


class TestSolvedRelations:
    @pytest.mark.parametrize("eps, d, depth", [
        (A5, None, 5), (D4, None, 5), (MARKOV, None, 4), (B3, (1, 1, 2), 6),
    ])
    def test_every_node_replays_along_its_path(self, eps, d, depth):
        root = root_node(seed_from_epsilon(eps, d))
        for dedup in ("labeled", "unlabeled"):
            _assert_nodes_replay(root, explore(root, depth, dedup=dedup))

    @pytest.mark.parametrize("frozen", [(), (4,)], ids=["A5", "A5-frozen"])
    def test_a_seed_is_built_only_for_a_kept_node(self, frozen, monkeypatch):
        # a repeat edge computes the child's exchange matrix and no seed;
        # the seeds that are built are the kept nodes' and the steps'
        root = root_node(seed_from_epsilon(A5, frozen=frozen))
        public_step, public_mutate = explore_module.step, explore_module.mutate_seed
        for dedup in ("labeled", "unlabeled"):
            steps, mutations = [], []

            def record_step(node, k, max_terms=None):
                steps.append(k)
                return public_step(node, k, max_terms)

            def record_mutation(seed, k):
                mutations.append(k)
                return public_mutate(seed, k)

            monkeypatch.setattr(explore_module, "step", record_step)
            monkeypatch.setattr(explore_module, "mutate_seed", record_mutation)
            graph = explore(root, 6, dedup=dedup)
            monkeypatch.undo()
            assert len(mutations) <= len(graph.nodes) - 1 + len(steps)
            assert len(mutations) < len(graph.edges)
            if (dedup, frozen) == ("labeled", ()):
                assert (len(graph.nodes), len(graph.edges)) == (811, 1830)
            _assert_nodes_replay(root, graph)

    @pytest.mark.parametrize("eps, d", [(A5, None), (MARKOV, None), (B3, (1, 1, 2))])
    def test_a_backtracking_step_reuses_the_grandparents_variable(
            self, eps, d, monkeypatch):
        solved = []
        public_step = explore_module.step

        def record_step(node, k, max_terms=None):
            solved.append((id(node), k))
            return public_step(node, k, max_terms)

        monkeypatch.setattr(explore_module, "step", record_step)
        graph = explore(seed_from_epsilon(eps, d), 4)
        by_path = {node.seed.path: node for node in graph.nodes}
        backtracks = 0
        for source, k, target in graph.edges:
            node = graph.nodes[source]
            path = node.seed.path
            if path and path[-1] == k:
                backtracks += 1
                grandparent = by_path[path[:-1]]
                assert graph.nodes[target].cluster_vars[k] is grandparent.cluster_vars[k]
                assert (id(node), k) not in solved
        # every expanded node but the root has a backtracking edge, solved
        # by the step that made the node
        expanded = [node for node in graph.nodes if 0 < node.depth < 4]
        assert backtracks == len(expanded)
        assert len(solved) <= len(graph.edges) - backtracks

    @pytest.mark.parametrize("eps", [A5, D4], ids=["A5", "D4"])
    def test_each_relation_is_solved_once_and_each_value_is_one_object(
            self, eps, monkeypatch):
        solved = []
        public_step = explore_module.step

        def record_step(node, k, max_terms=None):
            child = public_step(node, k, max_terms)
            solved.append((node, k, child))
            return child

        monkeypatch.setattr(explore_module, "step", record_step)
        graph = explore(seed_from_epsilon(eps), 6)
        relations = set()
        for node, k, child in solved:
            pairs = [
                (v.terms(), e)
                for v, e in zip(node.cluster_vars, node.seed.eps.data[k]) if e
            ]
            neighbours = min(
                tuple(sorted(pairs)), tuple(sorted((t, -e) for t, e in pairs))
            )
            # the relation read both ways: old and new are interchangeable
            ends = frozenset(
                (node.cluster_vars[k].terms(), child.cluster_vars[k].terms())
            )
            relations.add((ends, neighbours))
        assert len(relations) == len(solved)
        variables = [v for node in graph.nodes for v in node.cluster_vars]
        assert len({id(v) for v in variables}) == len({v.terms() for v in variables})


class TestVerifyLaurent:
    def test_a2_cluster_monomial(self):
        seed = seed_from_epsilon(A2)
        rep = verify_laurent_A(seed, (1, 0), 6)
        assert rep["laurent_ok"]
        assert rep["paths_checked"] > 0

    def test_markov_cluster_monomial(self):
        seed = seed_from_epsilon(MARKOV)
        rep = verify_laurent_A(seed, (1, 0, 0), 6)
        assert rep["laurent_ok"]
        rep = verify_laurent_A(seed, (1, 1, 0), 4)
        assert rep["laurent_ok"]

    def test_zero_monomial(self):
        seed = seed_from_epsilon(A2)
        rep = verify_laurent_A(seed, (0, 0), 3)
        assert rep["laurent_ok"]
        assert rep["max_terms"] == 1

    def test_negative_pairing_rejected(self):
        seed = seed_from_epsilon(A2)
        with pytest.raises(PreconditionError):
            verify_laurent_A(seed, (-1, 0), 2)

    def test_x_side_a2(self):
        seed = seed_from_epsilon(A2)
        # -v_0 = (0,-1), -v_1 = (1,0): q = (a,-b) pairs nonnegatively
        rep = verify_laurent_X(seed, (1, -1), 6)
        assert rep["laurent_ok"]

    def test_x_side_zero(self):
        seed = seed_from_epsilon(A2)
        rep = verify_laurent_X(seed, (0, 0), 3)
        assert rep["laurent_ok"]

    def test_x_side_precondition(self):
        seed = seed_from_epsilon(A2)
        with pytest.raises(PreconditionError):
            verify_laurent_X(seed, (0, 1), 2)

    def test_nine_ray_x_dual_cone_trivial(self):
        seed = build_seed(Rank2Data(**NINE_RAY))
        # rays span three directions whose dual cone is the origin only
        rep = verify_laurent_X(seed, (0,) * 9, 2)
        assert rep["laurent_ok"]
        with pytest.raises(PreconditionError):
            verify_laurent_X(seed, (1, 0, 0, 0, 0, 0, 0, 0, 0), 2)

    @pytest.mark.parametrize("eps, side, q, depth, expected", [
        (MARKOV, "A", (1, 0, 0), 5, (93, 65, 68)),
        (CYCLE4, "A", (0, 0, 0, 1), 4, (160, 308, 660)),
        (D4, "X", (0, 0, -1, -1), 5, (484, 63, 6)),
    ])
    def test_pinned_reports(self, eps, side, q, depth, expected):
        verify = verify_laurent_A if side == "A" else verify_laurent_X
        rep = verify(seed_from_epsilon(eps), q, depth)
        assert rep["laurent_ok"] and rep["witnesses"] == []
        assert (rep["paths_checked"], rep["max_terms"], rep["max_degree"]) == expected


class TestWitnesses:
    def test_witness_paths_follow_the_seed_paths(self):
        # every step is a witness, and its path starts at the walk's seed,
        # which has the path (0,) already
        seed = mutate_seed(seed_from_epsilon(D4), 0)
        bad = RationalExpression(LP.one(4), LP(4, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}))
        visited = []

        def apply_step(cur_seed, k, expr):
            assert cur_seed.path[0] == 0
            visited.append(list(cur_seed.path[1:] + (k,)))
            return bad

        rep = _verify_along_paths(seed, "A", (1, 0, 0, 0), apply_step, 4, None)
        assert rep["paths_checked"] == len(visited) == 4 + 12 + 36 + 108
        assert [w["path"] for w in rep["witnesses"]] == visited
        assert all(a != b for path in visited for a, b in zip(path, path[1:]))

    def test_non_laurent_child_is_reported_and_carried_unreduced(self):
        seed = seed_from_epsilon(A2)
        bad = RationalExpression(LP.one(2), LP(2, {(0, 0): 1, (1, 0): 1}))
        seen, results = [], {}

        def apply_step(cur_seed, k, expr):
            seen.append((cur_seed.path, expr))
            if cur_seed.path == () and k == 1:
                out = bad
            else:
                out = inverse_pullback_A(cur_seed, k, expr)
            results[cur_seed.path + (k,)] = out
            return out

        rep = _verify_along_paths(seed, "A", (1, 0), apply_step, 3, None)
        assert rep["laurent_ok"] is False
        assert rep["paths_checked"] == 6
        assert rep["witnesses"][0] == {"path": [1], "expression": bad.to_str()}
        assert all(w["path"][0] == 1 for w in rep["witnesses"])
        assert {path for path, _ in seen} == {(), (0,), (1,), (0, 1), (1, 0)}
        for path, expr in seen:
            if not path:
                continue
            reduced = results[path].as_laurent()
            if reduced is None:  # a witness: its fraction goes on unreduced
                assert expr is results[path]
                assert list(path) in [w["path"] for w in rep["witnesses"]]
            else:
                assert isinstance(expr, LaurentPolynomial) and expr == reduced
        assert dict(seen)[(1,)] is bad


class TestPullbackOracle:
    @pytest.mark.parametrize("seed", [
        seed_from_epsilon(A3),
        seed_from_epsilon(MARKOV),
        seed_from_epsilon(D4),
        seed_from_epsilon(B3, (1, 1, 2)),
    ], ids=["A3", "Markov", "D4", "B3"])
    def test_explore_variables_are_composite_pullbacks(self, seed):
        # GHK: A-side mutation is the pullback along the birational map, so
        # the variable z^{f_i} of the seed at the end of a path, pulled back
        # step by step to the root torus, is the variable explore reaches
        graph = explore(seed, 4)
        edges = {(source, k): target for source, k, target in graph.edges}
        labels = sorted(seed.fixed.unfrozen)
        rng = random.Random(seed.n + sum(seed.fixed.d))
        for _ in range(25):
            path = [rng.choice(labels) for _ in range(rng.randint(1, 4))]
            seeds, nid = [seed], 0
            for k in path:
                seeds.append(mutate_seed(seeds[-1], k))
                nid = edges[(nid, k)]
            for i, variable in enumerate(graph.nodes[nid].cluster_vars):
                expr = RationalExpression.from_monomial(seeds[-1].f_vector(i))
                for source, k in reversed(list(zip(seeds, path))):
                    expr = pullback_A(source, k, expr).as_laurent()
                assert expr == variable, (path, i)


def _random_graded_seeds(count, salt):
    """Random seeds of rank 3 to 5 with d != 1 (each d_i in {1, 2}), exchange
    entries of size at most 2, one to n - 2 frozen indices and a nonzero
    unfrozen row."""
    rng = random.Random(salt)
    out = []
    while len(out) < count:
        n = rng.randint(3, 5)
        d = tuple(rng.choice((1, 2)) for _ in range(n))
        if set(d) != {1, 2}:
            continue
        eps = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                t = rng.choice((-1, 0, 0, 1))
                g = gcd(d[i], d[j])
                eps[i][j], eps[j][i] = t * (d[j] // g), -t * (d[i] // g)
        frozen = set(rng.sample(range(n), rng.randint(1, n - 2)))
        if not any(eps[k][j] for k in range(n) if k not in frozen for j in range(n)):
            continue
        out.append(seed_from_epsilon(eps, d, frozen))
    return out


GRADED_RANDOM = _random_graded_seeds(8, 1709)


class TestGradedOracle:
    @pytest.mark.parametrize("seed, depth", [
        (build_seed(Rank2Data(**NINE_RAY)), 4),
        (seed_from_epsilon(MARKOV), 6),
        (seed_from_epsilon(D4), 6),
        (seed_from_epsilon(A5, frozen={4}), 6),
    ] + [(seed, 4) for seed in GRADED_RANDOM],
        ids=["nine-ray", "Markov", "D4", "A5-frozen"]
        + [f"random-{i}" for i in range(len(GRADED_RANDOM))])
    def test_variables_are_homogeneous_of_the_carried_degree(self, seed, depth):
        # Grabowski, "Graded cluster algebras": for g in the kernel of the
        # unfrozen rows of eps, the two monomials of an exchange polynomial
        # have one g-degree, so every cluster variable is g-homogeneous, and
        # x'_k has degree deg M_+ - deg x_k, with M_+ the product of the
        # x_j^[eps_kj]_+
        grading = kernel_basis(Matrix([seed.eps.row(k) for k in seed.fixed.unfrozen]))
        assert grading
        degrees = {}

        def degree(v):
            if id(v) not in degrees:
                found = {
                    tuple(sum(map(int.__mul__, g, m)) for g in grading)
                    for m, _ in v.items()
                }
                assert len(found) == 1, v
                degrees[id(v)] = found.pop()
            return degrees[id(v)]

        graph = explore(seed, depth)
        carried = {0: [degree(v) for v in graph.nodes[0].cluster_vars]}
        for source, k, target in graph.edges:
            old = carried[source]
            plus = [
                sum(max(e, 0) * x[c] for e, x in zip(graph.nodes[source].seed.eps.row(k), old))
                for c in range(len(grading))
            ]
            new = list(old)
            new[k] = tuple(map(int.__sub__, plus, old[k]))
            assert carried.setdefault(target, new) == new
        for nid, node in enumerate(graph.nodes):
            assert list(map(degree, node.cluster_vars)) == carried[nid]

    @pytest.mark.parametrize("seed, q, depth", [
        (seed_from_epsilon(MARKOV), (1, 0, 0), 5),
        (seed_from_epsilon(B3, (1, 1, 2)), (1, 1, 1), 6),
        (seed_from_epsilon(A5, frozen={4}), (1, 0, 1, 1, -1), 5),
    ] + [
        (seed, tuple(i % 3 - (i in seed.fixed.frozen) for i in range(seed.n)), 4)
        for seed in GRADED_RANDOM
    ], ids=["Markov", "B3", "A5-frozen"] + [f"random-{i}" for i in range(len(GRADED_RANDOM))])
    def test_a_side_expressions_are_homogeneous(self, seed, q, depth, monkeypatch):
        # on the A side, v_k = p*(e_k) pairs to 0 with every n in ker p*,
        # the n with {e_u, n} = 0 for every unfrozen u: so each twist
        # z^m (1 + z^{v_k})^a keeps <n, m> = sum_a n_a m_a / d_a, and every
        # carried expression is a fraction of two homogeneous Laurent
        # polynomials whose degrees differ by <n, q>
        fixed = seed.fixed
        scale = lcm(*fixed.d)
        kernel = kernel_basis(Matrix([
            [int(fixed.skew[u, b] * scale) for b in range(seed.n)] for u in fixed.unfrozen
        ]))
        assert kernel
        weights = [scale // d for d in fixed.d]

        def degree(m):
            # lcm(d) <n, m>, which stays in the integers
            return tuple(sum(x * y * w for x, y, w in zip(n, m, weights)) for n in kernel)

        def homogeneous_degree(poly):
            found = {degree(m) for m, _ in poly.items()}
            assert len(found) == 1, poly
            return found.pop()

        expected = degree(q)
        checked = []
        pullback = explore_module.inverse_pullback_A

        def checking(cur, k, expr):
            out = pullback(cur, k, expr)
            for e in (expr, out):
                # a step's input is the reduced Laurent form when it has one
                e = e if isinstance(e, RationalExpression) else RationalExpression(e)
                num, den = homogeneous_degree(e.num), homogeneous_degree(e.den)
                assert tuple(map(int.__sub__, num, den)) == expected
            checked.append(out)
            return out

        monkeypatch.setattr(explore_module, "inverse_pullback_A", checking)
        report = verify_laurent_A(seed, q, depth)
        assert len(checked) == report["paths_checked"] > 0
