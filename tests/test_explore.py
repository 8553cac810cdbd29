import copy
import importlib
import inspect
import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_acceptance import random_symmetrizable_seed

from cluster_geom.errors import (
    ClusterGeomError,
    LaurentViolation,
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
    step_twist,
)
from cluster_geom.rank2 import Rank2Data, build_seed
from cluster_geom.seeds import (
    epsilon_from_basis,
    mutate_along,
    mutate_epsilon,
    mutate_seed,
    seed_from_epsilon,
)
from golden_cases import NINE_RAY
from test_seeds import f_vector
from twist_oracle import monomial, pullback_A

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
A4 = [row[:4] for row in A5[:4]]
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

    # n, -1 and -n - 1 on A2, and a frozen index
    @pytest.mark.parametrize("frozen, k, message", [
        ((), 2, "mutation index 2 out of range"),
        ((), -1, "mutation index -1 out of range"),
        ((), -3, "mutation index -3 out of range"),
        ((1,), 1, "cannot mutate at frozen index 1"),
    ])
    def test_a_bad_index_is_rejected_before_any_work(
            self, frozen, k, message, monkeypatch):
        divisions = []
        monkeypatch.setattr(explore_module, "exact_divide",
                            lambda *args: divisions.append(args))
        node = root_node(seed_from_epsilon(A2, frozen=frozen))
        with pytest.raises(ValidationError, match=f"^{message}$"):
            step(node, k)
        assert divisions == []

    def test_a_violation_names_the_path_to_the_child(self, monkeypatch):
        node = step(a2_root(), 0)
        monkeypatch.setattr(explore_module, "exact_divide", lambda *args: None)
        with pytest.raises(LaurentViolation) as caught:
            step(node, 1)
        assert caught.value.path == (0, 1)
        assert caught.value.expression.den == node.cluster_vars[1]


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
    """The exchange polynomial by repeated multiplication, apart from
    exchange_polynomial's route: one product per sign, starting from 1, with
    each factor multiplied in |e| times.  No __pow__ is taken, and no
    product has one object on both sides, so no square is formed."""
    one = LP.one(node.seed.n)
    plus = minus = one
    for v, e in zip(node.cluster_vars, node.seed.eps.row(k)):
        for _ in range(abs(e)):
            if e > 0:
                plus = plus * v
            else:
                minus = minus * v
    return plus + minus


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
        # one below the bound, both routes agree
        node = SeedNode(seed, (LP.variable(3, 0), LP.monomial((0, 0, 1 - h), 5),
                               LP.monomial((0, 0, h - 1), -1)))
        assert exchange_polynomial(node, 0) == _product_of_powers(node, 0)
        assert exchange_polynomial(node, 0) == LP(3, {(0, 0, 0): 26})


def _assert_nodes_replay(root, nodes):
    """Every node is its path from the root, stepped again: the same basis,
    exchange matrix and variables; and its exchange matrix is the one its
    basis defines."""
    for node in nodes:
        replay = root
        for k in node.seed.path:
            replay = step(replay, k)
        assert replay.seed.basis == node.seed.basis
        assert replay.seed.eps == node.seed.eps
        assert epsilon_from_basis(node.seed) == node.seed.eps
        assert replay.cluster_vars == node.cluster_vars


def _unbuilt_chain(seed):
    """The seed and its ancestors, up to the first that holds a basis."""
    chain = []
    while seed._basis is None:
        chain.append(seed)
        seed = seed._parent
    return chain


class TestSolvedRelations:
    # Markov, the 4-cycle and nine-ray share relations across their signed
    # symmetries (6, 8 and 1296 of them)
    @pytest.mark.parametrize("eps, d, depth", [
        (A5, None, 5), (D4, None, 5), (MARKOV, None, 4), (B3, (1, 1, 2), 6),
        (MARKOV, None, 5), (CYCLE4, None, 3),
        (build_seed(Rank2Data(**NINE_RAY)).eps.data, None, 3),
    ])
    def test_every_node_replays_along_its_path(self, eps, d, depth):
        root = root_node(seed_from_epsilon(eps, d))
        for dedup in ("labeled", "unlabeled"):
            _assert_nodes_replay(root, explore(root, depth, dedup=dedup).nodes)

    # steps during explore for A5 at depth 6, either dedup
    @pytest.mark.parametrize("frozen, steps", [((), 38), ((4,), 35)],
                             ids=["A5", "A5-frozen"])
    def test_a_seed_is_built_only_by_a_step_or_a_read(
            self, frozen, steps, monkeypatch):
        # explore reads no basis: a step mutates through the checked
        # mutate_seed, a kept repeat-edge child gets an unbuilt seed, and
        # afterwards no seed but the root's holds a basis.  The first read
        # of a basis builds it and those of its unbuilt ancestors, once
        root = root_node(seed_from_epsilon(A5, frozen=frozen))
        public_step, public_mutate = explore_module.step, explore_module.mutate_seed
        for dedup in ("labeled", "unlabeled"):
            stepped, mutations = [], []

            def record_step(node, k, max_terms=None):
                stepped.append(k)
                return public_step(node, k, max_terms)

            def record_mutation(seed, k):
                mutations.append(k)
                return public_mutate(seed, k)

            monkeypatch.setattr(explore_module, "step", record_step)
            monkeypatch.setattr(explore_module, "mutate_seed", record_mutation)
            graph = explore(root, 6, dedup=dedup)
            monkeypatch.undo()
            assert len(mutations) == len(stepped) == steps
            if (dedup, frozen) == ("labeled", ()):
                assert (len(graph.nodes), len(graph.edges)) == (811, 1830)
            assert graph.nodes[0].seed is root.seed
            assert all(node.seed._basis is None for node in graph.nodes[1:])
            last = graph.nodes[-1]
            chain = _unbuilt_chain(last.seed)
            assert 1 <= len(chain) <= last.depth
            basis = last.seed.basis
            assert all(s._basis is not None and s._parent is None for s in chain)
            assert last.seed.basis is basis
            # read deepest first, so that each read builds a chain
            _assert_nodes_replay(root, reversed(graph.nodes))

    def test_a_long_unbuilt_chain_is_built_without_recursion(self, monkeypatch):
        # the Kronecker line of seeds: explore builds no basis, so each
        # node at depth 24 ends a chain of 24 unbuilt seeds, and reading
        # its basis builds them all at one stack depth
        root = root_node(seed_from_epsilon([[0, 2], [-2, 0]]))
        deepest = [node for node in explore(root, 24).nodes if node.depth == 24]
        assert len(deepest) == 2
        assert [len(_unbuilt_chain(node.seed)) for node in deepest] == [24, 24]
        trusted = Matrix._trusted
        stack_depths = []

        def record_matrix(rows):
            stack_depths.append(len(inspect.stack(0)))
            return trusted(rows)

        monkeypatch.setattr(Matrix, "_trusted", record_matrix)
        for node in deepest:
            node.seed.basis
        monkeypatch.undo()
        assert len(stack_depths) == 48
        assert len(set(stack_depths)) == 1
        _assert_nodes_replay(root, deepest)

    def test_a_copy_of_an_unbuilt_node_is_the_same_node(self):
        root = root_node(seed_from_epsilon([[0, 2], [-2, 0]]))
        node = explore(root, 4).nodes[-1]
        twin = copy.copy(node)
        assert twin.seed is node.seed
        assert node.seed._basis is None
        assert (twin.rows, twin.cluster_vars, twin.depth) == (
            node.rows, node.cluster_vars, node.depth)
        assert repr(twin) == repr(node) == "SeedNode(depth=4, rows=((0, 2), (-2, 0)))"
        with pytest.raises(AttributeError):
            node.depth = 0

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


def _round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


class TestCopyAndPickle:
    def test_values(self):
        seed = seed_from_epsilon(B3, (1, 1, 2), frozen={2})
        x = LP(3, {(1, -2, 0): 3, (0, 0, 1): -1})
        for value in (Matrix([[1, Fraction(1, 2)], [0, -3]]), seed.fixed, x):
            for twin in _round_trips(value):
                assert twin == value
        for twin in _round_trips(RationalExpression(x, x + LP.one(3))):
            assert (twin.num, twin.den) == (x, x + LP.one(3))
        with pytest.raises(AttributeError):
            copy.copy(seed.fixed).n = 0

    def test_an_explored_node_at_depth_three(self):
        root = root_node(seed_from_epsilon(MARKOV))
        node = next(n for n in explore(root, 3).nodes if n.depth == 3)
        path = node.seed.path
        assert len(path) == 3
        for twin in _round_trips(node):
            assert (twin.depth, twin.rows, twin.cluster_vars) == (
                node.depth, node.rows, node.cluster_vars)
            assert twin.seed == node.seed
            assert (twin.seed.eps, twin.seed.path) == (node.seed.eps, path)

    def test_a_seed_along_a_long_path(self):
        # the seed keeps its path through the flat tuple of labels, not
        # through its 2 * 10**4 nested links
        path = tuple(i % 2 for i in range(2 * 10**4))
        seed = mutate_along(seed_from_epsilon(A2), path)
        for twin in _round_trips(seed):
            assert twin == seed
            assert (twin.eps, twin.path) == (seed.eps, path)
            assert mutate_seed(twin, 0).path == path + (0,)


def _signed_symmetries(eps, frozen):
    """Brute force: the permutations s of the indices that map frozen ones
    to frozen ones and have a sign t with eps[s(i)][s(j)] = t eps[i][j]."""
    n = len(eps)
    return {
        s for s in permutations(range(n))
        if all((s[i] in frozen) == (i in frozen) for i in range(n))
        and any(
            all(eps[s[i]][s[j]] == t * eps[i][j] for i in range(n) for j in range(n))
            for t in (1, -1)
        )
    }


def _group(generators, n):
    """The permutations that the generators generate."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        s = todo.pop()
        for g in generators:
            gs = tuple(g[x] for x in s)
            if gs not in group:
                group.add(gs)
                todo.append(gs)
    return group


def _random_symmetric_matrix(rng, n):
    """(eps, frozen): in turn a skew-symmetrizable eps = S D with d_i in
    {1, 2} and random frozen indices, or a skew-symmetric eps built to have
    a random signed symmetry s, whose frozen indices are whole cycles of s.
    Entries of S are 0, +-1 and +-2."""
    entries = (0, 0, 1, -1, 2, -2)
    if rng.random() < 0.5:
        d = [rng.choice((1, 1, 2)) for _ in range(n)]
        eps = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.choice(entries)
                eps[i][j], eps[j][i] = x * d[j], -x * d[i]
        frozen = {i for i in range(n) if rng.random() < 0.2}
        return tuple(map(tuple, eps)), frozen
    s = list(range(n))
    rng.shuffle(s)
    t = rng.choice((1, -1))
    eps = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in eps:
                continue
            # the orbit of (i, j) under s, with eps[s a][s b] = t eps[a][b];
            # an orbit that meets itself with the other sign is zero
            orbit, a, b, x = {}, i, j, rng.choice(entries)
            while (a, b) not in orbit:
                orbit[(a, b)], orbit[(b, a)] = x, -x
                a, b, x = s[a], s[b], t * x
            consistent = orbit[(a, b)] == x
            eps.update((key, x if consistent else 0) for key, x in orbit.items())
    frozen = set()
    for i in range(n):
        if rng.random() < 0.2:
            while i not in frozen:
                frozen.add(i)
                i = s[i]
    return tuple(tuple(eps.get((i, j), 0) for j in range(n)) for i in range(n)), frozen


class TestSymmetrySearch:
    @pytest.mark.parametrize("eps, order", [
        (MARKOV, 6), (CYCLE4, 8), (A3, 2), (A5, 2), (D4, 2),
        (build_seed(Rank2Data(**NINE_RAY)).eps.data, 1296),
    ], ids=["Markov", "cycle4", "A3", "A5", "D4", "nine-ray"])
    def test_group_orders(self, eps, order):
        generators = explore_module._symmetry_generators(eps, ())
        assert len(_group(generators, len(eps))) == order

    def test_generators_generate_the_brute_force_group(self):
        rng = random.Random(2202)
        nontrivial = 0
        for _ in range(320):
            n = rng.randint(1, 6)
            eps, frozen = _random_symmetric_matrix(rng, n)
            expected = _signed_symmetries(eps, frozen)
            generators = explore_module._symmetry_generators(eps, frozen)
            assert _group(generators, n) == expected, (eps, frozen)
            nontrivial += len(expected) > 1
        assert nontrivial > 100

    def test_candidate_tests_stay_within_the_budget(self):
        # counted, not timed: the budget bounds the search on any input
        rng = random.Random(2203)
        for _ in range(60):
            n = rng.randint(2, 30)
            eps, frozen = _random_symmetric_matrix(rng, n)
            budget = explore_module._SYMMETRY_BUDGET * n * n
            generators, tests = explore_module._symmetry_search(eps, frozen, budget)
            assert tests <= budget
            assert all(sorted(g) == list(range(n)) for g in generators)
        # the zero matrix of rank 30: every permutation of its 25 unfrozen
        # and of its 5 frozen indices
        zero = ((0,) * 30,) * 30
        generators, tests = explore_module._symmetry_search(zero, range(5), 64 * 900)
        assert tests <= 30 * 30
        assert len(generators) == 28

    def test_a_search_without_budget_changes_no_report(self, monkeypatch):
        root = seed_from_epsilon(MARKOV)
        expected = explore(root, 6).report()
        monkeypatch.setattr(explore_module, "_SYMMETRY_BUDGET", 0)
        assert explore_module._symmetry_generators(MARKOV, ()) == []
        assert explore(root, 6).report() == expected


def _variable_terms(graph):
    return [tuple(v.terms() for v in node.cluster_vars) for node in graph.nodes]


class TestSymmetricMemo:
    @pytest.mark.parametrize("eps, d, frozen, depth", [
        (MARKOV, None, (), 5), (A4, None, (), 5), (B3, (1, 1, 2), (), 6),
        (A4, None, (3,), 6),
    ], ids=["Markov", "A4", "B3", "A3-frozen"])
    def test_random_permutations_change_no_answer(
            self, eps, d, frozen, depth, monkeypatch):
        root = seed_from_epsilon(eps, d, frozen)
        n = root.n
        monkeypatch.setattr(explore_module, "_symmetry_generators", lambda *args: [])
        expected = {
            dedup: explore(root, depth, dedup=dedup) for dedup in ("labeled", "unlabeled")
        }
        rng = random.Random(f"{n}/{depth}")

        def random_permutations(eps, frozen):
            out = []
            for _ in range(3):
                s = list(range(n))
                rng.shuffle(s)
                out.append(tuple(s))
            return out

        monkeypatch.setattr(explore_module, "_symmetry_generators", random_permutations)
        for dedup, graph in expected.items():
            shared = explore(root, depth, dedup=dedup)
            assert shared.report() == graph.report()
            assert shared.edges == graph.edges
            assert _variable_terms(shared) == _variable_terms(graph)

    @pytest.mark.parametrize("eps, depth, most", [
        (MARKOV, 5, 16), (CYCLE4, 3, 6),
    ], ids=["Markov", "cycle4"])
    def test_a_relation_is_solved_once_per_orbit(self, eps, depth, most, monkeypatch):
        steps = []
        public_step = explore_module.step

        def record_step(node, k, max_terms=None):
            steps.append(k)
            return public_step(node, k, max_terms)

        monkeypatch.setattr(explore_module, "step", record_step)
        explore(seed_from_epsilon(eps), depth)
        assert 0 < len(steps) <= most


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

    @pytest.mark.parametrize("verify", [verify_laurent_A, verify_laurent_X])
    @pytest.mark.parametrize("q", [(1,), (1, 0, 0)])
    def test_an_exponent_vector_of_another_length_is_rejected(self, verify, q):
        # the check behind laurent-check's exit 2 for such a --q
        with pytest.raises(ValidationError, match=f"^exponent vector has length {len(q)}, "):
            verify(seed_from_epsilon(A2), q, 2)

    @pytest.mark.parametrize("verify", [verify_laurent_A, verify_laurent_X])
    @pytest.mark.parametrize("q", [(True, 0), (1.0, 0), ("1", 0), (None, 0), 5])
    def test_an_exponent_that_is_not_an_int_is_rejected(self, verify, q):
        # a bool would run and echo as true; a float or str would fail
        # inside the twist
        with pytest.raises(ValidationError, match="^exponent vector entries must be integers"):
            verify(seed_from_epsilon(A2), q, 2)

    @pytest.mark.parametrize("depth", [2.0, True, "2", None, -1])
    def test_a_depth_that_is_not_a_nonnegative_int_is_rejected(self, depth):
        # True would run at depth 1
        seed = seed_from_epsilon(A2)
        for run in (
            lambda: explore(seed, depth),
            lambda: verify_laurent_A(seed, (1, 0), depth),
            lambda: _verify_along_paths(seed, "A", (1, 0), inverse_pullback_A, depth, None),
        ):
            with pytest.raises(ValidationError, match="^depth must be a nonnegative integer, "):
                run()

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


def _relabeled_root(eps, d, order, frozen=()):
    """The root seed of eps, d and frozen with index i renamed from
    order[i]."""
    d = d or (1,) * len(eps)
    return seed_from_epsilon(
        [[eps[a][b] for b in order] for a in order],
        [d[a] for a in order],
        [i for i, a in enumerate(order) if a in frozen],
    )


def _largest_exponent(eps, d, frozen, depth):
    """The largest |entry| of the exchange matrices on the label paths
    shorter than depth: a bound on the exponents of the products that
    explore forms to that depth."""
    unfrozen = [k for k in range(len(eps)) if k not in frozen]
    level = [Matrix(eps)]
    top = 0
    for length in range(depth):
        top = max([top] + [abs(x) for m in level for row in m.data for x in row])
        if length + 1 < depth:
            level = [mutate_epsilon(m, d, k) for m in level for k in unfrozen]
    return top


@st.composite
def relabeled_roots(draw, depths=st.integers(1, 3)):
    """(eps, d, frozen, depth, max_terms, order): rank 2 to 4, d_i in {1,
    2, 3}, a random frozen set, eps = S D for a skew form S with entries
    t / gcd(d_i, d_j), |t| <= 2, a depth drawn from depths (at most 3), a
    small term cap, and a relabeling.  The term cap bounds every division
    but not the product of an exchange polynomial (ROADMAP item 1), so only
    seeds whose exchange polynomials take no power above 60 are drawn; on
    such seeds each explore run takes well under a second."""
    n = draw(st.integers(2, 4))
    d = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n)
             .filter(lambda d: gcd(*d) == 1))
    eps = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        t, g = draw(st.integers(-2, 2)), gcd(d[i], d[j])
        eps[i][j], eps[j][i] = t * d[j] // g, -t * d[i] // g
    frozen = draw(st.sets(st.integers(0, n - 1)))
    depth = draw(depths)
    assume(_largest_exponent(eps, d, frozen, depth) <= 60)
    cap = draw(st.sampled_from([5, 20, 50]))
    return eps, d, frozen, depth, cap, draw(st.permutations(range(n)))


def _outcome(run):
    """A report, or the type of the resource limit that stopped it."""
    try:
        return run()
    except ResourceLimitExceeded as exc:
        return type(exc)


class TestRelabeling:
    # a relabeling of the unfrozen indices maps label paths to label paths
    # and nodes to nodes, so no report may change
    @pytest.mark.parametrize("eps, d, q_a, q_x", [
        (A3, None, (1, 0, 2), (1, 0, -1)),
        (B3, (1, 1, 2), (0, 1, 1), (1, 0, 1)),
        (MARKOV, None, (1, 0, 0), (1, 1, 1)),
    ], ids=["A3", "B3", "Markov"])
    def test_reports_are_invariant(self, eps, d, q_a, q_x):
        seed = seed_from_epsilon(eps, d)
        checks = [(verify_laurent_A, q_a, 4), (verify_laurent_X, q_x, 3)]
        laurent = [verify(seed, q, depth) for verify, q, depth in checks]
        graphs = [explore(seed, 4, dedup).report() for dedup in ("labeled", "unlabeled")]
        for order in permutations(range(3)):
            image = _relabeled_root(eps, d, order)
            for (verify, q, depth), rep in zip(checks, laurent):
                moved = tuple(q[a] for a in order)
                assert verify(image, moved, depth) == {**rep, "q": list(moved)}
            for dedup, rep in zip(("labeled", "unlabeled"), graphs):
                assert explore(image, 4, dedup).report() == rep, (order, dedup)

    @pytest.mark.parametrize("eps, d", [(A3, None), (B3, (1, 1, 2)), (MARKOV, None)],
                             ids=["A3", "B3", "Markov"])
    def test_unlabeled_nodes_are_the_relabeling_classes(self, eps, d):
        # the unlabeled graph holds one node per class of labeled nodes under
        # relabeling: mutating a relabeled node at k relabels the child of
        # the node at the label that k came from
        seed = seed_from_epsilon(eps, d)
        labeled = explore(seed, 4).nodes
        classes = {
            _brute_force_key(node.rows, seed.fixed, [v.terms() for v in node.cluster_vars])
            for node in labeled
        }
        assert len(explore(seed, 4, "unlabeled").nodes) == len(classes)


class TestRandomRelabeling:
    """The relations of TestRelabeling on random seeds (ROADMAP item 16).
    A run that exceeds the term cap is compared by the cap's exception,
    since the walk order decides where it stops."""

    # relabeling classes of labeled nodes first merge at depth 3 (on an A2
    # pair, say), so the explore relations are checked there
    @settings(max_examples=60, deadline=5000)
    @given(relabeled_roots(st.just(3)))
    def test_explore_reports_and_unlabeled_classes(self, case):
        eps, d, frozen, depth, cap, order = case
        seed = seed_from_epsilon(eps, d, frozen)
        image = _relabeled_root(eps, d, order, frozen)
        for dedup in ("labeled", "unlabeled"):
            assert explore(image, depth, dedup, cap).report() == explore(
                seed, depth, dedup, cap
            ).report()
        classes = {
            _brute_force_key(node.rows, seed.fixed, [v.terms() for v in node.cluster_vars])
            for node in explore(seed, depth, max_terms=cap).nodes
        }
        assert len(explore(seed, depth, "unlabeled", cap).nodes) == len(classes)

    @settings(max_examples=60, deadline=5000)
    @given(relabeled_roots(), st.data())
    def test_laurent_check_reports(self, case, data):
        eps, d, frozen, depth, cap, order = case
        seed = seed_from_epsilon(eps, d, frozen)
        image = _relabeled_root(eps, d, order, frozen)
        n = len(eps)
        # at the root the A-side form of step i is m -> m_i, so q passes the
        # precondition when its unfrozen entries are >= 0; on side X only
        # the q that pass are checked
        q_a = tuple(data.draw(st.integers(-2 * (i in frozen), 2)) for i in range(n))
        q_x = tuple(data.draw(st.integers(-2, 2)) for _ in range(n))
        sides = [(verify_laurent_A, q_a)]
        if all(step_twist(seed, i, "X")[1](q_x) >= 0 for i in seed.fixed.unfrozen):
            sides.append((verify_laurent_X, q_x))
        for verify, q in sides:
            moved = tuple(q[a] for a in order)
            rep = _outcome(lambda: verify(seed, q, depth, cap))
            if isinstance(rep, dict):
                rep = {**rep, "q": list(moved)}
            assert _outcome(lambda: verify(image, moved, depth, cap)) == rep


class TestNegation:
    # eps and -eps have the same exchange polynomials with their two
    # monomials swapped, so the same cluster variables and the same graph
    @pytest.mark.parametrize("eps, d, q", [
        (A3, None, (1, 0, 2)),
        (B3, (1, 1, 2), (0, 1, 1)),
        (MARKOV, None, (1, 0, 0)),
        (CYCLE4, None, (0, 0, 0, 1)),
        (D4, None, (1, 0, 0, 0)),
    ], ids=["A3", "B3", "Markov", "cycle4", "D4"])
    def test_reports_are_invariant(self, eps, d, q):
        seed = seed_from_epsilon(eps, d)
        negated = seed_from_epsilon([[-x for x in row] for row in eps], d)
        for dedup in ("labeled", "unlabeled"):
            assert explore(negated, 4, dedup).report() == explore(seed, 4, dedup).report()
        # on side A the path count and the term counts agree, but not the
        # degrees: D4 with q = (1, 0, 0, 0) reaches 1 against 2 at depth 3
        a, b = verify_laurent_A(seed, q, 4), verify_laurent_A(negated, q, 4)
        assert (a["paths_checked"], a["max_terms"]) == (b["paths_checked"], b["max_terms"])


class TestViolations:
    def test_an_always_bad_step_raises_at_the_first_path(self):
        # the path starts at the walk's seed, which has the path (0,) already
        seed = mutate_seed(seed_from_epsilon(D4), 0)
        bad = RationalExpression(LP.one(4), LP(4, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}))
        visited = []

        def apply_step(cur_seed, k, poly):
            visited.append(cur_seed.path + (k,))
            return bad

        with pytest.raises(LaurentViolation) as caught:
            _verify_along_paths(seed, "A", (1, 0, 0, 0), apply_step, 4, None)
        assert visited == [(0, 3)]
        assert caught.value.path == (3,)
        assert caught.value.expression is bad

    def test_steps_carry_laurent_polynomials_up_to_the_bad_one(self):
        seed = seed_from_epsilon(A2)
        bad = RationalExpression(LP.one(2), LP(2, {(0, 0): 1, (1, 0): 1}))
        seen, results = [], {}

        def apply_step(cur_seed, k, poly):
            path = cur_seed.path + (k,)
            seen.append((path, poly))
            results[path] = bad if path == (1, 0) else inverse_pullback_A(cur_seed, k, poly)
            return results[path]

        with pytest.raises(LaurentViolation) as caught:
            _verify_along_paths(seed, "A", (1, 0), apply_step, 3, None)
        assert caught.value.path == (1, 0)
        assert caught.value.expression is bad
        # depth first from the last label pushed; the bad step ends the walk
        assert [path for path, _ in seen] == [(1,), (0,), (0, 1), (0, 1, 0), (1, 0)]
        for path, poly in seen:
            carried = results[path[:-1]].as_laurent() if path[:-1] else LP.monomial((1, 0))
            assert type(poly) is LaurentPolynomial and poly == carried


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
        # step by step to the root torus, is the variable explore reaches.
        # pullback_A is the test-local oracle, which shares no twist code
        # with src
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
                expr = monomial(f_vector(seeds[-1], i))
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
