import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_geom.cli import load_seed_file
from cluster_geom.errors import PreconditionError, UnsupportedError, ValidationError
from cluster_geom.explore import verify_laurent_A, verify_laurent_X
from cluster_geom.intmat import Matrix, hermite_row_basis, kernel_basis
from cluster_geom.laurent import (
    LaurentPolynomial,
    RationalExpression,
    inverse_pullback_A,
    inverse_pullback_X,
    step_twist,
)
from cluster_geom.rank2 import Rank2Data
from cluster_geom.seeds import (
    FixedData,
    Seed,
    check_symmetrizable,
    fan_mutation_consistency,
    is_coprime_seed,
    mutate_along,
    mutate_epsilon,
    mutate_seed,
    p_star_matrix,
    picard_invariants,
    principal_double,
    seed_from_epsilon,
    totally_coprime_sufficient,
    tropical_mutation_A,
    tropical_mutation_X,
)
from golden_cases import NINE_RAY, RANK4_FROZEN, WEIGHTED_TRIANGLE
from twist_oracle import monomial, pair_with_dual, pullback_A, same_fraction, times

A2 = [[0, 1], [-1, 0]]
MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
TRIPLED_TRIANGLE = [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]


def a2_seed():
    return seed_from_epsilon(A2)

def markov_seed():
    return seed_from_epsilon(MARKOV)


def f_vector(seed, i):
    """Dual basis vector f_i = e_i^*/d_i of a seed, in initial dual
    coordinates: row i of the inverse basis, column a scaled by d_a / d_i."""
    d = seed.fixed.d
    row = seed.basis.inverse().row(i)
    out = tuple(Fraction(d[a], d[i]) * x for a, x in enumerate(row))
    assert all(x.denominator == 1 for x in out)
    return tuple(map(int, out))


def random_symmetrizable_seed(rng, n):
    """Random d-skew-symmetrizable exchange matrix realized at a root seed."""
    from math import gcd
    while True:
        d = tuple(rng.choice([1, 1, 2, 3]) for _ in range(n))
        g = gcd(*d)
        d = tuple(x // g for x in d)
        if gcd(*d) == 1:
            break
    eps = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.randint(-3, 3)
            g = gcd(d[i], d[j])
            eps[i][j] = t * (d[j] // g)
            eps[j][i] = -t * (d[i] // g)
    return seed_from_epsilon(eps, d)


class TestFixedData:
    def test_rejects_non_skew(self):
        with pytest.raises(ValidationError):
            FixedData(2, Matrix([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("n", ["2", 2.0, None, True])
    def test_rejects_a_rank_that_is_not_an_int(self, n):
        with pytest.raises(ValidationError, match=f"^rank must be an integer, got {n!r}$"):
            FixedData(n, Matrix(A2))

    @pytest.mark.parametrize("n", [3, -1, 10**20])
    def test_rejects_a_rank_other_than_the_skew_forms(self, n):
        # checked before a default d of length n is built
        with pytest.raises(ValidationError, match=f"^skew form is 2 x 2, expected rank {n}$"):
            FixedData(n, Matrix(A2))

    def test_rejects_non_integral_exchange(self):
        skew = Matrix([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]])
        with pytest.raises(ValidationError):
            FixedData(2, skew)

    def test_rational_frozen_block_allowed(self):
        skew = Matrix([
            [0, Fraction(1, 2), 1],
            [Fraction(-1, 2), 0, 1],
            [-1, -1, 0],
        ])
        fd = FixedData(3, skew, frozen={0, 1})
        assert fd.unfrozen == (2,)

    def test_gcd_of_d(self):
        with pytest.raises(ValidationError):
            seed_from_epsilon([[0, 2], [-2, 0]], d=(2, 2))

    @pytest.mark.parametrize("d", [(0, 1), (1.0, 1.0)])
    def test_seed_from_epsilon_rejects_bad_symmetrizers(self, d):
        with pytest.raises(ValidationError, match="symmetrizers d must be positive integers"):
            seed_from_epsilon([[0, 0], [0, 0]], d=d)

    def test_rejects_a_boolean_symmetrizer(self):
        with pytest.raises(ValidationError, match="symmetrizers d must be positive integers"):
            FixedData(2, Matrix(A2), d=(True, 1))

    def test_rejects_a_non_iterable_symmetrizer_field(self):
        with pytest.raises(ValidationError, match="symmetrizers d must be positive integers"):
            FixedData(2, Matrix(A2), d=5)
        assert FixedData(2, Matrix(A2), d=None).d == (1, 1)

    def test_rejects_a_non_iterable_frozen_field(self):
        with pytest.raises(ValidationError, match=r"^frozen indices must be integers in range\(2\)$"):
            FixedData(2, Matrix(A2), frozen=5)

    @pytest.mark.parametrize("frozen", [[False], [0, False], [1, True]])
    def test_rejects_a_boolean_frozen_index(self, frozen):
        # a set would merge False into 0 and True into 1
        with pytest.raises(ValidationError, match=r"^frozen indices must be integers in range\(2\)$"):
            FixedData(2, Matrix(A2), frozen=frozen)

    @pytest.mark.parametrize("frozen", [[[1]], [0, [1]], [{0}], [(1,)]])
    def test_rejects_an_unhashable_or_tuple_frozen_index(self, frozen):
        # checked before the indices are put in a set
        with pytest.raises(ValidationError, match=r"^frozen indices must be integers in range\(2\)$"):
            FixedData(2, Matrix(A2), frozen=frozen)

    # the first entry {e_i, e_j} d_j off the frozen block that is not an
    # integer, in row-major order; each message as the entrywise loop over
    # skew[i, j] gave it
    @pytest.mark.parametrize("d, frozen, message", [
        (None, (), "entry {e_0, e_1} d_1 = 1/2 is not integral"),
        (None, (0, 1), "entry {e_0, e_2} d_2 = -1/3 is not integral"),
        ((1, 1, 1), (1, 2), "entry {e_0, e_1} d_1 = 1/2 is not integral"),
        ((2, 2, 1), (), "entry {e_0, e_2} d_2 = -1/3 is not integral"),
        ((1, 2, 3), (), "entry {e_1, e_0} d_0 = -1/2 is not integral"),
        ((2, 2, 3), (), "entry {e_2, e_0} d_0 = 2/3 is not integral"),
        ((6, 3, 2), (), "entry {e_0, e_1} d_1 = 3/2 is not integral"),
        ((3, 2, 1), (0,), "entry {e_0, e_2} d_2 = -1/3 is not integral"),
    ])
    def test_names_the_first_non_integral_entry(self, d, frozen, message):
        h, t = Fraction(1, 2), Fraction(1, 3)
        skew = Matrix([[0, h, -t], [-h, 0, t], [t, -t, 0]])
        with pytest.raises(ValidationError) as exc:
            FixedData(3, skew, d, frozen)
        assert str(exc.value) == message


class TestEpsilon:
    def test_a2_root(self):
        assert a2_seed().eps == Matrix(A2)

    def test_weighted_triangle_construction(self):
        # skew {e_i, e_j} = 3 (w_i ^ w_j) for the three triangle directions
        from cluster_geom.rank2 import Rank2Data, build_seed
        seed = build_seed(Rank2Data(**WEIGHTED_TRIANGLE))
        assert seed.eps == Matrix(TRIPLED_TRIANGLE)

    def test_principal_a2_blocks(self):
        ps = principal_double(a2_seed())
        assert ps.seed.eps == Matrix(
            [[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        )


def _rational_fixed(rng, n):
    """FixedData of rank n with d != 1 and two or more frozen indices: off
    the frozen block {e_i, e_j} = t / gcd(d_i, d_j), so that {e_i, e_j} d_j
    is integral and often {e_i, e_j} is not; on it any fraction t / s."""
    while True:
        d = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(n))
        if gcd(*d) == 1 and d != (1,) * n:
            break
    frozen = set(rng.sample(range(n), rng.randint(2, n - 1)))
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i in frozen and j in frozen:
                x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            else:
                x = Fraction(rng.randint(-3, 3), gcd(d[i], d[j]))
            skew[i][j], skew[j][i] = x, -x
    return FixedData(n, Matrix(skew), d, frozen)


class TestEpsilonIntegrality:
    def test_integral_off_the_frozen_block_for_every_accepted_basis(self):
        # Seed checks no entry of eps: integrality off the frozen block
        # follows from its column conditions (see epsilon_from_basis).
        # Bases come from random elementary column operations, each kept
        # only when Seed accepts the result.
        rng = random.Random(47)
        checked = 0
        for _ in range(150):
            n = rng.randint(3, 5)
            fixed = _rational_fixed(rng, n)
            b = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(4 * n):
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                trial = [row[:j] + [row[j] + c * row[i]] + row[j + 1:] for row in b]
                try:
                    seed = Seed(fixed, Matrix(trial))
                except ValidationError:
                    continue
                b = trial
                for x in range(n):
                    for y in range(n):
                        if x not in fixed.frozen or y not in fixed.frozen:
                            assert isinstance(seed.eps[x, y], int), (fixed.d, trial)
                checked += 1
        assert checked > 1000, checked


class TestMutateSeed:
    def test_markov_k1(self):
        s = mutate_seed(markov_seed(), 1)
        # e_0 -> e_0 + 2 e_1, e_1 -> -e_1, e_2 -> e_2
        assert s.basis == Matrix([[1, 0, 0], [2, -1, 0], [0, 0, 1]])

    def test_only_sign_flip_when_column_nonpositive(self):
        # eps_10 = -1 <= 0, so only column 0 changes
        s = seed_from_epsilon([[0, 1], [-1, 0]])
        m = mutate_seed(s, 0)
        assert m.basis == Matrix([[-1, 0], [0, 1]])

    def test_double_mutation_linear_map(self):
        # twice at k differs from the start by e_i -> e_i + eps_ik e_k
        s = markov_seed()
        ss = mutate_seed(mutate_seed(s, 1), 1)
        eps = s.eps
        expected = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for a in range(3):
                expected[a][i] = int(a == i) + (eps[i, 1] if a == 1 and i != 1 else 0)
        assert ss.basis == Matrix(expected)
        assert ss.eps == eps

    def test_frozen_rejected(self):
        s = seed_from_epsilon([[0, 1], [-1, 0]], frozen={1})
        with pytest.raises(ValidationError):
            mutate_seed(s, 1)

    def test_path_tracking(self):
        s = mutate_along(markov_seed(), [0, 1, 2])
        assert s.path == (0, 1, 2)

    def test_mutation_copies_no_path(self):
        # the child links to its parent instead of copying the path, whose
        # 2 * 10**4 references alone take 160 kB
        base = tuple(i % 2 for i in range(2 * 10**4))
        s = mutate_along(a2_seed(), base)
        tracemalloc.start()
        try:
            child = mutate_seed(s, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert child.path == base + (0,)
        assert mutate_seed(child, 1).path == base + (0, 1)
        assert s.path == base

    def test_a_mutated_seed_builds_its_basis_on_first_read(self):
        s = mutate_seed(markov_seed(), 1)
        m = mutate_seed(s, 0)
        assert (s._basis, m._basis) == (None, None)
        basis = m.basis
        # the read builds the unbuilt parent too, and each drops its parent
        assert s._basis is not None
        assert (s._parent, m._parent) == (None, None)
        assert m.basis is basis
        assert Seed(m.fixed, basis).eps == m.eps

    def test_a_long_unbuilt_chain_is_read_without_recursion(self):
        path = tuple(i % 2 for i in range(2 * 10**4))
        s = a2_seed()
        for k in path:
            s = mutate_seed(s, k)
        assert s._basis is None
        assert s.basis == mutate_along(a2_seed(), path).basis

    def test_mutate_along_keeps_no_unbuilt_chain(self):
        # each basis is read as it is made: unread, the 2 * 10**4 exchange
        # matrices of the chain peak near 10 MB
        path = tuple(i % 2 for i in range(2 * 10**4))
        tracemalloc.start()
        try:
            s = mutate_along(a2_seed(), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6
        assert s._parent is None


class TestMutateEpsilon:
    def test_a2(self):
        assert mutate_epsilon(Matrix(A2), (1, 1), 0) == Matrix([[0, -1], [1, 0]])

    def test_markov_hand_computed(self):
        out = mutate_epsilon(Matrix(MARKOV), (1, 1, 1), 0)
        assert out == Matrix([[0, -2, 2], [2, 0, -2], [-2, 2, 0]])

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(200):
            s = random_symmetrizable_seed(rng, 3)
            eps, d = s.eps, s.fixed.d
            k = rng.randrange(3)
            assert mutate_epsilon(mutate_epsilon(eps, d, k), d, k) == eps

    def test_coherence_with_seed_mutation(self):
        # the definitional recompute from the mutated basis must agree with
        # the matrix-mutation rule that mutate_seed uses internally
        from cluster_geom.seeds import epsilon_from_basis
        rng = random.Random(12)
        for _ in range(100):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            assert epsilon_from_basis(mutate_seed(s, k)) == mutate_epsilon(
                s.eps, s.fixed.d, k
            )

    def test_rejects_non_symmetrizable(self):
        with pytest.raises(ValidationError):
            mutate_epsilon(Matrix([[0, 1], [1, 0]]), (1, 1), 0)

    @pytest.mark.parametrize("k", [True, 1.0, (1,), -1, 2, "1", None])
    def test_rejects_indices_that_are_not_in_range(self, k):
        # the index check of FixedData.check_mutable, without the frozen test
        with pytest.raises(ValidationError, match=r"^mutation index .* out of range$"):
            mutate_epsilon(Matrix(A2), (1, 1), k)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError, match=r"\(1, 1\)"):
            check_symmetrizable(Matrix([[0, 1], [-1, 2]]), (1, 1))

    def test_symmetrizability_preserved(self):
        rng = random.Random(18)
        for _ in range(100):
            s = random_symmetrizable_seed(rng, 4)
            k = rng.randrange(4)
            out = mutate_epsilon(s.eps, s.fixed.d, k)
            check_symmetrizable(out, s.fixed.d)  # raises on failure


class TestMutationInvariants:
    def test_mutated_seed_passes_full_validation(self):
        # mutate_seed skips re-validation for speed; spans and unimodularity
        # must nevertheless hold, which reconstructing the Seed checks
        rng = random.Random(19)
        for _ in range(50):
            s = random_symmetrizable_seed(rng, 4)
            m = mutate_seed(s, rng.randrange(4))
            revalidated = Seed(m.fixed, m.basis)
            assert revalidated.eps == m.eps

    def test_kernel_subgroup_stable(self):
        # the form kernel in coefficients is the kernel of eps^T (coefficient
        # vectors c with {sum c_j e_j, .} = 0); as a subgroup of the ambient
        # lattice it is untouched by mutation
        rng = random.Random(20)
        for _ in range(60):
            s = random_symmetrizable_seed(rng, 4)
            m = mutate_seed(s, rng.randrange(4))
            before = [s.basis.matvec(a) for a in kernel_basis(s.eps.transpose())]
            after = [m.basis.matvec(a) for a in kernel_basis(m.eps.transpose())]
            assert hermite_row_basis(before, 4) == hermite_row_basis(after, 4)

    def test_double_mutation_dual_basis_map(self):
        # the double mutation carries the mutated dual basis back to the
        # original one via m -> m - <d_k e_k, m> v_k
        rng = random.Random(22)
        for _ in range(60):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            mm = mutate_seed(mutate_seed(s, k), k)
            dk = s.fixed.d[k]
            ek = tuple(dk * x for x in s.e_vector(k))
            vk = s.v_vector(k)
            for i in range(3):
                fi = f_vector(mm, i)
                pairing = int(pair_with_dual(s, ek, fi))
                image = tuple(x - pairing * y for x, y in zip(fi, vk))
                assert image == f_vector(s, i)


def random_frozen_seed(rng, n):
    """Random seed with general d, frozen indices and rational entries in the
    frozen block of the skew form, moved off the root by a short random walk."""
    from math import gcd
    while True:
        d = tuple(rng.choice([1, 1, 2, 3]) for _ in range(n))
        if gcd(*d) == 1:
            break
    frozen = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if i in frozen and j in frozen:
                x = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
            else:
                x = Fraction(rng.randint(-2, 2), gcd(d[i], d[j]))
            skew[i][j], skew[j][i] = x, -x
    seed = Seed(FixedData(n, Matrix(skew), d, frozen), Matrix.identity(n))
    unfrozen = seed.fixed.unfrozen
    return mutate_along(seed, [rng.choice(unfrozen) for _ in range(rng.randint(0, 4))])


def basis_by_product(seed, k):
    """The mutated basis as the product B @ J with the elementary matrix J."""
    n = seed.n
    j = [[int(a == b) for b in range(n)] for a in range(n)]
    j[k][k] = -1
    for i in range(n):
        if i != k:
            j[k][i] = max(seed.eps[i, k], 0)
    return seed.basis @ Matrix(j)


def assert_normalized(m):
    again = Matrix(m.to_lists())
    for row, ref in zip(m.data, again.data):
        for x, y in zip(row, ref):
            assert type(x) is type(y) and x == y


class TestColumnUpdateMutation:
    def test_matches_matrix_product_route(self):
        from cluster_geom.seeds import epsilon_from_basis
        rng = random.Random(31)
        saw_rational = False
        for _ in range(120):
            s = random_frozen_seed(rng, rng.randint(3, 6))
            saw_rational = saw_rational or not s.eps.is_integral()
            for k in s.fixed.unfrozen:
                m = mutate_seed(s, k)
                assert m.basis == basis_by_product(s, k)
                assert m.eps == epsilon_from_basis(m)
                assert_normalized(m.basis)
                assert_normalized(m.eps)
        assert saw_rational

    def test_trusted_rows_match_mutate_seed(self):
        # _mutated_seed wraps the rows as they come: at an unfrozen k every
        # entry must already be an int or a Fraction that is not integral,
        # which tuple equality alone does not see (Fraction(2) == 2)
        from cluster_geom.seeds import _mutated_rows, _mutated_seed
        rng = random.Random(32)
        saw_rational = False
        for _ in range(120):
            s = random_frozen_seed(rng, rng.randint(3, 6))
            saw_rational = saw_rational or not s.eps.is_integral()
            for k in s.fixed.unfrozen:
                m = _mutated_seed(s, k, _mutated_rows(s.eps.data, k))
                ref = mutate_seed(s, k)
                assert (m.basis, m.eps, m.path) == (ref.basis, ref.eps, ref.path)
                assert_normalized(m.eps)
        assert saw_rational

    def test_rational_pivot_row_is_normalized(self):
        h = Fraction(1, 2)
        eps = Matrix([[0, h, -h], [-h, 0, Fraction(1, 4)], [h, Fraction(-1, 4), 0]])
        out = mutate_epsilon(eps, (1, 1, 1), 0)
        assert out == Matrix([[0, -h, h], [h, 0, 0], [-h, 0, 0]])
        assert_normalized(out)


class TestTropical:
    def test_markov_basis_vector(self):
        s = markov_seed()
        assert tropical_mutation_A(s, 1, (1, 0, 0)) == (1, 2, 0)

    def test_fixed_vector(self):
        s = markov_seed()
        assert tropical_mutation_A(s, 1, (0, 1, 0)) == (0, 1, 0)

    def test_negative_bracket_unchanged(self):
        s = markov_seed()
        # {e_2, e_1} d_1 = -2 < 0
        assert tropical_mutation_A(s, 1, (0, 0, 1)) == (0, 0, 1)

    def test_x_side_minus_v(self):
        rng = random.Random(13)
        for _ in range(100):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            m = mutate_seed(s, k)
            for i in range(3):
                img = tropical_mutation_X(s, k, tuple(-x for x in s.v_vector(i)))
                target = tuple(-x for x in m.v_vector(i))
                if i == k:
                    assert tuple(-x for x in img) == target
                else:
                    assert img == target

    def test_x_side_nonnegative_fixed(self):
        s = a2_seed()
        # <d_0 e_0, f_0> = 1 >= 0
        assert tropical_mutation_X(s, 0, (1, 0)) == (1, 0)


def random_lattice_point(rng, n):
    return tuple(rng.randint(-3, 3) for _ in range(n))


class TestStepTwist:
    """step_twist against the Fraction pairing of the test oracle, on random
    seeds with general d, frozen indices and rational frozen blocks, moved
    off the root."""

    def test_weights_are_the_scaled_vectors(self):
        rng = random.Random(51)
        for _ in range(150):
            s = random_frozen_seed(rng, rng.randint(2, 5))
            d = s.fixed.d
            for k in s.fixed.unfrozen:
                e, v = s.e_vector(k), s.v_vector(k)
                assert step_twist(s, k, "A")[0] == v
                assert step_twist(s, k, "X")[0] == e
                a, x = step_twist(s, k, "A")[1], step_twist(s, k, "X")[1]
                assert all(type(w) is int for w in a.weights + x.weights)
                assert [w * da for w, da in zip(a.weights, d)] == [d[k] * y for y in e]
                assert [w * da for w, da in zip(x.weights, d)] == [-d[k] * y for y in v]
                m = random_lattice_point(rng, s.n)
                assert a(m) == d[k] * pair_with_dual(s, e, m)
                assert x(m) == -d[k] * pair_with_dual(s, m, v)

    def test_tropical_maps_match_the_fraction_formulas(self):
        rng = random.Random(52)
        moved = Counter()
        for _ in range(150):
            s = random_frozen_seed(rng, rng.randint(2, 5))
            d = s.fixed.d
            for k in s.fixed.unfrozen:
                e, v = s.e_vector(k), s.v_vector(k)
                n_vec, m_vec = random_lattice_point(rng, s.n), random_lattice_point(rng, s.n)
                c = max(0, -d[k] * pair_with_dual(s, n_vec, v))
                assert tropical_mutation_A(s, k, n_vec) == tuple(
                    x + c * y for x, y in zip(n_vec, e)
                )
                c2 = min(0, d[k] * pair_with_dual(s, e, m_vec))
                assert tropical_mutation_X(s, k, m_vec) == tuple(
                    x + c2 * y for x, y in zip(m_vec, v)
                )
                moved["A"] += c != 0 and any(e)
                moved["X"] += c2 != 0 and any(v)
        assert min(moved["A"], moved["X"]) > 50, moved

    def test_precondition_verdicts_match_the_fraction_sign_tests(self):
        # depth 0 walks no path, so only the precondition runs
        rng = random.Random(53)
        verdicts = Counter()
        for _ in range(150):
            s = random_frozen_seed(rng, rng.randint(2, 5))
            q = random_lattice_point(rng, s.n)
            unf = s.fixed.unfrozen
            sides = (
                (verify_laurent_A, [i for i in unf if pair_with_dual(s, s.e_vector(i), q) < 0],
                 "basis vector {}"),
                (verify_laurent_X, [i for i in unf if pair_with_dual(s, q, s.v_vector(i)) > 0],
                 "ray -v_{}"),
            )
            for verify, bad, name in sides:
                if bad:
                    message = f"monomial pairs negatively with {name.format(bad[0])}"
                    with pytest.raises(PreconditionError) as err:
                        verify(s, q, 0)
                    assert str(err.value) == message
                else:
                    assert verify(s, q, 0)["paths_checked"] == 0
                verdicts[bool(bad)] += 1
        assert min(verdicts.values()) > 50, verdicts

    # RANK4_FROZEN's last index is frozen, so an index -1 read as a
    # position would twist at a frozen index
    @pytest.mark.parametrize("k, message", [
        (2, "cannot mutate at frozen index 2"),
        (-1, "mutation index -1 out of range"),
        (4, "mutation index 4 out of range"),
        (1.0, "mutation index 1.0 out of range"),
        (True, "mutation index True out of range"),
    ])
    def test_a_bad_index_raises_before_any_vector_is_read(self, tmp_path, k, message):
        path = tmp_path / "rank4_frozen.json"
        path.write_text(json.dumps(RANK4_FROZEN))
        s, _ = load_seed_file(path)
        unread = mock.Mock(side_effect=AssertionError("a vector was read"))
        steps = [
            lambda k: step_twist(s, k, "A"),
            lambda k: step_twist(s, k, "X"),
            lambda k: step_twist(s, k, "B"),
            lambda k: tropical_mutation_A(s, k, (1, 0, 0, 0)),
            lambda k: tropical_mutation_X(s, k, (1, 0, 0, 0)),
            lambda k: inverse_pullback_A(s, k, LaurentPolynomial.one(4)),
            lambda k: inverse_pullback_X(s, k, LaurentPolynomial.one(4)),
            lambda k: mutate_seed(s, k),
        ]
        with mock.patch.object(Seed, "e_vector", unread), mock.patch.object(
            Seed, "v_vector", unread
        ):
            for run in steps:
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    run(k)
            with pytest.raises(ValidationError, match="^side must be 'A' or 'X', got 'B'$"):
                step_twist(s, 0, "B")
        assert not unread.called

    def test_a_frozen_v_vector_names_its_first_fraction(self, tmp_path):
        # the rational frozen block of RANK4_FROZEN makes v_2 and v_3
        # rational; the message names the first coordinate that is not an int
        path = tmp_path / "rank4_frozen.json"
        path.write_text(json.dumps(RANK4_FROZEN))
        s, _ = load_seed_file(path)
        assert (s.v_vector(0), s.v_vector(1)) == ((0, 2, 1, 0), (-1, 2, 2, 2))
        for i, got in ((2, "Fraction(9, 2)"), (3, "Fraction(-1, 2)")):
            with pytest.raises(ValidationError) as exc:
                s.v_vector(i)
            assert str(exc.value) == f"v-vector coordinate must be an integer, got {got}"


class TestPrincipalDouble:
    def test_unfrozen_preserved(self):
        ps = principal_double(markov_seed())
        assert ps.seed.fixed.unfrozen == (0, 1, 2)
        assert ps.seed.fixed.frozen == frozenset({3, 4, 5})

    def test_p_star_unimodular(self):
        for mat in (A2, MARKOV, TRIPLED_TRIANGLE):
            ps = principal_double(seed_from_epsilon(mat))
            assert abs(ps.p_star.det()) == 1

    def test_requires_root(self):
        with pytest.raises(ValidationError):
            principal_double(mutate_seed(a2_seed(), 0))

    def test_double_of_unequal_d(self):
        s = seed_from_epsilon([[0, 2], [-1, 0]], d=(1, 2))
        ps = principal_double(s)
        assert ps.seed.fixed.d == (1, 2, 1, 2)
        assert ps.seed.eps == Matrix(
            [[0, 2, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        )


class TestPStarAndPicard:
    def test_a2(self):
        assert p_star_matrix(a2_seed()) == Matrix([[0, -1], [1, 0]])

    def test_markov_columns(self):
        p = p_star_matrix(markov_seed())
        assert p.column(0) == (0, 2, -2)
        assert p.column(1) == (-2, 0, 2)
        assert p.column(2) == (2, -2, 0)

    def test_kernel_matches_epsilon_kernel(self):
        s = markov_seed()
        assert kernel_basis(p_star_matrix(s)) == kernel_basis(s.eps)

    def test_picard_markov(self):
        factors = picard_invariants(markov_seed())
        assert factors == (2, 2, 0)
        assert not all(f == 0 for f in factors)

    def test_picard_a2(self):
        factors = picard_invariants(a2_seed())
        assert factors == ()
        assert all(f == 0 for f in factors)

    def test_frozen_refused(self):
        s = seed_from_epsilon([[0, 1], [-1, 0]], frozen={0})
        with pytest.raises(UnsupportedError):
            p_star_matrix(s)

    def test_zero_row_refused(self):
        s = seed_from_epsilon([[0, 0, 1], [0, 0, 1], [-1, -1, 0]])
        # row 0 is nonzero; build one with an actual zero row
        s2 = seed_from_epsilon([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
        with pytest.raises(ValidationError):
            picard_invariants(s2)
        assert picard_invariants(s) == (0,)


class TestCoprimality:
    def test_pairwise_nonproportional(self):
        assert is_coprime_seed(a2_seed())
        assert is_coprime_seed(markov_seed())

    def test_equal_v_vectors(self):
        from cluster_geom.rank2 import Rank2Data, build_seed
        seed = build_seed(Rank2Data(**NINE_RAY))
        assert not is_coprime_seed(seed)

    def test_doubled_direction_is_coprime(self):
        # v and 2v along one direction: gcd(1 + t^2, 1 + t) = 1
        eps = [[0, 0, 1], [0, 0, 2], [-1, -2, 0]]
        assert is_coprime_seed(seed_from_epsilon(eps))

    def test_opposite_directions_not_coprime(self):
        # v and -v: the binomials agree up to a unit monomial
        eps = [[0, 0, 1], [0, 0, -1], [-1, 1, 0]]
        assert not is_coprime_seed(seed_from_epsilon(eps))

    def test_sufficient_condition(self):
        assert totally_coprime_sufficient(a2_seed())
        assert not totally_coprime_sufficient(markov_seed())
        for mat in (A2, MARKOV, TRIPLED_TRIANGLE):
            ps = principal_double(seed_from_epsilon(mat))
            assert totally_coprime_sufficient(ps.seed)


# ---------------------------------------------------------------------------
# Differential oracles: the routes is_coprime_seed and Seed validation took
# before the closed forms, a Euclidean algorithm on dense rational
# coefficient lists and a comparison of Hermite bases of spanned lattices.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _euclid_gcd_is_unit(c1, c2):
    """Is gcd(1 + t^c1, 1 + t^c2) = 1 over the rationals?"""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def poly_mod(a, b):
        a = trim(a[:])
        db, lb = len(b) - 1, b[-1]
        while a and len(a) - 1 >= db:
            da, f = len(a) - 1, a[-1] / lb
            for i in range(db + 1):
                a[da - db + i] -= f * b[i]
            trim(a)
        return a

    def binomial(c):
        p = [Fraction(0)] * (c + 1)
        p[0] = p[c] = Fraction(1)
        return p

    a, b = binomial(c1), binomial(c2)
    while b:
        a, b = b, poly_mod(a, b)
    return len(a) == 1


def _proportional_seed(n, cs, at, r, frozen=()):
    """Root seed with v_{at[k]} = cs[k] times the r-th dual basis vector."""
    eps = [[0] * n for _ in range(n)]
    for c, i in zip(cs, at):
        eps[i][r], eps[r][i] = c, -c
    return seed_from_epsilon(eps, frozen=frozen)


class TestCoprimalityRule:
    def test_euclid_matches_two_adic_parity(self):
        for c1 in range(1, 65):
            for c2 in range(1, 65):
                coprime = _euclid_gcd_is_unit(c1, c2)
                assert coprime == ((c1 & -c1) != (c2 & -c2)), (c1, c2)
                seed = _proportional_seed(3, (c1, c2), (0, 1), 2)
                assert is_coprime_seed(seed) == coprime, (c1, c2)

    def test_proportional_pairs_at_chosen_indices(self):
        rng = random.Random(41)
        for c1 in range(1, 33):
            for c2 in range(1, 33):
                p, q, r, spare = rng.sample(range(4), 4)
                sign = rng.choice((1, -1))
                frozen = {spare} if rng.random() < 0.5 else ()
                seed = _proportional_seed(4, (c1, sign * c2), (p, q), r, frozen)
                assert is_coprime_seed(seed) == _euclid_gcd_is_unit(c1, c2), (c1, c2)

    def test_proportional_triples(self):
        for cs in ((1, 2, 4), (1, 2, 3), (3, 6, 12), (2, 6, 4), (5, 10, 7), (8, 24, 4)):
            oracle = all(
                _euclid_gcd_is_unit(a, b)
                for k, a in enumerate(cs) for b in cs[k + 1:]
            )
            for sign in (1, -1):
                seed = _proportional_seed(5, (cs[0], sign * cs[1], cs[2]), (4, 1, 2), 0)
                assert is_coprime_seed(seed) == oracle, cs
        assert is_coprime_seed(_proportional_seed(5, (1, 2, 4), (4, 1, 2), 0))
        assert not is_coprime_seed(_proportional_seed(5, (1, 2, 3), (4, 1, 2), 0))


def _hermite_route_error(fixed, basis):
    """The message of the Hermite-span validation, or None if it accepts."""
    n, d = fixed.n, fixed.d
    if abs(basis.det()) != 1:
        return "seed basis is not unimodular"

    def unit(i):
        return tuple(int(a == i) for a in range(n))

    unf = fixed.unfrozen
    if hermite_row_basis([basis.column(i) for i in unf], n) != hermite_row_basis(
        [unit(i) for i in unf], n
    ):
        return "unfrozen columns do not span the unfrozen sublattice"
    scaled = [tuple(d[i] * x for x in basis.column(i)) for i in range(n)]
    if hermite_row_basis(scaled, n) != hermite_row_basis(
        [tuple(d[i] * x for x in unit(i)) for i in range(n)], n
    ):
        return "scaled columns d_i e_i do not span the expected sublattice"
    return None


def _random_fixed(rng, n):
    while True:
        d = tuple(rng.choice((1, 2, 3)) for _ in range(n))
        if gcd(*d) == 1:
            break
    frozen = {i for i in range(n) if rng.random() < 0.35}
    skew = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.randint(-2, 2)
            skew[i][j], skew[j][i] = t, -t
    return FixedData(n, Matrix(skew), d, frozen)


def _random_basis(rng, fixed, kind):
    """A product of elementary row operations row_j += c row_i and sign flips.

    "kept" only uses operations that fix the unfrozen sublattice and the
    lattice of the d_i e_i, so it satisfies both seed conditions; "free" uses
    any c; "scaled" multiplies one column of a free basis by 0, 2 or 3."""
    n, d = fixed.n, fixed.d
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3 * n)):
        i, j = rng.sample(range(n), 2)
        if kind == "kept":
            if j in fixed.frozen and i not in fixed.frozen:
                continue
            c = rng.choice((-2, -1, 1, 2)) * (d[j] // gcd(d[i], d[j]))
        else:
            c = rng.choice((-2, -1, 1, 2))
        b[j] = [x + c * y for x, y in zip(b[j], b[i])]
        if rng.random() < 0.2:
            b[i] = [-x for x in b[i]]
    if kind == "scaled":
        col, f = rng.randrange(n), rng.choice((0, 2, 3))
        for row in b:
            row[col] *= f
    return Matrix(b)


class TestSeedValidationRoutes:
    def test_entrywise_checks_match_hermite_spans(self):
        rng = random.Random(43)
        outcomes = Counter()
        for _ in range(300):
            fixed = _random_fixed(rng, rng.randint(2, 5))
            basis = _random_basis(rng, fixed, rng.choice(("kept", "free", "free", "scaled")))
            try:
                Seed(fixed, basis)
                got = None
            except ValidationError as exc:
                got = str(exc)
            assert got == _hermite_route_error(fixed, basis), (fixed.d, fixed.frozen, basis)
            outcomes[got] += 1
        assert len(outcomes) == 4
        assert min(outcomes.values()) >= 20, outcomes

    def test_each_condition_broken_by_hand(self):
        skew = Matrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        cases = [
            (FixedData(3, skew, (1, 1, 1), {2}), [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
             "unfrozen columns do not span the unfrozen sublattice"),
            (FixedData(3, skew, (1, 2, 1)), [[1, 0, 0], [1, 1, 0], [0, 0, 1]],
             "scaled columns d_i e_i do not span the expected sublattice"),
            (FixedData(3, skew, (1, 2, 1)), [[1, 0, 0], [2, 1, 0], [0, 0, 1]], None),
            (FixedData(3, skew, (1, 1, 1), {0}), [[1, 0, 0], [0, 1, 0], [1, 0, 1]], None),
            (FixedData(3, skew), [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
             "seed basis is not unimodular"),
        ]
        for fixed, rows, message in cases:
            basis = Matrix(rows)
            assert _hermite_route_error(fixed, basis) == message
            if message is None:
                Seed(fixed, basis)
            else:
                with pytest.raises(ValidationError, match=message):
                    Seed(fixed, basis)


class TestFans:
    def test_consistency_small(self):
        for mat in (A2, MARKOV):
            s = seed_from_epsilon(mat)
            for k in range(s.n):
                assert fan_mutation_consistency(s, k)

    def test_consistency_random(self):
        rng = random.Random(14)
        for _ in range(300):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            assert fan_mutation_consistency(s, k)


class TestPullbacks:
    # pullback_A is the test-local oracle (see twist_oracle.py); the inverse
    # pullbacks are laurent-check's steps
    def test_exchange_relation_a2(self):
        s = a2_seed()
        mutated = mutate_seed(s, 0)
        pulled = pullback_A(s, 0, monomial(f_vector(mutated, 0)))
        expected = RationalExpression(
            LaurentPolynomial(2, {(0, 0): 1, (0, 1): 1}),
            LaurentPolynomial(2, {(1, 0): 1}),
        )
        assert same_fraction(pulled, expected)

    def test_invariant_monomial(self):
        s = a2_seed()
        out = pullback_A(s, 0, monomial((0, 1)))
        # <d_0 e_0, f_1> = 0
        assert out.as_laurent() == LaurentPolynomial.monomial((0, 1))

    def test_constant(self):
        s = a2_seed()
        out = pullback_A(s, 0, monomial((0, 0), 7))
        assert out.as_laurent() == LaurentPolynomial.constant(2, 7)

    def test_x_variable_inverts(self):
        s = a2_seed()
        mutated = mutate_seed(s, 0)
        out = inverse_pullback_X(s, 0, LaurentPolynomial.monomial((-1, 0)))
        assert out.as_laurent() == LaurentPolynomial.monomial(mutated.e_vector(0))

    def test_x_neighbour_formula(self):
        # X_1' pulls back to X_1 (1 + X_0) (eps_10 = -1), and back again
        s = a2_seed()
        mutated = mutate_seed(s, 0)
        out = inverse_pullback_X(s, 0, LaurentPolynomial(2, {(0, 1): 1, (1, 1): 1}))
        assert out.as_laurent() == LaurentPolynomial.monomial(mutated.e_vector(1))

    def test_x_zero_bracket_unchanged(self):
        s = markov_seed()
        out = inverse_pullback_X(s, 0, LaurentPolynomial.monomial((1, 1, 1)))
        assert out.as_laurent() == LaurentPolynomial.monomial((1, 1, 1))

    def test_inverse_x_homomorphism(self):
        rng = random.Random(18)
        for _ in range(40):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            m1 = tuple(rng.randint(-2, 2) for _ in range(3))
            m2 = tuple(rng.randint(-2, 2) for _ in range(3))
            p1, p2, p12 = (
                inverse_pullback_X(s, k, LaurentPolynomial.monomial(m))
                for m in (m1, m2, tuple(a + b for a, b in zip(m1, m2)))
            )
            assert same_fraction(p12, times(p1, p2))

    def test_pullback_homomorphism(self):
        rng = random.Random(15)
        s = markov_seed()
        for _ in range(25):
            m1 = tuple(rng.randint(-2, 2) for _ in range(3))
            m2 = tuple(rng.randint(-2, 2) for _ in range(3))
            k = rng.randrange(3)
            p1 = pullback_A(s, k, monomial(m1))
            p2 = pullback_A(s, k, monomial(m2))
            p12 = pullback_A(s, k, monomial(tuple(a + b for a, b in zip(m1, m2))))
            assert same_fraction(p12, times(p1, p2))

    def test_double_pullback_is_linear_map(self):
        rng = random.Random(16)
        for _ in range(40):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            s2 = mutate_seed(s, k)
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            composite = pullback_A(s, k, pullback_A(s2, k, monomial(m)))
            dk, ek, vk = s.fixed.d[k], s.e_vector(k), s.v_vector(k)
            pairing = pair_with_dual(s, tuple(dk * x for x in ek), m)
            image = tuple(x - int(pairing) * y for x, y in zip(m, vk))
            assert same_fraction(composite, monomial(image))

    def test_inverse_pullback(self):
        rng = random.Random(17)
        for _ in range(40):
            s = random_symmetrizable_seed(rng, 3)
            k = rng.randrange(3)
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            roundtrip = pullback_A(s, k, inverse_pullback_A(s, k, LaurentPolynomial.monomial(m)))
            assert same_fraction(roundtrip, monomial(m))


# -- constructors and index checks on junk ---------------------------------

_junk = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.floats(), st.integers(-4, 4),
        st.sampled_from([1 << 62, -(1 << 62)]), st.text(max_size=2),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)
_EPS = ([], [[0]], A2, [[0, 2], [-1, 0]], MARKOV)
_SEEDS = (
    seed_from_epsilon([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], frozen=(2,)),
    seed_from_epsilon([[0, 2], [-1, 0]], d=(1, 2), frozen=(1,)),
    seed_from_epsilon(MARKOV),
)


def _skew(size):
    return Matrix([[(j > i) - (j < i) for j in range(size)] for i in range(size)])


class TestConstructorFuzz:
    """Junk (None, bools, floats, strings, nested lists, +-2^62 and indices
    out of range) may only raise ValidationError, and a frozen index never
    comes back as a twist."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.integers(-1, 4), _junk),
        skew=st.one_of(st.integers(0, 3).map(_skew), _junk),
        d=st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=4), _junk),
        frozen=st.one_of(st.lists(st.integers(-1, 4), max_size=2), _junk),
    )
    def test_fixed_data(self, n, skew, d, frozen):
        try:
            fixed = FixedData(n, skew, d, frozen)
        except ValidationError:
            return
        assert fixed.frozen <= set(range(fixed.n))

    @settings(max_examples=300, deadline=None)
    @given(
        w=st.one_of(st.lists(st.sampled_from([[1, 0], [0, 1], [-1, -1], [2, 4]])), _junk),
        nu=st.one_of(st.none(), st.lists(st.integers(0, 2), max_size=4), _junk),
    )
    def test_rank2_data(self, w, nu):
        try:
            Rank2Data(w, nu)
        except ValidationError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        eps=st.one_of(
            st.sampled_from(_EPS),
            _junk,
            st.lists(st.one_of(st.lists(st.one_of(st.integers(-2, 2), _junk), max_size=3), _junk),
                     max_size=3),
        ),
        d=st.one_of(st.none(), st.lists(st.integers(0, 3), max_size=4), _junk),
        frozen=st.one_of(st.lists(st.integers(-1, 4), max_size=2), _junk),
    )
    def test_seed_from_epsilon(self, eps, d, frozen):
        try:
            seed_from_epsilon(eps, d, frozen)
        except ValidationError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.sampled_from(_SEEDS),
        k=st.one_of(st.integers(-4, 4), _junk),
        side=st.one_of(st.sampled_from(["A", "X", "B"]), _junk),
    )
    def test_mutation_indices(self, seed, k, side):
        for run in (lambda: mutate_seed(seed, k), lambda: step_twist(seed, k, side)):
            try:
                run()
            except ValidationError:
                continue
            assert k.__class__ is int and k in seed.fixed.unfrozen
