import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cluster_geom.intmat import (
    Matrix,
    cokernel_invariants,
    hermite_row_basis,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
)
from cluster_geom.rank2 import nine_ray_data, symmetric_form


# ---------------------------------------------------------------------------
# Independent oracle: invariant factors from gcds of k x k minors.
# d_k = gcd(k-minors) / gcd((k-1)-minors).  Only feasible for small matrices,
# which is exactly what we need to cross-check the Smith reduction.
# ---------------------------------------------------------------------------

def _minor_det(m, rows, cols):
    sub = [[m[i][j] for j in cols] for i in rows]
    n = len(sub)
    if n == 1:
        return sub[0][0]
    total = 0
    for j in range(n):
        sign = -1 if j % 2 else 1
        total += sign * sub[0][j] * _minor_det(
            [row[:j] + row[j + 1:] for row in sub[1:]], range(n - 1), range(n - 1)
        )
    return total


def snf_oracle_diagonal(mat):
    m = mat.to_lists()
    r, c = mat.rows, mat.cols
    limit = min(r, c)
    prev = 1
    diag = []
    for k in range(1, limit + 1):
        g = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                g = gcd(g, abs(_minor_det(m, rows, cols)))
        if g == 0:
            diag.extend([0] * (limit - k + 1))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


MARKOV_EPS = Matrix([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
A2_EPS = Matrix([[0, 1], [-1, 0]])


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # hand row/column reduction: gcd 1, then 6
        assert smith_diagonal(Matrix([[2, 0], [0, 3]])) == (1, 6)

    def test_identity(self):
        u, s, v = smith_normal_form(Matrix.identity(3))
        assert s == Matrix.identity(3)
        assert u @ s @ v == Matrix.identity(3)

    def test_markov(self):
        # gcd of entries 2, gcd of 2x2 minors 4, det 0
        assert snf_oracle_diagonal(MARKOV_EPS) == (2, 2, 0)
        assert smith_diagonal(MARKOV_EPS) == (2, 2, 0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (1, 5)])
    def test_random_factorization(self, shape):
        rng = random.Random(20240 + shape[0] * 10 + shape[1])
        for _ in range(40):
            a = random_matrix(rng, *shape)
            u, s, v = smith_normal_form(a)
            assert u @ s @ v == a
            assert abs(u.det()) == 1
            assert abs(v.det()) == 1
            diag = [s[i, i] for i in range(min(shape))]
            assert all(d >= 0 for d in diag)
            for x, y in zip(diag, diag[1:]):
                if x != 0:
                    assert y % x == 0
                else:
                    assert y == 0
            for i in range(s.rows):
                for j in range(s.cols):
                    if i != j:
                        assert s[i, j] == 0
            assert tuple(diag) == snf_oracle_diagonal(a)

    def test_determinism(self):
        a = Matrix([[4, -2, 7], [0, 3, 3], [-5, 1, 2]])
        assert smith_normal_form(a) == smith_normal_form(a)

    def test_rejects_rational(self):
        with pytest.raises(TypeError):
            smith_normal_form(Matrix([[Fraction(1, 2)]]))


def _is_saturated_family(vectors):
    """Independent integer vectors span a saturated sublattice iff every
    Smith invariant factor of the matrix with those rows is 1."""
    if not vectors:
        return True
    diag = smith_diagonal(Matrix(list(vectors)))
    return len(diag) == len(vectors) and all(d == 1 for d in diag)


class TestKernel:
    def test_markov_kernel(self):
        # solve 2b - 2c = 0, -2a + 2c = 0 by hand: span{(1,1,1)}
        assert kernel_basis(MARKOV_EPS) == ((1, 1, 1),)

    def test_invertible_empty(self):
        assert kernel_basis(Matrix([[2, 1], [1, 1]])) == ()

    def test_zero_matrix(self):
        assert kernel_basis(Matrix.zeros(2, 2)) == ((1, 0), (0, 1))

    def test_random_kernels_saturated(self):
        rng = random.Random(7)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            basis = kernel_basis(a)
            for vec in basis:
                assert a.matvec(vec) == (0,) * a.rows
            assert _is_saturated_family(basis)
            # dimension agrees with rank-nullity
            assert len(basis) == a.cols - a.rank()


class TestCokernel:
    def test_markov(self):
        assert cokernel_invariants(MARKOV_EPS) == (2, 2, 0)

    def test_a2(self):
        assert cokernel_invariants(A2_EPS) == ()

    def test_zero_1x1(self):
        assert cokernel_invariants(Matrix([[0]])) == (0,)


class TestSolveInteger:
    def test_p2_charge_matrix(self):
        q = Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        x = solve_integer(q, (1, 1, 1))
        assert x is not None
        assert q.matvec(x) == (1, 1, 1)

    def test_identity(self):
        assert solve_integer(Matrix.identity(3), (5, -2, 0)) == (5, -2, 0)

    def test_no_solution(self):
        assert solve_integer(Matrix([[2]]), (1,)) is None

    def test_random(self):
        rng = random.Random(99)
        for _ in range(60):
            a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            x0 = tuple(rng.randint(-4, 4) for _ in range(a.cols))
            b = a.matvec(x0)
            x = solve_integer(a, b)
            assert x is not None
            assert a.matvec(x) == b
        # and unsolvable right-hand sides are detected
        assert solve_integer(Matrix([[2, 0], [0, 2]]), (1, 2)) is None


# ---------------------------------------------------------------------------
# Differential oracle: the route solve_integer and kernel_basis took before
# they read U^-1 and V^-1 from the Smith reduction, inverting U and V by
# Gauss-Jordan elimination over Q instead.
# ---------------------------------------------------------------------------

def _inverse_route_solve(a, b):
    u, s, v = smith_normal_form(a)
    c = u.inverse().matvec(b)
    y = [0] * a.cols
    for i in range(a.rows):
        d = s[i, i] if i < min(a.rows, a.cols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return v.inverse().matvec(y)


def _inverse_route_kernel(a):
    _, s, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(a.rows, a.cols)) if s[i, i] != 0)
    vi = v.inverse()
    return hermite_row_basis([vi.column(j) for j in range(rank, a.cols)], a.cols)


def _rank_deficient(rng, n, rank):
    left = random_matrix(rng, n, rank, -3, 3)
    right = random_matrix(rng, rank, n, -3, 3)
    return left @ right


class TestTransformsFromReduction:
    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 3), (3, 2), (4, 4)])
    def test_random_shapes_match_inverse_route(self, shape):
        rng = random.Random(5150 + shape[0] * 10 + shape[1])
        for _ in range(40):
            a = random_matrix(rng, *shape)
            self._check(rng, a)

    def test_zero_matrices_match_inverse_route(self):
        rng = random.Random(17)
        for shape in [(1, 1), (1, 5), (5, 1), (3, 3), (2, 4)]:
            self._check(rng, Matrix.zeros(*shape))

    def test_rank_deficient_4x4_matches_inverse_route(self):
        rng = random.Random(23)
        for rank in (1, 2, 3):
            for _ in range(20):
                a = _rank_deficient(rng, 4, rank)
                assert a.rank() <= rank
                self._check(rng, a)

    @staticmethod
    def _check(rng, a):
        assert kernel_basis(a) == _inverse_route_kernel(a)
        x0 = tuple(rng.randint(-5, 5) for _ in range(a.cols))
        for b in (a.matvec(x0), tuple(rng.randint(-9, 9) for _ in range(a.rows))):
            x = solve_integer(a, b)
            assert x == _inverse_route_solve(a, b)
            if x is not None:
                assert a.matvec(x) == b
                assert all(type(e) is int for e in x)

    def test_no_gauss_jordan_inverse(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Matrix.inverse called")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        a = Matrix([[4, -2, 7], [0, 3, 3], [-5, 1, 2]])
        assert solve_integer(a, a.matvec((1, 2, 3))) == (1, 2, 3)
        assert kernel_basis(MARKOV_EPS) == ((1, 1, 1),)
        assert symmetric_form(nine_ray_data()).gram.rows == 7


class TestHermite:
    def test_span_equality(self):
        assert hermite_row_basis([(2, 0), (0, 2), (1, 1)], 2) == hermite_row_basis(
            [(1, 1), (2, 0)], 2
        )
        assert hermite_row_basis([(2, 0), (0, 2)], 2) != hermite_row_basis(
            [(1, 0), (0, 1)], 2
        )

    def test_canonical(self):
        h = hermite_row_basis([(0, 3), (2, 1)], 2)
        assert h == ((2, 1), (0, 3))


class TestMatrix:
    def test_det_inverse(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n)
            d = a.det()
            if d == 0:
                with pytest.raises(ValueError):
                    a.inverse()
                continue
            inv = a.inverse()
            assert a @ inv == Matrix.identity(n)

    def test_rank(self):
        assert MARKOV_EPS.rank() == 2
        assert A2_EPS.rank() == 2
        assert Matrix.zeros(3, 3).rank() == 0

    def test_det_and_rank_need_integers(self):
        half = Matrix([[Fraction(1, 2)]])
        with pytest.raises(TypeError):
            half.det()
        with pytest.raises(TypeError):
            half.rank()

    def test_no_floats(self):
        with pytest.raises(TypeError):
            Matrix([[1.5]])


# ---------------------------------------------------------------------------
# Differential oracle: the rank route Matrix.rank took before it counted the
# nonzero Smith invariant factors, Gauss-Jordan elimination over Q.
# ---------------------------------------------------------------------------

def _fraction_rank(a):
    m = [[Fraction(x) for x in row] for row in a.data]
    rank = 0
    for c in range(a.cols):
        piv = next((r for r in range(rank, a.rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(a.rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestSmithRank:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4), (3, 6)])
    def test_random_matches_fraction_route(self, shape):
        rng = random.Random(4242 + shape[0] * 10 + shape[1])
        for _ in range(40):
            a = random_matrix(rng, *shape, lo=-3, hi=3)
            assert a.rank() == _fraction_rank(a)

    def test_zero_matrices(self):
        for shape in [(1, 1), (1, 4), (4, 1), (3, 3), (2, 5), (0, 0)]:
            a = Matrix.zeros(*shape)
            assert a.rank() == _fraction_rank(a) == 0

    def test_rank_deficient(self):
        rng = random.Random(31)
        seen = set()
        for n, rank in [(3, 1), (4, 1), (4, 2), (4, 3), (5, 2), (5, 4)]:
            for _ in range(15):
                a = _rank_deficient(rng, n, rank)
                assert a.rank() == _fraction_rank(a) <= rank
                seen.add(a.rank())
        assert seen >= {1, 2, 3, 4}

    def test_rectangular_products(self):
        rng = random.Random(37)
        for r, k, c in [(2, 1, 5), (5, 2, 3), (3, 2, 6), (6, 3, 4)]:
            for _ in range(15):
                a = random_matrix(rng, r, k, -4, 4) @ random_matrix(rng, k, c, -4, 4)
                assert a.rank() == _fraction_rank(a) <= k

