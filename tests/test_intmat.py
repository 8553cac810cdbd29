import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cluster_geom import intmat
from cluster_geom.intmat import (
    Matrix,
    cokernel_invariants,
    hermite_row_basis,
    kernel_basis,
    smith_diagonal,
    smith_normal_form,
    solve_integer,
)
from cluster_geom.rank2 import Rank2Data, symmetric_form
from golden_cases import NINE_RAY


def _zeros(r, c):
    return Matrix([[0] * c for _ in range(r)])


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
        left, s, right = smith_normal_form(Matrix.identity(3))
        assert s == Matrix.identity(3)
        assert left @ Matrix.identity(3) @ right == s

    def test_markov(self):
        # gcd of entries 2, gcd of 2x2 minors 4, det 0
        assert snf_oracle_diagonal(MARKOV_EPS) == (2, 2, 0)
        assert smith_diagonal(MARKOV_EPS) == (2, 2, 0)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (1, 5)])
    def test_random_factorization(self, shape):
        rng = random.Random(20240 + shape[0] * 10 + shape[1])
        for _ in range(40):
            a = random_matrix(rng, *shape)
            left, s, right = smith_normal_form(a)
            assert left @ a @ right == s
            assert (left.rows, right.rows) == shape
            assert abs(left.det()) == 1
            assert abs(right.det()) == 1
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


class TestPinnedTransforms:
    """(L, S, R) exactly as the pivot rule and the order of operations give
    them.  The transforms are not unique, and kernel_basis prints a Hermite
    form of columns of R that is not canonical, so any change to the
    reduction's operations shows in CLI stdout; these pins show it first."""

    @pytest.mark.parametrize("a, left, s, right", [
        # a row remainder
        ([[2], [3]], [[-1, 1], [3, -2]], [[1], [0]], [[1]]),
        # a column remainder
        ([[2, 3]], [[1]], [[1, 0]], [[-1, 3], [1, -2]]),
        # a column remainder, the divisibility fix-up and a negated pivot
        ([[2, 0], [0, 3]], [[1, 1], [3, 2]], [[1, 0], [0, 6]], [[-1, 3], [1, -2]]),
        ([[-3, 5], [7, -2]], [[-1, -3], [2, 5]], [[1, 0], [0, 29]], [[0, 1], [1, 18]]),
    ])
    def test_small_cases(self, a, left, s, right):
        assert smith_normal_form(Matrix(a)) == (Matrix(left), Matrix(s), Matrix(right))

    def test_random_digest(self):
        rng = random.Random(2121)
        digest = hashlib.sha256()
        for _ in range(300):
            rows, cols, density = rng.randint(1, 6), rng.randint(1, 6), rng.random()
            a = Matrix([[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(cols)] for _ in range(rows)])
            digest.update(repr(tuple(m.data for m in smith_normal_form(a))).encode())
        assert digest.hexdigest() == (
            "68c31383f751153181c091a128a931cf67dde669d116ee1f648532df95d44ef8"
        )


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
        assert kernel_basis(_zeros(2, 2)) == ((1, 0), (0, 1))

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
# Independent oracles on Hermite forms, which involve no Smith reduction.
# hermite_row_basis is an echelon basis: each row is zero before its pivot,
# and the pivot columns increase.  It is not canonical (reducing above the
# pivots from the last one upward can undo an earlier reduction), so the
# oracles compare lattices, not tuples.
# ---------------------------------------------------------------------------

def _in_lattice(v, echelon):
    """Whether v is an integer combination of the rows of an echelon basis."""
    v = list(v)
    for row in echelon:
        c = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[c], row[c])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _same_lattice(xs, ys, width):
    hx, hy = hermite_row_basis(xs, width), hermite_row_basis(ys, width)
    return all(_in_lattice(v, hy) for v in xs) and all(_in_lattice(v, hx) for v in ys)


def _hermite_kernel(a):
    """The kernel of A from the Hermite form of [A^T | I]: the rows whose A
    part is zero, read in their I part."""
    rows = [a.column(j) + tuple(int(i == j) for i in range(a.cols)) for j in range(a.cols)]
    h = hermite_row_basis(rows, a.rows + a.cols)
    return [row[a.rows:] for row in h if not any(row[:a.rows])]


def _rank_deficient(rng, n, rank):
    left = random_matrix(rng, n, rank, -3, 3)
    right = random_matrix(rng, rank, n, -3, 3)
    return left @ right


class TestTransformsFromReduction:
    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (2, 3), (3, 2), (4, 4)])
    def test_random_shapes_match_hermite_oracles(self, shape):
        rng = random.Random(5150 + shape[0] * 10 + shape[1])
        for _ in range(40):
            a = random_matrix(rng, *shape)
            self._check(rng, a)

    def test_zero_matrices_match_hermite_oracles(self):
        rng = random.Random(17)
        for shape in [(1, 1), (1, 5), (5, 1), (3, 3), (2, 4)]:
            self._check(rng, _zeros(*shape))

    def test_rank_deficient_4x4_matches_hermite_oracles(self):
        rng = random.Random(23)
        for rank in (1, 2, 3):
            for _ in range(20):
                a = _rank_deficient(rng, 4, rank)
                assert a.rank() <= rank
                self._check(rng, a)

    @staticmethod
    def _check(rng, a):
        kernel = kernel_basis(a)
        assert len(kernel) == a.cols - a.rank()
        assert _same_lattice(kernel, _hermite_kernel(a), a.cols)
        columns = hermite_row_basis([a.column(j) for j in range(a.cols)], a.rows)
        x0 = tuple(rng.randint(-5, 5) for _ in range(a.cols))
        rhs = [a.matvec(x0), tuple(rng.randint(-9, 9) for _ in range(a.rows))]
        for b in rhs:
            x = solve_integer(a, b)
            # a solution exactly when b lies in the column lattice of A
            assert (x is not None) == _in_lattice(b, columns)
            if x is not None:
                assert a.matvec(x) == b
                assert all(type(e) is int for e in x)
        assert solve_integer(a, rhs) == [solve_integer(a, b) for b in rhs]

    def test_oracles_can_say_no(self):
        # an unsaturated kernel, and a point off an index-2 lattice
        assert not _same_lattice([(2, -2)], _hermite_kernel(Matrix([[1, 1]])), 2)
        assert _in_lattice((3, 1), hermite_row_basis([(2, 0), (1, 1)], 2))
        assert not _in_lattice((1, 0), hermite_row_basis([(2, 0), (1, 1)], 2))

    def test_a_list_of_right_hand_sides_takes_one_reduction(self, monkeypatch):
        rng = random.Random(6160)
        reductions = []

        def counting(a):
            reductions.append(a)
            return smith_reduce(a)

        smith_reduce = intmat._smith_reduce
        unsolvable = 0
        for shape in [(1, 5), (5, 1), (2, 3), (3, 2), (4, 4)]:
            for _ in range(20):
                a = random_matrix(rng, *shape)
                rhs = [a.matvec(tuple(rng.randint(-5, 5) for _ in range(a.cols)))
                       for _ in range(3)]
                rhs += [tuple(rng.randint(-9, 9) for _ in range(a.rows)) for _ in range(3)]
                single = [solve_integer(a, b) for b in rhs]
                unsolvable += single.count(None)
                monkeypatch.setattr(intmat, "_smith_reduce", counting)
                assert solve_integer(a, rhs) == single
                monkeypatch.setattr(intmat, "_smith_reduce", smith_reduce)
                assert len(reductions) == 1
                reductions.clear()
        assert unsolvable > 20
        assert solve_integer(Matrix([[2, 0], [0, 2]]), [(2, 4), (1, 2), (0, 0)]) == [
            (1, 2), None, (0, 0)
        ]
        assert solve_integer(Matrix.identity(2), []) == []
        with pytest.raises(ValueError):
            solve_integer(Matrix.identity(2), [(1, 2), (1, 2, 3)])

    def test_no_gauss_jordan_inverse(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Matrix.inverse called")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        a = Matrix([[4, -2, 7], [0, 3, 3], [-5, 1, 2]])
        assert solve_integer(a, a.matvec((1, 2, 3))) == (1, 2, 3)
        assert kernel_basis(MARKOV_EPS) == ((1, 1, 1),)
        assert symmetric_form(Rank2Data(**NINE_RAY)).gram.rows == 7


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
        assert _zeros(3, 3).rank() == 0

    def test_det_and_rank_need_integers(self):
        half = Matrix([[Fraction(1, 2)]])
        with pytest.raises(TypeError):
            half.det()
        with pytest.raises(TypeError):
            half.rank()

    def test_no_floats(self):
        with pytest.raises(TypeError):
            Matrix([[1.5]])

    def test_no_booleans(self):
        # an exact int skips normalization, a bool (an int subclass) does not
        with pytest.raises(TypeError):
            Matrix([[1, True]])

    def test_integral_fractions_become_ints(self):
        m = Matrix([[Fraction(4, 2), 3], [Fraction(1, 2), -1]])
        assert m.data == ((2, 3), (Fraction(1, 2), -1))
        assert type(m[0, 0]) is int
        half = Matrix([[Fraction(1, 2), 0], [0, 2]])
        product = half @ Matrix([[2, 0], [0, Fraction(1, 2)]])
        assert product == Matrix.identity(2)
        assert all(type(x) is int for row in product.data for x in row)

    def test_transpose(self):
        assert Matrix([]).transpose() == Matrix([])
        assert Matrix([]).transpose().rows == Matrix([]).transpose().cols == 0
        # an r x 0 matrix has no columns to turn into rows
        t = Matrix([[], [], []]).transpose()
        assert (t.rows, t.cols) == (0, 0)
        q = Matrix([[Fraction(1, 2), 3, Fraction(-5, 3)], [0, Fraction(7, 4), 1]])
        t = q.transpose()
        assert (t.rows, t.cols) == (3, 2)
        assert t.to_lists() == [[Fraction(1, 2), 0], [3, Fraction(7, 4)], [Fraction(-5, 3), 1]]
        assert type(t[1, 0]) is int
        assert t.transpose() == q
        rng = random.Random(11)
        for r, c in [(1, 1), (1, 4), (4, 1), (3, 5)]:
            a = random_matrix(rng, r, c)
            assert a.transpose().to_lists() == [list(a.column(j)) for j in range(c)]

    def test_products_match_the_entrywise_sum(self):
        rng = random.Random(12)
        for r, k, c in [(1, 1, 1), (2, 3, 4), (4, 1, 3), (3, 3, 3)]:
            a = random_matrix(rng, r, k)
            b = Matrix([[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(c)]
                        for _ in range(k)])
            for x, y in ((a, random_matrix(rng, k, c)), (a, b)):
                expected = [[sum(x[i, t] * y[t, j] for t in range(k)) for j in range(c)]
                            for i in range(r)]
                assert (x @ y).to_lists() == expected


# ---------------------------------------------------------------------------
# Matrix.det against the Laplace expansion _minor_det.
# ---------------------------------------------------------------------------

def _laplace(a):
    return _minor_det(a.to_lists(), range(a.rows), range(a.rows)) if a.rows else 1


def _permuted_triangular(rng, n, lo=-5, hi=5):
    """P @ T for a random permutation P and an upper triangular T with a
    nonzero diagonal: column 0 has one nonzero entry, wherever P puts it,
    so the elimination swaps rows exactly when P is not the identity.
    Returns the matrix and its determinant, sign(P) times the diagonal."""
    perm = list(range(n))
    rng.shuffle(perm)
    diag = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
    t = [[diag[i] if i == j else rng.randint(lo, hi) * (i < j) for j in range(n)]
         for i in range(n)]
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j]:
                sign = -sign
    det = sign
    for x in diag:
        det *= x
    return Matrix([t[perm[i]] for i in range(n)]), det


class TestDeterminant:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_matches_laplace(self, n):
        rng = random.Random(9100 + n)
        for trial in range(30):
            a = random_matrix(rng, n, n, -5, 5)
            if trial % 3 == 0:
                # zero leading entries: the first pivots need row swaps
                rows = a.to_lists()
                for i in range(rng.randint(1, n)):
                    rows[i][0] = 0
                    if i < n - 1:
                        rows[i][1 % n] = 0
                a = Matrix(rows)
            assert a.det() == _laplace(a)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_row_swaps_carry_their_sign(self, n):
        rng = random.Random(9200 + n)
        negative = 0
        for _ in range(30):
            a, det = _permuted_triangular(rng, n)
            assert a.det() == det == _laplace(a)
            negative += det < 0
        assert negative
        assert Matrix([[0, 1], [1, 0]]).det() == -1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_singular(self, n):
        rng = random.Random(9300 + n)
        for trial in range(15):
            if trial % 3:
                a = _rank_deficient(rng, n, rng.randint(1, n - 1))
            else:
                rows = random_matrix(rng, n, n).to_lists()
                rows[-1] = [2 * x for x in rows[0]]
                a = Matrix(rows)
            assert a.det() == _laplace(a) == 0
        assert _zeros(n, n).det() == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_entries_near_1e30(self, n):
        rng = random.Random(9400 + n)
        big = 10 ** 30
        for _ in range(10):
            a = Matrix([[big * rng.choice([-1, 0, 1]) + rng.randint(-9, 9) for _ in range(n)]
                        for _ in range(n)])
            assert a.det() == _laplace(a)

    def test_identity_and_empty(self):
        assert Matrix([]).det() == 1
        for n in range(1, 15):
            assert Matrix.identity(n).det() == 1
            minus = Matrix([[-int(i == j) for j in range(n)] for i in range(n)])
            assert minus.det() == (-1) ** n


# ---------------------------------------------------------------------------
# Differential oracle: the route Matrix.inverse took before it ran
# fraction-free over the integers, Gauss-Jordan elimination over Q.
# ---------------------------------------------------------------------------

def _fraction_inverse(a):
    n = a.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.data)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return Matrix([row[n:] for row in m])


def _unimodular(rng, n):
    """A random unimodular n x n matrix: a product of elementary row
    operations, swaps and sign changes."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.randrange(3)
        if move == 0 and i != j:
            q = rng.randint(-3, 3)
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        elif move == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return Matrix(m)


class TestFractionFreeInverse:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_unimodular_inverse_is_integral(self, n):
        rng = random.Random(8100 + n)
        for _ in range(25):
            a = _unimodular(rng, n)
            assert abs(a.det()) == 1
            inv = a.inverse()
            assert inv == _fraction_inverse(a)
            assert all(type(e) is int for row in inv.data for e in row)
            assert a @ inv == inv @ a == Matrix.identity(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_integer_matrices_match_the_fraction_route(self, n):
        rng = random.Random(8200 + n)
        singular = non_unimodular = 0
        for trial in range(40):
            if trial % 4 == 0 and n > 1:
                rank = rng.randint(1, n - 1)
                a = _rank_deficient(rng, n, rank) if trial % 8 else _zeros(n, n)
            else:
                a = random_matrix(rng, n, n, -4, 4)
            d = a.det()
            if d == 0:
                singular += 1
                with pytest.raises(ValueError, match="matrix is singular"):
                    a.inverse()
                with pytest.raises(ValueError, match="matrix is singular"):
                    _fraction_inverse(a)
                continue
            non_unimodular += abs(d) != 1
            inv = a.inverse()
            assert inv == _fraction_inverse(a)
            assert a @ inv == Matrix.identity(n)
            # normalized entries: ints exactly where the entry is integral
            for row in inv.data:
                for e in row:
                    assert type(e) is int or (type(e) is Fraction and e.denominator > 1)
        if n > 1:
            assert singular and non_unimodular

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rational_matrices_match_the_fraction_route(self, n):
        rng = random.Random(8300 + n)
        for trial in range(30):
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(n)]
                    for _ in range(n)]
            if trial % 5 == 0 and n > 1:
                # a repeated row: singular
                rows[-1] = list(rows[0])
            a = Matrix(rows)
            try:
                expected = _fraction_inverse(a)
            except ValueError:
                with pytest.raises(ValueError, match="matrix is singular"):
                    a.inverse()
                continue
            assert a.inverse() == expected
            assert a @ a.inverse() == Matrix.identity(n)

    def test_small_cases(self):
        assert Matrix([]).inverse() == Matrix([])
        assert Matrix([[-1]]).inverse() == Matrix([[-1]])
        assert Matrix([[2]]).inverse() == Matrix([[Fraction(1, 2)]])
        assert Matrix([[Fraction(2, 3)]]).inverse() == Matrix([[Fraction(3, 2)]])
        assert Matrix([[Fraction(1, 2), 0], [0, 3]]).inverse() == Matrix(
            [[2, 0], [0, Fraction(1, 3)]]
        )
        # a zero leading entry needs a row swap
        assert Matrix([[0, 1], [1, 0]]).inverse() == Matrix([[0, 1], [1, 0]])
        big = 10 ** 30
        a = Matrix([[big + 1, big], [big, big - 1]])
        assert a.det() == -1
        assert a.inverse() == Matrix([[-(big - 1), big], [big, -(big + 1)]])
        with pytest.raises(ValueError, match="matrix is singular"):
            Matrix([[1, 2], [2, 4]]).inverse()
        with pytest.raises(ValueError, match="non-square"):
            Matrix([[1, 2]]).inverse()


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
            a = _zeros(*shape)
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

