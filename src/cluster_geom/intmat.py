"""Exact integer and rational matrix utilities.

Everything here is exact: entries are Python ints or fractions.Fraction,
never floats.  A matrix tests integrality by the set of its entry types:
an integer matrix is taken as it is, and only one with another entry type
is normalized entry by entry.  A product builds each row as a combination
of the right factor's rows, one per nonzero entry of the row, or the
transpose of B^T A^T when B has fewer nonzero entries, so the sparser
factor sets the work.  Normal forms are deterministic (fixed pivot rules)
so that repeated runs produce identical output.  Elimination runs over the
integers: the determinant and the inverse by one fraction-free (Bareiss)
Gauss-Jordan elimination, a rational matrix first scaled by the lcm of its
denominators; ranks, kernels and integer solutions from one Smith
reduction of the augmented array [[A, I], [I, 0]], whose row operations
build L and column operations R alongside S = L @ A @ R.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, itemgetter, mul

from .errors import ValidationError


def _all_int(rows):
    """Are all entries of the rows exactly of type int?  One set of types
    per matrix, built at C speed."""
    return {*map(type, chain.from_iterable(rows))} <= {int}


def _normalize_entry(x):
    if isinstance(x, bool):
        raise TypeError("boolean matrix entries are not allowed")
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable exact matrix over the integers or rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(map(tuple, data))
        if not _all_int(rows):
            rows = tuple(
                tuple(x if type(x) is int else _normalize_entry(x) for x in row) for row in rows
            )
        if len({*map(len, rows)}) > 1:
            raise ValidationError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix, (self.data,)

    @classmethod
    def _trusted(cls, rows):
        # trusted constructor: rows is a tuple of equal-length tuples whose
        # entries are already normalized (of type int, or non-integral
        # Fractions), as is_integral's type test needs
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "data", rows)
        return self

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(map(itemgetter(j), self.data))

    def is_integral(self):
        return _all_int(self.data)

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return Matrix._trusted(tuple(zip(*self.data)))

    def __matmul__(self, other):
        """A B with each row a combination of the rows of B, one per nonzero
        entry of the row of A; when B has fewer nonzero entries than A, the
        transpose of B^T A^T instead.  On the identity either way costs one
        shared row per row."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        a, b = self.data, other.data
        if other.cols and _nonzeros(other) < _nonzeros(self):
            return Matrix(zip(*_row_combinations(tuple(zip(*b)), tuple(zip(*a)), self.rows)))
        return Matrix(_row_combinations(a, b, other.cols))

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.data)

    def to_lists(self):
        return [list(row) for row in self.data]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.to_lists()!r})"

    def det(self):
        """Exact determinant of an integer matrix: the last pivot of the
        fraction-free elimination, times the sign of its row swaps."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        if not self.is_integral():
            raise TypeError("determinant needs an integer matrix")
        done = _gauss_jordan([list(r) for r in self.data], self.rows)
        return 0 if done is None else done[0] * done[1]

    def rank(self):
        """Rank of an integer matrix: its nonzero Smith invariant factors,
        which are the nonzero rows of the diagonal S."""
        return sum(map(any, _smith_reduce(self)[0]))

    def inverse(self):
        """Exact inverse by the fraction-free elimination of [s A | s I],
        where s is the lcm of the denominators of A (1 for an integer
        matrix).  The right block ends as p A^-1 for the last pivot p, and
        dividing it by p gives A^-1: entries are ints when that division
        is exact (so always when A is unimodular), Fractions otherwise."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        s = lcm(*(x.denominator for row in self.data for x in row))
        m = [[int(x * s) for x in row] + [s if j == i else 0 for j in range(n)]
             for i, row in enumerate(self.data)]
        done = _gauss_jordan(m, n)
        if done is None:
            raise ValueError("matrix is singular")
        p = done[0]
        return Matrix._trusted(tuple(
            tuple(x // p if x % p == 0 else Fraction(x, p) for x in row[n:])
            for row in m
        ))


def _nonzeros(m):
    return m.rows * m.cols - sum(row.count(0) for row in m.data)


def _row_combinations(a, b, width):
    """The rows of the product of the rows a and b, each the sum of x times
    row j of b over the nonzero entries x = a[i][j] of its row; a row with
    one nonzero entry 1 is row j of b itself, shared."""
    zero = (0,) * width
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                if x != 1:
                    brow = map(mul, repeat(x), brow)
                acc = brow if acc is None else tuple(map(add, acc, brow))
        out.append(zero if acc is None else acc)
    return out


def _gauss_jordan(m, n):
    """Fraction-free Gauss-Jordan elimination (Bareiss), in place, on the
    integer rows m whose first n columns are square.  Every division is
    exact and each pivot is a leading minor of the row-swapped matrix; the
    row operations bring the first n columns to p I, p the last pivot, and
    act alike on any further columns (the first n are left stale, since no
    step reads them again).  Returns (p, sign of the row swaps), with
    sign * p the determinant of the first n columns, or None when they are
    singular."""
    prev = sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        prow = m[c]
        p = prow[c]
        tail = prow[c + 1:]
        # columns up to c of the other rows are never read again: to the
        # left of the pivot they are the last pivot or 0, at c they are 0;
        # a row with f == 0 is unchanged when p == prev
        for r in range(n):
            row = m[r]
            f = row[c]
            if r != c and (f or p != prev):
                row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = p
    return prev, sign


def _smith_reduce(a):
    """The Smith reduction of A: (S, L, R) as lists of rows, with
    S = L @ A @ R and L, R unimodular.

    It reduces one array M = [[A, I_r], [I_c, 0]], so each operation is
    applied once: row operations act on the first r rows, which are
    [S | L], and column operations on the first c columns, which are
    [S; R].  No operation reaches the zero block, so it is left out.  The
    pivot is the entry of smallest magnitude (ties broken by position),
    which makes the output deterministic."""
    if not a.is_integral():
        raise TypeError("Smith normal form needs an integer matrix")
    r, c = a.rows, a.cols
    m = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(a.data)]
    m += [[int(i == j) for j in range(c)] for i in range(c)]
    for t in range(min(r, c)):
        best = None
        for i in range(t, r):
            row = m[i]
            for j in range(t, c):
                x = abs(row[j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            break
        _, pi, pj = best
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t with row operations, restarting if a remainder
            # becomes the new (smaller) pivot
            p = m[t][t]
            dirty = False
            for i in range(t + 1, r):
                if m[i][t] == 0:
                    continue
                q = m[i][t] // p
                if q:
                    m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, c):
                if m[t][j] == 0:
                    continue
                q = m[t][j] // p
                if q:
                    for row in m:
                        row[j] -= q * row[t]
                if m[t][j] != 0:
                    for row in m:
                        row[t], row[j] = row[j], row[t]
                    dirty = True
                    break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            offender = next(
                (i for i in range(t + 1, r) if any(x % p for x in m[i][t + 1:c])), None
            )
            if offender is None:
                break
            m[t] = [x + y for x, y in zip(m[t], m[offender])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    return [row[:c] for row in m[:r]], [row[c:] for row in m[:r]], m[r:]


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (L, S, R) with S = L @ A @ R, L and R unimodular, and S
    diagonal with nonnegative entries d_1 | d_2 | ... ."""
    s, left, right = _smith_reduce(a)
    return Matrix(left), Matrix(s), Matrix(right)


def smith_diagonal(a):
    _, s, _ = smith_normal_form(a)
    return tuple(s[i, i] for i in range(min(a.rows, a.cols)))


def cokernel_invariants(a):
    """Invariant factors of Z^rows / A . Z^cols.

    Factors of 1 are dropped; one 0 per unit of free rank is appended, so
    e.g. (2, 2, 0) means Z/2 + Z/2 + Z.
    """
    diag = smith_diagonal(a)
    rank = sum(1 for d in diag if d != 0)
    factors = [d for d in diag if d not in (0, 1)]
    factors.extend([0] * (a.rows - rank))
    return tuple(factors)


def hermite_row_basis(vectors, width):
    """Canonical basis (row-style Hermite form) of the lattice spanned by
    the given integer vectors: pivots positive, entries above each pivot
    reduced into [0, pivot), rows ordered by pivot column."""
    rows = [list(v) for v in vectors if any(x != 0 for x in v)]
    h = []
    for col in range(width):
        live = [r for r in rows if r[col] != 0]
        if not live:
            continue
        # fold the column entries into a single pivot row carrying their gcd
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                for k in range(width):
                    r[k] -= q * piv[k]
            live = [r for r in live if r[col] != 0]
        piv = live[0]
        if piv[col] < 0:
            for k in range(width):
                piv[k] = -piv[k]
        h.append(piv)
        rows = [r for r in rows if r is not piv and any(x != 0 for x in r)]
    # reduce entries above pivots
    for idx in range(len(h) - 1, -1, -1):
        piv_col = next(c for c in range(width) if h[idx][c] != 0)
        for upper in range(idx):
            q = h[upper][piv_col] // h[idx][piv_col]
            if q:
                for k in range(width):
                    h[upper][k] -= q * h[idx][k]
    return tuple(tuple(r) for r in h)


def kernel_basis(a):
    """Basis of the saturated integer kernel {n : A n = 0}, canonically
    normalized (Hermite form, deterministic)."""
    if not a.is_integral():
        raise TypeError("kernel basis needs an integer matrix")
    s, _, right = _smith_reduce(a)
    return hermite_row_basis(list(zip(*right))[sum(map(any, s)):], a.cols)


def solve_integer(a, b):
    """Some integer x with A x = b, or None if no integral solution exists.

    b is one right-hand side (a tuple), or a list of them, in which case the
    result is the list of solutions (None for each unsolvable one), all read
    off one Smith reduction of A.  The choice is deterministic: free
    coordinates of the Smith back substitution are set to zero.
    """
    rhs = b if isinstance(b, list) else [b]
    if any(len(v) != a.rows for v in rhs):
        raise ValueError("right-hand side length mismatch")
    s, left, right = _smith_reduce(a)
    # the nonzero invariant factors come first, in rows 0 .. rank - 1
    rank = sum(map(any, s))
    diag = [s[i][i] for i in range(rank)]
    out = []
    for v in rhs:
        c = [sum(map(mul, row, v)) for row in left]
        if any(c[rank:]) or any(x % d for x, d in zip(c, diag)):
            out.append(None)
            continue
        y = [x // d for x, d in zip(c, diag)] + [0] * (a.cols - rank)
        out.append(tuple(sum(map(mul, row, y)) for row in right))
    return out if isinstance(b, list) else out[0]

