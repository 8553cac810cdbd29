"""Exact integer and rational matrix utilities.

Everything here is exact: entries are Python ints or fractions.Fraction,
never floats.  Normal forms are deterministic (fixed pivot rules) so that
repeated runs produce identical output.  Elimination runs over the
integers: the determinant and the inverse by fraction-free (Bareiss)
elimination, a rational matrix first scaled by the lcm of its
denominators; ranks, kernels and integer solutions from one Smith
reduction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ValidationError


def _normalize_entry(x):
    if isinstance(x, bool):
        raise TypeError("boolean matrix entries are not allowed")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable exact matrix over the integers or rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = tuple(
            tuple(x if type(x) is int else _normalize_entry(x) for x in row) for row in data
        )
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValidationError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _trusted(cls, rows):
        # trusted constructor: rows is a tuple of equal-length tuples whose
        # entries are already normalized (ints, or non-integral Fractions)
        self = object.__new__(cls)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)
        object.__setattr__(self, "data", rows)
        return self

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r, c):
        return Matrix([[0] * c for _ in range(r)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(self.data[i][j] for i in range(self.rows))

    def is_integral(self):
        return all(isinstance(x, int) for row in self.data for x in row)

    def is_square(self):
        return self.rows == self.cols

    def transpose(self):
        return Matrix._trusted(tuple(zip(*self.data)))

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self.data])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        cols = tuple(zip(*other.data))
        return Matrix([[sum(map(mul, row, col)) for col in cols] for row in self.data])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def to_lists(self):
        return [list(row) for row in self.data]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"Matrix({self.to_lists()!r})"

    def det(self):
        """Exact determinant of an integer matrix (Bareiss)."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        if not self.is_integral():
            raise TypeError("determinant needs an integer matrix")
        if self.rows == 0:
            return 1
        return _det_bareiss([list(r) for r in self.data])

    def rank(self):
        """Rank of an integer matrix: its nonzero Smith invariant factors."""
        return _smith_reduce(self).rank()

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination (Bareiss)
        on [s A | s I], where s is the lcm of the denominators of A (1 for
        an integer matrix).  Every division is exact, and the last pivot p
        is +-det(s A), so the right block ends as p A^-1 and dividing it
        by p gives A^-1: entries are ints when that division is exact (so
        always when A is unimodular), Fractions otherwise."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        s = lcm(*(x.denominator for row in self.data for x in row))
        m = [[int(x * s) for x in row] + [s if j == i else 0 for j in range(n)]
             for i, row in enumerate(self.data)]
        prev = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                raise ValueError("matrix is singular")
            m[c], m[piv] = m[piv], m[c]
            prow = m[c]
            p = prow[c]
            tail = prow[c + 1:]
            # columns up to c of the other rows are never read again: to the
            # left of the pivot they are the last pivot or 0, at c they are 0
            for r in range(n):
                row = m[r]
                f = row[c]
                if r != c and (f or p != prev):
                    row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            prev = p
        return Matrix._trusted(tuple(
            tuple(x // prev if x % prev == 0 else Fraction(x, prev) for x in row[n:])
            for row in m
        ))


def _det_bareiss(m):
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) // prev
            m[r][c] = 0
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def vector_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


class _SNFState:
    """Working state for Smith reduction: S = L @ A @ R with all four
    transforms tracked, so A = U @ S @ V for U = L^-1, V = R^-1."""

    def __init__(self, a):
        self.s = [list(row) for row in a.data]
        self.r, self.c = a.rows, a.cols
        self.u = [[int(i == j) for j in range(self.r)] for i in range(self.r)]
        self.ui = [[int(i == j) for j in range(self.r)] for i in range(self.r)]
        self.v = [[int(i == j) for j in range(self.c)] for i in range(self.c)]
        self.vi = [[int(i == j) for j in range(self.c)] for i in range(self.c)]

    def row_swap(self, i, j):
        if i == j:
            return
        self.s[i], self.s[j] = self.s[j], self.s[i]
        for row in self.u:
            row[i], row[j] = row[j], row[i]
        self.ui[i], self.ui[j] = self.ui[j], self.ui[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        self.v[i], self.v[j] = self.v[j], self.v[i]
        for row in self.vi:
            row[i], row[j] = row[j], row[i]

    def row_add(self, i, j, q):
        # row_i += q * row_j
        if q == 0:
            return
        self.s[i] = [a + q * b for a, b in zip(self.s[i], self.s[j])]
        for row in self.u:
            row[j] -= q * row[i]
        self.ui[i] = [a + q * b for a, b in zip(self.ui[i], self.ui[j])]

    def col_add(self, j, i, q):
        # col_j += q * col_i
        if q == 0:
            return
        for row in self.s:
            row[j] += q * row[i]
        self.v[i] = [a - q * b for a, b in zip(self.v[i], self.v[j])]
        for row in self.vi:
            row[j] += q * row[i]

    def row_negate(self, i):
        self.s[i] = [-x for x in self.s[i]]
        for row in self.u:
            row[i] = -row[i]
        self.ui[i] = [-x for x in self.ui[i]]

    def rank(self):
        return sum(1 for i in range(min(self.r, self.c)) if self.s[i][i] != 0)

    def pivot_search(self, t):
        best = None
        for i in range(t, self.r):
            for j in range(t, self.c):
                x = abs(self.s[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best


def _smith_reduce(a):
    """The final _SNFState of the Smith reduction of A, from which callers
    read S, U, V, U^-1 (ui) and V^-1 (vi).  The reduction picks the
    smallest-magnitude pivot (ties broken by position), which makes the
    output deterministic."""
    if not a.is_integral():
        raise TypeError("Smith normal form needs an integer matrix")
    st = _SNFState(a)
    t = 0
    limit = min(st.r, st.c)
    while t < limit:
        found = st.pivot_search(t)
        if found is None:
            break
        _, pi, pj = found
        st.row_swap(t, pi)
        st.col_swap(t, pj)
        while True:
            # clear column t with row operations, restarting if a remainder
            # becomes the new (smaller) pivot
            dirty = False
            for i in range(t + 1, st.r):
                if st.s[i][t] == 0:
                    continue
                q = st.s[i][t] // st.s[t][t]
                st.row_add(i, t, -q)
                if st.s[i][t] != 0:
                    st.row_swap(t, i)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, st.c):
                if st.s[t][j] == 0:
                    continue
                q = st.s[t][j] // st.s[t][t]
                st.col_add(j, t, -q)
                if st.s[t][j] != 0:
                    st.col_swap(t, j)
                    dirty = True
                    break
            if dirty:
                continue
            # pivot must divide the rest of the submatrix
            offender = None
            for i in range(t + 1, st.r):
                for j in range(t + 1, st.c):
                    if st.s[i][j] % st.s[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            st.row_add(t, offender, 1)
        if st.s[t][t] < 0:
            st.row_negate(t)
        t += 1
    return st


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (U, S, V) with A = U @ S @ V, U and V unimodular, and S diagonal
    with nonnegative entries d_1 | d_2 | ... ."""
    st = _smith_reduce(a)
    return Matrix(st.u), Matrix(st.s), Matrix(st.v)


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
    st = _smith_reduce(a)
    raw = [tuple(row[j] for row in st.vi) for j in range(st.rank(), a.cols)]
    return hermite_row_basis(raw, a.cols)


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
    st = _smith_reduce(a)
    # the nonzero invariant factors come first, in rows 0 .. rank - 1
    rank = st.rank()
    diag = [st.s[i][i] for i in range(rank)]
    out = []
    for v in rhs:
        c = [sum(map(mul, row, v)) for row in st.ui]
        if any(c[rank:]) or any(x % d for x, d in zip(c, diag)):
            out.append(None)
            continue
        y = [x // d for x, d in zip(c, diag)] + [0] * (a.cols - rank)
        out.append(tuple(sum(map(mul, row, y)) for row in st.vi))
    return out if isinstance(b, list) else out[0]

