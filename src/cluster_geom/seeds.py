"""Seeds for cluster mutation: fixed lattice data, bases, and the mutation
formulas for bases, exchange matrices, and tropicalized maps.

Conventions used throughout the package:

* Indices are 0-based.
* A seed is stored as a unimodular integer matrix whose columns express the
  current basis vectors e_i in the coordinates of the initial basis.  All
  vectors in N are tuples of initial-basis coordinates; all vectors in the
  dual lattice M° are tuples of coordinates in the initial dual basis
  f_a = e_a^* / d_a.
* The skew form is an n x n rational matrix in initial coordinates; the
  exchange matrix is eps[i][j] = {e_i, e_j} d_j, integral whenever i, j are
  not both frozen.

Out of scope by design: dual seeds obtained by transposing the roles of the
symmetrizers (general d_i are supported, but no dual-seed constructions),
and the partial compactifications of the dual-side variety obtained by
allowing coordinates to vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from operator import mod, mul, neg

from .errors import UnsupportedError, ValidationError
from .intmat import Matrix, cokernel_invariants
from .laurent import step_twist


def _as_int(x, what):
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    raise ValidationError(f"{what} must be an integer, got {x!r}")


def _as_tuple(x, message):
    """tuple(x), or ValidationError(message) when x is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise ValidationError(message) from None


def pos_part(x):
    return x if x > 0 else 0


def neg_part(x):
    return x if x < 0 else 0


def _check_index(k, n):
    """Raises ValidationError unless k is an int (not a bool) in range(n)."""
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k < n:
        raise ValidationError(f"mutation index {k!r} out of range")


def _symmetrizers(d, n):
    """The symmetrizers d of a rank-n seed (all ones when d is None) as a
    tuple of n positive integers with gcd 1, or ValidationError."""
    d = (1,) * n if d is None else _as_tuple(d, "symmetrizers d must be positive integers")
    if any(not isinstance(x, int) or isinstance(x, bool) or x <= 0 for x in d):
        raise ValidationError("symmetrizers d must be positive integers")
    if len(d) != n:
        raise ValidationError(f"symmetrizers d have length {len(d)}, expected rank {n}")
    if n and gcd(*d) != 1:
        raise ValidationError("symmetrizers d must have gcd 1")
    return d


class FixedData:
    """Mutation-independent data: rank, skew form, symmetrizers, frozen set.
    The constructor checks all four, the rank first, so that no default is
    built from a rank that is not one."""

    __slots__ = ("n", "skew", "d", "frozen")

    def __init__(self, n, skew, d=None, frozen=()):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"rank must be an integer, got {n!r}")
        if not isinstance(skew, Matrix):
            raise ValidationError("skew form must be a Matrix")
        if skew.rows != n or skew.cols != n:
            raise ValidationError(f"skew form is {skew.rows} x {skew.cols}, expected rank {n}")
        rows = skew.data
        if rows != tuple(tuple(map(neg, col)) for col in zip(*rows)):
            raise ValidationError("skew form is not skew-symmetric")
        d = _symmetrizers(d, n)
        # the indices as given: a set would merge False into 0
        message = f"frozen indices must be integers in range({n})"
        frozen = _as_tuple(frozen, message)
        if not all(isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n for i in frozen):
            raise ValidationError(message)
        frozen = frozenset(frozen)
        if not skew.is_integral():
            for i, row in enumerate(rows):
                for j, e in enumerate(map(mul, row, d)):
                    if e.denominator != 1 and not (i in frozen and j in frozen):
                        raise ValidationError(
                            f"entry {{e_{i}, e_{j}}} d_{j} = {e} is not integral"
                        )
        for name, value in zip(self.__slots__, (n, skew, d, frozen)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FixedData is immutable")

    def __reduce__(self):
        return FixedData, (self.n, self.skew, self.d, self.frozen)

    def check_mutable(self, k):
        """Raises ValidationError unless k is an index that mutation may
        use: an int (not a bool) in range(n) that is not frozen."""
        _check_index(k, self.n)
        if k in self.frozen:
            raise ValidationError(f"cannot mutate at frozen index {k}")

    @property
    def unfrozen(self):
        return tuple(i for i in range(self.n) if i not in self.frozen)

    def __eq__(self, other):
        return isinstance(other, FixedData) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())


class Seed:
    """A basis of the fixed lattice, expressed in initial coordinates.

    Construction validates the structural invariants: the basis matrix B
    (columns e_i) is integral with det B = +-1, no unfrozen column has a
    frozen coordinate (so the unfrozen e_i are a basis of the unfrozen
    sublattice), and d_j divides d_i B[j, i] for all i, j (so the d_i e_i
    are a basis of the sublattice N° spanned by the initial d_i e_i).  Given
    det B = +-1, these entrywise conditions are equivalent to the lattice
    equalities of the definition.  Seeds produced by mutate_seed take a fast
    internal path instead: the exchange matrix comes from the
    matrix-mutation rule, and the basis is built on its first read, from
    the parent's, by the column operation e_k -> -e_k,
    e_i -> e_i + [eps_ik]_+ e_k, which provably preserves the invariants.
    The acceptance suite checks the equality of both epsilon routes on
    random seeds.

    Copy and pickle rebuild a seed from its basis, exchange matrix and
    path, so neither recurses along a long path.
    """

    __slots__ = ("fixed", "eps", "_basis", "_link", "_parent")

    def __init__(self, fixed, basis):
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_link", None)
        object.__setattr__(self, "_parent", None)
        self._validate_and_derive()

    def __setattr__(self, name, value):
        raise AttributeError("Seed is immutable")

    @classmethod
    def _trusted(cls, fixed, basis, link, eps, parent=None):
        """A seed taken as valid.  With no basis, the basis is the parent's
        after the column operation at the last label of the link."""
        self = object.__new__(cls)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_link", link)
        object.__setattr__(self, "_parent", parent)
        return self

    def __reduce__(self):
        return _seed_along, (self.fixed, self.basis, self.eps, self.path)

    def _validate_and_derive(self):
        fx, b = self.fixed, self.basis
        n = fx.n
        if b.rows != n or b.cols != n or not b.is_integral():
            raise ValidationError("seed basis must be an integral n x n matrix")
        if abs(b.det()) != 1:
            raise ValidationError("seed basis is not unimodular")
        # with det B = +-1, the unfrozen columns span the unfrozen
        # sublattice iff they have no frozen coordinates, and the d_i e_i
        # span D Z^n iff each lies in it (the two lattices have equal index)
        rows, unf, d = b.data, fx.unfrozen, fx.d
        if any(rows[f][i] for f in fx.frozen for i in unf):
            raise ValidationError("unfrozen columns do not span the unfrozen sublattice")
        # row j holds the coordinates B[j, i], which d_j = 1 always divides
        if any(any(map(mod, map(mul, d, row), repeat(dj))) for row, dj in zip(rows, d) if dj != 1):
            raise ValidationError("scaled columns d_i e_i do not span the expected sublattice")
        object.__setattr__(self, "eps", epsilon_from_basis(self))

    @property
    def basis(self):
        """The basis matrix.  A mutated seed builds it on first read: it
        walks up to the nearest ancestor that has one and back down in a
        loop, so a long unbuilt chain does not recurse, and each seed on the
        way keeps its basis and drops its parent."""
        if self._basis is None:
            chain = []
            seed = self
            while seed._basis is None:
                chain.append(seed)
                seed = seed._parent
            for seed in reversed(chain):
                parent, k = seed._parent, seed._link[0]
                # column k of the parent's exchange matrix is integral
                # because k is unfrozen
                c = [pos_part(row[k]) for row in parent.eps.data]
                basis = []
                for row in parent._basis.data:
                    b = row[k]
                    if b:
                        row = [x + ci * b for x, ci in zip(row, c)]
                        row[k] = -b
                        row = tuple(row)
                    basis.append(row)
                object.__setattr__(seed, "_basis", Matrix._trusted(tuple(basis)))
                object.__setattr__(seed, "_parent", None)
        return self._basis

    @property
    def n(self):
        return self.fixed.n

    @property
    def path(self):
        """The labels of the mutate_seed steps from the constructed seed,
        spelled out from parent links (last label, parent's link): a
        mutation copies no path."""
        labels = []
        link = self._link
        while link:
            k, link = link
            labels.append(k)
        return tuple(reversed(labels))

    def __hash__(self):
        return hash((self.fixed, self.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Seed)
            and self.fixed == other.fixed
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"<Seed rank {self.n} path {list(self.path)}>"

    # -- coordinate helpers -------------------------------------------------

    def e_vector(self, i):
        """Basis vector e_i in initial coordinates."""
        return self.basis.column(i)

    def v_vector(self, i):
        """v_i = {e_i, .} in initial dual coordinates (integral for unfrozen i)."""
        col = self.basis.column(i)
        return tuple(
            _as_int(sum(map(mul, col, skew_col)) * da, "v-vector coordinate")
            for skew_col, da in zip(zip(*self.fixed.skew.data), self.fixed.d)
        )


def root_seed(fixed):
    return Seed(fixed, Matrix.identity(fixed.n))


def seed_from_epsilon(eps_rows, d=None, frozen=()):
    """Root seed realizing a given d-skew-symmetrizable exchange matrix."""
    eps = Matrix(eps_rows)
    n = eps.rows
    dd = _symmetrizers(d, n)
    check_symmetrizable(eps, dd)
    skew = Matrix([[Fraction(x, dj) for x, dj in zip(row, dd)] for row in eps.data])
    return root_seed(FixedData(n, skew, dd, frozen))


def epsilon_from_basis(seed):
    """The exchange matrix by its definition, (B^T skew B) D: column j of
    B^T skew B scaled by d_j.  Seed computes its eps this way, and the tests
    use it as the definitional route to cross-check the matrix-mutation
    rule of mutate_seed.

    It is integral off the frozen block for every basis that Seed accepts,
    so nothing is checked here.  Write S for the skew form and take i or j
    unfrozen; then eps_ij = sum_{a,b} B_ai (S_ab d_b) (B_bj d_j / d_b).
    When a and b are not both frozen, the term is integral: FixedData
    checks that S_ab d_b is, and Seed that d_b divides d_j B_bj.  When a
    and b are both frozen, the term vanishes: B_ai = 0 if i is unfrozen and
    B_bj = 0 if j is, since unfrozen columns of B have no frozen
    coordinates."""
    fixed, basis = seed.fixed, seed.basis
    gram = basis.transpose() @ fixed.skew @ basis
    return Matrix(map(mul, row, fixed.d) for row in gram.data)


def check_symmetrizable(eps, d):
    n = eps.rows
    if eps.cols != n or len(d) != n:
        raise ValidationError("exchange matrix must be square, with matching d")
    rows = eps.data
    # the condition at (i, j) is the one at (j, i), so the first failure in
    # row-major order always lies on or above the diagonal
    for i, row in enumerate(rows):
        di = d[i]
        for j in range(i, n):
            if di * row[j] != -d[j] * rows[j][i]:
                raise ValidationError(
                    f"matrix is not d-skew-symmetrizable at ({i}, {j})"
                )


def _mutated_rows(rows, k):
    """The three-case rule of matrix mutation at index k, on the rows of an
    exchange matrix, unchecked: row k is negated, and a row i with
    eps_ik != 0 gains eps_ik [s eps_kj]_+ at each column j, with s the sign
    of eps_ik, and has -eps_ik at column k.  Rows with a zero k-th entry are
    shared with the input."""
    rk = rows[k]
    out = []
    for i, row in enumerate(rows):
        eik = row[k]
        if i == k:
            row = tuple(-x for x in row)
        elif eik > 0:
            row = [x + eik * y if y > 0 else x for x, y in zip(row, rk)]
            row[k] = -eik
            row = tuple(row)
        elif eik < 0:
            row = [x - eik * y if y < 0 else x for x, y in zip(row, rk)]
            row[k] = -eik
            row = tuple(row)
        out.append(row)
    return tuple(out)


def mutate_epsilon(eps, d, k):
    """Matrix mutation at index k (three-case rule).

    Entries of the frozen block may be rational; the rule is the same.
    When row and column k are integral, every new entry is an int combined
    with an already normalized entry, so the result skips normalization.
    Rows with a zero k-th entry are shared with the input.
    """
    check_symmetrizable(eps, d)
    _check_index(k, eps.rows)
    rows = _mutated_rows(eps.data, k)
    if all(x.__class__ is int for x in rows[k]) and all(
        row[k].__class__ is int for row in rows
    ):
        return Matrix._trusted(rows)
    return Matrix(rows)


def mutate_seed(seed, k):
    """Seed mutation: e_k -> -e_k, e_i -> e_i + [eps_ik]_+ e_k.

    The mutated exchange matrix is produced by the three-case matrix rule;
    it provably equals the recomputation from the new basis, and that
    coherence is property-tested, so the result skips re-validation.  The
    basis changes by the elementary column operation above, in O(n^2), when
    it is first read.
    """
    seed.fixed.check_mutable(k)
    return _mutated_seed(seed, k, mutate_epsilon(seed.eps, seed.fixed.d, k).data)


def _mutated_seed(seed, k, rows):
    """mutate_seed at an unfrozen index k in range, unchecked, given the
    rows of the mutated exchange matrix, taken as normalized: _mutated_rows
    gives them so at an unfrozen k (see mutate_epsilon).  The result holds
    its parent until its basis is read."""
    return Seed._trusted(seed.fixed, None, (k, seed._link), Matrix._trusted(rows), seed)


def _seed_along(fixed, basis, eps, path):
    """The seed with the given data whose path is the given labels."""
    link = None
    for k in path:
        link = (k, link)
    return Seed._trusted(fixed, basis, link, eps)


def mutate_along(seed, path):
    """The seed after the mutations along the path.  Each basis is read as
    it is made, so no chain of unbuilt seeds stays alive."""
    for k in path:
        seed = mutate_seed(seed, k)
        seed.basis
    return seed


def tropical_mutation_A(seed, k, n_vec):
    """Piecewise-linear mutation on N, the tropicalized X-side twist (e_k, g)
    of step_twist: n -> n + [g(n)]_+ e_k, g(n) = d_k [n, e_k] = {n, d_k e_k}."""
    ek, g = step_twist(seed, k, "X")
    c = pos_part(g(n_vec))
    return tuple(x + c * y for x, y in zip(n_vec, ek))


def tropical_mutation_X(seed, k, m_vec):
    """Piecewise-linear mutation on the dual, the tropicalized A-side twist
    (v_k, g) of step_twist: m -> m + [g(m)]_- v_k, g(m) = <d_k e_k, m>."""
    vk, g = step_twist(seed, k, "A")
    c = neg_part(g(m_vec))
    return tuple(x + c * y for x, y in zip(m_vec, vk))


# -- principal coefficients -------------------------------------------------

@dataclass(frozen=True)
class PrincipalSeed:
    """A seed on the doubled lattice N + M°, with principal coefficients.

    The double of rank n carries the skew form
    {(n1, m1), (n2, m2)} = {n1, n2} + <n1, m2> - <n2, m1>, symmetrizers
    (d, d), and the second block of indices frozen.  p_star is the standard
    unimodular choice of p* for the double (None when the underlying data
    has frozen indices of its own, in which case the choice is not pinned
    down).
    """

    seed: Seed
    p_star: Matrix | None


def _diagonal(entries):
    n = len(entries)
    return [[x if i == j else 0 for j in range(n)] for i, x in enumerate(entries)]


def _blocks(a, b, c, d):
    """The Matrix [[A, B], [C, D]] of four n x n blocks, each given by rows."""
    return Matrix([[*x, *y] for x, y in zip(a, b)] + [[*x, *y] for x, y in zip(c, d)])


def principal_double(seed):
    if seed.basis != Matrix.identity(seed.n):
        raise ValidationError("principal coefficients are attached at a root seed")
    n = seed.n
    fx = seed.fixed
    zero = _diagonal((0,) * n)
    skew = _blocks(
        fx.skew.data,
        _diagonal([Fraction(1, x) for x in fx.d]),
        _diagonal([Fraction(-1, x) for x in fx.d]),
        zero,
    )
    frozen2 = fx.frozen | frozenset(range(n, 2 * n))
    double = root_seed(FixedData(2 * n, skew, fx.d + fx.d, frozen2))
    p_star = None
    if not fx.frozen:
        p_star = _blocks(
            seed.eps.transpose().data, _diagonal((-1,) * n), _diagonal((1,) * n), zero
        )
    return PrincipalSeed(double, p_star)


# -- maps to the dual and Picard data ---------------------------------------

def p_star_matrix(seed):
    """Matrix of p*: N -> M° in the seed's bases (e_i) and (f_i).

    Only defined here when there are no frozen indices; with frozen indices
    the map is only pinned down up to a choice, which we refuse to make.
    """
    if seed.fixed.frozen:
        raise UnsupportedError(
            "p* is not determined when frozen indices are present"
        )
    return seed.eps.transpose()


def _check_no_zero_row(eps):
    n = eps.rows
    for i in range(n):
        if all(eps[i, j] == 0 for j in range(n)):
            raise ValidationError(f"exchange matrix has zero row {i}")


def picard_invariants(seed):
    """Invariant factors of M° / p*(N): the Picard group of the once-glued
    union of seed tori (and of its general twisted fibre)."""
    p = p_star_matrix(seed)
    _check_no_zero_row(seed.eps)
    return cokernel_invariants(p)


# -- coprimality -------------------------------------------------------------

def is_coprime_seed(seed):
    """Are the exchange binomials 1 + z^{v_k} pairwise coprime?

    Two such binomials share a factor iff the v's are proportional (up to
    sign), with divisibility indices a and b along the common primitive
    direction, and gcd(1 + t^a, 1 + t^b) is non-trivial.  That gcd is
    1 + t^gcd(a, b) when a/gcd(a, b) and b/gcd(a, b) are both odd and 1
    otherwise, so it is non-trivial iff a and b have the same 2-adic part
    a & -a.  Constant binomials (v = 0) are units.
    """
    seen = set()
    for i in seed.fixed.unfrozen:
        v = seed.v_vector(i)
        if not any(v):
            continue
        c = gcd(*v)
        key = (max(tuple(x // c for x in v), tuple(-x // c for x in v)), c & -c)
        if key in seen:
            return False
        seen.add(key)
    return True


def totally_coprime_sufficient(seed):
    """Full rank of the unfrozen rows of the exchange matrix guarantees that
    every seed reachable by mutation is coprime.  False only means unknown.
    """
    unf = seed.fixed.unfrozen
    if not unf:
        return True
    rows = [seed.eps.row(i) for i in unf]
    return Matrix(rows).rank() == len(unf)


# -- fans of rays ------------------------------------------------------------

def fan_mutation_consistency(seed, k):
    """Do the tropical maps carry the fan rays of this seed onto the rays of
    the mutated seed (with the sign flip at the mutated index)?"""
    mutated = mutate_seed(seed, k)
    d = seed.fixed.d
    sides = (
        (tropical_mutation_A, lambda s, i: tuple(d[i] * x for x in s.e_vector(i))),
        (tropical_mutation_X, lambda s, i: tuple(-d[i] * x for x in s.v_vector(i))),
    )
    for tropical, ray in sides:
        for i in seed.fixed.unfrozen:
            image = tropical(seed, k, ray(seed, i))
            if i == k:
                image = tuple(-x for x in image)
            if image != ray(mutated, i):
                return False
    return True
