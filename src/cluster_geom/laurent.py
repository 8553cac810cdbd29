"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Terms are stored as {exponent tuple: nonzero int coefficient}.  The canonical
term order used for serialization and leading-term selection is graded
lexicographic, read descending: higher total degree first, ties broken by the
lexicographically larger exponent tuple.

Exact division works on its own representation: each exponent vector of the
shifted operands is packed into one int (total degree in the top field, then
the exponents), so that int order is graded-lex order, and the remainder is
reduced through a max-heap of those ints (see exact_divide).

Exponents are kept below 2**62 in magnitude; crossing that bound raises
ExponentOverflow rather than silently producing huge objects.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain
from math import comb, lcm
from operator import add, mul

from .errors import ResourceLimitExceeded

EXPONENT_LIMIT = 1 << 62


class ExponentOverflow(ResourceLimitExceeded, ArithmeticError):
    """An exponent reached EXPONENT_LIMIT in magnitude."""


def _check_exponents(exps):
    for e in exps:
        if abs(e) >= EXPONENT_LIMIT:
            raise ExponentOverflow(f"exponent {e} exceeds the supported range")


def _grlex_key(exps):
    return (sum(exps), exps)


def _max_abs_exponent(terms):
    return max(map(abs, chain.from_iterable(terms)), default=0)


class LaurentPolynomial:
    __slots__ = ("nvars", "_terms", "_sorted")

    def __init__(self, nvars, terms=None):
        cleaned = {}
        for exps, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            if not all(isinstance(e, int) for e in exps) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be integers")
            _check_exponents(exps)
            cleaned[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_sorted", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _raw(cls, nvars, terms):
        # trusted constructor: terms already cleaned
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_sorted", None)
        return self

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(exps)
        _check_exponents(exps)
        return cls._raw(len(exps), {exps: coeff} if coeff else {})

    @classmethod
    def variable(cls, nvars, i):
        return cls.monomial(tuple(1 if j == i else 0 for j in range(nvars)), 1)

    def terms(self):
        """Terms as ((exponents, coefficient), ...) in descending canonical order.

        Sorted once per polynomial and cached: the polynomial is immutable, and
        node keys re-read the terms of every variable a node shares with its
        parent.
        """
        cached = self._sorted
        if cached is None:
            t = self._terms
            cached = tuple((e, t[e]) for e in sorted(t, key=_grlex_key, reverse=True))
            object.__setattr__(self, "_sorted", cached)
        return cached

    def items(self):
        return self._terms.items()

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(0,) * self.nvars: 1}

    def n_terms(self):
        return len(self._terms)

    def min_exponents(self):
        """Componentwise minimum of all exponent vectors (zero poly: origin)."""
        if not self._terms:
            return (0,) * self.nvars
        cols = zip(*self._terms)
        return tuple(min(c) for c in cols)

    def max_abs_exponent(self):
        return _max_abs_exponent(self._terms)

    def max_total_degree(self):
        return max((sum(e) for e in self._terms), default=0)

    def has_nonnegative_coefficients(self):
        return all(c > 0 for c in self._terms.values())

    def _require_same_ring(self, other):
        if not isinstance(other, LaurentPolynomial):
            raise TypeError("expected a LaurentPolynomial")
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        self._require_same_ring(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPolynomial._raw(self.nvars, out)

    def __neg__(self):
        return LaurentPolynomial._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial.zero(self.nvars)
            return LaurentPolynomial._raw(
                self.nvars, {e: other * c for e, c in self._terms.items()}
            )
        self._require_same_ring(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        # |exponent| of a product term is at most the sum of the factors' maxima
        if _max_abs_exponent(a) + _max_abs_exponent(b) >= EXPONENT_LIMIT:
            for e in out:
                _check_exponents(e)
        return LaurentPolynomial._raw(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, a):
        if not isinstance(a, int) or a < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = None
        base = self
        while a:
            if a & 1:
                result = base if result is None else result * base
            a >>= 1
            if a:
                base = base * base
        return LaurentPolynomial.one(self.nvars) if result is None else result

    def shift(self, exps):
        """Multiply by the monomial z^exps."""
        exps = tuple(exps)
        if not any(exps):
            return self
        out = {tuple(map(add, e, exps)): c for e, c in self._terms.items()}
        if self.max_abs_exponent() + _max_abs_exponent((exps,)) >= EXPONENT_LIMIT:
            for e in out:
                _check_exponents(e)
        return LaurentPolynomial._raw(self.nvars, out)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def to_str(self, names=None):
        """Canonical text form, e.g. "3*x1^2*x2^-1 + 1"."""
        if not self._terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.nvars)]
        chunks = []
        for exps, coeff in self.terms():
            factors = [
                f"{names[i]}^{e}" if e != 1 else names[i]
                for i, e in enumerate(exps)
                if e != 0
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<LaurentPolynomial {self.to_str()}>"


def binomial_power(v, a):
    """Expansion of (1 + z^v)^a for a >= 0."""
    if not isinstance(a, int) or a < 0:
        raise ValueError("binomial_power needs a nonnegative integer exponent")
    v = tuple(v)
    check = a * _max_abs_exponent((v,)) >= EXPONENT_LIMIT
    terms = {}
    for j in range(a + 1):
        e = tuple(j * x for x in v)
        if check:
            _check_exponents(e)
        terms[e] = terms.get(e, 0) + comb(a, j)
    return LaurentPolynomial._raw(len(v), terms)


def exact_divide(p, q):
    """The Laurent polynomial r with q * r = p, or None if none exists.

    Both operands are shifted so that their componentwise-minimal exponent is
    zero.  Single-divisor reduction by the divisor's graded-lex leading term
    then either ends with a zero remainder (success) or meets a remainder lead
    that the divisor's lead does not divide, which proves that no quotient
    exists.

    Every remainder term has nonnegative exponents and a total degree of at
    most D, the largest total degree of the shifted dividend.  So each
    exponent vector packs into one int: the total degree in the top field,
    then e_0 ... e_{n-1}, every field wide enough for D plus one guard bit.
    Int order is then graded-lex order, a monomial product is one int
    addition, and the divisor's lead divides a term exactly when their
    difference has no guard bit set.  The remainder is a dict plus a max-heap
    of its keys with lazy deletion (Monagan and Pearce, "Sparse polynomial
    division using a heap", J. Symb. Comp. 2011): each step takes the largest
    live key, and every term it adds is smaller, so a processed key never
    returns.  Only the quotient is unpacked.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    n = p.nvars
    if p.is_zero():
        return LaurentPolynomial.zero(n)
    sp = p.min_exponents()
    sq = q.min_exponents()
    degree = p.max_total_degree() - sum(sp)
    if q.max_total_degree() - sum(sq) > degree:
        return None  # the divisor's lead cannot divide the dividend's
    width = degree.bit_length() + 1
    guard = 0
    for _ in range(n + 1):
        guard = (guard << width) | (1 << (width - 1))

    def pack(terms, shift):
        base = sum(shift)
        out = {}
        for e, c in terms:
            key = sum(e) - base
            for x, s in zip(e, shift):
                key = (key << width) | (x - s)
            out[key] = c
        return out

    rem = pack(p.items(), sp)
    rest = pack(q.items(), sq)
    qlead = max(rest)
    qlc = rest.pop(qlead)
    rest = tuple(rest.items())
    heap = [-key for key in rem]
    heapify(heap)
    quotient = {}
    while heap:
        e = -heappop(heap)
        c = rem.pop(e, 0)
        if not c:
            continue  # cancelled after it was pushed
        d = e - qlead
        if d & guard or c % qlc:
            return None
        f = c // qlc
        quotient[d] = f
        for eq, cq in rest:
            t = d + eq
            s = rem.get(t)
            if s is None:
                rem[t] = -f * cq
                heappush(heap, -t)
            else:
                s -= f * cq
                if s:
                    rem[t] = s
                else:
                    del rem[t]
    field = (1 << width) - 1
    shifts = range((n - 1) * width, -1, -width)
    unpacked = {tuple((d >> s) & field for s in shifts): f for d, f in quotient.items()}
    return LaurentPolynomial._raw(n, unpacked).shift(x - y for x, y in zip(sp, sq))


class RationalExpression:
    """A fraction of Laurent polynomials.  No automatic gcd reduction is
    performed; Laurent-ness is decided by a single exact division on demand."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPolynomial.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalExpression is immutable")

    @classmethod
    def from_monomial(cls, exps, coeff=1):
        return cls(LaurentPolynomial.monomial(exps, coeff))

    @property
    def nvars(self):
        return self.num.nvars

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            other = RationalExpression(other)
        return RationalExpression(self.num * other.num, self.den * other.den)

    def __add__(self, other):
        if isinstance(other, LaurentPolynomial):
            other = RationalExpression(other)
        return RationalExpression(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def as_laurent(self):
        """The equal Laurent polynomial, or None when the fraction is not one."""
        return exact_divide(self.num, self.den)

    def equals(self, other):
        """Exact equality as rational functions (cross multiplication)."""
        return self.num * other.den == other.num * self.den

    def to_str(self, names=None):
        if self.den.is_one():
            return self.num.to_str(names)
        return f"({self.num.to_str(names)}) / ({self.den.to_str(names)})"

    def __repr__(self):
        return f"<RationalExpression {self.to_str()}>"


# ---------------------------------------------------------------------------
# Mutation pullbacks.  A mutation at an unfrozen index k acts on functions by
# a monomial-wise binomial twist:
#
#   A-side (dual-lattice characters):  z^m -> z^m (1 + z^{v_k})^{-<d_k e_k, m>}
#   X-side (lattice characters):       z^n -> z^n (1 + z^{e_k})^{-[n, e_k]}
#
# The inverse maps are the same twists with the opposite exponent sign, in the
# data of the same source seed.
# ---------------------------------------------------------------------------

def _as_expression(expr):
    if isinstance(expr, LaurentPolynomial):
        return RationalExpression(expr)
    if isinstance(expr, RationalExpression):
        return expr
    raise TypeError("expected a LaurentPolynomial or RationalExpression")


def monomial_twist(expr, v, g):
    """Apply z^m -> z^m (1 + z^v)^{g(m)} to a rational expression.

    Negative powers of the binomial are routed into the denominator; no
    reduction is attempted.  Each side is accumulated in one dict: a term
    c z^m with twist exponent a adds c * comb(a, j) at m + j v for j = 0..a,
    with the expansion of (1 + z^v)^a built once per distinct a.
    """
    expr = _as_expression(expr)
    v = tuple(v)
    vmax = _max_abs_exponent((v,))

    def twist_poly(p):
        if p.is_zero():
            return p, 0
        powers = [(m, c, g(m)) for m, c in p.items()]
        floor = max(0, -min(a for _, _, a in powers))
        top = max(a for _, _, a in powers) + floor
        # |exponent| of an output term is at most max|m| + top * max|v|
        check = p.max_abs_exponent() + top * vmax >= EXPONENT_LIMIT
        expansions = {}
        out = {}
        for m, c, a in powers:
            a += floor
            expansion = expansions.get(a)
            if expansion is None:
                expansion = expansions[a] = binomial_power(v, a).items()
            for jv, b in expansion:
                e = tuple(map(add, m, jv))
                if check:
                    _check_exponents(e)
                s = out.get(e, 0) + c * b
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPolynomial._raw(p.nvars, out), floor

    num, fn = twist_poly(expr.num)
    den, fd = twist_poly(expr.den)
    if fn >= fd:
        den = den * binomial_power(v, fn - fd)
    else:
        num = num * binomial_power(v, fd - fn)
    return RationalExpression(num, den)


def _integral_form(weights, message):
    """m -> sum_a weights[a] * m[a] for rational weights, evaluated as one
    integer dot product over their common denominator; a value that is not
    an integer raises ValueError(message)."""
    den = lcm(*(w.denominator for w in weights))
    ints = tuple(int(w * den) for w in weights)

    def value(m):
        num = sum(map(mul, ints, m))
        if num % den:
            raise ValueError(message)
        return num // den

    return value


def _a_side_exponent(seed, k):
    """m -> <d_k e_k, m>."""
    dk = seed.fixed.d[k]
    d = seed.fixed.d
    weights = [Fraction(dk * x, d[a]) for a, x in enumerate(seed.e_vector(k))]
    return _integral_form(weights, "pairing <d_k e_k, m> is not integral")


def pullback_A(seed, k, expr):
    """Pullback of a dual-side function along the mutation at k (source seed
    data): z^m -> z^m (1 + z^{v_k})^{-<d_k e_k, m>}."""
    if k in seed.fixed.frozen:
        raise ValueError(f"index {k} is frozen")
    a_of = _a_side_exponent(seed, k)
    return monomial_twist(expr, seed.v_vector(k), lambda m: -a_of(m))


def inverse_pullback_A(seed, k, expr):
    """Inverse of pullback_A in the same seed's data: the opposite twist.

    This expresses a function on this seed's torus in the coordinates of the
    mutated neighbour (up to the harmless linear double-mutation change of
    monomial basis)."""
    if k in seed.fixed.frozen:
        raise ValueError(f"index {k} is frozen")
    a_of = _a_side_exponent(seed, k)
    return monomial_twist(expr, seed.v_vector(k), a_of)


def _x_side_exponent(seed, k):
    """n -> d_k [n, e_k]."""
    dk = seed.fixed.d[k]
    ek = seed.e_vector(k)
    skew = seed.fixed.skew
    weights = [
        dk * sum(skew[a, b] * x for b, x in enumerate(ek)) for a in range(seed.n)
    ]
    return _integral_form(weights, "bracket [n, e_k] is not integral")


def pullback_X(seed, k, expr):
    """Pullback of a lattice-side function along the mutation at k:
    z^n -> z^n (1 + z^{e_k})^{-[n, e_k]}."""
    if k in seed.fixed.frozen:
        raise ValueError(f"index {k} is frozen")
    a_of = _x_side_exponent(seed, k)
    return monomial_twist(expr, seed.e_vector(k), lambda n: -a_of(n))


def inverse_pullback_X(seed, k, expr):
    if k in seed.fixed.frozen:
        raise ValueError(f"index {k} is frozen")
    a_of = _x_side_exponent(seed, k)
    return monomial_twist(expr, seed.e_vector(k), a_of)
