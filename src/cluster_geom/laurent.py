"""Sparse multivariate Laurent polynomials over arbitrary-precision integers.

Terms are stored as {exponent tuple: nonzero int coefficient}.  The canonical
term order used for serialization is graded lexicographic, read descending:
higher total degree first, ties broken by the lexicographically larger
exponent tuple.

Every polynomial caches its frame: the componentwise minimum and maximum of
its exponent vectors.  Over the integers the extreme terms of a product are
products of extreme terms of the factors and cannot cancel, so a product's
frame is the sum of its factors' frames and is set without a scan, and an
exact quotient's is the difference of the dividend's and the divisor's; a
shift moves the frame along, and a sum in which no term cancels takes the
componentwise extremes of its summands' frames.  The frame is the one source
of the packing and overflow test of products and quotients, of exact
division's span test, and of max_abs_exponent.

Products, line twists and exact division share one packed layout (Monagan
and Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", CASC 2007): an exponent vector, less a componentwise
minimum, is packed into one int with one field per variable, the first
variable in the top field, so that a monomial product is one int addition
and int order is lexicographic order.  Every field has 1, 2, 4 or 8 bytes,
the fewest that hold the largest span (maximum less minimum) of one
variable.  A product or a twist sizes its fields to the span of its result;
no field of its keys exceeds that span, so no carry crosses fields.  Exact
division subtracts keys, so its fields hold the dividend's largest span and
one guard bit above it, which a borrow sets (see exact_divide).  Squares
form each cross term once and double it; a monomial factor only shifts and
scales the other, and a monomial divisor likewise.  _unpack turns keys into
exponent tuples and adds the minimum back in the same pass.

Exponents are kept below 2**62 in magnitude; crossing that bound raises
ExponentOverflow rather than silently producing huge objects.  Since the
frame of a product, a quotient or a shift is exact, the test on frames
raises exactly when some term would reach the bound.  Every span is then
below 2**63, so a field with its guard bit fits in 8 bytes.
"""

from __future__ import annotations

import os
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import cycle, repeat
from operator import add, gt, mul, neg, sub
from struct import unpack

from .errors import Frozen, Record, ResourceLimitExceeded, ValidationError, is_int

EXPONENT_LIMIT = 1 << 62
MAX_TERMS_ENV = "CLUSTER_GEOM_MAX_TERMS"
DEFAULT_MAX_TERMS = 200_000


class ExponentOverflow(ResourceLimitExceeded, ArithmeticError):
    """An exponent reached EXPONENT_LIMIT in magnitude."""


def max_terms_limit(explicit=None):
    """The term cap: `explicit` if given, else CLUSTER_GEOM_MAX_TERMS, else
    DEFAULT_MAX_TERMS.  A cap that is not an int or is below 1 is rejected."""
    limit = explicit
    if limit is None:
        raw = os.environ.get(MAX_TERMS_ENV)
        if not raw:
            return DEFAULT_MAX_TERMS
        try:
            limit = int(raw)
        except ValueError:
            raise ValidationError(f"{MAX_TERMS_ENV} must be an integer, got {raw!r}")
    if not is_int(limit):
        raise ValidationError(f"the term cap must be an integer, got {limit!r}")
    if limit < 1:
        raise ValidationError(f"the term cap must be at least 1, got {limit}")
    return limit


def _quotient_too_large(limit):
    return ResourceLimitExceeded(
        f"quotient exceeds {limit} terms (set {MAX_TERMS_ENV} to raise)"
    )


def _check_exponents(exps):
    for e in exps:
        if abs(e) >= EXPONENT_LIMIT:
            raise ExponentOverflow(f"exponent {e} exceeds the supported range")


def _grlex_key(exps):
    return (sum(exps), exps)


@lru_cache(maxsize=64)
def _field_weights(n, width):
    """1 << width * (n - 1 - i) for variable i: the fields of a packed key."""
    return tuple(1 << (width * i) for i in range(n - 1, -1, -1))


def _pack(terms, lo, weights):
    """{key: coefficient} with key = sum_i (e_i - lo_i) * weights[i]."""
    offset = sum(map(mul, lo, weights))
    return {sum(map(mul, e, weights)) - offset: c for e, c in terms.items()}


# (bytes, struct code) of a packed key's fields, by the whole bytes their
# largest value needs
_FIELD_SIZES = ((1, "B"), (1, "B"), (2, "H"), (4, "I"), (4, "I")) + ((8, "Q"),) * 4


def _field_size(bits):
    """(bytes, struct code) of the fewest fields of 1, 2, 4 or 8 bytes that
    hold `bits` <= 64 bits."""
    return _FIELD_SIZES[(bits + 7) // 8]


def _unpack(packed, lo, size, code):
    """{exponents: coefficient} from {key: coefficient}, in the order of the
    keys and without zero coefficients: n = len(lo) fields of `size` bytes,
    the first variable highest, each plus its entry of lo.  The keys are
    written to one bytes object and split in one struct call."""
    if 0 in packed.values():
        packed = {k: c for k, c in packed.items() if c}
    n = len(lo)
    data = b"".join(map(int.to_bytes, packed, repeat(n * size), repeat("big")))
    fields = map(add, unpack(f">{n * len(packed)}{code}", data), cycle(lo))
    # each run of n fields is one exponent vector
    return dict(zip(zip(*[fields] * n), packed.values()))


class LaurentPolynomial(Frozen):
    """A Laurent polynomial in nvars variables with integer coefficients.
    Equality, hash, copy and pickle read nvars and the terms; the frame
    cache is left out of all four."""

    __slots__ = ("nvars", "_terms", "_frame_cache")

    def __init__(self, nvars, terms=None):
        cleaned = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent vector length mismatch")
            if not all(map(is_int, exps)) or not is_int(coeff):
                raise TypeError("exponents and coefficients must be integers")
            if coeff:
                _check_exponents(exps)
                cleaned[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", cleaned)
        object.__setattr__(self, "_frame_cache", None)

    def __reduce__(self):
        return LaurentPolynomial, (self.nvars, self._terms)

    @classmethod
    def _raw(cls, nvars, terms, frame=None):
        # trusted constructor: terms already cleaned, frame exact or None
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_frame_cache", frame)
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
        return cls(len(exps), {exps: coeff})

    @classmethod
    def variable(cls, nvars, i):
        return cls.monomial(tuple(1 if j == i else 0 for j in range(nvars)), 1)

    def terms(self):
        """Terms as ((exponents, coefficient), ...) in descending canonical order."""
        t = self._terms
        return tuple((e, t[e]) for e in sorted(t, key=_grlex_key, reverse=True))

    def items(self):
        return self._terms.items()

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(0,) * self.nvars: 1}

    def n_terms(self):
        return len(self._terms)

    def _frame(self):
        """(componentwise min, componentwise max) of the exponent vectors;
        the origin twice for the zero polynomial.  Computed once and cached,
        like terms(), unless the operation that made the polynomial already
        knew it."""
        frame = self._frame_cache
        if frame is None:
            t = self._terms
            if t:
                cols = tuple(zip(*t))
                frame = (tuple(map(min, cols)), tuple(map(max, cols)))
            else:
                origin = (0,) * self.nvars
                frame = (origin, origin)
            object.__setattr__(self, "_frame_cache", frame)
        return frame

    def max_abs_exponent(self):
        lo, hi = self._frame()
        return max(map(abs, lo + hi), default=0)

    def has_nonnegative_coefficients(self):
        return all(c > 0 for c in self._terms.values())

    def _require_same_ring(self, other):
        if not isinstance(other, LaurentPolynomial):
            raise TypeError("expected a LaurentPolynomial")
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        """The sum.  When no term cancels, the support is the union of the
        supports, so the frame follows from the summands' frames."""
        self._require_same_ring(other)
        # the zero polynomial's frame bounds no terms
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        get = out.get
        cancelled = False
        for e, c in other._terms.items():
            s = get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
                cancelled = True
        if cancelled:
            return LaurentPolynomial._raw(self.nvars, out)
        alo, ahi = self._frame()
        blo, bhi = other._frame()
        frame = (tuple(map(min, alo, blo)), tuple(map(max, ahi, bhi)))
        return LaurentPolynomial._raw(self.nvars, out, frame)

    def __neg__(self):
        return LaurentPolynomial._raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The product, by an int or a Laurent polynomial in the same ring.

        The product's frame is the sum of the factors' frames (see the module
        docstring), so ExponentOverflow is raised before any work, exactly
        when a product term would reach the bound.  A monomial factor shifts
        and scales the other.  Otherwise both factors are packed in the
        product's frame, the product is accumulated on keys, where key
        addition is monomial multiplication, and unpacked once.  A square
        (`p * p` with one object, as every `__pow__` forms) adds each cross
        term i < j once with a doubled coefficient, which halves the
        coefficient multiplications.
        """
        if isinstance(other, int):
            if other == 0:
                return LaurentPolynomial.zero(self.nvars)
            return LaurentPolynomial._raw(
                self.nvars, {e: other * c for e, c in self._terms.items()}
            )
        self._require_same_ring(other)
        n = self.nvars
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPolynomial.zero(n)
        alo, ahi = self._frame()
        blo, bhi = other._frame()
        lo = tuple(map(add, alo, blo))
        hi = tuple(map(add, ahi, bhi))
        _check_exponents(lo + hi)
        frame = (lo, hi)
        if len(a) < len(b):
            a, b, alo, blo = b, a, blo, alo
        if len(b) == 1:  # a monomial factor only shifts and scales the other
            ((e, c),) = b.items()
            out = {tuple(map(add, x, e)): c * y for x, y in a.items()}
            return LaurentPolynomial._raw(n, out, frame)
        size, code = _field_size(max(map(sub, hi, lo)).bit_length())
        weights = _field_weights(n, 8 * size)
        pa = tuple(_pack(a, alo, weights).items())
        out = {}
        get = out.get
        if other is self:
            for i, (ka, ca) in enumerate(pa):
                k = ka + ka
                out[k] = get(k, 0) + ca * ca
                ca += ca
                for kb, cb in pa[i + 1:]:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        else:
            for kb, cb in _pack(b, blo, weights).items():
                for ka, ca in pa:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        return LaurentPolynomial._raw(n, _unpack(out, lo, size, code), frame)

    __rmul__ = __mul__

    def __pow__(self, a):
        if not is_int(a) or a < 0:
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
        """Multiply by the monomial z^exps.  The frame moves along, so the
        exponent bound is tested on the frame alone."""
        exps = tuple(exps)
        if not any(exps) or not self._terms:
            return self  # the zero polynomial's frame bounds no terms
        lo, hi = self._frame()
        lo = tuple(map(add, lo, exps))
        hi = tuple(map(add, hi, exps))
        _check_exponents(lo + hi)
        out = {tuple(map(add, e, exps)): c for e, c in self._terms.items()}
        return LaurentPolynomial._raw(self.nvars, out, (lo, hi))

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
    """Expansion of (1 + z^v)^a for a >= 0, from one Pascal row.  Every term
    j v lies between 0 and a v, so the bound is tested on a v alone, before
    anything is built."""
    if not is_int(a) or a < 0:
        raise ValueError("binomial_power needs a nonnegative integer exponent")
    v = tuple(v)
    _check_exponents([a * x for x in v])
    if not any(v):
        return LaurentPolynomial.constant(len(v), 1 << a)
    terms = {tuple(j * x for x in v): c for j, c in enumerate(_pascal_row(a))}
    return LaurentPolynomial._raw(len(v), terms)


def exact_divide(p, q, max_terms=None):
    """The Laurent polynomial r with q * r = p, or None if none exists.

    The quotient may have at most `max_terms` terms (max_terms_limit's
    default when None); ResourceLimitExceeded is raised as soon as it has
    more, so the work of a division is bounded by the cap, not by the
    dividend's degree.

    A monomial divisor c z^e only shifts and scales: r is p / c shifted by
    -e, and exists exactly when c divides every coefficient of p.

    Otherwise q r = p makes each span of p (its maximum less its minimum in
    one variable) the sum of the spans of q and r, so a divisor with a
    larger span than p in some variable gives None at once.  Both operands
    are packed less their minima in the layout of products (see the module
    docstring), every field the fewest whole bytes that hold p's largest
    span and a guard bit above it, and int order is lexicographic order.
    Single-divisor reduction by the divisor's leading term then either ends
    with a zero remainder (success) or proves that no quotient exists.  The
    remainder is a dict plus a max-heap of its keys with lazy deletion
    (Monagan and Pearce, "Sparse polynomial division using a heap",
    J. Symb. Comp. 2011), which is correct in any monomial order: each step
    takes the largest live key, and every term it adds is smaller, so a
    processed key never returns.  Every step that does not end the division
    adds a quotient term, and each quotient term pushes at most |q| - 1
    keys, so fewer than |p| + (cap + 1) * |q| steps run before the cap is
    hit.

    After k steps of an exact division the remainder is q (r - r_k), with
    r_k the first k terms of r, so it lies in frame(q) + frame(r) =
    frame(p), and the quotient term that its lead gives lies in frame(r):
    less r's minimum, each of its exponents is at least 0 and at most p's
    span, below the guard bit.  That quotient key is the difference of the
    remainder's lead and the divisor's lead, and a guard bit in it means a
    borrow (a negative exponent) or an exponent past p's span, either of
    which proves that the division is not exact; so does a coefficient that
    the divisor's leading coefficient does not divide.  A pushed key is an
    accepted quotient key plus a divisor key, each field below the guard
    bit plus at most the divisor's span, so no field carries into the next.

    An exact division finds the terms of r in descending order, so it
    passes the cap exactly when r has more terms than the cap, in any term
    order.  A division that is not exact may stop with None in one order
    and at the cap in another.  In the command-line tools only a fraction
    that is not Laurent divides inexactly: that is a Laurent violation,
    which only a bug produces.

    Only the quotient is unpacked, straight to its exponents: its frame is
    exact (min p - min q, max p - max q), and its keys lie at
    min p - min q, which the unpacking adds back.  ExponentOverflow is
    raised when that frame reaches the bound, even where neither operand
    does.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if p.nvars != q.nvars:
        raise ValueError("variable count mismatch")
    n = p.nvars
    if p.is_zero():
        return LaurentPolynomial.zero(n)
    limit = max_terms_limit(max_terms)
    if len(q._terms) == 1:  # a monomial divisor only shifts and scales
        ((e, c),) = q._terms.items()
        if c != 1:
            if any(x % c for x in p._terms.values()):
                return None
            p = LaurentPolynomial._raw(
                n, {x: y // c for x, y in p._terms.items()}, p._frame()
            )
        if len(p._terms) > limit:
            raise _quotient_too_large(limit)
        return p.shift(map(neg, e))
    sp, phi = p._frame()
    sq, qhi = q._frame()
    span = tuple(map(sub, phi, sp))
    if any(map(gt, map(sub, qhi, sq), span)):
        return None
    size, code = _field_size(max(span).bit_length() + 1)  # and a guard bit
    width = 8 * size
    weights = _field_weights(n, width)
    guard = sum(weights) << (width - 1)
    rem = _pack(p._terms, sp, weights)
    rest = _pack(q._terms, sq, weights)
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
        if len(quotient) > limit:
            raise _quotient_too_large(limit)
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
    # q * r = p, so the quotient's frame is the difference of the frames of
    # p and q, and its packed keys lie at sp - sq
    lo = tuple(map(sub, sp, sq))
    hi = tuple(map(sub, phi, qhi))
    _check_exponents(lo + hi)
    return LaurentPolynomial._raw(n, _unpack(quotient, lo, size, code), (lo, hi))


class RationalExpression(Record):
    """A fraction of Laurent polynomials, as monomial_twist returns it.  No
    automatic gcd reduction is performed; Laurent-ness is decided by a single
    exact division on demand.  Equality compares numerators and
    denominators, not the fractions they make."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPolynomial.one(num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        super().__init__(num, den)

    def as_laurent(self, max_terms=None):
        """The equal Laurent polynomial, or None when the fraction is not one;
        the term cap is exact_divide's."""
        return exact_divide(self.num, self.den, max_terms)

    def to_str(self, names=None):
        if self.den.is_one():
            return self.num.to_str(names)
        return f"({self.num.to_str(names)}) / ({self.den.to_str(names)})"

    def __repr__(self):
        return f"<RationalExpression {self.to_str()}>"


# ---------------------------------------------------------------------------
# Mutation pullbacks.  A mutation at an unfrozen index k acts on functions by
# a monomial-wise binomial twist, built by step_twist:
#
#   A-side (dual-lattice characters):  z^m -> z^m (1 + z^{v_k})^{-<d_k e_k, m>}
#   X-side (lattice characters):       z^n -> z^n (1 + z^{e_k})^{-d_k [n, e_k]}
#
# laurent-check walks the inverse maps, the same twists with the opposite
# exponent sign in the data of the same source seed, and the tropical maps
# are their tropicalizations.  Both forms vanish on their twist vector, so
# they are constant on each line m + Zv, and the pullback of a regular
# function is regular exactly when, line by line, it keeps its order along
# {1 + z^v = 0} (GHK); monomial_twist checks that with one exact division
# per line.
# ---------------------------------------------------------------------------

class LinearForm(Record):
    """m -> sum_a weights[a] * m[a], with integer weights.  monomial_twist
    takes its exponent as a LinearForm, which is constant on the lines
    m + Zv of a twist vector v that it vanishes on."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        super().__init__(tuple(weights))

    def __call__(self, m):
        return sum(map(mul, self.weights, m))


def step_twist(seed, k, side):
    """The twist of the mutation at index k as (vector, LinearForm): on side
    "A", (v_k, m -> <d_k e_k, m>); on side "X", (e_k, n -> d_k [n, e_k]).  An
    index that FixedData.check_mutable refuses, or another side, raises
    ValidationError before any vector is read.

    The weights d_k e_k[a] / d_a and -d_k v_k[a] / d_a (as [e_a, e_k] =
    -v_k[a] / d_a) are integers.  Seed checks that d_a divides d_k B[a, k],
    and with S the skew form, d_k v_k[a] / d_a = sum_b (d_k B[b, k] / d_b)
    (S[b, a] d_b), where FixedData checks that S[b, a] d_b is an integer
    unless a and b are both frozen, and B[b, k] = 0 for frozen b (k is not)."""
    seed.fixed.check_mutable(k)
    if side not in ("A", "X"):
        raise ValidationError(f"side must be 'A' or 'X', got {side!r}")
    d, e, v = seed.fixed.d, seed.e_vector(k), seed.v_vector(k)
    if side == "A":
        return v, LinearForm([d[k] * x // da for x, da in zip(e, d)])
    return e, LinearForm([-d[k] * x // da for x, da in zip(v, d)])


def _pascal_row(a):
    """(comb(a, 0), ..., comb(a, a)): the coefficients of (1 + t)^a, each
    from the one before it."""
    row = [1]
    for j in range(a):
        row.append(row[-1] * (a - j) // (j + 1))
    return tuple(row)


def _times_binomial(coeffs, a):
    """Dense coefficients, lowest first, of P(t) (1 + t)^a."""
    row = _pascal_row(a)
    out = [0] * (len(coeffs) + a)
    for i, c in enumerate(coeffs):
        if c:
            out[i:i + a + 1] = map(add, out[i:i + a + 1], map(mul, row, repeat(c)))
    return out


def _over_binomial(coeffs, b):
    """Dense coefficients, lowest first, of P(t) / (1 + t)^b, or None when
    (1 + t)^b does not divide P (whose lowest coefficient is nonzero):
    synthetic division by 1 + t from the top, b times."""
    for _ in range(b):
        quotient = []
        carry = 0
        for c in reversed(coeffs[1:]):
            carry = c - carry
            quotient.append(carry)
        if coeffs[0] != carry:
            return None
        coeffs = quotient[::-1]
    return coeffs


def _twist_lines(p, v, g):
    """sum_m c_m z^m (1 + z^v)^{g(m)} for nonzero p = sum_m c_m z^m and v,
    and a linear form g with g(v) = 0, as a Laurent polynomial; or None when it
    is not one, or when the sparse route's exponent test would fire, so
    that the sparse route gives its fraction or raises ExponentOverflow.

    g is constant on each line m + Zv, and in t = z^v the line's terms form
    a polynomial P(t), twisted to P(t) (1 + t)^a.  Distinct lines share no
    monomial, so the twist is a Laurent polynomial exactly when
    (1 + t)^{-a} divides P(t) on every line with a < 0.  A single term with
    a >= 0 is a shifted binomial power.  Otherwise every line is twisted on
    dense coefficients (lines with wide gaps take the sparse route), and
    the results are written on packed keys in p's frame widened by
    max(0, max a) v, which holds every output term; packing is linear, so
    the line's j-th term lies j key(v) above its lowest, and all keys are
    unpacked at once."""
    terms = p._terms
    if len(terms) == 1:
        ((m, c),) = terms.items()
        a = g(m)
        if a < 0:
            return None
        # raises ExponentOverflow exactly when the sparse route does
        return binomial_power(v, a).shift(m) * c
    i0 = next(i for i, x in enumerate(v) if x)
    vi = v[i0]
    lines = {}
    for m, c in terms.items():
        s = m[i0] // vi
        rep = tuple([x - s * y for x, y in zip(m, v)])
        line = lines.get(rep)
        if line is None:
            lines[rep] = {s: c}
        else:
            line[s] = c
    powers = [(rep, line, g(rep), min(line), max(line)) for rep, line in lines.items()]
    low = min(a for _, _, a, _, _ in powers)
    high = max(a for _, _, a, _, _ in powers)
    floor = max(0, -low)
    # the sparse route's exponent test, covering its denominator too
    vmax = max(map(abs, v))
    if max(p.max_abs_exponent() + high * vmax, 0) + floor * vmax >= EXPONENT_LIMIT:
        return None
    # the dense lines may hold at most twice as many coefficients as the
    # sparse route's twisted numerator; lines with wide gaps go there, and
    # a huge quotient stops at the term cap of its division
    dense = sum(top - bottom + 1 + max(a, 0) for _, _, a, bottom, top in powers)
    if dense > 2 * sum(len(line) * (a + floor + 1) for _, line, a, _, _ in powers):
        return None
    lo, hi = p._frame()
    wide = tuple(max(0, high) * x for x in v)
    lo = tuple(x + min(0, w) for x, w in zip(lo, wide))
    hi = tuple(x + max(0, w) for x, w in zip(hi, wide))
    size, code = _field_size(max(map(sub, hi, lo)).bit_length())
    weights = _field_weights(len(v), 8 * size)
    step = sum(map(mul, v, weights))
    offset = sum(map(mul, lo, weights))
    out = {}
    for rep, line, a, bottom, top in powers:
        coeffs = [0] * (top - bottom + 1)
        for s, c in line.items():
            coeffs[s - bottom] = c
        if a > 0:
            coeffs = _times_binomial(coeffs, a)
        elif a < 0:
            coeffs = _over_binomial(coeffs, -a)
            if coeffs is None:
                return None
        key = sum(map(mul, rep, weights)) - offset + bottom * step
        for c in coeffs:
            if c:
                out[key] = c
            key += step
    return LaurentPolynomial._raw(p.nvars, _unpack(out, lo, size, code))


def monomial_twist(p, v, g):
    """Apply z^m -> z^m (1 + z^v)^{g(m)} to a Laurent polynomial p, for a
    LinearForm g with g(v) = 0; a form with g(v) != 0 raises ValueError.
    The zero polynomial comes back as it is, over the denominator 1.

    For v != 0 the twist is taken line by line (see _twist_lines), and a
    Laurent result comes back reduced, over the denominator 1.  Every other
    case (v = 0, a twist that is not Laurent, a line with wide gaps, a
    result near the exponent bound) takes the sparse route and comes back
    unreduced: with floor = max(0, -min g(m)), each term c z^m adds
    c * comb(a, j) at m + j v for j = 0..a, a = g(m) + floor, the expansion
    of (1 + z^v)^a built once per distinct a, over the denominator
    (1 + z^v)^floor.
    """
    v = tuple(v)
    if g(v):
        raise ValueError("the twist exponent does not vanish on the twist vector")
    if not p._terms:
        return RationalExpression(p)
    if any(v):
        twisted = _twist_lines(p, v, g)
        if twisted is not None:
            return RationalExpression(twisted)
    powers = [(m, c, g(m)) for m, c in p.items()]
    floor = max(0, -min(a for _, _, a in powers))
    top = max(a for _, _, a in powers) + floor
    # |exponent| of an output term is at most max|m| + top * max|v|
    vmax = max(map(abs, v), default=0)
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
    num = LaurentPolynomial._raw(p.nvars, out)
    return RationalExpression(num, binomial_power(v, floor))


def inverse_pullback_A(seed, k, p):
    """z^m -> z^m (1 + z^{v_k})^{<d_k e_k, m>}, the inverse of the A-side
    pullback along the mutation at k, in the same seed's data.  It expresses
    a function on this seed's torus in the coordinates of the mutated
    neighbour (up to the harmless linear double-mutation change of monomial
    basis)."""
    return monomial_twist(p, *step_twist(seed, k, "A"))


def inverse_pullback_X(seed, k, p):
    """Inverse of the pullback of a lattice-side function along the mutation
    at k: z^n -> z^n (1 + z^{e_k})^{d_k [n, e_k]}.  The exponent vanishes at
    e_k ([e_k, e_k] = 0), so a Laurent polynomial is twisted line by line
    (see monomial_twist)."""
    return monomial_twist(p, *step_twist(seed, k, "X"))
