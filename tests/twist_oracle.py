"""A term-by-term oracle for the binomial twists of cluster mutation.

fraction_twist applies z^m -> z^m (1 + z^v)^{g(m)} to a Laurent polynomial
or to a fraction of two, for any callable exponent g: linear or not, and
vanishing on v or not.  Numerator and denominator are twisted term by term,
each over its own floor max(0, -min g(m)), and the two floors are balanced
by a power of 1 + z^v.  It expands binomials with math.comb and shares no
twist code with cluster_geom.laurent.monomial_twist, which it checks: on a
Laurent polynomial its (num, den) is the sparse route's, term for term.

pair_with_dual is the canonical pairing <n, m> = sum_a n[a] m[a] / d_a as a
Fraction, the tests' route to the exponents that laurent.step_twist keeps as
integer weights.  pullback_A is the A-side mutation pullback
z^m -> z^m (1 + z^{v_k})^{-<d_k e_k, m>} on it, with the pairing read from
pair_with_dual rather than from step_twist.  It takes fractions, so
pullbacks compose.  monomial, times and same_fraction build, multiply and
compare fractions (RationalExpression) cross-multiplied.
"""

from fractions import Fraction
from math import comb

from cluster_geom.laurent import LaurentPolynomial, RationalExpression


def monomial(exps, coeff=1):
    """c z^exps as a fraction over 1."""
    return RationalExpression(LaurentPolynomial.monomial(exps, coeff))


def times(a, b):
    """The product of two fractions, unreduced."""
    return RationalExpression(a.num * b.num, a.den * b.den)


def same_fraction(a, b):
    """Whether two fractions are equal as rational functions."""
    return a.num * b.den == b.num * a.den


def _twisted(p, v, g):
    """(sum_m c_m z^m (1 + z^v)^{g(m) + floor}, floor), floor = max(0, -min g(m))."""
    powers = [(m, c, g(m)) for m, c in p.items()]
    floor = max([0] + [-a for _, _, a in powers])
    out = {}
    for m, c, a in powers:
        for j in range(a + floor + 1):
            e = tuple(x + j * y for x, y in zip(m, v))
            out[e] = out.get(e, 0) + c * comb(a + floor, j)
    return LaurentPolynomial(p.nvars, out), floor


def _binomial(v, a):
    """(1 + z^v)^a: the twist of 1 by the constant a."""
    return _twisted(LaurentPolynomial.one(len(v)), v, lambda m: a)[0]


def fraction_twist(expr, v, g):
    """z^m -> z^m (1 + z^v)^{g(m)} on a Laurent polynomial or a fraction, as
    an unreduced fraction."""
    if isinstance(expr, LaurentPolynomial):
        expr = RationalExpression(expr)
    v = tuple(v)
    num, fn = _twisted(expr.num, v, g)
    den, fd = _twisted(expr.den, v, g)
    if fn >= fd:
        den = den * _binomial(v, fn - fd)
    else:
        num = num * _binomial(v, fd - fn)
    return RationalExpression(num, den)


def pair_with_dual(seed, n_vec, m_vec):
    """<n, m> for n in initial coordinates and m in initial dual
    coordinates, as a Fraction."""
    return sum(Fraction(x * y, da) for x, y, da in zip(n_vec, m_vec, seed.fixed.d))


def pullback_A(seed, k, expr):
    """The pullback of a dual-side function along the mutation at k, in the
    source seed's data."""
    dk_ek = tuple(seed.fixed.d[k] * x for x in seed.e_vector(k))

    def exponent(m):
        pairing = pair_with_dual(seed, dk_ek, m)
        assert pairing.denominator == 1, (m, pairing)
        return -int(pairing)

    return fraction_twist(expr, seed.v_vector(k), exponent)
