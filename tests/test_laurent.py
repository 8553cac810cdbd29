import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cluster_geom.errors import ResourceLimitExceeded
from cluster_geom.laurent import (
    ExponentOverflow,
    LaurentPolynomial,
    RationalExpression,
    binomial_power,
    exact_divide,
    monomial_twist,
)

LP = LaurentPolynomial


def lp(nvars, terms):
    return LP(nvars, terms)


small_polys = st.builds(
    lambda d: lp(2, d),
    st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        st.integers(-9, 9).filter(bool),
        max_size=6,
    ),
)


class TestRingOps:
    def test_product_difference_of_squares(self):
        one_plus_x = lp(1, {(0,): 1, (1,): 1})
        one_minus_x = lp(1, {(0,): 1, (1,): -1})
        assert one_plus_x * one_minus_x == lp(1, {(0,): 1, (2,): -1})

    def test_add_zero(self):
        p = lp(2, {(1, -2): 3})
        assert p + LP.zero(2) == p

    def test_laurent_shift(self):
        p = lp(1, {(-1,): 1, (0,): 1})  # x^-1 + 1
        x = LP.variable(1, 0)
        assert p * x == lp(1, {(0,): 1, (1,): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp(1, {(1,): 1}) + lp(2, {(1, 0): 1})

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)

    def test_canonical_string(self):
        p = lp(2, {(2, -1): 3, (0, 0): 1})
        assert p.to_str() == "3*x1^2*x2^-1 + 1"

    def test_string_signs(self):
        p = lp(1, {(1,): -2, (0,): 1})
        assert p.to_str() == "-2*x1 + 1"

    def test_exponent_overflow(self):
        big = 1 << 62
        with pytest.raises(ExponentOverflow):
            LP.monomial((big,))

    def test_overflow_on_a_middle_product_term(self):
        # (2h, -2h) is neither the graded-lex maximum nor the minimum of p*p
        h = 1 << 61
        p = lp(2, {(h, -h): 1, (2, 2): 1, (-2, -2): 1})
        with pytest.raises(ExponentOverflow):
            p * p

    def test_overflow_is_a_resource_limit(self):
        assert issubclass(ExponentOverflow, ResourceLimitExceeded)
        assert issubclass(ExponentOverflow, ArithmeticError)

    def test_products_below_the_bound_pass(self):
        h = (1 << 61) - 1
        p = lp(1, {(h,): 1, (-h,): 1})
        assert p * p == lp(1, {(2 * h,): 1, (0,): 2, (-2 * h,): 1})

    @given(small_polys)
    @settings(max_examples=40, deadline=None)
    def test_cached_terms_match_a_fresh_sort(self, p):
        fresh = tuple(
            (e, c) for e, c in sorted(
                p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
            )
        )
        assert p.terms() == fresh
        assert p.terms() is p.terms()
        q = p * p
        assert q.terms() == tuple(sorted(
            q.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
        ))

    @given(small_polys, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_power_is_repeated_product(self, p, a):
        expected = LP.one(2)
        for _ in range(a):
            expected = expected * p
        assert p ** a == expected


class TestBinomialPower:
    def test_square(self):
        assert binomial_power((1, 0), 2) == lp(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})

    def test_zeroth(self):
        assert binomial_power((3, -1), 0) == LP.one(2)

    def test_cube(self):
        assert binomial_power((0, 1), 3) == lp(
            2, {(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1}
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial_power((1,), -1)


class TestExactDivide:
    def test_square_by_factor(self):
        b = lp(1, {(0,): 1, (1,): 1})
        assert exact_divide(b * b, b) == b

    def test_non_divisible(self):
        assert exact_divide(lp(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}),
                            lp(2, {(0, 0): 1, (1, 0): 1})) is None

    def test_monomial_divisor(self):
        p = lp(2, {(1, 0): 1, (1, 1): 1, (2, 0): 1})
        x = LP.variable(2, 0)
        assert exact_divide(p, x) == lp(2, {(0, 0): 1, (0, 1): 1, (1, 0): 1})

    def test_integer_coefficient_obstruction(self):
        assert exact_divide(LP.variable(1, 0), LP.constant(1, 2)) is None

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(LP.one(1), LP.zero(1))

    @given(small_polys, small_polys)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, p, q):
        if q.is_zero():
            return
        assert exact_divide(p * q, q) == p

    def test_laurent_only_quotient(self):
        # (x + x^2 y) / x = 1 + x y works even though naive polynomial
        # division in y alone would not see it
        p = lp(2, {(-1, 0): 1, (0, 1): 1})
        q = lp(2, {(1, 0): 1})
        r = exact_divide(p, q)
        assert r == lp(2, {(-2, 0): 1, (-1, 1): 1})


class TestRationalExpression:
    def test_no_auto_reduction(self):
        b = lp(1, {(0,): 1, (1,): 1})
        e = RationalExpression(b * b, b)
        assert e.num == b * b
        assert e.as_laurent() == b

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalExpression(LP.one(1), LP.zero(1))

    def test_equals_cross_multiplied(self):
        b = lp(1, {(0,): 1, (1,): 1})
        assert RationalExpression(b * b, b).equals(RationalExpression(b))


class TestMonomialTwist:
    def test_ring_homomorphism_on_monomials(self):
        rng = random.Random(5)
        v = (1, -1)
        for _ in range(30):
            m1 = tuple(rng.randint(-3, 3) for _ in range(2))
            m2 = tuple(rng.randint(-3, 3) for _ in range(2))
            g = lambda m: m[0] - 2 * m[1]
            t1 = monomial_twist(LP.monomial(m1), v, g)
            t2 = monomial_twist(LP.monomial(m2), v, g)
            t12 = monomial_twist(LP.monomial(m1) * LP.monomial(m2), v, g)
            assert t12.equals(t1 * t2)

    def test_zero_exponent_fixed(self):
        p = LP.monomial((2, 0))
        out = monomial_twist(p, (0, 1), lambda m: 0)
        assert out.as_laurent() == p
