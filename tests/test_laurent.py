import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_symmetrizable_seed

from cluster_geom.errors import ResourceLimitExceeded
from cluster_geom.laurent import (
    EXPONENT_LIMIT,
    MAX_TERMS_ENV,
    ExponentOverflow,
    LaurentPolynomial,
    LinearForm,
    RationalExpression,
    _a_side_exponent,
    _field_size,
    _grlex_key,
    _x_side_exponent,
    binomial_power,
    exact_divide,
    monomial_twist,
    pullback_A,
)
from cluster_geom.seeds import mutate_seed, seed_from_epsilon

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


def _schoolbook(p, q):
    """The product term by term on exponent tuples: the route __mul__ took
    before it packed exponents, kept here as an independent oracle."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return LP(p.nvars, out)


def _fresh_frame(p):
    """The frame of p computed from its terms, as a new polynomial would."""
    return LP(p.nvars, dict(p.items()))._frame()


@st.composite
def _product_operands(draw):
    """(p, q) in 1-9 variables with negative exponents, from the origin's
    neighbourhood, across the 1-, 2- and 4-byte field boundaries, or
    anywhere in [-2**60, 2**60]; either may be a single term or zero."""
    n = draw(st.integers(1, 9))
    exps = st.one_of(
        st.integers(-3, 3),
        st.sampled_from([-257, -129, -128, 127, 128, 255, 256, -(1 << 16), 1 << 16]),
        st.integers(-(1 << 60), 1 << 60),
    )
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-(1 << 80), 1 << 80))

    def poly():
        keys = st.tuples(*[exps] * n)
        return lp(n, draw(st.dictionaries(keys, coeffs, max_size=draw(st.sampled_from([1, 5])))))

    return poly(), poly()


class TestPackedProduct:
    @given(_product_operands())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_schoolbook_product(self, operands):
        p, q = operands
        twin = LP(p.nvars, dict(p.items()))  # equal to p, not the same object
        for left, right in ((p, q), (q, p), (p, p), (p, twin)):
            product = left * right
            assert product == _schoolbook(left, right)
            assert product._frame() == _fresh_frame(product)
        # (p + q)(p - q): the cross terms cancel
        assert (p + q) * (p - q) == _schoolbook(p + q, p - q) == p * p - q * q

    @given(_product_operands(), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_schoolbook(self, operands, k):
        p, _ = operands
        if p.max_abs_exponent() * k >= EXPONENT_LIMIT:
            return
        expected = LP.one(p.nvars)
        for _ in range(k):
            expected = _schoolbook(expected, p)
        assert p ** k == expected

    @given(_product_operands(), st.tuples(*[st.integers(-(1 << 60), 1 << 60)] * 9))
    @settings(max_examples=60, deadline=None)
    def test_frames_of_quotients_and_shifts(self, operands, move):
        p, q = operands
        move = move[: p.nvars]
        shifted = p.shift(move)
        assert shifted._frame() == _fresh_frame(shifted)
        if not q.is_zero():
            r = exact_divide(p * q, q)
            assert r == p
            assert r._frame() == _fresh_frame(r)
        lo, hi, top = _fresh_frame(p)
        assert p._frame() == (lo, hi, top)
        assert top + sum(lo) == max((sum(e) for e, _ in p.items()), default=0)
        assert p.max_abs_exponent() == max(map(abs, lo + hi), default=0)

    def test_zero_factor(self):
        p = lp(3, {(1, -2, 0): 4, (0, 0, 5): -1})
        assert (p * LP.zero(3)).is_zero()
        assert (LP.zero(3) * p).is_zero()
        assert (p * 0).is_zero()

    def test_no_variables(self):
        assert LP.constant(0, 3) * LP.constant(0, -2) == LP.constant(0, -6)
        assert LP.constant(0, 3) ** 2 == LP.constant(0, 9)

    @pytest.mark.parametrize("side", [1, -1], ids=["max", "min"])
    def test_overflow_bound_on_either_side(self, side):
        # the bound reached through the factors' maxima (side 1) or minima
        # (side -1); two terms per factor, so the packed route runs
        h = 1 << 61

        def factor(x):
            return lp(2, {(side * x, 0): 1, (0, 1): 1})

        below = factor(h) * factor(h - 1)
        assert below == _schoolbook(factor(h), factor(h - 1))
        assert below.max_abs_exponent() == EXPONENT_LIMIT - 1
        p = factor(h - 1)
        assert (p * p).max_abs_exponent() == EXPONENT_LIMIT - 2
        p = factor(h)
        with pytest.raises(ExponentOverflow):
            p * p
        with pytest.raises(ExponentOverflow):
            factor(h) * factor(h)


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


def _max_scan_divide(p, q, max_terms=None):
    """Single-divisor reduction that rescans the whole remainder for its
    graded-lex maximum at every step: the route exact_divide took before it
    packed keys into a heap, kept here as a differential oracle.  With a
    cap, it raises once the quotient has more than max_terms terms."""
    if p.is_zero():
        return LP.zero(p.nvars)
    sp, sq = p._frame()[0], q._frame()[0]
    phat = {tuple(x - y for x, y in zip(e, sp)): c for e, c in p.items()}
    qhat = {tuple(x - y for x, y in zip(e, sq)): c for e, c in q.items()}
    grlex = lambda e: (sum(e), e)
    qlead = max(qhat, key=grlex)
    qlc = qhat[qlead]
    quotient, rem = {}, dict(phat)
    while rem:
        e = max(rem, key=grlex)
        c = rem[e]
        diff = tuple(x - y for x, y in zip(e, qlead))
        if any(d < 0 for d in diff) or c % qlc != 0:
            return None
        f = c // qlc
        quotient[diff] = f
        if max_terms is not None and len(quotient) > max_terms:
            raise ResourceLimitExceeded("quotient over the cap")
        for eq, cq in qhat.items():
            t = tuple(x + y for x, y in zip(diff, eq))
            s = rem.get(t, 0) - f * cq
            if s:
                rem[t] = s
            else:
                rem.pop(t, None)
    back = tuple(x - y for x, y in zip(sp, sq))
    return LP(p.nvars, {tuple(x + y for x, y in zip(e, back)): c
                        for e, c in quotient.items()})


@st.composite
def _division_operands(draw):
    """(p, q, r) in 1-5 variables: exponents clustered on a few multiples of
    a unit of 1 or 2**38 (so terms collide and cancel) or anywhere in
    [-2**40, 2**40], coefficients up to 2**100."""
    n = draw(st.integers(1, 5))
    unit = draw(st.sampled_from([1, 1 << 38]))
    exps = st.one_of(
        st.builds(lambda a, b: a * unit + b, st.integers(-3, 3), st.integers(-2, 2)),
        st.integers(-(1 << 40), 1 << 40),
    )
    coeffs = st.one_of(
        st.integers(-9, 9), st.integers(-(1 << 100), 1 << 100)
    ).filter(bool)

    def poly(size):
        keys = st.tuples(*[exps] * n)
        return lp(n, draw(st.dictionaries(keys, coeffs, max_size=size)))

    return poly(4), poly(4), poly(3)


def _divide_checked(p, q, max_terms=None):
    """exact_divide, with LaurentPolynomial.shift made to fail when q has
    more than one term: the heap route builds its quotient at its final
    exponents and shifts nothing.  Its quotient's cached frame and terms
    must equal a fresh scan and a fresh sort."""
    if q.n_terms() == 1:
        return exact_divide(p, q, max_terms)
    with mock.patch.object(LP, "shift", side_effect=AssertionError("shifted")):
        r = exact_divide(p, q, max_terms)
    if r is not None and not r.is_zero():
        assert r._frame_cache == _fresh_frame(r)
        assert r._sorted == _fresh_terms(r)
    return r


def _capped(divide, p, q, cap):
    try:
        return divide(p, q, cap)
    except ResourceLimitExceeded:
        return "over the cap"


class TestExactDivide:
    @given(_division_operands())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_max_scan_reduction(self, operands):
        # A quotient past the cap can have up to 2**40 terms, and dividing
        # by 1 + x takes one step per term.  The cap of 20 sits above the
        # 19 terms a dividend here can have, so a monomial divisor, which
        # exact_divide checks whole and the oracle term by term, never
        # reaches it.
        p, q, r = operands
        if q.is_zero():
            return
        assert _divide_checked(p * q, q, 20) == p
        for num in (p * q, p * q + r, p):
            expected = _capped(_max_scan_divide, num, q, 20)
            assert _capped(_divide_checked, num, q, 20) == expected

    def test_a_huge_quotient_stops_at_the_default_cap(self, monkeypatch):
        # (x^(2^40) + 1) / (1 + x) has no Laurent quotient, and the reduction
        # would find that out only after 2^40 quotient terms
        monkeypatch.delenv(MAX_TERMS_ENV, raising=False)
        p = lp(1, {(1 << 40,): 1, (0,): 1})
        q = lp(1, {(0,): 1, (1,): 1})
        with pytest.raises(ResourceLimitExceeded):
            exact_divide(p, q)
        with pytest.raises(ResourceLimitExceeded):
            RationalExpression(p, q).as_laurent()

    def test_the_cap_bounds_the_quotient_not_the_dividend(self):
        x = LP.variable(1, 0)
        q = LP.one(1) + x
        r = (q + x * x) ** 2  # five terms
        assert exact_divide(q * r, q, 5) == r
        with pytest.raises(ResourceLimitExceeded):
            exact_divide(q * r, q, 4)
        assert exact_divide(r, x, 5) == r.shift((-1,))
        with pytest.raises(ResourceLimitExceeded):
            exact_divide(r, x, 4)

    def test_divisor_lead_exceeds_a_component(self):
        # x^2 / (1 + y^2): the divisor's lead y^2 has the dividend's total
        # degree but a larger y exponent, so the guard bit of y fires
        p = lp(2, {(2, 0): 1})
        q = lp(2, {(0, 0): 1, (0, 2): 1})
        assert exact_divide(p, q) is None
        assert _max_scan_divide(p, q) is None
        # (x1 x2 x3 - x2^3) / (x1 x2 - x1 x3): the lead x1 x2 does not
        # divide x2^3, though the packed difference is positive; a sign test
        # in place of the guard bits accepts it and reduces to a bogus
        # quotient, since the divisor is homogeneous
        p = lp(3, {(1, 1, 1): 1, (0, 3, 0): -1})
        q = lp(3, {(1, 1, 0): 1, (1, 0, 1): -1})
        assert exact_divide(p, q) is None
        assert _max_scan_divide(p, q) is None

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


def _fresh_terms(p):
    """The terms of p sorted afresh, not read from a cache."""
    return tuple(sorted(p.items(), key=lambda t: _grlex_key(t[0]), reverse=True))


@st.composite
def _monomial_divisions(draw):
    """(p, q) with q = c z^e for c in {+-1, +-2, +-3}, e anywhere in
    [-2**40, 2**40], and p from _division_operands."""
    p, _, _ = draw(_division_operands())
    e = draw(st.tuples(*[st.integers(-(1 << 40), 1 << 40)] * p.nvars))
    return p, LP.monomial(e, draw(st.sampled_from([1, -1, 2, -2, 3, -3])))


class TestFastDivisionRoutes:
    @given(_monomial_divisions())
    @settings(max_examples=150, deadline=None)
    def test_monomial_divisor_matches_the_max_scan_reduction(self, operands):
        p, q = operands
        for num in (p * q, p):
            r = exact_divide(num, q)
            assert r == _max_scan_divide(num, q)
            if r is None:
                ((_, c),) = q.items()
                assert any(x % c for _, x in num.items())
            else:
                assert q * r == num
                assert r._frame() == _fresh_frame(r)

    def test_monomial_coefficient_must_divide(self):
        p = lp(2, {(1, 0): 4, (0, 3): 6})
        assert exact_divide(p, LP.monomial((1, 1), -2)) == lp(2, {(0, -1): -2, (-1, 2): -3})
        assert exact_divide(p, LP.monomial((1, 1), 3)) is None
        assert exact_divide(p, LP.monomial((0, 0), 4)) is None

    @given(_division_operands(), st.tuples(*[st.integers(-(1 << 40), 1 << 40)] * 5))
    @settings(max_examples=150, deadline=None)
    def test_quotient_terms_are_in_canonical_order(self, operands, move):
        p, q, _ = operands
        if q.is_zero():
            return
        r = _divide_checked(p * q, q)
        if q.n_terms() > 1 and not p.is_zero():
            assert r._sorted is not None  # cached while the quotient was built
        shifted = r.shift(move[: r.nvars])
        for poly in (r, shifted):
            assert poly.terms() == _fresh_terms(poly)
            assert poly._frame() == _fresh_frame(poly)

    @given(_product_operands())
    @settings(max_examples=150, deadline=None)
    def test_sum_frame_equals_a_fresh_scan(self, operands):
        p, q = operands
        total = p + q
        a, b = dict(p.items()), dict(q.items())
        cancelled = any(a[e] + c == 0 for e, c in b.items() if e in a)
        if cancelled:
            assert total._frame_cache is None
        elif a and b:
            assert total._frame_cache == _fresh_frame(total)

    def test_cancelling_sum_leaves_the_frame_unset(self):
        x = LP.variable(2, 0)
        y = LP.variable(2, 1)
        assert ((x + y) + (-x))._frame_cache is None
        assert (x - x)._frame_cache is None
        # no cancellation: the frame is set, and spans both summands
        assert (x * x + LP.monomial((0, -3)))._frame_cache == ((0, -3), (2, 0), 5)

    def test_keys_wider_than_eight_byte_fields(self):
        # a dividend degree of 9 * 2**60 needs 65 bits with the guard bit,
        # past every struct field, so the quotient is unpacked field by field,
        # and the unpacking adds the offset min p - min q = (-3, 4, -2) back
        a = 3 << 59
        q = lp(3, {(a, a, a): 1, (0, 0, 0): 1}).shift((-1, 5, -2))
        r = lp(3, {(a, a, a): 1, (0, 1, 0): -2, (0, 0, 0): -1}).shift((-3, 4, -2))
        lo, _, top = (q * r)._frame()
        assert top + sum(lo) == (9 << 60) + 1
        quotient = _divide_checked(q * r, q)
        assert quotient == r == _max_scan_divide(q * r, q)
        assert quotient.terms() == _fresh_terms(quotient)
        assert exact_divide(q * r + LP.variable(3, 2), q) is None

    @pytest.mark.parametrize("a, size", [
        (10, 1), (1000, 2), (10**6, 4), (10**15, 8), (3 << 59, 9),
    ], ids=["1-byte", "2-byte", "4-byte", "8-byte", "9-byte"])
    def test_quotient_frame_in_every_field_size(self, a, size):
        # negative minima on both operands, and a dividend degree that
        # needs fields of `size` bytes
        q = lp(3, {(a, a, a): 1, (-2, 5, 0): -3, (0, -1, -4): 2})
        r = lp(3, {(a, a, a): 2, (-7, 1, 3): 1, (3, -2, 0): -1})
        p = q * r
        _, _, degree = p._frame()
        assert _field_size(degree.bit_length() + 1)[0] == size
        assert _divide_checked(p, q) == r == _max_scan_divide(p, q)
        assert _divide_checked(p, r) == q
        assert _divide_checked(p + LP.variable(3, 0), q) is None

    def test_quotient_overflow(self):
        # (1 + x) x^(2^61) / ((1 + x) x^(-2^61)) = x^(2^62): both operands
        # lie inside the bound, the quotient does not
        h = 1 << 61
        b = lp(1, {(0,): 1, (1,): 1})
        for side in (1, -1):
            with pytest.raises(ExponentOverflow):
                exact_divide(b.shift((side * h,)), b.shift((-side * h,)))
        below = _divide_checked(b.shift((h - 1,)), b.shift((-h,)))
        assert below == LP.monomial((EXPONENT_LIMIT - 1,))

    @pytest.mark.parametrize("c", [1, -2])
    def test_monomial_divisor_overflow(self, c):
        h = 1 << 61
        p = lp(2, {(h, 0): 2, (0, 1): 2})
        below = exact_divide(p, LP.monomial((1 - h, 0), c))
        assert below.max_abs_exponent() == EXPONENT_LIMIT - 1
        with pytest.raises(ExponentOverflow):
            exact_divide(p, LP.monomial((-h, 0), c))
        with pytest.raises(ExponentOverflow):
            exact_divide(lp(2, {(-h, 0): 2, (0, 1): 2}), LP.monomial((h, 5), c))


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

    def test_exponent_overflow(self):
        h = 1 << 61
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.one(2), (h, 0), lambda m: 2)
        # (1 + z^v)^1 stays in range, but its shift by m = (h, 0) does not
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((h, 0)), (h, 0), lambda m: 1)
        # a denominator twist is guarded too
        frac = RationalExpression(LP.one(1), LP.monomial((-h,)))
        with pytest.raises(ExponentOverflow):
            monomial_twist(frac, (-h,), lambda m: 1)

    def test_exponents_just_below_the_bound_pass(self):
        h = 1 << 61
        out = monomial_twist(LP.monomial((h,)), (h - 1,), lambda m: m[0] // h)
        assert out.num == lp(1, {(h,): 1, (EXPONENT_LIMIT - 1,): 1})
        assert out.den.is_one()

    def test_matches_the_term_by_term_expansion(self):
        rng = random.Random(11)
        v = (2, -1, 0)
        g = lambda m: m[0] - m[2]
        for _ in range(20):
            terms = {
                tuple(rng.randint(-3, 3) for _ in range(3)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 5))
            }
            p = lp(3, terms)
            if p.is_zero():
                continue
            floor = max(0, max(-g(m) for m, _ in p.items()))
            expected = LP.zero(3)
            for m, c in p.items():
                expected = expected + binomial_power(v, g(m) + floor).shift(m) * c
            out = monomial_twist(p, v, g)
            assert out.num == expected
            assert out.den == binomial_power(v, floor)

    def test_zero_exponent_fixed(self):
        p = LP.monomial((2, 0))
        out = monomial_twist(p, (0, 1), lambda m: 0)
        assert out.as_laurent() == p


def general_twist(expr, v, g):
    """monomial_twist through its general route: a plain callable."""
    return monomial_twist(expr, v, lambda m: g(m))


def pullback_forms(seed, k):
    """(v, g) of the A- and X-side twists at k, in both directions."""
    a, x = _a_side_exponent(seed, k), _x_side_exponent(seed, k)
    v, e = seed.v_vector(k), seed.e_vector(k)
    return [(v, -a), (v, a), (e, -x), (e, x)]


class TestLineTwist:
    def test_matches_the_general_route_on_pullback_forms(self):
        # random d-skew-symmetrizable seeds of rank 2-4, some with a frozen
        # index, each mutated up to twice; Laurent inputs p (1 + z^v)^j and
        # inputs that are mostly not Laurent after the twist
        rng = random.Random(41)
        seen = {"laurent": 0, "fraction": 0}
        for _ in range(120):
            n = rng.randint(2, 4)
            seed = random_symmetrizable_seed(rng, n)
            if rng.random() < 0.4:
                seed = seed_from_epsilon(seed.eps.data, seed.fixed.d, {n - 1})
            for _ in range(rng.randint(0, 2)):
                seed = mutate_seed(seed, rng.choice(sorted(seed.fixed.unfrozen)))
            k = rng.choice(sorted(seed.fixed.unfrozen))
            for v, g in pullback_forms(seed, k):
                assert g.kills(v)
                terms = {
                    tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice([-3, -1, 1, 2])
                    for _ in range(rng.randint(1, 5))
                }
                p = lp(n, terms)
                if any(v) and rng.random() < 0.6:
                    p = p * binomial_power(v, rng.randint(0, 4))
                reference = general_twist(p, v, g)
                out = monomial_twist(p, v, g)
                reduced = reference.as_laurent()
                if reduced is None or not any(v):
                    assert (out.num, out.den) == (reference.num, reference.den)
                    seen["fraction"] += 1
                else:
                    assert out.den.is_one() and out.num == reduced
                    seen["laurent"] += 1
        assert min(seen.values()) > 100, seen

    def test_pullback_returns_the_reduced_polynomial(self):
        s = seed_from_epsilon([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        # a = -m_0 >= -1 on every line, so (1 + z^v) makes the twist Laurent
        p = lp(3, {(1, 0, 0): 1, (1, 2, 0): 1, (0, 1, 1): 3}) * binomial_power(s.v_vector(0), 1)
        out = pullback_A(s, 0, p)
        assert out.den.is_one()
        assert out.num == general_twist(p, s.v_vector(0), -_a_side_exponent(s, 0)).as_laurent()

    def test_single_term_with_a_negative_exponent_keeps_the_fraction(self):
        g = LinearForm((1, 1), 1, "unused")
        out = monomial_twist(LP.monomial((-2, 0)), (1, -1), g)
        assert out.num == LP.monomial((-2, 0))
        assert out.den == binomial_power((1, -1), 2)

    def test_zero_polynomial(self):
        out = monomial_twist(LP.zero(2), (1, -1), LinearForm((1, 1), 1, "unused"))
        assert out.num.is_zero() and out.den.is_one()

    def test_fraction_inputs_take_the_general_route(self):
        g = LinearForm((1, 1), 1, "unused")
        b = binomial_power((1, -1), 1)
        frac = RationalExpression(b * b, b)
        out = monomial_twist(frac, (1, -1), g)
        reference = general_twist(frac, (1, -1), g)
        assert (out.num, out.den) == (reference.num, reference.den)
        assert not out.den.is_one()

    def test_zero_ray_vector_takes_the_general_route(self):
        # index 2 is isolated, so v_2 = 0 lies in the kernel on the A side
        s = seed_from_epsilon([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert s.v_vector(2) == (0, 0, 0)
        g = _a_side_exponent(s, 2)
        p = lp(3, {(1, 0, -1): 3, (0, 2, 2): 1})
        for form in (g, -g):
            out = monomial_twist(p, (0, 0, 0), form)
            reference = general_twist(p, (0, 0, 0), form)
            assert (out.num, out.den) == (reference.num, reference.den)
        # z^m -> 2^{m_2} z^m
        expected = RationalExpression(lp(3, {(1, 0, -1): 3, (0, 2, 2): 8}), LP.constant(3, 2))
        assert monomial_twist(p, (0, 0, 0), g).equals(expected)

    def test_non_integral_form_raises_the_same_error(self):
        g = LinearForm((1, 1), 2, "not integral")
        p = lp(2, {(1, 1): 1, (2, 0): 1, (0, 1): 1})
        for twist in (monomial_twist, general_twist):
            with pytest.raises(ValueError, match="not integral"):
                twist(p, (1, -1), g)

    def test_exponent_overflow_in_the_widened_frame(self):
        h = EXPONENT_LIMIT
        g = LinearForm((1, 1), 1, "unused")  # g(m) = m0 + m1, g(v) = 0
        v = (1, -1)
        # two terms on one line, twisted by (1 + z^v)^2, the top one to h
        p = lp(2, {(h - 3, -(h - 5)): 1, (h - 2, -(h - 4)): 1})
        for twist in (monomial_twist, general_twist):
            with pytest.raises(ExponentOverflow):
                twist(p, v, g)
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((h - 2, -(h - 4))), v, g)
        # a line with a = -1 sets a floor of 1, and the general route then
        # expands the other line, with a = 0, to m + v = (h, -h)
        p = lp(2, {(h - 1, -(h - 1)): 1, (0, -1): 1, (1, -2): 1})
        for twist in (monomial_twist, general_twist):
            with pytest.raises(ExponentOverflow):
                twist(p, v, g)
        # (1 + z^v)^2 itself reaches the bound, though its shift by m would not
        q = h >> 1
        for twist in (monomial_twist, general_twist):
            with pytest.raises(ExponentOverflow):
                twist(LP.monomial((-q, 2)), (q, 0), LinearForm((0, 1), 1, "unused"))
        # one step below the bound the line route runs
        p = lp(2, {(h - 4, -(h - 6)): 1, (h - 3, -(h - 5)): 1})
        out = monomial_twist(p, v, g)
        assert out.den.is_one()
        assert out.num == general_twist(p, v, g).as_laurent()
        assert out.num.max_abs_exponent() == h - 1

    def test_lines_with_wide_gaps_take_the_general_route(self):
        # a dense line of 2**40 coefficients is never built
        n = 1 << 40
        p = lp(1, {(0,): 1, (n,): 1})
        out = monomial_twist(p, (1,), LinearForm((0,), 1, "unused"))
        assert (out.num, out.den) == (p, LP.one(1))
        # (1 + t^(n+1)) / (1 + t) is Laurent, with n + 1 terms: its
        # division stops at the term cap
        p = lp(2, {(0, -1): 1, (n + 1, -1): 1})
        out = monomial_twist(p, (1, 0), LinearForm((0, 1), 1, "unused"))
        assert (out.num, out.den) == (p, binomial_power((1, 0), 1))
        with pytest.raises(ResourceLimitExceeded):
            out.as_laurent(20)

    def test_term_cap_at_the_result_size(self):
        s = seed_from_epsilon([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        v, g = s.v_vector(1), _a_side_exponent(s, 1)
        p = lp(3, {(1, 0, 0): 2, (0, 1, 1): 1, (2, 1, 0): -1}) * binomial_power(v, 3)
        out = monomial_twist(p, v, g)
        reference = general_twist(p, v, g)
        size = out.num.n_terms()
        assert size > 1
        assert out.as_laurent(size) == reference.as_laurent(size) == out.num
        for fraction in (out, reference):
            with pytest.raises(ResourceLimitExceeded):
                fraction.as_laurent(size - 1)

    def test_linear_form_negation(self):
        g = LinearForm((3, -1, 0), 2, "odd")
        assert (-g)((1, 1, 5)) == -g((1, 1, 5)) == -1
        assert g.kills((1, 3, 7)) and not g.kills((1, 0, 0))
        with pytest.raises(ValueError, match="odd"):
            (-g)((1, 0, 0))
