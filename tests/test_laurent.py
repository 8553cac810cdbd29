import json
import random
import time
from math import comb
from operator import neg, sub
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import random_symmetrizable_seed
from twist_oracle import fraction_twist, monomial, pullback_A, same_fraction, times

from cluster_geom import cli, laurent
from cluster_geom.errors import ResourceLimitExceeded, ValidationError
from cluster_geom.explore import verify_laurent_A
from cluster_geom.laurent import (
    EXPONENT_LIMIT,
    MAX_TERMS_ENV,
    ExponentOverflow,
    LaurentPolynomial,
    LinearForm,
    RationalExpression,
    _field_size,
    _grlex_key,
    _pascal_row,
    binomial_power,
    exact_divide,
    max_terms_limit,
    monomial_twist,
    step_twist,
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
    def test_terms_match_a_fresh_sort(self, p):
        fresh = tuple(
            (e, c) for e, c in sorted(
                p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True
            )
        )
        assert p.terms() == fresh
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
        lo, hi = _fresh_frame(p)
        assert p._frame() == (lo, hi)
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

    def test_pascal_row_is_the_binomial_coefficients(self):
        for a in range(201):
            assert _pascal_row(a) == tuple(comb(a, j) for j in range(a + 1))

    def test_top_term_past_the_bound_raises_before_any_work(self):
        # a row of 2**62 + 1 coefficients is never built
        with pytest.raises(ExponentOverflow):
            binomial_power((1,), 1 << 62)
        with pytest.raises(ExponentOverflow):
            binomial_power((0, -3), 1 << 61)
        assert binomial_power((0, 0), 5) == LP.constant(2, 32)

    def test_a_long_twist_within_budget(self, tmp_path, capsys):
        # q = 10000 on A2 twists by (1 + z^v)^10000: one Pascal row of
        # 10001 big coefficients, each from the one before it
        started = time.time()
        path = tmp_path / "a2.json"
        path.write_text(json.dumps({"rank": 2, "skew": [[0, 1], [-1, 0]]}))
        argv = ["laurent-check", str(path), "--side", "A", "--q=10000,0", "--depth", "1"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["laurent_ok"] and report["max_terms"] == 10001
        elapsed = time.time() - started
        assert elapsed < 5, f"q = 10000 exceeded 5s: {elapsed:.1f}s"


def _max_scan_divide(p, q, max_terms=None):
    """Single-divisor reduction on exponent tuples that rescans the whole
    remainder for its lexicographic maximum at every step, after the span
    test of exact_divide: a differential oracle for the packed heap route.
    With a cap, it raises once the quotient has more than max_terms terms."""
    if p.is_zero():
        return LP.zero(p.nvars)
    (sp, php), (sq, qhp) = p._frame(), q._frame()
    if any(b - a > d - c for a, b, c, d in zip(sq, qhp, sp, php)):
        return None  # q r = p makes each span of p the sum of q's and r's
    phat = {tuple(x - y for x, y in zip(e, sp)): c for e, c in p.items()}
    qhat = {tuple(x - y for x, y in zip(e, sq)): c for e, c in q.items()}
    qlead = max(qhat)
    qlc = qhat[qlead]
    quotient, rem = {}, dict(phat)
    while rem:
        e = max(rem)
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
    exponents and shifts nothing.  Its quotient's cached frame must equal a
    fresh scan."""
    if q.n_terms() == 1:
        return exact_divide(p, q, max_terms)
    with mock.patch.object(LP, "shift", side_effect=AssertionError("shifted")):
        r = exact_divide(p, q, max_terms)
    if r is not None and not r.is_zero():
        assert r._frame_cache == _fresh_frame(r)
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
        # reaches it.  Both find the same quotient terms in the same order,
        # but the guard bits also stop a quotient exponent past the
        # dividend's span, so an inexact division can end with None before
        # the oracle, which stops only at a negative exponent, meets the cap.
        p, q, r = operands
        if q.is_zero():
            return
        assert _divide_checked(p * q, q, 20) == p
        for num in (p * q, p * q + r, p):
            expected = _capped(_max_scan_divide, num, q, 20)
            got = _capped(_divide_checked, num, q, 20)
            assert got == expected or (got is None and expected == "over the cap")

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
        # x^2 / (1 + y^2): the divisor spans more of y than the dividend
        p = lp(2, {(2, 0): 1})
        q = lp(2, {(0, 0): 1, (0, 2): 1})
        assert exact_divide(p, q) is None
        assert _max_scan_divide(p, q) is None
        # (1 + x) / (1 + y^256): in the dividend's 1-byte fields y^256 would
        # carry into the field of x and pass for x, giving the quotient 1
        p = lp(2, {(0, 0): 1, (1, 0): 1})
        q = lp(2, {(0, 0): 1, (0, 256): 1})
        assert exact_divide(p, q) is None
        # (x1 x2 x3 - x2^3) / (x1 x2 - x1 x3): less the minima, the leads
        # differ by x1 x2^-1 x3, a borrow whose packed key is positive; a
        # sign test in place of the guard bits accepts it and reduces to a
        # bogus quotient
        p = lp(3, {(1, 1, 1): 1, (0, 3, 0): -1})
        q = lp(3, {(1, 1, 0): 1, (1, 0, 1): -1})
        assert exact_divide(p, q) is None
        assert _max_scan_divide(p, q) is None

    def test_inexact_division_meets_the_cap_or_a_borrow(self, monkeypatch):
        # (x^50 + y^2) / (x + y^2) has no Laurent quotient.  Reduction by
        # the lexicographic lead x finds 50 quotient terms x^(49-j) (-y^2)^j
        # before a borrow in x proves that: past a cap of 20, None below a
        # cap of 50 or more
        monkeypatch.delenv(MAX_TERMS_ENV, raising=False)
        p = lp(2, {(50, 0): 1, (0, 2): 1})
        q = lp(2, {(1, 0): 1, (0, 2): 1})
        for divide in (exact_divide, _max_scan_divide):
            with pytest.raises(ResourceLimitExceeded):
                divide(p, q, 20)
            assert divide(p, q, 50) is None
        assert exact_divide(p, q) is None

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
        assert (x * x + LP.monomial((0, -3)))._frame_cache == ((0, -3), (2, 0))

    def test_keys_in_the_widest_fields(self):
        # a dividend span of 2**63 - 5 in x1 needs all 64 bits of an 8-byte
        # field with the guard bit, and the unpacking adds the offset
        # min p - min q = (1 - h, -h, -h) back
        h = (1 << 61) - 1
        q = lp(3, {(h, h, h): 1, (-h, 0, 1 - h): 1})
        r = lp(3, {(h, h, h): 1, (0, 1, 0): -2, (1 - h, -h, -h): -1})
        lo, hi = (q * r)._frame()
        span = max(map(sub, hi, lo))
        assert span == (1 << 63) - 5 and span.bit_length() + 1 == 64
        quotient = _divide_checked(q * r, q)
        assert quotient == r == _max_scan_divide(q * r, q)
        assert quotient.terms() == _fresh_terms(quotient)
        assert exact_divide(q * r + LP.variable(3, 2), q) is None

    @pytest.mark.parametrize("a, size", [
        (10, 1), (1000, 2), (10**6, 4), (10**15, 8), ((1 << 61) - 4, 8),
    ], ids=["1-byte", "2-byte", "4-byte", "8-byte", "8-byte-top"])
    def test_quotient_frame_in_every_field_size(self, a, size):
        # negative minima on both operands, and a dividend span that needs
        # fields of `size` bytes; the top case spans 2**62 + 1 in x1, a
        # 63-bit span with the guard bit in the top bit
        q = lp(3, {(a, a, a): 1, (-2, 5, 0): -3, (0, -1, -4): 2})
        r = lp(3, {(a, a, a): 2, (-7, 1, 3): 1, (3, -2, 0): -1})
        p = q * r
        lo, hi = p._frame()
        assert _field_size(max(map(sub, hi, lo)).bit_length() + 1)[0] == size
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


_EDGE = EXPONENT_LIMIT - 1


@st.composite
def _edge_operands(draw):
    """(p, q, r, line) with exponents at +-(2**62 - 1), at half of it or
    near 0: p with exponents <= 0 and q with exponents >= 0 in 1-3
    variables, so that p * q stays inside the bound, r anywhere, and a
    Laurent polynomial with one term on each of some lines m + Z(1, -1),
    m_0 + m_1 in [-3, 3], the twist exponent of _LINE_FORM."""
    n = draw(st.integers(1, 3))
    low = st.one_of(st.sampled_from([-_EDGE, -(_EDGE >> 1)]), st.integers(-3, 0))
    coeffs = st.integers(-5, 5).filter(bool)

    def poly(exps, size):
        return lp(n, draw(st.dictionaries(st.tuples(*[exps] * n), coeffs, max_size=size)))

    p = poly(low, 3)
    q = poly(low.map(neg), 3)
    r = poly(st.one_of(low, low.map(neg)), 2)
    # far enough inside the bound that the line route packs its frame
    firsts = st.one_of(st.sampled_from([9 - _EDGE, _EDGE - 9]), st.integers(-3, 3))
    lines = draw(st.dictionaries(st.integers(-3, 3), st.tuples(firsts, coeffs), max_size=4))
    return p, q, r, lp(2, {(x, a - x): c for a, (x, c) in lines.items()})


# m -> m_0 + m_1, which vanishes on (1, -1)
_LINE_FORM = LinearForm((1, 1))


def _negated(form):
    return LinearForm(map(neg, form.weights))


class TestFieldSizes:
    @given(_edge_operands())
    @settings(max_examples=150, deadline=None)
    def test_no_kernel_asks_for_more_than_64_bits(self, operands):
        # every exponent is below 2**62 in magnitude, so every span is below
        # 2**63, and with exact division's guard bit every field fits 8 bytes
        p, q, r, line = operands
        with mock.patch.object(laurent, "_field_size", wraps=laurent._field_size) as spy:
            product = p * q
            if not q.is_zero():
                assert exact_divide(product, q) == p
                _capped(exact_divide, product + r, q, 20)
            for g in (_LINE_FORM, _negated(_LINE_FORM)):
                try:
                    monomial_twist(line, (1, -1), g)
                except ExponentOverflow:
                    pass
        assert all(call.args[0] <= 64 for call in spy.call_args_list)

class TestRationalExpression:
    def test_no_auto_reduction(self):
        b = lp(1, {(0,): 1, (1,): 1})
        e = RationalExpression(b * b, b)
        assert e.num == b * b
        assert e.as_laurent() == b

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalExpression(LP.one(1), LP.zero(1))


class TestTwistOracle:
    def test_same_fraction_cross_multiplies(self):
        b = lp(1, {(0,): 1, (1,): 1})
        assert same_fraction(RationalExpression(b * b, b), RationalExpression(b))
        assert not same_fraction(RationalExpression(b * b, b), RationalExpression(b * b))

    def test_ring_homomorphism_for_any_linear_exponent(self):
        # g(v) = 3: the oracle twists fractions by exponents that the
        # monomial_twist of src does not take
        rng = random.Random(5)
        v = (1, -1)
        g = lambda m: m[0] - 2 * m[1]
        for _ in range(30):
            m1 = tuple(rng.randint(-3, 3) for _ in range(2))
            m2 = tuple(rng.randint(-3, 3) for _ in range(2))
            t1 = fraction_twist(monomial(m1), v, g)
            t2 = fraction_twist(monomial(m2), v, g)
            t12 = fraction_twist(times(monomial(m1), monomial(m2)), v, g)
            assert same_fraction(t12, times(t1, t2))


class TestMonomialTwist:
    def test_ring_homomorphism_on_monomials(self):
        rng = random.Random(5)
        v = (1, -1)
        for _ in range(30):
            m1 = tuple(rng.randint(-3, 3) for _ in range(2))
            m2 = tuple(rng.randint(-3, 3) for _ in range(2))
            t1 = monomial_twist(LP.monomial(m1), v, _LINE_FORM)
            t2 = monomial_twist(LP.monomial(m2), v, _LINE_FORM)
            t12 = monomial_twist(LP.monomial(m1) * LP.monomial(m2), v, _LINE_FORM)
            assert same_fraction(t12, times(t1, t2))

    def test_a_form_that_does_not_vanish_on_v_is_refused(self):
        with pytest.raises(ValueError, match="does not vanish"):
            monomial_twist(LP.one(2), (1, -1), LinearForm((1, 0)))

    def test_exponent_overflow(self):
        h = 1 << 61
        # (1 + z^v)^2 reaches 2h = 2**62
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((0, 2)), (h, 0), LinearForm((0, 1)))
        # (1 + z^v)^1 stays in range, but its shift by m = (h, 1) does not
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((h, 1)), (h, 0), LinearForm((0, 1)))
        # the sparse route's denominator (1 + z^v)^2 is guarded too
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((0, -2)), (h, 0), LinearForm((0, 1)))

    def test_exponents_just_below_the_bound_pass(self):
        h = 1 << 61
        out = monomial_twist(LP.monomial((h, 1)), (h - 1, 0), LinearForm((0, 1)))
        assert out.num == lp(2, {(h, 1): 1, (EXPONENT_LIMIT - 1, 1): 1})
        assert out.den.is_one()

    def test_matches_the_term_by_term_expansion(self):
        rng = random.Random(11)
        v = (2, -1, 0)
        g = LinearForm((1, 2, -1))  # g(v) = 0
        for _ in range(20):
            terms = {
                tuple(rng.randint(-3, 3) for _ in range(3)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 5))
            }
            p = lp(3, terms)
            out = monomial_twist(p, v, g)
            reference = fraction_twist(p, v, g)
            assert same_fraction(out, reference)
            if not out.den.is_one():
                assert (out.num, out.den) == (reference.num, reference.den)

    def test_zero_exponent_fixed(self):
        p = LP.monomial((2, 0))
        out = monomial_twist(p, (0, 1), LinearForm((0, 0)))
        assert out.as_laurent() == p


def pullback_forms(seed, k):
    """(v, g) of the A- and X-side twists at k, in both directions."""
    (v, a), (e, x) = step_twist(seed, k, "A"), step_twist(seed, k, "X")
    return [(v, _negated(a)), (v, a), (e, _negated(x)), (e, x)]


class TestLineTwist:
    def test_matches_the_oracle_on_pullback_forms(self):
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
                assert g(v) == 0
                terms = {
                    tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice([-3, -1, 1, 2])
                    for _ in range(rng.randint(1, 5))
                }
                p = lp(n, terms)
                if any(v) and rng.random() < 0.6:
                    p = p * binomial_power(v, rng.randint(0, 4))
                reference = fraction_twist(p, v, g)
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
        v, g = step_twist(s, 0, "A")
        out = monomial_twist(p, v, _negated(g))
        assert out.den.is_one()
        assert out.num == pullback_A(s, 0, p).as_laurent()

    def test_single_term_with_a_negative_exponent_keeps_the_fraction(self):
        g = LinearForm((1, 1))
        out = monomial_twist(LP.monomial((-2, 0)), (1, -1), g)
        assert out.num == LP.monomial((-2, 0))
        assert out.den == binomial_power((1, -1), 2)

    def test_zero_polynomial(self):
        out = monomial_twist(LP.zero(2), (1, -1), LinearForm((1, 1)))
        assert out.num.is_zero() and out.den.is_one()

    def test_zero_polynomial_is_answered_before_either_route(self):
        for v, g in (((1, -1), LinearForm((1, 1))), ((0, 0), LinearForm((2, -1)))):
            out = monomial_twist(LP.zero(2), v, g)
            assert out.num.is_zero() and out.den.is_one()
        # the form is tested first, on the zero polynomial too
        with pytest.raises(ValueError, match="does not vanish"):
            monomial_twist(LP.zero(2), (1, 0), LinearForm((1, 1)))

    def test_zero_ray_vector_takes_the_sparse_route(self):
        # index 2 is isolated, so v_2 = 0 lies in the kernel on the A side
        s = seed_from_epsilon([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
        assert s.v_vector(2) == (0, 0, 0)
        g = step_twist(s, 2, "A")[1]
        p = lp(3, {(1, 0, -1): 3, (0, 2, 2): 1})
        for form in (g, _negated(g)):
            out = monomial_twist(p, (0, 0, 0), form)
            reference = fraction_twist(p, (0, 0, 0), form)
            assert (out.num, out.den) == (reference.num, reference.den)
        # z^m -> 2^{m_2} z^m
        expected = RationalExpression(lp(3, {(1, 0, -1): 3, (0, 2, 2): 8}), LP.constant(3, 2))
        assert same_fraction(monomial_twist(p, (0, 0, 0), g), expected)

    def test_exponent_overflow_in_the_widened_frame(self):
        h = EXPONENT_LIMIT
        g = LinearForm((1, 1))  # g(m) = m0 + m1, g(v) = 0
        v = (1, -1)
        # two terms on one line, twisted by (1 + z^v)^2, the top one to h
        p = lp(2, {(h - 3, -(h - 5)): 1, (h - 2, -(h - 4)): 1})
        with pytest.raises(ExponentOverflow):
            monomial_twist(p, v, g)
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((h - 2, -(h - 4))), v, g)
        # a line with a = -1 sets a floor of 1, and the sparse route then
        # expands the other line, with a = 0, to m + v = (h, -h)
        p = lp(2, {(h - 1, -(h - 1)): 1, (0, -1): 1, (1, -2): 1})
        with pytest.raises(ExponentOverflow):
            monomial_twist(p, v, g)
        # (1 + z^v)^2 itself reaches the bound, though its shift by m would not
        q = h >> 1
        with pytest.raises(ExponentOverflow):
            monomial_twist(LP.monomial((-q, 2)), (q, 0), LinearForm((0, 1)))
        # one step below the bound the line route runs
        p = lp(2, {(h - 4, -(h - 6)): 1, (h - 3, -(h - 5)): 1})
        out = monomial_twist(p, v, g)
        assert out.den.is_one()
        assert out.num == fraction_twist(p, v, g).as_laurent()
        assert out.num.max_abs_exponent() == h - 1

    def test_lines_with_wide_gaps_take_the_general_route(self):
        # a dense line of 2**40 coefficients is never built
        n = 1 << 40
        p = lp(1, {(0,): 1, (n,): 1})
        out = monomial_twist(p, (1,), LinearForm((0,)))
        assert (out.num, out.den) == (p, LP.one(1))
        # (1 + t^(n+1)) / (1 + t) is Laurent, with n + 1 terms: its
        # division stops at the term cap
        p = lp(2, {(0, -1): 1, (n + 1, -1): 1})
        out = monomial_twist(p, (1, 0), LinearForm((0, 1)))
        assert (out.num, out.den) == (p, binomial_power((1, 0), 1))
        with pytest.raises(ResourceLimitExceeded):
            out.as_laurent(20)

    def test_a_valid_run_reaches_the_wide_gap_route(self):
        # the golden case laurent_check_wide_gap_A050_d2: one of its nine
        # twists is Laurent, has v != 0, and still takes the sparse route,
        # so _twist_lines returning None does not mean "not Laurent"
        s = seed_from_epsilon([[0, 18, 1], [-18, 0, 0], [-6, 0, 0]], (6, 6, 1))
        real, wide = laurent._twist_lines, []

        def spy(p, v, g):
            out = real(p, v, g)
            if out is None:
                wide.append(v)
            return out

        with mock.patch.object(laurent, "_twist_lines", spy):
            report = verify_laurent_A(s, (0, 5, 0), 2)
        assert (report["paths_checked"], report["max_terms"]) == (9, 276)
        assert wide == [(-6, 0, 0)]

    def test_term_cap_at_the_result_size(self):
        s = seed_from_epsilon([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
        v, g = step_twist(s, 1, "A")
        p = lp(3, {(1, 0, 0): 2, (0, 1, 1): 1, (2, 1, 0): -1}) * binomial_power(v, 3)
        out = monomial_twist(p, v, g)
        reference = fraction_twist(p, v, g)
        size = out.num.n_terms()
        assert size > 1
        assert out.as_laurent(size) == reference.as_laurent(size) == out.num
        for fraction in (out, reference):
            with pytest.raises(ResourceLimitExceeded):
                fraction.as_laurent(size - 1)

    def test_linear_form(self):
        g = LinearForm((3, -1, 0))
        assert g((1, 1, 5)) == 2
        assert g((1, 3, 7)) == 0 and g((1, 0, 0)) == 3


class TestScalarArguments:
    """A bool or a non-int is refused with the exception each function
    raises for its other bad values."""

    @pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "7", (1,)])
    def test_term_cap(self, bad, monkeypatch):
        monkeypatch.delenv(MAX_TERMS_ENV, raising=False)
        with pytest.raises(ValidationError, match="^the term cap must be an integer, got "):
            max_terms_limit(bad)
        p = lp(1, {(0,): 1, (2,): 1})
        with pytest.raises(ValidationError, match="^the term cap must be an integer"):
            exact_divide(p * lp(1, {(0,): 1, (1,): 1}), p, bad)

    @pytest.mark.parametrize("bad", [True, False, 1.0, "2", None])
    def test_powers(self, bad):
        with pytest.raises(ValueError, match="only nonnegative integer powers"):
            lp(2, {(1, 0): 1, (0, 0): 1}) ** bad
        with pytest.raises(ValueError, match="nonnegative integer exponent"):
            binomial_power((1, 0), bad)

    @pytest.mark.parametrize(
        "terms",
        [{(True, 0): 1}, {(1, 0): True}, {(0, False): 2}, {(1.5, 0): 1}, {(1, 0): 1.0},
         {(1, 0): False}, {(1, 0): 0.0}],
    )
    def test_exponents_and_coefficients(self, terms):
        with pytest.raises(TypeError, match="exponents and coefficients must be integers"):
            LP(2, terms)
        ((exps, coeff),) = terms.items()
        with pytest.raises(TypeError, match="exponents and coefficients must be integers"):
            LP.monomial(exps, coeff)

    def test_ints_still_pass(self):
        assert max_terms_limit(3) == 3
        assert LP.monomial((2, -1), 3) == lp(2, {(2, -1): 3})
        assert LP.monomial((2, -1), 0).is_zero()
        assert lp(1, {(0,): 1, (1,): 1}) ** 2 == binomial_power((1,), 2)
