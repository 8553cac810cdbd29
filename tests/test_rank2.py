import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

import pytest

from cluster_geom.errors import UnsupportedError, ValidationError
from cluster_geom.intmat import Matrix, kernel_basis, smith_diagonal, solve_integer
from cluster_geom.rank2 import (
    Fan2D,
    Rank2Data,
    _ccw_sorted,
    _gram_for_vectors,
    _surface_for,
    blowup_surface,
    build_seed,
    classify_definiteness,
    complete_smooth_fan,
    fg_failure_flag,
    inertia,
    invariance_check,
    non_fg_flag,
    rot90,
    self_intersections,
    symmetric_form,
    wedge,
)
from golden_cases import NINE_RAY, TRIANGLE, WEIGHTED_TRIANGLE


# ---------------------------------------------------------------------------
# Independent oracle for the nine-ray and cubic examples: on the blowup of
# the projective plane the Picard lattice is Z H + sum Z E_i with H^2 = 1,
# E_i^2 = -1.  A kernel vector a (sum a_i w_i = 0) has equal center sums
# c_1 = c_2 = c_3 on the three lines, the matching class is c_1 H - sum a_i
# E_i, and pairings follow from bilinearity.
# ---------------------------------------------------------------------------

def p2_oracle_gram(data, kernel_vectors):
    groups = {}
    for idx, w in enumerate(data.w):
        groups.setdefault(tuple(w), []).append(idx)
    assert set(groups) == {(1, 0), (0, 1), (-1, -1)}

    def line_multiple(a):
        sums = {w: sum(a[i] for i in idxs) for w, idxs in groups.items()}
        vals = set(sums.values())
        assert len(vals) == 1
        return vals.pop()

    size = len(kernel_vectors)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            ci = line_multiple(kernel_vectors[i])
            cj = line_multiple(kernel_vectors[j])
            dot = sum(x * y for x, y in zip(kernel_vectors[i], kernel_vectors[j]))
            row.append(ci * cj - dot)
        out.append(row)
    return Matrix(out)


# ---------------------------------------------------------------------------
# Independent oracle for any weight-one data: the toric class meeting the
# boundary divisor of each ray u in c_u is a virtual lattice polygon with
# edge vectors c_u rot90(u) in angular order of the rays, and its
# self-intersection is twice its area.  So the toric part of the pairing is
# the polarization of twice the shoelace area; no fan and no linear solve.
# ---------------------------------------------------------------------------

def _angle_key(u):
    # exact angle order in [0, 2 pi): half plane, positive axis of that
    # half first, then minus the cotangent
    upper = u[1] > 0 or (u[1] == 0 and u[0] > 0)
    x, y = (u[0], u[1]) if upper else (-u[0], -u[1])
    half = 0 if upper else 1
    return (half, 0, 0) if y == 0 else (half, 1, Fraction(-x, y))


def _twice_area(coeffs):
    x = y = 0
    corners = []
    for u in sorted(coeffs, key=_angle_key):
        x -= coeffs[u] * u[1]
        y += coeffs[u] * u[0]
        corners.append((x, y))
    return sum(wedge(p, q) for p, q in zip(corners, corners[1:] + corners[:1]))


def mixed_area_gram(data, kernel_vectors):
    def ray_coeffs(a):
        out = {}
        for ai, w in zip(a, data.w):
            out[w] = out.get(w, 0) + ai
        return out

    def toric(a, b):
        ca, cb = ray_coeffs(a), ray_coeffs(b)
        both = {u: ca.get(u, 0) + cb.get(u, 0) for u in set(ca) | set(cb)}
        mixed = _twice_area(both) - _twice_area(ca) - _twice_area(cb)
        assert mixed % 2 == 0
        return mixed // 2

    return Matrix([
        [toric(a, b) - sum(x * y for x, y in zip(a, b)) for b in kernel_vectors]
        for a in kernel_vectors
    ])


P2_RAYS = ((1, 0), (0, 1), (-1, -1))


def random_primitive_rays(rng, count, bound):
    rays = []
    while len(rays) < count:
        v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if v != (0, 0):
            g = gcd(*v)
            rays.append((v[0] // g, v[1] // g))
    return rays


# ---------------------------------------------------------------------------
# Oracles: the earlier generic routes to the fan and its wall data.  The
# completion rescans from the start after every inserted ray and finds each
# subdividing ray by a linear search; the self-intersections solve each wall
# relation u_{i-1} + u_{i+1} = -a_i u_i by coordinates.
# ---------------------------------------------------------------------------

def restarting_completion(rays):
    out = _ccw_sorted(set(rays))
    while True:
        for i, u in enumerate(out):
            v = out[(i + 1) % len(out)]
            if len(out) == 1 or wedge(u, v) <= 0:
                out.insert(i + 1, rot90(u))
                break
        else:
            break
    changed = True
    while changed:
        changed = False
        for i, u in enumerate(out):
            v = out[(i + 1) % len(out)]
            det = wedge(u, v)
            if det > 1:
                a = next(
                    a for a in range(1, det)
                    if (v[0] + a * u[0]) % det == 0 and (v[1] + a * u[1]) % det == 0
                )
                out.insert(i + 1, ((v[0] + a * u[0]) // det, (v[1] + a * u[1]) // det))
                changed = True
                break
    return tuple(out)


def wall_solver_self_intersections(fan):
    out = []
    rays = fan.rays
    for i, u in enumerate(rays):
        s = tuple(p + n for p, n in zip(rays[i - 1], rays[(i + 1) % len(rays)]))
        k = 0 if u[0] != 0 else 1
        assert s[k] % u[k] == 0 and s[0] * u[1] == s[1] * u[0]
        out.append(-(s[k] // u[k]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Inertia oracles: exact symmetric Gaussian reduction over Q (the route
# inertia took before it ran over the integers), and the characteristic
# polynomial by Faddeev-LeVerrier, read with Descartes' rule of signs (exact
# for real-rooted ones).
# ---------------------------------------------------------------------------

def inertia_oracle(m):
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.data]
    pos = neg = zero = 0
    idx = list(range(n))
    while idx:
        piv = next((i for i in idx if a[i][i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in idx for j in idx if a[i][j] != 0), None
            )
            if off is None:
                zero += len(idx)
                break
            i, j = off
            for t in idx:
                a[i][t] += a[j][t]
            for t in idx:
                a[t][i] += a[t][j]
            piv = i
        p = a[piv][piv]
        if p > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(piv)
        # Schur complement on the remaining index set; the pivot row
        # must stay intact until every remaining row is updated
        for i in idx:
            f = a[i][piv] / p
            for j in idx:
                a[i][j] -= f * a[piv][j]
        for i in idx:
            a[i][piv] = a[piv][i] = 0
    return (pos, neg, zero)


def char_poly(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    coeffs = [Fraction(1)]
    current = m
    for k in range(1, n + 1):
        c = -sum(current[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            shifted = [
                [x + (c if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(current)
            ]
            current = [
                [sum(m[i][t] * shifted[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return coeffs


def descartes_inertia(rows):
    coeffs = char_poly(rows)
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    signs = [c > 0 for c in coeffs if c != 0]
    pos = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return (pos, len(rows) - zero - pos, zero)


def _congruent(b, dd):
    """B D B^T for an n x r matrix B (rows) and the diagonal dd of D."""
    r = len(dd)
    return [[sum(bi[t] * dd[t] * bj[t] for t in range(r)) for bj in b] for bi in b]


class TestRank2Data:
    def test_validates_primitivity(self):
        with pytest.raises(ValidationError):
            Rank2Data(((2, 0), (0, 1), (-1, -1)))

    def test_validates_generation(self):
        with pytest.raises(ValidationError):
            Rank2Data(((1, 0), (1, 0), (-1, 0)))

    def test_weights_positive(self):
        with pytest.raises(ValidationError):
            Rank2Data(((1, 0), (0, 1)), (1, 0))

    def test_rejects_a_boolean_coordinate(self):
        with pytest.raises(ValidationError, match="each w must be an integer pair"):
            Rank2Data(((True, 0), (0, 1), (-1, -1)))

    def test_rejects_a_boolean_weight(self):
        with pytest.raises(ValidationError, match="weights nu must be positive integers"):
            Rank2Data(((1, 0), (0, 1), (-1, -1)), nu=[True, 1, 1])

    def test_minor_gcd_agrees_with_smith(self):
        # w generates Z^2 exactly when the 2 x n column matrix has Smith
        # diagonal (1, 1); the first cases are primitive vectors whose minors
        # share a factor, and n = 0 and 1
        rng = random.Random(1009)
        cases = [((1, 0), (1, 2), (-1, 0)), ((1, 0), (3, 2), (1, 2)), (), ((0, 1),)]
        cases += [random_primitive_rays(rng, rng.randint(0, 5), 6) for _ in range(400)]
        verdicts = Counter()
        for w in cases:
            cols = Matrix([[v[0] for v in w], [v[1] for v in w]])
            try:
                Rank2Data(w)
                generates = True
            except ValidationError as exc:
                assert str(exc) == "the vectors w do not generate Z^2"
                generates = False
            assert generates == (smith_diagonal(cols) == (1, 1)), w
            verdicts[generates] += 1
        assert verdicts[True] > 50 and verdicts[False] > 50


class TestBuildSeed:
    def test_weighted_triangle_epsilon(self):
        seed = build_seed(Rank2Data(**WEIGHTED_TRIANGLE))
        assert seed.eps == Matrix(
            [[0, 3, -3], [-3, 0, 3], [3, -3, 0]]
        )
        assert seed.fixed.d == (1, 1, 1)

    def test_nine_ray_epsilon(self):
        data = Rank2Data(**NINE_RAY)
        seed = build_seed(data)
        eps = seed.eps
        for i in range(9):
            for j in range(9):
                assert eps[i, j] == wedge(data.w[i], data.w[j])

    def test_two_vector_trivial_kernel(self):
        seed = build_seed(Rank2Data(((1, 0), (0, 1))))
        assert seed.eps == Matrix([[0, 1], [-1, 0]])
        assert kernel_basis(seed.eps) == ()


class TestFans:
    def test_p2_fan_unchanged(self):
        fan = complete_smooth_fan(P2_RAYS)
        assert set(fan.rays) == set(P2_RAYS)

    def test_completion_postconditions(self):
        fan = complete_smooth_fan(((1, 0), (1, 2)))
        assert (1, 0) in fan.rays and (1, 2) in fan.rays
        # Fan2D construction already verifies smoothness/completeness

    def test_single_ray(self):
        fan = complete_smooth_fan(((1, 0),))
        assert (1, 0) in fan.rays

    def test_rejects_non_primitive(self):
        with pytest.raises(ValidationError):
            complete_smooth_fan(((2, 0),))

    def test_random_completions(self):
        rng = random.Random(21)
        for _ in range(50):
            rays = random_primitive_rays(rng, rng.randint(1, 6), 5)
            fan = complete_smooth_fan(rays)
            for r in rays:
                assert r in fan.rays

    def test_differential_against_the_restarting_completion(self):
        # the one-pass continued-fraction completion inserts the same rays
        # in the same order as the scan that restarts after every insertion
        rng = random.Random(1313)
        for _ in range(3000):
            rays = random_primitive_rays(rng, rng.randint(1, 6), 9)
            fan = complete_smooth_fan(rays)
            assert fan.rays == restarting_completion(rays)
            assert self_intersections(fan) == wall_solver_self_intersections(fan)

    def test_steep_ray_completes_in_linear_time(self):
        # the cone from (1, 0) to (1, 10^5) takes the 10^5 - 1 rays (1, j),
        # and three quarter turns close the fan from (0, 1)
        fan = complete_smooth_fan(((1, 0), (0, 1), (1, 10**5)))
        assert fan.size == 10**5 + 4
        assert fan.rays[:3] == ((1, 0), (1, 1), (1, 2))
        assert fan.rays[-4:] == ((1, 10**5), (0, 1), (-1, 0), (0, -1))
        ints = self_intersections(fan)
        assert ints[fan.rays.index((0, 1))] == -(10**5)


class TestSelfIntersections:
    def test_p2(self):
        assert self_intersections(Fan2D(P2_RAYS)) == (1, 1, 1)

    def test_hirzebruch(self):
        for a in range(5):
            fan = Fan2D(((1, 0), (0, 1), (-1, a), (0, -1)))
            ints = self_intersections(fan)
            assert ints[fan.rays.index((0, 1))] == -a

    def test_p1xp1(self):
        fan = Fan2D(((1, 0), (0, 1), (-1, 0), (0, -1)))
        assert self_intersections(fan) == (0, 0, 0, 0)


class TestBlowupSurface:
    def test_one_center_per_line(self):
        fan = Fan2D(P2_RAYS)
        surf = blowup_surface(fan, [0, 1, 2])
        assert surf.boundary_self_intersections == (0, 0, 0)

    def test_three_centers_per_line(self):
        fan = Fan2D(P2_RAYS)
        surf = blowup_surface(fan, [j for j in range(3) for _ in range(3)])
        assert surf.boundary_self_intersections == (-2, -2, -2)

    def test_no_centers(self):
        fan = Fan2D(P2_RAYS)
        surf = blowup_surface(fan, [])
        assert surf.boundary_self_intersections == (1, 1, 1)


# ---------------------------------------------------------------------------
# Test-local class model on a blown-up surface: a class is its toric part
# (coefficients of the pulled-back boundary divisors) and its exceptional
# part, and two classes pair by the dense form x Q y - e . e'.  The class of
# a kernel element a has the toric part x with Q x = c_a, c_a[j] being the
# total of a over the centers on ray j, and the exceptional part -a.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceClass:
    toric: tuple
    exceptional: tuple


def pair(q, c1, c2):
    """The dense pairing on a surface whose toric block is q."""
    toric = sum(map(mul, q.matvec(c1.toric), c2.toric))
    return toric - sum(map(mul, c1.exceptional, c2.exceptional))


def kernel_classes(surface, kernel_vectors):
    totals = []
    for a in kernel_vectors:
        c = [0] * surface.fan.size
        for ai, j in zip(a, surface.centers):
            c[j] += ai
        totals.append(tuple(c))
    xs = solve_integer(surface.q, totals)
    assert None not in xs
    return [SurfaceClass(x, tuple(-ai for ai in a)) for a, x in zip(kernel_vectors, xs)]


def class_of(data, a):
    """The class of one kernel element on the surface of the data's pairing."""
    surface = symmetric_form(data).surface
    (cls,) = kernel_classes(surface, [a])
    return cls, surface


def boundary_component(surface, j):
    """Proper transform of the j-th toric boundary divisor."""
    toric = tuple(int(i == j) for i in range(surface.fan.size))
    exceptional = tuple(-int(c == j) for c in surface.centers)
    return SurfaceClass(toric, exceptional)


def star_subdivision(fan):
    """A second smooth completion: the first cone of the fan split by the
    sum of its rays."""
    u, v = fan.rays[:2]
    return Fan2D(fan.rays[:1] + ((u[0] + v[0], u[1] + v[1]),) + fan.rays[1:])


def random_mixed_area_data():
    """40 random weight-one configurations, some with steep rays."""
    rng = random.Random(2718)
    pool = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1),
            (1, 2), (-2, -1), (2, -3), (1, 60)]
    out = []
    while len(out) < 40:
        ws = tuple(rng.choice(pool) for _ in range(rng.randint(3, 6)))
        try:
            out.append(Rank2Data(ws))
        except ValidationError:
            continue
    return out


class TestKToDPerp:
    def test_nine_ray_difference_vector(self):
        data = Rank2Data(**NINE_RAY)
        a = (1, -1, 0, 0, 0, 0, 0, 0, 0)
        cls, surface = class_of(data, a)
        q = surface.q
        # C = 0: the class is E_1 - E_0 with square -2
        assert all(x == 0 for x in q.matvec(cls.toric))
        assert pair(q, cls, cls) == -2

    def test_cubic_anticanonical_vector(self):
        data = Rank2Data(**TRIANGLE)
        cls, surface = class_of(data, (1, 1, 1))
        q = surface.q
        # C is a line class: C^2 = 1, and the full class has square -2
        toric_sq = sum(x * y for x, y in zip(q.matvec(cls.toric), cls.toric))
        assert toric_sq == 1
        assert pair(q, cls, cls) == -2

    def test_zero_class(self):
        data = Rank2Data(**TRIANGLE)
        cls, surface = class_of(data, (0, 0, 0))
        assert pair(surface.q, cls, cls) == 0

    def test_gram_stable_under_relation_shift(self):
        # shifting the toric solution by a character relation does not move
        # intersection numbers
        data = Rank2Data(**NINE_RAY)
        a = (1, 1, 1, 1, 1, 1, 1, 1, 1)
        cls, surface = class_of(data, a)
        rel = tuple(u[0] for u in surface.fan.rays)  # <(1,0), u_i>
        shifted = tuple(x + r for x, r in zip(cls.toric, rel))
        cls2 = SurfaceClass(shifted, cls.exceptional)
        assert pair(surface.q, cls2, cls2) == pair(surface.q, cls, cls)

    def test_basis_classes_orthogonal_to_boundary(self):
        for data in [Rank2Data(**NINE_RAY), Rank2Data(**TRIANGLE)] + random_mixed_area_data():
            form = symmetric_form(data)
            surface, q = form.surface, form.surface.q
            for cls in kernel_classes(surface, form.basis):
                for j in range(surface.fan.size):
                    component = boundary_component(surface, j)
                    assert pair(q, cls, component) == 0

    def test_gram_is_the_dense_pairing_of_the_classes(self):
        # the Gram read off the solve equals the dense pairing of the model's
        # classes, on the default fan and on a second completion
        for data in [Rank2Data(**NINE_RAY), Rank2Data(**TRIANGLE)] + random_mixed_area_data():
            form = symmetric_form(data)
            for fan in (form.surface.fan, star_subdivision(form.surface.fan)):
                surface = _surface_for(data.w, fan)
                classes, q = kernel_classes(surface, form.basis), surface.q
                dense = Matrix([[pair(q, x, y) for y in classes] for x in classes])
                assert _gram_for_vectors(surface, form.basis) == dense


class TestSymmetricForm:
    def test_cubic_gram(self):
        form = symmetric_form(Rank2Data(**TRIANGLE))
        assert form.basis == ((1, 1, 1),)
        assert form.gram == Matrix([[-2]])

    def test_nine_ray_values(self):
        data = Rank2Data(**NINE_RAY)
        form = symmetric_form(data)
        assert len(form.basis) == 7
        # oracle cross-check on the canonical kernel basis
        assert form.gram == p2_oracle_gram(data, form.basis)

    def test_nine_ray_specific_vectors(self):
        data = Rank2Data(**NINE_RAY)
        vecs = [(1, -1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1, 1, 1, 1)]
        gram = _gram_for_vectors(symmetric_form(data).surface, vecs)
        assert gram[0, 0] == -2
        assert gram[1, 1] == 0
        assert gram == p2_oracle_gram(data, vecs)

    def test_trivial_kernel(self):
        form = symmetric_form(Rank2Data(((1, 0), (0, 1))))
        assert form.basis == ()
        assert form.gram.rows == 0

    def test_weighted_rejected(self):
        with pytest.raises(UnsupportedError):
            symmetric_form(Rank2Data(**WEIGHTED_TRIANGLE))

    def test_random_forms_match_mixed_area(self):
        for data in random_mixed_area_data():
            form = symmetric_form(data)
            assert form.gram == mixed_area_gram(data, form.basis)


class TestInvariance:
    def test_empty_path(self):
        assert invariance_check(symmetric_form(Rank2Data(**TRIANGLE)), ())

    def test_nine_ray_single_mutations(self):
        form = symmetric_form(Rank2Data(**NINE_RAY))
        for k in range(9):
            assert invariance_check(form, (k,))

    def test_cubic_depth_two(self):
        form = symmetric_form(Rank2Data(**TRIANGLE))
        for a in range(3):
            for b in range(3):
                assert invariance_check(form, (a, b))

    def test_random_small_instances(self):
        rng = random.Random(31)
        pool = [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1), (1, 2)]
        done = 0
        while done < 12:
            ws = tuple(rng.choice(pool) for _ in range(rng.randint(3, 5)))
            try:
                data = Rank2Data(ws)
            except ValidationError:
                continue
            path = tuple(rng.randrange(len(ws)) for _ in range(rng.randint(1, 3)))
            assert invariance_check(symmetric_form(data), path)
            done += 1


class TestClassification:
    def test_inertia_oracle(self):
        rng = random.Random(41)
        for _ in range(120):
            n = rng.randint(1, 5)
            sym = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    sym[i][j] = sym[j][i] = rng.randint(-4, 4)
            m = Matrix(sym)
            assert inertia(m) == inertia_oracle(m)

    def test_inertia_matches_characteristic_polynomial(self):
        fixed = [
            ([[0, 1], [1, 0]], (1, 1, 0)),
            ([[0, 2, 0], [2, 0, 0], [0, 0, 0]], (1, 1, 1)),
            ([], (0, 0, 0)),
        ] + [([[0] * n for _ in range(n)], (0, 0, n)) for n in range(1, 5)]
        for rows, expected in fixed:
            assert inertia(Matrix(rows)) == descartes_inertia(rows) == expected

        rng = random.Random(73)
        for trial in range(150):
            n = rng.randint(1, 7)
            if trial % 3 == 0:
                # singular: B D B^T with B of n x r, r < n
                r = rng.randint(0, n - 1)
                b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
                dd = [rng.choice((-2, -1, 1, 3)) for _ in range(r)]
                rows = _congruent(b, dd)
            else:
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randint(-3, 3)
                if trial % 3 == 1:  # zero diagonal forces the e_i + e_j step
                    for i in range(n):
                        rows[i][i] = 0
            assert inertia(Matrix(rows)) == descartes_inertia(rows)

    def test_inertia_of_huge_entries(self):
        # B D B^T with entries near 10^30: known inertia from the signs of D
        rng = random.Random(89)
        big = 10 ** 30
        for trial in range(40):
            n = rng.randint(1, 6)
            r = rng.randint(0, n)
            b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
            dd = [rng.choice((-1, 1)) * rng.randint(big, 2 * big) for _ in range(r)]
            rows = _congruent(b, dd)
            m = Matrix(rows)
            assert inertia(m) == inertia_oracle(m)
            if trial % 4 == 0:
                assert inertia(m) == descartes_inertia(rows)
            if r and Matrix(b).rank() == r:
                # B of full column rank: Sylvester's law reads D off directly
                pos = sum(1 for x in dd if x > 0)
                assert inertia(m) == (pos, r - pos, n - r)
        # symmetric entries near 10^30 and a zero diagonal
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.choice((0, 1, -1)) * (big + rng.randint(0, big))
            if n % 2:
                for i in range(n):
                    rows[i][i] = 0
            m = Matrix(rows)
            assert inertia(m) == inertia_oracle(m)

    def test_inertia_of_rational_entries(self):
        rng = random.Random(97)
        for trial in range(120):
            n = rng.randint(1, 6)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            if trial % 3 == 1:
                for i in range(n):
                    rows[i][i] = Fraction(0)
            m = Matrix(rows)
            assert inertia(m) == inertia_oracle(m) == descartes_inertia(rows)
        half, third, fifth = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
        assert inertia(Matrix([[-half, third], [third, fifth]])) == (1, 1, 0)

    def test_inertia_is_the_same_for_a_negated_pivot(self):
        # every pivot is negative: the complements must be flipped back
        for n in range(1, 6):
            assert inertia(Matrix([[-2 if i == j else (1 if abs(i - j) == 1 else 0)
                                    for j in range(n)] for i in range(n)])) == (0, n, 0)
        assert inertia(Matrix([[-1, 0], [0, 1]])) == (1, 1, 0)
        assert inertia(Matrix([[-1, 2], [2, -1]])) == (1, 1, 0)

    def test_classifications(self):
        assert classify_definiteness(Matrix([[-2]])) == "negative_definite"
        assert classify_definiteness(Matrix([])) == "zero_rank"
        assert classify_definiteness(Matrix([[0]])) == "negative_semidefinite_degenerate"
        assert classify_definiteness(Matrix([[1]])) == "indefinite"
        assert classify_definiteness(Matrix([[-1, 0], [0, 1]])) == "indefinite"

    def test_nine_ray_degenerate(self):
        form = symmetric_form(Rank2Data(**NINE_RAY))
        assert classify_definiteness(form.gram) == "negative_semidefinite_degenerate"

    def test_cubic_negative_definite(self):
        form = symmetric_form(Rank2Data(**TRIANGLE))
        assert classify_definiteness(form.gram) == "negative_definite"

    def test_indefinite_twelve_rays(self):
        data = Rank2Data(((1, 0),) * 4 + ((0, 1),) * 4 + ((-1, -1),) * 4)
        form = symmetric_form(data)
        assert classify_definiteness(form.gram) == "indefinite"


class TestFlags:
    def test_fg_cubic(self):
        rep = fg_failure_flag(symmetric_form(Rank2Data(**TRIANGLE)))
        assert rep["fg_conjecture_possible"] is True
        assert rep["classification"] == "negative_definite"

    def test_fg_nine_ray(self):
        rep = fg_failure_flag(symmetric_form(Rank2Data(**NINE_RAY)))
        assert rep["fg_conjecture_possible"] is False

    def test_fg_trivial_kernel(self):
        rep = fg_failure_flag(symmetric_form(Rank2Data(((1, 0), (0, 1)))))
        assert rep["fg_conjecture_possible"] is True
        assert rep["classification"] == "zero_rank"

    def test_flags_return_their_report_fields(self):
        form = symmetric_form(Rank2Data(**TRIANGLE))
        assert set(fg_failure_flag(form)) == {
            "classification", "inertia", "fg_conjecture_possible",
        }
        assert set(non_fg_flag(form)) == {
            "supported", "boundary_self_intersections", "all_minus_two",
            "non_noetherian_principal",
        }

    def test_non_fg_nine_ray(self):
        rep = non_fg_flag(symmetric_form(Rank2Data(**NINE_RAY)))
        assert rep["all_minus_two"] is True
        assert rep["non_noetherian_principal"] is True

    def test_non_fg_cubic(self):
        rep = non_fg_flag(symmetric_form(Rank2Data(**TRIANGLE)))
        assert rep["boundary_self_intersections"] == [0, 0, 0]
        assert rep["non_noetherian_principal"] is False

    def test_non_fg_mixed_centers(self):
        data = Rank2Data(
            ((1, 0), (1, 0), (0, 1), (0, 1), (-1, -1))
        )
        rep = non_fg_flag(symmetric_form(data))
        assert rep["boundary_self_intersections"] == [-1, -1, 0]
        assert rep["non_noetherian_principal"] is False

    def test_non_fg_weighted_reported_unsupported(self, tmp_path, capsys):
        # weighted data never gets a surface, so the CLI reports it directly
        from cluster_geom import cli
        data = Rank2Data(**WEIGHTED_TRIANGLE)
        with pytest.raises(UnsupportedError):
            symmetric_form(data)
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps({"w": data.w, "nu": data.nu}))
        assert cli.main(["rank2", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["supported"] is False
        assert rep["non_noetherian_principal"] is None


class TestWorkCounts:
    def test_rank2_job_builds_the_pairing_once(self, tmp_path, monkeypatch, capsys):
        from cluster_geom import cli, rank2
        from cluster_geom.seeds import Seed

        path = tmp_path / "nine.json"
        path.write_text(json.dumps(NINE_RAY))
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        counted = ("symmetric_form", "inertia", "complete_smooth_fan", "blowup_surface")
        for name in counted:
            wrapper = counting(name, getattr(rank2, name))
            for module in (cli, rank2):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(Seed, "__init__", counting("Seed", Seed.__init__))
        assert cli.main(["rank2", str(path), "--mutations", "0,4,8"]) == 0
        assert json.loads(capsys.readouterr().out)["invariance_ok"] is True
        assert counts["symmetric_form"] == 1
        assert counts["inertia"] == 1
        # one surface for the data and one for the mutated data
        assert counts["complete_smooth_fan"] == 2
        assert counts["blowup_surface"] == 2
        assert counts["Seed"] <= 2

    def test_one_smith_reduction_per_surface(self, tmp_path, monkeypatch, capsys):
        # _gram_for_vectors solves all kernel vectors of a surface in one call
        from cluster_geom import cli, intmat, rank2

        path = tmp_path / "nine.json"
        path.write_text(json.dumps(NINE_RAY))
        calls = []

        def solve(a, b):
            calls.append(len(b))
            return intmat.solve_integer(a, b)

        monkeypatch.setattr(rank2, "solve_integer", solve)
        assert cli.main(["rank2", str(path), "--mutations", "0,4,8"]) == 0
        assert json.loads(capsys.readouterr().out)["invariance_ok"] is True
        # the data's surface and the mutated data's, seven kernel vectors each
        assert calls == [7, 7]
