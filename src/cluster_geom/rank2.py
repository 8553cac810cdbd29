"""Rank-2 realizations: seeds built from primitive plane vectors, smooth fan
completion, boundary blowups of toric surfaces, the induced symmetric pairing
on the kernel of the skew form, and the two derived classifiers
(finite-generation obstruction, dual-basis-conjecture obstruction).

A collection of primitive vectors w_1..w_n generating Z^2 together with
positive weights nu_i determines seed data: the skew form
{e_i, e_j} = gcd(nu) (w_i ^ w_j) with symmetrizers d_i = nu_i / gcd(nu).
When all nu_i = 1, the dual-side geometry is a smooth toric surface (any
smooth complete fan containing the rays w_i) blown up at one very general
point on the boundary divisor of w_i for each i, and the kernel K of the
skew form acquires a mutation-invariant symmetric pairing from intersection
numbers of divisor classes orthogonal to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from math import gcd, lcm
from operator import mul

from .errors import UnsupportedError, ValidationError
from .intmat import Matrix, kernel_basis, solve_integer
from .seeds import FixedData, _as_tuple, mutate_along, root_seed


def wedge(u, v):
    return u[0] * v[1] - u[1] * v[0]


def rot90(u):
    return (-u[1], u[0])


@dataclass(frozen=True)
class Rank2Data:
    """Primitive vectors in Z^2 (repetitions allowed) with positive weights."""

    w: tuple
    nu: tuple

    def __init__(self, w, nu=None):
        w = _as_tuple(w, "each w must be an integer pair")
        w = tuple(_as_tuple(v, "each w must be an integer pair") for v in w)
        nu = _as_tuple((1,) * len(w) if nu is None else nu,
                       "weights nu must be positive integers")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "nu", nu)
        if len(w) != len(nu):
            raise ValidationError("w and nu must have the same length")
        for v in w:
            if len(v) != 2 or not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
                raise ValidationError("each w must be an integer pair")
            if gcd(*v) != 1:
                raise ValidationError(f"vector {v} is not primitive")
        if any(not isinstance(x, int) or isinstance(x, bool) or x <= 0 for x in nu):
            raise ValidationError("weights nu must be positive integers")
        # w generates Z^2 exactly when its 2 x 2 minors have gcd 1
        if gcd(*(wedge(u, v) for u in w for v in w)) != 1:
            raise ValidationError("the vectors w do not generate Z^2")

    @property
    def n(self):
        return len(self.w)


def build_seed(data):
    """Root seed with {e_i, e_j} = gcd(nu)(w_i ^ w_j) and d_i = nu_i/gcd(nu)."""
    nu0 = gcd(*data.nu)
    d = tuple(x // nu0 for x in data.nu)
    skew = Matrix(
        [[nu0 * wedge(u, v) for v in data.w] for u in data.w]
    )
    return root_seed(FixedData(data.n, skew, d))


# -- fans --------------------------------------------------------------------

@dataclass(frozen=True)
class Fan2D:
    """Complete smooth fan in Z^2: primitive rays, counterclockwise, every
    consecutive pair (cyclically) of determinant one."""

    rays: tuple

    def __init__(self, rays):
        rays = tuple(tuple(r) for r in rays)
        object.__setattr__(self, "rays", rays)
        if len(rays) < 3:
            raise ValidationError("a complete fan needs at least three rays")
        if len(set(rays)) != len(rays):
            raise ValidationError("fan rays must be distinct")
        for u in rays:
            if gcd(*u) != 1:
                raise ValidationError(f"ray {u} is not primitive")
        for u, v in zip(rays, rays[1:] + rays[:1]):
            if wedge(u, v) != 1:
                raise ValidationError(
                    f"consecutive rays {u}, {v} do not span a smooth cone"
                )

    @property
    def size(self):
        return len(self.rays)


def _ccw_sorted(rays):
    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(u, v):
        if half(u) != half(v):
            return half(u) - half(v)
        w = wedge(u, v)
        return -1 if w > 0 else (1 if w < 0 else 0)

    return sorted(rays, key=cmp_to_key(cmp))


def _bezout(u):
    """(p, q) with p u_0 + q u_1 = 1, for a primitive u (extended Euclid)."""
    (r0, p0, q0), (r1, p1, q1) = (u[0], 1, 0), (u[1], 0, 1)
    while r1:
        t = r0 // r1
        r0, p0, q0, r1, p1, q1 = r1, p1, q1, r0 - t * r1, p0 - t * p1, q0 - t * q1
    return (p0, q0) if r0 == 1 else (-p0, -q0)


def _resolve_cone(u, v):
    """The rays, in order from u, that resolve the cone from u to v
    (det(u, v) > 0): its Hirzebruch-Jung continued fraction.  With
    p u_0 + q u_1 = 1, the first is w = (v + a u)/det, a = -(p v_0 + q v_1)
    mod det.  det(u, w) = 1 makes (-u_1, u_0) a Bezout pair of w, so the
    cone from w to v, of det a, has a = -det mod a."""
    out = []
    det = wedge(u, v)
    if det > 1:
        p, q = _bezout(u)
        a = -(p * v[0] + q * v[1]) % det
        while det > 1:
            u = ((v[0] + a * u[0]) // det, (v[1] + a * u[1]) // det)
            out.append(u)
            det, a = a, -det % a
    return out


def complete_smooth_fan(rays):
    """Deterministic smooth completion containing every input ray, in one
    pass over the counterclockwise-sorted distinct rays: each ray u is
    paired with the next one v (a single ray pairs with itself); while
    det(u, v) <= 0, the 90-degree rotation of u is inserted and becomes the
    new u; every cone so made is resolved by its continued fraction (see
    _resolve_cone).  The work is linear in the number of rays out."""
    rays = [tuple(r) for r in rays]
    if not rays:
        raise ValidationError("need at least one ray")
    for r in rays:
        if len(r) != 2 or gcd(*r) != 1:
            raise ValidationError(f"ray {r} must be a primitive integer pair")
    ccw = _ccw_sorted(set(rays))
    out = []
    for u, v in zip(ccw, ccw[1:] + ccw[:1]):
        out.append(u)
        while wedge(u, v) <= 0:
            w = rot90(u)
            out += _resolve_cone(u, w) + [w]
            u = w
        out += _resolve_cone(u, v)
    return Fan2D(tuple(out))


def self_intersections(fan):
    """Self-intersection numbers a_i of the boundary divisors, read off the
    walls: u_{i-1} + u_{i+1} = -a_i u_i and det(u_{i-1}, u_i) = 1 give
    a_i = -det(u_{i-1}, u_{i+1}).  Each wall relation is checked: together
    they say that the toric form kills the relations sum <m, u_i> D_i."""
    rays = fan.rays
    out = []
    for p, u, n in zip(rays[-1:] + rays[:-1], rays, rays[1:] + rays[:1]):
        a = -wedge(p, n)
        if p[0] + n[0] + a * u[0] or p[1] + n[1] + a * u[1]:
            raise ValidationError("intersection form does not kill toric relations")
        out.append(a)
    return tuple(out)


# -- blown-up surfaces --------------------------------------------------------

@dataclass(frozen=True)
class BlowupSurface:
    """A smooth toric surface blown up at distinct very general points of its
    boundary divisors, with its integral intersection form.

    centers[i] is the ray index carrying the i-th blown-up point.  A class
    is x - sum e_i E_i: a combination x of the pulled-back toric boundary
    divisors minus multiples of the exceptional curves E_i.  The toric block
    Q of the form is read off the fan's walls: the toric self-intersections
    a_i on the diagonal, ones between cyclically adjacent rays.  Exceptional
    curves are mutually orthogonal with square -1 and meet no pulled-back
    divisor, so two classes meet in x Q y - e . e'."""

    fan: Fan2D
    centers: tuple
    toric_self_intersections: tuple
    boundary_self_intersections: tuple

    @property
    def q(self):
        """The toric block as a dense r x r Matrix, built on each read."""
        r = self.fan.size
        rows = [[0] * r for _ in range(r)]
        for i, a in enumerate(self.toric_self_intersections):
            rows[i][i] = a
            rows[i][i - 1] = rows[i][(i + 1) % r] = 1
        return Matrix(rows)


def blowup_surface(fan, centers):
    """Blow up one point on the boundary divisor of the ray with each given
    index; an index may repeat, one point per occurrence."""
    centers = tuple(centers)
    counts = [0] * fan.size
    for ray_idx in centers:
        if not 0 <= ray_idx < fan.size:
            raise ValidationError(f"ray index {ray_idx} out of range")
        counts[ray_idx] += 1
    selfints = self_intersections(fan)
    boundary = tuple(a - c for a, c in zip(selfints, counts))
    return BlowupSurface(fan, centers, selfints, boundary)


# -- the kernel pairing --------------------------------------------------------

def _require_weight_one(data):
    if any(x != 1 for x in data.nu):
        raise UnsupportedError(
            "kernel pairing is computed only for weight-one data (nu_i = 1)"
        )


def _surface_for(ws, fan):
    index = {ray: i for i, ray in enumerate(fan.rays)}
    for w in ws:
        if tuple(w) not in index:
            raise ValidationError(f"fan does not contain the ray {w}")
    return blowup_surface(fan, [index[tuple(w)] for w in ws])


@dataclass(frozen=True)
class KGram:
    """A fixed basis of the kernel of the skew form together with the Gram
    matrix of the induced symmetric pairing, the data they came from and the
    blown-up surface the pairing was read off."""

    data: Rank2Data
    surface: BlowupSurface
    basis: tuple
    gram: Matrix


def _gram_for_vectors(surface, kernel_vectors):
    """Gram matrix of the classes of the kernel elements on the surface.
    The class of a is x_a - sum a_i E_i, where E_i is the exceptional curve
    of the i-th center and Q x_a = c_a, with c_a[j] the total of a over the
    centers on ray j: it is orthogonal to every boundary component.  Two
    classes meet in x_a Q x_b - a . b = x_a . c_b - a . b, so the Gram is
    read off one Smith reduction of Q that solves every x_a."""
    totals = []
    for a in kernel_vectors:
        c = [0] * surface.fan.size
        for ai, j in zip(a, surface.centers):
            c[j] += ai
        totals.append(c)
    xs = solve_integer(surface.q, totals)
    if None in xs:
        raise ValidationError("no integral toric class matches a kernel element")
    gram = Matrix([
        [sum(map(mul, x, c)) - sum(map(mul, a, b)) for b, c in zip(kernel_vectors, totals)]
        for a, x in zip(kernel_vectors, xs)
    ])
    if gram.transpose() != gram:
        raise ValidationError("kernel pairing failed to be symmetric")
    return gram


def symmetric_form(data):
    """Gram matrix of the induced pairing on the kernel of the skew form,
    on the canonical kernel basis.  For weight-one data the skew form is the
    wedge matrix of the vectors w."""
    _require_weight_one(data)
    basis = kernel_basis(Matrix([[wedge(u, v) for v in data.w] for u in data.w]))
    surface = _surface_for(data.w, complete_smooth_fan(set(data.w)))
    return KGram(data, surface, basis, _gram_for_vectors(surface, basis))


def invariance_check(form, path):
    """Recompute the kernel pairing from the data mutated along the path
    (new plane vectors, fresh fan completion, same kernel basis carried
    through) and compare with the unmutated pairing.  The new w are the
    columns of W B (B the mutated basis), primitive step by step: a prime
    dividing w_i + c w_k, c = [eps_ik]_+ = nu_k (w_i ^ w_k) > 0, divides
    its wedge with w_k, hence c and w_i."""
    data = form.data
    mutated = mutate_along(build_seed(data), path)
    images = Matrix(zip(*data.w)) @ mutated.basis
    ws = list(zip(*images.data))
    binv = mutated.basis.inverse()
    carried = [binv.matvec(kappa) for kappa in form.basis]
    surface = _surface_for(ws, complete_smooth_fan(set(ws)))
    return _gram_for_vectors(surface, carried) == form.gram


# -- classification ------------------------------------------------------------

def inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix, by
    integer congruence (Sylvester's law of inertia).

    A rational matrix is first scaled by the lcm of its denominators.  Each
    step pivots on a nonzero diagonal entry p, counts its sign and passes to
    sgn(p) (p A' - a a^T), where A' is the rest of the matrix and a the rest
    of the pivot column: |p| times the Schur complement, so of the same
    inertia, divided by the gcd of its entries.  When the remaining diagonal
    is all zero, the basis change e_i <- e_i + e_j for a nonzero a_ij first
    makes the new a_ii = 2 a_ij nonzero."""
    if m.transpose() != m:
        raise ValidationError("inertia needs a symmetric matrix")
    s = lcm(*(x.denominator for row in m.data for x in row))
    a = [[int(x * s) for x in row] for row in m.data]
    pos = neg = 0
    while a:
        n = len(a)
        p = next((i for i in range(n) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if a[i][j]), None)
            if pair is None:
                break
            p, j = pair
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        prow = a[p]
        pivot = prow[p]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
            pivot = -pivot
            prow = [-x for x in prow]
        keep = [c for c in range(n) if c != p]
        a = [[pivot * a[r][c] - a[r][p] * prow[c] for c in keep] for r in keep]
        g = gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return (pos, neg, m.rows - pos - neg)


def classify_definiteness(gram):
    """One of zero_rank, negative_definite, negative_semidefinite_degenerate,
    indefinite.  Any form with a positive direction is reported indefinite;
    forms arising from boundary-orthogonal classes never come out positive
    definite."""
    return _definiteness(inertia(gram))


def _definiteness(signature):
    pos, neg, zero = signature
    if pos + neg + zero == 0:
        return "zero_rank"
    if pos > 0:
        return "indefinite"
    if zero > 0:
        return "negative_semidefinite_degenerate"
    return "negative_definite"


def fg_failure_flag(form):
    """Can the dual-basis conjecture possibly hold for the data of this
    kernel pairing (a KGram from symmetric_form)?  Returns the report fields
    classification, inertia and fg_conjecture_possible.

    The conjecture needs an affine generic fibre of the dual-side family,
    which holds exactly when the kernel pairing is negative definite (or the
    kernel is trivial)."""
    signature = inertia(form.gram)
    cls = _definiteness(signature)
    return {
        "classification": cls,
        "inertia": list(signature),
        "fg_conjecture_possible": cls in ("negative_definite", "zero_rank"),
    }


def non_fg_flag(form):
    """Detector for non-finitely-generated upper cluster algebras with
    principal (or general) coefficients, read off the blown-up surface of a
    kernel pairing (a KGram from symmetric_form).  Returns the report fields
    supported, boundary_self_intersections, all_minus_two and
    non_noetherian_principal.

    The criterion: every component of the boundary anticanonical cycle of
    self-intersection -2 forces a non-Noetherian ring of global functions
    with principal coefficients.  Weight nu_i = 3 style inputs are known
    cases in the literature but fall outside this checker (singular
    surfaces); symmetric_form rejects them."""
    boundary = form.surface.boundary_self_intersections
    all_minus_two = all(b == -2 for b in boundary)
    return {
        "supported": True,
        "boundary_self_intersections": list(boundary),
        "all_minus_two": all_minus_two,
        "non_noetherian_principal": all_minus_two,
    }
